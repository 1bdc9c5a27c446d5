//! MVCC snapshot isolation: the anomaly boundary, pinned.
//!
//! Three deterministic tests nail the isolation level from both sides —
//! what snapshot isolation *admits* (write skew: overlapping reads,
//! disjoint writes, both commit) and what it *forbids* (overlapping
//! writes: exactly one transaction aborts on the write-write conflict;
//! a snapshot reader concurrent with a writer's lock neither blocks
//! nor aborts).
//!
//! A property-based differential harness then replays every snapshot
//! read against a sequential oracle at the read's pinned epoch, for
//! arbitrary interleavings of writers and long-held readers, at
//! P ∈ {1, 2, 4}, under both the simulated and the wall-clock backend,
//! in-memory and across a checkpoint + crash + recovery round trip
//! (which exercises the recovered watermark: restored too low, a fresh
//! pin would miss committed pre-crash state).

use std::collections::BTreeMap;
use std::sync::Mutex;

use proptest::prelude::*;

use gda::dptr::owner_rank;
use gda::persist::{recover, PersistOptions};
use gda::{GdaConfig, GdaDb, GdaRank};
use gdi::{
    AccessMode, AppVertexId, Datatype, EntityType, GdiError, Multiplicity, PropertyValue, SizeType,
    TxStatus,
};
use rma::{BackendKind, CostModel};
use workloads::scratch::ScratchDir;

fn app(v: u64) -> AppVertexId {
    AppVertexId(v)
}

fn install_ptype(eng: &GdaRank) -> gdi::PTypeId {
    if eng.rank() == 0 {
        let p = eng
            .create_ptype(
                "val",
                Datatype::Uint64,
                EntityType::Vertex,
                Multiplicity::Single,
                SizeType::Fixed,
                1,
            )
            .unwrap();
        eng.ctx().barrier();
        p
    } else {
        eng.ctx().barrier();
        eng.refresh_meta();
        eng.meta().ptype_from_name("val").unwrap()
    }
}

/// Rank 0 creates vertices `ids` with `val = init`, commits, barrier.
fn seed_vertices(eng: &GdaRank, ptype: gdi::PTypeId, ids: &[u64], init: u64) {
    if eng.rank() == 0 {
        let tx = eng.begin(AccessMode::ReadWrite);
        for &i in ids {
            let v = tx.create_vertex(app(i)).unwrap();
            tx.add_property(v, ptype, &PropertyValue::U64(init))
                .unwrap();
        }
        tx.commit().unwrap();
    }
    eng.ctx().barrier();
}

fn read_val(tx: &gda::Transaction, ptype: gdi::PTypeId, id: u64) -> Option<u64> {
    let v = tx.translate_vertex_id(app(id)).ok()?;
    match tx.property(v, ptype) {
        Ok(Some(PropertyValue::U64(x))) => Some(x),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Anomaly boundary, side 1: SI admits write skew
// ---------------------------------------------------------------------

/// Two concurrent transactions each read BOTH vertices (overlapping
/// read sets, sum == 2 at read time) and each write a DIFFERENT one
/// (disjoint write sets). Under snapshot isolation both commit — the
/// "sum must stay ≥ 1" constraint each validated against its reads is
/// jointly violated. This is the write-skew anomaly SI is *defined* to
/// admit; serializability would have aborted one.
#[test]
fn write_skew_admitted_for_disjoint_writes() {
    let (db, fabric) = GdaDb::with_fabric("skew", GdaConfig::tiny(), 2, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let ptype = install_ptype(&eng);
        seed_vertices(&eng, ptype, &[1, 2], 1);

        let tx = eng.begin(AccessMode::ReadWrite);
        let sum = read_val(&tx, ptype, 1).unwrap() + read_val(&tx, ptype, 2).unwrap();
        assert_eq!(sum, 2, "constraint holds at read time on every rank");
        ctx.barrier(); // both transactions have performed their (lock-free) reads

        // disjoint writes: rank 0 zeroes vertex 1, rank 1 zeroes vertex 2
        let mine = 1 + ctx.rank() as u64;
        let v = tx.translate_vertex_id(app(mine)).unwrap();
        tx.update_property(v, ptype, &PropertyValue::U64(0))
            .unwrap();
        ctx.barrier(); // both hold their write lock — no conflict: disjoint

        tx.commit()
            .expect("snapshot isolation admits write skew: both writers commit");
        ctx.barrier();

        let ro = eng.begin(AccessMode::ReadOnly);
        let sum = read_val(&ro, ptype, 1).unwrap() + read_val(&ro, ptype, 2).unwrap();
        ro.commit().unwrap();
        assert_eq!(sum, 0, "the jointly-violated constraint is the anomaly");
    });
}

// ---------------------------------------------------------------------
// Anomaly boundary, side 2: overlapping writes abort exactly one
// ---------------------------------------------------------------------

/// The same shape with overlapping WRITE sets is forbidden: both
/// transactions read both vertices, but both try to write vertex 1.
/// The write-write conflict must abort exactly one of them (the loser
/// of the write lock) while the winner commits.
#[test]
fn overlapping_writes_abort_exactly_one() {
    let (db, fabric) = GdaDb::with_fabric("ww", GdaConfig::tiny(), 2, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let ptype = install_ptype(&eng);
        seed_vertices(&eng, ptype, &[1, 2], 1);

        let tx = eng.begin(AccessMode::ReadWrite);
        let _ = read_val(&tx, ptype, 1).unwrap();
        let _ = read_val(&tx, ptype, 2).unwrap();
        ctx.barrier(); // overlapping lock-free reads done on both ranks

        let v1 = tx.translate_vertex_id(app(1)).unwrap();
        if ctx.rank() == 0 {
            // rank 0 takes the write lock first...
            tx.update_property(v1, ptype, &PropertyValue::U64(99))
                .unwrap();
            ctx.barrier();
            ctx.barrier(); // ...and holds it across rank 1's attempt
            tx.commit().expect("the write-lock winner commits");
        } else {
            ctx.barrier(); // rank 0 now holds the write lock on vertex 1
            let err = tx
                .update_property(v1, ptype, &PropertyValue::U64(77))
                .unwrap_err();
            assert_eq!(err, GdiError::LockConflict, "write-write conflict");
            assert_eq!(
                tx.status(),
                TxStatus::Aborted,
                "exactly one transaction aborts"
            );
            ctx.barrier();
        }
        ctx.barrier();

        let ro = eng.begin(AccessMode::ReadOnly);
        assert_eq!(read_val(&ro, ptype, 1), Some(99), "winner's write survives");
        ro.commit().unwrap();
    });
}

// ---------------------------------------------------------------------
// Satellite regression: snapshot reads bypass writer locks
// ---------------------------------------------------------------------

/// `begin(ReadOnly)` pins a snapshot by default: a snapshot read of an
/// object whose write lock is concurrently held neither blocks nor
/// aborts — it returns the pinned pre-update version.
#[test]
fn snapshot_read_under_writer_lock_neither_blocks_nor_aborts() {
    let (db, fabric) = GdaDb::with_fabric("pin", GdaConfig::tiny(), 1, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let ptype = install_ptype(&eng);
        seed_vertices(&eng, ptype, &[1], 1);

        let blocker = eng.begin(AccessMode::ReadWrite);
        let v = blocker.translate_vertex_id(app(1)).unwrap();
        blocker
            .update_property(v, ptype, &PropertyValue::U64(2))
            .unwrap(); // write lock on vertex 1 is now held

        let reader = eng.begin(AccessMode::ReadOnly);
        assert!(
            reader.snapshot_epoch().is_some(),
            "read-only transactions pin a snapshot by default"
        );
        assert_eq!(
            read_val(&reader, ptype, 1),
            Some(1),
            "snapshot read returns the pinned pre-update version"
        );
        assert_eq!(reader.status(), TxStatus::Active, "read did not abort");
        reader.commit().unwrap();

        blocker.commit().unwrap();

        let after = eng.begin(AccessMode::ReadOnly);
        assert_eq!(
            read_val(&after, ptype, 1),
            Some(2),
            "new pin sees the commit"
        );
        after.commit().unwrap();
    });
    let reports = fabric.last_reports();
    let pins: u64 = reports.iter().map(|r| r.snapshot_pins).sum();
    let sreads: u64 = reports.iter().map(|r| r.snapshot_reads).sum();
    assert!(pins >= 2, "both read-only transactions pinned ({pins})");
    assert!(
        sreads >= 1,
        "reads went through the snapshot path ({sreads})"
    );
}

/// Repeatable reads after eviction: a pinned reader reads A, a writer
/// commits a new version of A (property, label and edges), the reader
/// reads B — which takes A's bytes out of its scratch buffers — and
/// then reads A again. Every field must still be the pinned version:
/// repeatable reads rest on the pinned epoch and the archive walk, not
/// on anything the reader kept.
#[test]
fn pinned_rereads_after_eviction_are_repeatable() {
    let (db, fabric) = GdaDb::with_fabric("evict", GdaConfig::tiny(), 1, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let ptype = install_ptype(&eng);
        let tag = eng.create_label("Tag").unwrap();
        seed_vertices(&eng, ptype, &[1, 2, 3], 1);
        let setup = eng.begin(AccessMode::ReadWrite);
        let [a, b, c] = [1, 2, 3].map(|i| setup.translate_vertex_id(app(i)).unwrap());
        setup.add_label(a, tag).unwrap();
        setup.add_edge(a, b, None, true).unwrap();
        setup.commit().unwrap();

        let fields = |tx: &gda::Transaction| {
            (
                tx.property(a, ptype).unwrap(),
                tx.labels(a).unwrap(),
                tx.edge_count(a, gdi::EdgeOrientation::Any).unwrap(),
                tx.edges(a, gdi::EdgeOrientation::Any).unwrap(),
            )
        };
        let reader = eng.begin(AccessMode::ReadOnly);
        let pinned = fields(&reader);
        assert_eq!(pinned.0, Some(PropertyValue::U64(1)));
        assert_eq!((pinned.1.len(), pinned.2), (1, 1));

        let writer = eng.begin(AccessMode::ReadWrite);
        writer
            .update_property(a, ptype, &PropertyValue::U64(2))
            .unwrap();
        writer.remove_label(a, tag).unwrap();
        writer.add_edge(a, c, None, true).unwrap();
        writer.commit().unwrap();

        assert_eq!(read_val(&reader, ptype, 2), Some(1), "B evicts A");
        assert_eq!(fields(&reader), pinned, "A again, at the pinned epoch");
        reader.commit().unwrap();

        let fresh = eng.begin(AccessMode::ReadOnly);
        let now = fields(&fresh);
        assert_eq!(now.0, Some(PropertyValue::U64(2)));
        assert_eq!((now.1.len(), now.2), (0, 2), "a new pin sees the writer");
        fresh.commit().unwrap();
    });
}

/// There is one read path: every local read-only transaction pins a
/// snapshot, however it was begun; writers and collective transactions
/// (the paper's no-concurrent-writer path) never do.
#[test]
fn every_local_read_only_transaction_pins_and_nothing_else_does() {
    let (db, fabric) = GdaDb::with_fabric("who-pins", GdaConfig::tiny(), 2, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        for tx in [
            eng.begin(AccessMode::ReadOnly),
            eng.begin_grouped(AccessMode::ReadOnly),
        ] {
            assert!(tx.snapshot_epoch().is_some(), "local read-only pins");
            tx.commit().unwrap();
        }
        let writer = eng.begin(AccessMode::ReadWrite);
        assert_eq!(writer.snapshot_epoch(), None, "local writer");
        writer.commit().unwrap();
        for mode in [AccessMode::ReadOnly, AccessMode::ReadWrite] {
            let tx = eng.begin_collective(mode);
            assert_eq!(tx.snapshot_epoch(), None, "collective {mode:?}");
            tx.commit().unwrap();
        }
    });
}

// ---------------------------------------------------------------------
// Differential harness: snapshot reads vs a sequential oracle
// ---------------------------------------------------------------------

const IDS: u64 = 6;
const SLOTS: usize = 2;

/// One step of a serialized interleaving. `Write` commits on the id's
/// owner rank; `BeginRead` pins a snapshot on the slot's rank and holds
/// it open across later writes; `EndRead` performs every read at the
/// pinned epoch, checks it against the oracle, and unpins.
#[derive(Debug, Clone, Copy)]
enum SiOp {
    Write(u64, u64),
    BeginRead(usize),
    EndRead(usize),
}

fn arb_si_op() -> impl Strategy<Value = SiOp> {
    prop_oneof![
        (0..IDS, 0u64..1_000_000).prop_map(|(v, x)| SiOp::Write(v, x)),
        (0..SLOTS).prop_map(SiOp::BeginRead),
        (0..SLOTS).prop_map(SiOp::EndRead),
    ]
}

/// The oracle: every committed write as `(epoch, id, val)`, in epoch
/// order (execution is serialized by barriers, so push order == epoch
/// order). `base` holds writes that predate the epoch space of the
/// current fabric (i.e. recovered pre-crash state, visible to every
/// pin).
struct Oracle {
    base: BTreeMap<u64, u64>,
    log: Mutex<Vec<(u64, u64, u64)>>,
}

impl Oracle {
    fn expected_at(&self, snap: u64) -> BTreeMap<u64, u64> {
        let mut m = self.base.clone();
        for &(e, id, val) in self.log.lock().unwrap().iter() {
            if e <= snap {
                m.insert(id, val);
            }
        }
        m
    }
}

/// Run `ops` serially (one barrier per step) on an attached engine,
/// checking every `EndRead` against the oracle. Returns divergence
/// descriptions (empty = clean). `created` tracks which app ids exist,
/// maintained identically on every rank.
fn apply_si_ops(
    eng: &GdaRank,
    ptype: gdi::PTypeId,
    ops: &[SiOp],
    oracle: &Oracle,
    created: &mut std::collections::BTreeSet<u64>,
) -> Vec<String> {
    let me = eng.rank();
    let n = eng.nranks();
    let mut divergences = Vec::new();
    let mut open: Vec<Option<(gda::Transaction, u64)>> = (0..SLOTS).map(|_| None).collect();
    let mut open_slots = [false; SLOTS];
    let check = |tx: &gda::Transaction, snap: u64, divergences: &mut Vec<String>| {
        let want = oracle.expected_at(snap);
        for id in 0..IDS {
            let got = read_val(tx, ptype, id);
            if got != want.get(&id).copied() {
                divergences.push(format!(
                    "id {id} at snapshot {snap}: read {:?}, oracle {:?}",
                    got,
                    want.get(&id)
                ));
            }
        }
    };
    for op in ops {
        eng.ctx().barrier();
        match *op {
            SiOp::Write(id, val) => {
                let exists = created.contains(&id);
                if owner_rank(app(id), n) == me {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    if exists {
                        let v = tx.translate_vertex_id(app(id)).unwrap();
                        tx.update_property(v, ptype, &PropertyValue::U64(val))
                            .unwrap();
                    } else {
                        let v = tx.create_vertex(app(id)).unwrap();
                        tx.add_property(v, ptype, &PropertyValue::U64(val)).unwrap();
                    }
                    tx.commit().unwrap();
                    oracle
                        .log
                        .lock()
                        .unwrap()
                        .push((eng.last_commit_epoch(), id, val));
                }
                created.insert(id);
            }
            SiOp::BeginRead(slot) => {
                if !open_slots[slot] {
                    open_slots[slot] = true;
                    if slot % n == me {
                        let tx = eng.begin(AccessMode::ReadOnly);
                        let snap = tx.snapshot_epoch().expect("read-only pins by default");
                        open[slot] = Some((tx, snap));
                    }
                }
            }
            SiOp::EndRead(slot) => {
                if open_slots[slot] {
                    open_slots[slot] = false;
                    if let Some((tx, snap)) = open[slot].take() {
                        check(&tx, snap, &mut divergences);
                        tx.commit().unwrap();
                    }
                }
            }
        }
    }
    // close leftover pins, still checking them
    for slot in open.iter_mut().take(SLOTS) {
        eng.ctx().barrier();
        if let Some((tx, snap)) = slot.take() {
            check(&tx, snap, &mut divergences);
            tx.commit().unwrap();
        }
    }
    eng.ctx().barrier();
    divergences
}

/// In-memory differential at (backend, nranks).
fn si_divergences(backend: BackendKind, nranks: usize, ops: &[SiOp]) -> Vec<String> {
    let (db, fabric) = GdaDb::with_fabric_on(
        "sidiff",
        GdaConfig::tiny(),
        nranks,
        CostModel::zero(),
        backend,
    );
    let oracle = Oracle {
        base: BTreeMap::new(),
        log: Mutex::new(Vec::new()),
    };
    let all = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let ptype = install_ptype(&eng);
        let mut created = std::collections::BTreeSet::new();
        apply_si_ops(&eng, ptype, ops, &oracle, &mut created)
    });
    all.into_iter().flatten().collect()
}

/// Differential across a crash: phase-1 ops, checkpoint, crash,
/// recover, then phase-2 ops with live snapshot checks. The recovered
/// watermark must cover every pre-crash epoch, or a fresh phase-2 pin
/// would miss committed phase-1 state (caught as a divergence).
fn si_divergences_recovered(
    backend: BackendKind,
    nranks: usize,
    ops1: &[SiOp],
    ops2: &[SiOp],
    dir: &std::path::Path,
) -> Vec<String> {
    let oracle1 = Oracle {
        base: BTreeMap::new(),
        log: Mutex::new(Vec::new()),
    };
    let mut created_after_p1 = std::collections::BTreeSet::new();
    {
        let (db, fabric) = GdaDb::with_fabric_on(
            "sidur",
            GdaConfig::tiny(),
            nranks,
            CostModel::zero(),
            backend,
        );
        db.enable_persistence(PersistOptions::new(dir).backend(backend))
            .unwrap();
        let phase1 = fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let ptype = install_ptype(&eng);
            let mut created = std::collections::BTreeSet::new();
            let d = apply_si_ops(&eng, ptype, ops1, &oracle1, &mut created);
            eng.checkpoint().unwrap();
            (d, created)
        });
        let mut divergences: Vec<String> = Vec::new();
        for (d, created) in phase1 {
            divergences.extend(d);
            created_after_p1 = created;
        }
        if !divergences.is_empty() {
            return divergences;
        }
        // drop: the crash — everything in memory is lost
    }
    let base: BTreeMap<u64, u64> = {
        let mut m = BTreeMap::new();
        for &(_, id, val) in oracle1.log.lock().unwrap().iter() {
            m.insert(id, val);
        }
        m
    };
    let oracle2 = Oracle {
        base,
        log: Mutex::new(Vec::new()),
    };
    let (db, fabric, plan) =
        recover(PersistOptions::new(dir).backend(backend), CostModel::zero()).unwrap();
    let all = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = plan.restore_rank(&eng).unwrap();
        assert_eq!(rec.errors, 0, "replay errors: {rec:?}");
        let ptype = eng.meta().ptype_from_name("val").unwrap();
        let mut created = created_after_p1.clone();
        apply_si_ops(&eng, ptype, ops2, &oracle2, &mut created)
    });
    all.into_iter().flatten().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every snapshot read equals the sequential oracle at its pinned
    /// epoch — readers held open across concurrent committed writes
    /// must keep returning the pinned versions (chain walks), at
    /// P ∈ {1, 2, 4} under both backends.
    #[test]
    fn snapshot_reads_match_sequential_oracle(
        ops in prop::collection::vec(arb_si_op(), 1..20),
    ) {
        for backend in [BackendKind::Sim, BackendKind::Wall] {
            for nranks in [1usize, 2, 4] {
                let d = si_divergences(backend, nranks, &ops);
                prop_assert!(
                    d.is_empty(),
                    "SI divergence at {:?} P={}:\n{}\nops {:?}",
                    backend, nranks, d.join("\n"), ops
                );
            }
        }
    }

    /// The same differential across checkpoint + crash + recovery: the
    /// recovered watermark and truncated chains must keep phase-2
    /// snapshot reads oracle-exact.
    #[test]
    fn snapshot_reads_match_oracle_after_recovery(
        ops1 in prop::collection::vec(arb_si_op(), 1..12),
        ops2 in prop::collection::vec(arb_si_op(), 1..12),
    ) {
        for backend in [BackendKind::Sim, BackendKind::Wall] {
            for nranks in [1usize, 2, 4] {
                let td = ScratchDir::new("sirec");
                let d = si_divergences_recovered(backend, nranks, &ops1, &ops2, td.path());
                prop_assert!(
                    d.is_empty(),
                    "post-recovery SI divergence at {:?} P={}:\n{}\nops1 {:?}\nops2 {:?}",
                    backend, nranks, d.join("\n"), ops1, ops2
                );
            }
        }
    }
}
