//! Crash-point torture tests over the fault plane (`gda::faults`).
//!
//! The differential oracle: for an arbitrary scripted workload run
//! through a **checkpoint → delta checkpoint → maintenance** sequence
//! with ONE injected fault at an arbitrary storage crash point (snapshot
//! write, manifest write, `CURRENT` publish, log rotate, prune — torn or
//! erroring, any rank, any occurrence), the state read back after crash
//! recovery must equal the uninterrupted reference run exactly. Every
//! fault on these paths is survivable by construction: a voted abort
//! unwinds the attempt and the redo tails stay replayable.
//!
//! Plus two deterministic cases at the integration level: snapshot
//! writes torn at every boundary of the streamed file layout (header,
//! mid-run, strip boundary, trailing checksum — of the full image; a
//! delta writes no snapshot file), and a torn redo tail: a crash
//! mid-append leaves a half-written frame whose checksum fails; recovery
//! must truncate it and keep every earlier commit.
//!
//! Runs under both fabric backends (CI sets `GDI_FABRIC_BACKEND`) and
//! scales down via `PROPTEST_CASES` for the smoke form.

use std::sync::Arc;

use proptest::prelude::*;

use gda::faults::{self, FaultMode};
use gda::persist::{recover_with_topology, PersistOptions, STRIP_BYTES};
use gda::{GdaConfig, GdaDb};
use gdi::{AccessMode, AppVertexId, Datatype, EntityType, Multiplicity, PropertyValue, SizeType};
use gdi_tests::harness::{apply_ops, install_ptype, read_state, reference_state, ReadState, WlOp};
use rma::CostModel;
use workloads::scratch::ScratchDir;

/// Storage crash points on the checkpoint/maintenance path. None of
/// them may lose a committed write — the equality oracle below. (Read
/// faults and `redo.append` are exercised by dedicated tests: they
/// legitimately cost an *undurable* tail, so exact equality is the
/// wrong oracle for them.)
const CRASH_POINTS: &[&str] = &[
    faults::SNAP_WRITE,
    faults::MANIFEST_WRITE,
    faults::CURRENT_RENAME,
    faults::REDO_ROTATE,
    faults::REDO_SEAL,
    faults::SNAP_PRUNE,
];

/// Byte counts a torn `snap.write` lets through before the "crash", for
/// the sampled harness (whose files are a few KiB): nothing, inside the
/// version field, inside the checkpoint id (the historical point),
/// inside the first record's primary and its length, inside a holder
/// three times, and everything — trailing checksum included — with only
/// the rename missing.
const TORN_AT: &[usize] = &[0, 9, 16, 30, 38, 95, 400, 2_500, usize::MAX];

/// Application ids of the ballast vertices (clear of the scripted ids).
const BALLAST_BASE: u64 = 1_000_000;
/// Bytes of the blob each ballast vertex carries.
const BALLAST_BLOB: usize = 400;

/// What an interrupted run did and what recovery read back.
struct Tortured {
    /// The recovered read state.
    state: ReadState,
    /// Rank 0's results of the run's two `checkpoint()` calls.
    checkpoints: [Option<u64>; 2],
    /// Bytes of rank 0's snapshot file per successful checkpoint call.
    snap_bytes: [Option<u64>; 2],
    /// The checkpoint recovery restored from.
    recovered_from: u64,
    /// Ballast blobs that came back intact.
    ballast_intact: usize,
}

fn arb_op(ids: u64) -> impl Strategy<Value = WlOp> {
    prop_oneof![
        (0..ids).prop_map(WlOp::Create),
        (0..ids).prop_map(WlOp::Create),
        (0..ids, 0u64..1_000_000).prop_map(|(v, x)| WlOp::SetProp(v, x)),
        (0..ids, 0..ids).prop_map(|(a, b)| WlOp::AddEdge(a, b)),
        (0..ids).prop_map(WlOp::Delete),
    ]
}

/// Interrupted run: `ballast` blob-carrying vertices, then the scripted
/// ops interleaved with a full checkpoint, a delta checkpoint and a
/// maintenance pass, with one fault armed at `(point, rank, skip)`; then
/// a crash and recovery.
#[allow(clippy::too_many_arguments)]
fn tortured_state(
    nranks: usize,
    cfg: GdaConfig,
    ballast: usize,
    ops: &[WlOp],
    cuts: (usize, usize),
    ids: u64,
    dir: &std::path::Path,
    point: &str,
    rank: Option<usize>,
    skip: u64,
    mode: FaultMode,
) -> Tortured {
    let blob = |i: usize| PropertyValue::Bytes(vec![(i % 251) as u8 | 1; BALLAST_BLOB]);
    let (checkpoints, snap_bytes) = {
        let (db, fabric) = GdaDb::with_fabric("chaos", cfg, nranks, CostModel::zero());
        let store = db.enable_persistence(PersistOptions::new(dir)).unwrap();
        store.fault_plane().arm_at(point, rank, skip, 1, mode);
        let per_rank = fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let ptype = install_ptype(&eng);
            if ballast > 0 && ctx.rank() == 0 {
                let blob_type = eng
                    .create_ptype(
                        "blob",
                        Datatype::Byte,
                        EntityType::Vertex,
                        Multiplicity::Single,
                        SizeType::NoLimit,
                        0,
                    )
                    .unwrap();
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in 0..ballast {
                    let v = tx
                        .create_vertex(AppVertexId(BALLAST_BASE + i as u64))
                        .unwrap();
                    tx.add_property(v, blob_type, &blob(i)).unwrap();
                }
                tx.commit().unwrap();
            }
            ctx.barrier();
            apply_ops(&eng, &ops[..cuts.0], ptype);
            // any of these collective steps may be the crash point; a
            // voted failure must unwind without losing committed work
            let mut ids = [None; 2];
            let mut bytes = [None; 2];
            let mut checkpoint = |slot: usize| {
                ids[slot] = eng.checkpoint().ok();
                bytes[slot] = ids[slot]
                    .and_then(|_| store.last_checkpoint())
                    .map(|report| report.per_rank_bytes[0]);
                ctx.barrier();
                if ids[slot].is_some() {
                    // what was published is the live windows on every live chain
                    gda::persist::audit_image(&eng).unwrap();
                }
            };
            checkpoint(0);
            apply_ops(&eng, &ops[cuts.0..cuts.1], ptype);
            checkpoint(1); // delta path: manifest, then the seals
            eng.maintenance(); // vacuum + verify + prune path
            apply_ops(&eng, &ops[cuts.1..], ptype);
            (ids, bytes)
        });
        per_rank[0]
        // drop: the crash (everything in memory is lost)
    };
    let (db, fabric, recs) =
        recover_with_topology(PersistOptions::new(dir), CostModel::zero(), None).unwrap();
    let db: Arc<GdaDb> = db;
    let states = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = &recs[ctx.rank()];
        assert_eq!(rec.errors, 0, "replay errors: {rec:?}");
        let ptype = eng.meta().ptype_from_name("val").unwrap();
        let ballast_intact = if ballast > 0 {
            let blob_type = eng.meta().ptype_from_name("blob").unwrap();
            let tx = eng.begin(AccessMode::ReadOnly);
            let intact = (0..ballast)
                .filter(|i| {
                    let v = tx.translate_vertex_id(AppVertexId(BALLAST_BASE + *i as u64));
                    v.is_ok_and(|v| tx.property(v, blob_type).unwrap() == Some(blob(*i)))
                })
                .count();
            tx.commit().unwrap();
            intact
        } else {
            0
        };
        (read_state(&eng, ids, ptype), ballast_intact)
    });
    let (state, ballast_intact) = states.into_iter().next().unwrap();
    Tortured {
        state,
        checkpoints,
        snap_bytes,
        recovered_from: recs[0].snapshot_id,
        ballast_intact,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero divergence at sampled crash points, P ∈ {1, 2, 4}: the
    /// recovered state equals the uninterrupted oracle no matter which
    /// storage fault fired where in the checkpoint→delta→maintenance
    /// sequence.
    #[test]
    fn crash_points_never_diverge_from_oracle(
        ops in prop::collection::vec(arb_op(10), 1..22),
        cut1_frac in 0.0f64..1.0,
        cut2_frac in 0.0f64..1.0,
        point_idx in 0usize..CRASH_POINTS.len(),
        rank_pick in 0usize..6,
        skip in 0u64..3,
        torn in prop::option::of(0usize..TORN_AT.len()),
        p_pick in 0usize..3,
    ) {
        let ids = 10u64;
        let nranks = [1usize, 2, 4][p_pick];
        let (a, b) = (
            (ops.len() as f64 * cut1_frac) as usize,
            (ops.len() as f64 * cut2_frac) as usize,
        );
        let cuts = (a.min(b).min(ops.len()), a.max(b).min(ops.len()));
        let point = CRASH_POINTS[point_idx];
        // None = any rank; Some(r) scopes the fault to one rank
        let rank = (rank_pick < nranks).then_some(rank_pick);
        let mode = match torn {
            Some(at) if point == faults::SNAP_WRITE => FaultMode::TornWrite(TORN_AT[at]),
            _ => FaultMode::Error,
        };
        let cfg = GdaConfig::tiny();
        let td = ScratchDir::new("chaos-prop");
        let want = reference_state(nranks, cfg, &ops, ids);
        let got = tortured_state(
            nranks, cfg, 0, &ops, cuts, ids, td.path(), point, rank, skip, mode,
        )
        .state;
        prop_assert!(
            got == want,
            "recovered state diverged (point={point} rank={rank:?} skip={skip} \
             mode={mode:?} cuts={cuts:?} of {} P={nranks}):\n got {got:?}\nwant {want:?}\n ops {ops:?}",
            ops.len()
        );
    }
}

/// A snapshot write torn at every boundary of the streamed layout, on a
/// database whose files span several strips: inside the fixed header, on
/// the first record's boundaries (before and inside its primary, its
/// length and its holder), mid-file, exactly on a strip (= write-buffer)
/// boundary and one byte to either side of it, on the end of the records
/// (postings, then the record count), just before and inside the
/// trailing checksum, and
/// with every byte down but the rename missing — for the full image (a
/// delta writes no snapshot file: the second `snap.write` never comes).
/// Each time the checkpoint fails, the previous snapshot stays current,
/// and recovery reads back the uninterrupted run.
#[test]
fn snapshot_torn_at_every_layout_boundary_recovers() {
    let cfg = GdaConfig {
        block_size: 512,
        blocks_per_rank: 4096,
        dht_buckets_per_rank: 1024,
        dht_heap_per_rank: 2048,
        ..GdaConfig::tiny()
    };
    let (nranks, ids, ballast) = (2, 10u64, 2_400);
    let ops: Vec<WlOp> = (0..ids)
        .map(WlOp::Create)
        .chain((0..ids - 1).map(|v| WlOp::AddEdge(v, v + 1)))
        .chain((0..ids).map(|v| WlOp::SetProp(v, 1_000 + v)))
        .chain([WlOp::Delete(3), WlOp::Create(3), WlOp::SetProp(4, 77)])
        .collect();
    let cuts = (ids as usize + 4, ops.len() - 2);
    let want = reference_state(nranks, cfg, &ops, ids);
    let run = |skip: u64, mode: FaultMode| {
        let td = ScratchDir::new("chaos-torn-snap");
        let faulty = Some(0);
        tortured_state(
            nranks,
            cfg,
            ballast,
            &ops,
            cuts,
            ids,
            td.path(),
            faults::SNAP_WRITE,
            faulty,
            skip,
            mode,
        )
    };
    // an unharmed run (the fault is armed at the second write, which a
    // delta never makes) tells the length of rank 0's snapshot file
    let clean = run(1, FaultMode::Error);
    assert!(clean.state == want && clean.ballast_intact == ballast);
    assert_eq!(clean.checkpoints, [Some(1), Some(2)]);
    let Some(full_len) = clean.snap_bytes[0].map(|b| b as usize) else {
        panic!("the full checkpoint succeeded");
    };
    assert!(
        full_len > 2 * STRIP_BYTES + 1,
        "the file must span strips: {full_len}"
    );
    let boundaries = |len: usize| {
        // header 28 B, a record's primary 8 B and length 4 B; the file
        // ends with the posting section (no index: 4 B), the record
        // count and the checksum
        let mut at = vec![5, 28, 32, 36, 38, 40, 44, len / 2];
        at.extend([len - 20, len - 16, len - 9, len - 8, len - 4, len - 1, len]);
        for strip in (STRIP_BYTES..len).step_by(STRIP_BYTES) {
            at.extend([strip - 1, strip, strip + 1]);
        }
        at
    };
    // call 0 writes the full image; after it tears, the second call
    // writes the (first) full image instead
    for at in boundaries(full_len) {
        let got = run(0, FaultMode::TornWrite(at));
        let what = format!("torn at {at} of {full_len}");
        assert!(
            got.state == want,
            "{what}: diverged\n got {:?}\nwant {want:?}",
            got.state
        );
        assert_eq!(got.ballast_intact, ballast, "{what}: ballast lost");
        assert_eq!(
            got.checkpoints,
            [None, Some(1)],
            "{what}: the torn checkpoint must fail alone"
        );
        assert_eq!(
            got.recovered_from, 1,
            "{what}: the previous snapshot stays current"
        );
    }
}

/// Deterministic torn-tail regression at the integration level: a crash
/// mid-append leaves a half-written frame; the frame checksum must catch
/// it, recovery truncates the tail and keeps every commit before it.
#[test]
fn torn_redo_tail_is_truncated_at_last_valid_frame() {
    let td = ScratchDir::new("chaos-torn");
    let cfg = GdaConfig::tiny();
    {
        let (db, fabric) = GdaDb::with_fabric("torn", cfg, 2, CostModel::zero());
        let store = db
            .enable_persistence(PersistOptions::new(td.path()))
            .unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let ptype = install_ptype(&eng);
            apply_ops(
                &eng,
                &[WlOp::Create(0), WlOp::Create(1), WlOp::AddEdge(0, 1)],
                ptype,
            );
            eng.checkpoint().unwrap();
            // the next append on rank 0 "crashes" after 10 bytes
            if ctx.rank() == 0 {
                store.fault_plane().arm_at(
                    faults::REDO_APPEND,
                    Some(0),
                    0,
                    1,
                    FaultMode::TornWrite(10),
                );
            }
            ctx.barrier();
            // owner of id 2 is rank 0 on P=2: this commit's frame tears
            apply_ops(&eng, &[WlOp::Create(2)], ptype);
            ctx.barrier();
        });
        assert_eq!(store.log_errors(), 1, "torn append surfaced");
    }
    let (db, fabric, recs) =
        recover_with_topology(PersistOptions::new(td.path()), CostModel::zero(), None).unwrap();
    let db: Arc<GdaDb> = db;
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = &recs[ctx.rank()];
        assert_eq!(rec.errors, 0, "truncation, not replay errors: {rec:?}");
        let ptype = eng.meta().ptype_from_name("val").unwrap();
        let tx = eng.begin(AccessMode::ReadOnly);
        // everything before the torn frame survives…
        for v in [0u64, 1] {
            let id = tx.translate_vertex_id(AppVertexId(v)).unwrap();
            assert_eq!(tx.property(id, ptype).unwrap(), Some(PropertyValue::U64(v)));
        }
        // …the torn commit is gone (its durability was lost, honestly)
        assert!(tx.translate_vertex_id(AppVertexId(2)).is_err());
        tx.commit().unwrap();
    });
}
