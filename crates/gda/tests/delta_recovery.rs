//! Differential oracle for incremental-checkpoint recovery: a churn
//! workload executed against a persistent database — with full and
//! delta checkpoints, maintenance vacuums and a redo tail interleaved —
//! then crashed and recovered must read back exactly the state the
//! uninterrupted execution produced (tracked by an in-test model),
//! across rank counts P ∈ {1, 2, 4} and property-tested churn mixes.
//! Directed cases cover the crash windows of a delta's seal and the
//! changes no redo frame records, which must force a full image.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use gda::blocks::BlockManager;
use gda::faults::{self, FaultMode, PERSISTENT};
use gda::hio;
use gda::persist::{audit_image, PersistStore};
use gda::{DPtr, GdaConfig, GdaDb, GdaRank, PersistOptions, VertexSpec};
use gdi::{
    AccessMode, AppVertexId, Datatype, EntityType, Multiplicity, PTypeId, PropertyValue, SizeType,
};
use proptest::prelude::*;
use rma::CostModel;

/// A unique, self-cleaning persistence directory for one run.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gda-delta-oracle-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TestDir(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Enough headroom for the model's live vertices plus their (bounded)
/// MVCC archive chains at P = 1.
fn churn_cfg() -> GdaConfig {
    GdaConfig {
        blocks_per_rank: 512,
        ..GdaConfig::tiny()
    }
}

/// One generated mutation, interpreted against the model: inserts pick
/// a fresh id, updates/deletes pick an existing one (falling back to
/// insert when the model is empty).
#[derive(Debug, Clone, Copy)]
enum Churn {
    Insert,
    Update(u16),
    Delete(u16),
}

fn decode_churn(code: u8, sel: u16, mix: usize) -> Churn {
    // three mixes: insert-heavy, update-heavy, delete-heavy
    let (ins, upd) = match mix {
        0 => (140u8, 230u8),
        1 => (60, 220),
        _ => (80, 160),
    };
    if code < ins {
        Churn::Insert
    } else if code < upd {
        Churn::Update(sel)
    } else {
        Churn::Delete(sel)
    }
}

/// Run `ops` as one-commit-per-op churn on rank 0 of a fresh persistent
/// `p`-rank database, checkpointing every `ckpt_every` ops on all ranks
/// and running a collective maintenance pass every `2 * ckpt_every`
/// ops. Returns the model the surviving state must equal: app id → the
/// last committed property value, plus every id that was deleted.
fn run_and_crash(
    dir: &TestDir,
    p: usize,
    ops: &[(u8, u16)],
    mix: usize,
    ckpt_every: usize,
) -> (BTreeMap<u64, u64>, Vec<u64>) {
    let cfg = churn_cfg();
    let (db, fabric) = GdaDb::with_fabric("oracle", cfg, p, CostModel::zero());
    db.enable_persistence(PersistOptions::new(&dir.0)).unwrap();
    let mut out = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        if ctx.rank() == 0 {
            eng.create_ptype(
                "val",
                Datatype::Uint64,
                EntityType::Vertex,
                Multiplicity::Single,
                SizeType::Fixed,
                1,
            )
            .unwrap();
        }
        ctx.barrier();
        eng.refresh_meta();
        let val = eng.meta().ptype_from_name("val").unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut deleted: Vec<u64> = Vec::new();
        let mut next_id = 1u64;
        for (i, &(code, sel)) in ops.iter().enumerate() {
            // every rank walks the same schedule so the collective
            // checkpoint/maintenance points line up; only rank 0 mutates
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                let mut op = decode_churn(code, sel, mix);
                if model.is_empty() && !matches!(op, Churn::Insert) {
                    op = Churn::Insert;
                }
                match op {
                    Churn::Insert => {
                        let id = next_id;
                        next_id += 1;
                        let v = tx.create_vertex(AppVertexId(id)).unwrap();
                        tx.add_property(v, val, &PropertyValue::U64(i as u64))
                            .unwrap();
                        model.insert(id, i as u64);
                    }
                    Churn::Update(s) => {
                        let id = *model.keys().nth(s as usize % model.len()).unwrap();
                        let v = tx.translate_vertex_id(AppVertexId(id)).unwrap();
                        tx.update_property(v, val, &PropertyValue::U64(i as u64))
                            .unwrap();
                        model.insert(id, i as u64);
                    }
                    Churn::Delete(s) => {
                        let id = *model.keys().nth(s as usize % model.len()).unwrap();
                        let v = tx.translate_vertex_id(AppVertexId(id)).unwrap();
                        tx.delete_vertex(v).unwrap();
                        model.remove(&id);
                        deleted.push(id);
                    }
                }
                tx.commit().unwrap();
            }
            if (i + 1) % ckpt_every == 0 {
                ctx.barrier();
                eng.checkpoint().unwrap();
                // the folded chain is the live windows on every live chain
                gda::persist::audit_image(&eng).unwrap();
            }
            if (i + 1) % (2 * ckpt_every) == 0 {
                ctx.barrier();
                eng.maintenance().unwrap();
            }
        }
        ctx.barrier();
        (model, deleted)
    });
    // rank 0 built the authoritative model; dropping db + fabric here
    // without a final checkpoint is the crash (the tail ops since the
    // last checkpoint live only in the redo logs)
    out.swap_remove(0)
}

/// Recover the crashed store and compare every surviving and deleted id
/// against the model.
fn recover_and_check(dir: &TestDir, model: &BTreeMap<u64, u64>, deleted: &[u64]) {
    let (db, fabric, plan) =
        gda::persist::recover(PersistOptions::new(&dir.0), CostModel::zero()).unwrap();
    let model = model.clone();
    let deleted = deleted.to_vec();
    fabric.run(move |ctx| {
        let eng = db.attach(ctx);
        let rec = plan.restore_rank(&eng).unwrap();
        assert_eq!(rec.errors, 0, "replay errors: {rec:?}");
        ctx.barrier();
        if ctx.rank() == 0 {
            let val = eng.meta().ptype_from_name("val").unwrap();
            let tx = eng.begin(AccessMode::ReadOnly);
            for (&id, &want) in &model {
                let v = tx
                    .translate_vertex_id(AppVertexId(id))
                    .unwrap_or_else(|e| panic!("live vertex {id} lost: {e}"));
                assert_eq!(
                    tx.property(v, val).unwrap(),
                    Some(PropertyValue::U64(want)),
                    "vertex {id} diverged from the uninterrupted execution"
                );
            }
            for &id in &deleted {
                assert!(
                    tx.translate_vertex_id(AppVertexId(id)).is_err(),
                    "deleted vertex {id} resurrected"
                );
            }
            tx.commit().unwrap();
        }
        ctx.barrier();
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn delta_chain_recovery_matches_uninterrupted_execution(
        ops in prop::collection::vec((any::<u8>(), any::<u16>()), 40..80),
        mix in 0usize..3,
        ckpt_every in 5usize..14,
    ) {
        for p in [1usize, 2, 4] {
            let dir = TestDir::new(&format!("p{p}"));
            let (model, deleted) = run_and_crash(&dir, p, &ops, mix, ckpt_every);
            recover_and_check(&dir, &model, &deleted);
        }
    }
}

/// Vacuum-then-recover round trip: archives reclaimed by the
/// maintenance vacuum must not resurrect through a checkpoint/recovery
/// cycle — recovered state reads the latest values only, and deleting
/// everything returns the whole pool (no vacuumed block comes back
/// allocated).
#[test]
fn vacuumed_archives_do_not_resurrect_through_recovery() {
    let dir = TestDir::new("vac-rt");
    let cfg = churn_cfg();
    {
        let (db, fabric) = GdaDb::with_fabric("vac", cfg, 1, CostModel::zero());
        db.enable_persistence(PersistOptions::new(&dir.0)).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let val = eng
                .create_ptype(
                    "val",
                    Datatype::Uint64,
                    EntityType::Vertex,
                    Multiplicity::Single,
                    SizeType::Fixed,
                    1,
                )
                .unwrap();
            let tx = eng.begin(AccessMode::ReadWrite);
            for id in 1..=8u64 {
                let v = tx.create_vertex(AppVertexId(id)).unwrap();
                tx.add_property(v, val, &PropertyValue::U64(id)).unwrap();
            }
            tx.commit().unwrap();
            eng.checkpoint().unwrap();
            // pile archives onto the first four chains, then vacuum them
            for round in 0..3u64 {
                let tx = eng.begin(AccessMode::ReadWrite);
                for id in 1..=4u64 {
                    let v = tx.translate_vertex_id(AppVertexId(id)).unwrap();
                    tx.update_property(v, val, &PropertyValue::U64(100 * round + id))
                        .unwrap();
                }
                tx.commit().unwrap();
            }
            let rep = eng.maintenance().unwrap();
            assert!(rep.vacuumed_versions >= 1, "{rep:?}");
            // final values, vacuumed again so the published checkpoint
            // contains no archive blocks, then publish
            let tx = eng.begin(AccessMode::ReadWrite);
            for id in 1..=4u64 {
                let v = tx.translate_vertex_id(AppVertexId(id)).unwrap();
                tx.update_property(v, val, &PropertyValue::U64(1000 + id))
                    .unwrap();
            }
            tx.commit().unwrap();
            eng.maintenance().unwrap();
            eng.checkpoint().unwrap();
            // redo tail past the publish: inserts only (no archives)
            let tx = eng.begin(AccessMode::ReadWrite);
            for id in 9..=10u64 {
                let v = tx.create_vertex(AppVertexId(id)).unwrap();
                tx.add_property(v, val, &PropertyValue::U64(id)).unwrap();
            }
            tx.commit().unwrap();
        });
        // crash
    }
    let (db, fabric, plan) =
        gda::persist::recover(PersistOptions::new(&dir.0), CostModel::zero()).unwrap();
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = plan.restore_rank(&eng).unwrap();
        assert_eq!(rec.errors, 0);
        let val = eng.meta().ptype_from_name("val").unwrap();
        let tx = eng.begin(AccessMode::ReadOnly);
        for id in 1..=4u64 {
            let v = tx.translate_vertex_id(AppVertexId(id)).unwrap();
            assert_eq!(
                tx.property(v, val).unwrap(),
                Some(PropertyValue::U64(1000 + id)),
                "vertex {id} must read its latest value, not a vacuumed one"
            );
        }
        for id in 5..=10u64 {
            let v = tx.translate_vertex_id(AppVertexId(id)).unwrap();
            assert_eq!(tx.property(v, val).unwrap(), Some(PropertyValue::U64(id)));
        }
        tx.commit().unwrap();
        // delete everything: if a vacuumed archive had resurrected as an
        // allocated block, the pool would come up short
        let tx = eng.begin(AccessMode::ReadWrite);
        for id in 1..=10u64 {
            let v = tx.translate_vertex_id(AppVertexId(id)).unwrap();
            tx.delete_vertex(v).unwrap();
        }
        tx.commit().unwrap();
        eng.maintenance().unwrap();
        let bm = BlockManager::new(ctx, churn_cfg());
        assert_eq!(bm.count_free(0), churn_cfg().blocks_per_rank);
    });
}

/// The layout of one rank's snapshot file (format v11, see
/// `docs/ARCHITECTURE.md`): header, a record per live chain, postings,
/// record count, trailer.
mod file {
    /// magic, version, id, rank, nranks
    pub const HEADER: usize = 8 + 4 + 8 + 4 + 4;
    /// A record's frame in front of its holder: primary and length.
    pub const RECORD_HEAD: usize = 8 + 4;
    /// A posting section without an index, the record count and the
    /// trailing checksum.
    pub const TAIL_WITHOUT_INDEXES: usize = 4 + 8 + 8;
}

/// Archives never reach the disk, end to end: while a pinned reader
/// keeps a vertex's old versions alive and the vertex is overwritten
/// `ROUNDS` times (archiving every pre-image; the commits' reclaims
/// free the records below the reader's snapshot), a delta carries no
/// window byte at all — its directory is the manifest and the sealed
/// segment, and the segment is exactly the redo bytes the overwrites
/// logged — and the next full image carries the live chains and no
/// archive block. The pinned reader still reads its version after both
/// checkpoints, and recovery reads the latest values.
#[test]
fn archives_never_reach_a_checkpoint() {
    const ROUNDS: u64 = 8;
    let dir = TestDir::new("volatile");
    let cfg = churn_cfg();
    let hot = 1u64;
    {
        let (db, fabric) = GdaDb::with_fabric("vol", cfg, 1, CostModel::zero());
        db.enable_persistence(PersistOptions::new(&dir.0)).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let val = eng
                .create_ptype(
                    "val",
                    Datatype::Uint64,
                    EntityType::Vertex,
                    Multiplicity::Single,
                    SizeType::Fixed,
                    1,
                )
                .unwrap();
            let update = |id: u64, value: u64| {
                let tx = eng.begin(AccessMode::ReadWrite);
                let v = tx.translate_vertex_id(AppVertexId(id)).unwrap();
                tx.update_property(v, val, &PropertyValue::U64(value))
                    .unwrap();
                tx.commit().unwrap();
            };
            let tx = eng.begin(AccessMode::ReadWrite);
            let ids: Vec<DPtr> = (1..=8u64)
                .map(|id| {
                    let v = tx.create_vertex(AppVertexId(id)).unwrap();
                    tx.add_property(v, val, &PropertyValue::U64(id)).unwrap();
                    v
                })
                .collect();
            tx.commit().unwrap();
            eng.checkpoint().unwrap();
            // two archives the first reclaim below frees
            update(hot, 10);
            update(hot, 20);
            eng.checkpoint().unwrap();

            let pinned = eng.begin(AccessMode::ReadOnly);
            let logged_before = ctx.stats_snapshot().log_bytes;
            for round in 1..=ROUNDS {
                update(hot, 100 + round);
            }
            let archives = ctx.stats_snapshot();
            assert!(archives.version_archives >= ROUNDS + 2, "{archives:?}");
            assert!(archives.chain_truncations >= 1, "{archives:?}");

            let holder_len = |dp: DPtr| hio::read_chain(ctx, &cfg, dp).unwrap().0.len();
            let delta = eng.checkpoint().unwrap();
            let mut files: Vec<String> = std::fs::read_dir(dir.0.join(format!("ckpt-{delta}")))
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            files.sort();
            assert_eq!(
                files,
                ["manifest.bin", "redo-rank-0.seg"],
                "a delta writes no window image"
            );
            let segment = std::fs::metadata(dir.0.join(format!("ckpt-{delta}/redo-rank-0.seg")));
            assert_eq!(
                segment.unwrap().len(),
                archives.log_bytes - logged_before,
                "the segment is the overwrites' redo frames, no archive"
            );
            let snap = pinned.translate_vertex_id(AppVertexId(hot)).unwrap();
            assert_eq!(
                pinned.property(snap, val).unwrap(),
                Some(PropertyValue::U64(20))
            );

            let full = eng.checkpoint_full().unwrap();
            let f = std::fs::read(dir.0.join(format!("ckpt-{full}/rank-0.snap"))).unwrap();
            // a record per live chain and nothing else: no archive, no
            // free block, no window layout
            let records: usize = ids.iter().map(|&v| file::RECORD_HEAD + holder_len(v)).sum();
            let want = file::HEADER + records + file::TAIL_WITHOUT_INDEXES;
            assert_eq!(f.len(), want, "a full image is its live chains' records");
            assert_eq!(
                pinned.property(snap, val).unwrap(),
                Some(PropertyValue::U64(20))
            );
            pinned.commit().unwrap();
        });
        // crash
    }
    let model: BTreeMap<u64, u64> = (1..=8u64)
        .map(|id| (id, if id == hot { 100 + ROUNDS } else { id }))
        .collect();
    recover_and_check(&dir, &model, &[]);
}

/// Run `body` on every rank of a fresh persistent `p`-rank database
/// with the `val` property (the crash is the drop that follows); returns
/// what each rank returned.
fn on_persistent_ranks<T: Send>(
    dir: &TestDir,
    p: usize,
    body: impl Fn(&GdaRank, PTypeId, &PersistStore) -> T + Sync,
) -> Vec<T> {
    let (db, fabric) = GdaDb::with_fabric("seal", churn_cfg(), p, CostModel::zero());
    let store = db.enable_persistence(PersistOptions::new(&dir.0)).unwrap();
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        if ctx.rank() == 0 {
            eng.create_ptype(
                "val",
                Datatype::Uint64,
                EntityType::Vertex,
                Multiplicity::Single,
                SizeType::Fixed,
                1,
            )
            .unwrap();
        }
        ctx.barrier();
        eng.refresh_meta();
        let val = eng.meta().ptype_from_name("val").unwrap();
        body(&eng, val, &store)
    })
}

/// One rank's share of an interval: overwrite every vertex the rank
/// created before, then create `n` more from its own id range, one
/// commit per op — every frame lands in this rank's log. The model
/// records each committed value; the interval ends on a barrier.
fn rank_interval(eng: &GdaRank, val: PTypeId, model: &mut BTreeMap<u64, u64>, round: u64, n: u64) {
    let write = |id: u64, create: bool| {
        let value = PropertyValue::U64(round * 10_000 + id);
        let tx = eng.begin(AccessMode::ReadWrite);
        if create {
            let v = tx.create_vertex(AppVertexId(id)).unwrap();
            tx.add_property(v, val, &value).unwrap();
        } else {
            let v = tx.translate_vertex_id(AppVertexId(id)).unwrap();
            tx.update_property(v, val, &value).unwrap();
        }
        tx.commit().unwrap();
        round * 10_000 + id
    };
    let old: Vec<u64> = model.keys().copied().collect();
    for id in old {
        model.insert(id, write(id, false));
    }
    let first = 1_000 * (eng.rank() as u64 + 1) + model.len() as u64;
    for id in first..first + n {
        model.insert(id, write(id, true));
    }
    eng.ctx().barrier();
}

/// Every rank's model, merged (the ranks' id ranges are disjoint).
fn merged(models: Vec<BTreeMap<u64, u64>>) -> BTreeMap<u64, u64> {
    models.into_iter().flatten().collect()
}

/// A crash after a delta published but before any rank sealed its log
/// (every seal fails, and the database dies right after): each live log
/// still holds its rank's interval, recovery reads it behind the chain's
/// segments, and every acknowledged commit is back.
#[test]
fn a_crash_between_publish_and_seal_loses_no_commit() {
    let dir = TestDir::new("seal-crash");
    let models = on_persistent_ranks(&dir, 2, |eng, val, store| {
        let me = eng.rank();
        let mut model = BTreeMap::new();
        rank_interval(eng, val, &mut model, 1, 6);
        assert_eq!(eng.checkpoint().unwrap(), 1);
        rank_interval(eng, val, &mut model, 2, 4);
        if me == 0 {
            store
                .fault_plane()
                .arm_at(faults::REDO_SEAL, None, 0, PERSISTENT, FaultMode::Error);
        }
        eng.ctx().barrier();
        assert_eq!(eng.checkpoint().unwrap(), 2, "an unsealed log is non-fatal");
        assert!(!store.last_checkpoint().unwrap().full);
        assert!(dir.0.join(format!("redo-rank-{me}.log")).exists());
        assert!(!dir.0.join(format!("ckpt-2/redo-rank-{me}.seg")).exists());
        model
    });
    recover_and_check(&dir, &merged(models), &[]);
}

/// A seal that fails on one rank is non-fatal: that rank keeps serving
/// on its live log, the next delta seals both intervals into one
/// segment, and recovery equals the uninterrupted run.
#[test]
fn a_failed_seal_is_sealed_whole_by_the_next_delta() {
    let dir = TestDir::new("seal-retry");
    let models = on_persistent_ranks(&dir, 2, |eng, val, store| {
        let me = eng.rank();
        let log = dir.0.join(format!("redo-rank-{me}.log"));
        let segment = |id: u64| dir.0.join(format!("ckpt-{id}/redo-rank-{me}.seg"));
        let mut model = BTreeMap::new();
        rank_interval(eng, val, &mut model, 1, 6);
        assert_eq!(eng.checkpoint().unwrap(), 1);
        rank_interval(eng, val, &mut model, 2, 3);
        if me == 0 {
            store
                .fault_plane()
                .arm_at(faults::REDO_SEAL, Some(1), 0, 1, FaultMode::Error);
        }
        eng.ctx().barrier();
        assert_eq!(eng.checkpoint().unwrap(), 2);
        audit_image(eng).unwrap();
        assert_eq!(segment(2).exists(), me == 0, "rank 1's seal failed");
        let unsealed = std::fs::metadata(&log).map_or(0, |m| m.len());
        rank_interval(eng, val, &mut model, 3, 3);
        let both = std::fs::metadata(&log).unwrap().len();
        assert_eq!(eng.checkpoint().unwrap(), 3);
        audit_image(eng).unwrap();
        let sealed = std::fs::metadata(segment(3)).unwrap().len();
        assert_eq!(sealed, both, "the segment is the whole log");
        assert!(!log.exists());
        if me == 1 {
            assert!(0 < unsealed && unsealed < both, "two intervals in one file");
        }
        rank_interval(eng, val, &mut model, 4, 2);
        model
    });
    recover_and_check(&dir, &merged(models), &[]);
}

/// The rules that force a full image hold the chain up: a bulk load and
/// an index definition change are not in any redo frame, so the next
/// checkpoint is a full image even with a chain to extend. After the
/// bulk load the loaded vertices are in it; after the index creation the
/// postings are exactly the live ones — a delta would replay the
/// labelled vertices committed before the index existed into it — and a
/// crash recovers both. A log a full's failed truncation left behind
/// forces the next full the same way.
#[test]
fn changes_no_frame_records_force_a_full_image() {
    let dir = TestDir::new("unlogged");
    let models = on_persistent_ranks(&dir, 2, |eng, val, store| {
        let checkpoint = |want_full: bool, why: &str| {
            eng.checkpoint().unwrap();
            assert_eq!(store.last_checkpoint().unwrap().full, want_full, "{why}");
            audit_image(eng).unwrap();
        };
        let mut model = BTreeMap::new();
        rank_interval(eng, val, &mut model, 1, 4);
        checkpoint(true, "the base");
        rank_interval(eng, val, &mut model, 2, 2);
        checkpoint(false, "a delta on the base");

        let loaded: Vec<VertexSpec> = match eng.rank() {
            0 => (500..520)
                .map(|id| VertexSpec::new(id).with_prop(val, PropertyValue::U64(id)))
                .collect(),
            _ => Vec::new(),
        };
        model.extend(loaded.iter().map(|v| (v.app.0, v.app.0)));
        eng.bulk_load(loaded, Vec::new()).unwrap();
        checkpoint(true, "a bulk load forces a full image");

        if eng.rank() == 0 {
            eng.create_label("Tag").unwrap();
        }
        eng.ctx().barrier();
        eng.refresh_meta();
        let tag = eng.meta().label_from_name("Tag").unwrap();
        let tx = eng.begin(AccessMode::ReadWrite);
        for &id in model.keys().filter(|id| (1_000..10_000).contains(*id)) {
            let v = tx.translate_vertex_id(AppVertexId(id)).unwrap();
            tx.add_label(v, tag).unwrap();
        }
        tx.commit().unwrap();
        eng.ctx().barrier();
        if eng.rank() == 0 {
            eng.create_index("tagged", vec![tag], Vec::new()).unwrap();
        }
        eng.ctx().barrier();
        checkpoint(true, "an index definition forces a full image");

        // a full whose truncation fails on rank 1 leaves stale frames in
        // that log: the next checkpoint rebases instead of sealing them
        rank_interval(eng, val, &mut model, 3, 2);
        if eng.rank() == 0 {
            store
                .fault_plane()
                .arm_at(faults::REDO_ROTATE, Some(1), 0, 1, FaultMode::Error);
        }
        eng.ctx().barrier();
        eng.checkpoint_full().unwrap();
        rank_interval(eng, val, &mut model, 4, 2);
        checkpoint(
            true,
            "a log a failed truncation left behind is never sealed",
        );
        rank_interval(eng, val, &mut model, 5, 2);
        checkpoint(false, "a clean truncation lets deltas resume");
        model
    });
    recover_and_check(&dir, &merged(models), &[]);
}
