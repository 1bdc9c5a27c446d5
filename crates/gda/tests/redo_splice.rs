//! Redo records are byte splices against the version they patch.
//!
//! A committed write to a pre-existing object logs its new body as a
//! splice over the pre-image it overwrote, naming that pre-image's
//! version as its base; replay applies a patch only to the object at
//! exactly that version. These directed cases pin the rules that make
//! that safe: a patch is a few bytes, not the holder; after a failed
//! append every put is a whole image until the next full checkpoint, so
//! no later patch depends on the lost version; a patch whose base the
//! history lost is refused and counted, never applied to another
//! version; and patches logged by different ranks replay in version
//! order, whichever log holds them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use gda::faults::{self, FaultMode};
use gda::persist::{audit_image, RankRecovery};
use gda::{GdaConfig, GdaDb, GdaRank, PersistOptions, PersistStore};
use gdi::{
    AccessMode, AppVertexId, Datatype, EntityType, Multiplicity, PTypeId, PropertyValue, SizeType,
};
use rma::CostModel;

/// A unique, self-cleaning persistence directory for one run.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gda-redo-splice-{tag}-{}-{}",
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

/// The vertex every case writes: app id 2 lives on rank 0 at P ∈ {1, 2}.
const X: u64 = 2;

/// Run `body` on every rank of a fresh persistent `p`-rank database with
/// the `val` property, after rank 0 created `X` (`val` = 0) and a full
/// checkpoint captured it. Dropping the database afterwards is the crash.
fn after_base(dir: &TestDir, p: usize, body: impl Fn(&GdaRank, PTypeId, &PersistStore) + Sync) {
    let (db, fabric) = GdaDb::with_fabric("splice", GdaConfig::tiny(), p, CostModel::zero());
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
            let tx = eng.begin(AccessMode::ReadWrite);
            tx.create_vertex(AppVertexId(X)).unwrap();
            tx.commit().unwrap();
        }
        ctx.barrier();
        eng.refresh_meta();
        let val = eng.meta().ptype_from_name("val").unwrap();
        if ctx.rank() == 0 {
            set(&eng, val, 0);
        }
        eng.checkpoint().unwrap();
        assert!(store.last_checkpoint().unwrap().full);
        body(&eng, val, &store);
        ctx.barrier();
    });
}

/// One committed write of `X`'s `val`.
fn set(eng: &GdaRank, val: PTypeId, value: u64) {
    let tx = eng.begin(AccessMode::ReadWrite);
    let v = tx.translate_vertex_id(AppVertexId(X)).unwrap();
    tx.update_property(v, val, &PropertyValue::U64(value))
        .unwrap();
    tx.commit().unwrap();
}

/// Recover `dir` at its own rank count: rank 0's recovery report and
/// the `val` it reads on `X`.
fn recover(dir: &TestDir) -> (RankRecovery, Option<PropertyValue>) {
    let (db, fabric, mut recs) =
        gda::persist::recover_with_topology(PersistOptions::new(&dir.0), CostModel::zero(), None)
            .unwrap();
    let mut got = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let val = eng.meta().ptype_from_name("val").unwrap();
        let tx = eng.begin(AccessMode::ReadOnly);
        let v = tx.translate_vertex_id(AppVertexId(X)).unwrap();
        let got = tx.property(v, val).unwrap();
        tx.commit().unwrap();
        got
    });
    (recs.swap_remove(0), got.swap_remove(0))
}

/// An update of a vertex with 32 edge records logs the bytes that
/// changed plus the record's fixed fields — a fraction of the holder a
/// whole image would carry — and no whole record.
#[test]
fn an_update_logs_a_splice_not_the_holder() {
    let dir = TestDir::new("small");
    after_base(&dir, 1, |eng, val, _| {
        let tx = eng.begin(AccessMode::ReadWrite);
        let x = tx.translate_vertex_id(AppVertexId(X)).unwrap();
        for id in 100..132u64 {
            let n = tx.create_vertex(AppVertexId(id)).unwrap();
            tx.add_edge(x, n, None, true).unwrap();
        }
        tx.commit().unwrap();
        let before = eng.ctx().stats_snapshot();
        set(eng, val, 7);
        let after = eng.ctx().stats_snapshot();
        let logged = after.log_bytes - before.log_bytes;
        assert!(logged < 100, "an update logged {logged} B");
        assert_eq!(after.redo_whole_records, before.redo_whole_records);
        audit_image(eng).unwrap();
    });
    let (rec, got) = recover(&dir);
    assert_eq!((rec.errors, rec.refused), (0, 0), "{rec:?}");
    assert_eq!(got, Some(PropertyValue::U64(7)));
}

/// A failed append loses one commit's durability, and its version is in
/// no frame: the update after it is logged whole (counted), so
/// recovery returns its value through the whole image instead of
/// refusing a patch against the lost version.
#[test]
fn a_failed_append_makes_later_puts_whole() {
    let dir = TestDir::new("failed-append");
    after_base(&dir, 1, |eng, val, store| {
        store
            .fault_plane()
            .arm_at(faults::REDO_APPEND, None, 0, 1, FaultMode::Error);
        set(eng, val, 1);
        assert_eq!(store.log_errors(), 1);
        let before = eng.ctx().stats_snapshot().redo_whole_records;
        set(eng, val, 2);
        let whole = eng.ctx().stats_snapshot().redo_whole_records - before;
        assert_eq!(
            whole, 1,
            "the update after a failed append is a whole image"
        );
    });
    let (rec, got) = recover(&dir);
    assert_eq!((rec.errors, rec.refused), (0, 0), "{rec:?}");
    assert_eq!(got, Some(PropertyValue::U64(2)));
}

/// Rank 0 writes `X` (its own vertex), then rank 1 writes it remotely:
/// rank 1's patch names rank 0's version as its base. A crash tears
/// rank 0's only frame, so that version is in no history: recovery
/// refuses rank 1's patch and counts it, and `X` reads the checkpointed
/// value — the patch is never applied to another version.
#[test]
fn a_patch_whose_base_is_lost_is_refused_and_counted() {
    let dir = TestDir::new("lost-base");
    after_base(&dir, 2, |eng, val, _| {
        let me = eng.rank();
        if me == 0 {
            set(eng, val, 1);
        }
        eng.ctx().barrier();
        if me == 1 {
            let before = eng.ctx().stats_snapshot().redo_whole_records;
            set(eng, val, 2);
            assert_eq!(eng.ctx().stats_snapshot().redo_whole_records, before);
        }
    });
    // the crash tore rank 0's frame: its last byte never landed
    let log = dir.0.join("redo-rank-0.log");
    let len = std::fs::metadata(&log).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&log)
        .unwrap()
        .set_len(len - 1)
        .unwrap();
    let (rec, got) = recover(&dir);
    assert_eq!(rec.refused, 1, "{rec:?}");
    assert_eq!(rec.errors, 0, "{rec:?}");
    assert_eq!(got, Some(PropertyValue::U64(0)));
}

/// Both ranks take turns writing `X`, so each log holds every other
/// patch of the one object. Replaying log by log would meet rank 0's
/// second patch before rank 1's first; replay orders the patches by
/// version across both logs and recovers the last value, with every
/// patch applied.
#[test]
fn patches_from_two_logs_replay_in_version_order() {
    let dir = TestDir::new("two-logs");
    const ROUNDS: u64 = 6;
    after_base(&dir, 2, |eng, val, _| {
        let before = eng.ctx().stats_snapshot().redo_whole_records;
        for round in 1..=ROUNDS {
            if eng.rank() == (round % 2) as usize {
                set(eng, val, round);
            }
            eng.ctx().barrier();
        }
        assert_eq!(
            eng.ctx().stats_snapshot().redo_whole_records,
            before,
            "every write was a patch"
        );
        audit_image(eng).unwrap();
    });
    let (rec, got) = recover(&dir);
    assert_eq!((rec.errors, rec.refused, rec.skipped), (0, 0, 0), "{rec:?}");
    assert_eq!(rec.applied, ROUNDS, "{rec:?}");
    assert_eq!(got, Some(PropertyValue::U64(ROUNDS)));
}
