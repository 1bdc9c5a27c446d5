//! Durability integration tests: the crash/restart axis.
//!
//! * a property-based equivalence check — for arbitrary operation
//!   sequences and an arbitrary checkpoint position, *snapshot + redo
//!   replay* must reconstruct exactly the state an uninterrupted run
//!   reaches (the core durability contract);
//! * the full service-layer round trip — checkpoint mid-traffic, kill
//!   the fabric, `GdiServer::recover()`, and every previously committed
//!   read returns identical results.

use std::sync::Arc;

use proptest::prelude::*;

use gda::persist::{recover, PersistOptions};
use gda::{GdaConfig, GdaDb};
use gdi::{AccessMode, AppVertexId};
use gdi_tests::harness::{apply_ops, install_ptype, read_state, reference_state, ReadState, WlOp};
use rma::CostModel;
use workloads::recovery::{run_kill_restart, RecoveryScenario};
use workloads::scratch::ScratchDir;

fn arb_op(ids: u64) -> impl Strategy<Value = WlOp> {
    prop_oneof![
        (0..ids).prop_map(WlOp::Create),
        (0..ids).prop_map(WlOp::Create),
        (0..ids, 0u64..1_000_000).prop_map(|(v, x)| WlOp::SetProp(v, x)),
        (0..ids, 0..ids).prop_map(|(a, b)| WlOp::AddEdge(a, b)),
        (0..ids).prop_map(WlOp::Delete),
    ]
}

/// Interrupted run: ops up to `cut`, a collective checkpoint, the rest
/// of the ops (redo tail only), then a crash + recovery; returns the
/// recovered read state.
fn recovered_state(
    nranks: usize,
    cfg: GdaConfig,
    ops: &[WlOp],
    cut: usize,
    ids: u64,
    dir: &std::path::Path,
) -> ReadState {
    {
        let (db, fabric) = GdaDb::with_fabric("dur", cfg, nranks, CostModel::zero());
        db.enable_persistence(PersistOptions::new(dir)).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let ptype = install_ptype(&eng);
            apply_ops(&eng, &ops[..cut], ptype);
            eng.checkpoint().unwrap();
            apply_ops(&eng, &ops[cut..], ptype);
        });
        // drop: the crash (everything in memory is lost)
    }
    let (db, fabric, plan) = recover(PersistOptions::new(dir), CostModel::zero()).unwrap();
    let states = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = plan.restore_rank(&eng).unwrap();
        assert_eq!(rec.errors, 0, "replay errors: {rec:?}");
        let ptype = eng.meta().ptype_from_name("val").unwrap();
        read_state(&eng, ids, ptype)
    });
    states.into_iter().next().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core durability contract: snapshot + redo replay ≡ the
    /// uninterrupted execution, for arbitrary op sequences, checkpoint
    /// positions and (1 or 2)-rank fabrics.
    #[test]
    fn snapshot_plus_replay_equals_uninterrupted(
        ops in prop::collection::vec(arb_op(12), 1..28),
        cut_frac in 0.0f64..1.0,
        two_ranks in prop::bool::ANY,
    ) {
        let ids = 12u64;
        let nranks = if two_ranks { 2 } else { 1 };
        let cut = ((ops.len() as f64 * cut_frac) as usize).min(ops.len());
        let cfg = GdaConfig::tiny();
        let td = ScratchDir::new("prop");
        let want = reference_state(nranks, cfg, &ops, ids);
        let got = recovered_state(nranks, cfg, &ops, cut, ids, td.path());
        prop_assert!(
            got == want,
            "recovered state diverged (cut={} of {}, P={}):\n got {:?}\nwant {:?}\n ops {:?}",
            cut, ops.len(), nranks, got, want, ops
        );
    }
}

/// The acceptance round trip at the service layer: tracked traffic,
/// checkpoint mid-stream, kill, `GdiServer::recover()`, and every
/// previously committed read returns identical results.
#[test]
fn server_round_trip_checkpoint_kill_recover() {
    let td = ScratchDir::new("server");
    let mut cfg = RecoveryScenario::new(td.path());
    cfg.nranks = 2;
    cfg.scale = 6;
    cfg.sessions = 6;
    cfg.ops_before = 25;
    cfg.ops_after = 25;
    cfg.cost = CostModel::zero();
    let report = run_kill_restart(&cfg);
    assert!(report.committed_writes > 0);
    assert!(
        report.passed(),
        "read-your-committed-writes across restart violated:\n{}",
        report.mismatches.join("\n")
    );
    assert_eq!(report.checkpoint.id, 1);
    let rec = report.recovery.expect("recovery metrics");
    assert!(rec.records > 0, "the redo tail must contain work: {rec:?}");
    assert_eq!(rec.errors, 0);
    assert_eq!(rec.ranks_restored, 2);
}

/// Recovery directly after an *unclean* checkpoint history: the newest
/// checkpoint attempt failed (injected), so recovery must come from
/// the previous snapshot plus the still-growing redo segment.
#[test]
fn recover_from_previous_snapshot_after_failed_checkpoint() {
    let td = ScratchDir::new("prevsnap");
    let cfg = GdaConfig::tiny();
    {
        let (db, fabric) = GdaDb::with_fabric("prev", cfg, 2, CostModel::zero());
        let store = db
            .enable_persistence(PersistOptions::new(td.path()))
            .unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in 0..8u64 {
                    tx.create_vertex(AppVertexId(i)).unwrap();
                }
                tx.commit().unwrap();
            }
            ctx.barrier();
            eng.checkpoint().unwrap();
            // commits after the good checkpoint: redo tail of segment 1
            if ctx.rank() == 1 {
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(101)).unwrap();
                tx.commit().unwrap();
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                store.fault_plane().arm_at(
                    gda::faults::MANIFEST_WRITE,
                    Some(0),
                    0,
                    1,
                    gda::faults::FaultMode::Error,
                );
            }
            assert!(eng.checkpoint().is_err());
            // the tail keeps growing on the same segment after the
            // failed attempt
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(102)).unwrap();
                tx.commit().unwrap();
            }
            ctx.barrier();
        });
    }
    let (db, fabric, plan) = recover(PersistOptions::new(td.path()), CostModel::zero()).unwrap();
    assert_eq!(plan.snapshot_id(), 1, "previous snapshot is the anchor");
    let db: Arc<GdaDb> = db;
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = plan.restore_rank(&eng).unwrap();
        assert_eq!(rec.errors, 0);
        let tx = eng.begin(AccessMode::ReadOnly);
        for i in (0..8u64).chain([101, 102]) {
            tx.translate_vertex_id(AppVertexId(i))
                .unwrap_or_else(|e| panic!("vertex {i} lost: {e}"));
        }
        tx.commit().unwrap();
    });
}
