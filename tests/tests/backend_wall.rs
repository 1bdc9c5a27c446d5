//! Differential oracle for the wall-clock execution backend: the same
//! logical workload must reach the identical observable state whether
//! the fabric charges LogGP costs (`Sim`) or runs free on real threads
//! with `Instant` timing (`Wall`). The backends share every atomic op —
//! only the clock differs — so any state divergence is a real bug in
//! the backend seam.
//!
//! Two layers:
//! * a property-based slice of the durability differential — arbitrary
//!   op sequences executed under `Wall` at P ∈ {1, 2, 4} against the
//!   single-rank simulated reference;
//! * the full service-layer kill/recover round trip of
//!   `workloads::durability`'s kill-restart script pinned to `Wall` at
//!   P ∈ {1, 2, 4}.

use std::collections::BTreeMap;

use proptest::prelude::*;

use gda::{GdaConfig, GdaDb};
use gdi::{
    AccessMode, AppVertexId, Datatype, EdgeOrientation, EntityType, Multiplicity, PropertyValue,
    SizeType,
};
use rma::{BackendKind, CostModel};
use workloads::durability::{self, Scenario};
use workloads::scratch::ScratchDir;

/// One logical operation, routed by its first vertex id.
#[derive(Debug, Clone, Copy)]
enum WlOp {
    Create(u64),
    SetProp(u64, u64),
    AddEdge(u64, u64),
    Delete(u64),
}

impl WlOp {
    fn routing(&self) -> u64 {
        match self {
            WlOp::Create(v) | WlOp::SetProp(v, _) | WlOp::Delete(v) | WlOp::AddEdge(v, _) => *v,
        }
    }
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

/// Observable state: per application id, the property value and the
/// any-orientation edge count (`None` = id does not resolve).
type ReadState = BTreeMap<u64, Option<(Option<u64>, usize)>>;

fn install_ptype(eng: &gda::GdaRank) -> gdi::PTypeId {
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

/// Execute `ops` serially: each op runs on the rank owning its routing
/// vertex, with a barrier in between, so every topology and backend
/// sees the identical serial history.
fn apply_ops(eng: &gda::GdaRank, ops: &[WlOp], ptype: gdi::PTypeId) {
    let me = eng.rank();
    for op in ops {
        if gda::owner_rank(AppVertexId(op.routing()), eng.nranks()) == me {
            let tx = eng.begin(AccessMode::ReadWrite);
            let r = (|| -> Result<(), gdi::GdiError> {
                match *op {
                    WlOp::Create(v) => {
                        let id = tx.create_vertex(AppVertexId(v))?;
                        tx.add_property(id, ptype, &PropertyValue::U64(v))?;
                    }
                    WlOp::SetProp(v, x) => {
                        let id = tx.translate_vertex_id(AppVertexId(v))?;
                        tx.update_property(id, ptype, &PropertyValue::U64(x))?;
                    }
                    WlOp::AddEdge(a, b) => {
                        let ia = tx.translate_vertex_id(AppVertexId(a))?;
                        let ib = tx.translate_vertex_id(AppVertexId(b))?;
                        tx.add_edge(ia, ib, None, true)?;
                    }
                    WlOp::Delete(v) => {
                        let id = tx.translate_vertex_id(AppVertexId(v))?;
                        tx.delete_vertex(id)?;
                    }
                }
                Ok(())
            })();
            match r {
                Ok(()) => {
                    let _ = tx.commit();
                }
                Err(_) => tx.abort(),
            }
        }
        eng.ctx().barrier();
    }
}

fn read_state(eng: &gda::GdaRank, ids: u64, ptype: gdi::PTypeId) -> ReadState {
    let mut out = ReadState::new();
    let tx = eng.begin(AccessMode::ReadOnly);
    for v in 0..ids {
        let entry = match tx.translate_vertex_id(AppVertexId(v)) {
            Ok(id) => {
                let prop = tx.property(id, ptype).unwrap().and_then(|p| match p {
                    PropertyValue::U64(x) => Some(x),
                    _ => None,
                });
                let edges = tx.edge_count(id, EdgeOrientation::Any).unwrap();
                Some((prop, edges))
            }
            Err(_) => None,
        };
        out.insert(v, entry);
    }
    tx.commit().unwrap();
    out
}

/// Run the workload to completion on `nranks` ranks under `backend`
/// and return the final observable state plus the per-rank reports.
fn final_state(
    backend: BackendKind,
    nranks: usize,
    ops: &[WlOp],
    ids: u64,
) -> (ReadState, Vec<rma::RankReport>) {
    let (db, fabric) = GdaDb::with_fabric_on(
        "bw",
        GdaConfig::tiny(),
        nranks,
        CostModel::default(),
        backend,
    );
    let states = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let ptype = install_ptype(&eng);
        apply_ops(&eng, ops, ptype);
        ctx.barrier();
        read_state(&eng, ids, ptype)
    });
    let reports = fabric.last_reports();
    (states.into_iter().next().unwrap(), reports)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The backend seam must be invisible to the logical outcome:
    /// `Wall` at P ∈ {1, 2, 4} reaches exactly the state the simulated
    /// single-rank reference reaches, for arbitrary op sequences.
    #[test]
    fn wall_execution_matches_simulated_reference(
        ops in prop::collection::vec(arb_op(12), 1..24),
    ) {
        let ids = 12u64;
        let (want, _) = final_state(BackendKind::Sim, 1, &ops, ids);
        for nranks in [1usize, 2, 4] {
            let (got, reports) = final_state(BackendKind::Wall, nranks, &ops, ids);
            prop_assert!(
                got == want,
                "wall state diverged at P={}:\n got {:?}\nwant {:?}\n ops {:?}",
                nranks, got, want, ops
            );
            for r in &reports {
                prop_assert!(r.sim_time_ns == 0.0, "wall run charged the sim clock");
                prop_assert!(r.wall_time_ns > 0.0, "wall run kept no wall time");
            }
        }
    }
}

/// The service-layer acceptance loop under the wall backend: tracked
/// traffic, checkpoint mid-stream, kill, recover, and every committed
/// read returns identical results — at P ∈ {1, 2, 4}.
#[test]
fn recovery_round_trip_under_wall_backend() {
    for nranks in [1usize, 2, 4] {
        let td = ScratchDir::new(&format!("bw-recovery-{nranks}"));
        let mut cfg = Scenario::kill_restart(td.path());
        cfg.backend = Some(BackendKind::Wall);
        cfg.nranks = nranks;
        cfg.scale = Some(6);
        cfg.sessions = 4;
        cfg.ops = 20;
        cfg.cost = CostModel::default();
        let report = durability::run(&cfg);
        assert!(report.committed_writes > 0, "P={nranks}: no committed work");
        assert!(
            report.passed(),
            "P={nranks}: read-your-committed-writes across restart violated:\n{}",
            report.mismatches.join("\n")
        );
        let rec = report.recovery.expect("recovery metrics");
        assert_eq!(rec.errors, 0, "P={nranks}: replay errors");
        assert!(rec.records > 0, "P={nranks}: empty redo tail");
    }
}
