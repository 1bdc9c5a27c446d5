//! Elastic resharding integration tests: the differential topology
//! oracle.
//!
//! * a property-based cross-topology equivalence check — for arbitrary
//!   operation traces and an arbitrary checkpoint position, *checkpoint
//!   at `P` → recover at `Q`* must yield a database whose **full
//!   logical contents** (every vertex, its property, its edge count and
//!   neighbor multiset, the DHT translations and the index postings)
//!   are identical for `Q ∈ {1, P−1, P, P+3}` — and identical to an
//!   uninterrupted execution that never crashed at all;
//! * an environment-driven `P → Q` round trip (`GDI_RESHARD_P` /
//!   `GDI_RESHARD_Q`) so CI can pin a rank-count matrix;
//! * a fault-injection retry: a failed reshard aborts collectively and
//!   a second attempt from the untouched snapshot succeeds.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use proptest::prelude::*;

use gda::persist::{recover_with_topology, PersistOptions};
use gda::{GdaConfig, GdaDb};
use gdi::{
    AccessMode, AppVertexId, Datatype, EdgeOrientation, EntityType, Multiplicity, PropertyValue,
    SizeType,
};
use rma::CostModel;
use workloads::scratch::ScratchDir;

/// One logical operation of the generated workload (routed by its
/// first vertex id, the server discipline).
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

/// The full observable contents of the database: per application id
/// `None` (id does not translate) or `(property value, any-orientation
/// edge count, sorted neighbor app-id multiset)`; plus the global set
/// of app ids the explicit index posts.
type FullState = (
    BTreeMap<u64, Option<(Option<u64>, usize, Vec<u64>)>>,
    BTreeSet<u64>,
);

/// Serial op application: each op runs on its routing vertex's owner
/// rank with barriers in between, so every run sees the identical
/// serial history regardless of the rank count.
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

/// Collective full-contents read (identical result on every rank).
fn read_full_state(
    eng: &gda::GdaRank,
    ids: u64,
    ptype: gdi::PTypeId,
    index: gda::IndexId,
) -> FullState {
    let mut map = BTreeMap::new();
    let tx = eng.begin(AccessMode::ReadOnly);
    for v in 0..ids {
        let entry = match tx.translate_vertex_id(AppVertexId(v)) {
            Ok(id) => {
                let prop = tx.property(id, ptype).unwrap().and_then(|p| match p {
                    PropertyValue::U64(x) => Some(x),
                    _ => None,
                });
                let edges = tx.edge_count(id, EdgeOrientation::Any).unwrap();
                let mut nbrs: Vec<u64> = tx
                    .neighbors(id, EdgeOrientation::Any, None)
                    .unwrap()
                    .into_iter()
                    .map(|n| tx.vertex_app_id(n).unwrap().0)
                    .collect();
                nbrs.sort_unstable();
                Some((prop, edges, nbrs))
            }
            Err(_) => None,
        };
        map.insert(v, entry);
    }
    tx.commit().unwrap();
    let mine: Vec<u64> = eng
        .local_index_vertices(index)
        .into_iter()
        .map(|p| p.app_id.0)
        .collect();
    let posted: BTreeSet<u64> = eng.ctx().allgatherv(mine).into_iter().flatten().collect();
    (map, posted)
}

/// Install the `val` property type and the all-vertices index on
/// rank 0; every rank returns both handles.
fn install_schema(eng: &gda::GdaRank) -> (gdi::PTypeId, gda::IndexId) {
    if eng.rank() == 0 {
        eng.create_ptype(
            "val",
            Datatype::Uint64,
            EntityType::Vertex,
            Multiplicity::Single,
            SizeType::Fixed,
            1,
        )
        .unwrap();
        eng.create_index("all", vec![], vec![]).unwrap();
        eng.ctx().barrier();
    } else {
        eng.ctx().barrier();
        eng.refresh_meta();
    }
    let p = eng.meta().ptype_from_name("val").unwrap();
    let ix = eng.all_indexes()[0].id;
    (p, ix)
}

/// Uninterrupted reference run at `nranks` (no persistence, no crash).
fn reference_state(nranks: usize, cfg: GdaConfig, ops: &[WlOp], ids: u64) -> FullState {
    let (db, fabric) = GdaDb::with_fabric("ref", cfg, nranks, CostModel::zero());
    let states = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (ptype, ix) = install_schema(&eng);
        apply_ops(&eng, ops, ptype);
        ctx.barrier();
        read_full_state(&eng, ids, ptype, ix)
    });
    states.into_iter().next().unwrap()
}

/// Run ops at `P` with a mid-trace checkpoint and crash, leaving the
/// persistence directory behind.
fn run_and_crash(nranks: usize, cfg: GdaConfig, ops: &[WlOp], cut: usize, dir: &Path) {
    let (db, fabric) = GdaDb::with_fabric("dur", cfg, nranks, CostModel::zero());
    db.enable_persistence(PersistOptions::new(dir)).unwrap();
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (ptype, _) = install_schema(&eng);
        apply_ops(&eng, &ops[..cut], ptype);
        eng.checkpoint().unwrap();
        apply_ops(&eng, &ops[cut..], ptype);
    });
    // drop = the crash
}

/// Recover the crashed directory at `q` ranks and read everything.
fn recover_at(q: usize, dir: &Path, ids: u64) -> FullState {
    let (db, fabric, recs) =
        recover_with_topology(PersistOptions::new(dir), CostModel::zero(), Some(q)).unwrap();
    assert_eq!(db.nranks(), q);
    let states = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = &recs[ctx.rank()];
        assert_eq!(rec.errors, 0, "restore errors at Q={q}: {rec:?}");
        let ptype = eng.meta().ptype_from_name("val").unwrap();
        let ix = eng.all_indexes()[0].id;
        read_full_state(&eng, ids, ptype, ix)
    });
    states.into_iter().next().unwrap()
}

/// Recursive directory copy, so each target topology reshards the
/// *pristine* `P`-rank snapshot (a reshard publishes its own
/// checkpoint, which would otherwise change the source topology for
/// the next `Q`).
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for e in fs::read_dir(src).unwrap() {
        let e = e.unwrap();
        let to = dst.join(e.file_name());
        if e.file_type().unwrap().is_dir() {
            copy_dir(&e.path(), &to);
        } else {
            fs::copy(e.path(), &to).unwrap();
        }
    }
}

fn target_topologies(p: usize) -> Vec<usize> {
    let mut qs = vec![1, p.saturating_sub(1).max(1), p, p + 3];
    qs.sort_unstable();
    qs.dedup();
    qs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential topology oracle: for arbitrary traces and
    /// checkpoint positions, recover-at-Q is logically identical to
    /// uninterrupted execution for every Q — including scale-in.
    #[test]
    fn reshard_at_any_topology_equals_uninterrupted(
        ops in prop::collection::vec(arb_op(12), 1..24),
        cut_frac in 0.0f64..1.0,
    ) {
        let ids = 12u64;
        let p = 2usize;
        let cut = ((ops.len() as f64 * cut_frac) as usize).min(ops.len());
        let cfg = GdaConfig::tiny();
        let base = ScratchDir::new("reshard-prop");
        let want = reference_state(p, cfg, &ops, ids);
        run_and_crash(p, cfg, &ops, cut, base.path());
        for q in target_topologies(p) {
            let work = ScratchDir::new(&format!("reshard-prop-q{q}"));
            copy_dir(base.path(), work.path());
            let got = recover_at(q, work.path(), ids);
            prop_assert!(
                got == want,
                "recover-at-Q diverged (P={}, Q={}, cut={} of {}):\n got {:?}\nwant {:?}\n ops {:?}",
                p, q, cut, ops.len(), got, want, ops
            );
        }
    }
}

/// The CI rank-count matrix: a fixed trace across `GDI_RESHARD_P` →
/// `GDI_RESHARD_Q` (defaults 2 → 5), equal to uninterrupted execution.
#[test]
fn env_matrix_round_trip() {
    let p: usize = std::env::var("GDI_RESHARD_P")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(2);
    let q: usize = std::env::var("GDI_RESHARD_Q")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(5);
    let ids = 16u64;
    let ops: Vec<WlOp> = (0..ids)
        .map(WlOp::Create)
        .chain((0..ids).map(|v| WlOp::SetProp(v, v * 31)))
        .chain((0..ids).map(|v| WlOp::AddEdge(v, (v + 3) % ids)))
        .chain([WlOp::Delete(5), WlOp::Delete(11), WlOp::Create(5)])
        .collect();
    let cfg = GdaConfig::tiny();
    let want = reference_state(p, cfg, &ops, ids);
    let dir = ScratchDir::new(&format!("reshard-matrix-{p}-{q}"));
    run_and_crash(p, cfg, &ops, ops.len() / 2, dir.path());
    let got = recover_at(q, dir.path(), ids);
    assert_eq!(got, want, "P={p} Q={q} matrix run diverged");
}

/// A failed reshard (injected on a receiving rank) must abort
/// collectively and leave the snapshot fully reshardable: the second
/// attempt succeeds with identical contents.
#[test]
fn failed_reshard_attempt_is_retryable() {
    let ids = 10u64;
    let ops: Vec<WlOp> = (0..ids)
        .map(WlOp::Create)
        .chain((0..ids).map(|v| WlOp::AddEdge(v, (v + 1) % ids)))
        .collect();
    let cfg = GdaConfig::tiny();
    let p = 2usize;
    let want = reference_state(p, cfg, &ops, ids);
    let dir = ScratchDir::new("reshard-retry");
    run_and_crash(p, cfg, &ops, ops.len() / 2, dir.path());
    // attempt 1: a receiving rank fails mid-redistribution
    {
        let plane = gda::faults::FaultPlane::shared();
        plane.arm_at(
            gda::faults::RESHARD_REDISTRIBUTE,
            Some(1),
            0,
            1,
            gda::faults::FaultMode::Error,
        );
        let opts = PersistOptions {
            faults: Some(plane.clone()),
            ..PersistOptions::new(dir.path())
        };
        let err = recover_with_topology(opts, CostModel::zero(), Some(4)).err();
        assert!(
            matches!(err, Some(gdi::GdiError::Io(_))),
            "collective abort: {err:?}"
        );
        assert_eq!(plane.fired(), 1);
    }
    // attempt 2: the snapshot and logs are untouched — reshard succeeds
    let got = recover_at(4, dir.path(), ids);
    assert_eq!(got, want, "retry after failed reshard diverged");
}
