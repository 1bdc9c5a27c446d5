//! Shared durability-test harness: a tiny scripted workload applied
//! serially (identical history on every run), a full-state readback, and
//! an uninterrupted reference executor. Used by the `recovery` and
//! `chaos` integration suites to express the differential oracle
//! *recovered state ≡ uninterrupted state*. Also the block-pool audit
//! ([`free_plus_live_blocks`]: free + live + retired) the recovery-fault
//! and server maintenance suites share.

use std::collections::BTreeMap;

use gda::{GdaConfig, GdaDb};
use gdi::{
    AccessMode, AppVertexId, Datatype, EdgeOrientation, EntityType, Multiplicity, PropertyValue,
    SizeType,
};
use rma::CostModel;

/// One logical operation of the generated workload. All ops routed by
/// their first vertex id (the server discipline the replay assumes).
#[derive(Debug, Clone, Copy)]
pub enum WlOp {
    Create(u64),
    SetProp(u64, u64),
    AddEdge(u64, u64),
    Delete(u64),
}

impl WlOp {
    pub fn routing(&self) -> u64 {
        match self {
            WlOp::Create(v) | WlOp::SetProp(v, _) | WlOp::Delete(v) | WlOp::AddEdge(v, _) => *v,
        }
    }
}

/// The observable state of the whole database: per application id, the
/// property value and the any-orientation edge count (`None` = id does
/// not resolve).
pub type ReadState = BTreeMap<u64, Option<(Option<u64>, usize)>>;

/// Execute `ops` serially on `nranks` ranks — each op runs on the rank
/// owning its routing vertex, with a barrier in between, so every run
/// (interrupted or not) sees the identical serial history.
pub fn apply_ops(eng: &gda::GdaRank, ops: &[WlOp], ptype: gdi::PTypeId) {
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
                Err(_) => tx.abort(), // e.g. create of an existing id
            }
        }
        eng.ctx().barrier();
    }
}

/// Read back the full observable state (rank 0's view; any rank reads
/// the same data one-sidedly).
pub fn read_state(eng: &gda::GdaRank, ids: u64, ptype: gdi::PTypeId) -> ReadState {
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

/// Create (rank 0) or look up the shared `val` property type.
pub fn install_ptype(eng: &gda::GdaRank) -> gdi::PTypeId {
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

/// Uninterrupted reference run: all ops on one fabric, no persistence.
pub fn reference_state(nranks: usize, cfg: GdaConfig, ops: &[WlOp], ids: u64) -> ReadState {
    let (db, fabric) = GdaDb::with_fabric("ref", cfg, nranks, CostModel::zero());
    let states = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let ptype = install_ptype(&eng);
        apply_ops(&eng, ops, ptype);
        ctx.barrier();
        read_state(&eng, ids, ptype)
    });
    states.into_iter().next().unwrap()
}

/// Collective: this rank's free, live and retired blocks, summed by
/// the engine's pool audit ([`gda::GdaRank::audit_pool`]). The
/// block-conservation invariant: this equals `blocks_per_rank` unless a
/// block leaked or sits on the free list while still in use. Panics
/// with the audit's error on a block counted twice, an unreadable live
/// chain or a sum other than the capacity. Assumes no concurrent
/// writers.
pub fn free_plus_live_blocks(eng: &gda::GdaRank) -> usize {
    let audit = eng.audit_pool().unwrap_or_else(|e| panic!("{e}"));
    audit.free + audit.live + audit.retired
}
