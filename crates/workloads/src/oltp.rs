//! OLTP interactive workloads (Table 3, Fig. 4, Fig. 5).
//!
//! The paper stresses GDA "with a high-velocity stream of graph queries and
//! transactions" in four mixes taken from LinkBench and prior GDB
//! evaluations. Each operation runs as a **single-process transaction**
//! (Table 2's recommendation for interactive workloads); conflicts abort
//! and are reported as failed transactions, exactly like the percentages
//! annotated in Fig. 4c/4d.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gda::GdaRank;
use gdi::{AccessMode, AppVertexId, EdgeOrientation, GdiError, PropertyValue};
use graphgen::{GraphSpec, LpgMeta};
use server::LatencyHist;

/// The seven operation kinds of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// "Get vertex properties"
    GetVertexProps,
    /// "Count edges of a vertex"
    CountEdges,
    /// "Get edges of a vertex"
    GetEdges,
    /// "Add a new vertex"
    AddVertex,
    /// "Delete a vertex"
    DeleteVertex,
    /// "Update a vertex property"
    UpdateVertexProp,
    /// "Add a new edge"
    AddEdge,
}

impl OpKind {
    pub const ALL: [OpKind; 7] = [
        OpKind::GetVertexProps,
        OpKind::CountEdges,
        OpKind::GetEdges,
        OpKind::AddVertex,
        OpKind::DeleteVertex,
        OpKind::UpdateVertexProp,
        OpKind::AddEdge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::GetVertexProps => "retrieve vertex",
            OpKind::CountEdges => "count edges",
            OpKind::GetEdges => "retrieve edges",
            OpKind::AddVertex => "insert vertex",
            OpKind::DeleteVertex => "delete vertex",
            OpKind::UpdateVertexProp => "update vertex",
            OpKind::AddEdge => "add edges",
        }
    }

    /// Is this a read-only operation?
    pub fn is_read(self) -> bool {
        matches!(
            self,
            OpKind::GetVertexProps | OpKind::CountEdges | OpKind::GetEdges
        )
    }
}

/// An operation mix: weights per op kind (Table 3 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    pub name: &'static str,
    /// Weights in `OpKind::ALL` order; need not sum to 1 (normalized).
    pub weights: [f64; 7],
}

impl Mix {
    /// "Read Mostly" (RM): 99.8 % reads [Weaver evaluation].
    pub const READ_MOSTLY: Mix = Mix {
        name: "read mostly",
        weights: [0.288, 0.117, 0.593, 0.0, 0.0, 0.0, 0.002],
    };

    /// "Read Intensive" (RI): 75 % reads [Weaver evaluation].
    pub const READ_INTENSIVE: Mix = Mix {
        name: "read intensive",
        weights: [0.217, 0.088, 0.445, 0.0, 0.0, 0.0, 0.25],
    };

    /// "Write Intensive" (WI): 80 % updates [G-Tran evaluation].
    pub const WRITE_INTENSIVE: Mix = Mix {
        name: "write intensive",
        weights: [0.091, 0.0, 0.109, 0.2, 0.067, 0.133, 0.40],
    };

    /// LinkBench (LB): 69 % reads [Armstrong et al.].
    pub const LINKBENCH: Mix = Mix {
        name: "LinkBench",
        weights: [0.129, 0.049, 0.512, 0.026, 0.01, 0.074, 0.20],
    };

    /// All four paper mixes in Table 3 order.
    pub fn table3() -> [Mix; 4] {
        [
            Mix::READ_MOSTLY,
            Mix::READ_INTENSIVE,
            Mix::WRITE_INTENSIVE,
            Mix::LINKBENCH,
        ]
    }

    /// Fraction of read operations (Table 3's "Read queries" row).
    pub fn read_fraction(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        let reads: f64 = OpKind::ALL
            .iter()
            .zip(self.weights.iter())
            .filter(|(k, _)| k.is_read())
            .map(|(_, w)| w)
            .sum();
        reads / total
    }

    /// Sample an operation kind.
    pub fn sample(&self, rng: &mut SmallRng) -> OpKind {
        let total: f64 = self.weights.iter().sum();
        let mut x = rng.gen::<f64>() * total;
        for (k, w) in OpKind::ALL.iter().zip(self.weights.iter()) {
            if x < *w {
                return *k;
            }
            x -= w;
        }
        OpKind::GetVertexProps
    }
}

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct OltpConfig {
    /// Transactions issued per rank.
    pub ops_per_rank: usize,
    /// RNG seed (combined with the rank id).
    pub seed: u64,
}

impl Default for OltpConfig {
    fn default() -> Self {
        Self {
            ops_per_rank: 1000,
            seed: 0xBEEF,
        }
    }
}

/// Per-operation statistics.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    pub attempts: u64,
    pub committed: u64,
    pub latency: LatencyHist,
}

/// Result of an OLTP run on one rank.
#[derive(Debug, Clone)]
pub struct OltpResult {
    pub committed: u64,
    pub aborted: u64,
    pub per_op: Vec<(OpKind, OpStats)>,
    /// Simulated time consumed by this rank, ns.
    pub sim_ns: f64,
}

impl OltpResult {
    /// Failed-transaction fraction (the Fig. 4 annotations).
    pub fn failure_fraction(&self) -> f64 {
        let total = self.committed + self.aborted;
        if total == 0 {
            0.0
        } else {
            self.aborted as f64 / total as f64
        }
    }
}

/// Run `cfg.ops_per_rank` transactions of `mix` against a loaded graph.
/// Call from every rank (each runs its own independent stream).
pub fn run_oltp(
    eng: &GdaRank,
    spec: &GraphSpec,
    meta: &LpgMeta,
    mix: &Mix,
    cfg: &OltpConfig,
) -> OltpResult {
    run_oltp_relabeled(eng, spec, meta, mix, cfg, &|v| v)
}

/// [`run_oltp`] on a graph whose base vertex `v` was loaded under app id
/// `app_of(v)`. The stream picks the same base vertices whatever the
/// relabeling, so two loads that differ only in `app_of` run the same
/// operations on the same vertices.
pub fn run_oltp_relabeled(
    eng: &GdaRank,
    spec: &GraphSpec,
    meta: &LpgMeta,
    mix: &Mix,
    cfg: &OltpConfig,
    app_of: &dyn Fn(u64) -> u64,
) -> OltpResult {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (eng.rank() as u64).wrapping_mul(0x9E37));
    let n = spec.n_vertices();
    // fresh vertices get ids above the base graph, disjoint per rank
    let mut next_new = n + eng.rank() as u64 * 1_000_000_007;
    let mut added: Vec<u64> = Vec::new();

    let mut per_op: Vec<(OpKind, OpStats)> = OpKind::ALL
        .iter()
        .map(|k| (*k, OpStats::default()))
        .collect();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let start_ns = eng.ctx().now_ns();

    for _ in 0..cfg.ops_per_rank {
        let kind = mix.sample(&mut rng);
        let t0 = eng.ctx().now_ns();
        let ok = run_one(
            eng,
            spec,
            meta,
            kind,
            &mut rng,
            &|rng: &mut SmallRng| app_of(rng.gen_range(0..n)),
            &mut next_new,
            &mut added,
        );
        let dt = eng.ctx().now_ns() - t0;
        let stats = &mut per_op.iter_mut().find(|(k, _)| *k == kind).unwrap().1;
        stats.attempts += 1;
        stats.latency.add(dt);
        if ok {
            stats.committed += 1;
            committed += 1;
        } else {
            aborted += 1;
        }
    }

    OltpResult {
        committed,
        aborted,
        per_op,
        sim_ns: eng.ctx().now_ns() - start_ns,
    }
}

/// Execute one operation as a single-process transaction. Returns whether
/// it committed.
#[allow(clippy::too_many_arguments)]
fn run_one(
    eng: &GdaRank,
    _spec: &GraphSpec,
    meta: &LpgMeta,
    kind: OpKind,
    rng: &mut SmallRng,
    base: &dyn Fn(&mut SmallRng) -> u64,
    next_new: &mut u64,
    added: &mut Vec<u64>,
) -> bool {
    let mode = if kind.is_read() {
        AccessMode::ReadOnly
    } else {
        AccessMode::ReadWrite
    };
    let tx = eng.begin(mode);
    let mut body = || -> Result<(), GdiError> {
        match kind {
            OpKind::GetVertexProps => {
                let v = tx.translate_vertex_id(AppVertexId(base(rng)))?;
                if !meta.ptypes.is_empty() {
                    let p = meta.ptype(rng.gen_range(0..meta.ptypes.len()));
                    let _ = tx.property(v, p)?;
                } else {
                    let _ = tx.labels(v)?;
                }
            }
            OpKind::CountEdges => {
                let v = tx.translate_vertex_id(AppVertexId(base(rng)))?;
                let _ = tx.edge_count(v, EdgeOrientation::Any)?;
            }
            OpKind::GetEdges => {
                let v = tx.translate_vertex_id(AppVertexId(base(rng)))?;
                let _ = tx.edges(v, EdgeOrientation::Any)?;
            }
            OpKind::AddVertex => {
                *next_new += 1;
                let app = *next_new;
                let v = tx.create_vertex(AppVertexId(app))?;
                if !meta.labels.is_empty() {
                    tx.add_label(v, meta.label(app as usize % meta.labels.len()))?;
                }
                if !meta.ptypes.is_empty() {
                    tx.add_property(v, meta.ptype(0), &PropertyValue::U64(app))?;
                }
                added.push(app);
            }
            OpKind::DeleteVertex => {
                // prefer deleting a vertex this stream added, like
                // LinkBench's node deletes; fall back to a base vertex
                let app = added.pop().unwrap_or_else(|| base(rng));
                let v = tx.translate_vertex_id(AppVertexId(app))?;
                tx.delete_vertex(v)?;
            }
            OpKind::UpdateVertexProp => {
                let v = tx.translate_vertex_id(AppVertexId(base(rng)))?;
                if !meta.ptypes.is_empty() {
                    let p = meta.ptype(rng.gen_range(0..meta.ptypes.len()));
                    tx.update_property(v, p, &PropertyValue::U64(rng.gen()))?;
                }
            }
            OpKind::AddEdge => {
                let a = tx.translate_vertex_id(AppVertexId(base(rng)))?;
                let b = tx.translate_vertex_id(AppVertexId(base(rng)))?;
                let label = if meta.labels.is_empty() {
                    None
                } else {
                    Some(meta.label(rng.gen_range(0..meta.labels.len())))
                };
                tx.add_edge(a, b, label, true)?;
            }
        }
        Ok(())
    };
    match body() {
        Ok(()) => tx.commit().is_ok(),
        Err(_) => {
            tx.abort();
            false
        }
    }
}

/// Aggregate throughput in queries/second of a set of per-rank results,
/// using the maximum simulated time as the makespan.
pub fn throughput_qps(results: &[OltpResult]) -> f64 {
    let ops: u64 = results.iter().map(|r| r.committed).sum();
    let max_ns = results.iter().map(|r| r.sim_ns).fold(0.0, f64::max);
    if max_ns <= 0.0 {
        0.0
    } else {
        ops as f64 / (max_ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_read_fractions() {
        assert!((Mix::READ_MOSTLY.read_fraction() - 0.998).abs() < 1e-9);
        assert!((Mix::READ_INTENSIVE.read_fraction() - 0.75).abs() < 1e-9);
        assert!((Mix::WRITE_INTENSIVE.read_fraction() - 0.20).abs() < 1e-9);
        assert!((Mix::LINKBENCH.read_fraction() - 0.69).abs() < 1e-9);
    }

    #[test]
    fn mix_sampling_matches_weights() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mix = Mix::LINKBENCH;
        let mut counts = [0u64; 7];
        const N: usize = 100_000;
        for _ in 0..N {
            let k = mix.sample(&mut rng);
            let i = OpKind::ALL.iter().position(|x| *x == k).unwrap();
            counts[i] += 1;
        }
        let total: f64 = mix.weights.iter().sum();
        for (i, w) in mix.weights.iter().enumerate() {
            let expect = w / total;
            let got = counts[i] as f64 / N as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "op {i}: got {got} want {expect}"
            );
        }
    }

    #[test]
    fn op_kind_read_classification() {
        assert!(OpKind::GetEdges.is_read());
        assert!(OpKind::CountEdges.is_read());
        assert!(!OpKind::AddEdge.is_read());
        assert!(!OpKind::DeleteVertex.is_read());
    }

    #[test]
    fn throughput_computation() {
        let mk = |committed, sim_ns| OltpResult {
            committed,
            aborted: 0,
            per_op: Vec::new(),
            sim_ns,
        };
        let qps = throughput_qps(&[mk(500, 1e9), mk(500, 2e9)]);
        assert!((qps - 500.0).abs() < 1e-9, "{qps}");
        assert_eq!(throughput_qps(&[]), 0.0);
    }
}
