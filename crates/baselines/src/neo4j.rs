//! Neo4j-like baseline: a single-server graph database.
//!
//! Neo4j in the paper's setup runs on **one server** (Table 1: 1 server /
//! 128 cores), so its throughput cannot scale horizontally and all clients
//! funnel into one machine. Mechanically this analog provides:
//!
//! * a global reader-writer lock over the store (coarse transaction
//!   isolation — readers share, writers serialize);
//! * heavyweight per-operation service: record/object materialization per
//!   touched element, calibrated to the millisecond latencies the paper
//!   measured (Fig. 5: most operations below 20 ms, ms-granular timer);
//! * client→server RPC latency per operation;
//! * a bounded server core pool: aggregate service time divided by the
//!   core count caps the achievable throughput, producing the flat
//!   scaling lines of Figs. 4–6.
//!
//! OLAP (BFS, BI2) runs server-side and sequentially per query,
//! which is why Neo4j's analytic runtimes in Fig. 6 sit orders of
//! magnitude above GDA's.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;

use graphgen::{kronecker::hash3, GraphSpec};
use rma::RankCtx;
use workloads::oltp::{Mix, OltpConfig, OltpResult, OpKind, OpStats};

/// Cost constants (ns) of the single-server architecture.
#[derive(Debug, Clone, Copy)]
pub struct Neo4jCost {
    /// Client→server round trip.
    pub rpc_ns: f64,
    /// Base service of a simple read (record materialization, tx state).
    pub read_service_ns: f64,
    /// Base service of a write (WAL, record update, index upkeep).
    pub write_service_ns: f64,
    /// Vertex deletion (detach-delete semantics).
    pub delete_service_ns: f64,
    /// Per-edge traversal cost during OLAP queries.
    pub traverse_edge_ns: f64,
    /// Per-vertex scan cost during OLAP queries.
    pub scan_vertex_ns: f64,
}

impl Default for Neo4jCost {
    fn default() -> Self {
        Self {
            rpc_ns: 60_000.0,
            read_service_ns: 2_200_000.0,
            write_service_ns: 5_500_000.0,
            delete_service_ns: 11_000_000.0,
            traverse_edge_ns: 260.0,
            scan_vertex_ns: 1_800.0,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct N4Vertex {
    labels: Vec<u32>,
    props: FxHashMap<u32, u64>,
    /// `(neighbor, label, dir)`; dir 0 = out, 1 = in.
    adj: Vec<(u64, u32, u8)>,
}

#[derive(Debug, Default)]
struct Inner {
    verts: FxHashMap<u64, N4Vertex>,
}

/// The single-server store.
pub struct Neo4jStore {
    inner: RwLock<Inner>,
    busy_ns: AtomicU64,
    /// Worker cores of the single server (paper setup: 128).
    pub cores: usize,
    pub cost: Neo4jCost,
}

impl Default for Neo4jStore {
    fn default() -> Self {
        Self::new(128)
    }
}

impl Neo4jStore {
    pub fn new(cores: usize) -> Self {
        Self {
            inner: RwLock::new(Inner::default()),
            busy_ns: AtomicU64::new(0),
            cores,
            cost: Neo4jCost::default(),
        }
    }

    fn charge(&self, ctx: &RankCtx, service_ns: f64, jitter: f64) {
        let s = service_ns * jitter;
        ctx.charge_ns(self.cost.rpc_ns + s);
        self.busy_ns.fetch_add(s as u64, Ordering::Relaxed);
    }

    /// Aggregate server busy time divided by the core pool: the server-side
    /// makespan bound in seconds.
    pub fn server_makespan_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / self.cores as f64 / 1e9
    }

    /// Load the full generated graph (rank 0 only; Neo4j ingestion is a
    /// single-machine bulk import).
    pub fn load(&self, ctx: &RankCtx, spec: &GraphSpec) {
        if ctx.rank() == 0 {
            let mut g = self.inner.write();
            for app in 0..spec.n_vertices() {
                let v = g.verts.entry(app).or_default();
                v.labels = spec
                    .lpg
                    .vertex_label_indices(spec.seed, app)
                    .into_iter()
                    .map(|i| i as u32)
                    .collect();
                v.props = spec
                    .lpg
                    .vertex_props(spec.seed, app)
                    .into_iter()
                    .map(|(i, val)| (i as u32, val))
                    .collect();
            }
            for (u, w) in spec.edges_for_rank(0, 1) {
                let l = spec
                    .lpg
                    .edge_label_index(spec.seed, u, w)
                    .map(|i| i as u32)
                    .unwrap_or(u32::MAX);
                if let Some(v) = g.verts.get_mut(&u) {
                    v.adj.push((w, l, 0));
                }
                if let Some(v) = g.verts.get_mut(&w) {
                    v.adj.push((u, l, 1));
                }
            }
            // bulk import cost on the server
            let items = spec.n_vertices() + 2 * spec.n_edges();
            ctx.charge_ns(items as f64 * self.cost.scan_vertex_ns);
        }
        ctx.barrier();
    }

    /// Run an OLTP mix (same contract as `workloads::oltp::run_oltp`).
    /// All ranks act as clients of the one server.
    pub fn run_oltp(
        &self,
        ctx: &RankCtx,
        spec: &GraphSpec,
        mix: &Mix,
        cfg: &OltpConfig,
    ) -> OltpResult {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (ctx.rank() as u64).wrapping_mul(0x4E04));
        let n = spec.n_vertices();
        let mut next_new = n + ctx.rank() as u64 * 1_000_000_007;
        let mut added: Vec<u64> = Vec::new();
        let mut per_op: Vec<(OpKind, OpStats)> = OpKind::ALL
            .iter()
            .map(|k| (*k, OpStats::default()))
            .collect();
        let (mut committed, mut aborted) = (0u64, 0u64);
        let start = ctx.now_ns();

        for i in 0..cfg.ops_per_rank {
            let kind = mix.sample(&mut rng);
            // long-tail jitter: JVM GC pauses and page faults
            let h = hash3(cfg.seed, i as u64, ctx.rank() as u64);
            let jitter =
                0.6 + (h % 1000) as f64 / 400.0 + if h.is_multiple_of(97) { 8.0 } else { 0.0 }; // outliers
            let t0 = ctx.now_ns();
            let ok = self.run_one(ctx, kind, &mut rng, n, &mut next_new, &mut added, jitter);
            let dt = ctx.now_ns() - t0;
            let st = &mut per_op.iter_mut().find(|(k, _)| *k == kind).unwrap().1;
            st.attempts += 1;
            st.latency.add(dt);
            if ok {
                st.committed += 1;
                committed += 1;
            } else {
                aborted += 1;
            }
        }
        OltpResult {
            committed,
            aborted,
            per_op,
            sim_ns: ctx.now_ns() - start,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_one(
        &self,
        ctx: &RankCtx,
        kind: OpKind,
        rng: &mut SmallRng,
        n: u64,
        next_new: &mut u64,
        added: &mut Vec<u64>,
        jitter: f64,
    ) -> bool {
        let c = self.cost;
        match kind {
            OpKind::GetVertexProps => {
                self.charge(ctx, c.read_service_ns, jitter);
                let g = self.inner.read();
                g.verts.contains_key(&rng.gen_range(0..n))
            }
            OpKind::CountEdges | OpKind::GetEdges => {
                let app = rng.gen_range(0..n);
                let g = self.inner.read();
                match g.verts.get(&app) {
                    Some(v) => {
                        let d = v.adj.len() as f64;
                        drop(g);
                        self.charge(ctx, c.read_service_ns + c.traverse_edge_ns * d, jitter);
                        true
                    }
                    None => {
                        drop(g);
                        self.charge(ctx, c.read_service_ns, jitter);
                        false
                    }
                }
            }
            OpKind::AddVertex => {
                *next_new += 1;
                let app = *next_new;
                self.charge(ctx, c.write_service_ns, jitter);
                let mut g = self.inner.write();
                g.verts.insert(app, N4Vertex::default());
                added.push(app);
                true
            }
            OpKind::DeleteVertex => {
                let app = added.pop().unwrap_or_else(|| rng.gen_range(0..n));
                let mut g = self.inner.write();
                match g.verts.remove(&app) {
                    Some(v) => {
                        for (w, _, _) in &v.adj {
                            if let Some(nv) = g.verts.get_mut(w) {
                                nv.adj.retain(|(x, _, _)| *x != app);
                            }
                        }
                        let d = v.adj.len() as f64;
                        drop(g);
                        self.charge(
                            ctx,
                            c.delete_service_ns + c.write_service_ns * 0.1 * d,
                            jitter,
                        );
                        true
                    }
                    None => {
                        drop(g);
                        self.charge(ctx, c.read_service_ns, jitter);
                        false
                    }
                }
            }
            OpKind::UpdateVertexProp => {
                let app = rng.gen_range(0..n);
                self.charge(ctx, c.write_service_ns, jitter);
                let mut g = self.inner.write();
                match g.verts.get_mut(&app) {
                    Some(v) => {
                        v.props.insert(0, rng.gen());
                        true
                    }
                    None => false,
                }
            }
            OpKind::AddEdge => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                self.charge(ctx, c.write_service_ns, jitter);
                let mut g = self.inner.write();
                if !g.verts.contains_key(&a) || !g.verts.contains_key(&b) {
                    return false;
                }
                g.verts.get_mut(&a).unwrap().adj.push((b, 0, 0));
                g.verts.get_mut(&b).unwrap().adj.push((a, 0, 1));
                true
            }
        }
    }

    // ------------------------------------------------------------------
    // OLAP (server-side, sequential per query)
    // ------------------------------------------------------------------

    /// Server-side BFS; only rank 0 executes, all ranks barrier. Returns
    /// `(visited, levels)` for cross-checking against GDA and Graph500.
    pub fn bfs(&self, ctx: &RankCtx, root: u64) -> (u64, u32) {
        let result = if ctx.rank() == 0 {
            let g = self.inner.read();
            let mut seen: FxHashMap<u64, u32> = FxHashMap::default();
            let mut frontier = vec![root];
            seen.insert(root, 0);
            let mut levels = 0;
            let mut edges_touched = 0u64;
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for v in frontier {
                    if let Some(vx) = g.verts.get(&v) {
                        for &(w, _, _) in &vx.adj {
                            edges_touched += 1;
                            if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(w) {
                                e.insert(0);
                                next.push(w);
                            }
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                levels += 1;
                frontier = next;
            }
            let service = edges_touched as f64 * self.cost.traverse_edge_ns
                + seen.len() as f64 * self.cost.scan_vertex_ns;
            self.charge(ctx, service, 1.0);
            (seen.len() as u64, levels)
        } else {
            (0, 0)
        };
        let visited = ctx.bcast(
            0,
            if ctx.rank() == 0 {
                Some(result.0)
            } else {
                None
            },
        );
        let levels = ctx.bcast(
            0,
            if ctx.rank() == 0 {
                Some(result.1)
            } else {
                None
            },
        );
        (visited, levels)
    }

    /// Server-side BI-2-style aggregate (same predicate as
    /// `workloads::bi2`): full scan + neighbor expansion.
    pub fn bi2(&self, ctx: &RankCtx, params: &workloads::bi2::Bi2Params) -> u64 {
        let result = if ctx.rank() == 0 {
            let g = self.inner.read();
            let mut count = 0u64;
            let mut touched = 0u64;
            for (_, v) in g.verts.iter() {
                touched += 1;
                if !v.labels.contains(&(params.person_label as u32)) {
                    continue;
                }
                let Some(&age) = v.props.get(&(params.person_prop as u32)) else {
                    continue;
                };
                if age <= params.person_threshold {
                    continue;
                }
                for &(w, l, dir) in &v.adj {
                    touched += 1;
                    if dir != 0 || l != params.edge_label as u32 {
                        continue;
                    }
                    if let Some(wx) = g.verts.get(&w) {
                        if wx.labels.contains(&(params.target_label as u32))
                            && wx
                                .props
                                .get(&(params.target_prop as u32))
                                .is_some_and(|&c| c > params.target_threshold)
                        {
                            count += 1;
                            break;
                        }
                    }
                }
            }
            self.charge(ctx, touched as f64 * self.cost.scan_vertex_ns, 1.0);
            count
        } else {
            0
        };
        ctx.bcast(0, if ctx.rank() == 0 { Some(result) } else { None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::LpgConfig;
    use rma::{CostModel, FabricBuilder};
    use std::sync::Arc;

    fn spec() -> GraphSpec {
        GraphSpec {
            scale: 7,
            edge_factor: 4,
            seed: 13,
            lpg: LpgConfig::default(),
        }
    }

    #[test]
    fn oltp_latencies_are_millisecond_scale() {
        let spec = spec();
        let store = Arc::new(Neo4jStore::new(8));
        let fabric = FabricBuilder::new(2)
            .cost(CostModel::default())
            .backend(rma::BackendKind::Sim)
            .build();
        let s = store.clone();
        let results = fabric.run(move |ctx| {
            s.load(ctx, &spec);
            s.run_oltp(
                ctx,
                &spec,
                &Mix::LINKBENCH,
                &OltpConfig {
                    ops_per_rank: 200,
                    seed: 2,
                },
            )
        });
        for r in &results {
            assert!(r.committed > 0);
            for (_, st) in &r.per_op {
                if st.latency.count() > 0 {
                    assert!(
                        st.latency.percentile_ns(5.0) >= 1_000_000.0,
                        "Neo4j op faster than 1 ms"
                    );
                }
            }
        }
        assert!(store.server_makespan_s() > 0.0);
    }

    #[test]
    fn bfs_agrees_with_reference() {
        let spec = GraphSpec {
            scale: 6,
            edge_factor: 4,
            seed: 11,
            lpg: LpgConfig::bare(),
        };
        // reference from the raw edge list
        let n = spec.n_vertices() as usize;
        let mut adj = vec![Vec::new(); n];
        for (u, v) in spec.edges_for_rank(0, 1) {
            adj[u as usize].push(v as usize);
            adj[v as usize].push(u as usize);
        }
        let mut seen = std::collections::HashSet::new();
        let mut q = std::collections::VecDeque::new();
        seen.insert(0usize);
        q.push_back(0usize);
        while let Some(v) = q.pop_front() {
            for &w in &adj[v] {
                if seen.insert(w) {
                    q.push_back(w);
                }
            }
        }
        let store = Arc::new(Neo4jStore::new(4));
        let fabric = FabricBuilder::new(2)
            .cost(CostModel::default())
            .backend(rma::BackendKind::Sim)
            .build();
        let s = store.clone();
        let got = fabric.run(move |ctx| {
            s.load(ctx, &spec);
            s.bfs(ctx, 0)
        });
        for (visited, _) in got {
            assert_eq!(visited, seen.len() as u64);
        }
    }

    #[test]
    fn bi2_matches_workloads_reference() {
        let spec = GraphSpec {
            scale: 6,
            edge_factor: 8,
            seed: 99,
            lpg: LpgConfig {
                num_labels: 4,
                num_ptypes: 4,
                labels_per_vertex: 2,
                props_per_vertex: 3,
                edge_label_fraction: 1.0,
                ..Default::default()
            },
        };
        let params = workloads::bi2::Bi2Params {
            person_threshold: u64::MAX / 8,
            target_threshold: u64::MAX / 8,
            ..Default::default()
        };
        let want = workloads::bi2::bi2_reference(&spec, &params);
        let store = Arc::new(Neo4jStore::new(4));
        let fabric = FabricBuilder::new(3)
            .cost(CostModel::default())
            .backend(rma::BackendKind::Sim)
            .build();
        let s = store.clone();
        let got = fabric.run(move |ctx| {
            s.load(ctx, &spec);
            s.bi2(ctx, &params)
        });
        assert!(got.iter().all(|&c| c == want));
    }
}
