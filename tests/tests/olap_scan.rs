//! Differential oracle for the zero-transaction OLAP scan layer
//! (`gda::scan`): on random graphs, under random interleaved
//! insert/delete churn, the scan-built `CsrView` must stay logically
//! identical to the tx-built view — and a cached mirror revalidated
//! through `GdaRank::olap_view` must never serve a stale read.
//!
//! The churn driver alternates mutation batches (vertex create/delete,
//! edge add/delete, property updates) with oracle checks; every check
//! compares the epoch-validated cached view against a freshly built
//! tx view over the same partition, edge for edge.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gda::{GdaConfig, GdaDb, GdaRank};
use gdi::{AccessMode, AppVertexId, EdgeOrientation};
use rma::CostModel;
use workloads::analytics::{
    bfs, build_view, build_view_indexed, cdlp, khop, lcc, pagerank, scan_view, wcc, wcc_converged,
    CsrView,
};

/// One random mutation step of the churn driver.
#[derive(Debug, Clone, Copy)]
enum ChurnOp {
    AddVertex,
    DeleteVertex,
    AddEdge,
    DeleteEdge,
    SetProp,
}

fn arb_op() -> impl Strategy<Value = ChurnOp> {
    // duplication stands in for weights (edge churn dominates)
    prop_oneof![
        Just(ChurnOp::AddVertex),
        Just(ChurnOp::AddVertex),
        Just(ChurnOp::DeleteVertex),
        Just(ChurnOp::AddEdge),
        Just(ChurnOp::AddEdge),
        Just(ChurnOp::AddEdge),
        Just(ChurnOp::AddEdge),
        Just(ChurnOp::DeleteEdge),
        Just(ChurnOp::SetProp),
        Just(ChurnOp::SetProp),
    ]
}

/// Shared-state-free tracking of the live app ids: the driver runs on
/// rank 0 only and re-derives targets from its own bookkeeping.
struct Driver {
    live: Vec<u64>,
    next_app: u64,
    rng: SmallRng,
}

impl Driver {
    fn pick(&mut self) -> Option<u64> {
        if self.live.is_empty() {
            None
        } else {
            let i = self.rng.gen_range(0..self.live.len());
            Some(self.live[i])
        }
    }

    fn apply(&mut self, eng: &GdaRank, op: ChurnOp, ptype: gdi::PTypeId) {
        let tx = eng.begin(AccessMode::ReadWrite);
        let ok = match op {
            ChurnOp::AddVertex => {
                self.next_app += 1;
                let app = self.next_app;
                match tx.create_vertex(AppVertexId(app)) {
                    Ok(_) => {
                        self.live.push(app);
                        true
                    }
                    Err(_) => false,
                }
            }
            ChurnOp::DeleteVertex => match self.pick() {
                Some(app) => match tx
                    .translate_vertex_id(AppVertexId(app))
                    .and_then(|v| tx.delete_vertex(v))
                {
                    Ok(()) => {
                        self.live.retain(|&a| a != app);
                        true
                    }
                    Err(_) => false,
                },
                None => false,
            },
            ChurnOp::AddEdge => {
                let (Some(a), Some(b)) = (self.pick(), self.pick()) else {
                    tx.abort();
                    return;
                };
                let dir = self.rng.gen_bool(0.7);
                tx.translate_vertex_id(AppVertexId(a))
                    .and_then(|va| {
                        tx.translate_vertex_id(AppVertexId(b))
                            .and_then(|vb| tx.add_edge(va, vb, None, dir))
                    })
                    .is_ok()
            }
            ChurnOp::DeleteEdge => match self.pick() {
                Some(app) => tx
                    .translate_vertex_id(AppVertexId(app))
                    .and_then(|v| {
                        let es = tx.edges(v, EdgeOrientation::Any)?;
                        match es.first() {
                            Some(&e) => tx.delete_edge(e),
                            None => Ok(()),
                        }
                    })
                    .is_ok(),
                None => false,
            },
            ChurnOp::SetProp => match self.pick() {
                Some(app) => tx
                    .translate_vertex_id(AppVertexId(app))
                    .and_then(|v| {
                        tx.update_property(v, ptype, &gdi::PropertyValue::U64(self.next_app))
                    })
                    .is_ok(),
                None => false,
            },
        };
        if ok {
            tx.commit().expect("churn commit");
        } else {
            tx.abort();
        }
    }
}

/// Build the tx oracle over exactly the partition a scan view covers
/// and compare — rows, edges, and the halo: the oracle was resolved
/// against its peers a moment ago, so a cached view whose mirror lists
/// differ from the oracle's kept a halo of an earlier generation.
/// Returns the number of divergent views (0 or 1).
fn check_rank(eng: &GdaRank, view: &CsrView) -> usize {
    let want = build_view(eng, &view.apps.clone());
    let halo_eq = (0..eng.nranks()).all(|r| view.mirror(r) == want.mirror(r));
    usize::from(!(view.logical_eq(&want) && halo_eq))
}

fn run_churn_case(nranks: usize, seed: u64, ops: Vec<ChurnOp>, durable: bool) {
    let cfg = GdaConfig::tiny();
    let db = GdaDb::new("olap-scan-prop", cfg, nranks);
    let scratch = durable
        .then(|| workloads::scratch::ScratchDir::new(&format!("olap-scan-prop-{nranks}-{seed}")));
    if let Some(dir) = &scratch {
        db.enable_persistence(gda::PersistOptions::new(dir.path()))
            .unwrap();
    }
    let fabric = cfg.build_fabric(nranks, CostModel::default());
    let divergences = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        // a deterministic base graph plus a property type for the
        // property-churn ops (must never invalidate a view)
        if ctx.rank() == 0 {
            eng.create_ptype(
                "p",
                gdi::Datatype::Uint64,
                gdi::EntityType::Vertex,
                gdi::Multiplicity::Single,
                gdi::SizeType::Fixed,
                1,
            )
            .unwrap();
        }
        ctx.barrier();
        eng.refresh_meta();
        let ptype = eng.meta().ptype_from_name("p").unwrap();
        let base: u64 = 18;
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadWrite);
            let vids: Vec<_> = (0..base)
                .map(|a| tx.create_vertex(AppVertexId(a)).unwrap())
                .collect();
            for i in 0..base {
                tx.add_edge(
                    vids[i as usize],
                    vids[((i + 1) % base) as usize],
                    None,
                    true,
                )
                .unwrap();
            }
            tx.commit().unwrap();
        }
        ctx.barrier();

        let mut divergences = 0usize;
        let mut driver = Driver {
            live: (0..base).collect(),
            next_app: base,
            rng: SmallRng::seed_from_u64(seed),
        };
        // initial mirror (collective) + oracle check
        let mut view = eng.olap_view();
        divergences += check_rank(&eng, &view);
        for chunk in ops.chunks(4) {
            // churn runs on rank 0 only; everyone else waits (the scan
            // layer's quiescent-OLAP contract)
            if ctx.rank() == 0 {
                for &op in chunk {
                    driver.apply(&eng, op, ptype);
                }
            }
            ctx.barrier();
            // the epoch-validated cached view must match a fresh tx
            // oracle after every batch — a stale read is a divergence
            view = eng.olap_view();
            divergences += check_rank(&eng, &view);
        }
        // the fresh (uncached) scan builder agrees as well
        let fresh = scan_view(&eng);
        divergences += check_rank(&eng, &fresh);
        if !fresh.logical_eq(&view) {
            divergences += 1;
        }
        divergences
    });
    assert_eq!(
        divergences.iter().sum::<usize>(),
        0,
        "scan view diverged from the tx oracle under churn (seed {seed})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// In-memory databases: every epoch movement forces a rebuild; the
    /// rebuilt mirror must equal the tx oracle after every churn batch.
    #[test]
    fn scan_view_equals_tx_view_under_churn(
        seed in 0u64..1_000_000,
        nranks in 1usize..4,
        ops in prop::collection::vec(arb_op(), 4..28),
    ) {
        run_churn_case(nranks, seed, ops, false);
    }

    /// Durable databases (redo append on every commit): stale views are
    /// rebuilt exactly as in memory — there is no redo-tail patch, the
    /// name is historical — and the oracle must hold.
    #[test]
    fn durable_scan_view_patches_stay_exact(
        seed in 0u64..1_000_000,
        nranks in 1usize..4,
        ops in prop::collection::vec(arb_op(), 4..20),
    ) {
        run_churn_case(nranks, seed, ops, true);
    }
}

/// The graph the stale-halo churn maintains, as the client knows it:
/// the sequential references below run on this, never on a view.
#[derive(Clone, Default)]
struct Known {
    verts: std::collections::BTreeSet<u64>,
    /// Directed edges, one entry per edge (multi-edges repeat).
    edges: Vec<(u64, u64)>,
}

impl Known {
    /// Undirected adjacency with multiplicity: every edge is a record
    /// on both of its endpoints (a self-loop is two on one).
    fn adj(&self) -> std::collections::BTreeMap<u64, Vec<u64>> {
        let mut adj: std::collections::BTreeMap<u64, Vec<u64>> =
            self.verts.iter().map(|&v| (v, Vec::new())).collect();
        for &(u, v) in &self.edges {
            adj.get_mut(&u).unwrap().push(v);
            adj.get_mut(&v).unwrap().push(u);
        }
        adj
    }

    /// PageRank as `iterative.rs` states it: dangling mass spread
    /// uniformly, `iters` synchronous power iterations.
    fn pagerank(&self, iters: usize, d: f64) -> std::collections::BTreeMap<u64, f64> {
        let n = self.verts.len() as f64;
        let mut out: std::collections::BTreeMap<u64, Vec<u64>> =
            self.verts.iter().map(|&v| (v, Vec::new())).collect();
        for &(u, v) in &self.edges {
            out.get_mut(&u).unwrap().push(v);
        }
        let mut pr: std::collections::BTreeMap<u64, f64> =
            self.verts.iter().map(|&v| (v, 1.0 / n)).collect();
        for _ in 0..iters {
            let mut next: std::collections::BTreeMap<u64, f64> =
                self.verts.iter().map(|&v| (v, 0.0)).collect();
            let mut dangling = 0.0;
            for (v, tgts) in &out {
                if tgts.is_empty() {
                    dangling += pr[v];
                } else {
                    let share = pr[v] / tgts.len() as f64;
                    for t in tgts {
                        *next.get_mut(t).unwrap() += d * share;
                    }
                }
            }
            for x in next.values_mut() {
                *x += (1.0 - d) / n + d * dangling / n;
            }
            pr = next;
        }
        pr
    }

    /// `rounds` synchronous rounds of minimum-label propagation.
    fn wcc(&self, rounds: usize) -> std::collections::BTreeMap<u64, u64> {
        let adj = self.adj();
        let mut comp: std::collections::BTreeMap<u64, u64> =
            self.verts.iter().map(|&v| (v, v)).collect();
        for _ in 0..rounds {
            let mut next = comp.clone();
            for (v, nbrs) in &adj {
                for w in nbrs {
                    let l = next.get_mut(v).unwrap();
                    *l = (*l).min(comp[w]);
                }
            }
            if next == comp {
                break;
            }
            comp = next;
        }
        comp
    }

    /// `rounds` synchronous CDLP rounds, ties to the smallest label.
    fn cdlp(&self, rounds: usize) -> std::collections::BTreeMap<u64, u64> {
        let adj = self.adj();
        let mut labels: std::collections::BTreeMap<u64, u64> =
            self.verts.iter().map(|&v| (v, v)).collect();
        for _ in 0..rounds {
            let mut next = labels.clone();
            for (v, nbrs) in &adj {
                let mut freq: std::collections::BTreeMap<u64, u64> = Default::default();
                for w in nbrs {
                    *freq.entry(labels[w]).or_insert(0) += 1;
                }
                // ascending labels + strict `>`: the smallest most frequent
                let mut best = (0, labels[v]);
                for (l, c) in freq {
                    if c > best.0 {
                        best = (c, l);
                    }
                }
                next.insert(*v, best.1);
            }
            labels = next;
        }
        labels
    }

    /// `(vertices within max_levels of root, deepest level reached)`.
    fn bfs(&self, root: u64, max_levels: u32) -> (u64, u32) {
        let adj = self.adj();
        let mut seen = std::collections::BTreeSet::from([root]);
        let mut frontier = vec![root];
        let mut levels = 0;
        while levels < max_levels {
            let mut next = Vec::new();
            for v in &frontier {
                for &w in &adj[v] {
                    if seen.insert(w) {
                        next.push(w);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            levels += 1;
            frontier = next;
        }
        (seen.len() as u64, levels)
    }

    /// Brute-force local clustering coefficient (deduplicated
    /// neighbourhoods, self-loops ignored).
    fn lcc(&self) -> std::collections::BTreeMap<u64, f64> {
        let nbrs: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> = self
            .adj()
            .into_iter()
            .map(|(v, ws)| (v, ws.into_iter().filter(|&w| w != v).collect()))
            .collect();
        nbrs.iter()
            .map(|(&v, ns)| {
                let d = ns.len();
                let ns: Vec<u64> = ns.iter().copied().collect();
                let mut t = 0u64;
                for (i, a) in ns.iter().enumerate() {
                    t += ns[i + 1..].iter().filter(|b| nbrs[a].contains(b)).count() as u64;
                }
                let c = if d < 2 {
                    0.0
                } else {
                    2.0 * t as f64 / (d * (d - 1)) as f64
                };
                (v, c)
            })
            .collect()
    }
}

/// One round of the stale-halo churn.
#[derive(Clone, Copy)]
enum Step {
    /// Create the newcomer with an edge to this vertex.
    Create(u64),
    /// Delete the newcomer (its edges go with it).
    Delete,
    /// Add an edge between two vertices that exist.
    Edge(u64, u64),
}

/// Every kernel's answer on `view`, keyed the way the references are.
struct Answers {
    pagerank: Vec<f64>,
    wcc: Vec<u64>,
    wcc5: Vec<u64>,
    cdlp5: Vec<u64>,
    bfs: workloads::analytics::BfsResult,
    khop2: u64,
    lcc: Vec<f64>,
}

fn run_kernels(eng: &GdaRank, view: &CsrView, root: u64) -> Answers {
    Answers {
        pagerank: pagerank(eng, view, 10, 0.85),
        wcc: wcc_converged(eng, view),
        wcc5: wcc(eng, view, 5),
        cdlp5: cdlp(eng, view, 5),
        bfs: bfs(eng, view, root),
        khop2: khop(eng, view, root, 2),
        lcc: lcc(eng, view),
    }
}

/// The stale-halo hazard: churn that changes **one** rank's membership.
/// A vertex with a small app id appears on rank 1 (every later row of
/// rank 1 shifts), with an edge to another rank-1 vertex (nobody else's
/// epoch moves: every other rank *reuses* its rows) or to a rank-0
/// vertex (rank 0 rebuilds too); it is
/// deleted; it comes back. After every round every kernel on the cached
/// `olap_view()` must equal the same kernel on a freshly tx-built view
/// and the sequential reference — PageRank within 1e-12, the rest
/// exactly. A rank that kept a halo resolved against a peer's previous
/// rows fails this.
fn run_stale_halo_case(nranks: usize, durable: bool) {
    let cfg = GdaConfig::tiny();
    let db = GdaDb::new("olap-scan-halo", cfg, nranks);
    let scratch =
        durable.then(|| workloads::scratch::ScratchDir::new(&format!("olap-scan-halo-{nranks}")));
    if let Some(dir) = &scratch {
        db.enable_persistence(gda::PersistOptions::new(dir.path()))
            .unwrap();
    }
    let fabric = cfg.build_fabric(nranks, CostModel::default());
    // a ring with chords over apps 100..124, plus an isolated vertex and
    // a two-vertex island (more than one component, one dangling row)
    let mut known = Known::default();
    known.verts.extend(100..127u64);
    for i in 0..24u64 {
        known.edges.push((100 + i, 100 + (i + 1) % 24));
        if i % 4 == 0 {
            known.edges.push((100 + i, 100 + (i + 7) % 24));
        }
    }
    known.edges.push((100, 101)); // a multi-edge
    known.edges.push((125, 126));
    let newcomer = 1u64; // owner 1 at every P >= 2, and the smallest app id
    let on_rank = |r: u64| 100 + (0..24).find(|a| (100 + a) % nranks as u64 == r).unwrap();
    use Step::*;
    let rounds = [
        Create(on_rank(1)), // the edge stays on rank 1
        Delete,
        Create(on_rank(0)), // recreate, the edge crosses to rank 0
        // no membership change at all: ranks 0 and 1 re-sweep the same
        // rows — the halo must be resolved all the same
        Edge(on_rank(0), on_rank(1)),
        Delete,
        Create(on_rank(1)),
    ];
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadWrite);
            let vids: std::collections::BTreeMap<u64, _> = known
                .verts
                .iter()
                .map(|&a| (a, tx.create_vertex(AppVertexId(a)).unwrap()))
                .collect();
            for (u, v) in &known.edges {
                tx.add_edge(vids[u], vids[v], None, true).unwrap();
            }
            tx.commit().unwrap();
        }
        ctx.barrier();
        let mut known = known.clone();
        let check = |known: &Known, round: usize| {
            let view = eng.olap_view();
            let fresh = build_view(&eng, &view.apps.clone());
            assert!(view.logical_eq(&fresh), "round {round}: view diverges");
            let root = 100;
            let got = run_kernels(&eng, &view, root);
            let oracle = run_kernels(&eng, &fresh, root);
            let (pr, comp, comp5, labels, cc) = (
                known.pagerank(10, 0.85),
                known.wcc(usize::MAX),
                known.wcc(5),
                known.cdlp(5),
                known.lcc(),
            );
            for (i, app) in view.apps.iter().enumerate() {
                let at = format!("round {round}, P={nranks}, vertex {app}");
                assert!((got.pagerank[i] - oracle.pagerank[i]).abs() < 1e-12, "{at}");
                assert!((got.pagerank[i] - pr[app]).abs() < 1e-12, "{at}");
                assert_eq!((got.wcc[i], oracle.wcc[i]), (comp[app], comp[app]), "{at}");
                assert_eq!(
                    (got.wcc5[i], oracle.wcc5[i]),
                    (comp5[app], comp5[app]),
                    "{at}"
                );
                assert_eq!(
                    (got.cdlp5[i], oracle.cdlp5[i]),
                    (labels[app], labels[app]),
                    "{at}"
                );
                assert!((got.lcc[i] - oracle.lcc[i]).abs() < 1e-12, "{at}");
                assert!((got.lcc[i] - cc[app]).abs() < 1e-12, "{at}");
            }
            let (visited, levels) = known.bfs(root, u32::MAX);
            assert_eq!((got.bfs.visited, got.bfs.levels), (visited, levels));
            assert_eq!(got.bfs, oracle.bfs, "round {round}: BFS");
            assert_eq!(got.khop2, known.bfs(root, 2).0, "round {round}: 2-hop");
            assert_eq!(got.khop2, oracle.khop2);
        };
        check(&known, 0);
        for (round, &step) in rounds.iter().enumerate() {
            match step {
                Create(to) => {
                    known.verts.insert(newcomer);
                    known.edges.push((newcomer, to));
                }
                Delete => {
                    known.verts.remove(&newcomer);
                    known.edges.retain(|&(u, v)| u != newcomer && v != newcomer);
                }
                Edge(u, v) => known.edges.push((u, v)),
            }
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                let vid = |app| tx.translate_vertex_id(AppVertexId(app)).unwrap();
                match step {
                    Create(to) => {
                        let v = tx.create_vertex(AppVertexId(newcomer)).unwrap();
                        tx.add_edge(v, vid(to), None, true).unwrap();
                    }
                    Delete => tx.delete_vertex(vid(newcomer)).unwrap(),
                    Edge(u, v) => {
                        tx.add_edge(vid(u), vid(v), None, true).unwrap();
                    }
                }
                tx.commit().unwrap();
            }
            ctx.barrier();
            let before = ctx.stats_snapshot();
            check(&known, round + 1);
            let after = ctx.stats_snapshot();
            let (builds, patches) = (
                after.scan_builds - before.scan_builds,
                after.scan_patches - before.scan_patches,
            );
            match step {
                // the first round touches rank 1 alone: it sweeps,
                // everyone else reuses its rows
                Create(_) if round == 0 => {
                    assert_eq!((builds, patches), (u64::from(ctx.rank() == 1), 0));
                }
                // durable or not, the endpoints' owners re-sweep (there
                // is no redo-tail patch), everyone else reuses its rows
                Edge(..) => {
                    assert_eq!((builds, patches), (u64::from(ctx.rank() <= 1), 0));
                }
                _ => {}
            }
        }
    });
}

/// On a bulk-loaded Kronecker graph (P = 2, scale 8), the scan-built
/// view equals the tx-built and the index-seeded tx-built views, and
/// PageRank, WCC and BFS give the same answers on the tx view as on the
/// epoch-validated mirror — built once, then reused by a second job.
#[test]
fn loaded_graph_scan_view_matches_every_tx_view_and_kernel() {
    let spec = gdi_bench::spec_for(8, 42, graphgen::LpgConfig::default());
    let nranks = 2;
    let cfg = graphgen::sized_config(&spec, nranks);
    let (db, fabric) = GdaDb::with_fabric("scan-loaded", cfg, nranks, CostModel::default());
    let per_rank = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = graphgen::load_into(&eng, &spec);
        let tx_view = build_view(&eng, &spec.vertices_for_rank(ctx.rank(), ctx.nranks()));
        let ix_view = build_view_indexed(&eng, meta.all_index.expect("__all index"));
        let sc_view = scan_view(&eng);
        assert!(sc_view.logical_eq(&tx_view), "scan view != tx view");
        assert!(sc_view.logical_eq(&ix_view), "scan view != indexed tx view");
        let pr_tx = pagerank(&eng, &tx_view, 10, 0.85);
        let srv = db.attach(ctx);
        for job in ["first build", "reuse"] {
            let pr = pagerank(&srv, &srv.olap_view(), 10, 0.85);
            assert_eq!(
                pr, pr_tx,
                "PageRank on the mirror ({job}) != on the tx view"
            );
        }
        let mirror = srv.olap_view();
        let root = gdi_bench::bfs_root(&spec);
        assert_eq!(wcc_converged(&eng, &tx_view), wcc_converged(&srv, &mirror));
        assert_eq!(bfs(&eng, &tx_view, root), bfs(&srv, &mirror, root));
        ctx.stats_snapshot().scan_reuses
    });
    assert!(
        per_rank.iter().sum::<u64>() > 0,
        "the mirror was never reused"
    );
}

#[test]
fn kernels_survive_one_rank_membership_churn() {
    for nranks in [2, 3, 4] {
        for durable in [false, true] {
            run_stale_halo_case(nranks, durable);
        }
    }
}

/// The server wiring: collective OLAP jobs submitted through
/// `GdiServer::submit_olap` share one epoch-validated mirror — the
/// first job sweeps, later jobs revalidate and reuse, and interleaved
/// served writes retire it exactly when they change topology.
#[test]
fn server_olap_jobs_reuse_the_mirror_across_requests() {
    use server::{GdiServer, ServerOptions};

    let nranks = 2;
    let cfg = GdaConfig::tiny();
    let db = GdaDb::new("olap-scan-server", cfg, nranks);
    let fabric = cfg.build_fabric(nranks, CostModel::default());
    let server = GdiServer::new(db.clone(), ServerOptions::default());

    let srv = server.clone();
    std::thread::scope(|scope| {
        let ranks = {
            let server = server.clone();
            let db = db.clone();
            scope.spawn(move || {
                fabric.run(|ctx| {
                    let eng = db.attach(ctx);
                    eng.init_collective();
                    if ctx.rank() == 0 {
                        let tx = eng.begin(AccessMode::ReadWrite);
                        let vids: Vec<_> = (0..12u64)
                            .map(|a| tx.create_vertex(AppVertexId(a)).unwrap())
                            .collect();
                        for i in 0..12 {
                            tx.add_edge(vids[i], vids[(i + 1) % 12], None, true)
                                .unwrap();
                        }
                        tx.commit().unwrap();
                    }
                    ctx.barrier();
                    server.serve_rank(ctx)
                })
            })
        };

        // three identical PageRank jobs: the mirror is built once and
        // reused by the next two (epoch unchanged)
        let job = |srv: &GdiServer| {
            srv.submit_olap(|eng| {
                let v = eng.olap_view();
                let pr = pagerank(eng, &v, 5, 0.85);
                pr.iter().sum::<f64>()
            })
            .expect("submit olap")
            .wait()
        };
        let r1 = job(&srv);
        let r2 = job(&srv);
        let r3 = job(&srv);
        assert!(r1.is_committed() && r2.is_committed() && r3.is_committed());
        // a topology change between jobs retires the mirror
        let s = srv.session();
        let out = s
            .execute(server::Op::AddEdge {
                from: AppVertexId(3),
                to: AppVertexId(7),
                label: None,
            })
            .expect("submit edge");
        assert!(out.is_committed(), "edge add failed: {out:?}");
        let r4 = job(&srv);
        assert!(r4.is_committed());
        srv.shutdown();
        let summaries = ranks.join().expect("serve ranks");
        assert_eq!(summaries.len(), nranks);

        let m = srv.metrics().fabric_total();
        assert!(
            m.scan_reuses >= 2 * nranks as u64,
            "jobs 2 and 3 must reuse the mirror: {} reuses",
            m.scan_reuses
        );
        assert!(
            m.scan_builds >= 2,
            "the first job and the post-write job must sweep (builds {})",
            m.scan_builds
        );
    });
}
