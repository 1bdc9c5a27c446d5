//! Topology-sensitivity tests for `workloads::analytics`: BFS and the
//! iterative algorithms must produce **identical results at every rank
//! count**, cross-checked against the single-threaded Graph500-style
//! reference in `baselines::graph500` — and must survive an elastic
//! reshard of the underlying database.
//!
//! Rank-count bugs are exactly the class elastic resharding exposes
//! (ownership formulas, message routing, partition boundaries), and the
//! analytics previously had no test varying the topology for the same
//! GDA-backed graph.

use std::collections::BTreeMap;

use baselines::graph500::{build_csr, csr_bfs};
use gda::persist::{recover_with_topology, PersistOptions};
use gda::GdaDb;
use graphgen::{load_into, sized_config, GraphSpec, LpgConfig};
use rma::{CostModel, FabricBuilder};
use workloads::analytics::{bfs, build_view, cdlp, lcc, pagerank, wcc_converged};
use workloads::scratch::ScratchDir;

fn spec() -> GraphSpec {
    GraphSpec {
        scale: 6,
        edge_factor: 4,
        seed: 42,
        lpg: LpgConfig::bare(),
    }
}

const ROOTS: [u64; 3] = [0, 3, 17];

/// BFS (visited, levels) per root via the tuned CSR reference kernel,
/// single-threaded (one rank).
fn reference_bfs(spec: &GraphSpec) -> Vec<(u64, u32)> {
    let fabric = FabricBuilder::new(1).cost(CostModel::zero()).build();
    fabric
        .run(|ctx| {
            let csr = build_csr(ctx, spec);
            ROOTS.map(|root| csr_bfs(ctx, &csr, root)).to_vec()
        })
        .into_iter()
        .next()
        .unwrap()
}

/// Run `f` against a GDA-loaded copy of the graph at `nranks`, merging
/// every rank's `(app id, value)` pairs into one map.
fn run_gda<V: Clone + Send>(
    spec: &GraphSpec,
    nranks: usize,
    f: impl Fn(&gda::GdaRank, &workloads::analytics::CsrView) -> Vec<(u64, V)> + Sync,
) -> BTreeMap<u64, V> {
    let cfg = sized_config(spec, nranks);
    let (db, fabric) = GdaDb::with_fabric("topo", cfg, nranks, CostModel::default());
    let per_rank = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        load_into(&eng, spec);
        let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
        let view = build_view(&eng, &apps);
        f(&eng, &view)
    });
    per_rank.into_iter().flatten().collect()
}

#[test]
fn bfs_matches_graph500_reference_at_every_rank_count() {
    let spec = spec();
    let want = reference_bfs(&spec);
    for nranks in [1usize, 3] {
        let got = run_gda(&spec, nranks, |eng, view| {
            ROOTS
                .iter()
                .enumerate()
                .map(|(i, &root)| {
                    let r = bfs(eng, view, root);
                    (i as u64, (r.visited, r.levels))
                })
                .collect()
        });
        for (i, &(visited, levels)) in want.iter().enumerate() {
            assert_eq!(
                got[&(i as u64)],
                (visited, levels),
                "BFS root {} diverged from the graph500 reference at P={nranks}",
                ROOTS[i]
            );
        }
    }
}

#[test]
fn iterative_analytics_identical_across_rank_counts() {
    let spec = spec();
    let collect = |nranks: usize| {
        let pr = run_gda(&spec, nranks, |eng, view| {
            let v = pagerank(eng, view, 10, 0.85);
            view.apps.iter().copied().zip(v).collect()
        });
        let comp = run_gda(&spec, nranks, |eng, view| {
            let v = wcc_converged(eng, view);
            view.apps.iter().copied().zip(v).collect()
        });
        let labels = run_gda(&spec, nranks, |eng, view| {
            let v = cdlp(eng, view, 5);
            view.apps.iter().copied().zip(v).collect()
        });
        (pr, comp, labels)
    };
    let (pr1, comp1, labels1) = collect(1);
    let (pr3, comp3, labels3) = collect(3);
    assert_eq!(pr1.len(), spec.n_vertices() as usize);
    for (v, x) in &pr1 {
        let y = pr3[v];
        assert!(
            (x - y).abs() < 1e-9,
            "PageRank of vertex {v} topology-sensitive: {x} vs {y}"
        );
    }
    assert_eq!(comp1, comp3, "WCC components topology-sensitive");
    assert_eq!(labels1, labels3, "CDLP labels topology-sensitive");
}

#[test]
fn lcc_identical_across_rank_counts() {
    let spec = spec();
    let run = |nranks: usize| {
        run_gda(&spec, nranks, |eng, view| {
            let v = lcc(eng, view);
            view.apps
                .iter()
                .copied()
                .zip(v.into_iter().map(|x| x.to_bits()))
                .collect()
        })
    };
    let a = run(1);
    let b = run(3);
    assert_eq!(a, b, "LCC topology-sensitive");
    assert!(
        a.values().any(|&bits| f64::from_bits(bits) > 0.0),
        "degenerate graph: no triangles found"
    );
}

/// The elastic end-to-end: a graph served at P=2, checkpointed,
/// crashed, and resharded onto Q=3 must run BFS and WCC with results
/// identical to the never-crashed single-threaded reference.
#[test]
fn analytics_survive_elastic_reshard() {
    let spec = spec();
    let want_bfs = reference_bfs(&spec);
    let want_comp = run_gda(&spec, 1, |eng, view| {
        let v = wcc_converged(eng, view);
        view.apps.iter().copied().zip(v).collect::<Vec<_>>()
    });
    let dir = ScratchDir::new("analytics-reshard");
    {
        let cfg = sized_config(&spec, 2);
        let (db, fabric) = GdaDb::with_fabric("ar", cfg, 2, CostModel::default());
        db.enable_persistence(PersistOptions::new(dir.path()))
            .unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            load_into(&eng, &spec);
            eng.checkpoint().unwrap();
        });
        // drop = crash
    }
    let (db, fabric, recs) = recover_with_topology(
        PersistOptions::new(dir.path()),
        CostModel::default(),
        Some(3),
    )
    .unwrap();
    let per_rank = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = &recs[ctx.rank()];
        assert_eq!(rec.errors, 0, "{rec:?}");
        let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
        let view = build_view(&eng, &apps);
        let bfs_got = ROOTS
            .iter()
            .map(|&root| {
                let r = bfs(&eng, &view, root);
                (r.visited, r.levels)
            })
            .collect::<Vec<_>>();
        let comp = wcc_converged(&eng, &view);
        (
            bfs_got,
            view.apps.iter().copied().zip(comp).collect::<Vec<_>>(),
        )
    });
    let mut comp_got: BTreeMap<u64, u64> = BTreeMap::new();
    for (bfs_got, comp) in per_rank {
        assert_eq!(bfs_got, want_bfs, "post-reshard BFS diverged");
        comp_got.extend(comp);
    }
    let want_comp: BTreeMap<u64, u64> = want_comp.into_iter().collect();
    assert_eq!(comp_got, want_comp, "post-reshard WCC diverged");
}
