//! End-to-end integration: generator → bulk load → OLTP stream → OLAP
//! analytics → OLSP aggregate, all on one database instance, across
//! multiple ranks — the full paper pipeline in one test.

use gda::GdaDb;
use gdi::{AccessMode, AppVertexId, EdgeOrientation};
use graphgen::{load_into, sized_config, GraphSpec, LpgConfig};
use rma::CostModel;
use workloads::analytics::{bfs, build_view, pagerank, wcc_converged};
use workloads::bi2::{bi2, bi2_reference, Bi2Params};
use workloads::oltp::{run_oltp, Mix, OltpConfig};

fn rich_spec(scale: u32) -> GraphSpec {
    GraphSpec {
        scale,
        edge_factor: 8,
        seed: 4242,
        lpg: LpgConfig {
            num_labels: 4,
            num_ptypes: 4,
            labels_per_vertex: 2,
            props_per_vertex: 3,
            edge_label_fraction: 1.0,
            ..Default::default()
        },
    }
}

#[test]
fn full_pipeline_on_one_database() {
    let spec = rich_spec(8);
    let nranks = 4;
    let mut cfg = sized_config(&spec, nranks);
    cfg.blocks_per_rank += 4096;
    cfg.dht_heap_per_rank += 4096;
    let (db, fabric) = GdaDb::with_fabric("e2e", cfg, nranks, CostModel::default());

    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();

        // 1. BULK: generator-driven ingestion
        let (meta, rep) = load_into(&eng, &spec);
        let total_v = ctx.allreduce_sum_u64(rep.vertices as u64);
        assert_eq!(total_v, spec.n_vertices());

        // 2. OLSP before mutations: distributed == sequential reference
        let params = Bi2Params {
            person_threshold: u64::MAX / 8,
            target_threshold: u64::MAX / 8,
            ..Default::default()
        };
        let count_before = bi2(&eng, &spec, &meta, &params);
        assert_eq!(count_before, bi2_reference(&spec, &params));

        // 3. OLAP: analytics agree with structure
        let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
        let view = build_view(&eng, &apps);
        let pr = pagerank(&eng, &view, 5, 0.85);
        let pr_total = ctx.allreduce_sum_f64(pr.iter().sum());
        assert!((pr_total - 1.0).abs() < 1e-9);
        let comp = wcc_converged(&eng, &view);
        let r = bfs(&eng, &view, gdi_bench::bfs_root(&spec));
        // BFS from a vertex must stay inside its weakly connected component
        let root_comp = {
            // find the root's component label (it lives on its owner rank)
            let root = gdi_bench::bfs_root(&spec);
            let local = view.row_of_app(root).map_or(u64::MAX, |i| comp[i]);
            ctx.allreduce_min_u64(local)
        };
        let comp_size =
            ctx.allreduce_sum_u64(comp.iter().filter(|&&c| c == root_comp).count() as u64);
        assert_eq!(
            r.visited, comp_size,
            "BFS reach must equal the root's WCC size (undirected traversal)"
        );

        // 4. OLTP: run a write-heavy stream, then verify invariants
        let res = run_oltp(
            &eng,
            &spec,
            &meta,
            &Mix::WRITE_INTENSIVE,
            &OltpConfig {
                ops_per_rank: 200,
                seed: 11,
            },
        );
        assert!(res.committed > 0);
        ctx.barrier();

        // invariant: every surviving edge has a mirror at the other side
        let tx = eng.begin(AccessMode::ReadOnly);
        let mut checked = 0;
        for &app in apps.iter().take(40) {
            let Ok(v) = tx.translate_vertex_id(AppVertexId(app)) else {
                continue; // deleted by the stream
            };
            for e in tx.edges(v, EdgeOrientation::Outgoing).unwrap() {
                let (o, t) = tx.edge_endpoints(e).unwrap();
                assert_eq!(o, v);
                let back = tx.neighbors(t, EdgeOrientation::Incoming, None).unwrap();
                assert!(back.contains(&v), "missing mirror for {app}");
                checked += 1;
                if checked > 50 {
                    break;
                }
            }
            if checked > 50 {
                break;
            }
        }
        tx.commit().unwrap();
    });
}

#[test]
fn graph500_and_gda_bfs_agree() {
    // the transactional LPG BFS and the raw CSR BFS must visit exactly the
    // same vertex count on the same generated graph
    let spec = GraphSpec {
        scale: 8,
        edge_factor: 8,
        seed: 77,
        lpg: LpgConfig::bare(),
    };
    let nranks = 3;
    let root = gdi_bench::bfs_root(&spec);

    let cfg = sized_config(&spec, nranks);
    let (db, fabric) = GdaDb::with_fabric("x", cfg, nranks, CostModel::default());
    let gda_res = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        load_into(&eng, &spec);
        let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
        let view = build_view(&eng, &apps);
        bfs(&eng, &view, root)
    });

    let fabric2 = rma::FabricBuilder::new(nranks)
        .cost(CostModel::default())
        .build();
    let g500 = fabric2.run(|ctx| {
        let csr = baselines::build_csr(ctx, &spec);
        baselines::csr_bfs(ctx, &csr, root)
    });

    assert_eq!(gda_res[0].visited, g500[0].0);
    assert_eq!(gda_res[0].levels, g500[0].1);
}

#[test]
fn neo4j_janus_and_gda_store_equivalent_graphs() {
    // all three systems load the same generated graph; spot-check that
    // degree structure agrees
    let spec = GraphSpec {
        scale: 7,
        edge_factor: 4,
        seed: 3,
        lpg: LpgConfig::default(),
    };
    let nranks = 2;

    // reference degrees
    let mut want = vec![0usize; spec.n_vertices() as usize];
    for (u, v) in spec.edges_for_rank(0, 1) {
        want[u as usize] += 1;
        want[v as usize] += 1;
    }

    // GDA
    let cfg = sized_config(&spec, nranks);
    let (db, fabric) = GdaDb::with_fabric("eq", cfg, nranks, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        load_into(&eng, &spec);
        let tx = eng.begin(AccessMode::ReadOnly);
        for app in (ctx.rank() as u64..spec.n_vertices()).step_by(nranks * 5) {
            let v = tx.translate_vertex_id(AppVertexId(app)).unwrap();
            assert_eq!(
                tx.edge_count(v, EdgeOrientation::Any).unwrap(),
                want[app as usize],
                "GDA degree of {app}"
            );
        }
        tx.commit().unwrap();
    });

    // Graph500 CSR (degree check is in its own tests; here: totals line up)
    let fabric2 = rma::FabricBuilder::new(nranks)
        .cost(CostModel::zero())
        .build();
    fabric2.run(|ctx| {
        let csr = baselines::build_csr(ctx, &spec);
        let local = csr.n_local_edges() as u64;
        let total = ctx.allreduce_sum_u64(local);
        assert_eq!(total, 2 * spec.n_edges());
    });
}

#[test]
fn crash_of_one_rank_fails_fast_not_hangs() {
    // the poisoned-barrier behaviour: a panicking rank must not deadlock
    // the fabric (regression test for the harness itself)
    let fabric = rma::FabricBuilder::new(3).cost(CostModel::zero()).build();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fabric.run(|ctx| {
            if ctx.rank() == 1 {
                panic!("injected failure");
            }
            ctx.barrier(); // ranks 0 and 2 would hang forever without poisoning
        });
    }));
    assert!(result.is_err(), "panic must propagate to the caller");
}
