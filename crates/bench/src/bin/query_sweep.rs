//! `query_sweep` — the declarative query planner vs every forced access
//! path, per suite query and machine size.
//!
//! For each `(ranks, scale)` point the harness loads the rich LPG graph
//! with per-label indexes, warms the OLAP mirror (the serving-rank
//! steady state the planner costs against), and then, for each of the
//! five suite queries (`workloads::queries::suite`):
//!
//! * runs the **planner-picked** plan and every **forced** viable
//!   `PathChoice` on the simulated clock;
//! * checks every execution — planner-picked and forced — against the
//!   sequential generator-space oracle
//!   (`workloads::queries::reference_eval`): any mismatch is a
//!   divergence and aborts the run;
//! * records which path the planner chose and how its runtime compares
//!   to the best and worst forced alternatives.
//!
//! Guards: zero divergence everywhere; on every point and every forced
//! path the two-hop's expand stages inspect at most `|E|` adjacency
//! entries and keep at most `|V|` frontier rows, summed over ranks (a
//! count, so it gates on the wall backend too: a regression to
//! `(root, cur)` pair enumeration fails it by orders of magnitude); at
//! the largest point the planner must pick at least three distinct
//! driving paths across the suite (an indexed scan, a DHT point lookup,
//! and a CsrView-backed plan) and must never lose to the **best** forced
//! path by more than 10% on any query. `--smoke` runs one small point
//! and relaxes the optimality bound to the **worst** forced path (tiny
//! graphs make constant factors noisy, but the planner must still never
//! pick pathologically wrong).

use gdi_bench::{
    backend_selection, emit, emit_json_unless_smoke, for_backends, rich_lpg, spec_for, BackendKind,
    RunParams,
};
use graphgen::GraphSpec;
use query::{executor, planner, Plan, QueryValue};
use rma::CostModel;
use workloads::queries::{load_with_label_indexes, reference_eval, suite, SuiteParams};

/// One `(query, choice)` measurement.
#[derive(Debug, Clone)]
struct Timing {
    choice: String,
    sim_s: f64,
    picked: bool,
    /// Per stage `(rows, expanded, comm_bytes)`, summed over ranks.
    stages: Vec<(u64, u64, u64)>,
}

impl Timing {
    fn expanded(&self) -> u64 {
        self.stages.iter().map(|s| s.1).sum()
    }

    fn comm_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.2).sum()
    }
}

/// One suite query at one sweep point.
#[derive(Debug, Clone)]
struct QueryOut {
    name: &'static str,
    picked: String,
    est_ms: f64,
    picked_s: f64,
    best_forced_s: f64,
    worst_forced_s: f64,
    rows: u64,
    timings: Vec<Timing>,
    divergence: u64,
}

#[derive(Debug, Clone)]
struct PointOut {
    nranks: usize,
    scale: u32,
    vertices: u64,
    queries: Vec<QueryOut>,
    query_execs: u64,
    query_rows: u64,
}

/// Smallest vertex id whose any-direction degree is positive but at most
/// twice the average (deterministic; skips the R-MAT hubs).
fn typical_vertex(spec: &GraphSpec) -> u64 {
    let n = spec.n_vertices() as usize;
    let mut deg = vec![0u32; n];
    for (u, v) in spec.edges_for_rank(0, 1) {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    let cap = 4 * spec.edge_factor;
    deg.iter()
        .position(|&d| d > 0 && d <= cap)
        .expect("some vertex has typical degree") as u64
}

fn value_rows(v: &QueryValue) -> u64 {
    match v {
        QueryValue::Count(c) => *c,
        QueryValue::Sum(_) => 1,
        QueryValue::Ids(ids) => ids.len() as u64,
    }
}

fn run_point(nranks: usize, scale: u32, params: &SuiteParams) -> PointOut {
    let spec = spec_for(scale, 7, rich_lpg());
    // probe a *typical-degree* vertex with at least one neighbor: the
    // point query models a lookup around an ordinary entity, and the
    // planner only knows average degrees — probing an R-MAT hub would
    // measure cardinality misestimation, not path choice
    let params = SuiteParams {
        point_id: typical_vertex(&spec),
        ..*params
    };
    let params = &params;
    let cfg = graphgen::sized_config(&spec, nranks);
    let (db, fabric) = gda::GdaDb::with_fabric("query-sweep", cfg, nranks, CostModel::default());
    let spec2: GraphSpec = spec;
    let outs = fabric.run(move |ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_with_label_indexes(&eng, &spec2);
        // serving steady state: the OLAP mirror is already resident, so
        // the planner costs Csr staging as an epoch revalidation
        let _ = eng.olap_view();
        let cat = planner::Catalog::gather(&eng);

        let timed = |f: &mut dyn FnMut()| {
            ctx.barrier();
            let t0 = ctx.now_ns();
            f();
            ctx.barrier();
            (ctx.now_ns() - t0) / 1e9
        };

        let mut queries = Vec::new();
        for (name, q) in suite(&meta, params) {
            let want = reference_eval(&spec2, &meta, &q);
            let picked_plan = planner::plan(&cat, &q);
            // one untimed warm-up so every measured run sees the same
            // warm translation caches
            let _ = executor::execute(&eng, &q, &picked_plan);

            let mut out = QueryOut {
                name,
                picked: picked_plan.choice.to_string(),
                est_ms: picked_plan.est_cost_ns / 1e6,
                picked_s: 0.0,
                best_forced_s: f64::INFINITY,
                worst_forced_s: 0.0,
                rows: value_rows(&want),
                timings: Vec::new(),
                divergence: 0,
            };
            let check = |plan: &Plan, got: &QueryValue, out: &mut QueryOut| {
                if got != &want {
                    eprintln!(
                        "DIVERGENCE [{name}] choice {}: got {got:?}, oracle {want:?}",
                        plan.choice
                    );
                    out.divergence += 1;
                }
            };
            for choice in planner::viable_choices(&cat, &q) {
                let Some(plan) = planner::plan_choice(&cat, &q, choice) else {
                    continue;
                };
                let mut got = None;
                let s = timed(&mut || got = Some(executor::execute(&eng, &q, &plan)));
                let got = got.unwrap();
                check(&plan, &got.value, &mut out);
                let picked = choice == picked_plan.choice;
                if picked {
                    out.picked_s = s;
                }
                out.best_forced_s = out.best_forced_s.min(s);
                out.worst_forced_s = out.worst_forced_s.max(s);
                out.timings.push(Timing {
                    choice: choice.to_string(),
                    sim_s: s,
                    picked,
                    stages: got
                        .stages
                        .iter()
                        .map(|st| (st.rows, st.expanded, st.comm_bytes))
                        .collect(),
                });
            }
            queries.push(out);
        }
        let stats = ctx.stats_snapshot();
        PointOut {
            nranks,
            scale,
            vertices: spec2.n_vertices(),
            queries,
            query_execs: stats.query_execs,
            query_rows: stats.query_rows,
        }
    });
    // times are barrier-bracketed (identical on all ranks); counters sum
    let mut agg = outs[0].clone();
    agg.query_execs = outs.iter().map(|o| o.query_execs).sum();
    agg.query_rows = outs.iter().map(|o| o.query_rows).sum();
    for o in &outs[1..] {
        for (a, b) in agg.queries.iter_mut().zip(&o.queries) {
            a.divergence += b.divergence;
            for (ta, tb) in a.timings.iter_mut().zip(&b.timings) {
                for (sa, sb) in ta.stages.iter_mut().zip(&tb.stages) {
                    *sa = (sa.0 + sb.0, sa.1 + sb.1, sa.2 + sb.2);
                }
            }
        }
    }
    agg
}

fn main() {
    // `--backend sim|wall|both`: wall runs land under `query_sweep_wall`;
    // divergence and plan-choice guards gate on both backends, the
    // timing-optimality guards only on the simulated one
    for_backends(&backend_selection(), run_on);
}

fn run_on(backend: BackendKind) {
    let bench = match backend {
        BackendKind::Sim => "query_sweep",
        BackendKind::Wall => "query_sweep_wall",
    };
    let smoke = std::env::args().any(|a| a == "--smoke");
    let params = RunParams::from_env();
    let qp = SuiteParams::default();
    let points: Vec<(usize, u32)> = if smoke {
        vec![(2, 8)]
    } else {
        params
            .ranks
            .iter()
            .map(|&pr| (pr, params.weak_scale(pr)))
            .collect()
    };

    let mut results = Vec::new();
    for &(nranks, scale) in &points {
        eprintln!("  [query_sweep] P={nranks} s={scale} ...");
        let r = run_point(nranks, scale, &qp);
        for q in &r.queries {
            eprintln!(
                "  [query_sweep] P={nranks} {:<18} pick {:<22} {:.3} sim ms \
                 (best {:.3} / worst {:.3}), rows {}, div {}",
                q.name,
                q.picked,
                q.picked_s * 1e3,
                q.best_forced_s * 1e3,
                q.worst_forced_s * 1e3,
                q.rows,
                q.divergence,
            );
        }
        results.push(r);
    }

    // ---- text table -----------------------------------------------------
    let mut out = String::from("### query_sweep — cost-based planner vs forced access paths\n");
    out.push_str(&format!(
        "{:<6} {:>6} {:<18} {:<22} {:>10} {:>10} {:>10} {:>8} {:>8} {:>4}\n",
        "ranks",
        "scale",
        "query",
        "picked",
        "picked ms",
        "best ms",
        "worst ms",
        "vs best",
        "rows",
        "div"
    ));
    for r in &results {
        for q in &r.queries {
            out.push_str(&format!(
                "{:<6} {:>6} {:<18} {:<22} {:>10.3} {:>10.3} {:>10.3} {:>7.2}x {:>8} {:>4}\n",
                r.nranks,
                r.scale,
                q.name,
                q.picked,
                q.picked_s * 1e3,
                q.best_forced_s * 1e3,
                q.worst_forced_s * 1e3,
                q.picked_s / q.best_forced_s,
                q.rows,
                q.divergence
            ));
        }
    }
    emit(bench, &out);

    // ---- JSON -----------------------------------------------------------
    let mut json = format!(
        "{{\"bench\":\"{bench}\",\"backend\":\"{}\",\"points\":[",
        backend.label()
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"nranks\":{},\"scale\":{},\"vertices\":{},\"query_execs\":{},\
             \"query_rows\":{},\"queries\":[",
            r.nranks, r.scale, r.vertices, r.query_execs, r.query_rows
        ));
        for (qi, q) in r.queries.iter().enumerate() {
            if qi > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"name\":\"{}\",\"picked\":\"{}\",\"est_ms\":{:.6},\
                 \"picked_s\":{:.9},\"best_forced_s\":{:.9},\"worst_forced_s\":{:.9},\
                 \"rows\":{},\"divergence\":{},\"forced\":[",
                q.name,
                q.picked,
                q.est_ms,
                q.picked_s,
                q.best_forced_s,
                q.worst_forced_s,
                q.rows,
                q.divergence
            ));
            for (ti, t) in q.timings.iter().enumerate() {
                if ti > 0 {
                    json.push(',');
                }
                json.push_str(&format!(
                    "{{\"choice\":\"{}\",\"sim_s\":{:.9},\"picked\":{},\
                     \"expanded\":{},\"comm_bytes\":{}}}",
                    t.choice,
                    t.sim_s,
                    t.picked,
                    t.expanded(),
                    t.comm_bytes()
                ));
            }
            json.push_str("]}");
        }
        json.push_str("]}");
    }
    json.push_str("]}");
    emit_json_unless_smoke(bench, &json, smoke);

    // ---- guards ---------------------------------------------------------
    for r in &results {
        // counts, so they gate on every backend: the two-hop reads no
        // root, its frontier is a vertex set — an expand stage that
        // inspects more entries than the graph has edges, or keeps more
        // rows than it has vertices, is enumerating (root, cur) pairs
        let edges = spec_for(r.scale, 7, rich_lpg()).n_edges();
        for t in r
            .queries
            .iter()
            .filter(|q| q.name == "two-hop")
            .flat_map(|q| &q.timings)
        {
            for &(rows, expanded, _) in &t.stages[1..t.stages.len() - 1] {
                assert!(
                    expanded <= edges && rows <= r.vertices,
                    "two-hop via {} at P={}: an expand stage inspected {expanded} entries \
                     (|E| = {edges}) and kept {rows} rows (|V| = {})",
                    t.choice,
                    r.nranks,
                    r.vertices
                );
            }
        }
        for q in &r.queries {
            assert_eq!(
                q.divergence, 0,
                "{} diverged from the oracle at P={}",
                q.name, r.nranks
            );
            assert!(
                q.picked_s > 0.0,
                "{}: the planner pick was not among the viable forced choices at P={}",
                q.name,
                r.nranks
            );
            // the planner must never lose to the *worst* forced path
            // (a LogGP-clock relation; wall timings are non-gating)
            if backend == BackendKind::Sim {
                assert!(
                    q.picked_s <= q.worst_forced_s * 1.10,
                    "{}: planner pick {:.6}s lost to the worst forced path {:.6}s at P={}",
                    q.name,
                    q.picked_s,
                    q.worst_forced_s,
                    r.nranks
                );
            }
        }
    }
    let last = results.last().unwrap();
    if !smoke {
        // at the largest machine the planner must be near-optimal on
        // every query and must exercise all three driving paths
        for q in &last.queries {
            if backend == BackendKind::Sim {
                assert!(
                    q.picked_s <= q.best_forced_s * 1.10,
                    "{}: planner pick {:.6}s more than 10% off the best forced \
                     path {:.6}s at P={}",
                    q.name,
                    q.picked_s,
                    q.best_forced_s,
                    last.nranks
                );
            }
        }
        let picks: Vec<&str> = last.queries.iter().map(|q| q.picked.as_str()).collect();
        assert!(
            picks.iter().any(|p| p.starts_with("index-scan")),
            "no indexed-scan pick at P={}: {picks:?}",
            last.nranks
        );
        assert!(
            picks.iter().any(|p| p.starts_with("point-lookup")),
            "no point-lookup pick at P={}: {picks:?}",
            last.nranks
        );
        assert!(
            picks
                .iter()
                .any(|p| p.starts_with("sweep") || p.ends_with("csr")),
            "no CsrView-backed pick at P={}: {picks:?}",
            last.nranks
        );
    }
    let n_queries: usize = last.queries.len();
    println!(
        "query_sweep: all points verified (zero divergence across {} queries, \
         planner within 10% of best forced at P={})",
        n_queries, last.nranks
    );
}
