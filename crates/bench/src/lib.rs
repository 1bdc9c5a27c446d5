//! # `gdi-bench` — the evaluation harness (§6)
//!
//! Two kinds of binary share this library:
//!
//! * `paper` — the paper's evaluation (Figs. 4–6, Tables 1–3, §6.6–6.8)
//!   as one claim table on the simulated fabric, written to
//!   `results/BENCH_paper.json`; [`paper`] holds the claims, and
//!   `tests/tests/paper_claims.rs` asserts them at smoke size;
//! * the subsystem sweeps (`recovery_sweep`, `reshard_sweep`,
//!   `maintenance_sweep`, `chaos_sweep`, `olap_scan_sweep`,
//!   `query_sweep`, `si_sweep`, `backend_compare`), each with its own
//!   `--smoke` gate and `results/BENCH_<name>.json`.
//!
//! The library holds the shared machinery: OLTP runners for GDA and the
//! two baselines, OLAP runners for GDA, Graph500 and Neo4j, `--backend`
//! selection and result output.
//!
//! ## Sweep sizing
//!
//! The subsystem sweeps read [`RunParams`] from the environment (the
//! `paper` runner does not; its only size switch is `--smoke`):
//!
//! * `GDI_BENCH_RANKS` — comma-separated rank counts (default `1,2,4,8`)
//! * `GDI_BENCH_SCALE` — Kronecker scale of the *smallest* weak-scaling
//!   point / the fixed strong-scaling graph (default `10`)
//! * `GDI_BENCH_OPS` — OLTP transactions per rank (default `1000`)

use gda::GdaDb;
use gdi::AccessMode;
use graphgen::{load_into, sized_config, GraphSpec, LpgConfig, LpgMeta};
use rma::{CostModel, RankCtx};
use workloads::analytics::build_view;
use workloads::oltp::{Mix, OltpConfig, OltpResult};

pub mod paper;

pub use rma::{BackendKind, BACKEND_ENV};

/// Sweep parameters, from the environment.
#[derive(Debug, Clone)]
pub struct RunParams {
    pub ranks: Vec<usize>,
    pub base_scale: u32,
    pub ops_per_rank: usize,
    pub seed: u64,
}

impl Default for RunParams {
    fn default() -> Self {
        Self {
            ranks: vec![1, 2, 4, 8],
            base_scale: 10,
            ops_per_rank: 1000,
            seed: 42,
        }
    }
}

impl RunParams {
    pub fn from_env() -> Self {
        let mut p = Self::default();
        if let Ok(r) = std::env::var("GDI_BENCH_RANKS") {
            let v: Vec<usize> = r.split(',').filter_map(|s| s.trim().parse().ok()).collect();
            if !v.is_empty() {
                p.ranks = v;
            }
        }
        if let Ok(s) = std::env::var("GDI_BENCH_SCALE") {
            if let Ok(s) = s.trim().parse() {
                p.base_scale = s;
            }
        }
        if let Ok(o) = std::env::var("GDI_BENCH_OPS") {
            if let Ok(o) = o.trim().parse() {
                p.ops_per_rank = o;
            }
        }
        p
    }

    /// Weak-scaling graph scale at `nranks` (dataset grows with machine).
    pub fn weak_scale(&self, nranks: usize) -> u32 {
        self.base_scale + rma::cost::log2_ceil(nranks)
    }
}

/// Write a harness output file under `results/` (and echo to stdout).
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.txt"));
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("[written {}]", path.display());
    }
}

/// Write the machine-readable summary of a bench run to
/// `results/BENCH_<name>.json` and echo a `BENCH_JSON` line to stdout,
/// so the perf trajectory is tracked across PRs by diffing committed
/// JSON. A `--smoke` run only echoes: the committed files record
/// **full** runs, and a smoke-sized point must never clobber them.
pub fn emit_json_unless_smoke(name: &str, json: &str, smoke: bool) {
    println!("BENCH_JSON {json}");
    if smoke {
        return;
    }
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("BENCH_{name}.json"));
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("[written {}]", path.display());
    }
}

// ---------------------------------------------------------------------
// Backend selection (`--backend sim|wall|both`)
// ---------------------------------------------------------------------

/// Backends a harness run sweeps, from the `--backend sim|wall|both`
/// command-line flag (also accepted as `--backend=X`). Without the flag
/// the run follows the process default (`GDI_FABRIC_BACKEND`, else
/// simulated) — the committed-baseline behavior.
pub fn backend_selection() -> Vec<BackendKind> {
    backend_selection_from(std::env::args().skip(1))
}

fn backend_selection_from(args: impl Iterator<Item = String>) -> Vec<BackendKind> {
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let value = if let Some(v) = a.strip_prefix("--backend=") {
            Some(v.to_string())
        } else if a == "--backend" {
            args.next()
        } else {
            None
        };
        if let Some(v) = value {
            return match v.trim().to_ascii_lowercase().as_str() {
                "both" => vec![BackendKind::Sim, BackendKind::Wall],
                other => vec![other
                    .parse()
                    .unwrap_or_else(|e: String| panic!("--backend: {e}"))],
            };
        }
    }
    vec![BackendKind::from_env()]
}

/// Run `f` once per selected backend with `GDI_FABRIC_BACKEND` set
/// accordingly, so every fabric the closure builds (without an explicit
/// pin) runs on that backend. The previous value is restored afterwards.
/// Call from a harness `main` before spawning threads.
pub fn for_backends(selection: &[BackendKind], mut f: impl FnMut(BackendKind)) {
    let saved = std::env::var_os(BACKEND_ENV);
    for &backend in selection {
        std::env::set_var(BACKEND_ENV, backend.label());
        f(backend);
    }
    match saved {
        Some(v) => std::env::set_var(BACKEND_ENV, v),
        None => std::env::remove_var(BACKEND_ENV),
    }
}

/// Build a graph spec for a sweep point.
pub fn spec_for(scale: u32, seed: u64, lpg: LpgConfig) -> GraphSpec {
    GraphSpec {
        scale,
        edge_factor: 16,
        seed,
        lpg,
    }
}

// ---------------------------------------------------------------------
// OLTP runners
// ---------------------------------------------------------------------

/// The systems an OLTP run can serve: GDA and the two baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Gda,
    /// JanusGraph-like: sharded storage servers behind client ranks.
    Janus,
    /// Neo4j-like: one server; the ranks are its clients.
    Neo4j,
}

/// One OLTP run: per-rank results (latency histograms for Fig. 5) and
/// the summary the throughput figures plot.
#[derive(Debug, Clone)]
pub struct OltpRun {
    pub results: Vec<OltpResult>,
    /// Committed transactions per second of the makespan, in millions.
    pub mqps: f64,
    /// Failed-transaction fraction.
    pub fail: f64,
}

/// Run `ops` transactions of `mix` per rank on `system` over `nranks`
/// ranks of `backend`. A baseline's makespan is bounded below by its
/// servers' busy time: ops cannot complete faster than the shards (or
/// the one Neo4j server) serve them.
pub fn oltp(
    system: System,
    backend: BackendKind,
    nranks: usize,
    spec: &GraphSpec,
    mix: &Mix,
    ops: usize,
) -> OltpRun {
    let ocfg = OltpConfig {
        ops_per_rank: ops,
        seed: spec.seed,
    };
    let fabric = || {
        rma::FabricBuilder::new(nranks)
            .cost(CostModel::default())
            .backend(backend)
            .build()
    };
    let (results, server_s) = match system {
        System::Gda => {
            let cfg = oltp_sized_config(spec, nranks, ops);
            let (db, fabric) =
                GdaDb::with_fabric_on("bench", cfg, nranks, CostModel::default(), backend);
            let results = fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let (meta, _) = load_into(&eng, spec);
                ctx.barrier();
                workloads::oltp::run_oltp(&eng, spec, &meta, mix, &ocfg)
            });
            (results, 0.0)
        }
        System::Janus => {
            let store = baselines::JanusStore::new(nranks);
            let results = fabric().run(|ctx| {
                store.load(ctx, spec);
                ctx.barrier();
                store.run_oltp(ctx, spec, mix, &ocfg)
            });
            (results, store.max_server_busy_s())
        }
        System::Neo4j => {
            let store = baselines::Neo4jStore::default();
            let results = fabric().run(|ctx| {
                store.load(ctx, spec);
                store.run_oltp(ctx, spec, mix, &ocfg)
            });
            (results, store.server_makespan_s())
        }
    };
    let committed: u64 = results.iter().map(|r| r.committed).sum();
    let aborted: u64 = results.iter().map(|r| r.aborted).sum();
    let client_s = results.iter().map(|r| r.sim_ns).fold(0.0, f64::max) / 1e9;
    let makespan = client_s.max(server_s);
    OltpRun {
        mqps: if makespan > 0.0 {
            committed as f64 / makespan / 1e6
        } else {
            0.0
        },
        fail: aborted as f64 / (committed + aborted).max(1) as f64,
        results,
    }
}

/// Size a config with headroom for OLTP-inserted vertices/edges.
pub fn oltp_sized_config(spec: &GraphSpec, nranks: usize, ops: usize) -> gda::GdaConfig {
    let mut cfg = sized_config(spec, nranks);
    let extra_blocks = (ops * 4).next_power_of_two();
    cfg.blocks_per_rank += extra_blocks;
    cfg.dht_heap_per_rank += (ops * 2).next_power_of_two();
    cfg
}

// ---------------------------------------------------------------------
// OLAP runners
// ---------------------------------------------------------------------

/// The OLAP algorithms of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OlapAlgo {
    Bfs,
    /// PageRank, 10 iterations, damping 0.85.
    Pagerank,
    /// Label propagation, 5 iterations.
    Cdlp,
    /// Connected components, 5 iterations.
    Wcc,
    Lcc,
    Khop(u32),
    Gnn {
        layers: usize,
        k: usize,
    },
    Bi2,
}

/// Run one GDA OLAP/OLSP workload; returns the active-clock runtime in
/// seconds (max over ranks, measured between two barriers — simulated on
/// the LogGP backend, real elapsed on the wall backend).
pub fn gda_olap(backend: BackendKind, nranks: usize, spec: &GraphSpec, algo: OlapAlgo) -> f64 {
    let mut cfg = sized_config(spec, nranks);
    if let OlapAlgo::Gnn { k, .. } = algo {
        // feature vectors dominate storage
        let fv_blocks =
            (spec.n_vertices() as usize / nranks + 1) * (k * 8 / (cfg.block_size - 16) + 2);
        cfg.blocks_per_rank = (cfg.blocks_per_rank + fv_blocks).next_power_of_two();
    }
    let (db, fabric) = GdaDb::with_fabric_on("olap", cfg, nranks, CostModel::default(), backend);
    let times = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_into(&eng, spec);
        run_algo_timed(&eng, ctx, spec, &meta, algo)
    });
    times.into_iter().fold(0.0, f64::max)
}

/// Execute an algorithm between clock-reconciling barriers and return the
/// rank's elapsed seconds.
///
/// The timed region *includes* materializing the local partition through
/// the collective read transaction: a graph database answers OLAP queries
/// from its transactional storage, so fetching adjacency is part of the
/// query — this is exactly the overhead that separates GDA from the raw
/// Graph500 kernel in Fig. 6e/6f.
fn run_algo_timed(
    eng: &gda::GdaRank,
    ctx: &RankCtx,
    spec: &GraphSpec,
    meta: &LpgMeta,
    algo: OlapAlgo,
) -> f64 {
    ctx.barrier();
    let t0 = ctx.now_ns();
    let view = &match meta.all_index {
        Some(ix) => workloads::analytics::build_view_indexed(eng, ix),
        None => build_view(eng, &spec.vertices_for_rank(ctx.rank(), ctx.nranks())),
    };
    match algo {
        OlapAlgo::Bfs => {
            let tx = eng.begin_collective(AccessMode::ReadOnly);
            drop(tx);
            workloads::analytics::bfs(eng, view, bfs_root(spec));
        }
        OlapAlgo::Pagerank => {
            workloads::analytics::pagerank(eng, view, 10, 0.85);
        }
        OlapAlgo::Cdlp => {
            workloads::analytics::cdlp(eng, view, 5);
        }
        OlapAlgo::Wcc => {
            workloads::analytics::wcc(eng, view, 5);
        }
        OlapAlgo::Lcc => {
            workloads::analytics::lcc(eng, view);
        }
        OlapAlgo::Khop(k) => {
            workloads::analytics::khop(eng, view, bfs_root(spec), k);
        }
        OlapAlgo::Gnn { layers, k } => {
            let gcfg = workloads::gnn::GnnConfig {
                layers,
                k,
                seed: spec.seed,
            };
            let pt = workloads::gnn::install_feature_ptype(eng, k);
            workloads::gnn::init_features(eng, view, pt, &gcfg);
            workloads::gnn::train_forward(eng, view, pt, &gcfg);
        }
        OlapAlgo::Bi2 => {
            workloads::bi2::bi2(eng, spec, meta, &bi2_params());
        }
    }
    ctx.barrier();
    (ctx.now_ns() - t0) / 1e9
}

/// A deterministic BFS root with non-zero degree: the paper samples
/// random roots; we pick the first endpoint of the first edge.
pub fn bfs_root(spec: &GraphSpec) -> u64 {
    graphgen::KroneckerSampler::new(spec.scale, spec.seed)
        .edge(0)
        .0
}

/// The BI2 parameters used across harnesses (tuned for measurable
/// selectivity on the rich-graph configuration of [`rich_lpg`]).
pub fn bi2_params() -> workloads::bi2::Bi2Params {
    workloads::bi2::Bi2Params {
        person_threshold: u64::MAX / 8,
        target_threshold: u64::MAX / 8,
        ..Default::default()
    }
}

/// The LPG configuration used by BI2/OLSP harnesses (few labels, all
/// edges labeled, so the query selects a meaningful subset).
pub fn rich_lpg() -> LpgConfig {
    LpgConfig {
        num_labels: 4,
        num_ptypes: 4,
        labels_per_vertex: 2,
        props_per_vertex: 3,
        edge_label_fraction: 1.0,
        ..Default::default()
    }
}

/// Graph500 reference BFS runtime in active-clock seconds.
pub fn graph500_bfs(backend: BackendKind, nranks: usize, spec: &GraphSpec) -> f64 {
    let fabric = rma::FabricBuilder::new(nranks)
        .cost(CostModel::default())
        .backend(backend)
        .build();
    let times = fabric.run(|ctx| {
        let csr = baselines::build_csr(ctx, spec);
        ctx.barrier();
        let t0 = ctx.now_ns();
        baselines::csr_bfs(ctx, &csr, bfs_root(spec));
        ctx.barrier();
        (ctx.now_ns() - t0) / 1e9
    });
    times.into_iter().fold(0.0, f64::max)
}

/// Neo4j server-side OLAP runtime in active-clock seconds.
pub fn neo4j_olap(backend: BackendKind, nranks: usize, spec: &GraphSpec, algo: OlapAlgo) -> f64 {
    let store = baselines::Neo4jStore::default();
    let fabric = rma::FabricBuilder::new(nranks)
        .cost(CostModel::default())
        .backend(backend)
        .build();
    let times = fabric.run(|ctx| {
        store.load(ctx, spec);
        ctx.barrier();
        let t0 = ctx.now_ns();
        match algo {
            OlapAlgo::Bfs => {
                store.bfs(ctx, bfs_root(spec));
            }
            OlapAlgo::Bi2 => {
                store.bi2(ctx, &bi2_params());
            }
            _ => unimplemented!("Neo4j baseline covers BFS/BI2 only"),
        }
        ctx.barrier();
        (ctx.now_ns() - t0) / 1e9
    });
    times.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_flag_parsing() {
        let sel = |args: &[&str]| backend_selection_from(args.iter().map(|s| s.to_string()));
        assert_eq!(sel(&["--smoke"]), vec![BackendKind::from_env()]);
        assert_eq!(sel(&["--backend", "sim"]), vec![BackendKind::Sim]);
        assert_eq!(sel(&["--backend=wall"]), vec![BackendKind::Wall]);
        assert_eq!(
            sel(&["--smoke", "--backend", "both"]),
            vec![BackendKind::Sim, BackendKind::Wall]
        );
    }

    #[test]
    fn params_env_defaults() {
        let p = RunParams::default();
        assert_eq!(p.weak_scale(1), p.base_scale);
        assert_eq!(p.weak_scale(8), p.base_scale + 3);
    }

    #[test]
    fn small_end_to_end_point() {
        let spec = spec_for(8, 7, LpgConfig::default());
        let run = oltp(
            System::Gda,
            BackendKind::from_env(),
            2,
            &spec,
            &Mix::READ_MOSTLY,
            50,
        );
        assert!(run.mqps > 0.0);
        assert!(run.fail < 0.5);
        assert_eq!(run.results.len(), 2);
    }

    #[test]
    fn render_is_stable() {
        let rows = vec![paper::Claim {
            id: "x.y",
            source: "Fig. 0".into(),
            predicate: "a > b",
            config: "P=2".into(),
            // the last bits of a Sim clock are summation order, not data
            values: vec![("a".into(), 1.5), ("b".into(), 0.25 + 1e-15)],
            pass: true,
        }];
        let text = paper::render(&rows);
        assert!(text.contains("x.y") && text.contains("pass") && text.contains("a > b"));
        let json = paper::to_json(&rows, false);
        assert!(json.contains(r#"{"id":"x.y","pass":true,"source":"Fig. 0""#));
        assert!(json.contains(r#""values":{"a":1.50000e0,"b":2.50000e-1}"#));
        assert_eq!(json, paper::to_json(&rows, false));
    }
}
