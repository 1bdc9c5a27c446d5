//! # `gdi-bench` — the evaluation harness (§6)
//!
//! One binary per paper table/figure (`CONTRIBUTING.md` has the index).
//! This library holds the shared machinery: scenario runners for GDA and
//! the three baselines, weak/strong-scaling sweeps, environment-variable
//! sizing, and plain-text table output.
//!
//! ## Sizing
//!
//! Defaults are sized for a small host (the figures' *shape* is the
//! deliverable, not Piz Daint's absolute numbers). Override with:
//!
//! * `GDI_BENCH_RANKS` — comma-separated rank counts (default `1,2,4,8`)
//! * `GDI_BENCH_SCALE` — Kronecker scale of the *smallest* weak-scaling
//!   point / the fixed strong-scaling graph (default `10`)
//! * `GDI_BENCH_OPS` — OLTP transactions per rank (default `1000`)

use std::sync::Arc;

use gda::GdaDb;
use gdi::AccessMode;
use graphgen::{load_into, sized_config, GraphSpec, LpgConfig, LpgMeta};
use rma::{CostModel, RankCtx};
use workloads::analytics::build_view;
use workloads::oltp::{Mix, OltpConfig, OltpResult};

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

/// One point of a measured series.
#[derive(Debug, Clone)]
pub struct Point {
    pub nranks: usize,
    pub scale: u32,
    /// Primary metric (throughput in MQ/s or runtime in seconds).
    pub value: f64,
    /// Failed-transaction fraction (OLTP) or 0.
    pub fail_frac: f64,
}

/// A named series of points (one line in a figure).
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub points: Vec<Point>,
}

/// Render series as an aligned text table (the harness' "figure").
pub fn render_series(title: &str, metric: &str, series: &[Series]) -> String {
    let mut out = format!("### {title}\n");
    out.push_str(&format!(
        "{:<28} {:>7} {:>7} {:>14} {:>9}\n",
        "series", "ranks", "scale", metric, "failed%"
    ));
    for s in series {
        for p in &s.points {
            out.push_str(&format!(
                "{:<28} {:>7} {:>7} {:>14.6} {:>8.2}%\n",
                s.name,
                p.nranks,
                p.scale,
                p.value,
                p.fail_frac * 100.0
            ));
        }
    }
    out
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
/// `results/BENCH_<name>.json` (and echo a `BENCH_JSON` line to
/// stdout). Every `bench/bin/*` harness emits one, so the perf
/// trajectory is tracked across PRs by diffing committed JSON instead
/// of re-parsing text tables.
pub fn emit_json(name: &str, json: &str) {
    println!("BENCH_JSON {json}");
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("BENCH_{name}.json"));
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("[written {}]", path.display());
    }
}

/// Serialize measured series into the standard bench-JSON shape:
/// `{"bench":name,"series":[{"name":..,"points":[{nranks,scale,value,fail_frac}..]}..]}`.
pub fn series_json(bench: &str, series: &[Series]) -> String {
    let mut out = format!("{{\"bench\":\"{bench}\",\"series\":[");
    for (si, s) in series.iter().enumerate() {
        if si > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"name\":\"{}\",\"points\":[", s.name));
        for (pi, p) in s.points.iter().enumerate() {
            if pi > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"nranks\":{},\"scale\":{},\"value\":{:.9},\"fail_frac\":{:.6}}}",
                p.nranks, p.scale, p.value, p.fail_frac
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// [`emit_json`] for plain series sweeps (the fig/tab harness shape).
pub fn emit_series_json(bench: &str, series: &[Series]) {
    emit_json(bench, &series_json(bench, series));
}

/// [`emit_json`] that refuses to touch `results/` in smoke mode: the
/// committed `BENCH_<name>.json` files record **full** runs, and a CI
/// `--smoke` run must never clobber that trajectory with a smoke-sized
/// point. The `BENCH_JSON` stdout line is printed either way.
pub fn emit_json_unless_smoke(name: &str, json: &str, smoke: bool) {
    if smoke {
        println!("BENCH_JSON {json}");
    } else {
        emit_json(name, json);
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

/// Command-line arguments (after the binary name) with the
/// `--backend ...` flag removed — for harnesses that read positional
/// modes via `args().nth(1)`.
pub fn args_without_backend() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        if a.starts_with("--backend=") {
            continue;
        }
        if a == "--backend" {
            args.next();
            continue;
        }
        out.push(a);
    }
    out
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

/// Label a series with its backend: simulated names stay exactly as
/// committed in `results/BENCH_*.json`; wall-clock series get a `/wall`
/// suffix so nondeterministic hardware timings are never confused with
/// the LogGP baseline.
pub fn label_series(mut series: Series, backend: BackendKind) -> Series {
    if backend == BackendKind::Wall {
        series.name.push_str("/wall");
    }
    series
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

/// Run one scaling sweep over `params.ranks`: weak scaling grows the
/// graph with the machine, strong scaling fixes it at `base_scale`. The
/// runner returns `(metric value, failed-transaction fraction)` for one
/// point; use [`sweep_runtime`] for seconds-valued runners without a
/// failure channel. This is the shared core of every figure binary.
pub fn sweep(
    name: &str,
    params: &RunParams,
    weak: bool,
    lpg: LpgConfig,
    runner: impl Fn(usize, &GraphSpec) -> (f64, f64),
) -> Series {
    let mut points = Vec::new();
    for &nranks in &params.ranks {
        let scale = if weak {
            params.weak_scale(nranks)
        } else {
            params.base_scale
        };
        let spec = spec_for(scale, params.seed, lpg);
        let (value, fail) = runner(nranks, &spec);
        points.push(Point {
            nranks,
            scale,
            value,
            fail_frac: fail,
        });
        eprintln!(
            "  [{name}] P={nranks} s={scale}: {value:.6} ({:.2}% failed)",
            fail * 100.0
        );
    }
    Series {
        name: name.into(),
        points,
    }
}

/// [`sweep`] for runtime-valued runners (no failure fraction).
pub fn sweep_runtime(
    name: &str,
    params: &RunParams,
    weak: bool,
    lpg: LpgConfig,
    runner: impl Fn(usize, &GraphSpec) -> f64,
) -> Series {
    sweep(name, params, weak, lpg, |p, s| (runner(p, s), 0.0))
}

// ---------------------------------------------------------------------
// GDA runners
// ---------------------------------------------------------------------

/// Run a GDA OLTP mix on `backend` (harnesses pass
/// [`BackendKind::from_env`]): returns `(throughput MQ/s, failure
/// fraction)`.
pub fn gda_oltp(
    backend: BackendKind,
    nranks: usize,
    spec: &GraphSpec,
    mix: &Mix,
    ops: usize,
) -> (f64, f64) {
    let cfg = oltp_sized_config(spec, nranks, ops);
    let (db, fabric) = GdaDb::with_fabric_on("bench", cfg, nranks, CostModel::default(), backend);
    let results = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_into(&eng, spec);
        ctx.barrier();
        workloads::oltp::run_oltp(
            &eng,
            spec,
            &meta,
            mix,
            &OltpConfig {
                ops_per_rank: ops,
                seed: spec.seed,
            },
        )
    });
    summarize_oltp(&results)
}

/// Size a config with headroom for OLTP-inserted vertices/edges.
pub fn oltp_sized_config(spec: &GraphSpec, nranks: usize, ops: usize) -> gda::GdaConfig {
    let mut cfg = sized_config(spec, nranks);
    let extra_blocks = (ops * 4).next_power_of_two();
    cfg.blocks_per_rank += extra_blocks;
    cfg.dht_heap_per_rank += (ops * 2).next_power_of_two();
    cfg
}

/// GDA OLTP with full per-op results (latency histograms for Fig. 5).
pub fn gda_oltp_detailed(
    backend: BackendKind,
    nranks: usize,
    spec: &GraphSpec,
    mix: &Mix,
    ops: usize,
) -> Vec<OltpResult> {
    let cfg = oltp_sized_config(spec, nranks, ops);
    let (db, fabric) = GdaDb::with_fabric_on("bench", cfg, nranks, CostModel::default(), backend);
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_into(&eng, spec);
        ctx.barrier();
        workloads::oltp::run_oltp(
            &eng,
            spec,
            &meta,
            mix,
            &OltpConfig {
                ops_per_rank: ops,
                seed: spec.seed,
            },
        )
    })
}

/// Summarize per-rank OLTP results into `(MQ/s, failure fraction)`.
pub fn summarize_oltp(results: &[OltpResult]) -> (f64, f64) {
    let qps = workloads::oltp::throughput_qps(results);
    let committed: u64 = results.iter().map(|r| r.committed).sum();
    let aborted: u64 = results.iter().map(|r| r.aborted).sum();
    let fail = if committed + aborted == 0 {
        0.0
    } else {
        aborted as f64 / (committed + aborted) as f64
    };
    (qps / 1e6, fail)
}

/// The OLAP algorithms of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OlapAlgo {
    Bfs,
    Pagerank,
    Cdlp,
    Wcc,
    Lcc,
    Khop(u32),
    Gnn { layers: usize, k: usize },
    Bi2,
}

impl OlapAlgo {
    pub fn name(&self) -> String {
        match self {
            OlapAlgo::Bfs => "BFS".into(),
            OlapAlgo::Pagerank => "PageRank (i=10, df=0.85)".into(),
            OlapAlgo::Cdlp => "CDLP (i=5)".into(),
            OlapAlgo::Wcc => "WCC (i=5)".into(),
            OlapAlgo::Lcc => "LCC".into(),
            OlapAlgo::Khop(k) => format!("{k}-Hop"),
            OlapAlgo::Gnn { layers, k } => format!("GNN (l={layers}, k={k})"),
            OlapAlgo::Bi2 => "BI2".into(),
        }
    }
}

/// Which OLAP view builder a run uses (the before/after axis of the
/// zero-transaction scan layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMode {
    /// The tx-based reference path: a collective read transaction and
    /// one `neighbors` call per vertex (the differential oracle).
    Tx,
    /// The scan layer: `GdaRank::olap_view` — an epoch-validated CSR
    /// mirror built by one raw-window sweep.
    Scan,
}

/// Run one GDA OLAP/OLSP workload with view builder `mode`; returns the
/// active-clock runtime in seconds (max over ranks, measured between two
/// barriers — simulated on the LogGP backend, real elapsed on the wall
/// backend).
pub fn gda_olap(
    backend: BackendKind,
    nranks: usize,
    spec: &GraphSpec,
    algo: OlapAlgo,
    mode: ViewMode,
) -> f64 {
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
        run_algo_timed(&eng, ctx, spec, &meta, algo, mode)
    });
    times.into_iter().fold(0.0, f64::max)
}

/// Execute an algorithm between clock-reconciling barriers and return the
/// rank's simulated elapsed seconds.
///
/// The timed region *includes* materializing the local partition with
/// the view builder `mode` names: a graph database answers OLAP queries
/// from its transactional storage, so fetching adjacency ([`ViewMode::Tx`]:
/// through the collective read transaction) is part of the query — this
/// is exactly the overhead that separates GDA from the raw Graph500
/// kernel in Fig. 6e/6f.
pub fn run_algo_timed(
    eng: &gda::GdaRank,
    ctx: &RankCtx,
    spec: &GraphSpec,
    meta: &LpgMeta,
    algo: OlapAlgo,
    mode: ViewMode,
) -> f64 {
    ctx.barrier();
    let t0 = ctx.now_ns();
    // materialize the local partition: either through the collective
    // read transaction (tx path — the Fig. 6e/6f overhead separating
    // GDA from the raw Graph500 kernel) or by the zero-transaction
    // raw-window sweep (`gda::scan`); both are part of the query
    let view = &*match mode {
        ViewMode::Scan => eng.olap_view(),
        ViewMode::Tx => std::rc::Rc::new(match meta.all_index {
            Some(ix) => workloads::analytics::build_view_indexed(eng, ix),
            None => {
                let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
                build_view(eng, &apps)
            }
        }),
    };
    match algo {
        OlapAlgo::Bfs => {
            let root = bfs_root(spec);
            let tx = eng.begin_collective(AccessMode::ReadOnly);
            drop(tx);
            workloads::analytics::bfs(eng, view, root);
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
            let params = bi2_params();
            workloads::bi2::bi2(eng, spec, meta, &params);
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

// ---------------------------------------------------------------------
// Baseline runners
// ---------------------------------------------------------------------

/// JanusGraph-like OLTP: `(MQ/s, failure fraction)`.
pub fn janus_oltp(
    backend: BackendKind,
    nranks: usize,
    spec: &GraphSpec,
    mix: &Mix,
    ops: usize,
) -> (f64, f64) {
    let store = Arc::new(baselines::JanusStore::new(nranks));
    let fabric = rma::FabricBuilder::new(nranks)
        .cost(CostModel::default())
        .backend(backend)
        .build();
    let s = store.clone();
    let results = fabric.run(move |ctx| {
        s.load(ctx, spec);
        ctx.barrier();
        s.run_oltp(
            ctx,
            spec,
            mix,
            &OltpConfig {
                ops_per_rank: ops,
                seed: spec.seed,
            },
        )
    });
    let (client_mqps, fail) = summarize_oltp(&results);
    // server-side bound: ops cannot complete faster than shards serve them
    let committed: u64 = results.iter().map(|r| r.committed).sum();
    let client_time = committed as f64 / (client_mqps * 1e6);
    let makespan = client_time.max(store.max_server_busy_s());
    (committed as f64 / makespan / 1e6, fail)
}

/// Janus OLTP with full per-op results.
pub fn janus_oltp_detailed(
    nranks: usize,
    spec: &GraphSpec,
    mix: &Mix,
    ops: usize,
) -> Vec<OltpResult> {
    let store = Arc::new(baselines::JanusStore::new(nranks));
    let fabric = rma::FabricBuilder::new(nranks)
        .cost(CostModel::default())
        .build();
    let s = store.clone();
    fabric.run(move |ctx| {
        s.load(ctx, spec);
        ctx.barrier();
        s.run_oltp(
            ctx,
            spec,
            mix,
            &OltpConfig {
                ops_per_rank: ops,
                seed: spec.seed,
            },
        )
    })
}

/// Neo4j-like OLTP: `(MQ/s, failure fraction)`. `nranks` are clients; the
/// store is always one server.
pub fn neo4j_oltp(
    backend: BackendKind,
    nranks: usize,
    spec: &GraphSpec,
    mix: &Mix,
    ops: usize,
) -> (f64, f64) {
    let store = Arc::new(baselines::Neo4jStore::default());
    let fabric = rma::FabricBuilder::new(nranks)
        .cost(CostModel::default())
        .backend(backend)
        .build();
    let s = store.clone();
    let results = fabric.run(move |ctx| {
        s.load(ctx, spec);
        s.run_oltp(
            ctx,
            spec,
            mix,
            &OltpConfig {
                ops_per_rank: ops,
                seed: spec.seed,
            },
        )
    });
    let (client_mqps, fail) = summarize_oltp(&results);
    let committed: u64 = results.iter().map(|r| r.committed).sum();
    let client_time = committed as f64 / (client_mqps * 1e6);
    let makespan = client_time.max(store.server_makespan_s());
    (committed as f64 / makespan / 1e6, fail)
}

/// Neo4j OLTP with full per-op results.
pub fn neo4j_oltp_detailed(
    nranks: usize,
    spec: &GraphSpec,
    mix: &Mix,
    ops: usize,
) -> Vec<OltpResult> {
    let store = Arc::new(baselines::Neo4jStore::default());
    let fabric = rma::FabricBuilder::new(nranks)
        .cost(CostModel::default())
        .build();
    let s = store.clone();
    fabric.run(move |ctx| {
        s.load(ctx, spec);
        s.run_oltp(
            ctx,
            spec,
            mix,
            &OltpConfig {
                ops_per_rank: ops,
                seed: spec.seed,
            },
        )
    })
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
    let store = Arc::new(baselines::Neo4jStore::default());
    let fabric = rma::FabricBuilder::new(nranks)
        .cost(CostModel::default())
        .backend(backend)
        .build();
    let s = store.clone();
    let times = fabric.run(move |ctx| {
        s.load(ctx, spec);
        ctx.barrier();
        let t0 = ctx.now_ns();
        match algo {
            OlapAlgo::Bfs => {
                s.bfs(ctx, bfs_root(spec));
            }
            OlapAlgo::Khop(k) => {
                s.khop(ctx, bfs_root(spec), k);
            }
            OlapAlgo::Bi2 => {
                s.bi2(ctx, &bi2_params());
            }
            _ => unimplemented!("Neo4j baseline covers BFS/k-hop/BI2 only"),
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
    fn wall_series_get_suffixed() {
        let s = Series {
            name: "GDA".into(),
            points: vec![],
        };
        assert_eq!(label_series(s.clone(), BackendKind::Sim).name, "GDA");
        assert_eq!(label_series(s, BackendKind::Wall).name, "GDA/wall");
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
        let (mqps, fail) = gda_oltp(BackendKind::from_env(), 2, &spec, &Mix::READ_MOSTLY, 50);
        assert!(mqps > 0.0);
        assert!(fail < 0.5);
    }

    #[test]
    fn render_is_stable() {
        let s = Series {
            name: "x".into(),
            points: vec![Point {
                nranks: 2,
                scale: 10,
                value: 1.5,
                fail_frac: 0.01,
            }],
        };
        let out = render_series("t", "MQ/s", &[s]);
        assert!(out.contains("### t"));
        assert!(out.contains('x'));
        assert!(out.contains("1.5"));
    }
}
