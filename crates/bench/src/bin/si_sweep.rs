//! `si_sweep` — abort-free read traffic under MVCC snapshot isolation.
//!
//! Drives the Table-3 read-heavy mix through the serving front-end at
//! growing session counts. Read-only transactions pin a snapshot epoch
//! at begin and read validated version chains, taking no locks. (The 2PL
//! read path this sweep used to compare against lost at every committed
//! point — 6.58 / 6.62 vs 4.05 / 4.12 simulated µs per read — and is
//! gone.)
//!
//! Reported per point: read-op commits/aborts, overall abort fraction,
//! per-committed-op simulated service time, client-observed wall
//! latency percentiles, and the MVCC fabric counters (pins, snapshot
//! reads, archives, truncations).
//!
//! Gate: read aborts must be **zero** and snapshot pins non-zero — on
//! every backend, smoke or full (the abort-free claim).
//!
//! `--smoke` runs a seconds-sized configuration (the CI smoke step).
//!
//! Environment:
//! * `GDI_BENCH_SERVER_RANKS` — fabric size (default 4)
//! * `GDI_BENCH_SESSIONS` — comma-separated session counts
//!   (default `256,1024`)
//! * `GDI_BENCH_SERVER_OPS` — total op budget per point (default 24000)
//! * `GDI_BENCH_SCALE` — graph scale (default 10)

use gda::GdaDb;
use gdi_bench::{
    backend_selection, emit, emit_json_unless_smoke, for_backends, oltp_sized_config, spec_for,
    BackendKind, RunParams,
};
use graphgen::LpgConfig;
use rma::CostModel;
use server::{RoutePolicy, ServerOptions};
use workloads::oltp::Mix;
use workloads::traffic::{load_and_serve, ServeRun, TrafficConfig};

struct Point {
    sessions: usize,
    committed: u64,
    read_committed: u64,
    read_aborted: u64,
    abort_frac: f64,
    /// Simulated service time per committed op (makespan / commits).
    sim_per_op_us: f64,
    /// Simulated service time per **read** request (the serve loops'
    /// read-section clock over read requests served), isolated from
    /// write-commit bookkeeping.
    sim_read_us: f64,
    p50_us: f64,
    p99_us: f64,
    snapshot_pins: u64,
    snapshot_reads: u64,
    version_archives: u64,
    chain_truncations: u64,
}

fn measure(
    backend: BackendKind,
    nranks: usize,
    spec: &graphgen::GraphSpec,
    sessions: usize,
    ops_per_session: usize,
) -> Point {
    let total_ops = sessions * ops_per_session;
    let mut cfg = oltp_sized_config(spec, nranks, total_ops);
    // session inserts land in disjoint id spaces; headroom beyond the
    // per-rank OLTP sizing (and room for version-chain archives)
    cfg.dht_heap_per_rank += (total_ops * 2).next_power_of_two();
    cfg.blocks_per_rank += (total_ops * 2).next_power_of_two();
    let (db, fabric) = GdaDb::with_fabric_on("si", cfg, nranks, CostModel::default(), backend);
    let tcfg = TrafficConfig {
        sessions,
        ops_per_session,
        mix: Mix::READ_MOSTLY,
        seed: spec.seed,
        workers: sessions.clamp(1, 16),
    };
    // session-affine routing (the paper's deployment shape): an op lands
    // on the rank its session connected to and the serve loop reaches
    // the vertex with one-sided RMA — so the read path pays real remote
    // costs
    let opts = ServerOptions {
        route: RoutePolicy::SessionAffine,
        ..ServerOptions::default()
    };
    let run: ServeRun = load_and_serve(&db, &fabric, opts, spec, &tcfg);

    let lat = run.metrics.latency();
    let fabric_total = run.metrics.fabric_total();
    let committed = run.traffic.committed();
    let max_serve_ns = run
        .summaries
        .iter()
        .map(|s| s.sim_serve_ns)
        .fold(0.0f64, f64::max);
    let read_ns: f64 = run.summaries.iter().map(|s| s.sim_read_ns).sum();
    let read_ops: u64 = run.summaries.iter().map(|s| s.read_ops).sum();
    Point {
        sessions,
        committed,
        read_committed: run.traffic.read_committed(),
        read_aborted: run.traffic.read_aborted(),
        abort_frac: run.traffic.abort_fraction(),
        sim_per_op_us: if committed == 0 {
            0.0
        } else {
            max_serve_ns / committed as f64 / 1e3
        },
        sim_read_us: if read_ops == 0 {
            0.0
        } else {
            read_ns / read_ops as f64 / 1e3
        },
        p50_us: lat.percentile_ns(50.0) / 1e3,
        p99_us: lat.percentile_ns(99.0) / 1e3,
        snapshot_pins: fabric_total.snapshot_pins,
        snapshot_reads: fabric_total.snapshot_reads,
        version_archives: fabric_total.version_archives,
        chain_truncations: fabric_total.chain_truncations,
    }
}

fn main() {
    // `--backend sim|wall|both`: wall runs land under `si_sweep_wall`
    for_backends(&backend_selection(), run_on);
}

fn run_on(backend: BackendKind) {
    let bench = match backend {
        BackendKind::Sim => "si_sweep",
        BackendKind::Wall => "si_sweep_wall",
    };
    let smoke = std::env::args().any(|a| a == "--smoke");
    let params = RunParams::from_env();
    let nranks: usize = std::env::var("GDI_BENCH_SERVER_RANKS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(4);
    let (scale, session_counts, op_budget) = if smoke {
        (8u32, vec![48usize], 1_200usize)
    } else {
        let sessions: Vec<usize> = std::env::var("GDI_BENCH_SESSIONS")
            .ok()
            .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
            .filter(|v: &Vec<usize>| !v.is_empty())
            .unwrap_or_else(|| vec![256, 1024]);
        let ops: usize = std::env::var("GDI_BENCH_SERVER_OPS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(24_000);
        (params.base_scale, sessions, ops)
    };
    let spec = spec_for(scale, 42, LpgConfig::default());

    let mut out = String::new();
    let mut json_rows: Vec<String> = Vec::new();
    out.push_str("### si_sweep — snapshot-isolation reads (read-heavy mix)\n");
    out.push_str(&format!(
        "P={nranks} scale={scale} ({} vertices), mix={}, op budget={op_budget}\n\n",
        spec.n_vertices(),
        Mix::READ_MOSTLY.name,
    ));
    out.push_str(&format!(
        "{:>9} {:>10} {:>10} {:>10} {:>7} {:>12} {:>12} {:>9} {:>9} {:>8} {:>9} {:>9} {:>7}\n",
        "sessions",
        "committed",
        "read_ok",
        "read_abrt",
        "abort%",
        "sim_us/op",
        "sim_us/read",
        "p50_us",
        "p99_us",
        "pins",
        "snreads",
        "archives",
        "trunc"
    ));

    let mut points: Vec<Point> = Vec::new();
    for &sessions in &session_counts {
        let ops_per_session = (op_budget / sessions).max(2);
        eprintln!("  [si_sweep] S={sessions} ...");
        let p = measure(backend, nranks, &spec, sessions, ops_per_session);
        out.push_str(&format!(
            "{:>9} {:>10} {:>10} {:>10} {:>6.2}% {:>12.3} {:>12.3} {:>9.1} {:>9.1} {:>8} {:>9} {:>9} {:>7}\n",
            p.sessions,
            p.committed,
            p.read_committed,
            p.read_aborted,
            p.abort_frac * 100.0,
            p.sim_per_op_us,
            p.sim_read_us,
            p.p50_us,
            p.p99_us,
            p.snapshot_pins,
            p.snapshot_reads,
            p.version_archives,
            p.chain_truncations,
        ));
        json_rows.push(format!(
            "{{\"sessions\":{},\"committed\":{},\
             \"read_committed\":{},\"read_aborted\":{},\"abort_frac\":{:.5},\
             \"sim_per_op_us\":{:.4},\"sim_read_us\":{:.4},\
             \"p50_us\":{:.2},\"p99_us\":{:.2},\
             \"snapshot_pins\":{},\"snapshot_reads\":{},\
             \"version_archives\":{},\"chain_truncations\":{}}}",
            p.sessions,
            p.committed,
            p.read_committed,
            p.read_aborted,
            p.abort_frac,
            p.sim_per_op_us,
            p.sim_read_us,
            p.p50_us,
            p.p99_us,
            p.snapshot_pins,
            p.snapshot_reads,
            p.version_archives,
            p.chain_truncations,
        ));
        points.push(p);
    }
    out.push('\n');

    // ---- gate: abort-free reads — every backend, every configuration --
    for p in &points {
        assert_eq!(
            p.read_aborted, 0,
            "{} read ops aborted at S={} — reads must be abort-free",
            p.read_aborted, p.sessions
        );
        assert!(
            p.snapshot_pins > 0 && p.snapshot_reads > 0,
            "no pinned reads served at S={} — the gate is vacuous",
            p.sessions
        );
    }

    emit(bench, &out);
    emit_json_unless_smoke(
        bench,
        &format!(
            "{{\"bench\":\"{bench}\",\"backend\":\"{}\",\"nranks\":{nranks},\"scale\":{scale},\
             \"mix\":\"{}\",\"points\":[{}]}}",
            backend.label(),
            Mix::READ_MOSTLY.name,
            json_rows.join(",")
        ),
        smoke,
    );
}
