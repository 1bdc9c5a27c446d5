//! Chaos sweep: recovery success rate and MTTR across the fault grid.
//!
//! Each point runs `workloads::chaos` — live session traffic, a
//! **persistent injected fault** at one storage point of the shared
//! fault plane (`gda::faults`), graceful degradation to read-only
//! serving, repair, a kill, and a recovery from disk — over the grid
//! *fault point × rank count*. Reported per point:
//!
//! * **recovered** — the full contract held: degradation entered *and*
//!   exited, zero read aborts while degraded, every rejected write
//!   provably absent, every committed write present after recovery,
//!   zero replay errors;
//! * **MTTR** — wall-clock seconds from `recover()` to a serving,
//!   fully verified database.
//!
//! The sweep gates **100% recovery success** across the grid (the
//! acceptance bar), plus a non-empty degradation ledger at every point.
//!
//! `--smoke` runs one small point with the same gates (the CI guard).
//!
//! Environment: `GDI_BENCH_CHAOS_SESSIONS` (default 4),
//! `GDI_BENCH_CHAOS_OPS` (per session per phase, default 24).

use gda::faults;
use gdi_bench::{backend_selection, emit, emit_json_unless_smoke, for_backends};
use rma::{BackendKind, CostModel};
use workloads::chaos::{run_chaos, ChaosReport, ChaosScenario};

/// The fault grid: every storage point whose persistent failure must
/// degrade the server (via the failing collective checkpoint, or — for
/// `redo.append` — via the serve loop's store-health observer). The
/// scenario's failing checkpoint is a delta, which writes no snapshot
/// file, so `snap.write` is not on it.
const FAULT_POINTS: &[&str] = &[
    faults::MANIFEST_WRITE,
    faults::CURRENT_RENAME,
    faults::REDO_APPEND,
];

struct PointResult {
    point: &'static str,
    nranks: usize,
    report: ChaosReport,
}

fn run_point(
    backend: BackendKind,
    point: &'static str,
    nranks: usize,
    sessions: usize,
    ops: usize,
) -> PointResult {
    let dir = workloads::scratch::ScratchDir::new(&format!(
        "chaos-sweep-{}-p{nranks}-{}",
        backend.label(),
        point.replace('.', "-")
    ));
    let mut cfg = ChaosScenario::new(dir.path());
    cfg.backend = Some(backend);
    cfg.nranks = nranks;
    cfg.sessions = sessions;
    cfg.ops_before = ops;
    cfg.ops_during = ops / 2;
    cfg.ops_after = ops;
    cfg.fault_point = point;
    cfg.cost = CostModel::default();
    let report = run_chaos(&cfg);
    PointResult {
        point,
        nranks,
        report,
    }
}

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn main() {
    for_backends(&backend_selection(), run_on);
}

fn run_on(backend: BackendKind) {
    let bench = match backend {
        BackendKind::Sim => "chaos_sweep",
        BackendKind::Wall => "chaos_sweep_wall",
    };
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sessions = env_usize("GDI_BENCH_CHAOS_SESSIONS", 4);
    let ops = env_usize("GDI_BENCH_CHAOS_OPS", 24);

    let grid: Vec<(&'static str, usize)> = if smoke {
        vec![(faults::MANIFEST_WRITE, 2), (faults::REDO_APPEND, 2)]
    } else {
        FAULT_POINTS
            .iter()
            .flat_map(|&p| [1usize, 2, 4].map(|n| (p, n)))
            .collect()
    };
    let (sessions, ops) = if smoke { (2, 10) } else { (sessions, ops) };

    let mut results = Vec::new();
    for &(point, nranks) in &grid {
        eprintln!("  [chaos_sweep] {point} P={nranks} ...");
        let r = run_point(backend, point, nranks, sessions, ops);
        eprintln!(
            "  [chaos_sweep] {point} P={nranks}: {} | {} committed, \
             {} degraded reads ({} aborts), {} rejects, MTTR {:.3}s",
            if r.report.passed() { "PASS" } else { "FAIL" },
            r.report.committed_writes,
            r.report.degraded_reads,
            r.report.degraded_read_aborts,
            r.report.write_rejects,
            r.report.mttr_s
        );
        results.push(r);
    }

    let recovered = results.iter().filter(|r| r.report.passed()).count();
    let success_rate = recovered as f64 / results.len() as f64;
    let mttr_mean = results.iter().map(|r| r.report.mttr_s).sum::<f64>() / results.len() as f64;

    let mut out =
        String::from("### Chaos sweep — recovery success rate and MTTR per fault point\n");
    out.push_str(&format!(
        "{:<16} {:<6} {:>6} {:>10} {:>10} {:>8} {:>8} {:>8} {:>9} {:>10} {:>9}\n",
        "fault",
        "ranks",
        "ok",
        "committed",
        "deg reads",
        "aborts",
        "rejects",
        "leaks",
        "checks",
        "serve s",
        "MTTR s"
    ));
    for r in &results {
        out.push_str(&format!(
            "{:<16} {:<6} {:>6} {:>10} {:>10} {:>8} {:>8} {:>8} {:>9} {:>10.3} {:>9.3}\n",
            r.point,
            r.nranks,
            if r.report.passed() { "yes" } else { "NO" },
            r.report.committed_writes,
            r.report.degraded_reads,
            r.report.degraded_read_aborts,
            r.report.write_rejects,
            r.report.write_leaks,
            r.report.checks,
            r.report.serve_wall_s,
            r.report.mttr_s
        ));
    }
    out.push_str(&format!(
        "recovery success {recovered}/{} ({:.0}%), mean MTTR {mttr_mean:.3}s\n",
        results.len(),
        success_rate * 100.0
    ));

    let mut json = format!(
        "{{\"bench\":\"{bench}\",\"backend\":\"{}\",\"success_rate\":{success_rate:.4},\
         \"mttr_mean_s\":{mttr_mean:.6},\"points\":[",
        backend.label()
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"fault\":\"{}\",\"nranks\":{},\"recovered\":{},\"degraded_entered\":{},\
             \"degraded_exited\":{},\"committed\":{},\"degraded_reads\":{},\
             \"degraded_read_aborts\":{},\"write_rejects\":{},\"write_leaks\":{},\
             \"checks\":{},\"mismatches\":{},\"recovery_errors\":{},\"fault_hits\":{},\
             \"serve_wall_s\":{:.6},\"mttr_s\":{:.6}}}",
            r.point,
            r.nranks,
            r.report.passed(),
            r.report.degraded_entered,
            r.report.degraded_exited,
            r.report.committed_writes,
            r.report.degraded_reads,
            r.report.degraded_read_aborts,
            r.report.write_rejects,
            r.report.write_leaks,
            r.report.checks,
            r.report.mismatches.len(),
            r.report.recovery_errors,
            r.report.fault_hits,
            r.report.serve_wall_s,
            r.report.mttr_s
        ));
    }
    json.push_str("]}");
    emit(bench, &out);
    emit_json_unless_smoke(bench, &json, smoke);

    // the CI gates: every point recovers, with a real degradation ledger
    for r in &results {
        if !r.report.passed() {
            eprintln!(
                "MISMATCHES at {} P={}:\n{}",
                r.point,
                r.nranks,
                r.report.mismatches.join("\n")
            );
        }
        assert!(
            r.report.passed(),
            "{} P={}: chaos contract violated: {:?}",
            r.point,
            r.nranks,
            r.report
        );
        assert!(
            r.report.write_rejects > 0 && r.report.degraded_reads > 0,
            "{} P={}: degradation ledger empty: {:?}",
            r.point,
            r.nranks,
            r.report
        );
        assert!(
            r.report.fault_hits >= 1,
            "{} P={}: fault never fired",
            r.point,
            r.nranks
        );
    }
    assert_eq!(recovered, results.len(), "recovery success below 100%");
    println!(
        "chaos_sweep: {recovered}/{} points recovered (100%), mean MTTR {mttr_mean:.3}s",
        results.len()
    );
}
