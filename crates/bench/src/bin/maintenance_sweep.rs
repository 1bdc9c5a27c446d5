//! Maintenance sweep: incremental-checkpoint cost versus database size
//! and churn, with the background-maintenance garbage bound.
//!
//! Two axes, both running `workloads::maintenance` (rounds of tracked
//! update-heavy traffic, each closed by a delta checkpoint and a
//! collective maintenance pass, ending in a kill + recovery + full
//! read-back verification):
//!
//! * **scale axis** — fixed churn across growing graph scales: full
//!   checkpoint bytes must grow with the database while delta bytes —
//!   the manifest plus the redo bytes a delta seals, read off the
//!   `log_bytes` counter between checkpoints — stay flat (durability
//!   cost proportional to churn, not data);
//! * **churn axis** — fixed scale across growing per-round op counts:
//!   delta bytes must track the churn.
//!
//! Each point also gates **zero divergence** (every committed write
//! reads back after recovering the full+delta chain + redo tail), a
//! clean snapshot verifier, and a bounded live-block count under the
//! per-round vacuum.
//!
//! `--smoke` runs one small point with the same gates (the CI guard).
//!
//! Environment: `GDI_BENCH_SCALE` (scale-axis base, default 10),
//! `GDI_BENCH_MAINT_SESSIONS` (default 8),
//! `GDI_BENCH_MAINT_OPS` (per session per round, default 40),
//! `GDI_BENCH_MAINT_ROUNDS` (default 3).

use gdi_bench::{backend_selection, emit, emit_json_unless_smoke, for_backends};
use rma::{BackendKind, CostModel};
use workloads::maintenance::{run_maintenance_churn, MaintenanceRunReport, MaintenanceScenario};

struct PointResult {
    nranks: usize,
    scale: u32,
    ops_per_round: usize,
    report: MaintenanceRunReport,
}

impl PointResult {
    fn delta_bytes(&self) -> u64 {
        self.report.max_delta_bytes()
    }

    fn vacuumed(&self) -> u64 {
        self.report.maint.iter().map(|m| m.vacuumed_versions).sum()
    }

    fn live_first_last(&self) -> (u64, u64) {
        let first = self
            .report
            .maint
            .first()
            .map(|m| m.live_blocks)
            .unwrap_or(0);
        (first, self.report.final_live_blocks())
    }
}

fn run_point(
    backend: BackendKind,
    nranks: usize,
    scale: u32,
    sessions: usize,
    ops_per_round: usize,
    rounds: usize,
) -> PointResult {
    let dir = workloads::scratch::ScratchDir::new(&format!(
        "maintenance-sweep-{}-p{nranks}-s{scale}-o{ops_per_round}",
        backend.label()
    ));
    let mut cfg = MaintenanceScenario::new(dir.path());
    cfg.backend = Some(backend);
    cfg.nranks = nranks;
    cfg.scale = scale;
    cfg.sessions = sessions;
    cfg.rounds = rounds;
    cfg.ops_per_round = ops_per_round;
    cfg.cost = CostModel::default();
    let report = run_maintenance_churn(&cfg);
    PointResult {
        nranks,
        scale,
        ops_per_round,
        report,
    }
}

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Gate one point: zero divergence, clean verifier, delta ≪ full,
/// bounded live blocks, and a vacuum that actually reclaimed garbage.
fn gate_point(r: &PointResult, what: &str) {
    if !r.report.passed() {
        eprintln!("MISMATCHES at {what}:\n{}", r.report.mismatches.join("\n"));
    }
    assert!(
        r.report.passed(),
        "{what}: recovery diverged or verifier flagged errors"
    );
    let rec = r.report.recovery.clone().unwrap_or_default();
    assert_eq!(rec.errors, 0, "{what}: replay errors");
    assert!(r.report.committed_writes > 0, "{what}: no tracked commits");
    assert!(
        r.delta_bytes() * 2 < r.report.full.bytes,
        "{what}: delta bytes {} not ≪ full bytes {}",
        r.delta_bytes(),
        r.report.full.bytes
    );
    let (first, last) = r.live_first_last();
    assert!(
        last <= first + first / 4,
        "{what}: live blocks grew unbounded: {first} -> {last}"
    );
    assert!(r.vacuumed() > 0, "{what}: vacuum reclaimed nothing");
}

fn main() {
    for_backends(&backend_selection(), run_on);
}

fn run_on(backend: BackendKind) {
    let bench = match backend {
        BackendKind::Sim => "maintenance_sweep",
        BackendKind::Wall => "maintenance_sweep_wall",
    };
    let smoke = std::env::args().any(|a| a == "--smoke");
    let base_scale: u32 = env_usize("GDI_BENCH_SCALE", 10) as u32;
    let sessions = env_usize("GDI_BENCH_MAINT_SESSIONS", 8);
    let ops = env_usize("GDI_BENCH_MAINT_OPS", 40);
    let rounds = env_usize("GDI_BENCH_MAINT_ROUNDS", 3);
    let nranks = 2;

    // (scale, ops_per_round) points on the two axes
    let scale_points: Vec<u32> = if smoke {
        vec![8]
    } else {
        (base_scale..base_scale + 4).collect()
    };
    let churn_points: Vec<usize> = if smoke {
        vec![]
    } else {
        vec![ops / 2, ops, ops * 2]
    };
    let churn_scale = base_scale + 1;
    let (smoke_sessions, smoke_ops, smoke_rounds) = (4, 15, 2);

    let mut scale_results = Vec::new();
    for &scale in &scale_points {
        let (s, o, rds) = if smoke {
            (smoke_sessions, smoke_ops, smoke_rounds)
        } else {
            (sessions, ops, rounds)
        };
        eprintln!("  [maintenance_sweep] scale axis: P={nranks} s={scale} ops={o} ...");
        let r = run_point(backend, nranks, scale, s, o, rds);
        let (first, last) = r.live_first_last();
        eprintln!(
            "  [maintenance_sweep] P={nranks} s={scale}: full {} B / {:.3} sim ms, \
             max delta {} B, live {first}->{last} blocks, \
             vacuumed {} versions, {} checks / {} mismatches",
            r.report.full.bytes,
            r.report.full.sim_stall_s * 1e3,
            r.delta_bytes(),
            r.vacuumed(),
            r.report.checks,
            r.report.mismatches.len()
        );
        scale_results.push(r);
    }
    let mut churn_results = Vec::new();
    for &o in &churn_points {
        eprintln!("  [maintenance_sweep] churn axis: P={nranks} s={churn_scale} ops={o} ...");
        let r = run_point(backend, nranks, churn_scale, sessions, o, rounds);
        eprintln!(
            "  [maintenance_sweep] P={nranks} s={churn_scale} ops={o}: \
             max delta {} B, full {} B",
            r.delta_bytes(),
            r.report.full.bytes
        );
        churn_results.push(r);
    }

    let mut out =
        String::from("### Maintenance sweep — delta-checkpoint cost vs database size and churn\n");
    out.push_str(&format!(
        "{:<6} {:<6} {:>6} {:>9} {:>12} {:>14} {:>12} {:>14} {:>11} {:>10} {:>9} {:>9}\n",
        "axis",
        "ranks",
        "scale",
        "ops/rnd",
        "full KiB",
        "full stall ms",
        "delta KiB",
        "delta stall ms",
        "live blks",
        "vacuumed",
        "checks",
        "mismatch"
    ));
    let mut row = |axis: &str, r: &PointResult| {
        let delta_stall = r
            .report
            .deltas
            .iter()
            .map(|d| d.sim_stall_s)
            .fold(0.0f64, f64::max);
        let (_, last) = r.live_first_last();
        out.push_str(&format!(
            "{:<6} {:<6} {:>6} {:>9} {:>12.1} {:>14.3} {:>12.1} {:>14.3} {:>11} {:>10} {:>9} {:>9}\n",
            axis,
            r.nranks,
            r.scale,
            r.ops_per_round,
            r.report.full.bytes as f64 / 1024.0,
            r.report.full.sim_stall_s * 1e3,
            r.delta_bytes() as f64 / 1024.0,
            delta_stall * 1e3,
            last,
            r.vacuumed(),
            r.report.checks,
            r.report.mismatches.len()
        ));
    };
    for r in &scale_results {
        row("scale", r);
    }
    for r in &churn_results {
        row("churn", r);
    }

    let point_json = |r: &PointResult| {
        let rec = r.report.recovery.clone().unwrap_or_default();
        let (live_first, live_last) = r.live_first_last();
        let delta_stall = r
            .report
            .deltas
            .iter()
            .map(|d| d.sim_stall_s)
            .fold(0.0f64, f64::max);
        format!(
            "{{\"nranks\":{},\"scale\":{},\"ops_per_round\":{},\"committed\":{},\
             \"full_bytes\":{},\"full_stall_sim_s\":{:.6},\"delta_bytes_max\":{},\
             \"delta_stall_sim_s\":{:.6},\"live_blocks_first\":{},\
             \"live_blocks_last\":{},\"total_blocks\":{},\"vacuumed_versions\":{},\
             \"verified_bytes\":{},\"verify_errors\":{},\"replay_records\":{},\
             \"checks\":{},\"mismatches\":{}}}",
            r.nranks,
            r.scale,
            r.ops_per_round,
            r.report.committed_writes,
            r.report.full.bytes,
            r.report.full.sim_stall_s,
            r.delta_bytes(),
            delta_stall,
            live_first,
            live_last,
            r.report.total_blocks,
            r.vacuumed(),
            r.report.maint.iter().map(|m| m.verified_bytes).sum::<u64>(),
            r.report.maint.iter().map(|m| m.verify_errors).sum::<u64>(),
            rec.records,
            r.report.checks,
            r.report.mismatches.len()
        )
    };
    let mut json = format!(
        "{{\"bench\":\"{bench}\",\"backend\":\"{}\",\"scale_points\":[",
        backend.label()
    );
    for (i, r) in scale_results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&point_json(r));
    }
    json.push_str("],\"churn_points\":[");
    for (i, r) in churn_results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&point_json(r));
    }
    json.push_str("]}");
    emit(bench, &out);
    emit_json_unless_smoke(bench, &json, smoke);

    // the CI gates: zero divergence, delta ≪ full, bounded live blocks
    for r in scale_results.iter().chain(&churn_results) {
        gate_point(
            r,
            &format!("P={} s={} ops={}", r.nranks, r.scale, r.ops_per_round),
        );
    }
    if scale_results.len() >= 2 {
        // fixed churn: full bytes grow with the database, delta bytes
        // stay flat (within noise) — durability cost ∝ churn, not data
        let first = &scale_results[0];
        let last = &scale_results[scale_results.len() - 1];
        assert!(
            last.report.full.bytes > first.report.full.bytes * 2,
            "full bytes did not grow with scale: {} -> {}",
            first.report.full.bytes,
            last.report.full.bytes
        );
        assert!(
            last.delta_bytes() < first.delta_bytes() * 3,
            "delta bytes not flat across scale at fixed churn: {} -> {}",
            first.delta_bytes(),
            last.delta_bytes()
        );
    }
    if churn_results.len() >= 2 {
        // fixed scale: more churn → more delta bytes
        let lo = &churn_results[0];
        let hi = &churn_results[churn_results.len() - 1];
        assert!(
            hi.delta_bytes() > lo.delta_bytes(),
            "delta bytes did not track churn: {} (ops {}) -> {} (ops {})",
            lo.delta_bytes(),
            lo.ops_per_round,
            hi.delta_bytes(),
            hi.ops_per_round
        );
    }
    println!(
        "maintenance_sweep: all points verified \
         (zero divergence, delta ≪ full, bounded live blocks)"
    );
}
