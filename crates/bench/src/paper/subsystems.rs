//! The reproduction's own claims: one row per subsystem — crash
//! recovery, elastic reshard, incremental checkpoints with background
//! maintenance, graceful degradation under injected faults, abort-free
//! snapshot reads through the server, the zero-transaction scan layer
//! and the cost-based query planner. Each row runs on the simulated
//! fabric with `CostModel::default()`, at full size over P = 1…8 (or
//! the topologies and scales its subsystem varies), and its predicate is
//! every gate the subsystem's numbers must meet.
//!
//! Host-clock numbers (restart wall time, MTTR, client p50/p99) are
//! reported as values and never read by a predicate. The logical half
//! of every gate — zero divergence, read-your-committed-writes, zero
//! replay errors, the degradation ledger, zero read aborts — also runs
//! on the wall-clock backend as an integration test.

use gda::faults;
use gdi::{AccessMode, Constraint, EdgeOrientation};
use graphgen::{load_into, sized_config, GraphSpec, LpgConfig};
use query::{executor, planner};
use rma::{BackendKind, CostModel};
use server::{RoutePolicy, ServeSummary, ServerOptions};
use workloads::analytics::{
    bfs, build_view, build_view_indexed, pagerank, scan_view, wcc_converged,
};
use workloads::durability::{self, Report, Scenario, Script};
use workloads::oltp::Mix;
use workloads::queries::{load_with_label_indexes, reference_eval, suite, SuiteParams};
use workloads::scratch::ScratchDir;
use workloads::traffic::{load_and_serve, TrafficConfig};

use super::{claim, Claim, Lab, WEAK};
use crate::{bfs_root, oltp_sized_config, rich_lpg, spec_for};

/// `(P, scale)` of the paper figures' weak sweep: P = 1…8, the graph
/// growing with the machine from 2^10 vertices at P = 1.
fn weak_points() -> Vec<(usize, u32)> {
    let scale = |p| WEAK.spec(p, LpgConfig::default()).scale;
    WEAK.ranks.iter().map(|&p| (p, scale(p))).collect()
}

/// `("<name> <tag>", value)` for each named number of one sweep point.
fn tagged(tag: &str, named: &[(&str, f64)]) -> Vec<(String, f64)> {
    named
        .iter()
        .map(|(name, v)| (format!("{name} {tag}"), *v))
        .collect()
}

fn recovered_values(r: &Report) -> [(&'static str, f64); 6] {
    let rec = r.recovery.clone().unwrap_or_default();
    [
        ("committed", r.committed_writes as f64),
        ("checks", r.checks as f64),
        ("mismatches", r.mismatches.len() as f64),
        ("replay errors", rec.errors as f64),
        ("restore sim s", rec.max_sim_restore_s),
        ("restart wall s", r.restart_wall_s),
    ]
}

// ---------------------------------------------------------------------
// Durability: recovery, reshard, maintenance, chaos
// ---------------------------------------------------------------------

pub(super) fn recovery_kill_restart(lab: &mut Lab) -> Claim {
    let (points, sessions, ops) = lab.size((vec![(2, 6)], 6, 25), (weak_points(), 16, 60));
    let (mut values, mut pass) = (Vec::new(), true);
    for &(p, scale) in &points {
        let dir = ScratchDir::new(&format!("paper-recovery-p{p}"));
        let mut cfg = Scenario::kill_restart(dir.path());
        cfg.backend = Some(BackendKind::Sim);
        cfg.nranks = p;
        cfg.scale = Some(scale);
        cfg.sessions = sessions;
        cfg.ops = ops;
        cfg.cost = CostModel::default();
        let r = durability::run(&cfg);
        let rec = r.recovery.clone().unwrap_or_default();
        pass &= r.passed() && rec.records > 0 && rec.errors == 0 && r.committed_writes > 0;
        let tag = format!("P={p}");
        values.extend(tagged(&tag, &recovered_values(&r)));
        values.extend(tagged(
            &tag,
            &[
                ("replayed records", rec.records as f64),
                ("stall sim s", r.checkpoint.sim_stall_s),
                ("snapshot bytes", r.checkpoint.bytes as f64),
            ],
        ));
    }
    let pred = "kill after a mid-traffic checkpoint, recover: at every P committed > 0, every committed write reads back (0 mismatches), replayed records > 0 and 0 replay errors";
    let config = format!(
        "(P, scale) {points:?}, {sessions} sessions x {ops} ops before and after the checkpoint"
    );
    claim("recovery.kill_restart", pred, config, values, pass)
}

pub(super) fn reshard_elastic_restore(lab: &mut Lab) -> Claim {
    // scale-out 2 -> 8 and scale-in 8 -> 2, with the same-topology
    // restores at both ends as the baselines
    let (points, sessions, ops) = lab.size(
        (vec![(2, 4, 6)], 6, 25),
        (
            vec![
                (2, 2, 11),
                (2, 4, 11),
                (2, 8, 11),
                (8, 8, 13),
                (8, 4, 13),
                (8, 2, 13),
            ],
            12,
            40,
        ),
    );
    let (mut values, mut pass) = (Vec::new(), true);
    for &(p, q, scale) in &points {
        let dir = ScratchDir::new(&format!("paper-reshard-{p}-to-{q}"));
        let mut cfg = Scenario::kill_restart(dir.path());
        cfg.backend = Some(BackendKind::Sim);
        cfg.nranks = p;
        cfg.scale = Some(scale);
        cfg.sessions = sessions;
        cfg.ops = ops;
        cfg.script = Script::KillRestart {
            restart_ranks: Some(q),
            post_ops: ops,
        };
        cfg.cost = CostModel::default();
        let r = durability::run(&cfg);
        let rec = r.recovery.clone().unwrap_or_default();
        pass &= r.passed()
            && rec.errors == 0
            && r.committed_writes > 0
            && r.post_committed > 0
            && (p == q || rec.resharded_from == Some(p));
        let tag = format!("P={p}->Q={q}");
        values.extend(tagged(&tag, &recovered_values(&r)));
        values.extend(tagged(
            &tag,
            &[
                ("resharded from", rec.resharded_from.unwrap_or(0) as f64),
                ("post committed", r.post_committed as f64),
            ],
        ));
    }
    let pred = "restore a P-rank checkpoint onto Q ranks: at every P->Q committed > 0, 0 mismatches, 0 restore errors, the restored server commits > 0 ops, and P != Q reports resharded_from = P";
    let config =
        format!("(P, Q, scale) {points:?}, {sessions} sessions x {ops} ops before, after and post");
    claim("reshard.elastic_restore", pred, config, values, pass)
}

/// One maintenance point's own gates: zero divergence and a clean
/// verifier, zero replay errors, commits, delta ≪ full, a live-block
/// count bounded across the rounds, and a vacuum that reclaimed.
fn maintenance_point_passes(r: &Report) -> bool {
    let rec = r.recovery.clone().unwrap_or_default();
    let first = r.maint.first().map_or(0, |m| m.live_blocks);
    let vacuumed: u64 = r.maint.iter().map(|m| m.vacuumed_versions).sum();
    r.passed()
        && rec.errors == 0
        && r.committed_writes > 0
        && r.max_delta_bytes() * 2 < r.checkpoint.bytes
        && r.final_live_blocks() <= first + first / 4
        && vacuumed > 0
}

pub(super) fn maintenance_delta_checkpoints(lab: &mut Lab) -> Claim {
    let p = 2;
    // (sessions, ops per round, rounds), the scale axis at fixed churn,
    // and the churn axis at scale 11
    let ((sessions, ops, rounds), scales, churn) = lab.size(
        ((4, 15, 2), vec![8], vec![]),
        ((8, 40, 3), vec![10, 11, 12, 13], vec![20, 40, 80]),
    );
    let churn_scale = 11;
    let run = |scale: u32, ops_per_round: usize| {
        let dir = ScratchDir::new(&format!("paper-maintenance-s{scale}-o{ops_per_round}"));
        let mut cfg = Scenario::churn(dir.path());
        cfg.backend = Some(BackendKind::Sim);
        cfg.nranks = p;
        cfg.scale = Some(scale);
        cfg.sessions = sessions;
        cfg.ops = ops_per_round;
        cfg.script = Script::Churn { rounds };
        cfg.cost = CostModel::default();
        durability::run(&cfg)
    };
    // the churn axis crosses the scale axis at (11, 40): run it once
    let mut points: Vec<(u32, usize)> = scales.iter().map(|&s| (s, ops)).collect();
    for o in &churn {
        if !points.contains(&(churn_scale, *o)) {
            points.push((churn_scale, *o));
        }
    }
    let runs: Vec<_> = points.iter().map(|&(s, o)| run(s, o)).collect();
    let at = |point| &runs[points.iter().position(|&q| q == point).unwrap()];
    let by_scale: Vec<_> = scales.iter().map(|&s| at((s, ops))).collect();
    let by_churn: Vec<_> = churn.iter().map(|&o| at((churn_scale, o))).collect();

    let mut pass = runs.iter().all(maintenance_point_passes);
    if let [first, .., last] = &by_scale[..] {
        // fixed churn: full bytes grow with the database, delta bytes
        // stay flat — durability cost follows churn, not data
        pass &= last.checkpoint.bytes > first.checkpoint.bytes * 2
            && last.max_delta_bytes() < first.max_delta_bytes() * 3;
    }
    if let [lo, .., hi] = &by_churn[..] {
        pass &= hi.max_delta_bytes() > lo.max_delta_bytes();
    }
    let mut values = Vec::new();
    for ((scale, o), r) in points.iter().zip(&runs) {
        let rec = r.recovery.clone().unwrap_or_default();
        let vacuumed: u64 = r.maint.iter().map(|m| m.vacuumed_versions).sum();
        let verify_errors: u64 = r.maint.iter().map(|m| m.verify_errors).sum();
        values.extend(tagged(
            &format!("s={scale} ops={o}"),
            &[
                ("committed", r.committed_writes as f64),
                ("mismatches", r.mismatches.len() as f64),
                ("verify errors", verify_errors as f64),
                ("replay errors", rec.errors as f64),
                ("full bytes", r.checkpoint.bytes as f64),
                ("max delta bytes", r.max_delta_bytes() as f64),
                (
                    "live blocks first",
                    r.maint.first().map_or(0, |m| m.live_blocks) as f64,
                ),
                ("live blocks last", r.final_live_blocks() as f64),
                ("vacuumed versions", vacuumed as f64),
            ],
        ));
    }
    let pred = "churn rounds, each a delta checkpoint and a maintenance pass, then kill and recover: at every point 0 mismatches, 0 verify and replay errors, committed > 0, max delta x 2 < full, live blocks after the last pass <= 1.25 x after the first, vacuumed > 0; across scales full grows > 2x and max delta < 3x; across churn max delta grows";
    let mut config = format!(
        "P={p}, {sessions} sessions, {rounds} rounds; scales {scales:?} at {ops} ops/session/round"
    );
    if !churn.is_empty() {
        config += &format!("; ops {churn:?} at scale {churn_scale}");
    }
    claim("maintenance.delta_checkpoints", pred, config, values, pass)
}

pub(super) fn chaos_full_recovery(lab: &mut Lab) -> Claim {
    // every storage point whose persistent failure must degrade the
    // server: the failing checkpoint is a delta, which writes no
    // snapshot file, so `snap.write` is not on the grid
    let full_grid = [
        faults::MANIFEST_WRITE,
        faults::CURRENT_RENAME,
        faults::REDO_APPEND,
    ]
    .iter()
    .flat_map(|&f| [1, 2, 4].map(|p| (f, p)))
    .collect();
    let smoke_grid = vec![(faults::MANIFEST_WRITE, 2), (faults::REDO_APPEND, 2)];
    let (grid, sessions, ops): (Vec<(&str, usize)>, _, _) =
        lab.size((smoke_grid, 2, 10), (full_grid, 4, 24));
    let (mut values, mut recovered) = (Vec::new(), 0);
    for &(fault, p) in &grid {
        let dir = ScratchDir::new(&format!("paper-chaos-p{p}-{}", fault.replace('.', "-")));
        let mut cfg = Scenario::chaos(dir.path(), fault);
        cfg.backend = Some(BackendKind::Sim);
        cfg.nranks = p;
        cfg.sessions = sessions;
        cfg.ops = ops;
        cfg.cost = CostModel::default();
        let r = durability::run(&cfg);
        let d = r.degradation.clone().unwrap_or_default();
        let ok = r.passed() && d.write_rejects > 0 && d.reads > 0 && d.fault_hits >= 1;
        recovered += ok as usize;
        values.extend(tagged(
            &format!("{fault} P={p}"),
            &[
                ("recovered", ok as u8 as f64),
                ("committed", r.committed_writes as f64),
                ("degraded reads", d.reads as f64),
                ("degraded read aborts", d.read_aborts as f64),
                ("write rejects", d.write_rejects as f64),
                ("write leaks", d.write_leaks as f64),
                ("fault hits", d.fault_hits as f64),
                ("MTTR wall s", r.restart_wall_s),
            ],
        ));
    }
    values.push((
        "recovered fraction".into(),
        recovered as f64 / grid.len() as f64,
    ));
    let pred = "a persistent storage fault under traffic: 100 % of the grid recovers — degraded mode entered and left, 0 degraded read aborts, 0 write leaks, write rejects > 0 and degraded reads > 0, the fault fired, then 0 recovery errors and 0 mismatches";
    let points: Vec<String> = grid.iter().map(|(f, p)| format!("{f} P={p}")).collect();
    let config = format!(
        "faults {}, {sessions} sessions x {ops} ops before and after, {} while degraded",
        points.join(", "),
        ops / 2
    );
    let pass = recovered == grid.len();
    claim("chaos.full_recovery", pred, config, values, pass)
}

// ---------------------------------------------------------------------
// Snapshot-isolation reads through the server
// ---------------------------------------------------------------------

pub(super) fn snapshot_isolation_reads_abort_free(lab: &mut Lab) -> Claim {
    let p = 4;
    let (scale, session_counts, budget) =
        lab.size((8, vec![48], 1_200), (10, vec![256, 1024], 24_000));
    let spec = spec_for(scale, 42, LpgConfig::default());
    let (mut values, mut pass) = (Vec::new(), true);
    for &sessions in &session_counts {
        let ops_per_session = (budget / sessions).max(2);
        let total_ops = sessions * ops_per_session;
        let mut cfg = oltp_sized_config(&spec, p, total_ops);
        // session inserts land in disjoint id spaces, and version-chain
        // archives need room beyond the per-rank OLTP sizing
        cfg.dht_heap_per_rank += (total_ops * 2).next_power_of_two();
        cfg.blocks_per_rank += (total_ops * 2).next_power_of_two();
        let (db, fabric) =
            gda::GdaDb::with_fabric_on("si", cfg, p, CostModel::default(), BackendKind::Sim);
        let traffic = TrafficConfig {
            sessions,
            ops_per_session,
            mix: Mix::READ_MOSTLY,
            seed: spec.seed,
            workers: sessions.clamp(1, 16),
        };
        // session-affine routing: an op lands on the rank its session
        // connected to, so reads pay real remote costs
        let opts = ServerOptions {
            route: RoutePolicy::SessionAffine,
            ..ServerOptions::default()
        };
        let run = load_and_serve(&db, &fabric, opts, &spec, &traffic);
        let fab = run.metrics.fabric_total();
        let lat = run.metrics.latency();
        let committed = run.traffic.committed();
        let serve_ns = run
            .summaries
            .iter()
            .map(|s| s.sim_serve_ns)
            .fold(0.0, f64::max);
        let read_ns: f64 = run.summaries.iter().map(|s| s.sim_read_ns).sum();
        let read_ops: u64 = run.summaries.iter().map(|s| s.read_ops).sum();
        let per_read = |n: fn(&ServeSummary) -> u64| {
            run.summaries.iter().map(n).sum::<u64>() as f64 / read_ops.max(1) as f64
        };
        pass &= run.traffic.read_aborted() == 0 && fab.snapshot_pins > 0 && fab.snapshot_reads > 0;
        values.extend(tagged(
            &format!("S={sessions}"),
            &[
                ("committed", committed as f64),
                ("read committed", run.traffic.read_committed() as f64),
                ("read aborted", run.traffic.read_aborted() as f64),
                ("snapshot pins", fab.snapshot_pins as f64),
                ("snapshot reads", fab.snapshot_reads as f64),
                ("version archives", fab.version_archives as f64),
                ("sim us/op", serve_ns / committed.max(1) as f64 / 1e3),
                ("sim us/read", read_ns / read_ops.max(1) as f64 / 1e3),
                ("remote gets/read", per_read(|s| s.read_gets)),
                ("remote atomics/read", per_read(|s| s.read_atomics)),
                ("client p50 wall us", lat.percentile_ns(50.0) / 1e3),
                ("client p99 wall us", lat.percentile_ns(99.0) / 1e3),
            ],
        ));
    }
    let pred = "Read Mostly sessions through GdiServer: at every session count 0 read ops abort, with snapshot pins > 0 and snapshot reads > 0";
    let config = format!(
        "P={p}, scale {scale}, seed 42, sessions {session_counts:?}, {budget} ops per point, session-affine routing"
    );
    claim(
        "snapshot_isolation.reads_abort_free",
        pred,
        config,
        values,
        pass,
    )
}

// ---------------------------------------------------------------------
// The scan layer: zero-transaction view builds against the tx oracle
// ---------------------------------------------------------------------

/// Simulated seconds per phase (max over ranks) and the oracle's count
/// of divergences (summed) of one scan-layer point.
#[derive(Debug, Clone, Copy, Default)]
struct ScanPoint {
    tx_build_s: f64,
    ix_build_s: f64,
    scan_build_s: f64,
    pr_tx_s: f64,
    pr_scan_s: f64,
    pr_reuse_s: f64,
    nm_seq_s: f64,
    nm_batch_s: f64,
    divergence: u64,
    scan_reuses: u64,
}

fn scan_point(p: usize, scale: u32) -> ScanPoint {
    let spec = spec_for(scale, 42, LpgConfig::default());
    let cfg = sized_config(&spec, p);
    let (db, fabric) =
        gda::GdaDb::with_fabric_on("scan", cfg, p, CostModel::default(), BackendKind::Sim);
    let per_rank = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_into(&eng, &spec);
        let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
        let mut out = ScanPoint::default();
        let timed = |f: &mut dyn FnMut()| {
            ctx.barrier();
            let t0 = ctx.now_ns();
            f();
            ctx.barrier();
            (ctx.now_ns() - t0) / 1e9
        };
        let mut tx_view = None;
        out.tx_build_s = timed(&mut || tx_view = Some(build_view(&eng, &apps)));
        let tx_view = tx_view.unwrap();
        let ix = meta.all_index.expect("generator installs __all index");
        let mut ix_view = None;
        out.ix_build_s = timed(&mut || ix_view = Some(build_view_indexed(&eng, ix)));
        let ix_view = ix_view.unwrap();
        let mut sc_view = None;
        out.scan_build_s = timed(&mut || sc_view = Some(scan_view(&eng)));
        let sc_view = sc_view.unwrap();
        out.divergence += !sc_view.logical_eq(&tx_view) as u64;
        out.divergence += !sc_view.logical_eq(&ix_view) as u64;

        // end-to-end PageRank: cold tx build, first mirror build, reuse
        let mut pr_tx = Vec::new();
        out.pr_tx_s = timed(&mut || pr_tx = pagerank(&eng, &build_view(&eng, &apps), 10, 0.85));
        let srv = db.attach(ctx);
        let mut pr = Vec::new();
        out.pr_scan_s = timed(&mut || pr = pagerank(&srv, &srv.olap_view(), 10, 0.85));
        out.divergence += (pr != pr_tx) as u64;
        out.pr_reuse_s = timed(&mut || pr = pagerank(&srv, &srv.olap_view(), 10, 0.85));
        out.divergence += (pr != pr_tx) as u64;
        let mirror = srv.olap_view();
        let root = bfs_root(&spec);
        out.divergence += (wcc_converged(&eng, &tx_view) != wcc_converged(&srv, &mirror)) as u64;
        out.divergence += (bfs(&eng, &tx_view, root) != bfs(&srv, &mirror, root)) as u64;

        // neighbors_matching on the 16 highest-degree local vertices:
        // one blocking fetch per distinct candidate vs the pipelined batch
        let mut by_degree: Vec<usize> = (0..sc_view.len()).collect();
        by_degree.sort_by_key(|&i| std::cmp::Reverse(sc_view.any(i).len()));
        let probes: Vec<gda::DPtr> = by_degree
            .into_iter()
            .take(16)
            .filter(|&i| !sc_view.any(i).is_empty())
            .map(|i| sc_view.vids[i])
            .collect();
        out.nm_seq_s = timed(&mut || {
            for &v in &probes {
                let tx = eng.begin(AccessMode::ReadOnly);
                let mut seen = std::collections::HashSet::from([v]);
                for nbr in tx.neighbors(v, EdgeOrientation::Any, None).unwrap() {
                    if seen.insert(nbr) {
                        tx.associate_vertex(nbr).unwrap();
                    }
                }
                tx.commit().unwrap();
            }
        });
        let all = Constraint::any();
        out.nm_batch_s = timed(&mut || {
            for &v in &probes {
                let tx = eng.begin(AccessMode::ReadOnly);
                tx.neighbors_matching(v, EdgeOrientation::Any, None, &all)
                    .unwrap();
                tx.commit().unwrap();
            }
        });
        out.scan_reuses = ctx.stats_snapshot().scan_reuses;
        out
    });
    per_rank
        .into_iter()
        .fold(ScanPoint::default(), |a, o| ScanPoint {
            tx_build_s: a.tx_build_s.max(o.tx_build_s),
            ix_build_s: a.ix_build_s.max(o.ix_build_s),
            scan_build_s: a.scan_build_s.max(o.scan_build_s),
            pr_tx_s: a.pr_tx_s.max(o.pr_tx_s),
            pr_scan_s: a.pr_scan_s.max(o.pr_scan_s),
            pr_reuse_s: a.pr_reuse_s.max(o.pr_reuse_s),
            nm_seq_s: a.nm_seq_s.max(o.nm_seq_s),
            nm_batch_s: a.nm_batch_s.max(o.nm_batch_s),
            divergence: a.divergence + o.divergence,
            scan_reuses: a.scan_reuses + o.scan_reuses,
        })
}

pub(super) fn scan_layer_view_build_speedup(lab: &mut Lab) -> Claim {
    let (points, floor) = lab.size((vec![(2, 8)], 1.5), (weak_points(), 3.0));
    let (mut values, mut pass) = (Vec::new(), true);
    let mut last = ScanPoint::default();
    for &(p, scale) in &points {
        let r = scan_point(p, scale);
        pass &= r.divergence == 0
            && r.scan_reuses > 0
            && r.nm_batch_s <= r.nm_seq_s * 1.001
            && r.pr_reuse_s < r.pr_scan_s;
        values.extend(tagged(
            &format!("P={p}"),
            &[
                ("divergence", r.divergence as f64),
                ("scan reuses", r.scan_reuses as f64),
                ("tx build s", r.tx_build_s),
                ("indexed tx build s", r.ix_build_s),
                ("scan build s", r.scan_build_s),
                ("build speedup", r.tx_build_s / r.scan_build_s),
                ("PageRank tx s", r.pr_tx_s),
                ("PageRank scan s", r.pr_scan_s),
                ("PageRank reuse s", r.pr_reuse_s),
                ("PageRank speedup", r.pr_tx_s / r.pr_scan_s),
                ("nm blocking s", r.nm_seq_s),
                ("nm batched s", r.nm_batch_s),
            ],
        ));
        last = r;
    }
    pass &= last.tx_build_s / last.scan_build_s >= floor;
    if !lab.smoke {
        pass &= last.pr_tx_s / last.pr_scan_s >= 1.5;
    }
    let pred = "at every P the scan view equals the tx and indexed views and PageRank, WCC and BFS agree on both (0 divergences), the mirror is reused, batched neighbors_matching <= 1.001 x blocking, PageRank on the cached mirror < its first build; at the largest P tx / scan view build >= 3x (smoke: 1.5x) and end-to-end PageRank tx / scan >= 1.5x (full size)";
    let config = format!("GDA, (P, scale) {points:?}, seed 42");
    claim("scan_layer.view_build_speedup", pred, config, values, pass)
}

// ---------------------------------------------------------------------
// The query planner against every forced access path
// ---------------------------------------------------------------------

/// One suite query at one point: the planner's pick, the best and the
/// worst forced path (simulated seconds), the pick's driving path, the
/// oracle's divergences and, per forced path, `(rows, expanded)` of the
/// expand stages summed over ranks.
#[derive(Debug, Clone, Default)]
struct QueryPoint {
    name: &'static str,
    picked: String,
    picked_s: f64,
    best_s: f64,
    worst_s: f64,
    divergence: u64,
    expand_work: Vec<Vec<(u64, u64)>>,
}

/// Smallest vertex id whose any-direction degree is positive and at
/// most four times the edge factor: the point query probes an ordinary
/// entity, not an R-MAT hub (the planner only knows average degrees).
fn typical_vertex(spec: &GraphSpec) -> u64 {
    let mut degree = vec![0u32; spec.n_vertices() as usize];
    for (u, v) in spec.edges_for_rank(0, 1) {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let cap = 4 * spec.edge_factor;
    degree
        .iter()
        .position(|&d| d > 0 && d <= cap)
        .expect("some vertex has typical degree") as u64
}

fn query_point(p: usize, scale: u32) -> Vec<QueryPoint> {
    let spec = spec_for(scale, 7, rich_lpg());
    let params = SuiteParams {
        point_id: typical_vertex(&spec),
        ..SuiteParams::default()
    };
    let cfg = sized_config(&spec, p);
    let (db, fabric) =
        gda::GdaDb::with_fabric_on("planner", cfg, p, CostModel::default(), BackendKind::Sim);
    let per_rank = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_with_label_indexes(&eng, &spec);
        // serving steady state: the OLAP mirror is resident, so the
        // planner costs CSR staging as an epoch revalidation
        let _ = eng.olap_view();
        let cat = planner::Catalog::gather(&eng);
        let mut out = Vec::new();
        for (name, q) in suite(&meta, &params) {
            let want = reference_eval(&spec, &meta, &q);
            let pick = planner::plan(&cat, &q);
            // an untimed warm-up: every measured run sees warm caches
            let _ = executor::execute(&eng, &q, &pick);
            let mut qp = QueryPoint {
                name,
                picked: pick.choice.to_string(),
                best_s: f64::INFINITY,
                ..QueryPoint::default()
            };
            for choice in planner::viable_choices(&cat, &q) {
                let Some(plan) = planner::plan_choice(&cat, &q, choice) else {
                    continue;
                };
                ctx.barrier();
                let t0 = ctx.now_ns();
                let got = executor::execute(&eng, &q, &plan);
                ctx.barrier();
                let s = (ctx.now_ns() - t0) / 1e9;
                qp.divergence += (got.value != want) as u64;
                if choice == pick.choice {
                    qp.picked_s = s;
                }
                qp.best_s = qp.best_s.min(s);
                qp.worst_s = qp.worst_s.max(s);
                let stages = &got.stages[1..got.stages.len() - 1];
                qp.expand_work
                    .push(stages.iter().map(|st| (st.rows, st.expanded)).collect());
            }
            out.push(qp);
        }
        out
    });
    // times are barrier-bracketed, so equal on every rank; counts sum
    let mut points = per_rank[0].clone();
    for rank in &per_rank[1..] {
        for (a, b) in points.iter_mut().zip(rank) {
            a.divergence += b.divergence;
            for (sa, sb) in a
                .expand_work
                .iter_mut()
                .flatten()
                .zip(b.expand_work.iter().flatten())
            {
                *sa = (sa.0 + sb.0, sa.1 + sb.1);
            }
        }
    }
    points
}

pub(super) fn query_planner_near_optimal(lab: &mut Lab) -> Claim {
    let points = lab.size(vec![(2, 8)], weak_points());
    let (mut values, mut pass) = (Vec::new(), true);
    let mut picks = Vec::new();
    for &(p, scale) in &points {
        let spec = spec_for(scale, 7, rich_lpg());
        let (edges, vertices) = (spec.n_edges(), spec.n_vertices());
        let queries = query_point(p, scale);
        let tag = format!("P={p}");
        let mut two_hop = (0.0f64, 0.0f64);
        for q in &queries {
            // a pick never measured is one that was not a viable path
            pass &= q.divergence == 0 && q.picked_s > 0.0 && q.picked_s <= q.worst_s * 1.10;
            if q.name == "two-hop" {
                // counts, not times: an expand stage that inspects more
                // entries than |E| or keeps more rows than |V| is
                // enumerating (root, cur) pairs
                for &(rows, expanded) in q.expand_work.iter().flatten() {
                    pass &= expanded <= edges && rows <= vertices;
                    two_hop.0 = two_hop.0.max(expanded as f64 / edges as f64);
                    two_hop.1 = two_hop.1.max(rows as f64 / vertices as f64);
                }
            }
            values.extend(tagged(
                &format!("{} {tag}", q.name),
                &[
                    ("divergence", q.divergence as f64),
                    ("pick s", q.picked_s),
                    ("pick/best", q.picked_s / q.best_s),
                    ("pick/worst", q.picked_s / q.worst_s),
                ],
            ));
        }
        values.extend(tagged(
            &tag,
            &[
                ("two-hop expanded/|E|", two_hop.0),
                ("two-hop rows/|V|", two_hop.1),
            ],
        ));
        picks = queries;
    }
    if !lab.smoke {
        // at the largest machine: near-optimal on every query, and all
        // three driving paths exercised
        pass &= picks.iter().all(|q| q.picked_s <= q.best_s * 1.10);
        let drives = |f: fn(&str) -> bool| picks.iter().any(|q| f(&q.picked));
        let paths = [
            drives(|p| p.starts_with("index-scan")),
            drives(|p| p.starts_with("point-lookup")),
            drives(|p| p.starts_with("sweep") || p.ends_with("csr")),
        ];
        pass &= paths.iter().all(|&d| d);
        let distinct = paths.iter().filter(|&&d| d).count();
        values.push(("driving paths picked".into(), distinct as f64));
    }
    let pred = "five suite queries, planner pick and every forced path: 0 divergences from the sequential oracle, the pick is a viable path, <= 1.10 x the worst forced path, two-hop expand stages inspect <= |E| entries and keep <= |V| rows; at the largest P (full size) the pick is <= 1.10 x the best forced path on every query and the picks drive through an index scan, a point lookup and a CsrView";
    let config = format!("GDA, rich LPG with label indexes, (P, scale) {points:?}, seed 7");
    claim("query_planner.near_optimal", pred, config, values, pass)
}
