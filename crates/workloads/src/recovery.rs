//! Kill-and-restart traffic scenario: the crash/restart axis.
//!
//! Drives tracked, deterministic session traffic against a
//! persistence-enabled server, triggers a **collective checkpoint
//! mid-traffic**, keeps committing (those commits live only in the redo
//! tails), then *kills* the process image — drops the server, fabric and
//! database — and boots a fresh one from disk with
//! [`server::GdiServer::recover`]. Verification asserts
//! **read-your-committed-writes across the restart**: every op the old
//! server acknowledged as committed must read back identically from the
//! recovered one (property values, deletions, edge counts, and a sample
//! of the bulk-loaded base graph), and nothing uncommitted may appear.
//!
//! Used by `gda/tests` + `tests/` for correctness and by the
//! `recovery.kill_restart` and `reshard.elastic_restore` claims of
//! `gdi_bench::paper` for the checkpoint-stall / replay-time numbers.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gda::persist::{CheckpointReport, PersistOptions};
use gda::GdaDb;
use gdi::{AppVertexId, GdiError, PropertyValue};
use graphgen::{load_into, sized_config, GraphSpec, LpgMeta};
use rma::CostModel;
use server::{GdiServer, Op, OpOutcome, OpReply, RecoverySummary, ServerOptions};

/// Shape of one kill-and-restart run.
#[derive(Debug, Clone)]
pub struct RecoveryScenario {
    /// Fabric ranks.
    pub nranks: usize,
    /// Kronecker scale of the bulk-loaded base graph.
    pub scale: u32,
    /// Concurrent tracked client sessions.
    pub sessions: usize,
    /// Tracked ops per session *before* the mid-traffic checkpoint.
    pub ops_before: usize,
    /// Tracked ops per session *after* it (these live only in the redo
    /// tails at kill time).
    pub ops_after: usize,
    /// RNG seed.
    pub seed: u64,
    /// Persistence directory.
    pub dir: PathBuf,
    /// Server tuning for both the original and the recovered server.
    pub server: ServerOptions,
    /// Fabric cost model.
    pub cost: CostModel,
    /// Base-graph vertices sampled for cross-restart read comparison.
    pub base_sample: usize,
    /// Rank count of the **recovered** server: `None` restarts at the
    /// original topology; `Some(Q)` rebuilds the snapshot and redo logs
    /// onto `Q` ranks during recovery (elastic restart when `Q ≠
    /// nranks`).
    pub restart_ranks: Option<usize>,
    /// Tracked ops per session driven against the *recovered* server
    /// after verification (post-restart throughput measurement; 0 =
    /// skip).
    pub post_ops: usize,
    /// Fabric execution backend for both the original and the recovered
    /// server: `None` follows the process default (`GDI_FABRIC_BACKEND`,
    /// else simulated), `Some(_)` pins one.
    pub backend: Option<rma::BackendKind>,
}

impl RecoveryScenario {
    /// A small default shape writing under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            nranks: 2,
            scale: 7,
            sessions: 8,
            ops_before: 30,
            ops_after: 30,
            seed: 0xFEED,
            dir: dir.into(),
            server: ServerOptions::default(),
            cost: CostModel::default(),
            base_sample: 16,
            restart_ranks: None,
            post_ops: 0,
            backend: None,
        }
    }
}

/// Outcome of a kill-and-restart run.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Tracked writes the old server acknowledged as committed.
    pub committed_writes: u64,
    /// Tracked ops acknowledged as aborted (no effect expected).
    pub aborted_writes: u64,
    /// Commit-uncertain outcomes (excluded from verification).
    pub indeterminate: u64,
    /// Individual read-back checks performed post-recovery.
    pub checks: u64,
    /// Checks that failed (empty vector = scenario passed).
    pub mismatches: Vec<String>,
    /// The mid-traffic checkpoint's report.
    pub checkpoint: CheckpointReport,
    /// What recovery replayed (from the recovered server's metrics).
    pub recovery: Option<RecoverySummary>,
    /// Wall-clock seconds of the serving phase (traffic + checkpoint).
    pub serve_wall_s: f64,
    /// Wall-clock seconds from `recover()` to a serving, verified
    /// database (includes replay — or the full redistribution on an
    /// elastic restart).
    pub restart_wall_s: f64,
    /// Tracked ops committed against the recovered server after
    /// verification (0 when `post_ops` is 0).
    pub post_committed: u64,
    /// Wall-clock seconds of that post-restart traffic phase.
    pub post_wall_s: f64,
}

impl RecoveryReport {
    /// Did every committed write read back identically?
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// What one session expects a tracked vertex to look like.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// Present with this (last committed) property value.
    Present(u64),
    /// Committed as deleted.
    Deleted,
}

/// Per-session ground truth accumulated from acknowledged outcomes.
#[derive(Debug, Default)]
struct Tracker {
    /// Tracked vertex → expected state (vertices with an indeterminate
    /// outcome are removed and land in `tainted`).
    expect: HashMap<u64, Expect>,
    /// Committed tracked edges (`a → b`), both endpoints tracked.
    edges: Vec<(u64, u64)>,
    /// Vertices excluded from verification (commit-uncertain).
    tainted: Vec<u64>,
    committed: u64,
    aborted: u64,
    indeterminate: u64,
}

impl Tracker {
    fn live(&self) -> Vec<u64> {
        self.expect
            .iter()
            .filter_map(|(v, e)| matches!(e, Expect::Present(_)).then_some(*v))
            .collect()
    }

    /// Expected `CountEdges` (any orientation) of a tracked vertex:
    /// tracked edges only — tracked ids are disjoint from the base
    /// graph and from other sessions.
    fn edge_count(&self, v: u64) -> usize {
        self.edges
            .iter()
            .filter(|(a, b)| *a == v || *b == v)
            .count()
    }

    fn apply(&mut self, op: &Op, outcome: &OpOutcome) {
        match outcome {
            OpOutcome::Committed(_) => {
                self.committed += 1;
                match op {
                    Op::AddVertex { v, prop, .. } => {
                        let val = match prop {
                            Some((_, PropertyValue::U64(x))) => *x,
                            _ => 0,
                        };
                        self.expect.insert(v.0, Expect::Present(val));
                    }
                    Op::UpdateVertexProp {
                        v,
                        value: PropertyValue::U64(x),
                        ..
                    } => {
                        self.expect.insert(v.0, Expect::Present(*x));
                    }
                    Op::DeleteVertex { v } => {
                        self.expect.insert(v.0, Expect::Deleted);
                        self.edges.retain(|(a, b)| *a != v.0 && *b != v.0);
                    }
                    Op::AddEdge { from, to, .. } => {
                        self.edges.push((from.0, to.0));
                    }
                    _ => {}
                }
            }
            // shed before execution: provably no effects, same as abort
            OpOutcome::Aborted(_) | OpOutcome::DeadlineExceeded => self.aborted += 1,
            OpOutcome::Indeterminate(_) => {
                self.indeterminate += 1;
                // commit-uncertain: drop every touched vertex from
                // verification, honestly
                for v in op_vertices(op) {
                    self.expect.remove(&v);
                    self.edges.retain(|(a, b)| *a != v && *b != v);
                    self.tainted.push(v);
                }
            }
        }
    }
}

fn op_vertices(op: &Op) -> Vec<u64> {
    match op {
        Op::GetVertexProps { v, .. }
        | Op::CountEdges { v }
        | Op::GetEdges { v }
        | Op::AddVertex { v, .. }
        | Op::DeleteVertex { v }
        | Op::UpdateVertexProp { v, .. } => vec![v.0],
        Op::AddEdge { from, to, .. } => vec![from.0, to.0],
    }
}

/// Generate and execute one tracked op for a session.
fn step(
    session: &server::Session,
    tracker: &mut Tracker,
    rng: &mut SmallRng,
    meta: &LpgMeta,
    next_new: &mut u64,
    update_counter: &mut u64,
) {
    let p0 = meta.ptype(0);
    let live = tracker.live();
    let op = match rng.gen_range(0..100) {
        // create dominates so the tracked population grows
        0..=49 => {
            *next_new += 1;
            Op::AddVertex {
                v: AppVertexId(*next_new),
                label: Some(meta.label(0)),
                prop: Some((p0, PropertyValue::U64(*next_new))),
            }
        }
        50..=69 if !live.is_empty() => {
            *update_counter += 1;
            Op::UpdateVertexProp {
                v: AppVertexId(live[rng.gen_range(0..live.len())]),
                ptype: p0,
                value: PropertyValue::U64(1_000_000_000 + *update_counter),
            }
        }
        70..=84 if live.len() >= 2 => {
            let a = live[rng.gen_range(0..live.len())];
            let mut b = live[rng.gen_range(0..live.len())];
            if a == b {
                b = live[(live.iter().position(|x| *x == a).unwrap() + 1) % live.len()];
            }
            if a == b {
                return; // only one live vertex; skip this step
            }
            Op::AddEdge {
                from: AppVertexId(a),
                to: AppVertexId(b),
                label: None,
            }
        }
        85..=94 if !live.is_empty() => Op::DeleteVertex {
            v: AppVertexId(live[rng.gen_range(0..live.len())]),
        },
        _ => {
            *next_new += 1;
            Op::AddVertex {
                v: AppVertexId(*next_new),
                label: None,
                prop: Some((p0, PropertyValue::U64(*next_new))),
            }
        }
    };
    // a shed submission (pause/shutdown) has no effect to track
    if let Ok(outcome) = session.execute(op.clone()) {
        tracker.apply(&op, &outcome);
    }
}

/// Drive one traffic phase: every session executes `ops` tracked ops
/// (closed loop), multiplexed over a small worker pool.
fn drive_phase(
    srv: &GdiServer,
    meta: &LpgMeta,
    trackers: &mut [Tracker],
    rngs: &mut [SmallRng],
    next_new: &mut [u64],
    update_counters: &mut [u64],
    ops: usize,
) {
    std::thread::scope(|scope| {
        let meta = &*meta;
        let work = trackers
            .iter_mut()
            .zip(rngs.iter_mut())
            .zip(next_new.iter_mut().zip(update_counters.iter_mut()));
        for ((tracker, rng), (next, upd)) in work {
            let srv = srv.clone();
            scope.spawn(move || {
                let session = srv.session();
                for _ in 0..ops {
                    step(&session, tracker, rng, meta, next, upd);
                }
            });
        }
    });
}

/// Run the full kill-and-restart scenario. Panics only on harness-level
/// failures (e.g. the mid-traffic checkpoint itself erroring); data
/// mismatches are reported, not panicked, so benches can sweep.
pub fn run_kill_restart(cfg: &RecoveryScenario) -> RecoveryReport {
    let spec = GraphSpec {
        scale: cfg.scale,
        edge_factor: 8,
        seed: cfg.seed,
        lpg: graphgen::LpgConfig::default(),
    };
    let n_base = spec.n_vertices();
    // headroom for the tracked inserts on top of the base graph
    let mut gcfg = sized_config(&spec, cfg.nranks);
    let extra = (cfg.sessions * (cfg.ops_before + cfg.ops_after)).next_power_of_two();
    gcfg.blocks_per_rank += extra * 2;
    gcfg.dht_heap_per_rank += extra * 2;

    let span = (cfg.ops_before + cfg.ops_after) as u64 + 1;
    let mut trackers: Vec<Tracker> = (0..cfg.sessions).map(|_| Tracker::default()).collect();
    let mut rngs: Vec<SmallRng> = (0..cfg.sessions)
        .map(|s| SmallRng::seed_from_u64(cfg.seed ^ (s as u64).wrapping_mul(0x9E37_79B9)))
        .collect();
    let mut next_new: Vec<u64> = (0..cfg.sessions)
        .map(|s| n_base + 1 + s as u64 * span)
        .collect();
    let mut update_counters: Vec<u64> = vec![0; cfg.sessions];

    // ---- phase 1: load, serve, checkpoint mid-traffic, kill ----------
    let serve_t0 = std::time::Instant::now();
    let (meta, checkpoint, base_counts) = {
        let db: Arc<GdaDb> = GdaDb::new("recovery", gcfg, cfg.nranks);
        db.enable_persistence(PersistOptions::new(&cfg.dir))
            .expect("fresh persistence dir");
        let fabric = match cfg.backend {
            Some(b) => gcfg.build_fabric_on(cfg.nranks, cfg.cost, b),
            None => gcfg.build_fabric(cfg.nranks, cfg.cost),
        };
        let metas = fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let (meta, _) = load_into(&eng, &spec);
            meta
        });
        let meta = metas.into_iter().next().expect("at least one rank");

        let srv = GdiServer::new(db.clone(), cfg.server.clone());
        let mut checkpoint = None;
        let mut base_counts: Vec<(u64, usize)> = Vec::new();
        std::thread::scope(|scope| {
            let s = &srv;
            let ranks = scope.spawn(move || fabric.run(|ctx| s.serve_rank(ctx)));
            drive_phase(
                &srv,
                &meta,
                &mut trackers,
                &mut rngs,
                &mut next_new,
                &mut update_counters,
                cfg.ops_before,
            );
            // the mid-traffic collective checkpoint; stop serving before
            // panicking on failure — thread::scope joins the ranks
            // thread, which loops until shutdown, so a bare expect here
            // would hang the scenario instead of failing it
            let ck = srv.checkpoint();
            if ck.is_err() {
                srv.shutdown();
            }
            checkpoint = Some(ck.expect("mid-traffic checkpoint"));
            drive_phase(
                &srv,
                &meta,
                &mut trackers,
                &mut rngs,
                &mut next_new,
                &mut update_counters,
                cfg.ops_after,
            );
            // record a base-graph read sample to compare across restart
            let session = srv.session();
            for i in 0..cfg.base_sample as u64 {
                let v = (i * 37) % n_base;
                if let Ok(OpOutcome::Committed(OpReply::Count(c))) =
                    session.execute(Op::CountEdges { v: AppVertexId(v) })
                {
                    base_counts.push((v, c));
                }
            }
            srv.shutdown();
            ranks.join().expect("serving fabric panicked");
        });
        (meta, checkpoint.unwrap(), base_counts)
        // db, fabric, server all dropped here: the crash
    };
    let serve_wall_s = serve_t0.elapsed().as_secs_f64();

    // ---- phase 2: recover from disk (same topology or elastic) and
    // verify ------------------------------------------------------------
    let restart_t0 = std::time::Instant::now();
    let mut ropts = PersistOptions::new(&cfg.dir);
    ropts.backend = cfg.backend;
    let (srv, fabric) =
        GdiServer::recover_with_ranks(ropts, cfg.cost, cfg.server.clone(), cfg.restart_ranks)
            .expect("recover from persistence dir");
    let mut mismatches: Vec<String> = Vec::new();
    let mut checks = 0u64;
    let mut recovery = None;
    let mut post_committed = 0u64;
    let mut post_wall_s = 0.0f64;
    let mut restart_wall_s = 0.0f64;
    // what the *old* server acknowledged (post-restart traffic below
    // must not count into the cross-restart verification totals)
    let committed_old: u64 = trackers.iter().map(|t| t.committed).sum();
    let aborted_old: u64 = trackers.iter().map(|t| t.aborted).sum();
    let indeterminate_old: u64 = trackers.iter().map(|t| t.indeterminate).sum();
    std::thread::scope(|scope| {
        let s = &srv;
        let ranks = scope.spawn(move || fabric.run(|ctx| s.serve_rank(ctx)));
        let session = srv.session();
        let mut check = |op: Op, want: Result<OpReply, ()>, what: String| {
            checks += 1;
            match (session.execute(op), &want) {
                (Ok(OpOutcome::Committed(got)), Ok(exp)) if got == *exp => {}
                (Ok(OpOutcome::Aborted(GdiError::NotFound(_))), Err(())) => {}
                (got, _) => mismatches.push(format!("{what}: got {got:?}, want {want:?}")),
            }
        };
        for tracker in &trackers {
            for (&v, expect) in &tracker.expect {
                match expect {
                    Expect::Present(val) => {
                        check(
                            Op::GetVertexProps {
                                v: AppVertexId(v),
                                ptype: Some(meta.ptype(0)),
                            },
                            Ok(OpReply::Props(vec![PropertyValue::U64(*val)])),
                            format!("prop of committed vertex {v}"),
                        );
                        check(
                            Op::CountEdges { v: AppVertexId(v) },
                            Ok(OpReply::Count(tracker.edge_count(v))),
                            format!("edge count of committed vertex {v}"),
                        );
                    }
                    Expect::Deleted => check(
                        Op::GetVertexProps {
                            v: AppVertexId(v),
                            ptype: None,
                        },
                        Err(()),
                        format!("committed delete of vertex {v}"),
                    ),
                }
            }
        }
        for (v, count) in &base_counts {
            check(
                Op::CountEdges { v: AppVertexId(*v) },
                Ok(OpReply::Count(*count)),
                format!("base-graph edge count of vertex {v}"),
            );
        }
        recovery = srv.metrics().recovery;
        // the restore metric ends at "serving + verified": the optional
        // post-restart traffic phase must not inflate it
        restart_wall_s = restart_t0.elapsed().as_secs_f64();
        // post-restart traffic: the recovered (possibly resharded)
        // server keeps serving tracked sessions — throughput sample
        if cfg.post_ops > 0 {
            let before: u64 = trackers.iter().map(|t| t.committed).sum();
            let post_t0 = std::time::Instant::now();
            drive_phase(
                &srv,
                &meta,
                &mut trackers,
                &mut rngs,
                &mut next_new,
                &mut update_counters,
                cfg.post_ops,
            );
            post_wall_s = post_t0.elapsed().as_secs_f64();
            post_committed = trackers.iter().map(|t| t.committed).sum::<u64>() - before;
        }
        srv.shutdown();
        ranks.join().expect("recovered fabric panicked");
    });

    RecoveryReport {
        committed_writes: committed_old,
        aborted_writes: aborted_old,
        indeterminate: indeterminate_old,
        checks,
        mismatches,
        checkpoint,
        recovery,
        serve_wall_s,
        restart_wall_s,
        post_committed,
        post_wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_restart_round_trip() {
        let dir = crate::scratch::ScratchDir::new("wl-recovery");
        let mut cfg = RecoveryScenario::new(dir.path());
        cfg.scale = 6;
        cfg.sessions = 4;
        cfg.ops_before = 20;
        cfg.ops_after = 20;
        cfg.cost = CostModel::zero();
        let report = run_kill_restart(&cfg);
        assert!(report.committed_writes > 0, "{report:?}");
        assert!(report.checks > 0);
        assert_eq!(report.indeterminate, 0, "healthy run should be certain");
        assert!(
            report.passed(),
            "read-your-committed-writes violated:\n{}",
            report.mismatches.join("\n")
        );
        let rec = report.recovery.expect("recovery metrics present");
        assert_eq!(rec.errors, 0);
        assert!(rec.records > 0, "redo tail replayed: {rec:?}");
        assert_eq!(report.checkpoint.id, 1);
    }
}
