//! Sustained update-heavy churn with incremental checkpoints and
//! background maintenance: the churn-proportional durability scenario.
//!
//! A persistence-enabled server takes one **full** checkpoint over the
//! bulk-loaded base graph, then serves `rounds` of tracked update-heavy
//! session traffic; after each round it publishes a **delta**
//! checkpoint (a manifest; each rank's redo log becomes its segment) and
//! runs a collective maintenance pass (MVCC vacuum, free-list vacuum,
//! chain compaction, checksum verification of the chain). The run ends
//! with a kill and a recovery from the full image plus every segment and
//! live log, verified with read-your-committed-writes. Per round the
//! scenario samples the bytes a delta made durable — its manifest and
//! the redo bytes logged since the previous checkpoint — and its stall
//! (the churn-proportional gate: flat in database size, linear in
//! churn), and the live-block count (the vacuum's bounded-garbage gate).
//!
//! Used by the `maintenance.delta_checkpoints` claim of
//! `gdi_bench::paper` for the cost curves and by the workload's own test
//! for correctness.

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

/// Shape of one churn-and-maintain run.
#[derive(Debug, Clone)]
pub struct MaintenanceScenario {
    /// Fabric ranks.
    pub nranks: usize,
    /// Kronecker scale of the bulk-loaded base graph (the database-size
    /// axis: churn below is independent of it).
    pub scale: u32,
    /// Concurrent tracked client sessions.
    pub sessions: usize,
    /// Tracked vertices each session owns (the hot set its updates
    /// hammer).
    pub tracked_per_session: usize,
    /// Churn rounds (each: traffic → delta checkpoint → maintenance).
    pub rounds: usize,
    /// Tracked ops per session per round (the churn axis).
    pub ops_per_round: usize,
    /// RNG seed.
    pub seed: u64,
    /// Persistence directory.
    pub dir: PathBuf,
    /// Server tuning.
    pub server: ServerOptions,
    /// Fabric cost model.
    pub cost: CostModel,
    /// Fabric execution backend (`None` = process default).
    pub backend: Option<rma::BackendKind>,
}

impl MaintenanceScenario {
    /// A small default shape writing under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            nranks: 2,
            scale: 7,
            sessions: 4,
            tracked_per_session: 12,
            rounds: 3,
            ops_per_round: 40,
            seed: 0xC0DE,
            dir: dir.into(),
            server: ServerOptions::default(),
            cost: CostModel::default(),
            backend: None,
        }
    }
}

/// One checkpoint, as sampled by the scenario.
#[derive(Debug, Clone, Default)]
pub struct CheckpointSample {
    /// Published checkpoint id.
    pub id: u64,
    /// Full snapshot (`true`) or delta (`false`).
    pub full: bool,
    /// Bytes the checkpoint made durable, summed over ranks: a full its
    /// files; a delta its manifest and the redo bytes it sealed — what
    /// the fabric's `log_bytes` counter grew by since the previous
    /// checkpoint.
    pub bytes: u64,
    /// Simulated seconds commits were stalled (max over ranks).
    pub sim_stall_s: f64,
}

impl CheckpointSample {
    /// Sample `ck`, a checkpoint taken after `logged` redo bytes.
    fn of(ck: &CheckpointReport, logged: u64) -> Self {
        let written: u64 = ck.per_rank_bytes.iter().sum();
        Self {
            id: ck.id,
            full: ck.full,
            bytes: if ck.full { written } else { written + logged },
            sim_stall_s: ck.sim_stall_s,
        }
    }
}

/// Redo bytes the serving ranks have appended so far (the fabric's
/// `log_bytes` counter, summed; 0 if the collective job did not run).
fn logged_bytes(srv: &GdiServer) -> u64 {
    let job = srv.submit_olap(|eng| {
        let ctx = eng.ctx();
        ctx.allreduce_sum_u64(ctx.stats_snapshot().log_bytes) as f64
    });
    match job.map(|ticket| ticket.wait()) {
        Ok(OpOutcome::Committed(OpReply::Scalar(bytes))) => bytes as u64,
        _ => 0,
    }
}

/// One maintenance pass, as sampled by the scenario.
#[derive(Debug, Clone, Default)]
pub struct MaintSample {
    /// Archived versions the vacuum freed.
    pub vacuumed_versions: u64,
    /// Blocks the vacuum returned to the free lists.
    pub vacuumed_blocks: u64,
    /// Continuation blocks compaction moved.
    pub compacted_blocks: u64,
    /// Snapshot-chain bytes checksum-verified.
    pub verified_bytes: u64,
    /// Verifier failures (must stay 0).
    pub verify_errors: u64,
    /// Allocated blocks across all ranks *after* the pass — the
    /// bounded-garbage gate watches this stay flat across rounds.
    pub live_blocks: u64,
}

/// Outcome of one churn-and-maintain run.
#[derive(Debug, Clone)]
pub struct MaintenanceRunReport {
    /// The initial full checkpoint (grows with database size).
    pub full: CheckpointSample,
    /// One delta checkpoint per churn round (should track churn, not
    /// database size).
    pub deltas: Vec<CheckpointSample>,
    /// One maintenance pass per churn round.
    pub maint: Vec<MaintSample>,
    /// Block-pool capacity across all ranks (denominator for
    /// `live_blocks`).
    pub total_blocks: u64,
    /// Tracked writes the old server acknowledged as committed.
    pub committed_writes: u64,
    /// Read-back checks performed after recovery.
    pub checks: u64,
    /// Checks that failed (empty = zero divergence).
    pub mismatches: Vec<String>,
    /// What recovery replayed.
    pub recovery: Option<RecoverySummary>,
    /// Wall-clock seconds of the serving phase.
    pub serve_wall_s: f64,
    /// Wall-clock seconds from `recover()` to serving + verified.
    pub restart_wall_s: f64,
}

impl MaintenanceRunReport {
    /// Zero divergence and a clean verifier?
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.maint.iter().all(|m| m.verify_errors == 0)
    }

    /// Bytes of the largest delta checkpoint (the churn-cost headline).
    pub fn max_delta_bytes(&self) -> u64 {
        self.deltas.iter().map(|d| d.bytes).max().unwrap_or(0)
    }

    /// Live blocks after the last maintenance pass.
    pub fn final_live_blocks(&self) -> u64 {
        self.maint.last().map(|m| m.live_blocks).unwrap_or(0)
    }
}

/// What a session's tracked vertex must look like after recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Present(u64),
    Deleted,
}

/// One session's round of update-heavy churn against its own tracked
/// set: ~80% property overwrites (each archiving an MVCC pre-image —
/// the garbage the vacuum must bound), ~10% delete, ~10% insert, so the
/// population stays roughly constant while the DHT and block pool
/// churn.
fn drive_session_round(
    session: &server::Session,
    expect: &mut HashMap<u64, Expect>,
    rng: &mut SmallRng,
    meta: &LpgMeta,
    next_new: &mut u64,
    stamp: &mut u64,
    ops: usize,
) -> u64 {
    let p0 = meta.ptype(0);
    let mut committed = 0u64;
    for _ in 0..ops {
        let live: Vec<u64> = expect
            .iter()
            .filter_map(|(v, e)| matches!(e, Expect::Present(_)).then_some(*v))
            .collect();
        *stamp += 1;
        let op = match rng.gen_range(0..100) {
            0..=79 if !live.is_empty() => Op::UpdateVertexProp {
                v: AppVertexId(live[rng.gen_range(0..live.len())]),
                ptype: p0,
                value: PropertyValue::U64(1_000_000 + *stamp),
            },
            80..=89 if !live.is_empty() => Op::DeleteVertex {
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
        match session.execute(op.clone()) {
            Ok(OpOutcome::Committed(_)) => {
                committed += 1;
                match &op {
                    Op::UpdateVertexProp {
                        v,
                        value: PropertyValue::U64(x),
                        ..
                    } => {
                        expect.insert(v.0, Expect::Present(*x));
                    }
                    Op::DeleteVertex { v } => {
                        expect.insert(v.0, Expect::Deleted);
                    }
                    Op::AddVertex { v, .. } => {
                        expect.insert(v.0, Expect::Present(v.0));
                    }
                    _ => {}
                }
            }
            // aborted or shed: no state change to track; indeterminate
            // does not occur in this closed-loop healthy-run scenario,
            // but drop the vertex from verification if it ever does
            Ok(OpOutcome::Indeterminate(_)) => {
                if let Op::UpdateVertexProp { v, .. }
                | Op::DeleteVertex { v }
                | Op::AddVertex { v, .. } = &op
                {
                    expect.remove(&v.0);
                }
            }
            _ => {}
        }
    }
    committed
}

/// Run the full churn-and-maintain scenario: full checkpoint → rounds
/// of (traffic, delta checkpoint, maintenance) → kill → recover →
/// verify.
pub fn run_maintenance_churn(cfg: &MaintenanceScenario) -> MaintenanceRunReport {
    let spec = GraphSpec {
        scale: cfg.scale,
        edge_factor: 8,
        seed: cfg.seed,
        lpg: graphgen::LpgConfig::default(),
    };
    let n_base = spec.n_vertices();
    let mut gcfg = sized_config(&spec, cfg.nranks);
    // headroom: tracked sets, their bounded archive chains, and the
    // insert/delete churn
    let extra = (cfg.sessions * cfg.tracked_per_session * 8).next_power_of_two();
    gcfg.blocks_per_rank += extra * 2;
    gcfg.dht_heap_per_rank += extra * 2;
    let total_blocks = (gcfg.blocks_per_rank * cfg.nranks) as u64;

    let span = (cfg.tracked_per_session + cfg.rounds * cfg.ops_per_round) as u64 + 1;
    let mut expects: Vec<HashMap<u64, Expect>> =
        (0..cfg.sessions).map(|_| HashMap::new()).collect();
    let mut rngs: Vec<SmallRng> = (0..cfg.sessions)
        .map(|s| SmallRng::seed_from_u64(cfg.seed ^ (s as u64).wrapping_mul(0x9E37_79B9)))
        .collect();
    let mut next_new: Vec<u64> = (0..cfg.sessions)
        .map(|s| n_base + 1 + s as u64 * span)
        .collect();
    let mut stamps: Vec<u64> = (0..cfg.sessions).map(|s| (s as u64) << 32).collect();
    let mut committed_writes = 0u64;

    // ---- phase 1: load, full checkpoint, churn rounds, kill ----------
    let serve_t0 = std::time::Instant::now();
    let mut full = CheckpointSample::default();
    let mut deltas: Vec<CheckpointSample> = Vec::new();
    let mut maint: Vec<MaintSample> = Vec::new();
    let meta = {
        let db: Arc<GdaDb> = GdaDb::new("maintenance", gcfg, cfg.nranks);
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
        std::thread::scope(|scope| {
            let s = &srv;
            let ranks = scope.spawn(move || fabric.run(|ctx| s.serve_rank(ctx)));
            // seed each session's tracked set
            std::thread::scope(|inner| {
                for (s_idx, expect) in expects.iter_mut().enumerate() {
                    let srv = srv.clone();
                    let meta = &meta;
                    let base = n_base + 1 + s_idx as u64 * span;
                    let tracked = cfg.tracked_per_session;
                    inner.spawn(move || {
                        let session = srv.session();
                        for k in 0..tracked as u64 {
                            let id = base + k;
                            if let Ok(OpOutcome::Committed(_)) = session.execute(Op::AddVertex {
                                v: AppVertexId(id),
                                label: None,
                                prop: Some((meta.ptype(0), PropertyValue::U64(id))),
                            }) {
                                expect.insert(id, Expect::Present(id));
                            }
                        }
                    });
                }
            });
            for e in &expects {
                committed_writes += e.len() as u64;
            }
            for n in &mut next_new {
                *n += cfg.tracked_per_session as u64;
            }
            // the full base: grows with database size
            let mut logged = logged_bytes(&srv);
            let ck = srv.checkpoint();
            if ck.is_err() {
                srv.shutdown();
            }
            let ck = ck.expect("initial full checkpoint");
            assert!(ck.full, "first checkpoint must be a full snapshot");
            full = CheckpointSample::of(&ck, 0);
            // churn rounds: traffic → delta checkpoint → maintenance
            for _round in 0..cfg.rounds {
                std::thread::scope(|inner| {
                    let meta = &meta;
                    let work = expects
                        .iter_mut()
                        .zip(rngs.iter_mut())
                        .zip(next_new.iter_mut().zip(stamps.iter_mut()));
                    for ((expect, rng), (next, stamp)) in work {
                        let srv = srv.clone();
                        let ops = cfg.ops_per_round;
                        inner.spawn(move || {
                            let session = srv.session();
                            drive_session_round(&session, expect, rng, meta, next, stamp, ops)
                        });
                    }
                });
                let before = logged;
                logged = logged_bytes(&srv);
                let ck = srv.checkpoint();
                if ck.is_err() {
                    srv.shutdown();
                }
                let ck = ck.expect("round checkpoint");
                deltas.push(CheckpointSample::of(&ck, logged - before));
                let m = srv.maintenance();
                if m.is_err() {
                    srv.shutdown();
                }
                let m = m.expect("round maintenance");
                maint.push(MaintSample {
                    vacuumed_versions: m.vacuumed_versions,
                    vacuumed_blocks: m.vacuumed_blocks,
                    compacted_blocks: m.compacted_blocks,
                    verified_bytes: m.verified_bytes,
                    verify_errors: m.verify_errors,
                    live_blocks: total_blocks.saturating_sub(m.free_blocks),
                });
            }
            srv.shutdown();
            ranks.join().expect("serving fabric panicked");
        });
        committed_writes = committed_writes.max(srv.metrics().committed());
        meta
        // db, fabric, server dropped here: the crash (the last round's
        // post-checkpoint commits live only in the redo tails)
    };
    let serve_wall_s = serve_t0.elapsed().as_secs_f64();

    // ---- phase 2: recover and verify zero divergence -----------------
    let restart_t0 = std::time::Instant::now();
    let mut ropts = PersistOptions::new(&cfg.dir);
    ropts.backend = cfg.backend;
    let (srv, fabric) = GdiServer::recover(ropts, cfg.cost, cfg.server.clone())
        .expect("recover from persistence dir");
    let mut mismatches: Vec<String> = Vec::new();
    let mut checks = 0u64;
    let mut recovery = None;
    std::thread::scope(|scope| {
        let s = &srv;
        let ranks = scope.spawn(move || fabric.run(|ctx| s.serve_rank(ctx)));
        let session = srv.session();
        for expect in &expects {
            for (&v, e) in expect {
                checks += 1;
                let got = session.execute(Op::GetVertexProps {
                    v: AppVertexId(v),
                    ptype: Some(meta.ptype(0)),
                });
                match (got, e) {
                    (Ok(OpOutcome::Committed(OpReply::Props(p))), Expect::Present(want))
                        if p == vec![PropertyValue::U64(*want)] => {}
                    (Ok(OpOutcome::Aborted(GdiError::NotFound(_))), Expect::Deleted) => {}
                    (got, want) => {
                        mismatches.push(format!("vertex {v}: got {got:?}, want {want:?}"))
                    }
                }
            }
        }
        recovery = srv.metrics().recovery;
        srv.shutdown();
        ranks.join().expect("recovered fabric panicked");
    });
    let restart_wall_s = restart_t0.elapsed().as_secs_f64();

    MaintenanceRunReport {
        full,
        deltas,
        maint,
        total_blocks,
        committed_writes,
        checks,
        mismatches,
        recovery,
        serve_wall_s,
        restart_wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_rounds_round_trip_with_bounded_garbage() {
        let dir = crate::scratch::ScratchDir::new("wl-maintenance");
        let mut cfg = MaintenanceScenario::new(dir.path());
        // delta bytes scale with churn (the redo frames it seals), full
        // bytes with graph size: keep the churn small relative to the
        // scale-7 graph so the ≪ gate is meaningful
        cfg.scale = 7;
        cfg.sessions = 2;
        cfg.tracked_per_session = 8;
        cfg.rounds = 3;
        cfg.ops_per_round = 12;
        cfg.cost = CostModel::zero();
        let report = run_maintenance_churn(&cfg);
        assert!(report.committed_writes > 0, "{report:?}");
        assert!(report.checks > 0);
        assert!(
            report.passed(),
            "divergence or verifier errors:\n{}",
            report.mismatches.join("\n")
        );
        // the first checkpoint is the full base; the rounds publish
        // deltas whose bytes are a small fraction of it
        assert!(report.full.full);
        assert_eq!(report.deltas.len(), 3);
        assert!(
            report.deltas.iter().any(|d| !d.full),
            "churn rounds never published a delta: {:?}",
            report.deltas
        );
        let max_delta = report.max_delta_bytes();
        assert!(
            max_delta * 2 < report.full.bytes,
            "delta bytes {} not ≪ full bytes {}",
            max_delta,
            report.full.bytes
        );
        // update-heavy churn with a per-round vacuum keeps the live
        // block count bounded (no monotone garbage growth)
        let first = report.maint.first().unwrap().live_blocks;
        let last = report.final_live_blocks();
        assert!(
            last <= first + first / 4,
            "live blocks grew unbounded: {first} -> {last}"
        );
        assert!(
            report
                .maint
                .iter()
                .map(|m| m.vacuumed_versions)
                .sum::<u64>()
                > 0,
            "the vacuum never reclaimed anything: {:?}",
            report.maint
        );
        let rec = report.recovery.expect("recovery metrics present");
        assert_eq!(rec.errors, 0);
    }
}
