//! Chaos scenario: live traffic through an injected storage fault,
//! graceful degradation, repair, and crash recovery — the MTTR axis.
//!
//! One run drives tracked session traffic against a persistence-enabled
//! server, then arms a **persistent fault** on the shared fault plane
//! ([`gda::faults`]) at a configurable storage point. The server must
//! degrade to read-only mode (entered either by the failing collective
//! checkpoint or by the serve loop observing redo-append errors):
//! during degradation every read of previously committed data must keep
//! serving without a single abort, while writes are rejected with the
//! typed [`server::SubmitError::ReadOnly`] — unexecuted, so they must
//! be *absent* after recovery. Disarming the fault and taking one
//! successful checkpoint exits degradation; a post-repair write phase
//! re-fills the redo tails; then the process image is killed and a
//! fresh server recovers from disk. The report carries the full
//! degradation ledger plus **MTTR**: wall-clock seconds from
//! [`server::GdiServer::recover`] to a serving database with every
//! committed write verified present and every rejected write verified
//! absent.
//!
//! Used by `tests/` for correctness and by the `chaos.full_recovery`
//! claim of `gdi_bench::paper` for the recovery-success-rate / MTTR grid
//! across fault points and rank counts.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use gda::faults::{self, FaultMode, PERSISTENT};
use gda::persist::PersistOptions;
use gda::{GdaConfig, GdaDb};
use gdi::AppVertexId;
use rma::CostModel;
use server::{GdiServer, Op, OpOutcome, OpReply, ServerOptions, SubmitError};

/// Shape of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Fabric ranks.
    pub nranks: usize,
    /// Concurrent tracked client sessions.
    pub sessions: usize,
    /// Committed writes per session before the fault is armed.
    pub ops_before: usize,
    /// Write *attempts* per session while degraded (all must be
    /// rejected read-only).
    pub ops_during: usize,
    /// Committed writes per session after repair (these live in the
    /// redo tails at kill time).
    pub ops_after: usize,
    /// Persistence directory.
    pub dir: PathBuf,
    /// Server tuning for both the original and the recovered server.
    pub server: ServerOptions,
    /// Fabric cost model.
    pub cost: CostModel,
    /// Fault point to arm (a [`gda::faults`] name). `redo.append`
    /// degrades via the serve loop's store-health observer; the
    /// checkpoint-path points degrade via the failing collective
    /// checkpoint, a delta — so a point every checkpoint passes
    /// (`snap.write` is a full image's only).
    pub fault_point: &'static str,
    /// Fabric execution backend: `None` follows the process default
    /// (`GDI_FABRIC_BACKEND`, else simulated), `Some(_)` pins one.
    pub backend: Option<rma::BackendKind>,
}

impl ChaosScenario {
    /// A small default shape writing under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            nranks: 2,
            sessions: 4,
            ops_before: 16,
            ops_during: 8,
            ops_after: 16,
            dir: dir.into(),
            server: ServerOptions::default(),
            cost: CostModel::default(),
            fault_point: faults::MANIFEST_WRITE,
            backend: None,
        }
    }
}

/// Outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Did the armed fault flip the server into degraded mode?
    pub degraded_entered: bool,
    /// Did the post-repair checkpoint exit degraded mode?
    pub degraded_exited: bool,
    /// Reads served while degraded.
    pub degraded_reads: u64,
    /// Reads that aborted while degraded (the contract: **zero**).
    pub degraded_read_aborts: u64,
    /// Writes rejected with the typed read-only error while degraded.
    pub write_rejects: u64,
    /// Degraded-phase write attempts that were *not* rejected.
    pub write_leaks: u64,
    /// Tracked writes acknowledged as committed (before + after).
    pub committed_writes: u64,
    /// Individual read-back checks performed post-recovery.
    pub checks: u64,
    /// Checks that failed (empty = run passed).
    pub mismatches: Vec<String>,
    /// Redo records replayed with zero errors during recovery.
    pub recovery_errors: u64,
    /// Fault-plane probes that actually fired.
    pub fault_hits: u64,
    /// Wall-clock seconds of the serving phase (traffic + fault +
    /// repair).
    pub serve_wall_s: f64,
    /// Mean time to recovery: seconds from `recover()` to a serving,
    /// fully verified database.
    pub mttr_s: f64,
}

impl ChaosReport {
    /// Full pass: degradation entered and exited, zero read aborts,
    /// zero write leaks, zero recovery errors, zero mismatches.
    pub fn passed(&self) -> bool {
        self.degraded_entered
            && self.degraded_exited
            && self.degraded_read_aborts == 0
            && self.write_leaks == 0
            && self.recovery_errors == 0
            && self.mismatches.is_empty()
    }
}

fn add(v: u64) -> Op {
    Op::AddVertex {
        v: AppVertexId(v),
        label: None,
        prop: None,
    }
}

/// Commit `n` writes for one session: fresh vertices from its disjoint
/// id range, chained with an edge every fourth op. Returns the
/// committed `(id, expected_edge_count)` ledger.
fn commit_phase(
    session: &server::Session,
    next: &mut u64,
    committed: &mut Vec<(u64, usize)>,
    n: usize,
) {
    for i in 0..n {
        let v = *next;
        *next += 1;
        if matches!(session.execute(add(v)), Ok(OpOutcome::Committed(_))) {
            committed.push((v, 0));
        }
        // chain an edge back to the previous committed vertex
        if i % 4 == 3 && committed.len() >= 2 {
            let (a, _) = committed[committed.len() - 2];
            let (b, _) = committed[committed.len() - 1];
            let e = Op::AddEdge {
                from: AppVertexId(a),
                to: AppVertexId(b),
                label: None,
            };
            if matches!(session.execute(e), Ok(OpOutcome::Committed(_))) {
                let len = committed.len();
                committed[len - 2].1 += 1;
                committed[len - 1].1 += 1;
            }
        }
    }
}

/// The recovered ≡ live oracle after a published checkpoint
/// ([`gda::persist::audit_image`], run as a collective job): `None`
/// when what a recovery would rebuild from the published chain is the
/// live state, object for object, else what differs.
fn audit_image(srv: &GdiServer) -> Option<String> {
    let slot: Arc<Mutex<Option<String>>> = Arc::default();
    let sink = slot.clone();
    let ticket = srv.submit_olap(move |eng| {
        if let Err(e) = gda::persist::audit_image(eng) {
            *sink.lock().unwrap_or_else(|p| p.into_inner()) = Some(e.to_string());
        }
        0.0
    });
    match ticket {
        Ok(t) if t.wait().is_committed() => slot.lock().unwrap_or_else(|p| p.into_inner()).take(),
        _ => Some("image audit job did not run".into()),
    }
}

/// Run the full chaos scenario: serve → fault → degrade → repair →
/// kill → recover → verify. Contract violations land in the report
/// (not panics), so benches can sweep the fault grid.
pub fn run_chaos(cfg: &ChaosScenario) -> ChaosReport {
    // headroom for every tracked insert (sessions write disjoint ranges)
    let span = (cfg.ops_before + cfg.ops_during + cfg.ops_after + 2) as u64;
    let mut gcfg = GdaConfig::tiny();
    let extra = (cfg.sessions as u64 * span).next_power_of_two() as usize;
    gcfg.blocks_per_rank += extra * 2;
    gcfg.dht_heap_per_rank += extra * 2;

    let mut next: Vec<u64> = (0..cfg.sessions).map(|s| 1 + s as u64 * span).collect();
    let mut committed: Vec<Vec<(u64, usize)>> = vec![Vec::new(); cfg.sessions];
    let mut rejected: Vec<u64> = Vec::new();

    let mut degraded_entered = false;
    let mut degraded_exited = false;
    let mut degraded_reads = 0u64;
    let mut degraded_read_aborts = 0u64;
    let mut write_rejects = 0u64;
    let mut write_leaks = 0u64;
    let mut fault_hits = 0u64;
    let mut mismatches: Vec<String> = Vec::new();

    // ---- phase 1: serve, fault, degrade, repair, kill ----------------
    let serve_t0 = std::time::Instant::now();
    {
        let db: Arc<GdaDb> = GdaDb::new("chaos", gcfg, cfg.nranks);
        let store = db
            .enable_persistence(PersistOptions::new(&cfg.dir))
            .expect("fresh persistence dir");
        let fabric = match cfg.backend {
            Some(b) => gcfg.build_fabric_on(cfg.nranks, cfg.cost, b),
            None => gcfg.build_fabric(cfg.nranks, cfg.cost),
        };
        fabric.run(|ctx| {
            db.attach(ctx).init_collective();
        });
        let srv = GdiServer::new(db.clone(), cfg.server.clone());
        std::thread::scope(|scope| {
            let s = &srv;
            let ranks = scope.spawn(move || fabric.run(|ctx| s.serve_rank(ctx)));

            // healthy traffic + anchoring checkpoint
            std::thread::scope(|ts| {
                for (next, committed) in next.iter_mut().zip(committed.iter_mut()) {
                    let srv = srv.clone();
                    ts.spawn(move || {
                        let session = srv.session();
                        commit_phase(&session, next, committed, cfg.ops_before);
                    });
                }
            });
            if srv.checkpoint().is_err() {
                srv.shutdown();
                ranks.join().expect("serving fabric panicked");
                panic!("healthy anchoring checkpoint failed");
            }
            mismatches.extend(audit_image(&srv).map(|e| format!("anchoring checkpoint: {e}")));

            // arm the persistent fault and force degradation
            let plane = store.fault_plane();
            plane.arm_at(cfg.fault_point, None, 0, PERSISTENT, FaultMode::Error);
            if cfg.fault_point == faults::REDO_APPEND {
                // appends fail silently under the commit; the serve
                // loop's health observer must notice the error counter
                let session = srv.session();
                let v = next[0];
                next[0] += 1;
                if matches!(session.execute(add(v)), Ok(OpOutcome::Committed(_))) {
                    // in memory it committed; the exit checkpoint below
                    // re-anchors it, so it stays verifiable
                    committed[0].push((v, 0));
                }
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while !srv.degraded() && std::time::Instant::now() < deadline {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            } else {
                // the collective checkpoint votes abort on the injected
                // error and the server degrades on the spot
                let _ = srv.checkpoint();
            }
            degraded_entered = srv.degraded();

            // degraded phase: reads must keep serving abort-free,
            // writes must bounce with the typed error
            if degraded_entered {
                let session = srv.session();
                for ledger in &committed {
                    for &(v, edges) in ledger {
                        degraded_reads += 1;
                        match session.execute(Op::CountEdges { v: AppVertexId(v) }) {
                            Ok(OpOutcome::Committed(OpReply::Count(c))) if c == edges => {}
                            _ => degraded_read_aborts += 1,
                        }
                    }
                }
                for next in next.iter_mut() {
                    for _ in 0..cfg.ops_during {
                        let v = *next;
                        *next += 1;
                        match session.execute(add(v)) {
                            Err(SubmitError::ReadOnly) => {
                                write_rejects += 1;
                                rejected.push(v);
                            }
                            _ => write_leaks += 1,
                        }
                    }
                }
            }

            // repair: disarm, checkpoint out of degradation, resume
            plane.disarm_all();
            fault_hits = plane.fired();
            if srv.checkpoint().is_err() {
                srv.shutdown();
                ranks.join().expect("serving fabric panicked");
                panic!("post-repair checkpoint failed");
            }
            mismatches.extend(audit_image(&srv).map(|e| format!("post-repair checkpoint: {e}")));
            degraded_exited = !srv.degraded();
            std::thread::scope(|ts| {
                for (next, committed) in next.iter_mut().zip(committed.iter_mut()) {
                    let srv = srv.clone();
                    ts.spawn(move || {
                        let session = srv.session();
                        commit_phase(&session, next, committed, cfg.ops_after);
                    });
                }
            });

            srv.shutdown();
            ranks.join().expect("serving fabric panicked");
        });
        // db, fabric, server all dropped here: the crash
    }
    let serve_wall_s = serve_t0.elapsed().as_secs_f64();

    // ---- phase 2: recover and verify (MTTR clock) --------------------
    let mttr_t0 = std::time::Instant::now();
    let mut ropts = PersistOptions::new(&cfg.dir);
    ropts.backend = cfg.backend;
    let (srv, fabric) = GdiServer::recover_with_ranks(ropts, cfg.cost, cfg.server.clone(), None)
        .expect("recover from persistence dir");
    let mut checks = 0u64;
    let mut recovery_errors = 0u64;
    std::thread::scope(|scope| {
        let s = &srv;
        let ranks = scope.spawn(move || fabric.run(|ctx| s.serve_rank(ctx)));
        let session = srv.session();
        for ledger in &committed {
            for &(v, edges) in ledger {
                checks += 1;
                match session.execute(Op::CountEdges { v: AppVertexId(v) }) {
                    Ok(OpOutcome::Committed(OpReply::Count(c))) if c == edges => {}
                    got => mismatches.push(format!(
                        "committed vertex {v}: got {got:?}, want {edges} edges"
                    )),
                }
            }
        }
        for &v in &rejected {
            checks += 1;
            match session.execute(Op::CountEdges { v: AppVertexId(v) }) {
                Ok(OpOutcome::Aborted(gdi::GdiError::NotFound(_))) => {}
                got => mismatches.push(format!("rejected write {v} leaked through: {got:?}")),
            }
        }
        recovery_errors = srv.metrics().recovery.map(|r| r.errors).unwrap_or(u64::MAX);
        srv.shutdown();
        ranks.join().expect("recovered fabric panicked");
    });
    let mttr_s = mttr_t0.elapsed().as_secs_f64();

    ChaosReport {
        degraded_entered,
        degraded_exited,
        degraded_reads,
        degraded_read_aborts,
        write_rejects,
        write_leaks,
        committed_writes: committed.iter().map(|l| l.len() as u64).sum(),
        checks,
        mismatches,
        recovery_errors,
        fault_hits,
        serve_wall_s,
        mttr_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_round_trip_checkpoint_fault() {
        let dir = crate::scratch::ScratchDir::new("wl-chaos");
        let mut cfg = ChaosScenario::new(dir.path());
        cfg.cost = CostModel::zero();
        let report = run_chaos(&cfg);
        assert!(report.committed_writes > 0, "{report:?}");
        assert!(report.write_rejects > 0, "{report:?}");
        assert!(report.degraded_reads > 0, "{report:?}");
        assert!(report.fault_hits >= 1, "{report:?}");
        assert!(
            report.passed(),
            "chaos contract violated:\n{}\n{report:?}",
            report.mismatches.join("\n")
        );
    }

    #[test]
    fn chaos_round_trip_redo_append_fault() {
        let dir = crate::scratch::ScratchDir::new("wl-chaos-redo");
        let mut cfg = ChaosScenario::new(dir.path());
        cfg.cost = CostModel::zero();
        cfg.fault_point = faults::REDO_APPEND;
        let report = run_chaos(&cfg);
        assert!(report.write_rejects > 0, "{report:?}");
        assert!(report.degraded_reads > 0, "{report:?}");
        assert!(report.fault_hits >= 1, "{report:?}");
        assert!(
            report.passed(),
            "chaos contract violated:\n{}\n{report:?}",
            report.mismatches.join("\n")
        );
    }
}
