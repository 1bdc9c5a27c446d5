//! The durability harness: one serve → crash → recover → verify
//! skeleton for every crash-and-restart scenario, and one per-session
//! ledger of acknowledged outcomes the recovered server must
//! reproduce.
//!
//! A run boots a persistence-enabled database (bulk-loading a Kronecker
//! base graph unless [`Scenario::scale`] is `None`) and serves it while
//! its [`Script`] drives tracked session traffic and the durability
//! events the script is about. Then it *kills* the process image —
//! drops the server, fabric and database — and boots a fresh server
//! from disk with [`GdiServer::recover_with_ranks`]. Verification reads
//! every ledger entry back: committed property values and edge counts
//! must be there, committed deletes and writes the server rejected must
//! not, and a sample of the base graph must be unchanged. An
//! indeterminate (commit-uncertain) outcome takes the vertices it could
//! have changed out of verification.
//!
//! After every recovery, successful checkpoint and maintenance pass the
//! harness runs the engine's image audit ([`gda::persist::audit_image`]:
//! what a recovery would rebuild from the published chain is the live
//! state, byte for byte) and its block-pool audit
//! ([`gda::GdaRank::audit_pool`]); after a failed checkpoint, the pool
//! audit alone. A difference, or a leaked or doubly counted block, is a
//! mismatch too.
//!
//! The scripts:
//! * [`Script::KillRestart`] — a collective checkpoint mid-traffic,
//!   more commits (they live only in the redo tails), kill, recover.
//!   With `restart_ranks = Some(Q)` the recovered server boots `Q`
//!   ranks: the elastic restore, which forces the full redistribution
//!   (remapped ownership, rewritten `DPtr`s, re-placed DHT entries and
//!   index partitions), and `post_ops` then measures the new topology.
//! * [`Script::Churn`] — one full checkpoint over the base graph, then
//!   rounds of update-heavy traffic, each closed by a delta checkpoint
//!   and a collective maintenance pass (MVCC vacuum, snapshot
//!   verification). Per round it samples the bytes the delta made
//!   durable, its stall, and the blocks the pool audit after the pass
//!   counts as held.
//! * [`Script::Chaos`] — a persistent storage fault under traffic: the
//!   server degrades to read-only (reads keep serving abort-free,
//!   writes bounce with the typed [`SubmitError::ReadOnly`] and so must
//!   be absent after recovery), the fault is repaired and a checkpoint
//!   exits degradation, and the restart time is the MTTR.
//!
//! Each script keeps its own op generator, seed and RNG draws. Data
//! mismatches land in the [`Report`], never in panics, so the
//! `gdi_bench::paper` rows can sweep; the harness panics only when a
//! step it needs fails (a checkpoint that must succeed), and stops the
//! server first.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gda::faults::{self, FaultMode, PERSISTENT};
use gda::persist::{CheckpointReport, PersistOptions};
use gda::{GdaConfig, GdaDb, GdaRank};
use gdi::{AppVertexId, GdiError, GdiResult, PTypeId, PropertyValue};
use graphgen::{load_into, sized_config, GraphSpec, LpgMeta};
use rma::{BackendKind, CostModel, Fabric};
use server::{
    GdiServer, Op, OpOutcome, OpReply, RecoverySummary, ServerOptions, Session, SubmitError,
};

/// Seed of the kill-restart base graph and session RNGs.
const KILL_RESTART_SEED: u64 = 0xFEED;
/// Seed of the elastic restore (a kill-restart onto `Q` ranks).
const ELASTIC_SEED: u64 = 0xE1A5;
/// Seed of the churn base graph and session RNGs.
const CHURN_SEED: u64 = 0xC0DE;
/// Base-graph vertices whose edge counts are compared across the crash.
const BASE_SAMPLE: u64 = 16;
/// Vertices each churn session inserts up front: the hot set its
/// updates hammer.
const TRACKED_PER_SESSION: usize = 12;

/// Shape of one durability run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Fabric ranks of the serving (pre-crash) server.
    pub nranks: usize,
    /// Kronecker scale of the bulk-loaded base graph; `None` boots an
    /// empty database on [`GdaConfig::tiny`].
    pub scale: Option<u32>,
    /// Concurrent tracked client sessions.
    pub sessions: usize,
    /// Tracked ops per session per traffic phase: before and after the
    /// kill-restart checkpoint, per churn round, before the chaos fault
    /// and after its repair (half as many write attempts while
    /// degraded).
    pub ops: usize,
    /// Persistence directory.
    pub dir: PathBuf,
    /// Fabric cost model of both servers.
    pub cost: CostModel,
    /// Fabric backend of both servers: `None` follows the process
    /// default (`GDI_FABRIC_BACKEND`, else simulated), `Some(_)` pins
    /// one.
    pub backend: Option<BackendKind>,
    /// What the serving phase does.
    pub script: Script,
}

/// The serving phase of a [`Scenario`].
#[derive(Debug, Clone, Copy)]
pub enum Script {
    /// Checkpoint mid-traffic, keep committing, kill, recover onto
    /// `restart_ranks` ranks (`None`: the snapshot's own), then drive
    /// `post_ops` tracked ops per session against the recovered server.
    KillRestart {
        restart_ranks: Option<usize>,
        post_ops: usize,
    },
    /// A full checkpoint, then `rounds` of churn, each closed by a delta
    /// checkpoint and a maintenance pass.
    Churn { rounds: usize },
    /// Arm a persistent fault at `fault_point` (a [`gda::faults`] name)
    /// under traffic. `redo.append` degrades through the serve loop's
    /// store-health observer; the checkpoint-path points through the
    /// failing collective checkpoint, a delta — so a point every
    /// checkpoint passes (`snap.write` is a full image's only).
    Chaos { fault_point: &'static str },
}

impl Script {
    fn seed(self) -> u64 {
        match self {
            Script::KillRestart {
                restart_ranks: None,
                ..
            } => KILL_RESTART_SEED,
            Script::KillRestart { .. } => ELASTIC_SEED,
            Script::Churn { .. } => CHURN_SEED,
            Script::Chaos { .. } => 0,
        }
    }

    /// Ids each session may insert (sessions write disjoint ranges).
    fn span(self, ops: usize) -> u64 {
        let ids = match self {
            Script::KillRestart { .. } => 2 * ops + 1,
            Script::Churn { rounds } => TRACKED_PER_SESSION + rounds * ops + 1,
            Script::Chaos { .. } => 2 * ops + ops / 2 + 2,
        };
        ids as u64
    }

    /// Blocks and DHT entries per rank to add on top of the base graph.
    fn headroom(self, sessions: usize, ops: usize) -> usize {
        let objects = match self {
            Script::KillRestart { .. } => sessions * 2 * ops,
            // the tracked sets and their bounded archive chains
            Script::Churn { .. } => sessions * TRACKED_PER_SESSION * 8,
            Script::Chaos { .. } => sessions * self.span(ops) as usize,
        };
        objects.next_power_of_two() * 2
    }
}

impl Scenario {
    /// Kill and restart at the same topology: P = 2, scale 7, 8
    /// sessions × 30 ops before and after the checkpoint.
    pub fn kill_restart(dir: impl Into<PathBuf>) -> Self {
        Self::with(
            dir,
            Some(7),
            8,
            30,
            Script::KillRestart {
                restart_ranks: None,
                post_ops: 0,
            },
        )
    }

    /// Churn: P = 2, scale 7, 4 sessions, 3 rounds of 40 ops.
    pub fn churn(dir: impl Into<PathBuf>) -> Self {
        Self::with(dir, Some(7), 4, 40, Script::Churn { rounds: 3 })
    }

    /// Chaos at `fault_point` on an empty database: P = 2, 4 sessions ×
    /// 16 ops before the fault and after the repair.
    pub fn chaos(dir: impl Into<PathBuf>, fault_point: &'static str) -> Self {
        Self::with(dir, None, 4, 16, Script::Chaos { fault_point })
    }

    fn with(
        dir: impl Into<PathBuf>,
        scale: Option<u32>,
        sessions: usize,
        ops: usize,
        script: Script,
    ) -> Self {
        Self {
            nranks: 2,
            scale,
            sessions,
            ops,
            dir: dir.into(),
            cost: CostModel::default(),
            backend: None,
            script,
        }
    }
}

/// One checkpoint, as sampled by the harness.
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

/// One maintenance pass, as sampled by the churn script.
#[derive(Debug, Clone, Default)]
pub struct MaintSample {
    /// Archived versions the vacuum freed.
    pub vacuumed_versions: u64,
    /// Verifier failures (must stay 0).
    pub verify_errors: u64,
    /// Allocated blocks across all ranks *after* the pass — live and
    /// retired, as the pool audit counts them (so capacity − free); the
    /// bounded-garbage gate watches this stay flat across rounds.
    pub live_blocks: u64,
}

/// What the chaos script saw while the fault was armed.
#[derive(Debug, Clone, Default)]
pub struct Degradation {
    /// Did the armed fault flip the server into read-only mode?
    pub entered: bool,
    /// Did the post-repair checkpoint leave it?
    pub exited: bool,
    /// Reads of committed data served while degraded.
    pub reads: u64,
    /// Those that aborted or read a wrong count (the contract: zero).
    pub read_aborts: u64,
    /// Writes rejected with the typed read-only error.
    pub write_rejects: u64,
    /// Degraded-phase write attempts that were *not* rejected.
    pub write_leaks: u64,
    /// Fault-plane probes that fired.
    pub fault_hits: u64,
}

impl Degradation {
    /// Entered and left, zero read aborts, zero write leaks.
    fn held(&self) -> bool {
        self.entered && self.exited && self.read_aborts == 0 && self.write_leaks == 0
    }
}

/// Outcome of one durability run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Tracked ops the serving server acknowledged as committed.
    pub committed_writes: u64,
    /// Commit-uncertain outcomes (their vertices left verification).
    pub indeterminate: u64,
    /// Read-back checks performed after recovery.
    pub checks: u64,
    /// Checks that failed, and failed image audits (empty = passed).
    pub mismatches: Vec<String>,
    /// The first checkpoint: kill-restart's mid-traffic one, churn's
    /// full image, chaos's anchor.
    pub checkpoint: CheckpointSample,
    /// Churn's delta checkpoints, one per round.
    pub deltas: Vec<CheckpointSample>,
    /// Churn's maintenance passes, one per round.
    pub maint: Vec<MaintSample>,
    /// Chaos's degradation ledger.
    pub degradation: Option<Degradation>,
    /// What recovery replayed (from the recovered server's metrics).
    pub recovery: Option<RecoverySummary>,
    /// Wall-clock seconds from `recover()` to a serving, verified
    /// database (replay or the full redistribution included) — chaos's
    /// MTTR.
    pub restart_wall_s: f64,
    /// Tracked ops committed against the recovered server after
    /// verification (kill-restart's `post_ops`).
    pub post_committed: u64,
}

impl Report {
    /// Every check read back, recovery replayed without an error, the
    /// verifier stayed clean and the degradation contract held.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
            && self.recovery.as_ref().is_some_and(|r| r.errors == 0)
            && self.maint.iter().all(|m| m.verify_errors == 0)
            && self.degradation.as_ref().is_none_or(Degradation::held)
    }

    /// Bytes of the largest delta checkpoint (the churn-cost headline).
    pub fn max_delta_bytes(&self) -> u64 {
        self.deltas.iter().map(|d| d.bytes).max().unwrap_or(0)
    }

    /// Live blocks after the last maintenance pass.
    pub fn final_live_blocks(&self) -> u64 {
        self.maint.last().map_or(0, |m| m.live_blocks)
    }
}

// ---------------------------------------------------------------------
// The ledger
// ---------------------------------------------------------------------

/// What a tracked vertex must look like after recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// Present, with the last committed value of its one `U64`
    /// property, if it carries one.
    Present(Option<(PTypeId, u64)>),
    /// Committed as deleted, or rejected unexecuted: must not exist.
    Absent,
}

/// One read-back: `op` must commit with `want`, or fail `NotFound` when
/// `want` is `None`.
#[derive(Debug, Clone)]
struct Check {
    op: Op,
    want: Option<OpReply>,
    what: String,
}

impl Check {
    /// Run the check; `Some(why)` if it failed.
    fn run(&self, session: &Session) -> Option<String> {
        match (session.execute(self.op.clone()), &self.want) {
            (Ok(OpOutcome::Committed(got)), Some(want)) if got == *want => None,
            (Ok(OpOutcome::Aborted(GdiError::NotFound(_))), None) => None,
            (got, want) => Some(format!("{}: got {got:?}, want {want:?}", self.what)),
        }
    }
}

/// One session's ground truth, built from acknowledged outcomes only.
/// Tracked ids are disjoint from the base graph and from every other
/// session, so each ledger predicts its vertices' edge counts alone.
#[derive(Debug, Default)]
struct Ledger {
    /// Tracked vertex → expected state; a vertex an indeterminate
    /// outcome may have changed is removed.
    expect: HashMap<u64, Expect>,
    /// Committed edges `a → b` between tracked vertices.
    edges: Vec<(u64, u64)>,
    committed: u64,
    indeterminate: u64,
}

fn u64_prop(ptype: PTypeId, value: &PropertyValue) -> Option<(PTypeId, u64)> {
    match value {
        PropertyValue::U64(x) => Some((ptype, *x)),
        _ => None,
    }
}

impl Ledger {
    /// Record the server's answer to `op`.
    fn apply(&mut self, op: &Op, outcome: &OpOutcome) {
        match outcome {
            OpOutcome::Committed(_) => {
                self.committed += 1;
                match op {
                    Op::AddVertex { v, prop, .. } => {
                        let prop = prop.as_ref().and_then(|(p, x)| u64_prop(*p, x));
                        self.expect.insert(v.0, Expect::Present(prop));
                    }
                    Op::UpdateVertexProp { v, ptype, value } => {
                        self.expect
                            .insert(v.0, Expect::Present(u64_prop(*ptype, value)));
                    }
                    Op::DeleteVertex { v } => {
                        self.expect.insert(v.0, Expect::Absent);
                        self.edges.retain(|&(a, b)| a != v.0 && b != v.0);
                    }
                    Op::AddEdge { from, to, .. } => self.edges.push((from.0, to.0)),
                    Op::GetVertexProps { .. } | Op::CountEdges { .. } | Op::GetEdges { .. } => {}
                }
            }
            // shed before execution: provably no effect, same as abort
            OpOutcome::Aborted(_) | OpOutcome::DeadlineExceeded => {}
            OpOutcome::Indeterminate(_) => {
                self.indeterminate += 1;
                let touched: Vec<u64> = match op {
                    Op::AddEdge { from, to, .. } => vec![from.0, to.0],
                    // a delete that applied took every incident edge
                    // with it: its neighbours' counts are uncertain too
                    Op::DeleteVertex { v } => self
                        .edges
                        .iter()
                        .filter(|&&(a, b)| a == v.0 || b == v.0)
                        .flat_map(|&(a, b)| [a, b])
                        .chain([v.0])
                        .collect(),
                    other => vec![other.routing_vertex().0],
                };
                for v in touched {
                    self.expect.remove(&v);
                }
            }
        }
    }

    /// Record a write the server rejected unexecuted: an insert it
    /// refused must stay absent.
    fn reject(&mut self, op: &Op) {
        if let Op::AddVertex { v, .. } = op {
            self.expect.insert(v.0, Expect::Absent);
        }
    }

    /// Vertices expected present (the op generators' pick set).
    fn live(&self) -> Vec<u64> {
        self.expect
            .iter()
            .filter_map(|(v, e)| matches!(e, Expect::Present(_)).then_some(*v))
            .collect()
    }

    /// Expected `CountEdges` (any orientation) of a tracked vertex.
    fn edge_count(&self, v: u64) -> usize {
        self.edges
            .iter()
            .filter(|&&(a, b)| a == v || b == v)
            .count()
    }

    /// Every read-back this ledger asks of a recovered server.
    fn checks(&self) -> Vec<Check> {
        let mut out = Vec::new();
        for (&v, expect) in &self.expect {
            let id = AppVertexId(v);
            match *expect {
                Expect::Present(prop) => {
                    if let Some((ptype, x)) = prop {
                        out.push(Check {
                            op: Op::GetVertexProps {
                                v: id,
                                ptype: Some(ptype),
                            },
                            want: Some(OpReply::Props(vec![PropertyValue::U64(x)])),
                            what: format!("prop of committed vertex {v}"),
                        });
                    }
                    out.push(Check {
                        op: Op::CountEdges { v: id },
                        want: Some(OpReply::Count(self.edge_count(v))),
                        what: format!("edge count of committed vertex {v}"),
                    });
                }
                Expect::Absent => out.push(Check {
                    op: Op::GetVertexProps { v: id, ptype: None },
                    want: None,
                    what: format!("vertex {v} must be absent"),
                }),
            }
        }
        out
    }
}

/// One tracked session: its ledger and its op generator's state.
struct Client {
    ledger: Ledger,
    rng: SmallRng,
    /// Next id of the session's disjoint insert range.
    next: u64,
    /// Kill-restart's update counter, churn's op stamp.
    counter: u64,
    /// Chaos: committed inserts in order (edges chain the last two).
    added: Vec<u64>,
}

impl Client {
    /// Execute `op` and record the answer; `true` if it committed. A
    /// shed submission (pause, shutdown) has no effect to record.
    fn execute(&mut self, session: &Session, op: Op) -> bool {
        match session.execute(op.clone()) {
            Ok(outcome) => {
                self.ledger.apply(&op, &outcome);
                outcome.is_committed()
            }
            Err(_) => false,
        }
    }
}

// ---------------------------------------------------------------------
// The skeleton
// ---------------------------------------------------------------------

/// Serve `srv` on `fabric` while `body` drives it. The serve loops stop
/// before a panic in `body` propagates, so a failed `expect` fails the
/// run instead of hanging it on ranks that wait for a shutdown.
fn serving<T>(srv: &GdiServer, fabric: Fabric, body: impl FnOnce() -> T) -> T {
    std::thread::scope(|scope| {
        let ranks = scope.spawn(move || fabric.run(|ctx| srv.serve_rank(ctx)));
        let outcome = catch_unwind(AssertUnwindSafe(body));
        srv.shutdown();
        ranks.join().expect("serving fabric panicked");
        outcome.unwrap_or_else(|panic| resume_unwind(panic))
    })
}

/// Every session runs `ops` steps of `step` (closed loop), each on its
/// own thread and server session; `step` gets the step index.
fn drive(
    srv: &GdiServer,
    clients: &mut [Client],
    ops: usize,
    step: impl Fn(&Session, &mut Client, usize) + Sync,
) {
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let step = &step;
            scope.spawn(move || {
                let session = srv.session();
                for i in 0..ops {
                    step(&session, client, i);
                }
            });
        }
    });
}

/// Committed acks over every ledger.
fn committed(clients: &[Client]) -> u64 {
    clients.iter().map(|c| c.ledger.committed).sum()
}

/// Edge counts of a base-graph sample, as read-backs for the recovered
/// server (tracked traffic never touches a base vertex).
fn base_sample(srv: &GdiServer, n_base: u64) -> Vec<Check> {
    let session = srv.session();
    (0..BASE_SAMPLE.min(n_base))
        .map(|i| (i * 37) % n_base)
        .filter_map(
            |v| match session.execute(Op::CountEdges { v: AppVertexId(v) }) {
                Ok(OpOutcome::Committed(reply)) => Some(Check {
                    op: Op::CountEdges { v: AppVertexId(v) },
                    want: Some(reply),
                    what: format!("base-graph edge count of vertex {v}"),
                }),
                _ => None,
            },
        )
        .collect()
}

/// Run `cfg`: boot → serve its script → crash → recover → verify.
pub fn run(cfg: &Scenario) -> Report {
    let script = cfg.script;
    let spec = cfg.scale.map(|scale| GraphSpec {
        scale,
        edge_factor: 8,
        seed: script.seed(),
        lpg: graphgen::LpgConfig::default(),
    });
    let n_base = spec.as_ref().map_or(0, GraphSpec::n_vertices);
    let mut gcfg = spec
        .as_ref()
        .map_or_else(GdaConfig::tiny, |s| sized_config(s, cfg.nranks));
    let extra = script.headroom(cfg.sessions, cfg.ops);
    gcfg.blocks_per_rank += extra;
    gcfg.dht_heap_per_rank += extra;

    let span = script.span(cfg.ops);
    let mut clients: Vec<Client> = (0..cfg.sessions as u64)
        .map(|s| Client {
            ledger: Ledger::default(),
            rng: SmallRng::seed_from_u64(script.seed() ^ s.wrapping_mul(0x9E37_79B9)),
            next: n_base + 1 + s * span,
            counter: 0,
            added: Vec::new(),
        })
        .collect();
    let mut report = Report::default();

    // ---- boot and serve the script; the drop at the end is the crash
    let (meta, base) = {
        let db: Arc<GdaDb> = GdaDb::new("durability", gcfg, cfg.nranks);
        db.enable_persistence(PersistOptions::new(&cfg.dir))
            .expect("fresh persistence dir");
        let fabric = match cfg.backend {
            Some(b) => gcfg.build_fabric_on(cfg.nranks, cfg.cost, b),
            None => gcfg.build_fabric(cfg.nranks, cfg.cost),
        };
        let metas = fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            spec.as_ref().map(|spec| load_into(&eng, spec).0)
        });
        let meta = metas.into_iter().next().flatten();
        let srv = GdiServer::new(db, ServerOptions::default());
        let base = serving(&srv, fabric, || {
            let clients = &mut clients[..];
            match script {
                Script::KillRestart { .. } => {
                    kill_restart(&srv, needs(&meta), clients, cfg.ops, &mut report)
                }
                Script::Churn { rounds } => {
                    churn(&srv, needs(&meta), clients, (cfg.ops, rounds), &mut report)
                }
                Script::Chaos { fault_point } => {
                    chaos(&srv, fault_point, clients, cfg.ops, &mut report)
                }
            }
            base_sample(&srv, n_base)
        });
        (meta, base)
    };
    report.committed_writes = committed(&clients);
    report.indeterminate = clients.iter().map(|c| c.ledger.indeterminate).sum();

    // ---- recover from disk and verify --------------------------------
    let restart_ranks = match script {
        Script::KillRestart { restart_ranks, .. } => restart_ranks,
        _ => None,
    };
    let restart_t0 = Instant::now();
    let mut ropts = PersistOptions::new(&cfg.dir);
    ropts.backend = cfg.backend;
    let (srv, fabric) =
        GdiServer::recover_with_ranks(ropts, cfg.cost, ServerOptions::default(), restart_ranks)
            .expect("recover from persistence dir");
    serving(&srv, fabric, || {
        let session = srv.session();
        let ledgers = clients.iter().flat_map(|c| c.ledger.checks());
        for check in ledgers.chain(base) {
            report.checks += 1;
            report.mismatches.extend(check.run(&session));
        }
        report.recovery = srv.metrics().recovery;
        // the restore ends at "serving + verified": the post-restart
        // phase must not inflate it
        report.restart_wall_s = restart_t0.elapsed().as_secs_f64();
        audit_state(&srv, "recovery", &mut report.mismatches);
        if let Script::KillRestart { post_ops, .. } = script {
            if post_ops > 0 {
                let meta = needs(&meta);
                drive(&srv, &mut clients, post_ops, |s, c, _| {
                    kill_restart_step(s, c, meta)
                });
                report.post_committed = committed(&clients) - report.committed_writes;
            }
        }
    });
    report
}

fn needs(meta: &Option<LpgMeta>) -> &LpgMeta {
    meta.as_ref()
        .expect("this script drives traffic over a base graph: set `scale`")
}

// ---------------------------------------------------------------------
// The scripts
// ---------------------------------------------------------------------

/// Checkpoint mid-traffic and keep committing.
fn kill_restart(
    srv: &GdiServer,
    meta: &LpgMeta,
    clients: &mut [Client],
    ops: usize,
    report: &mut Report,
) {
    drive(srv, clients, ops, |s, c, _| kill_restart_step(s, c, meta));
    let ck = srv.checkpoint().expect("mid-traffic checkpoint");
    report.checkpoint = CheckpointSample::of(&ck, 0);
    audit_state(srv, "the checkpoint", &mut report.mismatches);
    drive(srv, clients, ops, |s, c, _| kill_restart_step(s, c, meta));
}

/// One kill-restart op: inserts dominate so the tracked population
/// grows; updates, edges and deletes pick among live vertices.
fn kill_restart_step(session: &Session, c: &mut Client, meta: &LpgMeta) {
    let p0 = meta.ptype(0);
    let live = c.ledger.live();
    let op = match c.rng.gen_range(0..100) {
        0..=49 => {
            c.next += 1;
            Op::AddVertex {
                v: AppVertexId(c.next),
                label: Some(meta.label(0)),
                prop: Some((p0, PropertyValue::U64(c.next))),
            }
        }
        50..=69 if !live.is_empty() => {
            c.counter += 1;
            Op::UpdateVertexProp {
                v: AppVertexId(live[c.rng.gen_range(0..live.len())]),
                ptype: p0,
                value: PropertyValue::U64(1_000_000_000 + c.counter),
            }
        }
        70..=84 if live.len() >= 2 => {
            let a = live[c.rng.gen_range(0..live.len())];
            let mut b = live[c.rng.gen_range(0..live.len())];
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
            v: AppVertexId(live[c.rng.gen_range(0..live.len())]),
        },
        _ => {
            c.next += 1;
            Op::AddVertex {
                v: AppVertexId(c.next),
                label: None,
                prop: Some((p0, PropertyValue::U64(c.next))),
            }
        }
    };
    c.execute(session, op);
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

/// Seed the tracked sets, take the full checkpoint, then `rounds` of
/// churn → delta checkpoint → maintenance.
fn churn(
    srv: &GdiServer,
    meta: &LpgMeta,
    clients: &mut [Client],
    (ops, rounds): (usize, usize),
    report: &mut Report,
) {
    let p0 = meta.ptype(0);
    for (s, c) in clients.iter_mut().enumerate() {
        c.counter = (s as u64) << 32;
    }
    drive(srv, clients, TRACKED_PER_SESSION, |s, c, k| {
        let id = c.next + k as u64;
        c.execute(
            s,
            Op::AddVertex {
                v: AppVertexId(id),
                label: None,
                prop: Some((p0, PropertyValue::U64(id))),
            },
        );
    });
    for c in clients.iter_mut() {
        c.next += TRACKED_PER_SESSION as u64;
    }
    // the full base: grows with database size
    let mut logged = logged_bytes(srv);
    let ck = srv.checkpoint().expect("initial full checkpoint");
    assert!(ck.full, "first checkpoint must be a full snapshot");
    report.checkpoint = CheckpointSample::of(&ck, 0);
    audit_state(srv, "the full checkpoint", &mut report.mismatches);
    for _round in 0..rounds {
        drive(srv, clients, ops, |s, c, _| churn_step(s, c, p0));
        let before = logged;
        logged = logged_bytes(srv);
        let ck = srv.checkpoint().expect("round checkpoint");
        report
            .deltas
            .push(CheckpointSample::of(&ck, logged - before));
        audit_state(srv, "a round checkpoint", &mut report.mismatches);
        let m = srv.maintenance().expect("round maintenance");
        let live_blocks = audit_state(srv, "a maintenance pass", &mut report.mismatches);
        report.maint.push(MaintSample {
            vacuumed_versions: m.vacuumed_versions,
            verify_errors: m.verify_errors,
            live_blocks,
        });
    }
}

/// One churn op against the session's tracked set: ~80 % property
/// overwrites (each archiving an MVCC pre-image — the garbage the
/// vacuum must bound), ~10 % delete, ~10 % insert, so the population
/// stays roughly constant while the DHT and block pool churn.
fn churn_step(session: &Session, c: &mut Client, p0: PTypeId) {
    let live = c.ledger.live();
    c.counter += 1;
    let op = match c.rng.gen_range(0..100) {
        0..=79 if !live.is_empty() => Op::UpdateVertexProp {
            v: AppVertexId(live[c.rng.gen_range(0..live.len())]),
            ptype: p0,
            value: PropertyValue::U64(1_000_000 + c.counter),
        },
        80..=89 if !live.is_empty() => Op::DeleteVertex {
            v: AppVertexId(live[c.rng.gen_range(0..live.len())]),
        },
        _ => {
            c.next += 1;
            Op::AddVertex {
                v: AppVertexId(c.next),
                label: None,
                prop: Some((p0, PropertyValue::U64(c.next))),
            }
        }
    };
    c.execute(session, op);
}

fn add(v: u64) -> Op {
    Op::AddVertex {
        v: AppVertexId(v),
        label: None,
        prop: None,
    }
}

/// One chaos op: a fresh vertex, and every fourth step an edge chaining
/// the session's last two committed inserts.
fn chaos_step(session: &Session, c: &mut Client, i: usize) {
    let v = c.next;
    c.next += 1;
    if c.execute(session, add(v)) {
        c.added.push(v);
    }
    if let (3, [.., a, b]) = (i % 4, &c.added[..]) {
        let edge = Op::AddEdge {
            from: AppVertexId(*a),
            to: AppVertexId(*b),
            label: None,
        };
        c.execute(session, edge);
    }
}

/// Run `check` as a collective job on every serving rank, after
/// `step`: rank 0's value when it passed, else a mismatch line with the
/// error a failing rank returned.
fn audit(
    srv: &GdiServer,
    step: &str,
    check: impl for<'r, 'd, 'c, 'f> Fn(&'r GdaRank<'d, 'c, 'f>) -> GdiResult<u64>
        + Send
        + Sync
        + 'static,
) -> Result<u64, String> {
    let slot: Arc<Mutex<Option<String>>> = Arc::default();
    let sink = slot.clone();
    let ticket = srv.submit_olap(move |eng| match check(eng) {
        Ok(n) => n as f64,
        Err(e) => {
            *sink.lock().unwrap_or_else(|p| p.into_inner()) = Some(e.to_string());
            0.0
        }
    });
    let reply = ticket.map(|t| t.wait());
    let fault = slot.lock().unwrap_or_else(|p| p.into_inner()).take();
    match (reply, fault) {
        (_, Some(e)) => Err(format!("after {step}: {e}")),
        (Ok(OpOutcome::Committed(OpReply::Scalar(n))), None) => Ok(n as u64),
        _ => Err(format!("after {step}: audit job did not run")),
    }
}

/// Both audits after `step` — the recovered ≡ live oracle
/// ([`gda::persist::audit_image`]) and the block-conservation audit
/// ([`audit_pool`]) — with one line in `mismatches` per audit that
/// fails. Returns the blocks the pool audit counted as held (0 if it
/// failed).
fn audit_state(srv: &GdiServer, step: &str, mismatches: &mut Vec<String>) -> u64 {
    let image = audit(srv, step, |eng| gda::persist::audit_image(eng).map(|_| 0));
    let pool = audit_pool(srv, step);
    mismatches.extend(image.err().into_iter().chain(pool.as_ref().err().cloned()));
    pool.unwrap_or(0)
}

/// The block-conservation audit ([`GdaRank::audit_pool`]) after `step`:
/// when every rank's pool is its free, live and retired blocks, each
/// counted once, the live and retired blocks summed over ranks (every
/// block not free); else a mismatch line.
fn audit_pool(srv: &GdiServer, step: &str) -> Result<u64, String> {
    audit(srv, step, |eng| {
        let pool = eng.audit_pool()?;
        Ok(eng
            .ctx()
            .allreduce_sum_u64((pool.live + pool.retired) as u64))
    })
}

/// Healthy traffic and an anchoring checkpoint, then the fault:
/// degrade, read committed data, bounce writes, repair, more traffic.
fn chaos(
    srv: &GdiServer,
    fault_point: &'static str,
    clients: &mut [Client],
    ops: usize,
    report: &mut Report,
) {
    drive(srv, clients, ops, chaos_step);
    let ck = srv.checkpoint().expect("healthy anchoring checkpoint");
    report.checkpoint = CheckpointSample::of(&ck, 0);
    audit_state(srv, "the anchoring checkpoint", &mut report.mismatches);

    // arm the persistent fault and force degradation
    let store = srv.db().persistence().expect("a persistent server");
    let plane = store.fault_plane();
    plane.arm_at(fault_point, None, 0, PERSISTENT, FaultMode::Error);
    if fault_point == faults::REDO_APPEND {
        // appends fail silently under the commit; the serve loop's
        // health observer must notice the error counter. In memory the
        // write commits, and the exit checkpoint below re-anchors it.
        let c = &mut clients[0];
        let v = c.next;
        c.next += 1;
        if c.execute(&srv.session(), add(v)) {
            c.added.push(v);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !srv.degraded() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    } else {
        // the collective checkpoint votes abort on the injected error
        // and the server degrades on the spot
        let _ = srv.checkpoint();
        report
            .mismatches
            .extend(audit_pool(srv, "the failed checkpoint").err());
    }
    let mut d = Degradation {
        entered: srv.degraded(),
        ..Degradation::default()
    };

    // degraded: reads keep serving abort-free, writes bounce typed
    if d.entered {
        let session = srv.session();
        let counts = clients.iter().flat_map(|c| c.ledger.checks());
        for read in counts.filter(|check| matches!(check.op, Op::CountEdges { .. })) {
            d.reads += 1;
            d.read_aborts += read.run(&session).is_some() as u64;
        }
        for c in clients.iter_mut() {
            for _ in 0..ops / 2 {
                let op = add(c.next);
                c.next += 1;
                match session.execute(op.clone()) {
                    Err(SubmitError::ReadOnly) => {
                        d.write_rejects += 1;
                        c.ledger.reject(&op);
                    }
                    Ok(outcome) => {
                        d.write_leaks += 1;
                        c.ledger.apply(&op, &outcome);
                    }
                    Err(_) => d.write_leaks += 1,
                }
            }
        }
    }

    // repair: disarm, checkpoint out of degradation, resume
    plane.disarm_all();
    d.fault_hits = plane.fired();
    srv.checkpoint().expect("post-repair checkpoint");
    audit_state(srv, "the post-repair checkpoint", &mut report.mismatches);
    d.exited = !srv.degraded();
    report.degradation = Some(d);
    drive(srv, clients, ops, chaos_step);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    const P: PTypeId = PTypeId(7);

    fn committed() -> OpOutcome {
        OpOutcome::Committed(OpReply::Unit)
    }

    fn vertex(v: u64) -> Op {
        Op::AddVertex {
            v: AppVertexId(v),
            label: None,
            prop: Some((P, PropertyValue::U64(v))),
        }
    }

    fn edge(a: u64, b: u64) -> Op {
        Op::AddEdge {
            from: AppVertexId(a),
            to: AppVertexId(b),
            label: None,
        }
    }

    /// A ledger that committed every op of `ops`.
    fn ledger_of(ops: &[Op]) -> Ledger {
        let mut ledger = Ledger::default();
        for op in ops {
            ledger.apply(op, &committed());
        }
        ledger
    }

    /// What the ledger expects of `v`'s edge count, if it checks it.
    fn count_of(ledger: &Ledger, v: u64) -> Option<OpReply> {
        let op = Op::CountEdges { v: AppVertexId(v) };
        ledger.checks().into_iter().find(|c| c.op == op)?.want
    }

    /// Every read-back of a ledger, order-free.
    fn read_backs(ledger: &Ledger) -> Vec<String> {
        let mut all: Vec<String> = ledger
            .checks()
            .iter()
            .map(|c| format!("{:?} {:?}", c.op, c.want))
            .collect();
        all.sort();
        all
    }

    #[test]
    fn ledger_committed_is_the_sum_of_committed_acks() {
        let mut ledger = Ledger::default();
        let nf = || GdiError::NotFound("vertex");
        let answers = [
            (vertex(1), committed()),
            (vertex(2), committed()),
            (edge(1, 2), committed()),
            (vertex(3), OpOutcome::Aborted(nf())),
            (Op::DeleteVertex { v: AppVertexId(2) }, committed()),
            (vertex(4), OpOutcome::DeadlineExceeded),
            (edge(1, 4), OpOutcome::Indeterminate(nf())),
            (Op::CountEdges { v: AppVertexId(1) }, committed()),
        ];
        for (op, outcome) in &answers {
            ledger.apply(op, outcome);
        }
        let acks = answers.iter().filter(|(_, o)| o.is_committed()).count();
        assert_eq!(ledger.committed, acks as u64);
        assert_eq!(ledger.indeterminate, 1);
    }

    #[test]
    fn ledger_aborted_and_deadline_exceeded_change_nothing() {
        let mut ledger = ledger_of(&[vertex(1), vertex(2), edge(1, 2)]);
        let before = read_backs(&ledger);
        let shed = [
            OpOutcome::Aborted(GdiError::NotFound("vertex")),
            OpOutcome::DeadlineExceeded,
        ];
        for outcome in &shed {
            for op in [
                vertex(3),
                edge(2, 1),
                Op::DeleteVertex { v: AppVertexId(1) },
                Op::UpdateVertexProp {
                    v: AppVertexId(2),
                    ptype: P,
                    value: PropertyValue::U64(99),
                },
            ] {
                ledger.apply(&op, outcome);
            }
        }
        assert_eq!(read_backs(&ledger), before);
        assert_eq!((ledger.committed, ledger.indeterminate), (3, 0));
    }

    #[test]
    fn ledger_indeterminate_vertices_leave_verification() {
        let uncertain = OpOutcome::Indeterminate(GdiError::Io("torn".into()));
        // an uncertain edge: both endpoints leave, a bystander's
        // committed edge to one of them still counts
        let mut ledger = ledger_of(&[vertex(1), vertex(2), vertex(3), edge(3, 1)]);
        ledger.apply(&edge(1, 2), &uncertain);
        assert_eq!(ledger.indeterminate, 1);
        assert_eq!(count_of(&ledger, 1), None);
        assert_eq!(count_of(&ledger, 2), None);
        assert_eq!(count_of(&ledger, 3), Some(OpReply::Count(1)));
        assert_eq!(ledger.live(), vec![3]);
        // an uncertain delete: the vertex and every neighbour leave
        let mut ledger = ledger_of(&[vertex(1), vertex(2), vertex(3), edge(1, 2)]);
        ledger.apply(&Op::DeleteVertex { v: AppVertexId(1) }, &uncertain);
        assert_eq!(read_backs(&ledger), read_backs(&ledger_of(&[vertex(3)])));
        // an uncertain update or insert: that vertex leaves
        let mut ledger = ledger_of(&[vertex(1)]);
        let update = Op::UpdateVertexProp {
            v: AppVertexId(1),
            ptype: P,
            value: PropertyValue::U64(5),
        };
        ledger.apply(&update, &uncertain);
        ledger.apply(&vertex(2), &uncertain);
        assert!(ledger.checks().is_empty());
    }

    #[test]
    fn ledger_committed_delete_drops_edges_from_neighbours_counts() {
        let mut ledger = ledger_of(&[
            vertex(1),
            vertex(2),
            vertex(3),
            edge(1, 2),
            edge(3, 2),
            edge(1, 3),
        ]);
        assert_eq!(count_of(&ledger, 1), Some(OpReply::Count(2)));
        ledger.apply(&Op::DeleteVertex { v: AppVertexId(2) }, &committed());
        assert_eq!(count_of(&ledger, 1), Some(OpReply::Count(1)));
        assert_eq!(count_of(&ledger, 3), Some(OpReply::Count(1)));
        let gone = Op::GetVertexProps {
            v: AppVertexId(2),
            ptype: None,
        };
        let check = ledger.checks().into_iter().find(|c| c.op == gone);
        assert_eq!(check.map(|c| c.want), Some(None), "2 must read absent");
        // a rejected insert must read absent too
        ledger.reject(&vertex(4));
        assert!(ledger.checks().iter().any(|c| c.want.is_none()
            && c.op
                == Op::GetVertexProps {
                    v: AppVertexId(4),
                    ptype: None
                }));
    }

    fn small_kill_restart(name: &str, p: usize, restart: Option<(usize, usize)>) -> Report {
        let dir = ScratchDir::new(name);
        let mut cfg = Scenario::kill_restart(dir.path());
        cfg.nranks = p;
        cfg.scale = Some(6);
        cfg.sessions = 4;
        cfg.ops = 20;
        cfg.cost = CostModel::zero();
        if let Some((q, post_ops)) = restart {
            cfg.script = Script::KillRestart {
                restart_ranks: Some(q),
                post_ops,
            };
        }
        run(&cfg)
    }

    #[test]
    fn kill_restart_round_trip() {
        let report = small_kill_restart("wl-recovery", 2, None);
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

    #[test]
    fn scale_out_round_trip() {
        let report = small_kill_restart("wl-reshard-2-4", 2, Some((4, 10)));
        assert!(report.committed_writes > 0, "{report:?}");
        assert!(
            report.passed(),
            "read-your-committed-writes across a 2→4 reshard violated:\n{}",
            report.mismatches.join("\n")
        );
        let rec = report.recovery.expect("recovery metrics");
        assert_eq!(rec.resharded_from, Some(2));
        assert_eq!(rec.errors, 0);
        assert!(report.post_committed > 0, "resharded server must serve");
    }

    #[test]
    fn scale_in_round_trip() {
        let report = small_kill_restart("wl-reshard-4-2", 4, Some((2, 10)));
        assert!(report.committed_writes > 0, "{report:?}");
        assert!(
            report.passed(),
            "read-your-committed-writes across a 4→2 reshard violated:\n{}",
            report.mismatches.join("\n")
        );
        let rec = report.recovery.expect("recovery metrics");
        assert_eq!(rec.resharded_from, Some(4));
        assert!(report.post_committed > 0);
    }

    #[test]
    fn churn_rounds_round_trip_with_bounded_garbage() {
        let dir = ScratchDir::new("wl-maintenance");
        let mut cfg = Scenario::churn(dir.path());
        // delta bytes scale with churn (the redo frames it seals), full
        // bytes with graph size: keep the churn small relative to the
        // scale-7 graph so the ≪ gate is meaningful
        cfg.scale = Some(7);
        cfg.sessions = 2;
        cfg.ops = 12;
        cfg.script = Script::Churn { rounds: 3 };
        cfg.cost = CostModel::zero();
        let report = run(&cfg);
        assert!(report.committed_writes > 0, "{report:?}");
        assert!(report.checks > 0);
        assert!(
            report.passed(),
            "divergence or verifier errors:\n{}",
            report.mismatches.join("\n")
        );
        // the first checkpoint is the full base; the rounds publish
        // deltas whose bytes are a small fraction of it
        assert!(report.checkpoint.full);
        assert_eq!(report.deltas.len(), 3);
        assert!(
            report.deltas.iter().any(|d| !d.full),
            "churn rounds never published a delta: {:?}",
            report.deltas
        );
        let max_delta = report.max_delta_bytes();
        assert!(
            max_delta * 2 < report.checkpoint.bytes,
            "delta bytes {} not ≪ full bytes {}",
            max_delta,
            report.checkpoint.bytes
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

    fn small_chaos(name: &str, fault_point: &'static str) -> Report {
        let dir = ScratchDir::new(name);
        let mut cfg = Scenario::chaos(dir.path(), fault_point);
        cfg.cost = CostModel::zero();
        let report = run(&cfg);
        let d = report.degradation.clone().expect("the degradation ledger");
        assert!(d.write_rejects > 0, "{report:?}");
        assert!(d.reads > 0, "{report:?}");
        assert!(d.fault_hits >= 1, "{report:?}");
        assert!(
            report.passed(),
            "chaos contract violated:\n{}\n{report:?}",
            report.mismatches.join("\n")
        );
        report
    }

    #[test]
    fn chaos_round_trip_checkpoint_fault() {
        let report = small_chaos("wl-chaos", faults::MANIFEST_WRITE);
        assert!(report.committed_writes > 0, "{report:?}");
    }

    #[test]
    fn chaos_round_trip_redo_append_fault() {
        small_chaos("wl-chaos-redo", faults::REDO_APPEND);
    }
}
