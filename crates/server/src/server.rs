//! The multi-session GDI server: request routing, per-rank serve loops,
//! OLAP rendezvous, admission control and shutdown.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gda::owner_rank;
use gda::persist::{CheckpointReport, PersistOptions};
use gda::{GdaDb, GdaRank};
use gdi::{GdiError, GdiResult};
use parking_lot::Mutex;
use rma::{CostModel, Fabric, RankCtx, RankReport, WakeSource};

use crate::batch::execute_batch;
use crate::metrics::{RankCounters, RankMetrics, RecoverySummary, ServerMetrics};
use crate::queue::{BoundedQueue, PushError};
use crate::request::{Op, OpOutcome, OpReply, Request, Ticket, TicketInner};

/// What happens when a session submits into a full rank queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Block the submitter until the queue has room (backpressure).
    Block,
    /// Reject immediately with [`SubmitError::Overloaded`] (load
    /// shedding; the client decides whether to retry).
    Reject,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bound of each per-rank request queue.
    pub queue_capacity: usize,
    /// Maximum requests drained per serve cycle. Every drain is coalesced
    /// into groups, each one shared transaction closed by one commit
    /// (reads share one read-only group, writes share read-write groups);
    /// with `1` each request is a group of one.
    pub max_batch: usize,
    /// Full-queue behaviour.
    pub admission: AdmissionPolicy,
    /// Which serving rank a session's ops land on.
    pub route: RoutePolicy,
    /// Background maintenance cadence: `Some(n)` makes rank 0's serve
    /// loop submit a collective [`GdaRank::maintenance`] pass after
    /// every `n` drain cycles it executes (every rank's archive retire
    /// list drained to the snapshot floor, snapshot checksum
    /// verification). Commits reclaim
    /// archives too, so a long interval delays only the reclaim of what
    /// their amortised reclaims have not reached yet. Passes ride the OLAP rendezvous, so they
    /// run between batches when no transaction is in flight. `None`
    /// (the default) leaves maintenance to explicit
    /// [`GdiServer::maintenance`] calls.
    pub maintenance_interval: Option<u64>,
    /// Per-op service deadline: a request still queued `deadline` after
    /// submission is shed at drain time with
    /// [`OpOutcome::DeadlineExceeded`] instead of executing (bounded
    /// staleness under overload or injected stalls). `None` (default)
    /// never sheds.
    pub deadline: Option<Duration>,
}

/// Which serving rank executes a submitted op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Route every op to the rank owning its routing vertex (round-robin
    /// partitioning): object access inside the serve loop is rank-local.
    /// The low-latency deployment when clients can address any server.
    #[default]
    Owner,
    /// Route every op to the session's *connected* rank (`session id mod
    /// P`), regardless of which rank owns the data — the paper's
    /// deployment shape, where a query lands on whatever server the
    /// client connected to and the server reaches remote vertices with
    /// one-sided RMA. Makes the read path pay real remote-access costs
    /// (where lock-free snapshot reads shine against lock round trips).
    SessionAffine,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_batch: 64,
            admission: AdmissionPolicy::Block,
            route: RoutePolicy::Owner,
            maintenance_interval: None,
            deadline: None,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control shed the request ([`AdmissionPolicy::Reject`]).
    Overloaded {
        /// The rank whose queue was full.
        rank: usize,
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// Admission is paused (a checkpoint is draining in-flight work)
    /// and the policy is [`AdmissionPolicy::Reject`]; retry shortly.
    /// Under [`AdmissionPolicy::Block`] submitters wait instead.
    Paused,
    /// The server no longer accepts requests.
    ShuttingDown,
    /// The server is in **degraded read-only mode** (a checkpoint failed
    /// or the persistence store reported write errors): reads keep
    /// serving, writes are rejected until the next successful
    /// [`GdiServer::checkpoint`] proves durability is back.
    ReadOnly,
}

/// A collective OLAP job: every rank runs the closure against its engine
/// handle (collectives allowed inside); rank 0's return value resolves
/// the submitter's ticket.
pub type OlapJobFn = dyn for<'r, 'd, 'c, 'f> Fn(&'r GdaRank<'d, 'c, 'f>) -> f64 + Send + Sync;

struct OlapPending {
    job: Arc<OlapJobFn>,
    ticket: Arc<TicketInner>,
    /// Ranks that finished this job; the slot is tombstoned (payload
    /// dropped) once every rank has served it, so `olap_jobs` holds live
    /// closures only for jobs still in flight.
    served_by: usize,
}

/// A job the server drops without ever running (server torn down before
/// any rank served it) still resolves its ticket — no lost acks.
impl Drop for OlapPending {
    fn drop(&mut self) {
        self.ticket
            .fulfill_if_pending(OpOutcome::Aborted(gdi::GdiError::TransactionClosed));
    }
}

/// Capacity of the idempotency dedup window: bounds the memory a retry
/// storm can pin.
const DEDUP_WINDOW: usize = 1024;

/// Bounded token → decided-outcome map (FIFO eviction). Only *decided*
/// outcomes are recorded — committed ops so a retry never double-applies;
/// aborted, indeterminate and deadline-shed attempts stay absent so a
/// retry may honestly re-execute.
pub(crate) struct DedupWindow {
    capacity: usize,
    map: rustc_hash::FxHashMap<u64, OpOutcome>,
    order: VecDeque<u64>,
}

impl DedupWindow {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            map: rustc_hash::FxHashMap::default(),
            order: VecDeque::new(),
        }
    }

    pub(crate) fn get(&self, token: u64) -> Option<OpOutcome> {
        self.map.get(&token).cloned()
    }

    pub(crate) fn record(&mut self, token: u64, outcome: OpOutcome) {
        if self.map.insert(token, outcome).is_none() {
            self.order.push_back(token);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

struct ServerInner {
    db: Arc<GdaDb>,
    opts: ServerOptions,
    queues: Vec<BoundedQueue<Request>>,
    counters: Vec<RankCounters>,
    accepting: AtomicBool,
    serving: AtomicUsize,
    started: Instant,
    next_session: AtomicU64,
    /// Submitted OLAP jobs, indexed by submission order; a slot is
    /// tombstoned to `None` once every rank has served it.
    olap_jobs: Mutex<Vec<Option<OlapPending>>>,
    olap_submitted: AtomicU64,
    fabric_reports: Mutex<Vec<Option<RankReport>>>,
    /// Admission pause gate: a *count* of outstanding pauses (concurrent
    /// checkpoints and explicit operator pauses compose — resuming one
    /// never cancels another). While non-zero, `Block`-policy submitters
    /// wait on `pause_wake` and `Reject`-policy submitters are shed with
    /// [`SubmitError::Paused`] (checkpoint stall bounding). A submit
    /// reads it as one atomic load; nobody locks anything unless a pause
    /// is outstanding long enough to sleep through.
    paused: AtomicUsize,
    /// Signalled when the last pause is released and on shutdown.
    pause_wake: WakeSource,
    /// Successful collective checkpoints triggered through this server.
    checkpoints: AtomicU64,
    /// Collective maintenance passes submitted through this server
    /// (explicit [`GdiServer::maintenance`] calls plus scheduled passes
    /// from [`ServerOptions::maintenance_interval`]).
    maintenance_runs: AtomicU64,
    /// What the crash recovery that booted this server did (`None` for
    /// a server built by [`GdiServer::new`]).
    recovered: Option<RecoverySummary>,
    /// Which fabric backend the serve loops run on (recorded by the
    /// first [`GdiServer::serve_rank`] from its rank context).
    backend: Mutex<Option<rma::BackendKind>>,
    /// Degraded read-only mode gate: set on a failed checkpoint or on
    /// observed store write errors, cleared by the next successful
    /// checkpoint. While set, write submissions are rejected with
    /// [`SubmitError::ReadOnly`]; reads serve normally.
    degraded: AtomicBool,
    /// Times the server transitioned *into* degraded mode.
    degraded_entries: AtomicU64,
    /// Write submissions rejected while degraded.
    write_rejects: AtomicU64,
    /// Retries performed by [`Session::execute_idempotent`].
    retries: AtomicU64,
    /// Store redo-log error count at the last health observation (the
    /// serve loop enters degraded mode when it grows).
    last_log_errors: AtomicU64,
    /// Idempotency window shared by all serving ranks.
    dedup: Mutex<DedupWindow>,
}

impl ServerInner {
    /// Fail the whole server fast: stop admissions, close every queue
    /// (waking every peer's serve loop and every blocked producer), and
    /// drain `rank`'s queue so its pending tickets resolve as aborts
    /// (via the `Request` drop-guard).
    fn fail_fast(&self, rank: usize) {
        self.accepting.store(false, Ordering::SeqCst);
        for q in &self.queues {
            q.close();
        }
        // closed: the wait returns at once
        let mut orphans = VecDeque::new();
        self.queues[rank].drain_wait(&mut orphans, usize::MAX, || false);
    }
}

/// Per-rank summary returned by [`GdiServer::serve_rank`].
#[derive(Debug, Clone)]
pub struct ServeSummary {
    pub rank: usize,
    /// Requests this rank executed (committed + aborted).
    pub executed: u64,
    /// Drain cycles.
    pub batches: u64,
    /// Collective OLAP jobs participated in.
    pub olap_jobs: u64,
    /// Nanoseconds this rank spent serving on the fabric's active clock:
    /// simulated ns on the LogGP backend, real elapsed ns on the
    /// wall-clock backend (see [`ServeSummary::backend`]).
    pub sim_serve_ns: f64,
    /// Active-clock nanoseconds spent inside **read** requests (the
    /// read-path service time the MVCC benches gate on — the blended
    /// [`ServeSummary::sim_serve_ns`] hides the read-side win behind
    /// write-commit bookkeeping).
    pub sim_read_ns: f64,
    /// Read requests those nanoseconds covered.
    pub read_ops: u64,
    /// Remote gets those read requests issued.
    pub read_gets: u64,
    /// Remote atomics those read requests issued.
    pub read_atomics: u64,
    /// Fabric execution backend this rank served on.
    pub backend: rma::BackendKind,
}

/// The multi-session service front-end over one [`GdaDb`].
///
/// Cheap to clone (shared state behind an `Arc`): hand clones to client
/// threads, call [`GdiServer::serve_rank`] from every fabric rank.
#[derive(Clone)]
pub struct GdiServer(Arc<ServerInner>);

impl GdiServer {
    pub fn new(db: Arc<GdaDb>, opts: ServerOptions) -> Self {
        Self::build(db, opts, None)
    }

    fn build(db: Arc<GdaDb>, opts: ServerOptions, recovered: Option<RecoverySummary>) -> Self {
        assert!(opts.max_batch >= 1, "max_batch must be positive");
        let nranks = db.nranks();
        GdiServer(Arc::new(ServerInner {
            opts: opts.clone(),
            queues: (0..nranks)
                .map(|_| BoundedQueue::new(opts.queue_capacity))
                .collect(),
            counters: (0..nranks).map(|_| RankCounters::default()).collect(),
            accepting: AtomicBool::new(true),
            serving: AtomicUsize::new(0),
            started: Instant::now(),
            next_session: AtomicU64::new(0),
            olap_jobs: Mutex::new(Vec::new()),
            olap_submitted: AtomicU64::new(0),
            fabric_reports: Mutex::new((0..nranks).map(|_| None).collect()),
            paused: AtomicUsize::new(0),
            pause_wake: WakeSource::new(),
            checkpoints: AtomicU64::new(0),
            maintenance_runs: AtomicU64::new(0),
            recovered,
            backend: Mutex::new(None),
            degraded: AtomicBool::new(false),
            degraded_entries: AtomicU64::new(0),
            write_rejects: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            last_log_errors: AtomicU64::new(0),
            dedup: Mutex::new(DedupWindow::new(DEDUP_WINDOW)),
            db,
        }))
    }

    /// Boot a server from a persistence directory after a crash: one
    /// call to `gda::persist::recover_with_topology`, which replays the
    /// latest snapshot chain, rebuilds the database on a fresh fabric
    /// and commits it with a full checkpoint before it returns. The
    /// caller then runs [`GdiServer::serve_rank`] on every rank of the
    /// returned fabric as usual; the database is whole from the first
    /// drain on. What the recovery did is in [`ServerMetrics::recovery`].
    /// A failed restore (every rank votes on it) is this call's `Err`,
    /// with the directory left as it was, so a second recovery can
    /// retry.
    pub fn recover(
        opts: PersistOptions,
        cost: CostModel,
        server_opts: ServerOptions,
    ) -> GdiResult<(GdiServer, Fabric)> {
        Self::recover_with_ranks(opts, cost, server_opts, None)
    }

    /// [`GdiServer::recover`] with an **elastic target topology**: boot
    /// the latest snapshot (written by `P` ranks) onto `Some(Q)` ranks.
    /// When it returns, the full redistribution has run (see
    /// `gda::persist::recover_with_topology`) and the database is a
    /// native `Q`-rank database with its own published checkpoint.
    /// `None` keeps the snapshot's topology.
    pub fn recover_with_ranks(
        opts: PersistOptions,
        cost: CostModel,
        server_opts: ServerOptions,
        target_ranks: Option<usize>,
    ) -> GdiResult<(GdiServer, Fabric)> {
        let (db, fabric, ranks) = gda::persist::recover_with_topology(opts, cost, target_ranks)?;
        let summary = RecoverySummary::of(&ranks);
        Ok((GdiServer::build(db, server_opts, Some(summary)), fabric))
    }

    /// The database being served.
    pub fn db(&self) -> &Arc<GdaDb> {
        &self.0.db
    }

    /// Open a new client session.
    pub fn session(&self) -> Session {
        Session {
            server: self.clone(),
            id: self.0.next_session.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The owning rank of an op (round-robin vertex partitioning).
    pub fn route(&self, op: &Op) -> usize {
        owner_rank(op.routing_vertex(), self.0.db.nranks())
    }

    /// Submit a collective OLAP job: all serving ranks rendezvous, run the
    /// closure (engine collectives allowed), and rank 0's result resolves
    /// the ticket.
    pub fn submit_olap(
        &self,
        job: impl for<'r, 'd, 'c, 'f> Fn(&'r GdaRank<'d, 'c, 'f>) -> f64 + Send + Sync + 'static,
    ) -> Result<Ticket, SubmitError> {
        // the accepting check, the push and the counter publish happen
        // under the jobs lock, and shutdown() takes the same lock after
        // flipping `accepting`: a job is either fully published before
        // the queues close (every rank serves it before exiting) or
        // rejected — never half-visible
        let mut jobs = self.0.olap_jobs.lock();
        if !self.0.accepting.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let ticket = Arc::new(TicketInner::default());
        jobs.push(Some(OlapPending {
            job: Arc::new(job),
            ticket: ticket.clone(),
            served_by: 0,
        }));
        // publish after the job is in place: serve loops read the counter
        // first, then index the vec
        self.0.olap_submitted.fetch_add(1, Ordering::SeqCst);
        drop(jobs);
        // every rank's serve loop waits on its queue for "a request or a
        // job": get them all up for the rendezvous
        for q in &self.0.queues {
            q.wake();
        }
        Ok(Ticket(ticket))
    }

    /// Pause admission at the [`Op`] level: `Block`-policy submitters
    /// wait, `Reject`-policy submitters are shed with
    /// [`SubmitError::Paused`]. Used around collective checkpoints to
    /// bound the amount of queued work a checkpoint must drain behind.
    /// Pauses nest: admission resumes when every pause has been matched
    /// by a [`GdiServer::resume_admission`].
    pub fn pause_admission(&self) {
        self.0.paused.fetch_add(1, Ordering::SeqCst);
    }

    /// Release one [`GdiServer::pause_admission`]; wakes blocked
    /// submitters once no pause remains outstanding.
    pub fn resume_admission(&self) {
        // an unmatched resume finds 0 and changes nothing
        let before = self
            .0
            .paused
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        if before == Ok(1) {
            self.0.pause_wake.notify();
        }
    }

    /// Is the server in degraded read-only mode (failed checkpoint or
    /// observed store write errors; exits on the next successful
    /// [`GdiServer::checkpoint`])?
    pub fn degraded(&self) -> bool {
        self.0.degraded.load(Ordering::SeqCst)
    }

    /// Flip into degraded read-only mode (idempotent; counts only the
    /// transition). Reads keep serving; writes are rejected with
    /// [`SubmitError::ReadOnly`] until a checkpoint succeeds.
    fn enter_degraded(&self, why: &str) {
        if !self.0.degraded.swap(true, Ordering::SeqCst) {
            self.0.degraded_entries.fetch_add(1, Ordering::Relaxed);
            eprintln!("[server] entering degraded read-only mode: {why}");
        }
    }

    /// Leave degraded mode after a successful checkpoint.
    fn exit_degraded(&self) {
        if self.0.degraded.swap(false, Ordering::SeqCst) {
            eprintln!("[server] checkpoint succeeded; leaving degraded read-only mode");
        }
    }

    /// Serve-loop health probe: new redo-log write errors on the
    /// persistence store (commits whose durability was lost, see
    /// `gda::persist::PersistStore::log_errors`) degrade the server to
    /// read-only until a checkpoint captures the lost tail.
    fn observe_store_health(&self) {
        if let Some(store) = self.0.db.persistence() {
            let errs = store.log_errors();
            // `fetch_max`: every rank observes, and a late observer must
            // not lower the mark under a count a peer already acted on
            let prev = self.0.last_log_errors.fetch_max(errs, Ordering::Relaxed);
            if errs > prev {
                self.enter_degraded("redo-log append errors observed");
            }
        }
    }

    /// Run `step` on every serving rank as one collective job with
    /// admission paused: `Ok(true)` if it succeeded (rank 0's outcome
    /// resolves the job), `Ok(false)` if it failed — the failing rank
    /// logs why — and an error if the server is shutting down or the job
    /// did not complete.
    fn collective_step(
        &self,
        what: &'static str,
        step: impl for<'r, 'd, 'c, 'f> Fn(&'r GdaRank<'d, 'c, 'f>) -> GdiResult<()>
            + Send
            + Sync
            + 'static,
    ) -> GdiResult<bool> {
        self.pause_admission();
        let submitted = self.submit_olap(move |eng| match step(eng) {
            Ok(()) => 1.0,
            Err(e) => {
                eprintln!("[server] {what} failed on rank {}: {e}", eng.rank());
                0.0
            }
        });
        let outcome = submitted.map(|ticket| ticket.wait());
        self.resume_admission();
        match outcome {
            Err(_) => Err(GdiError::Io("server is shutting down".into())),
            Ok(OpOutcome::Committed(OpReply::Scalar(v))) => Ok(v > 0.5),
            Ok(OpOutcome::Committed(_)) => Ok(false),
            Ok(_) => Err(GdiError::Io(format!("{what} job did not complete"))),
        }
    }

    /// Trigger a durable collective checkpoint while serving: pauses
    /// admission, rendezvouses every serving rank through the
    /// collective-job machinery (each runs [`GdaRank::checkpoint`]),
    /// resumes admission and returns the published report. Requires the
    /// database to have persistence enabled and rank loops serving.
    pub fn checkpoint(&self) -> GdiResult<CheckpointReport> {
        let store = self
            .0
            .db
            .persistence()
            .ok_or(GdiError::InvalidArgument("persistence not enabled"))?;
        if !self.collective_step("checkpoint", |eng| eng.checkpoint().map(drop))? {
            self.enter_degraded("collective checkpoint failed");
            return Err(GdiError::Io("checkpoint failed; see rank logs".into()));
        }
        self.0.checkpoints.fetch_add(1, Ordering::Relaxed);
        // durability is proven again: the published snapshot covers
        // everything a lost redo tail failed to log
        self.0
            .last_log_errors
            .store(store.log_errors(), Ordering::Relaxed);
        self.exit_degraded();
        store
            .last_checkpoint()
            .ok_or(GdiError::Io("checkpoint report missing".into()))
    }

    /// Run one collective background-maintenance pass while serving:
    /// pauses admission, rendezvouses every serving rank through the
    /// collective-job machinery (each runs [`GdaRank::maintenance`] —
    /// its archive retire list drained to the agreed snapshot floor,
    /// snapshot checksum verification), resumes
    /// admission and returns the aggregated report. The pass runs at
    /// the OLAP rendezvous point, where no serve-loop transaction is in
    /// flight — the quiescence the maintenance passes require.
    pub fn maintenance(&self) -> GdiResult<gda::MaintenanceReport> {
        // report slot lives outside ServerInner so the job closure
        // (stored inside ServerInner) never creates an Arc cycle
        let slot: Arc<Mutex<Option<gda::MaintenanceReport>>> = Arc::new(Mutex::new(None));
        let sink = slot.clone();
        // the pass cannot fail, so the step's verdict is always `true`
        self.collective_step("maintenance", move |eng| {
            // identical on every rank (the report is allreduce-summed)
            *sink.lock() = Some(eng.maintenance());
            Ok(())
        })?;
        self.0.maintenance_runs.fetch_add(1, Ordering::Relaxed);
        let report = slot.lock().take();
        report.ok_or(GdiError::Io("maintenance report missing".into()))
    }

    pub(crate) fn submit_from(&self, op: Op, session: u64) -> Result<Ticket, SubmitError> {
        self.submit_with_token(op, session, None)
    }

    pub(crate) fn submit_with_token(
        &self,
        op: Op,
        session: u64,
        token: Option<u64>,
    ) -> Result<Ticket, SubmitError> {
        if !self.0.accepting.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        // degraded read-only mode: writes are rejected with a typed
        // error the client can distinguish from overload; reads pass
        if !op.is_read() && self.0.degraded.load(Ordering::SeqCst) {
            self.0.write_rejects.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ReadOnly);
        }
        if self.0.paused.load(Ordering::SeqCst) > 0 {
            match self.0.opts.admission {
                AdmissionPolicy::Block => {
                    // until the last pause is released — or shutdown,
                    // which signals without touching the pause count
                    self.0.pause_wake.wait_until(|| {
                        self.0.paused.load(Ordering::SeqCst) == 0
                            || !self.0.accepting.load(Ordering::SeqCst)
                    });
                }
                AdmissionPolicy::Reject => return Err(SubmitError::Paused),
            }
        }
        if !self.0.accepting.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let rank = match self.0.opts.route {
            RoutePolicy::Owner => self.route(&op),
            RoutePolicy::SessionAffine => session as usize % self.0.db.nranks(),
        };
        let ticket = Arc::new(TicketInner::default());
        let req = Request {
            op,
            ticket: ticket.clone(),
            submitted: Instant::now(),
            token,
        };
        self.0.counters[rank]
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let res = match self.0.opts.admission {
            AdmissionPolicy::Block => self.0.queues[rank].push_wait(req),
            AdmissionPolicy::Reject => self.0.queues[rank].try_push(req),
        };
        match res {
            Ok(()) => Ok(Ticket(ticket)),
            Err(PushError::Full(_)) => {
                self.0.counters[rank]
                    .rejected
                    .fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Overloaded {
                    rank,
                    depth: self.0.queues[rank].len(),
                })
            }
            Err(PushError::Closed(_)) => {
                // count the shed so `submitted` keeps balancing against
                // committed + aborted + rejected in metrics snapshots
                self.0.counters[rank]
                    .rejected
                    .fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Stop accepting new work and close all queues. Already-queued
    /// requests are still served; every accepted ticket resolves.
    pub fn shutdown(&self) {
        self.0.accepting.store(false, Ordering::SeqCst);
        // wake submitters blocked on a paused gate so they observe the
        // shutdown instead of waiting forever (the pause count itself
        // is left to its owners)
        self.0.pause_wake.notify();
        // synchronize with any in-flight submit_olap: after this lock
        // round-trip the OLAP job count is final, so a rank observing a
        // closed queue also observes every job it must still serve
        drop(self.0.olap_jobs.lock());
        for q in &self.0.queues {
            q.close();
        }
    }

    /// The serve loop of one fabric rank: drain → batch → group commit →
    /// fan outcomes back, until shutdown drains everything. Call from
    /// every rank inside `fabric.run` (after the database was loaded).
    pub fn serve_rank(&self, ctx: &RankCtx) -> ServeSummary {
        let inner = &*self.0;
        // If this rank's loop unwinds (an engine panic), fail the whole
        // server fast instead of wedging clients: stop admissions, close
        // every queue, and drain this rank's queue so its pending tickets
        // resolve (as aborts, via the Request drop-guard).
        struct PanicGuard<'a> {
            inner: &'a ServerInner,
            rank: usize,
        }
        impl Drop for PanicGuard<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.inner.fail_fast(self.rank);
                }
            }
        }
        let _guard = PanicGuard {
            inner,
            rank: ctx.rank(),
        };
        let eng = inner.db.attach(ctx);
        let rank = ctx.rank();
        *inner.backend.lock() = Some(ctx.backend());
        let trace = std::env::var_os("GDI_SERVER_TRACE").is_some();
        inner.serving.fetch_add(1, Ordering::SeqCst);
        let sim_t0 = ctx.now_ns();
        let mut olap_served: u64 = 0;
        let mut batches: u64 = 0;
        let mut executed: u64 = 0;
        let mut read_timing = crate::batch::ReadTiming::default();
        // one batch buffer for the life of the loop: a drain swaps it
        // with the queue's deque, `execute_batch` hands it back empty
        let mut batch = VecDeque::new();
        loop {
            // collective rendezvous: all ranks run pending OLAP jobs in
            // submission order before draining more interactive work
            while olap_served < inner.olap_submitted.load(Ordering::SeqCst) {
                ctx.barrier();
                let idx = olap_served as usize;
                let pending = {
                    let jobs = inner.olap_jobs.lock();
                    let p = jobs[idx].as_ref().expect("job served before tombstone");
                    (p.job.clone(), p.ticket.clone())
                };
                let value = (pending.0)(&eng);
                ctx.barrier();
                if rank == 0 {
                    // jobs commit too (maintenance, transactions inside
                    // analytics): same health watch as after a batch
                    self.observe_store_health();
                    pending
                        .1
                        .fulfill(OpOutcome::Committed(OpReply::Scalar(value)));
                }
                // the fulfillment above must be visible before any rank
                // can tombstone the slot (whose drop-guard would
                // otherwise resolve the ticket as aborted)
                ctx.barrier();
                let mut jobs = inner.olap_jobs.lock();
                if let Some(p) = jobs[idx].as_mut() {
                    p.served_by += 1;
                    if p.served_by == inner.db.nranks() {
                        jobs[idx] = None;
                    }
                }
                drop(jobs);
                olap_served += 1;
            }
            // block until there is a request, a job to rendezvous for, or
            // the queue closed — pushes, `submit_olap` and `shutdown` all
            // signal this queue's drainer
            let closed = inner.queues[rank].drain_wait(&mut batch, inner.opts.max_batch, || {
                olap_served < inner.olap_submitted.load(Ordering::SeqCst)
            });
            let drained = batch.len();
            if drained == 0 {
                if closed && olap_served == inner.olap_submitted.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            if trace {
                eprintln!("[serve r{rank}] drained {drained} closed={closed}");
            }
            ctx.record_drain(drained);
            batches += 1;
            executed += drained as u64;
            let t = execute_batch(
                &eng,
                &inner.counters[rank],
                &mut batch,
                &inner.opts,
                &inner.dedup,
            );
            read_timing.read_ns += t.read_ns;
            read_timing.read_ops += t.read_ops;
            read_timing.read_gets += t.read_gets;
            read_timing.read_atomics += t.read_atomics;
            // every rank watches the store after its own commits: redo
            // append errors degrade the server to read-only until a
            // checkpoint succeeds
            self.observe_store_health();
            // background maintenance cadence: rank 0 enqueues a
            // collective pass every n of its drain cycles; it executes
            // at the next OLAP rendezvous, where no serve-loop
            // transaction is in flight (the quiescence the passes need)
            if rank == 0 {
                if let Some(n) = inner.opts.maintenance_interval {
                    if n > 0 && batches.is_multiple_of(n) {
                        let ok = self.submit_olap(|eng| {
                            eng.maintenance();
                            1.0
                        });
                        if ok.is_ok() {
                            inner.maintenance_runs.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        if trace {
            eprintln!("[serve r{rank}] exiting after {executed} ops / {batches} batches");
        }
        inner.fabric_reports.lock()[rank] = Some(ctx.stats_snapshot());
        inner.serving.fetch_sub(1, Ordering::SeqCst);
        ServeSummary {
            rank,
            executed,
            batches,
            olap_jobs: olap_served,
            sim_serve_ns: ctx.now_ns() - sim_t0,
            sim_read_ns: read_timing.read_ns,
            read_ops: read_timing.read_ops,
            read_gets: read_timing.read_gets,
            read_atomics: read_timing.read_atomics,
            backend: ctx.backend(),
        }
    }

    /// Live metrics snapshot (callable at any time).
    pub fn metrics(&self) -> ServerMetrics {
        let inner = &*self.0;
        let reports = inner.fabric_reports.lock();
        let per_rank = inner
            .counters
            .iter()
            .enumerate()
            .map(|(rank, c)| RankMetrics {
                rank,
                submitted: c.submitted.load(Ordering::Relaxed),
                rejected: c.rejected.load(Ordering::Relaxed),
                committed: c.committed.load(Ordering::Relaxed),
                aborted: c.aborted.load(Ordering::Relaxed),
                deadline_misses: c.deadline_misses.load(Ordering::Relaxed),
                dedup_hits: c.dedup_hits.load(Ordering::Relaxed),
                queue_depth: inner.queues[rank].len(),
                latency: c.latency.lock().clone(),
                fabric: reports[rank],
            })
            .collect();
        ServerMetrics {
            per_rank,
            wall_elapsed_s: inner.started.elapsed().as_secs_f64(),
            checkpoints: inner.checkpoints.load(Ordering::Relaxed),
            maintenance_runs: inner.maintenance_runs.load(Ordering::Relaxed),
            recovery: inner.recovered.clone(),
            backend: *inner.backend.lock(),
            degraded: inner.degraded.load(Ordering::SeqCst),
            degraded_entries: inner.degraded_entries.load(Ordering::Relaxed),
            write_rejects: inner.write_rejects.load(Ordering::Relaxed),
            retries: inner.retries.load(Ordering::Relaxed),
            fault_hits: inner
                .db
                .persistence()
                .map(|s| s.fault_plane().fired())
                .unwrap_or(0),
        }
    }
}

/// A lightweight client handle: submit ops, await outcomes. Thousands of
/// sessions can share one server; a session itself is not thread-safe
/// (clone the server and open more sessions instead).
pub struct Session {
    server: GdiServer,
    id: u64,
}

impl Session {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submit asynchronously; the ticket resolves to exactly one outcome.
    pub fn submit(&self, op: Op) -> Result<Ticket, SubmitError> {
        self.server.submit_from(op, self.id)
    }

    /// Submit and wait (one closed-loop op).
    pub fn execute(&self, op: Op) -> Result<OpOutcome, SubmitError> {
        self.submit(op).map(|t| t.wait())
    }

    /// Submit with a client-supplied **idempotency token** and bounded
    /// retries. The serving rank consults the server's dedup window
    /// before executing a tokened op and records its committed outcome
    /// after, so resubmitting the same token never double-applies: a
    /// retry whose earlier attempt actually committed gets the recorded
    /// outcome back instead of re-executing.
    ///
    /// Undecided outcomes are retried up to `max_retries` times:
    /// [`OpOutcome::DeadlineExceeded`] (shed before execution — always
    /// safe), [`OpOutcome::Indeterminate`] (the retry re-executes; if it
    /// decides, the decision is recorded for any further retry), and
    /// transient admission failures ([`SubmitError::Overloaded`] /
    /// [`SubmitError::Paused`]). Decided outcomes (commit or abort)
    /// return immediately. The last undecided outcome is returned when
    /// the retry budget runs out.
    pub fn execute_idempotent(
        &self,
        op: Op,
        token: u64,
        max_retries: usize,
    ) -> Result<OpOutcome, SubmitError> {
        let mut last: Option<OpOutcome> = None;
        for attempt in 0..=max_retries {
            if attempt > 0 {
                self.server.0.retries.fetch_add(1, Ordering::Relaxed);
            }
            match self
                .server
                .submit_with_token(op.clone(), self.id, Some(token))
            {
                Ok(t) => match t.wait() {
                    out @ (OpOutcome::Committed(_) | OpOutcome::Aborted(_)) => return Ok(out),
                    // undecided: retry; a decided earlier attempt is
                    // resolved by the serving rank's dedup-window check
                    out => last = Some(out),
                },
                // transient admission failures are worth the retry budget
                Err(SubmitError::Overloaded { .. } | SubmitError::Paused)
                    if attempt < max_retries => {}
                Err(e) => return Err(e),
            }
        }
        Ok(last.expect("at least one attempt ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_window_records_and_evicts_fifo() {
        let mut w = DedupWindow::new(2);
        assert!(w.get(1).is_none());
        w.record(1, OpOutcome::Committed(OpReply::Unit));
        w.record(2, OpOutcome::Committed(OpReply::Count(3)));
        assert_eq!(w.get(1), Some(OpOutcome::Committed(OpReply::Unit)));
        // re-recording an existing token must not double-enter the queue
        w.record(1, OpOutcome::Committed(OpReply::Unit));
        w.record(3, OpOutcome::Committed(OpReply::Unit));
        assert!(w.get(1).is_none(), "oldest token evicted");
        assert!(w.get(2).is_some() && w.get(3).is_some());
    }
}
