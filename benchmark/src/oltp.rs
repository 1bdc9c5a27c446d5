//! The closed-loop OLTP driver: one generator thread keeps [`SESSIONS`]
//! tickets in flight as a sliding window (wait for the oldest, stamp its
//! latency, submit that session's next op), cut into slices of equal op
//! count. Every slice drains before it ends, so a slice is a closed unit
//! of work: its ops, its wall time, its raw latencies, and — on the
//! durable workload — its one checkpoint.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use gdi::{AppVertexId, GdiError, PropertyValue};
use server::{GdiServer, Op, OpOutcome, OpReply, Session, Ticket};

use crate::boot::{fabric_counters, redo_bytes_on_disk};
use crate::opgen::{is_tagged, OpGen, Profile};
use crate::oracle::Oracle;
use crate::stats::{reduce_slice, SliceStats};
use crate::trace::{SpanId, Tracer};

/// Client sessions, each with one op in flight.
pub const SESSIONS: usize = 32;

/// Every `CHECK_EVERY`-th read reply is kept and checked (1 %).
const CHECK_EVERY: u64 = 100;
/// Every `TRACE_EVERY`-th request gets a `server.request` span.
const TRACE_EVERY: u64 = 64;

/// How long the measured window runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole slices until this much wall time has passed.
    Seconds(f64),
    /// Exactly this many slices (the determinism tests and `--smoke`).
    Slices(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct OltpPlan {
    pub slice_ops: u64,
    pub warmup_ops: u64,
    pub budget: Budget,
    /// One `GdiServer::checkpoint()` at the end of every slice, inside
    /// the slice's wall time.
    pub checkpoint_per_slice: bool,
}

/// A read reply kept for checking against the generator functions.
enum Sample {
    Props {
        v: u64,
        pidx: usize,
        got: Vec<PropertyValue>,
    },
    /// An edge count, with how many added edges at `v` were live and
    /// acknowledged when the read was submitted (`lo`; 0 on the workload
    /// whose deletes take edges away again) and how many had ever been
    /// submitted when it returned: the reply must lie between.
    Degree {
        v: u64,
        got: usize,
        lo: u32,
        hi: u32,
    },
}

/// What the client knows the database must contain.
pub struct Model {
    profile: Profile,
    n: u64,
    slots: usize,
    adds_submitted: Vec<u32>,
    adds_committed: Vec<u32>,
    /// Last committed update per `(vertex, property slot)`; 0 = none.
    updates: Vec<u64>,
    /// Generated endpoints of the committed edges at each live fresh
    /// vertex: deleting it takes those edges away again.
    fresh_edges: HashMap<u64, Vec<u64>>,
    /// Fresh vertices whose delete committed (a sample).
    deleted: Vec<u64>,
    samples: Vec<Sample>,
    reads_seen: u64,
    pub mismatches: Vec<String>,
    pub checks: u64,
}

impl Model {
    pub fn new(gen: &OpGen, profile: Profile) -> Self {
        let n = gen.spec().n_vertices();
        let slots = gen.spec().lpg.props_per_vertex;
        Self {
            profile,
            n,
            slots,
            adds_submitted: vec![0; n as usize],
            adds_committed: vec![0; n as usize],
            updates: if profile == Profile::WriteSteady {
                vec![0; n as usize * slots]
            } else {
                Vec::new()
            },
            fresh_edges: HashMap::new(),
            deleted: Vec::new(),
            samples: Vec::new(),
            reads_seen: 0,
            mismatches: Vec::new(),
            checks: 0,
        }
    }

    fn bump(counts: &mut [u32], n: u64, op: &Op) {
        if let Op::AddEdge { from, to, .. } = op {
            for v in [from.0, to.0] {
                if v < n {
                    counts[v as usize] += 1;
                }
            }
        }
    }

    fn submitted(&mut self, op: &Op) -> u32 {
        Self::bump(&mut self.adds_submitted, self.n, op);
        match op {
            Op::CountEdges { v } | Op::GetEdges { v } if self.profile != Profile::WriteSteady => {
                self.adds_committed[v.0 as usize]
            }
            _ => 0,
        }
    }

    /// A committed update made outside the driver (the direct-transaction
    /// probe), so the recovery check expects it.
    pub fn note_update(&mut self, v: u64, slot: usize, value: u64) {
        if let Some(cell) = self.updates.get_mut(v as usize * self.slots + slot) {
            *cell = value;
        }
    }

    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        } else if self.mismatches.len() == 20 {
            self.mismatches.push("... further mismatches elided".into());
        }
    }

    /// Account one resolved op; returns whether it committed.
    fn resolved(&mut self, gen: &OpGen, op: &Op, lo: u32, outcome: OpOutcome) -> bool {
        let reply = match outcome {
            OpOutcome::Committed(reply) => reply,
            // a lock conflict is an honest abort; anything else on these
            // workloads (which never name a missing vertex) is a defect
            OpOutcome::Aborted(GdiError::LockConflict) => return false,
            other => {
                self.mismatch(format!("{op:?} resolved {other:?}"));
                return false;
            }
        };
        Self::bump(&mut self.adds_committed, self.n, op);
        match (op, reply) {
            (Op::UpdateVertexProp { v, ptype, value }, _)
                if self.profile == Profile::WriteSteady =>
            {
                let props = gen.spec().lpg.vertex_props(gen.spec().seed, v.0);
                let slot = props
                    .iter()
                    .position(|(i, _)| gen.meta().ptype(*i) == *ptype)
                    .expect("updates target an existing property");
                if let PropertyValue::U64(x) = value {
                    self.updates[v.0 as usize * self.slots + slot] = *x;
                }
            }
            (Op::AddEdge { from, to, .. }, _) if to.0 >= self.n && from.0 < self.n => {
                self.fresh_edges.entry(to.0).or_default().push(from.0);
            }
            (Op::DeleteVertex { v }, _) => {
                for from in self.fresh_edges.remove(&v.0).unwrap_or_default() {
                    self.adds_committed[from as usize] -= 1;
                }
                if self.deleted.len() < 4096 {
                    self.deleted.push(v.0);
                }
            }
            (Op::GetVertexProps { v, ptype: Some(p) }, OpReply::Props(got)) => {
                self.reads_seen += 1;
                if self.reads_seen.is_multiple_of(CHECK_EVERY) {
                    let pidx = gen
                        .meta()
                        .ptypes
                        .iter()
                        .position(|x| x == p)
                        .expect("known ptype");
                    self.samples.push(Sample::Props { v: v.0, pidx, got });
                }
            }
            (Op::CountEdges { v } | Op::GetEdges { v }, OpReply::Count(got)) => {
                self.reads_seen += 1;
                if self.reads_seen.is_multiple_of(CHECK_EVERY) {
                    let hi = self.adds_submitted[v.0 as usize];
                    self.samples.push(Sample::Degree {
                        v: v.0,
                        got,
                        lo,
                        hi,
                    });
                }
            }
            (op, reply) if op.is_read() => self.mismatch(format!("{op:?} replied {reply:?}")),
            _ => {}
        }
        true
    }

    /// Check every kept read reply against the generator functions.
    pub fn check_samples(&mut self, gen: &OpGen, oracle: &Oracle) {
        let spec = *gen.spec();
        for s in std::mem::take(&mut self.samples) {
            self.checks += 1;
            match s {
                Sample::Props { v, pidx, got } => {
                    let want: Vec<PropertyValue> = spec
                        .lpg
                        .vertex_props(spec.seed, v)
                        .into_iter()
                        .filter(|(i, _)| *i == pidx)
                        .map(|(_, x)| PropertyValue::U64(x))
                        .collect();
                    // on the write workload a property may legitimately hold
                    // a value this benchmark wrote to that very property
                    let overwritten = self.profile == Profile::WriteSteady
                        && !want.is_empty()
                        && matches!(got[..], [PropertyValue::U64(x)] if is_tagged(v, pidx, x));
                    if got != want && !overwritten {
                        self.mismatch(format!("props of {v}/P{pidx}: got {got:?}, want {want:?}"));
                    }
                }
                Sample::Degree { v, got, lo, hi } => {
                    let base = oracle.degree(v) as usize;
                    if got < base + lo as usize || got > base + hi as usize {
                        self.mismatch(format!("edges of {v}: got {got}, want {base}+[{lo},{hi}]"));
                    }
                }
            }
        }
    }

    /// After recovery from the persistence directory alone: every
    /// sampled acknowledged write must be there. Returns the check count.
    pub fn check_recovered(&mut self, gen: &OpGen, oracle: &Oracle, session: &Session) -> u64 {
        const PER_CLASS: usize = 400;
        let before = self.checks;
        let run = |op: Op| session.execute(op).expect("recovered server accepts reads");
        let stride = |len: usize| (len / PER_CLASS).max(1);

        let touched: Vec<u64> = (0..self.n)
            .filter(|&v| self.adds_committed[v as usize] > 0)
            .collect();
        for &v in touched.iter().step_by(stride(touched.len())) {
            self.checks += 1;
            let want = (oracle.degree(v) + self.adds_committed[v as usize]) as usize;
            match run(Op::CountEdges { v: AppVertexId(v) }) {
                OpOutcome::Committed(OpReply::Count(c)) if c == want => {}
                got => self.mismatch(format!("recovered edges of {v}: {got:?}, want {want}")),
            }
        }
        let updated: Vec<usize> = (0..self.updates.len())
            .filter(|&i| self.updates[i] != 0)
            .collect();
        for &i in updated.iter().step_by(stride(updated.len())) {
            self.checks += 1;
            let v = (i / self.slots) as u64;
            let (pidx, _) = gen.spec().lpg.vertex_props(gen.spec().seed, v)[i % self.slots];
            let want = vec![PropertyValue::U64(self.updates[i])];
            match run(Op::GetVertexProps {
                v: AppVertexId(v),
                ptype: Some(gen.meta().ptype(pidx)),
            }) {
                OpOutcome::Committed(OpReply::Props(got)) if got == want => {}
                got => self.mismatch(format!("recovered {v}/P{pidx}: {got:?}, want {want:?}")),
            }
        }
        let alive: Vec<u64> = gen.alive().collect();
        for &v in alive.iter().step_by(stride(alive.len())) {
            self.checks += 1;
            // an insert carries its id in P0; the LinkBench stream then
            // overwrites it, so there only the vertex must be back
            let want = vec![PropertyValue::U64(v)];
            let updated = self.profile == Profile::LinkBenchFresh;
            match run(Op::GetVertexProps {
                v: AppVertexId(v),
                ptype: Some(gen.meta().ptype(0)),
            }) {
                OpOutcome::Committed(OpReply::Props(got))
                    if got == want || (updated && got.len() == 1) => {}
                got => self.mismatch(format!("recovered insert {v}: {got:?}")),
            }
        }
        let deleted = std::mem::take(&mut self.deleted);
        for &v in deleted.iter().step_by(stride(deleted.len())) {
            self.checks += 1;
            match run(Op::CountEdges { v: AppVertexId(v) }) {
                OpOutcome::Aborted(GdiError::NotFound(_)) => {}
                got => self.mismatch(format!("deleted vertex {v} came back: {got:?}")),
            }
        }
        self.checks - before
    }
}

struct InFlight {
    session: usize,
    op: Op,
    ticket: Ticket,
    start: Instant,
    lo: u32,
    retries: u8,
}

/// A client retries an op that lost a lock race; its latency runs from
/// the first submit. An op still aborted after this many retries fails.
const MAX_RETRIES: u8 = 3;

/// The sliding-window client.
pub struct Driver<'a> {
    server: &'a GdiServer,
    sessions: Vec<Session>,
    pub gen: OpGen,
    pub model: Model,
    tracer: &'a Tracer,
    window: VecDeque<InFlight>,
    next_session: usize,
    requests: u64,
    pub attempted: u64,
    pub failed: u64,
    pub committed_writes: u64,
}

impl<'a> Driver<'a> {
    /// A client for one serving round; `gen` and `model` carry on from
    /// the round before ([`Driver::into_parts`]).
    pub fn new(server: &'a GdiServer, gen: OpGen, model: Model, tracer: &'a Tracer) -> Self {
        Self {
            server,
            sessions: (0..SESSIONS).map(|_| server.session()).collect(),
            gen,
            model,
            tracer,
            window: VecDeque::with_capacity(SESSIONS),
            next_session: 0,
            requests: 0,
            attempted: 0,
            failed: 0,
            committed_writes: 0,
        }
    }

    pub fn server(&self) -> &'a GdiServer {
        self.server
    }

    pub fn into_parts(self) -> (OpGen, Model) {
        (self.gen, self.model)
    }

    fn submit(&mut self, session: usize, start: Instant) {
        let op = self.gen.next(session);
        let lo = self.model.submitted(&op);
        let ticket = self.sessions[session]
            .submit(op.clone())
            .expect("blocking admission never rejects");
        self.window.push_back(InFlight {
            session,
            op,
            ticket,
            start,
            lo,
            retries: 0,
        });
    }

    /// Wait for the oldest ticket. Returns its session and completion
    /// time, or `None` when the op lost a lock race and was resubmitted.
    fn complete(&mut self, lat_ns: &mut Vec<u32>) -> Option<(usize, Instant)> {
        let mut f = self.window.pop_front().expect("window not empty");
        let outcome = f.ticket.wait();
        if outcome == OpOutcome::Aborted(GdiError::LockConflict) && f.retries < MAX_RETRIES {
            f.retries += 1;
            f.ticket = self.sessions[f.session]
                .submit(f.op.clone())
                .expect("blocking admission never rejects");
            self.window.push_back(f);
            return None;
        }
        let now = Instant::now();
        lat_ns.push((now - f.start).as_nanos().min(u32::MAX as u128) as u32);
        self.requests += 1;
        if self.requests.is_multiple_of(TRACE_EVERY) && self.tracer.on() {
            self.tracer.record(
                "server.request",
                SpanId::NONE,
                self.requests,
                self.tracer.ns_of(f.start),
                self.tracer.ns_of(now),
            );
        }
        let committed = self.model.resolved(&self.gen, &f.op, f.lo, outcome);
        self.gen.acked(f.session, &f.op, committed);
        self.attempted += 1;
        if !committed {
            self.failed += 1;
        } else if !f.op.is_read() {
            self.committed_writes += 1;
        }
        Some((f.session, now))
    }

    /// Run `ops` requests through the window and drain it. Returns the
    /// wall time from the first submit to the last completion, and fills
    /// `lat_ns` with one latency per request.
    pub fn run_ops(&mut self, ops: u64, lat_ns: &mut Vec<u32>) -> Instant {
        let t0 = Instant::now();
        let mut submitted = 0;
        while submitted < ops.min(SESSIONS as u64) {
            self.submit(self.next_session, t0);
            self.next_session = (self.next_session + 1) % SESSIONS;
            submitted += 1;
        }
        while !self.window.is_empty() {
            if let Some((session, now)) = self.complete(lat_ns) {
                if submitted < ops {
                    self.submit(session, now);
                    submitted += 1;
                }
            }
        }
        t0
    }
}

/// What the measured windows of one repetition produced (one window
/// per serving round, appended in order). Shared with the analytics
/// workload, whose slice is a cycle.
#[derive(Default)]
pub struct Window {
    pub slices: Vec<SliceStats>,
    /// Each slice-end checkpoint: client-side wall time in µs, then
    /// `CheckpointReport::wall_s`, bytes and whether it was a full rebase.
    pub checkpoints: Vec<(f64, f64, u64, bool)>,
    /// Every request latency of the window, ns (kept on traced OLTP runs
    /// for the tail percentile).
    pub all_lat_ns: Vec<u32>,
    /// Per slice: bytes the store wrote (redo appends + the slice's
    /// checkpoint files), committed writes, and whether the checkpoint
    /// was a full rebase.
    pub disk: Vec<(u64, u64, bool)>,
    pub redo_bytes: u64,
    pub committed_writes: u64,
    /// Redo bytes in the directory at the end of the last window, and
    /// what the fabric's log-write counters say they should be.
    pub redo_on_disk: (u64, u64),
    /// Redo bytes appended since the last checkpoint, over all rounds
    /// (each serving round counts from zero; the files do not).
    redo_since_checkpoint: u64,
    /// Slice rates split by whether the slice ran with spans on.
    pub traced_rates: Vec<f64>,
    pub untraced_rates: Vec<f64>,
}

impl Budget {
    /// Is a round that began at `started` and measured `slices` done?
    pub fn spent(self, started: Instant, slices: usize) -> bool {
        match self {
            Budget::Seconds(s) => started.elapsed() >= Duration::from_secs_f64(s),
            Budget::Slices(n) => slices >= n,
        }
    }
}

impl Window {
    /// Should the next slice run with spans on? Every other one does when
    /// `alternate`: `trace.overhead_frac` compares the two halves.
    pub fn next_traced(&self, alternate: bool) -> bool {
        alternate && self.slices.len() % 2 == 1
    }

    /// Append a measured slice with its disk account.
    pub fn push(&mut self, slice: SliceStats, traced: Option<bool>, disk: (u64, u64, bool)) {
        match traced {
            Some(true) => self.traced_rates.push(slice.ops_per_s),
            Some(false) => self.untraced_rates.push(slice.ops_per_s),
            None => {}
        }
        self.slices.push(slice);
        self.disk.push(disk);
    }

    /// Close a round whose log-write counters read `logged` (they count
    /// from the round's start): cross-check them against the directory.
    /// `truncated`: the round's last act was a checkpoint, which empties
    /// the redo files.
    pub fn close_round(&mut self, server: &GdiServer, logged: u64, truncated: bool) {
        self.redo_since_checkpoint = if truncated {
            0
        } else {
            self.redo_since_checkpoint + logged
        };
        self.redo_on_disk = (redo_bytes_on_disk(server), self.redo_since_checkpoint);
    }

    /// Bytes written per committed write, as the ratios the run's
    /// median is taken over. With a checkpoint per slice there is one:
    /// the total over the first whole rebase cycle — the first window
    /// opens right after a full snapshot and the cycle ends with the next
    /// — so it depends on op counts only, never on how many rebases a
    /// faster or slower run fits into its seconds. Otherwise one per
    /// slice: redo frames carry whole holders, and one write to a hub
    /// vertex would dominate a window-wide mean.
    pub fn disk_ratios(&self) -> Vec<f64> {
        match self.disk.iter().position(|d| d.2) {
            Some(end) => {
                let (bytes, writes) = self.disk[..=end]
                    .iter()
                    .fold((0, 0), |acc, d| (acc.0 + d.0, acc.1 + d.1));
                vec![bytes as f64 / writes as f64]
            }
            None => self
                .disk
                .iter()
                .filter(|d| d.1 > 0)
                .map(|d| d.0 as f64 / d.1 as f64)
                .collect(),
        }
    }
}

/// One slice: `slice_ops` requests through the window, drained, then the
/// slice's checkpoint if the plan has one. Returns the slice's wall time
/// in ns and the checkpoint as [`Window::checkpoints`] keeps it.
fn run_slice(
    driver: &mut Driver,
    plan: &OltpPlan,
    lat: &mut Vec<u32>,
) -> (u64, Option<(f64, f64, u64, bool)>) {
    lat.clear();
    let t0 = driver.run_ops(plan.slice_ops, lat);
    let checkpoint = plan.checkpoint_per_slice.then(|| {
        let c0 = Instant::now();
        let report = driver.server.checkpoint().expect("slice checkpoint");
        (
            c0.elapsed().as_secs_f64() * 1e6,
            report.wall_s,
            report.per_rank_bytes.iter().sum(),
            report.full,
        )
    });
    (t0.elapsed().as_nanos() as u64, checkpoint)
}

/// One serving round: warm up, then measure whole slices until the
/// budget is spent, appending to `out`. `first_round` is the round that
/// follows set-up; `last_round` keeps a checkpointing window open until
/// it holds one whole rebase cycle. `alternate_tracing` switches spans on
/// for every other slice.
pub fn measure(
    driver: &mut Driver,
    plan: &OltpPlan,
    out: &mut Window,
    (first_round, last_round): (bool, bool),
    keep_latencies: bool,
    alternate_tracing: bool,
) {
    let server = driver.server;
    let tracer = driver.tracer;
    let mut lat = Vec::with_capacity(plan.slice_ops as usize);
    let mut writes_mark = driver.committed_writes;
    if !plan.checkpoint_per_slice {
        // every round attaches afresh: its translation caches start cold
        driver.run_ops(plan.warmup_ops, &mut lat);
    } else if first_round {
        // Checkpoints are deltas chained on a full base until the chain
        // is rebased. Warm up through the first rebase, in short slices:
        // the window then opens at a known point of that cycle, and the
        // deltas before the first rebase (2-3x slower on this host) stay
        // out of it.
        for i in 0.. {
            driver.run_ops(plan.warmup_ops / 8, &mut lat);
            let full = server.checkpoint().expect("warm-up checkpoint").full;
            if full || i == 16 {
                break;
            }
        }
    } else {
        // a later round continues the checkpoint chain: its warm-up is a
        // slice like any other, kept in the disk account (its writes and
        // its checkpoint are part of the cycle) and out of the timings
        let (_, checkpoint) = run_slice(driver, plan, &mut lat);
        let (_, _, bytes, full) = checkpoint.expect("the plan checkpoints");
        let logged = fabric_counters(server).log_bytes;
        let writes = driver.committed_writes - writes_mark;
        out.disk.push((bytes + logged, writes, full));
    }
    let mut log_mark = fabric_counters(server).log_bytes;
    let (attempted0, failed0, log0, writes0) = (
        driver.attempted,
        driver.failed,
        log_mark,
        driver.committed_writes,
    );
    writes_mark = writes0;

    let slices0 = out.slices.len();
    let started = Instant::now();
    loop {
        let measured = out.slices.len() - slices0;
        // a checkpointing repetition always holds one whole rebase cycle
        let cycle_open = plan.checkpoint_per_slice
            && last_round
            && matches!(plan.budget, Budget::Seconds(_))
            && !out.disk.iter().any(|d| d.2)
            && measured < 16;
        if plan.budget.spent(started, measured) && !cycle_open {
            break;
        }
        let traced = out.next_traced(alternate_tracing);
        tracer.set(traced);
        let (wall_ns, checkpoint) = run_slice(driver, plan, &mut lat);
        if keep_latencies {
            out.all_lat_ns.extend_from_slice(&lat);
        }
        let slice = reduce_slice(plan.slice_ops, wall_ns, &mut lat);
        let log = fabric_counters(server).log_bytes;
        let (checkpoint_bytes, full) = checkpoint.map_or((0, false), |c| (c.2, c.3));
        out.checkpoints.extend(checkpoint);
        out.push(
            slice,
            alternate_tracing.then_some(traced),
            (
                checkpoint_bytes + (log - log_mark),
                driver.committed_writes - writes_mark,
                full,
            ),
        );
        (log_mark, writes_mark) = (log, driver.committed_writes);
    }
    tracer.set(false);
    out.redo_bytes += log_mark - log0;
    out.committed_writes += driver.committed_writes - writes0;
    out.close_round(server, log_mark, plan.checkpoint_per_slice);
    // the reported counts cover the measured windows only
    driver.attempted -= attempted0;
    driver.failed -= failed0;
}
