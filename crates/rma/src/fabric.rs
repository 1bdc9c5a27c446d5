//! The fabric: ranks, windows and one-sided operations.
//!
//! A [`Fabric`] models a distributed-memory machine with `P` ranks. Ranks
//! execute concurrently as OS threads inside [`Fabric::run`]; each rank owns
//! one instance of every registered window and reaches other ranks' windows
//! exclusively through the one-sided operations on [`RankCtx`] — there is no
//! shared-state backdoor, mirroring the discipline of MPI RMA / RDMA verbs.
//!
//! Time is priced by a pluggable backend ([`crate::BackendKind`]): the
//! LogGP simulator (deterministic, the committed-bench baseline) or real
//! wall-clock shared-memory execution (see [`crate::backend`]). The
//! operations themselves are identical either way.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{BackendKind, FabricTime};
use crate::barrier::PoisonBarrier;
use crate::cost::CostModel;
use crate::faults::{FaultMode, FaultPlane};
use crate::stats::{CommStats, Counter, RankReport};
use crate::window::Window;

/// Identifier of a registered window (index in registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WinId(pub usize);

pub(crate) struct Shared {
    pub nranks: usize,
    pub cost: CostModel,
    pub backend: BackendKind,
    /// `windows[rank][win]`
    pub windows: Vec<Vec<Window>>,
    /// Published simulated clocks (f64 bits), one slot per rank.
    pub clocks: Vec<AtomicU64>,
    /// Collective exchange board, one slot per rank.
    pub boards: Vec<Mutex<Option<Arc<dyn Any + Send + Sync>>>>,
    pub barrier: PoisonBarrier,
    /// Fault-injection registry probed at the quiesce/collective paths
    /// (and shared with storage layers above; see [`crate::faults`]).
    pub faults: Arc<FaultPlane>,
}

/// Builder for a [`Fabric`].
pub struct FabricBuilder {
    nranks: usize,
    window_bytes: Vec<usize>,
    cost: CostModel,
    backend: Option<BackendKind>,
    faults: Option<Arc<FaultPlane>>,
}

impl FabricBuilder {
    /// Start building a fabric with `nranks` simulated processes.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks >= 1, "a fabric needs at least one rank");
        assert!(nranks <= u16::MAX as usize, "rank ids must fit in 16 bits");
        Self {
            nranks,
            window_bytes: Vec::new(),
            cost: CostModel::default(),
            backend: None,
            faults: None,
        }
    }

    /// Register a symmetric window of `bytes` bytes on every rank. Windows
    /// receive consecutive [`WinId`]s starting from 0, in call order.
    pub fn window(mut self, bytes: usize) -> Self {
        self.window_bytes.push(bytes);
        self
    }

    /// Use a specific cost model (defaults to [`CostModel::default`]).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Pin the execution backend explicitly. Without this call the
    /// backend comes from the `GDI_FABRIC_BACKEND` environment variable
    /// (falling back to [`BackendKind::Sim`]) — tests that assert exact
    /// simulated charges pin [`BackendKind::Sim`] here so they stay
    /// green under a `wall` environment override.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Share a fault-injection plane with this fabric (defaults to a
    /// fresh, empty plane). Harnesses pass the same [`FaultPlane`] to the
    /// fabric and to the storage layer so one registry covers fabric
    /// latency points and persistence I/O points alike.
    pub fn faults(mut self, plane: Arc<FaultPlane>) -> Self {
        self.faults = Some(plane);
        self
    }

    pub fn build(self) -> Fabric {
        let backend = self.backend.unwrap_or_else(BackendKind::from_env);
        let windows = (0..self.nranks)
            .map(|_| self.window_bytes.iter().map(|&b| Window::new(b)).collect())
            .collect();
        let clocks = (0..self.nranks).map(|_| AtomicU64::new(0)).collect();
        let boards = (0..self.nranks).map(|_| Mutex::new(None)).collect();
        Fabric {
            shared: Arc::new(Shared {
                nranks: self.nranks,
                cost: self.cost,
                backend,
                windows,
                clocks,
                boards,
                barrier: PoisonBarrier::new(self.nranks),
                faults: self.faults.unwrap_or_default(),
            }),
            last_reports: Mutex::new(Vec::new()),
        }
    }
}

/// A simulated distributed-memory machine.
pub struct Fabric {
    shared: Arc<Shared>,
    last_reports: Mutex<Vec<RankReport>>,
}

impl Fabric {
    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.shared.nranks
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> CostModel {
        self.shared.cost
    }

    /// The execution backend this fabric prices operations with.
    pub fn backend(&self) -> BackendKind {
        self.shared.backend
    }

    /// Execute `f` once per rank, concurrently, and return the per-rank
    /// results in rank order. Communication statistics and final clocks
    /// (simulated and wall) are captured and retrievable via
    /// [`Fabric::last_reports`].
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&RankCtx) -> R + Sync,
        R: Send,
    {
        let shared = &self.shared;
        let epoch = std::time::Instant::now();
        let mut out: Vec<Option<(R, RankReport)>> = (0..shared.nranks).map(|_| None).collect();
        // The payload of the first rank that panicked with a *real*
        // failure (not the poison-barrier collapse of a peer); resumed on
        // the harness thread so the test failure names the original
        // assertion instead of a generic join error.
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shared.nranks);
            for rank in 0..shared.nranks {
                let f = &f;
                handles.push(scope.spawn(move || {
                    let ctx = RankCtx {
                        rank,
                        shared,
                        clock: FabricTime::new(shared.backend, epoch),
                        stats: CommStats::new(),
                        nb_depth: std::cell::Cell::new((0, 0.0)),
                        nb_flushes: std::cell::RefCell::new(vec![false; shared.nranks]),
                    };
                    // If this rank panics, poison the fabric barrier so
                    // peer ranks blocked in collectives fail fast instead
                    // of deadlocking the harness.
                    let r = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&ctx)))
                    {
                        Ok(r) => r,
                        Err(payload) => {
                            shared.barrier.poison();
                            std::panic::resume_unwind(payload);
                        }
                    };
                    let mut report = ctx.stats.snapshot();
                    report.sim_time_ns = ctx.clock.sim_ns();
                    report.wall_time_ns = ctx.clock.wall_ns();
                    (r, report)
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(v) => out[rank] = Some(v),
                    Err(payload) => match first_panic.as_ref() {
                        // Keep the lowest-rank *original* failure: a
                        // poison-barrier collapse only stands in while no
                        // real payload has been seen.
                        None => first_panic = Some(payload),
                        Some(cur)
                            if is_poison_collapse(&**cur) && !is_poison_collapse(&*payload) =>
                        {
                            first_panic = Some(payload)
                        }
                        Some(_) => {}
                    },
                }
            }
        });
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        let mut reports = Vec::with_capacity(shared.nranks);
        let mut results = Vec::with_capacity(shared.nranks);
        for slot in out {
            let (r, rep) = slot.unwrap();
            results.push(r);
            reports.push(rep);
        }
        *self.last_reports.lock() = reports;
        results
    }

    /// Reports (comm statistics + final clocks) of the most recent
    /// [`Fabric::run`], in rank order.
    pub fn last_reports(&self) -> Vec<RankReport> {
        self.last_reports.lock().clone()
    }

    /// Maximum time over all ranks of the last run, in seconds, measured
    /// on the fabric's active backend: simulated seconds on
    /// [`BackendKind::Sim`], real elapsed seconds on [`BackendKind::Wall`].
    pub fn last_time_s(&self) -> f64 {
        let pick: fn(&RankReport) -> f64 = match self.shared.backend {
            BackendKind::Sim => |r| r.sim_time_ns,
            BackendKind::Wall => |r| r.wall_time_ns,
        };
        self.last_reports
            .lock()
            .iter()
            .map(pick)
            .fold(0.0, f64::max)
            / 1e9
    }

    /// Maximum *simulated* time over all ranks of the last run, in
    /// seconds (0 on a wall-backend run — nothing is ever charged).
    /// Prefer [`Fabric::last_time_s`], which follows the active backend.
    pub fn last_sim_time_s(&self) -> f64 {
        self.last_reports
            .lock()
            .iter()
            .map(|r| r.sim_time_ns)
            .fold(0.0, f64::max)
            / 1e9
    }
}

/// Is this panic payload the generic poison-barrier collapse of a peer
/// (as opposed to the original failure that caused the poisoning)?
fn is_poison_collapse(payload: &(dyn Any + Send)) -> bool {
    let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
        *s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        return false;
    };
    msg.contains("fabric barrier poisoned")
}

/// Per-rank execution context: the handle through which a rank performs all
/// fabric operations. Not `Send`/`Sync`: it lives on its rank's thread.
pub struct RankCtx<'a> {
    rank: usize,
    pub(crate) shared: &'a Shared,
    pub(crate) clock: FabricTime,
    pub(crate) stats: CommStats,
    /// Non-blocking batch state `(depth, max deferred latency)`: while the
    /// depth is non-zero, data-transfer operations charge only their
    /// injection/bandwidth terms and the largest network latency is
    /// deferred to the outermost [`RankCtx::end_nb_batch`] — modeling the
    /// latency overlap of non-blocking RDMA operations the paper relies on
    /// (§5.1: "we use non-blocking variants of all functions, because they
    /// can additionally increase performance by overlapping communication").
    /// Batches nest: an enclosing batch (e.g. a grouped transaction
    /// commit) absorbs inner ones, so the whole group shares one latency.
    pub(crate) nb_depth: std::cell::Cell<(u32, f64)>,
    /// Flush targets deferred inside an open non-blocking batch: their
    /// synchronization cost is charged once per distinct target at the
    /// outermost batch close (completion coalescing — the flushes of a
    /// group commit share one completion round per peer).
    pub(crate) nb_flushes: std::cell::RefCell<Vec<bool>>,
}

impl<'a> RankCtx<'a> {
    /// This rank's id, `0 ≤ rank < nranks`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.shared.nranks
    }

    /// The fabric's cost model.
    #[inline]
    pub fn cost_model(&self) -> &CostModel {
        &self.shared.cost
    }

    /// The execution backend pricing this rank's operations.
    #[inline]
    pub fn backend(&self) -> BackendKind {
        self.clock.backend()
    }

    /// Current time of this rank in nanoseconds on the active backend:
    /// simulated ns under [`BackendKind::Sim`], real elapsed ns since the
    /// start of [`Fabric::run`] under [`BackendKind::Wall`]. Deltas of
    /// this value are the timing source of every bench harness, so the
    /// same measurement code prices either backend.
    #[inline]
    pub fn now_ns(&self) -> f64 {
        self.clock.now_ns()
    }

    /// Real elapsed nanoseconds since the start of this [`Fabric::run`]
    /// (meaningful on both backends; on `Sim` it measures the simulator
    /// itself).
    #[inline]
    pub fn wall_ns(&self) -> f64 {
        self.clock.wall_ns()
    }

    /// Accrue local compute cost of `n` abstract CPU operations (hashing,
    /// filtering, arithmetic): used by workloads to model query-local
    /// work. On the wall backend the charge is a no-op — the compute
    /// already spent real time.
    #[inline]
    pub fn charge_cpu(&self, n: u64) {
        self.clock.advance(self.shared.cost.cpu_op_ns * n as f64);
    }

    /// Accrue an explicit amount of simulated nanoseconds (no-op on the
    /// wall backend).
    #[inline]
    pub fn charge_ns(&self, ns: f64) {
        self.clock.advance(ns);
    }

    /// Add `n` to this rank's counter `c` (see [`crate::stats`]). Pure
    /// accounting: whatever the counted work cost was charged by the
    /// fabric ops that did it.
    #[inline]
    pub fn count(&self, c: Counter, n: u64) {
        self.stats.add(c, n);
    }

    /// Drain hook for service layers: record that this rank dequeued `n`
    /// requests from its service queue in one poll, charging the modeled
    /// drain cost (one doorbell check + per-request dispatch). Serving
    /// ranks call this once per drain cycle so batched serving amortizes
    /// the poll overhead exactly as batched RDMA amortizes doorbells.
    pub fn record_drain(&self, n: usize) {
        self.clock.advance(self.shared.cost.drain(n));
        self.count(Counter::BatchesDrained, 1);
        self.count(Counter::RequestsServed, n as u64);
    }

    /// Persistence hook: record one durable redo-log append of `bytes`
    /// payload and charge its modeled device cost
    /// ([`CostModel::log_write`]) to this rank's clock. Called by the
    /// engine's commit path; group commit issues one append per grouped
    /// transaction, amortizing the fixed submission overhead exactly as
    /// the batched RMA write-back amortizes network latencies.
    pub fn record_log_write(&self, bytes: usize) {
        self.clock.advance(self.shared.cost.log_write(bytes));
        self.count(Counter::LogAppends, 1);
        self.count(Counter::LogBytes, bytes as u64);
    }

    /// Count a one-sided transfer of `bytes` towards `target`: a remote
    /// one as `op` plus its bytes under `volume`, a local one as one
    /// [`Counter::LocalOps`].
    #[inline]
    fn count_transfer(&self, target: usize, op: Counter, volume: Counter, bytes: usize) {
        if target == self.rank {
            self.count(Counter::LocalOps, 1);
        } else {
            self.count(op, 1);
            self.count(volume, bytes as u64);
        }
    }

    /// Count one atomic towards `target` (a local one as
    /// [`Counter::LocalOps`]).
    #[inline]
    fn count_atomic(&self, target: usize) {
        let c = if target == self.rank {
            Counter::LocalOps
        } else {
            Counter::Atomics
        };
        self.count(c, 1);
    }

    /// Quiesce the fabric: flush every peer, then synchronize all ranks
    /// (a barrier on the reconciled clock). After every rank returns,
    /// no one-sided operation issued before the quiesce is outstanding
    /// anywhere — the drain barrier a collective checkpoint runs behind.
    /// Collective: every rank must call it.
    pub fn quiesce(&self) {
        for target in 0..self.shared.nranks {
            if target != self.rank {
                self.flush(target);
            }
        }
        self.probe_fault(crate::faults::points::FABRIC_QUIESCE);
        self.count(Counter::Quiesces, 1);
        self.barrier();
    }

    /// The fault-injection plane shared by this fabric (see
    /// [`crate::faults`]); storage layers stacked on the fabric probe the
    /// same registry so one arming call covers the whole I/O path.
    pub fn fault_plane(&self) -> &Arc<FaultPlane> {
        &self.shared.faults
    }

    /// Probe the fault plane at a fabric fault point. Fabric paths have no
    /// error channel, so [`FaultMode::Latency`] is the meaningful mode
    /// here — it charges the simulated clock (sim backend) or sleeps (wall
    /// backend); other modes just count as a hit.
    pub(crate) fn probe_fault(&self, point: &str) {
        let Some(mode) = self.shared.faults.check(point, self.rank) else {
            return;
        };
        self.count(Counter::FaultInjections, 1);
        if let FaultMode::Latency(ns) = mode {
            match self.backend() {
                BackendKind::Sim => self.clock.advance(ns as f64),
                BackendKind::Wall => std::thread::sleep(std::time::Duration::from_nanos(ns)),
            }
        }
    }

    /// Communication statistics snapshot of this rank (so far).
    pub fn stats_snapshot(&self) -> RankReport {
        let mut r = self.stats.snapshot();
        r.sim_time_ns = self.clock.sim_ns();
        r.wall_time_ns = self.clock.wall_ns();
        r
    }

    #[inline]
    fn win(&self, win: WinId, rank: usize) -> &Window {
        &self.shared.windows[rank][win.0]
    }

    /// Size in bytes of a window (identical on all ranks).
    pub fn win_len_bytes(&self, win: WinId) -> usize {
        self.win(win, self.rank).len_bytes()
    }

    // ------------------------------------------------------------------
    // One-sided operations (paper §5.1: GET, PUT, CAS, AGET, APUT, flush)
    // ------------------------------------------------------------------

    /// Charge a data transfer, honouring an open non-blocking batch: inside
    /// a batch only injection overhead + bandwidth accrue immediately and
    /// the largest latency is deferred to the closing flush.
    #[inline]
    fn charge_transfer(&self, target: usize, bytes: usize) {
        let full = self.shared.cost.transfer(self.rank, target, bytes);
        let (depth, max_latency) = self.nb_depth.get();
        if depth == 0 {
            self.clock.advance(full);
        } else {
            let lat = if target == self.rank {
                0.0
            } else {
                self.shared.cost.l_ns
            };
            self.clock.advance(full - lat);
            self.nb_depth.set((depth, max_latency.max(lat)));
        }
    }

    /// Open a non-blocking batch: subsequent GET/PUT operations overlap
    /// their network latencies until the matching
    /// [`RankCtx::end_nb_batch`]. Batches nest; only the outermost close
    /// charges the deferred latency, so an enclosing batch (a grouped
    /// commit) extends the overlap window across everything inside it.
    pub fn begin_nb_batch(&self) {
        let (depth, max_latency) = self.nb_depth.get();
        self.nb_depth.set((depth + 1, max_latency));
    }

    /// Close a non-blocking batch (the local completion/flush point): the
    /// outermost close charges the largest deferred latency once, plus
    /// one coalesced synchronization per distinct target flushed inside
    /// the batch.
    pub fn end_nb_batch(&self) {
        let (depth, max_latency) = self.nb_depth.get();
        debug_assert!(depth > 0, "end_nb_batch without begin_nb_batch");
        if depth <= 1 {
            self.clock.advance(max_latency);
            self.nb_depth.set((0, 0.0));
            let mut deferred = self.nb_flushes.borrow_mut();
            for target in 0..deferred.len() {
                if deferred[target] {
                    deferred[target] = false;
                    self.clock
                        .advance(self.shared.cost.flush(self.rank, target));
                }
            }
        } else {
            self.nb_depth.set((depth - 1, max_latency));
        }
    }

    /// The issue half of a non-blocking GET of `len` bytes at `off`: on
    /// [`BackendKind::Wall`] it prefetches their cache lines, so a round
    /// that prefetches all its reads first overlaps its misses; on Sim the
    /// round's nb batch already defers the latency. Never charged or counted.
    #[inline]
    pub fn prefetch(&self, win: WinId, target: usize, off: usize, len: usize) {
        if self.backend() == BackendKind::Wall {
            self.win(win, target).prefetch(off, len);
        }
    }

    /// One-sided bulk GET: read `dst.len()` bytes from `target`'s window.
    pub fn get_bytes(&self, win: WinId, target: usize, off: usize, dst: &mut [u8]) {
        self.charge_transfer(target, dst.len());
        self.count_transfer(target, Counter::Gets, Counter::BytesGet, dst.len());
        self.win(win, target).read_bytes(off, dst);
    }

    /// One-sided bulk PUT: write `src` into `target`'s window.
    pub fn put_bytes(&self, win: WinId, target: usize, off: usize, src: &[u8]) {
        self.charge_transfer(target, src.len());
        self.count_transfer(target, Counter::Puts, Counter::BytesPut, src.len());
        self.win(win, target).write_bytes(off, src);
    }

    /// One-sided single-word GET (non-atomic flavour; still word-atomic).
    pub fn get_u64(&self, win: WinId, target: usize, word: usize) -> u64 {
        self.charge_transfer(target, 8);
        self.count_transfer(target, Counter::Gets, Counter::BytesGet, 8);
        self.win(win, target).load(word)
    }

    /// One-sided single-word PUT.
    pub fn put_u64(&self, win: WinId, target: usize, word: usize, v: u64) {
        self.charge_transfer(target, 8);
        self.count_transfer(target, Counter::Puts, Counter::BytesPut, 8);
        self.win(win, target).store(word, v)
    }

    /// Atomic GET of a 64-bit word (hardware-accelerated remote atomic).
    pub fn aget_u64(&self, win: WinId, target: usize, word: usize) -> u64 {
        self.clock
            .advance(self.shared.cost.atomic(self.rank, target));
        self.count_atomic(target);
        self.win(win, target).load(word)
    }

    /// Atomic PUT of a 64-bit word.
    pub fn aput_u64(&self, win: WinId, target: usize, word: usize, v: u64) {
        self.clock
            .advance(self.shared.cost.atomic(self.rank, target));
        self.count_atomic(target);
        self.win(win, target).store(word, v)
    }

    /// Remote compare-and-swap; returns the value observed at the target
    /// (equals `compare` iff the swap succeeded) — the paper's
    /// `CAS(local_new, compare, result, remote)`.
    pub fn cas_u64(&self, win: WinId, target: usize, word: usize, compare: u64, new: u64) -> u64 {
        self.clock
            .advance(self.shared.cost.atomic(self.rank, target));
        self.count_atomic(target);
        self.win(win, target).cas(word, compare, new)
    }

    /// Remote fetch-and-add; returns the previous value.
    pub fn fadd_u64(&self, win: WinId, target: usize, word: usize, delta: u64) -> u64 {
        self.clock
            .advance(self.shared.cost.atomic(self.rank, target));
        self.count_atomic(target);
        self.win(win, target).fadd(word, delta)
    }

    /// Remote fetch-and-sub; returns the previous value.
    pub fn fsub_u64(&self, win: WinId, target: usize, word: usize, delta: u64) -> u64 {
        self.clock
            .advance(self.shared.cost.atomic(self.rank, target));
        self.count_atomic(target);
        self.win(win, target).fsub(word, delta)
    }

    /// Flush: complete all outstanding one-sided operations towards `target`
    /// and make them visible. In this shared-memory fabric operations
    /// complete eagerly, so flush only charges its synchronization cost and
    /// issues a fence (the memory-visibility role flushes play on RDMA).
    /// Inside an open non-blocking batch the cost is deferred and
    /// coalesced — one synchronization per distinct target at the batch
    /// close — while the fence still executes immediately.
    pub fn flush(&self, target: usize) {
        let (depth, _) = self.nb_depth.get();
        if depth > 0 {
            self.nb_flushes.borrow_mut()[target] = true;
        } else {
            self.clock
                .advance(self.shared.cost.flush(self.rank, target));
        }
        self.count(Counter::Flushes, 1);
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Clock publication (used by collectives; see collectives.rs)
    // ------------------------------------------------------------------

    /// Publish this rank's clock and return the max over all ranks after a
    /// full synchronization. Internal building block for collectives.
    pub(crate) fn clock_sync(&self) -> f64 {
        self.shared.clocks[self.rank].store(self.clock.now_ns().to_bits(), Ordering::Release);
        self.shared.barrier.wait();
        let max = (0..self.shared.nranks)
            .map(|r| f64::from_bits(self.shared.clocks[r].load(Ordering::Acquire)))
            .fold(0.0, f64::max);
        self.shared.barrier.wait();
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_each_others_windows() {
        let fabric = FabricBuilder::new(4).window(256).build();
        let w = WinId(0);
        let ok = fabric.run(|ctx| {
            ctx.put_u64(w, ctx.rank(), 0, 1000 + ctx.rank() as u64);
            ctx.barrier();
            let peer = (ctx.rank() + 1) % ctx.nranks();
            ctx.get_u64(w, peer, 0) == 1000 + peer as u64
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn cas_is_globally_atomic() {
        // All ranks increment a counter on rank 0 via CAS loops; the final
        // value must equal the number of increments.
        const PER_RANK: u64 = 200;
        let fabric = FabricBuilder::new(8).window(64).build();
        let w = WinId(0);
        fabric.run(|ctx| {
            for _ in 0..PER_RANK {
                loop {
                    let cur = ctx.aget_u64(w, 0, 0);
                    if ctx.cas_u64(w, 0, 0, cur, cur + 1) == cur {
                        break;
                    }
                }
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                assert_eq!(ctx.aget_u64(w, 0, 0), 8 * PER_RANK);
            }
        });
    }

    #[test]
    fn fadd_counts() {
        let fabric = FabricBuilder::new(6).window(64).build();
        let w = WinId(0);
        fabric.run(|ctx| {
            ctx.fadd_u64(w, 0, 3, 5);
            ctx.barrier();
            assert_eq!(ctx.aget_u64(w, 0, 3), 30);
        });
    }

    #[test]
    fn bulk_transfer_roundtrip_across_ranks() {
        let fabric = FabricBuilder::new(2).window(4096).build();
        let w = WinId(0);
        fabric.run(|ctx| {
            if ctx.rank() == 0 {
                let payload: Vec<u8> = (0..255).collect();
                ctx.put_bytes(w, 1, 17, &payload);
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                let mut got = vec![0u8; 255];
                ctx.get_bytes(w, 1, 17, &mut got);
                assert_eq!(got, (0..255).collect::<Vec<u8>>());
            }
        });
    }

    #[test]
    fn sim_time_and_stats_are_reported() {
        let fabric = FabricBuilder::new(2)
            .backend(BackendKind::Sim)
            .window(64)
            .build();
        let w = WinId(0);
        fabric.run(|ctx| {
            let (me, peer) = (ctx.rank(), 1 - ctx.rank());
            ctx.put_u64(w, peer, 0, 1);
            ctx.flush(peer);
            // remote ops count with their bytes, local ones as `local_ops`
            ctx.put_bytes(w, me, 16, &[7; 8]);
            ctx.get_bytes(w, peer, 16, &mut [0; 32]);
            ctx.cas_u64(w, peer, 6, 0, 1);
            ctx.fadd_u64(w, me, 7, 1);
            ctx.allreduce_sum_u64(1);
        });
        let reports = fabric.last_reports();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!((r.puts, r.bytes_put), (1, 8));
            assert_eq!((r.gets, r.bytes_get), (1, 32));
            assert_eq!((r.atomics, r.local_ops), (1, 2));
            assert_eq!((r.collectives, r.coll_bytes), (1, 8));
            assert_eq!(r.flushes, 1);
            assert!(r.sim_time_ns > 0.0);
        }
        assert!(fabric.last_sim_time_s() > 0.0);
    }

    #[test]
    fn quiesce_flushes_and_synchronizes() {
        let fabric = FabricBuilder::new(4).window(256).build();
        let w = WinId(0);
        fabric.run(|ctx| {
            ctx.put_u64(w, (ctx.rank() + 1) % ctx.nranks(), 0, 7);
            ctx.quiesce();
            // after the quiesce every rank observes its inbound write
            assert_eq!(ctx.get_u64(w, ctx.rank(), 0), 7);
        });
        for r in fabric.last_reports() {
            assert_eq!(r.quiesces, 1);
            assert!(r.flushes >= 3, "quiesce flushes every peer");
        }
    }

    #[test]
    fn log_write_charges_and_counts() {
        let fabric = FabricBuilder::new(1)
            .backend(BackendKind::Sim)
            .window(64)
            .build();
        fabric.run(|ctx| {
            let t0 = ctx.now_ns();
            ctx.record_log_write(1024);
            ctx.record_log_write(0);
            let m = ctx.cost_model();
            let expect = 2.0 * m.log_o_ns + m.log_g_ns_per_byte * 1024.0;
            assert!((ctx.now_ns() - t0 - expect).abs() < 1e-9);
        });
        let r = fabric.last_reports()[0];
        assert_eq!(r.log_appends, 2);
        assert_eq!(r.log_bytes, 1024);
    }

    #[test]
    fn single_rank_fabric_works() {
        let fabric = FabricBuilder::new(1).window(64).build();
        let w = WinId(0);
        let v = fabric.run(|ctx| {
            ctx.aput_u64(w, 0, 0, 42);
            ctx.barrier();
            ctx.aget_u64(w, 0, 0)
        });
        assert_eq!(v, vec![42]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = FabricBuilder::new(0);
    }

    #[test]
    fn rank_panic_payload_survives_to_harness() {
        // a rank assertion must surface with its original message, not
        // the generic join error or a peer's poison-barrier collapse
        let fabric = FabricBuilder::new(4).window(64).build();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fabric.run(|ctx| {
                if ctx.rank() == 2 {
                    panic!("deliberate-rank-failure-6377");
                }
                // peers park in a collective and collapse via the poison
                ctx.barrier();
            });
        }))
        .expect_err("run must propagate the rank panic");
        assert!(
            !is_poison_collapse(&*err),
            "harness must not see the poison collapse as the failure"
        );
        let msg = err
            .downcast_ref::<&'static str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("deliberate-rank-failure-6377"),
            "original assertion message lost: {msg:?}"
        );
    }

    #[test]
    fn rank_panic_on_rank_zero_also_survives() {
        // rank 0 joins first; its payload must win over later collapses
        let fabric = FabricBuilder::new(2).window(64).build();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fabric.run(|ctx| {
                if ctx.rank() == 0 {
                    panic!("rank-zero-blew-up");
                }
                ctx.barrier();
            });
        }))
        .expect_err("run must propagate the rank panic");
        let msg = err
            .downcast_ref::<&'static str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("rank-zero-blew-up"), "got {msg:?}");
    }
}

#[cfg(test)]
mod wall_tests {
    use super::*;

    fn wall_fabric(n: usize, window: usize) -> Fabric {
        FabricBuilder::new(n)
            .backend(BackendKind::Wall)
            .window(window)
            .build()
    }

    #[test]
    fn wall_ops_are_correct_and_counted() {
        // same one-sided semantics, same op counters — only the clock
        // differs
        let fabric = wall_fabric(4, 256);
        assert_eq!(fabric.backend(), BackendKind::Wall);
        let w = WinId(0);
        let ok = fabric.run(|ctx| {
            assert_eq!(ctx.backend(), BackendKind::Wall);
            ctx.put_u64(w, ctx.rank(), 0, 1000 + ctx.rank() as u64);
            ctx.barrier();
            let peer = (ctx.rank() + 1) % ctx.nranks();
            let v = ctx.get_u64(w, peer, 0);
            ctx.fadd_u64(w, 0, 1, 1);
            ctx.flush(peer);
            ctx.barrier();
            v == 1000 + peer as u64 && ctx.aget_u64(w, 0, 1) == 4
        });
        assert!(ok.iter().all(|&b| b));
        for r in fabric.last_reports() {
            assert_eq!(r.flushes, 1);
            assert_eq!(r.sim_time_ns, 0.0, "wall backend must not charge sim time");
            assert!(r.wall_time_ns > 0.0, "wall time must be measured");
        }
        assert!(fabric.last_time_s() > 0.0);
        assert_eq!(fabric.last_sim_time_s(), 0.0);
    }

    #[test]
    fn wall_clock_is_monotone_and_uncharged() {
        let fabric = wall_fabric(1, 1024);
        let w = WinId(0);
        fabric.run(|ctx| {
            let t0 = ctx.now_ns();
            ctx.charge_ns(1e15); // a petasecond of "cost": must be a no-op
            ctx.charge_cpu(u64::MAX / 2);
            ctx.record_log_write(1 << 20);
            for i in 0..64 {
                ctx.put_u64(w, 0, i, i as u64);
            }
            let t1 = ctx.now_ns();
            assert!(t1 >= t0, "wall clock must be monotone");
            assert!(
                t1 - t0 < 1e12,
                "cost charges leaked into the wall clock: {} ns",
                t1 - t0
            );
        });
        let r = fabric.last_reports()[0];
        assert_eq!(r.log_appends, 1, "stats hooks keep counting on wall");
        assert_eq!(r.log_bytes, 1 << 20);
    }

    #[test]
    fn wall_nb_batch_and_collectives_work() {
        // nb-batch bookkeeping and collectives must run (and count)
        // identically even though nothing is charged
        let fabric = wall_fabric(3, 4096);
        let w = WinId(0);
        let sums = fabric.run(|ctx| {
            ctx.begin_nb_batch();
            for i in 0..8 {
                ctx.put_u64(w, (ctx.rank() + 1) % ctx.nranks(), i, ctx.rank() as u64);
            }
            ctx.flush((ctx.rank() + 1) % ctx.nranks());
            ctx.end_nb_batch();
            ctx.quiesce();
            ctx.allreduce_sum_u64(ctx.rank() as u64)
        });
        assert_eq!(sums, vec![3, 3, 3]);
        for r in fabric.last_reports() {
            assert_eq!(r.quiesces, 1);
            assert!(r.collectives >= 1);
        }
    }
}

#[cfg(test)]
mod nb_tests {
    use super::*;

    #[test]
    fn nb_batch_overlaps_latency() {
        // sequential: N puts pay N latencies; batched: one latency
        let w = WinId(0);
        let fabric = FabricBuilder::new(2)
            .backend(BackendKind::Sim)
            .window(4096)
            .build();
        let times = fabric.run(|ctx| {
            if ctx.rank() != 0 {
                return (0.0, 0.0);
            }
            let payload = [0u8; 64];
            let t0 = ctx.now_ns();
            for i in 0..10 {
                ctx.put_bytes(w, 1, i * 64, &payload);
            }
            let sequential = ctx.now_ns() - t0;

            let t1 = ctx.now_ns();
            ctx.begin_nb_batch();
            for i in 0..10 {
                ctx.put_bytes(w, 1, i * 64, &payload);
            }
            ctx.end_nb_batch();
            let batched = ctx.now_ns() - t1;
            (sequential, batched)
        });
        let (seq, bat) = times[0];
        assert!(bat < seq, "batched {bat} !< sequential {seq}");
        let l = CostModel::default().l_ns;
        // batched saves 9 of the 10 latencies
        assert!((seq - bat - 9.0 * l).abs() < 1e-6, "saved {}", seq - bat);
    }

    /// `prefetch` is a hint: on either backend it moves neither the
    /// simulated clock nor any counter, inside a batch or out, for
    /// ranges inside the window, running past its end or starting there.
    #[test]
    fn prefetch_is_never_charged_or_counted() {
        let w = WinId(0);
        for backend in [BackendKind::Sim, BackendKind::Wall] {
            let fabric = FabricBuilder::new(2).backend(backend).window(4096).build();
            fabric.run(|ctx| {
                let peer = 1 - ctx.rank();
                let seen = |r: RankReport| (r.sim_time_ns, r.counters().collect::<Vec<_>>());
                let before = seen(ctx.stats_snapshot());
                let len = ctx.win_len_bytes(w);
                for target in [ctx.rank(), peer] {
                    for (off, n) in [
                        (0, 24),
                        (60, 8),
                        (len - 8, 8),
                        (len - 8, 200),
                        (len, 64),
                        (3, 0),
                    ] {
                        ctx.prefetch(w, target, off, n);
                        ctx.begin_nb_batch();
                        ctx.prefetch(w, target, off, n);
                        ctx.end_nb_batch();
                    }
                }
                assert_eq!(seen(ctx.stats_snapshot()), before, "{backend}");
            });
        }
    }

    #[test]
    fn nb_batch_local_ops_free_of_latency() {
        let fabric = FabricBuilder::new(1).window(4096).build();
        let w = WinId(0);
        fabric.run(|ctx| {
            ctx.begin_nb_batch();
            ctx.put_u64(w, 0, 0, 7); // local: no deferred latency
            ctx.end_nb_batch();
            assert_eq!(ctx.get_u64(w, 0, 0), 7);
        });
    }
}
