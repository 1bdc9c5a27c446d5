//! Batch execution: coalescing compatible client ops into shared engine
//! transactions and fanning per-session outcomes back.
//!
//! One drain cycle yields one batch. Reads execute first inside a shared
//! read-only transaction; writes execute in grouped read-write
//! transactions closed by **one** commit each (group commit). The serial
//! order "all reads, then the write groups" is what every session is
//! acknowledged against, so the result is serializable.
//!
//! ## Prepare-then-mutate, and the exactly-once discipline
//!
//! Inside a write group every op runs in two phases: *prepare* (resolve
//! ids, take every write lock via [`Transaction::prepare_write`], no
//! mutation) and *mutate* (cache-only updates that can no longer
//! conflict). A prepare failure — usually a cross-rank lock conflict —
//! leaves the shared transaction untouched, so the batcher simply
//! acknowledges that op as aborted and keeps the group going: no group
//! abort, no re-execution, no double-apply.
//!
//! Two rare paths remain:
//! * an error that *does* poison the shared transaction (engine aborts
//!   it): the group aborts — zero visible effects — and every op without
//!   an outcome yet re-executes individually;
//! * a failed group *commit* (resource exhaustion mid-write-back): every
//!   grouped op is acknowledged [`OpOutcome::Indeterminate`] without
//!   re-execution, because the engine does not guarantee which objects of
//!   a failed commit persisted and re-running could double-apply. The
//!   batcher keeps this path nearly unreachable by deduplicating same-id
//!   `AddVertex` ops (the one commit-time error a front-end can provoke)
//!   out of the group.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::Instant;

use gda::{DPtr, GdaRank, Transaction};
use gdi::{AccessMode, EdgeOrientation, GdiError, TxStatus};
use parking_lot::Mutex;
use rustc_hash::FxHashSet;

use crate::metrics::RankCounters;
use crate::request::{Op, OpOutcome, OpReply, Request};
use crate::server::{DedupWindow, ServerOptions};

/// Shared per-rank execution context: outcome counters plus the
/// server-wide idempotency window committed outcomes are recorded into.
struct BatchCtx<'a> {
    counters: &'a RankCounters,
    dedup: &'a Mutex<DedupWindow>,
}

/// Apply one op inside an open transaction (unbatched path: ordinary
/// abort-on-critical-error semantics).
fn apply_op(tx: &Transaction, op: &Op) -> Result<OpReply, GdiError> {
    match op {
        Op::GetVertexProps { v, ptype } => {
            let id = tx.translate_vertex_id(*v)?;
            match ptype {
                Some(p) => Ok(OpReply::Props(tx.properties(id, *p)?)),
                None => Ok(OpReply::Labels(tx.labels(id)?)),
            }
        }
        Op::CountEdges { v } => {
            let id = tx.translate_vertex_id(*v)?;
            Ok(OpReply::Count(tx.edge_count(id, EdgeOrientation::Any)?))
        }
        Op::GetEdges { v } => {
            let id = tx.translate_vertex_id(*v)?;
            Ok(OpReply::Count(tx.edges(id, EdgeOrientation::Any)?.len()))
        }
        Op::AddVertex { v, label, prop } => {
            let id = tx.create_vertex(*v)?;
            if let Some(l) = label {
                tx.add_label(id, *l)?;
            }
            if let Some((p, value)) = prop {
                tx.add_property(id, *p, value)?;
            }
            Ok(OpReply::Unit)
        }
        Op::DeleteVertex { v } => {
            let id = tx.translate_vertex_id(*v)?;
            tx.delete_vertex(id)?;
            Ok(OpReply::Unit)
        }
        Op::UpdateVertexProp { v, ptype, value } => {
            let id = tx.translate_vertex_id(*v)?;
            tx.update_property(id, *ptype, value)?;
            Ok(OpReply::Unit)
        }
        Op::AddEdge { from, to, label } => {
            let a = tx.translate_vertex_id(*from)?;
            let b = tx.translate_vertex_id(*to)?;
            tx.add_edge(a, b, *label, true)?;
            Ok(OpReply::Unit)
        }
    }
}

/// Result of applying one op inside a *shared* (grouped) transaction.
enum GroupApply {
    /// Applied; commits with the group.
    Done(OpReply),
    /// Not applied, transaction untouched: acknowledge the abort and
    /// keep the group going.
    Skip(GdiError),
}

/// Undo a create after a post-create validation failure, keeping the op
/// all-or-nothing inside the shared transaction. The vertex is
/// transaction-local (created, unlocked by nobody else), so the delete
/// is a cache-only operation that cannot conflict.
fn rollback_create(tx: &Transaction, id: DPtr, e: GdiError) -> Result<GroupApply, GdiError> {
    tx.delete_vertex(id)?;
    Ok(GroupApply::Skip(e))
}

/// Prepare-then-mutate application of one write op in a shared grouped
/// transaction. `Err` means the shared transaction may be poisoned (the
/// caller aborts the group); `Ok(Skip)` means the op failed cleanly.
fn apply_grouped(tx: &Transaction, op: &Op) -> Result<GroupApply, GdiError> {
    macro_rules! prep {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                // prepare-phase failure: nothing mutated, skip this op
                Err(e) => return Ok(GroupApply::Skip(e)),
            }
        };
    }
    match op {
        Op::AddVertex { v, label, prop } => {
            let id = prep!(tx.create_vertex(*v));
            if let Some(l) = label {
                if let Err(e) = tx.add_label(id, *l) {
                    return rollback_create(tx, id, e);
                }
            }
            if let Some((p, value)) = prop {
                if let Err(e) = tx.add_property(id, *p, value) {
                    return rollback_create(tx, id, e);
                }
            }
            Ok(GroupApply::Done(OpReply::Unit))
        }
        Op::DeleteVertex { v } => {
            let id = prep!(tx.translate_vertex_id(*v));
            // probe-lock the deletion's whole write-set (the engine owns
            // the enumeration) so the delete itself cannot conflict
            prep!(tx.prepare_delete_vertex(id));
            tx.delete_vertex(id)?;
            Ok(GroupApply::Done(OpReply::Unit))
        }
        Op::UpdateVertexProp { v, ptype, value } => {
            let id = prep!(tx.translate_vertex_id(*v));
            prep!(tx.prepare_write(id));
            prep!(tx.update_property(id, *ptype, value));
            Ok(GroupApply::Done(OpReply::Unit))
        }
        Op::AddEdge { from, to, label } => {
            let a = prep!(tx.translate_vertex_id(*from));
            let b = prep!(tx.translate_vertex_id(*to));
            prep!(tx.prepare_write(a));
            prep!(tx.prepare_write(b));
            tx.add_edge(a, b, *label, true)?;
            Ok(GroupApply::Done(OpReply::Unit))
        }
        // reads never enter write groups
        Op::GetVertexProps { .. } | Op::CountEdges { .. } | Op::GetEdges { .. } => {
            Err(GdiError::InvalidArgument("read op in a write group"))
        }
    }
}

/// Classify a failed *write* commit: pre-write-back aborts
/// (StaleMetadata, collective validation) are provably effect-free,
/// while mid-write-back failures (resource exhaustion) may have
/// persisted earlier objects — the commit-uncertain case.
fn failed_commit_outcome(e: GdiError) -> OpOutcome {
    match e {
        GdiError::StaleMetadata | GdiError::ValidationFailed => OpOutcome::Aborted(e),
        _ => OpOutcome::Indeterminate(e),
    }
}

/// One transaction per request: the unbatched path, also the fallback
/// when a group poisons.
fn run_individual(eng: &GdaRank, req: &Request) -> OpOutcome {
    let read = req.op.is_read();
    let mode = if read {
        AccessMode::ReadOnly
    } else {
        AccessMode::ReadWrite
    };
    let tx = eng.begin(mode);
    match apply_op(&tx, &req.op) {
        Ok(reply) => match tx.commit() {
            Ok(()) => OpOutcome::Committed(reply),
            // reads have no effects, so their failed commit is a clean
            // abort; failed write commits are classified by error
            Err(e) if read => OpOutcome::Aborted(e),
            Err(e) => failed_commit_outcome(e),
        },
        Err(e) => {
            tx.abort();
            OpOutcome::Aborted(e)
        }
    }
}

/// Record a decided-and-applied outcome for its token's retries (aborts
/// stay absent: no effects — a retry may honestly re-execute), then
/// resolve the ticket.
fn record_and_ack(bc: &BatchCtx, req: &Request, outcome: OpOutcome) {
    if let (Some(token), true) = (req.token, outcome.is_committed()) {
        bc.dedup.lock().record(token, outcome.clone());
    }
    req.ticket.fulfill(outcome);
}

/// Acknowledge one op. Its counters come first, so a client that sees
/// its ticket resolve also sees the op in [`crate::GdiServer::metrics`].
fn fulfill(bc: &BatchCtx, req: &Request, outcome: OpOutcome) {
    let op = (outcome.is_committed(), req.submitted.elapsed());
    bc.counters.complete(std::iter::once(op));
    record_and_ack(bc, req, outcome);
}

/// Acknowledge ops decided together (a validated read group, a committed
/// write group): one clock read and one pass over the rank's counters
/// for the whole group, then the tickets.
fn ack_group(bc: &BatchCtx, group: Vec<(&Request, OpOutcome)>) {
    let now = Instant::now();
    bc.counters.complete(group.iter().map(|(req, outcome)| {
        let waited = now.saturating_duration_since(req.submitted);
        (outcome.is_committed(), waited)
    }));
    for (req, outcome) in group {
        record_and_ack(bc, req, outcome);
    }
}

/// Execute one drained batch and leave `batch` empty. A batch of one
/// request is served in its own transaction (what
/// [`ServerOptions::unbatched`] drains, the baseline the throughput
/// bench compares against); anything larger is grouped.
pub(crate) fn execute_batch(
    eng: &GdaRank,
    counters: &RankCounters,
    batch: &mut VecDeque<Request>,
    opts: &ServerOptions,
    dedup: &Mutex<DedupWindow>,
) -> ReadTiming {
    let bc = BatchCtx { counters, dedup };
    // triage before execution: requests that outlived the per-op
    // deadline are shed (provably unexecuted, safe to retry); tokened
    // requests whose outcome is already decided in the dedup window are
    // answered from it (a retry after a lost ack) — never re-applied
    batch.retain(|req| {
        if let Some(d) = opts.deadline {
            if req.submitted.elapsed() > d {
                counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
                req.ticket.fulfill(OpOutcome::DeadlineExceeded);
                return false;
            }
        }
        if let Some(token) = req.token {
            if let Some(prev) = dedup.lock().get(token) {
                counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
                req.ticket.fulfill(prev);
                return false;
            }
        }
        true
    });
    if batch.is_empty() {
        return ReadTiming::default();
    }
    let timing = execute_batch_inner(eng, &bc, batch);
    // every request has its outcome: dropping one is a state read. The
    // emptied buffer goes back to the serve loop for the next drain
    batch.clear();
    timing
}

/// Active-clock time a batch spent inside **read** requests (simulated ns
/// on the LogGP backend, wall ns otherwise) and how many it served — the
/// per-class service-time split the read-path benches gate on, which the
/// blended per-op number can't show (a handful of write commits amortize
/// MVCC bookkeeping that would otherwise drown the read-side win).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReadTiming {
    pub read_ns: f64,
    pub read_ops: u64,
}

impl ReadTiming {
    fn add(&mut self, ns: f64, ops: u64) {
        self.read_ns += ns;
        self.read_ops += ops;
    }
}

/// Maximum writes per grouped transaction: bounds the write-lock
/// footprint one group holds while it executes.
const WRITE_GROUP: usize = 16;

fn execute_batch_inner(eng: &GdaRank, bc: &BatchCtx, batch: &VecDeque<Request>) -> ReadTiming {
    let mut timing = ReadTiming::default();
    if batch.len() == 1 {
        let req = &batch[0];
        let t0 = eng.ctx().now_ns();
        let out = run_individual(eng, req);
        fulfill(bc, req, out);
        if req.op.is_read() {
            timing.add(eng.ctx().now_ns() - t0, 1);
        }
        return timing;
    }

    let mut reads: Vec<&Request> = Vec::new();
    let mut writes: Vec<&Request> = Vec::new();
    let mut solo: Vec<&Request> = Vec::new();
    let mut created: FxHashSet<u64> = FxHashSet::default();
    for req in batch {
        if req.op.is_read() {
            reads.push(req);
        } else if let Some(app) = req.op.creates_vertex() {
            // only the first create of an app id may join a group; a
            // duplicate would fail at commit time (DHT insert) and poison
            // the whole group's outcome
            if created.insert(app.0) {
                writes.push(req);
            } else {
                solo.push(req);
            }
        } else {
            writes.push(req);
        }
    }

    // ---- shared read-only transaction --------------------------------
    if !reads.is_empty() {
        let read_t0 = eng.ctx().now_ns();
        let tx = eng.begin(AccessMode::ReadOnly);
        // outcomes are buffered and acknowledged only after the shared
        // transaction passes commit-time validation (§3.8 staleness) —
        // acking earlier would bypass a check the direct API surfaces
        let mut buffered: Vec<(&Request, OpOutcome)> = Vec::with_capacity(reads.len());
        for req in &reads {
            if tx.status() != TxStatus::Active {
                // a critical error killed the shared transaction; the
                // remaining reads fall back individually
                let out = run_individual(eng, req);
                fulfill(bc, req, out);
                continue;
            }
            match apply_op(&tx, &req.op) {
                Ok(reply) => buffered.push((req, OpOutcome::Committed(reply))),
                Err(e) if tx.status() == TxStatus::Active => {
                    // honest per-op failure (NotFound etc.), tx unharmed
                    buffered.push((req, OpOutcome::Aborted(e)));
                }
                Err(_) => {
                    // this read's critical error poisoned the shared tx:
                    // give it the same individual retry the reads behind
                    // it will get
                    let out = run_individual(eng, req);
                    fulfill(bc, req, out);
                }
            }
        }
        if tx.status() != TxStatus::Active || tx.commit().is_ok() {
            ack_group(bc, buffered);
        } else {
            for (req, outcome) in buffered {
                if outcome.is_committed() {
                    // stale-metadata commit failure: reads are
                    // effect-free, so re-run against a fresh snapshot
                    let out = run_individual(eng, req);
                    fulfill(bc, req, out);
                } else {
                    fulfill(bc, req, outcome);
                }
            }
        }
        timing.add(eng.ctx().now_ns() - read_t0, reads.len() as u64);
    }

    // ---- grouped write transactions (group commit) --------------------
    // bounded sub-groups keep the write-lock footprint (and thus the
    // cross-rank conflict window) proportional to `WRITE_GROUP`, not to
    // whatever the drain returned
    for chunk in writes.chunks(WRITE_GROUP) {
        execute_write_group(eng, bc, chunk);
    }

    // ---- deduplicated creates, after the groups made theirs visible ---
    for req in &solo {
        let out = run_individual(eng, req);
        fulfill(bc, req, out);
    }
    timing
}

/// One write group: a single grouped transaction, one commit, outcomes
/// fanned back per session (see the module docs for the discipline).
fn execute_write_group(eng: &GdaRank, bc: &BatchCtx, writes: &[&Request]) {
    if writes.is_empty() {
        return;
    }
    if writes.len() == 1 {
        let req = writes[0];
        let out = run_individual(eng, req);
        fulfill(bc, req, out);
        return;
    }
    let tx = eng.begin_grouped(AccessMode::ReadWrite);
    let mut done: Vec<(&Request, OpOutcome)> = Vec::with_capacity(writes.len());
    let mut poison_at: Option<usize> = None;
    for (i, req) in writes.iter().enumerate() {
        match apply_grouped(&tx, &req.op) {
            Ok(GroupApply::Done(reply)) if tx.status() == TxStatus::Active => {
                done.push((req, OpOutcome::Committed(reply)));
            }
            Ok(GroupApply::Skip(e)) if tx.status() == TxStatus::Active => {
                // clean conflict: this op aborts, the group lives on
                fulfill(bc, req, OpOutcome::Aborted(e));
            }
            // the shared transaction was poisoned (engine-level abort)
            _ => {
                poison_at = Some(i);
                break;
            }
        }
    }
    match poison_at {
        None => match tx.commit() {
            Ok(()) => ack_group(bc, done),
            Err(e) => match failed_commit_outcome(e) {
                OpOutcome::Aborted(_) => {
                    // pre-write-back abort (stale metadata / validation):
                    // provably zero effects, so every applied op gets its
                    // honest individual re-run
                    for (req, _) in done {
                        let out = run_individual(eng, req);
                        fulfill(bc, req, out);
                    }
                }
                uncertain => {
                    // partial persistence is possible and re-running
                    // could double-apply: report commit-uncertain
                    for (_, outcome) in &mut done {
                        *outcome = uncertain.clone();
                    }
                    ack_group(bc, done);
                }
            },
        },
        Some(i) => {
            // group aborted: zero visible effects. Every op without an
            // outcome yet (applied ones and the unprocessed tail) gets
            // its honest individual execution.
            tx.abort();
            for (req, _) in done {
                let out = run_individual(eng, req);
                fulfill(bc, req, out);
            }
            for req in &writes[i..] {
                let out = run_individual(eng, req);
                fulfill(bc, req, out);
            }
        }
    }
}
