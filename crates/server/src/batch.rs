//! Batch execution: coalescing compatible client ops into shared engine
//! transactions and fanning per-session outcomes back.
//!
//! One drain cycle yields one batch, and every op in it runs inside a
//! *group*: one shared transaction closed by **one** commit. The reads
//! form one read-only group; the writes form read-write groups of at
//! most [`WRITE_GROUP`] (group commit). The serial order "all reads, then
//! the write groups" is what every session is acknowledged against, so
//! the result is serializable. A drain of one request is a group of one;
//! there is no other executor.
//!
//! A read group resolves and reads its vertices together: one [`Transaction::translate_vertex_ids`]
//! (one round per DHT chain level), then one [`Transaction::associate_vertices`] for the ids that
//! resolved (one round per block level), so G reads pay their deepest chains' latency, not G
//! chains'. Each op is answered from its id's bytes; an id that did not resolve is its
//! `Aborted(NotFound)`.
//!
//! ## Prepare-then-mutate, and the exactly-once discipline
//!
//! Inside a write group every op runs in two phases: *prepare* (resolve
//! ids, take every write lock via [`Transaction::prepare_write`], no
//! mutation) and *mutate* (cache-only updates that can no longer
//! conflict). A prepare failure — usually a cross-rank lock conflict —
//! leaves the shared transaction untouched, so the batcher simply
//! acknowledges that op as aborted and keeps the group going: no group
//! abort, no re-execution, no double-apply. A read's failure (`NotFound`
//! and the like) is clean in the same way.
//!
//! A group fails as a whole in two rare ways, and one rule covers the
//! clean one: **re-run as a group of one**.
//! * An error that *does* poison the shared transaction (the engine
//!   aborts it), or a commit that fails before write-back
//!   (`StaleMetadata`, validation), leaves zero visible effects. Every op
//!   without a decided outcome re-runs as a group of one. A group of one
//!   is not retried again: the failure is its op's
//!   [`OpOutcome::Aborted`].
//! * A commit that fails mid-write-back (resource exhaustion) acknowledges
//!   every applied op [`OpOutcome::Indeterminate`] without re-execution,
//!   because the engine does not guarantee which objects of a failed
//!   commit persisted and re-running could double-apply. The batcher
//!   keeps this path nearly unreachable by deduplicating same-id
//!   `AddVertex` ops (the one commit-time error a front-end can provoke)
//!   out of the group: each duplicate runs after the groups, as a group
//!   of one.

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

/// Answer one read op about vertex `id` (the op's vertex, translated)
/// inside the group's shared read-only transaction.
fn apply_op(tx: &Transaction, op: &Op, id: DPtr) -> Result<OpReply, GdiError> {
    match op {
        Op::GetVertexProps { ptype: Some(p), .. } => Ok(OpReply::Props(tx.properties(id, *p)?)),
        Op::GetVertexProps { ptype: None, .. } => Ok(OpReply::Labels(tx.labels(id)?)),
        Op::CountEdges { .. } => Ok(OpReply::Count(tx.edge_count(id, EdgeOrientation::Any)?)),
        Op::GetEdges { .. } => Ok(OpReply::Count(tx.edges(id, EdgeOrientation::Any)?.len())),
        // writes never enter read groups
        Op::AddVertex { .. }
        | Op::DeleteVertex { .. }
        | Op::UpdateVertexProp { .. }
        | Op::AddEdge { .. } => Err(GdiError::InvalidArgument("write op in a read group")),
    }
}

/// Undo a create after a post-create validation failure, keeping the op
/// all-or-nothing inside the shared transaction. The vertex is
/// transaction-local (created, unlocked by nobody else), so the delete
/// is a cache-only operation that cannot conflict.
fn rollback_create(tx: &Transaction, id: DPtr, e: GdiError) -> Result<OpOutcome, GdiError> {
    tx.delete_vertex(id)?;
    Ok(OpOutcome::Aborted(e))
}

/// Prepare-then-mutate application of one write op in the group's shared
/// transaction. `Ok(Committed)` means applied (it commits with the
/// group); `Ok(Aborted)` means the op failed cleanly and left the
/// transaction untouched; `Err` means the shared transaction may be
/// poisoned (the caller aborts the group).
fn apply_grouped(tx: &Transaction, op: &Op) -> Result<OpOutcome, GdiError> {
    macro_rules! prep {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                // prepare-phase failure: nothing mutated, skip this op
                Err(e) => return Ok(OpOutcome::Aborted(e)),
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
        }
        Op::DeleteVertex { v } => {
            let id = prep!(tx.translate_vertex_id(*v));
            // probe-lock the deletion's whole write-set (the engine owns
            // the enumeration) so the delete itself cannot conflict
            prep!(tx.prepare_delete_vertex(id));
            tx.delete_vertex(id)?;
        }
        Op::UpdateVertexProp { v, ptype, value } => {
            let id = prep!(tx.translate_vertex_id(*v));
            prep!(tx.prepare_write(id));
            prep!(tx.update_property(id, *ptype, value));
        }
        Op::AddEdge { from, to, label } => {
            let a = prep!(tx.translate_vertex_id(*from));
            let b = prep!(tx.translate_vertex_id(*to));
            prep!(tx.prepare_write(a));
            prep!(tx.prepare_write(b));
            tx.add_edge(a, b, *label, true)?;
        }
        // reads never enter write groups
        Op::GetVertexProps { .. } | Op::CountEdges { .. } | Op::GetEdges { .. } => {
            return Err(GdiError::InvalidArgument("read op in a write group"));
        }
    }
    Ok(OpOutcome::Committed(OpReply::Unit))
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

/// Acknowledge ops decided together (a group's outcomes, or what its
/// failure leaves decided): one clock read and one pass over the rank's
/// counters for the whole group — so a client that sees its ticket
/// resolve also sees the op in [`crate::GdiServer::metrics`] — then each
/// committed outcome is recorded for its token's retries (aborts stay
/// absent: no effects, a retry may honestly re-execute) and the tickets
/// resolve.
fn ack_group(bc: &BatchCtx, group: Vec<(&Request, OpOutcome)>) {
    let now = Instant::now();
    bc.counters.complete(group.iter().map(|(req, outcome)| {
        let waited = now.saturating_duration_since(req.submitted);
        (outcome.is_committed(), waited)
    }));
    for (req, outcome) in group {
        if let (Some(token), true) = (req.token, outcome.is_committed()) {
            bc.dedup.lock().record(token, outcome.clone());
        }
        req.ticket.fulfill(outcome);
    }
}

/// Execute one drained batch and leave `batch` empty: its reads as one
/// group, its writes in groups of at most [`WRITE_GROUP`], and each
/// duplicate create as a group of one.
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
/// on the LogGP backend, wall ns otherwise), how many it served and the
/// remote gets and atomics they issued — the per-class service-time
/// split the read-path benches gate on, which the blended per-op number
/// can't show (a handful of write commits amortize MVCC bookkeeping
/// that would otherwise drown the read-side win).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReadTiming {
    pub read_ns: f64,
    pub read_ops: u64,
    pub read_gets: u64,
    pub read_atomics: u64,
}

/// Maximum writes per grouped transaction: bounds the write-lock
/// footprint one group holds while it executes.
const WRITE_GROUP: usize = 16;

fn execute_batch_inner(eng: &GdaRank, bc: &BatchCtx, batch: &VecDeque<Request>) -> ReadTiming {
    let mut timing = ReadTiming::default();
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

    // ---- one shared read-only transaction ------------------------------
    if !reads.is_empty() {
        let ctx = eng.ctx();
        let (t0, s0) = (ctx.now_ns(), ctx.stats_snapshot());
        execute_group(eng, bc, &reads);
        let s1 = ctx.stats_snapshot();
        timing = ReadTiming {
            read_ns: ctx.now_ns() - t0,
            read_ops: reads.len() as u64,
            read_gets: s1.gets - s0.gets,
            read_atomics: s1.atomics - s0.atomics,
        };
    }

    // ---- grouped write transactions (group commit) --------------------
    // bounded sub-groups keep the write-lock footprint (and thus the
    // cross-rank conflict window) proportional to `WRITE_GROUP`, not to
    // whatever the drain returned
    for chunk in writes.chunks(WRITE_GROUP) {
        execute_group(eng, bc, chunk);
    }

    // ---- deduplicated creates, after the groups made theirs visible ---
    for req in solo {
        execute_group(eng, bc, &[req]);
    }
    timing
}

/// One group — all reads or all writes, never empty: a single shared
/// transaction closed by one commit, outcomes fanned back per session
/// (see the module docs for the discipline). Outcomes are buffered and
/// acknowledged only once the commit decides them; for reads that is
/// commit-time validation (§3.8 staleness), which acking earlier would
/// bypass.
fn execute_group(eng: &GdaRank, bc: &BatchCtx, group: &[&Request]) {
    let write = !group[0].op.is_read();
    let tx = if write {
        eng.begin_grouped(AccessMode::ReadWrite)
    } else {
        eng.begin(AccessMode::ReadOnly)
    };
    // (module docs; a chain that does not read is not kept, so its op's
    // own read fetches it again and reports why)
    let mut ids = Vec::new();
    if !write {
        let apps: Vec<_> = group.iter().map(|req| req.op.routing_vertex()).collect();
        ids = tx.translate_vertex_ids(&apps);
        let found: Vec<DPtr> = ids.iter().flatten().copied().collect();
        let _ = tx.associate_vertices(&found);
    }
    let mut ids = ids.into_iter();
    let mut applied: Vec<(&Request, OpOutcome)> = Vec::with_capacity(group.len());
    let mut poison = None;
    for &req in group {
        let outcome = match ids.next() {
            None => apply_grouped(&tx, &req.op),
            // a read changes nothing: its failure (NotFound etc.) is
            // clean unless it closed the transaction
            Some(id) => Ok(id
                .and_then(|id| apply_op(&tx, &req.op, id))
                .map_or_else(OpOutcome::Aborted, OpOutcome::Committed)),
        };
        match outcome {
            Ok(out) if tx.status() == TxStatus::Active => applied.push((req, out)),
            // the shared transaction was poisoned (engine-level abort)
            Ok(OpOutcome::Aborted(e)) | Err(e) => {
                poison = Some(e);
                break;
            }
            Ok(_) => {
                poison = Some(GdiError::TransactionClosed);
                break;
            }
        }
    }
    let failure = match poison {
        Some(e) => {
            // the group aborts: zero visible effects
            tx.abort();
            OpOutcome::Aborted(e)
        }
        None => match tx.commit() {
            Ok(()) => {
                ack_group(bc, applied);
                return;
            }
            Err(e) if write => failed_commit_outcome(e),
            // reads have no effects, so their failed commit is clean
            Err(e) => OpOutcome::Aborted(e),
        },
    };
    // An op the failure left undecided — applied, or never reached
    // behind the poison — re-runs as a group of one when the failure was
    // clean and the group was larger. A group of one is not retried: the
    // failure is its op's outcome. A commit that failed mid-write-back
    // may have persisted part of the group, and re-running could
    // double-apply, so its applied ops are all `Indeterminate`.
    let tail = &group[applied.len()..];
    let mut decided = Vec::with_capacity(group.len());
    let mut undecided = Vec::with_capacity(group.len());
    for (req, out) in applied {
        // a clean per-op abort stands whatever the group does
        if out.is_committed() {
            undecided.push(req);
        } else {
            decided.push((req, out));
        }
    }
    undecided.extend_from_slice(tail);
    if group.len() > 1 && matches!(failure, OpOutcome::Aborted(_)) {
        ack_group(bc, decided);
        for req in undecided {
            execute_group(eng, bc, &[req]);
        }
    } else {
        decided.extend(undecided.into_iter().map(|req| (req, failure.clone())));
        ack_group(bc, decided);
    }
}
