//! The request/response vocabulary of the service layer.
//!
//! A client session submits [`Op`]s; each submission yields a [`Ticket`]
//! that resolves to exactly one [`OpOutcome`] — the acknowledgement
//! contract the stress tests assert (no lost acks, no double-apply).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use gdi::{AppVertexId, GdiError, LabelId, PTypeId, PropertyValue};
use rma::WakeSource;

/// One client operation, mirroring the Table-3 interactive op kinds plus
/// the read-only point queries. Each op names the application vertex that
/// determines its owning rank (see [`crate::GdiServer::route`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Read one property (or the labels when `ptype` is `None`).
    GetVertexProps {
        v: AppVertexId,
        ptype: Option<PTypeId>,
    },
    /// Count incident edges.
    CountEdges { v: AppVertexId },
    /// Retrieve incident edge handles (returns the count to the client).
    GetEdges { v: AppVertexId },
    /// Insert a vertex, optionally labeled and with one property.
    AddVertex {
        v: AppVertexId,
        label: Option<LabelId>,
        prop: Option<(PTypeId, PropertyValue)>,
    },
    /// Delete a vertex and its incident edges.
    DeleteVertex { v: AppVertexId },
    /// Set/replace one property on a vertex.
    UpdateVertexProp {
        v: AppVertexId,
        ptype: PTypeId,
        value: PropertyValue,
    },
    /// Add a directed edge.
    AddEdge {
        from: AppVertexId,
        to: AppVertexId,
        label: Option<LabelId>,
    },
}

impl Op {
    /// The vertex whose owner rank serves this op.
    pub fn routing_vertex(&self) -> AppVertexId {
        match self {
            Op::GetVertexProps { v, .. }
            | Op::CountEdges { v }
            | Op::GetEdges { v }
            | Op::AddVertex { v, .. }
            | Op::DeleteVertex { v }
            | Op::UpdateVertexProp { v, .. } => *v,
            Op::AddEdge { from, .. } => *from,
        }
    }

    /// Read-only ops execute in the shared read transaction of a batch.
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Op::GetVertexProps { .. } | Op::CountEdges { .. } | Op::GetEdges { .. }
        )
    }

    /// The application id a successful `AddVertex` makes visible (used by
    /// the batcher to keep duplicate creates out of one group commit).
    pub fn creates_vertex(&self) -> Option<AppVertexId> {
        match self {
            Op::AddVertex { v, .. } => Some(*v),
            _ => None,
        }
    }
}

/// Successful payload of an op.
#[derive(Debug, Clone, PartialEq)]
pub enum OpReply {
    /// Write acknowledged (no payload).
    Unit,
    /// A count (edge counts, edge listings).
    Count(usize),
    /// Property values (empty when the vertex has none of the type).
    Props(Vec<PropertyValue>),
    /// Labels of a vertex.
    Labels(Vec<LabelId>),
    /// Scalar result of an OLAP job.
    Scalar(f64),
}

/// Exactly-once resolution of a submitted op.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    /// The op committed (alone or as part of a group commit).
    Committed(OpReply),
    /// The op aborted; no effects are visible.
    Aborted(GdiError),
    /// A group commit failed mid-write-back (resource exhaustion): the
    /// engine does not report which objects persisted, so this op may or
    /// may not be applied. The distributed-systems "commit uncertain"
    /// answer — clients must not blindly retry non-idempotent ops.
    Indeterminate(GdiError),
    /// The op spent longer than [`crate::ServerOptions::deadline`] queued
    /// and was shed *before execution*: provably zero effects, always
    /// safe to retry (see [`crate::Session::execute_idempotent`]).
    DeadlineExceeded,
}

impl OpOutcome {
    pub fn is_committed(&self) -> bool {
        matches!(self, OpOutcome::Committed(_))
    }
}

/// The single-assignment completion slot a serving rank resolves and a
/// client waits on. The `OnceLock` is the whole state: one atomic word
/// (empty → resolved, never back) guarding the outcome, so "exactly once"
/// is the state transition itself — a second resolution finds the word
/// taken and changes nothing, in release builds too. A waiter polls that
/// word and touches [`WakeSource`]'s lock only if it has to sleep.
#[derive(Debug, Default)]
pub(crate) struct TicketInner {
    outcome: OnceLock<OpOutcome>,
    wake: WakeSource,
}

impl TicketInner {
    /// The state transition: `true` if this call resolved the ticket.
    fn resolve(&self, outcome: OpOutcome) -> bool {
        let first = self.outcome.set(outcome).is_ok();
        if first {
            self.wake.notify();
        }
        first
    }

    /// Acknowledge an executed (or shed) request. The first resolution
    /// stands; a second one is a serve-loop bug.
    pub(crate) fn fulfill(&self, outcome: OpOutcome) {
        let first = self.resolve(outcome);
        debug_assert!(first, "ticket fulfilled twice (double ack)");
    }

    /// Resolve with `outcome` only if still pending (the drop-guards'
    /// path; never overwrites a real ack). On a resolved ticket — every
    /// request dropped after its ack — this is one load of the state.
    pub(crate) fn fulfill_if_pending(&self, outcome: OpOutcome) {
        self.resolve(outcome);
    }
}

/// Client-side handle to a pending op. `wait` blocks until the serving
/// rank publishes the outcome; every accepted submission is guaranteed to
/// be fulfilled exactly once (also on server shutdown).
#[derive(Debug, Clone)]
pub struct Ticket(pub(crate) Arc<TicketInner>);

impl Ticket {
    /// Block until the outcome is available.
    pub fn wait(&self) -> OpOutcome {
        let slot = &self.0.outcome;
        self.0.wake.wait_until(|| slot.get().is_some());
        slot.get()
            .expect("the wait ends on a resolved slot")
            .clone()
    }

    /// Non-blocking probe.
    pub fn try_get(&self) -> Option<OpOutcome> {
        self.0.outcome.get().cloned()
    }
}

/// A routed request as it travels through a rank queue.
pub(crate) struct Request {
    pub op: Op,
    pub ticket: Arc<TicketInner>,
    pub submitted: Instant,
    /// Client-supplied idempotency token: the serving rank consults the
    /// dedup window before executing and records the committed outcome
    /// after, so a retried token never double-applies.
    pub token: Option<u64>,
}

/// No lost acks, ever: a request dropped before execution (a panicking
/// serve loop unwinding its batch, a queue torn down mid-flight) still
/// resolves its ticket — as an abort, which is honest, since an
/// unexecuted op has no visible effects.
impl Drop for Request {
    fn drop(&mut self) {
        self.ticket
            .fulfill_if_pending(OpOutcome::Aborted(GdiError::TransactionClosed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_and_classification() {
        let v = AppVertexId(7);
        assert!(Op::CountEdges { v }.is_read());
        assert!(!Op::DeleteVertex { v }.is_read());
        let e = Op::AddEdge {
            from: AppVertexId(3),
            to: AppVertexId(9),
            label: None,
        };
        assert_eq!(e.routing_vertex(), AppVertexId(3));
        assert_eq!(e.creates_vertex(), None);
        let c = Op::AddVertex {
            v,
            label: None,
            prop: None,
        };
        assert_eq!(c.creates_vertex(), Some(v));
    }

    #[test]
    fn ticket_fulfil_and_wait() {
        let inner = Arc::new(TicketInner::default());
        let t = Ticket(inner.clone());
        assert!(t.try_get().is_none());
        inner.fulfill(OpOutcome::Committed(OpReply::Unit));
        assert_eq!(t.wait(), OpOutcome::Committed(OpReply::Unit));
        // a resolved ticket (and its clones) can be read again and again
        assert_eq!(t.clone().wait(), OpOutcome::Committed(OpReply::Unit));
        assert_eq!(t.try_get(), Some(OpOutcome::Committed(OpReply::Unit)));
    }

    /// Exactly once is the state transition: the first resolution
    /// stands, whoever comes second.
    #[test]
    fn first_resolution_stands() {
        let inner = TicketInner::default();
        assert!(inner.resolve(OpOutcome::Committed(OpReply::Count(1))));
        assert!(!inner.resolve(OpOutcome::DeadlineExceeded));
        inner.fulfill_if_pending(OpOutcome::Aborted(GdiError::TransactionClosed));
        assert_eq!(
            inner.outcome.get(),
            Some(&OpOutcome::Committed(OpReply::Count(1)))
        );
    }

    /// A request dropped unexecuted resolves its ticket as an abort; one
    /// dropped after its ack leaves the ack alone.
    #[test]
    fn dropped_request_resolves_its_ticket() {
        let request = |ticket: &Arc<TicketInner>| Request {
            op: Op::CountEdges { v: AppVertexId(1) },
            ticket: ticket.clone(),
            submitted: Instant::now(),
            token: None,
        };
        let lost = Arc::new(TicketInner::default());
        drop(request(&lost));
        assert_eq!(
            Ticket(lost).wait(),
            OpOutcome::Aborted(GdiError::TransactionClosed)
        );
        let acked = Arc::new(TicketInner::default());
        let req = request(&acked);
        req.ticket.fulfill(OpOutcome::Committed(OpReply::Unit));
        drop(req);
        assert_eq!(Ticket(acked).wait(), OpOutcome::Committed(OpReply::Unit));
    }

    /// A waiter asleep on the ticket is woken by the ack.
    #[test]
    fn sleeping_waiter_is_woken() {
        let inner = Arc::new(TicketInner::default());
        let t = Ticket(inner.clone());
        let waiter = std::thread::spawn(move || {
            let t0 = Instant::now();
            (t.wait(), t0.elapsed())
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        inner.fulfill(OpOutcome::Committed(OpReply::Unit));
        let (out, waited) = waiter.join().unwrap();
        assert_eq!(out, OpOutcome::Committed(OpReply::Unit));
        assert!(waited < rma::wait::SAFETY_TIMEOUT / 2, "missed the wake");
    }
}
