//! # `server` — the GDI multi-session service layer
//!
//! The paper's engine (GDI-RMA, the [`gda`] crate) is driven rank-by-rank
//! from inside fabric closures. This crate adds the missing front-end: a
//! service layer that multiplexes thousands of concurrent client
//! *sessions* onto the engine and amortizes commit costs, turning the
//! reproduction into a system that serves traffic.
//!
//! * **Sessions** ([`Session`]) are lightweight handles issuing OLTP ops
//!   ([`Op`]), read-only queries and collective OLAP jobs
//!   ([`GdiServer::submit_olap`]). Every accepted submission yields a
//!   [`Ticket`] that resolves to exactly one [`OpOutcome`] — commit or
//!   abort, never a lost ack.
//! * **Routing**: each op is routed to the fabric rank that owns its
//!   vertex (the engine's round-robin partitioning) through a bounded
//!   MPSC queue per rank.
//! * **Request batching**: a serving rank drains up to
//!   [`ServerOptions::max_batch`] requests per cycle
//!   ([`rma::RankCtx::record_drain`] charges the amortized poll cost) and
//!   coalesces them: reads share one read-only transaction, writes share
//!   one grouped read-write transaction.
//! * **Group commit**: the write group closes with a single commit whose
//!   write-back runs as one non-blocking RMA batch
//!   ([`gda::GdaRank::begin_grouped`]); per-session outcomes are fanned
//!   back individually, with an exactly-once fallback discipline (see
//!   `batch.rs`).
//! * **Hand-offs that do not sleep**: a push, a drain and an ack are each
//!   a short critical section or a single atomic transition, and every
//!   waiter — serve loop on its queue, client on its ticket, producer on
//!   a full queue — polls, then yields, and only then sleeps
//!   ([`rma::wait`]); the notifier makes a system call only when someone
//!   actually sleeps. The serve loop blocks on one wake source that
//!   pushes, [`GdiServer::submit_olap`] and [`GdiServer::shutdown`] all
//!   signal; there is no polling interval.
//! * **Admission control**: the queue bound plus an
//!   [`AdmissionPolicy`] — block (backpressure) or reject (load
//!   shedding) — with live per-rank throughput, latency-percentile and
//!   abort-rate metrics ([`GdiServer::metrics`]) beside the fabric's
//!   [`rma::Counter`] table, exported together by name through
//!   [`ServerMetrics::snapshot`].
//!
//! ## Shape of a serving process
//!
//! ```text
//! sessions (any threads)          fabric ranks (inside fabric.run)
//!   session.execute(op) ──► queue[route(op)] ──► serve_rank: drain
//!   ticket.wait() ◄──────── outcomes fanned ◄─── batch → group commit
//! ```
//!
//! The server is created outside the fabric; every rank calls
//! [`GdiServer::serve_rank`] inside `fabric.run` (after loading), client
//! threads submit concurrently, and [`GdiServer::shutdown`] drains and
//! stops the loops. See `workloads::traffic` for the Table-3 session
//! driver.

pub mod batch;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod server;

pub use metrics::{LatencyHist, MetricsSnapshot, RankMetrics, RecoverySummary, ServerMetrics};
pub use request::{Op, OpOutcome, OpReply, Ticket};
pub use server::{
    AdmissionPolicy, GdiServer, OlapJobFn, RoutePolicy, ServeSummary, ServerOptions, Session,
    SubmitError,
};
