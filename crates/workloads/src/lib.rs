//! # `workloads` — graph-database workloads expressed against GDI (§4, §6)
//!
//! Everything the paper evaluates, written on top of the GDI routines the
//! way Listings 1–3 prescribe:
//!
//! * [`oltp`] — the four interactive workload mixes of Table 3
//!   (Read Mostly, Read Intensive, Write Intensive, LinkBench), driven as
//!   streams of single-process transactions, with success/abort accounting
//!   and per-op latency histograms (Fig. 5);
//! * [`analytics`] — OLAP algorithms in collective transactions: BFS,
//!   PageRank, CDLP (community detection by label propagation), WCC
//!   (weakly connected components), LCC (local clustering coefficient) and
//!   k-hop neighborhoods (Fig. 6);
//! * [`gnn`] — graph convolution training forward pass (Listing 2,
//!   Fig. 6c/6d);
//! * [`bi2`] — the business-intelligence aggregate query in the style of
//!   Listing 3 / LDBC BI (Fig. 6b);
//! * [`traffic`] — the serving-path twin of [`oltp`]: the same Table-3
//!   mixes replayed through the `server` crate's concurrent sessions
//!   (request batching + group commit) instead of direct engine calls;
//! * [`durability`] — the crash/restart axis: one serve → crash →
//!   recover → verify harness with one ledger of acknowledged writes,
//!   driving three scripts — kill-and-restart (at the same or a
//!   different rank count: the elastic restore), churn with delta
//!   checkpoints and maintenance passes, and chaos (a persistent
//!   storage fault, degradation to read-only, repair, MTTR);
//! * [`scratch`] — self-cleaning temp directories shared by the
//!   crash/restart tests and benches.

pub mod analytics;
pub mod bi2;
pub mod durability;
pub mod gnn;
pub mod olsp;
pub mod oltp;
pub mod queries;
pub mod scratch;
pub mod traffic;

pub use oltp::{Mix, OltpConfig, OltpResult, OpKind};
