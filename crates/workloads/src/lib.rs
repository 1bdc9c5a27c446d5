//! # `workloads` — graph-database workloads expressed against GDI (§4, §6)
//!
//! Everything the paper evaluates, written on top of the GDI routines the
//! way Listings 1–3 prescribe:
//!
//! * [`oltp`] — the four interactive workload mixes of Table 3
//!   (Read Mostly, Read Intensive, Write Intensive, LinkBench), driven as
//!   streams of single-process transactions, with success/abort accounting;
//! * [`latency`] — log-bucketed latency histograms (Fig. 5);
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
//! * [`recovery`] — the crash/restart axis: tracked traffic with a
//!   mid-stream collective checkpoint, a kill, a recovery from disk,
//!   and read-your-committed-writes verification across the restart;
//! * [`maintenance`] — the churn-proportional durability axis: rounds
//!   of update-heavy traffic, each closed by a delta checkpoint and a
//!   collective maintenance pass (MVCC vacuum, compaction, snapshot
//!   verification), killed and recovered from the full+delta chain;
//! * [`chaos`] — the fault-injection axis: live traffic through a
//!   persistent storage fault on the shared fault plane, graceful
//!   degradation to read-only, repair, kill, and recovery with an MTTR
//!   measurement;
//! * [`reshard`] — the elastic axis: the same kill-and-restart, but the
//!   recovered server boots a **different rank count** (scale-out and
//!   scale-in across the restart), forcing the full redistribution
//!   path, with a post-reshard throughput phase;
//! * [`scratch`] — self-cleaning temp directories shared by the
//!   crash/restart tests and benches.

pub mod analytics;
pub mod bi2;
pub mod chaos;
pub mod gnn;
pub mod latency;
pub mod maintenance;
pub mod olsp;
pub mod oltp;
pub mod queries;
pub mod recovery;
pub mod reshard;
pub mod scratch;
pub mod traffic;

pub use latency::Histogram;
pub use oltp::{Mix, OltpConfig, OltpResult, OpKind};
