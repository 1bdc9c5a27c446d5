//! # `gda` — GDI-RMA: the Graph Database Interface for Remote Memory Access
//!
//! The paper's second contribution (§5): a high-performance, scalable
//! implementation of the GDI specification for distributed-memory RDMA
//! machines, here running on the simulated RMA fabric of the [`rma`] crate
//! (see `docs/ARCHITECTURE.md` for the substitution argument).
//!
//! ## Public surface
//!
//! GDI is an interface kept apart from its implementation (§3), so this
//! crate exports the GDI routines and administration, nothing of how it
//! stores a graph:
//!
//! * the GDI routines — [`GdaRank`] (metadata, indexes, transactions,
//!   bulk load), [`Transaction`] (vertices, edges, properties, index
//!   scans), [`DbRegistry`] (databases), [`MetaSnapshot`], and the opaque
//!   handles [`DPtr`] and [`EdgeUid`];
//! * administration — boot ([`GdaConfig`], [`GdaDb`], [`owner_rank`]),
//!   bulk load ([`VertexSpec`], [`EdgeSpec`]), [`persist`] (durability:
//!   per-rank redo logs, collective full and delta checkpoints, crash
//!   recovery onto any rank count), maintenance
//!   ([`GdaRank::maintenance`]), the block-pool audit
//!   ([`GdaRank::audit_pool`]), the fault-point catalog ([`faults`]),
//!   the zero-transaction OLAP scan layer ([`scan`], cached per rank by
//!   [`GdaRank::olap_view`]) and the work–depth table ([`analysis`],
//!   §5.9).
//!
//! ## Architecture (paper Fig. 3)
//!
//! The modules below are `pub(crate)`: a change to a holder layout or a
//! chain protocol is not an API change.
//!
//! * `dptr` — 64-bit distributed pointers (`rank:16 | offset:48`), tagged
//!   free-list heads, edge UIDs;
//! * [`config`] — tunable block size & window layout (the BGDL
//!   communication/storage tradeoff);
//! * `blocks` — the Blocked Graph Data Layout: lock-free, one-sided,
//!   ABA-safe fixed-size block pool per rank;
//! * `holder` / `hio` — the Logical Layout level: flexible-size vertex
//!   and edge holders (metadata, lightweight edges, label/property entries)
//!   mapped onto block chains;
//! * `dht` — the fully-offloaded lock-free distributed hash table used
//!   for application-id → internal-id translation;
//! * `locks` — one-word distributed reader–writer locks (write bit +
//!   reader counter, single remote atomics);
//! * `meta` — replicated, eventually-consistent labels and property
//!   types;
//! * `index` — explicit indexes with per-rank partitions and DNF
//!   constraints;
//! * `tx` — local and collective ACID transactions: writers'
//!   per-transaction holder caches, locking and dirty-block write-back,
//!   and the uncached byte-level reads of every read-only transaction;
//! * `bulk` — collective bulk ingestion;
//! * `db` — database objects, multi-database registry, the per-rank
//!   engine handle;
//! * `maint` — collective background maintenance: MVCC version
//!   vacuum below the snapshot floor and checksum verification of the
//!   published snapshot chain; it frees and verifies, never moves a
//!   block;
//! * `rankmap` — the canonical rank-ownership math and the
//!   snapshot-rank → live-rank map every recovery is built on.
//!
//! ## Quick start
//!
//! ```
//! use gda::{GdaConfig, GdaDb};
//! use gdi::{AccessMode, AppVertexId};
//! use rma::CostModel;
//!
//! let cfg = GdaConfig::tiny();
//! let (db, fabric) = GdaDb::with_fabric("quick", cfg, 2, CostModel::default());
//! fabric.run(|ctx| {
//!     let eng = db.attach(ctx);
//!     eng.init_collective();
//!     let person = if ctx.rank() == 0 {
//!         Some(eng.create_label("Person").unwrap())
//!     } else {
//!         None
//!     };
//!     ctx.barrier();
//!     if ctx.rank() == 0 {
//!         let tx = eng.begin(AccessMode::ReadWrite);
//!         let alice = tx.create_vertex(AppVertexId(1)).unwrap();
//!         tx.add_label(alice, person.unwrap()).unwrap();
//!         tx.commit().unwrap();
//!     }
//!     ctx.barrier();
//!     // any rank can now reach the vertex one-sidedly
//!     let eng2 = &eng;
//!     eng2.refresh_meta();
//!     let tx = eng2.begin(AccessMode::ReadOnly);
//!     let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
//!     assert!(!tx.labels(v).unwrap().is_empty());
//!     tx.commit().unwrap();
//! });
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod analysis;
pub(crate) mod blocks;
pub(crate) mod bulk;
pub mod config;
pub(crate) mod db;
pub(crate) mod dht;
pub(crate) mod dptr;
pub mod faults;
pub(crate) mod hio;
pub(crate) mod holder;
pub(crate) mod index;
pub(crate) mod locks;
pub(crate) mod maint;
pub(crate) mod meta;
pub mod persist;
pub(crate) mod rankmap;
pub mod scan;
pub(crate) mod tx;

pub use bulk::{BulkReport, EdgeSpec, VertexSpec};
pub use config::GdaConfig;
pub use db::{DbRegistry, GdaDb, GdaRank, PoolAudit};
pub use dptr::{owner_rank, DPtr, EdgeUid};
pub use holder::EntryScan;
pub use index::{IndexDef, IndexId, Posting};
pub use maint::MaintenanceReport;
pub use meta::{LabelDef, MetaSnapshot, PTypeDef};
pub use persist::{CheckpointReport, PersistOptions, PersistStore, RankRecovery};
pub use scan::{CsrView, ScanPartition};
pub use tx::Transaction;
