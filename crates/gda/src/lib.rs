//! # `gda` — GDI-RMA: the Graph Database Interface for Remote Memory Access
//!
//! The paper's second contribution (§5): a high-performance, scalable
//! implementation of the GDI specification for distributed-memory RDMA
//! machines, here running on the simulated RMA fabric of the [`rma`] crate
//! (see `docs/ARCHITECTURE.md` for the substitution argument).
//!
//! Architecture (paper Fig. 3):
//!
//! * [`dptr`] — 64-bit distributed pointers (`rank:16 | offset:48`), tagged
//!   free-list heads, edge UIDs;
//! * [`config`] — tunable block size & window layout (the BGDL
//!   communication/storage tradeoff);
//! * [`blocks`] — the Blocked Graph Data Layout: lock-free, one-sided,
//!   ABA-safe fixed-size block pool per rank;
//! * [`holder`] / [`hio`] — the Logical Layout level: flexible-size vertex
//!   and edge holders (metadata, lightweight edges, label/property entries)
//!   mapped onto block chains;
//! * [`dht`] — the fully-offloaded lock-free distributed hash table used
//!   for application-id → internal-id translation;
//! * [`cache`] — the per-rank, epoch-validated translation cache in front
//!   of the DHT (positive + negative entries, one-`aget` revalidation);
//! * [`locks`] — one-word distributed reader–writer locks (write bit +
//!   reader counter, single remote atomics);
//! * [`meta`] — replicated, eventually-consistent labels and property
//!   types;
//! * [`index`] — explicit indexes with per-rank partitions and DNF
//!   constraints;
//! * [`tx`] — local and collective ACID transactions: writers'
//!   per-transaction holder caches, locking and dirty-block write-back,
//!   and the uncached byte-level reads of every read-only transaction;
//! * [`bulk`] — collective bulk ingestion;
//! * [`db`] — database objects, multi-database registry, the per-rank
//!   engine handle;
//! * [`persist`] — durability: per-rank redo logs, collective full
//!   checkpoints (the live set) **and incremental (delta)** ones that
//!   seal each rank's redo log as a chain segment, crash recovery (base
//!   image + one logical replay of the segments and live logs, onto the
//!   snapshot's rank count or any other);
//! * [`maint`] — collective background maintenance: MVCC version
//!   vacuum below the snapshot floor, free-list vacuum, holder-chain
//!   compaction, checksum verification of the published snapshot chain;
//! * [`rankmap`] — the canonical rank-ownership math and the
//!   snapshot-rank → live-rank map every recovery is built on;
//! * [`scan`] — the zero-transaction OLAP scan layer: epoch-validated
//!   CSR mirrors built from raw window sweeps, cached per rank
//!   ([`GdaRank::olap_view`]);
//! * [`analysis`] — the work–depth guarantees table (§5.9).
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

pub mod analysis;
pub mod blocks;
pub mod bulk;
pub mod cache;
pub mod config;
pub mod db;
pub mod dht;
pub mod dptr;
pub mod faults;
pub mod hio;
pub mod holder;
pub mod index;
pub mod locks;
pub mod maint;
pub mod meta;
pub mod persist;
pub mod rankmap;
pub mod scan;
pub mod tx;

pub use bulk::{BulkReport, EdgeSpec, VertexSpec};
pub use config::GdaConfig;
pub use db::{DbRegistry, GdaDb, GdaRank};
pub use dptr::{DPtr, EdgeUid};
pub use index::{IndexDef, IndexId, Posting};
pub use maint::MaintenanceReport;
pub use meta::{LabelDef, PTypeDef};
pub use persist::{
    CheckpointReport, PersistOptions, PersistStore, RankRecovery, RecoveryPlan, RedoRecord,
};
pub use rankmap::RankMap;
pub use scan::{CsrView, ScanPartition};
pub use tx::Transaction;
