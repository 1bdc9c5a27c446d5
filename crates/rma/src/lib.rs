//! # `rma` — a simulated one-sided Remote Memory Access fabric
//!
//! This crate is the substrate on which the GDI-RMA graph database engine
//! (`gda`) is built. It reproduces, in shared memory, the generic RMA
//! programming model the paper targets (§5.1):
//!
//! * a set of *ranks* (simulated processes), each owning one or more
//!   *windows* — memory regions that other ranks may access **only** through
//!   one-sided operations;
//! * one-sided `GET` / `PUT`, atomic `AGET` / `APUT`, `CAS` and `FADD`
//!   (fetch-and-add), and explicit `flush` synchronization;
//! * collective operations (barrier, broadcast, reductions, all-gather,
//!   all-to-all, exclusive scan) with MPI-style semantics;
//! * a LogGP-style network **cost model**: every operation accrues simulated
//!   time on the issuing rank's clock, so scaling experiments can sweep the
//!   simulated machine size while the actual execution runs on however many
//!   cores the host has;
//! * two execution **backends** behind the same `RankCtx` surface (see
//!   [`backend`]): [`BackendKind::Sim`] prices operations on the LogGP
//!   virtual clock (deterministic, the committed-bench baseline), while
//!   [`BackendKind::Wall`] executes the identical memory operations and
//!   reads a real monotonic clock (cost charges are no-ops) — selected
//!   with [`FabricBuilder::backend`] or the `GDI_FABRIC_BACKEND`
//!   environment variable.
//!
//! Ranks are OS threads and windows are arrays of [`AtomicU64`]; remote
//! accesses are genuinely concurrent, so lock-free algorithms built on top
//! (free lists, distributed hash tables, reader-writer locks) experience real
//! races, CAS failures and ABA hazards — exactly the hazards the paper's
//! design addresses.
//!
//! ```
//! use rma::{FabricBuilder, CostModel};
//!
//! let fabric = FabricBuilder::new(4)
//!     .cost(CostModel::default())
//!     .window(1 << 12) // one 4 KiB window per rank
//!     .build();
//! let sums = fabric.run(|ctx| {
//!     let win = rma::WinId(0);
//!     // every rank stores its rank id in its own window, word 0
//!     ctx.aput_u64(win, ctx.rank(), 0, ctx.rank() as u64);
//!     ctx.barrier();
//!     // and reads the neighbour's value one-sidedly
//!     let next = (ctx.rank() + 1) % ctx.nranks();
//!     let v = ctx.aget_u64(win, next, 0);
//!     ctx.allreduce_sum_u64(v)
//! });
//! assert!(sums.iter().all(|&s| s == 6));
//! ```
//!
//! [`AtomicU64`]: std::sync::atomic::AtomicU64

pub mod backend;
pub mod barrier;
pub mod collectives;
pub mod cost;
pub mod fabric;
pub mod faults;
pub mod stats;
pub mod wait;
pub mod window;

pub use backend::{BackendKind, BACKEND_ENV};
pub use barrier::PoisonBarrier;
pub use cost::{CostModel, SimClock};
pub use fabric::{Fabric, FabricBuilder, RankCtx, WinId};
pub use faults::{FaultMode, FaultPlane};
pub use stats::{Counter, RankReport};
pub use wait::WakeSource;
pub use window::Window;

/// Number of bytes in one fabric word (the atomic access granularity,
/// matching the 64-bit remote atomics highlighted by the paper §5.3).
pub const WORD_BYTES: usize = 8;
