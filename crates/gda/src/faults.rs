//! The engine's fault-point catalog over the shared fault plane.
//!
//! The registry itself lives in [`rma::faults`] (so the fabric's
//! quiesce/collective paths and the persistence layer probe one plane);
//! this module names every storage-side fault point the engine fires and
//! re-exports the plane types. Arm faults through
//! [`PersistStore::fault_plane`] (or build a shared plane and hand it to
//! both [`crate::persist::PersistOptions::faults`] and
//! [`rma::FabricBuilder::faults`]):
//!
//! ```no_run
//! use gda::faults::{self, FaultMode};
//! # let store: std::sync::Arc<gda::persist::PersistStore> = unimplemented!();
//! // next snapshot write on any rank fails once
//! store.fault_plane().arm(faults::SNAP_WRITE, FaultMode::Error);
//! // the 3rd redo append on rank 1 persists only 10 bytes, then "crashes"
//! store
//!     .fault_plane()
//!     .arm_at(faults::REDO_APPEND, Some(1), 2, 1, FaultMode::TornWrite(10));
//! ```
//!
//! Every point sits at an I/O boundary whose failure the recovery path
//! must tolerate; `tests/tests/chaos.rs` walks these points crash point
//! by crash point and proves recovered state ≡ uninterrupted state.
//!
//! [`PersistStore::fault_plane`]: crate::persist::PersistStore::fault_plane

pub(crate) use rma::faults::flip_bit;
pub use rma::faults::{FaultMode, FaultPlane, PERSISTENT};

/// Writing one rank's full snapshot image (tmp file + rename; a delta
/// writes none). Supports [`FaultMode::Error`] and [`FaultMode::TornWrite`];
/// a voted failure aborts the whole checkpoint and unwinds.
pub const SNAP_WRITE: &str = "snap.write";

/// Writing the checkpoint manifest (rank 0, after all pieces landed).
pub const MANIFEST_WRITE: &str = "manifest.write";

/// Appending one redo-log frame on the commit path. `Error` models a
/// failed `write(2)` (the store rolls the file back to the pre-append
/// length and reports the lost commit); [`FaultMode::TornWrite`] models a
/// crash mid-append — the partial frame stays on disk and recovery must
/// truncate it at the last checksum-valid boundary.
pub const REDO_APPEND: &str = "redo.append";

/// Rotating (truncating) one rank's redo log after a published full
/// checkpoint. Non-fatal by design: a stale log tail is skipped at
/// replay because its frames carry a superseded generation.
pub const REDO_ROTATE: &str = "redo.rotate";

/// Sealing one rank's redo log into the published delta's directory
/// (a rename). Non-fatal by design: an unsealed log stays live, recovery
/// reads it after the chain's segments, and the next delta seals it
/// whole.
pub const REDO_SEAL: &str = "redo.seal";

/// Publishing the `CURRENT` pointer (tmp write + atomic rename) — the
/// checkpoint commit point. A failure here aborts the checkpoint with
/// the previous snapshot chain still intact and every log replayable.
pub const CURRENT_RENAME: &str = "current.rename";

/// Pruning superseded snapshot directories after a publish (rank 0,
/// best-effort; a failure leaves garbage directories, never data loss).
pub const SNAP_PRUNE: &str = "snap.prune";

/// Reading one rank's snapshot piece during recovery. `Error` models an
/// unreadable file; [`FaultMode::BitFlip`] corrupts the returned bytes so
/// the piece checksum must catch it.
pub const SNAP_READ: &str = "snap.read";

/// Reading the manifest during recovery (before the fabric exists;
/// probed on rank 0).
pub const MANIFEST_READ: &str = "manifest.read";

/// Reading one rank's redo log or sealed segment during recovery, at any
/// live rank count ([`FaultMode::BitFlip`] corrupts a frame: the live
/// log's replayed tail ends in front of it, a segment is refused with an
/// I/O error; any other failing mode is an I/O error).
pub const REDO_READ: &str = "redo.read";

/// One rank's materialization slice of a recovery's redistribution, at
/// any live rank count; a voted failure aborts the recovery with the
/// directory untouched.
pub const RESHARD_REDISTRIBUTE: &str = "reshard.redistribute";
