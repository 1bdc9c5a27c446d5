//! Durable snapshots and crash recovery (the persistence subsystem).
//!
//! The GDI-RMA engine is an in-memory system: the paper's evaluation
//! (§6) never survives a process failure. This module adds the missing
//! durability half for a serving deployment:
//!
//! * a **per-rank physiological redo log**: every committed
//!   transaction appends one frame describing its effects per object
//!   (`RedoRecord`) — a delete, or a put whose holder body is a byte
//!   splice over the version the commit overwrote (a whole image where
//!   there is none: the codec in `persist/redo.rs`) — so recovery =
//!   *load the chain's base image + replay every frame logged since*.
//!   Appends are charged to the LogGP clock through
//!   [`rma::RankCtx::record_log_write`]; group commit amortizes the
//!   fixed submission overhead exactly as it amortizes RMA doorbells;
//! * a **collective checkpoint** ([`GdaRank::checkpoint`]): the fabric
//!   quiesces ([`rma::RankCtx::quiesce`], the drain barrier the server's
//!   group-commit cycle already rendezvouses on) and rank 0 writes a
//!   manifest carrying the snapshot chain, the metadata catalog and the
//!   index definitions. A **full** checkpoint first has every rank
//!   write what recovery reads — a `(primary, holder bytes)` record per
//!   live holder chain it stores, plus its explicit-index postings —
//!   into a versioned per-rank snapshot file; a
//!   **delta** writes nothing else and *seals* each rank's redo log as
//!   the chain's next segment;
//! * **recovery** ([`recover_with_topology`]; the
//!   `persist/recover.rs` module docs), one call: it reads the `CURRENT`
//!   pointer, the manifest, every rank's base image and redo history,
//!   replays the history logically into one object map, builds a fresh
//!   fabric of any rank count, materializes that map on it collectively
//!   (one `fabric.run`) and commits it with a fresh full checkpoint, so
//!   the next crash replays from a clean boundary. It returns the
//!   restored database and fabric, ready to serve, or the error every
//!   rank voted, with the directory as it was.
//!
//! ## Snapshot publication protocol
//!
//! A checkpoint is crash-safe at every step: a full's rank files and
//! every manifest are written to `ckpt-<id>/` under temporary names and
//! renamed — all *voted on* — before rank 0 atomically replaces the
//! `CURRENT` pointer. That ordering means no unwind path ever has to
//! move `CURRENT` back: it only ever advances to a checkpoint all ranks
//! have fully committed to. A failed checkpoint (any rank; detected
//! with an abort-vote allreduce, like a collective commit) deletes its
//! partial directory and leaves the previous chain, every redo log and
//! the serving database untouched.
//!
//! Only after a successful publish does each rank settle its redo log:
//! a full **truncates** it, a delta **seals** it (renames it to
//! `ckpt-<id>/redo-rank-<r>.seg`, so the next append starts a fresh
//! log). Both are non-fatal. A frame carries the checkpoint generation
//! it was appended under, so frames a failed truncation leaves behind
//! are older than the new base and replay skips them (and the next
//! checkpoint is a full again, so such a log is never sealed); a log a
//! failed seal leaves behind is still read — after the chain's
//! segments — and the next delta seals it whole. A crash between the
//! publish and a seal is the same case.
//!
//! Only the live log can end in a torn frame (a crash mid-append). A
//! segment is a log sealed whole after a checkpoint that found every
//! append since the last one intact, so recovery refuses — with a typed
//! I/O error and the directory untouched — a segment whose frames stop
//! short of its end.
//!
//! ## Snapshot files stream
//!
//! Neither side of the codec ever holds a window image, or a file next
//! to what it decodes to: the writer pushes each record, as the
//! live-set walk visits its chain, through a strip-sized
//! ([`STRIP_BYTES`]) buffered file handle that feeds the [`Checksum`] on
//! the way, and the reader streams the whole file through the checksum
//! first, then decodes the records straight into recovery's object map.
//! The file layout, the
//! checksum's definition and its detection argument live with the
//! codec in `persist/snapshot.rs` and `persist/format.rs`, the redo
//! codec in `persist/redo.rs`, recovery in `persist/recover.rs`; this
//! file keeps the store, the manifest and the checkpoint collective.
//!
//! ## Incremental (delta) checkpoints
//!
//! Recovery is one replay of redo records onto the objects lifted from
//! a full image, so the frames logged since that image *are* everything
//! a later checkpoint would otherwise copy out of the windows. A
//! **delta** therefore writes no image: its manifest
//! extends the chain (`full base, delta, delta, …`) and each rank's redo
//! log becomes that delta's segment. Recovery reads each rank's log as
//! the concatenation of the segments of the chain's deltas, in chain
//! order, then the live log — whichever exist — parsed as one log with
//! the base id as its minimum generation (`PersistStore::read_log`), and
//! replays it. A delta costs a manifest and a rename; the bytes it makes
//! durable are the redo bytes, written once.
//!
//! A checkpoint *rebases* to a **full** image — every rank's live set as
//! records: every chain the DHT names and the heavyweight edge holders
//! their records name; never an MVCC archive or a free block — when:
//! * it is requested ([`GdaRank::checkpoint_full`]);
//! * the chain is empty (no full image yet) or has reached
//!   `DELTA_CHAIN_CAP` members, which bounds what recovery replays and
//!   lets gc reclaim old bases;
//! * the live logs are not exactly the changes since the last
//!   checkpoint (`PersistStore::note_unlogged`): a bulk load, an index
//!   definition change or a redo append that failed (counted in
//!   [`PersistStore::log_errors`]) is missing from them, or a full's
//!   failed truncation left stale frames in one. A delta would seal a
//!   log that misses a change — or a torn frame in front of later ones —
//!   while a full image re-anchors it. Until then every put is logged
//!   whole (`PersistStore::logs_whole`): a patch may only name a base
//!   the history is sure to hold.
//!
//! Any rank can raise a rule; the vote is one `allreduce_any`. Garbage
//! collection never removes a checkpoint directory still referenced by
//! the current chain, so a segment lives exactly as long as its chain.
//!
//! ## Durability scope
//!
//! Each `RedoRecord` carries the holder's post-commit **version** (a
//! commit stamp, strictly monotone per object across delete/recreate
//! incarnations): what recovery orders records of one object by, across
//! logs — and a patch also its **base**, the version it was spliced
//! against, which replay requires the object to be at exactly. The
//! header is no part of a splice: replay rebuilds it from the record
//! (commit epoch 0, no archive link — how recovery writes every holder
//! back). Two scope rules are deliberate
//! (documented in `docs/ARCHITECTURE.md`): catalog DDL (labels, property types, index
//! definitions) is durable at **checkpoint** granularity — take a
//! checkpoint after schema setup — and delete-then-recreate of the same
//! application id is assumed not to race across ranks between
//! checkpoints (the server's vertex routing guarantees this for all
//! served traffic).

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rma::Counter;
use rustc_hash::FxHashSet;

use gdi::{Datatype, EntityType, GdiError, GdiResult, LabelId, Multiplicity, PTypeId, SizeType};

use crate::config::GdaConfig;
use crate::db::{GdaDb, GdaRank};
use crate::faults::{self, FaultMode, FaultPlane};
use crate::index::{IndexDef, IndexId};
use crate::meta::{MetaParts, PTypeDef};

mod format;
mod recover;
mod redo;
mod snapshot;

pub(crate) use self::format::FORMAT_VERSION;
pub(crate) use self::redo::RedoRecord;
pub use self::{
    format::Checksum,
    recover::{audit_image, recover_with_topology, RankRecovery},
    snapshot::STRIP_BYTES,
};
use format::{check_file_header, io_err, Dec, Enc, FILE_HEADER_BYTES, MANIFEST_MAGIC};
use redo::{encode_frame, parse_log};
use snapshot::write_rank_snapshot;

/// A chain this long rebases to a full snapshot: the base plus at most
/// `DELTA_CHAIN_CAP - 1` sealed segments bounds what recovery replays,
/// and keeps gc able to reclaim old bases.
const DELTA_CHAIN_CAP: usize = 8;

// ---------------------------------------------------------------------
// the store
// ---------------------------------------------------------------------

/// Where and how the persistence layer writes.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Directory holding snapshots, redo segments and the `CURRENT`
    /// pointer. Created on demand.
    pub dir: PathBuf,
    /// `fsync` snapshot files and every log append (durability against
    /// OS/machine failure, not just process failure). Off by default:
    /// tests and benches model the device cost through the LogGP clock
    /// instead of paying host fsyncs.
    pub sync: bool,
    /// Fabric execution backend for the fabric [`recover_with_topology`]
    /// builds:
    /// `None` (default) follows the process default
    /// (`GDI_FABRIC_BACKEND`, else simulated), `Some(_)` pins one.
    pub backend: Option<rma::BackendKind>,
    /// Fault-injection plane probed at every persistence I/O boundary
    /// (see [`crate::faults`] for the point catalog). `None` (default)
    /// creates a private, empty plane; harnesses pass a shared one so
    /// the same registry covers the store and the fabric.
    pub faults: Option<Arc<FaultPlane>>,
}

impl PersistOptions {
    /// Options writing under `dir` without host-level fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: false,
            backend: None,
            faults: None,
        }
    }

    /// Pin the fabric execution backend used by
    /// [`recover_with_topology`].
    pub fn backend(mut self, backend: rma::BackendKind) -> Self {
        self.backend = Some(backend);
        self
    }
}

/// Summary of one successful collective checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// The published checkpoint id.
    pub id: u64,
    /// Was this a full snapshot (`true`) or a delta chained onto the
    /// previous chain member (`false`)?
    pub full: bool,
    /// Bytes the checkpoint itself wrote on each rank: a full its
    /// snapshot files, a delta its manifest (rank 0; 0 elsewhere). The
    /// redo bytes a delta seals were written — and counted — by the
    /// commits that logged them.
    pub per_rank_bytes: Vec<u64>,
    /// Simulated seconds the checkpoint stalled commits (quiesce entry
    /// to publish, max over ranks).
    pub sim_stall_s: f64,
    /// Wall-clock seconds of the collective (rank 0's view).
    pub wall_s: f64,
}

/// One rank's open redo log: the append handle and the file's length,
/// kept beside it so a failed append can be rolled back without asking
/// the file system on every commit.
struct RedoWriter {
    file: File,
    len: u64,
}

/// The shared persistence state of one database: per-rank redo writers,
/// the current checkpoint id, failure injection and the last checkpoint
/// report. Attached to a [`GdaDb`] via [`GdaDb::enable_persistence`] and
/// carried into every [`GdaRank`] at attach.
pub struct PersistStore {
    opts: PersistOptions,
    current: AtomicU64,
    /// The published delta chain, full base first, ending at `current`
    /// (empty at genesis). Everything in here is live recovery state:
    /// gc must not touch it.
    chain: Mutex<Vec<u64>>,
    writers: Vec<Mutex<Option<RedoWriter>>>,
    log_errors: AtomicU64,
    /// Set by a change no redo frame records ([`Self::note_unlogged`]),
    /// cleared by the full image that captures it. A store without a
    /// full image starts set: what the database held before persistence
    /// was enabled is in no frame.
    unlogged: AtomicBool,
    faults: Arc<FaultPlane>,
    last_checkpoint: Mutex<Option<CheckpointReport>>,
}

impl std::fmt::Debug for PersistStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistStore")
            .field("dir", &self.opts.dir)
            .field("current", &self.current())
            .finish()
    }
}

impl PersistStore {
    fn new(opts: PersistOptions, nranks: usize, current: u64, chain: Vec<u64>) -> Arc<Self> {
        let faults = opts.faults.clone().unwrap_or_default();
        Arc::new(Self {
            opts,
            current: AtomicU64::new(current),
            unlogged: AtomicBool::new(chain.is_empty()),
            chain: Mutex::new(chain),
            writers: (0..nranks).map(|_| Mutex::new(None)).collect(),
            log_errors: AtomicU64::new(0),
            faults,
            last_checkpoint: Mutex::new(None),
        })
    }

    /// The persistence directory.
    pub fn dir(&self) -> &Path {
        &self.opts.dir
    }

    /// The published checkpoint id (`0` = genesis: no snapshot yet,
    /// recovery re-initializes the storage and replays from the first
    /// log segment).
    pub(crate) fn current(&self) -> u64 {
        self.current.load(Ordering::Acquire)
    }

    /// The published snapshot chain: the full base first, every delta
    /// after it in order, ending at the published checkpoint. Empty at
    /// genesis. Recovery reads the base's image and every delta's
    /// segments.
    pub fn chain(&self) -> Vec<u64> {
        self.chain.lock().clone()
    }

    /// Redo-log appends that failed with an I/O error (the in-memory
    /// database kept serving; durability of those commits is lost).
    pub fn log_errors(&self) -> u64 {
        self.log_errors.load(Ordering::Relaxed)
    }

    /// The report of the most recent successful checkpoint.
    pub fn last_checkpoint(&self) -> Option<CheckpointReport> {
        self.last_checkpoint.lock().clone()
    }

    /// Re-read and checksum-validate every file of the published
    /// snapshot chain that belongs to `rank` — the base's snapshot file,
    /// streamed through `O(strip)` memory, and every sealed segment —
    /// plus the manifests, for rank 0: the online scrub behind the
    /// maintenance verifier pass. Returns `(bytes verified, errors
    /// found)` — an unreadable file counts as one error.
    pub fn verify_chain(&self, rank: usize) -> (u64, u64) {
        snapshot::verify_rank_chain(self, rank)
    }

    /// The fault-injection plane this store probes at every persistence
    /// I/O boundary (the catalog lives in [`crate::faults`]). Arm faults
    /// here to simulate failing disks, torn writes and read corruption;
    /// the plane is shared with the fabric when the store was created
    /// through [`PersistOptions::faults`] + [`rma::FabricBuilder::faults`].
    pub fn fault_plane(&self) -> &Arc<FaultPlane> {
        &self.faults
    }

    /// Probe `point` for `rank`. An armed [`FaultMode::Latency`] sleeps
    /// here and lets the operation proceed (the device stalled but
    /// worked); every other mode is returned for the caller to apply.
    pub(crate) fn probe_fault(&self, point: &str, rank: usize) -> Option<FaultMode> {
        match self.faults.check(point, rank)? {
            FaultMode::Latency(ns) => {
                std::thread::sleep(std::time::Duration::from_nanos(ns));
                None
            }
            mode => Some(mode),
        }
    }

    fn ckpt_dir(&self, id: u64) -> PathBuf {
        self.opts.dir.join(format!("ckpt-{id}"))
    }

    fn log_path(&self, rank: usize) -> PathBuf {
        self.opts.dir.join(format!("redo-rank-{rank}.log"))
    }

    /// Where delta `id` keeps `rank`'s sealed redo log.
    fn segment_path(&self, id: u64, rank: usize) -> PathBuf {
        self.ckpt_dir(id).join(format!("redo-rank-{rank}.seg"))
    }

    fn current_path(&self) -> PathBuf {
        self.opts.dir.join("CURRENT")
    }

    /// Append one committed transaction's records to `rank`'s redo log.
    /// Returns the framed byte count (what the LogGP model charges).
    pub(crate) fn append(&self, rank: usize, records: &[RedoRecord]) -> GdiResult<usize> {
        let mut guard = self.writers[rank].lock();
        let w = match &mut *guard {
            Some(w) => w,
            none => {
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.log_path(rank))
                    .map_err(|e| io_err("open redo segment", e))?;
                if self.opts.sync {
                    // the segment's directory entry must survive power loss
                    // along with the synced appends that follow
                    sync_dir(&self.opts.dir)?;
                }
                let len = file
                    .metadata()
                    .map_err(|e| io_err("stat redo segment", e))?
                    .len();
                none.insert(RedoWriter { file, len })
            }
        };
        let frame = encode_frame(records, self.current());
        match self.probe_fault(faults::REDO_APPEND, rank) {
            Some(FaultMode::TornWrite(k)) => {
                // crash mid-append: the first `k` bytes land and stay —
                // recovery must truncate at the last checksum-valid frame
                let torn = &frame[..k.min(frame.len())];
                if w.file.write_all(torn).is_ok() {
                    w.len += torn.len() as u64;
                }
                let _ = w.file.sync_data();
                return Err(GdiError::Io("injected torn redo append".into()));
            }
            Some(_) => return Err(GdiError::Io("injected redo append failure".into())),
            None => {}
        }
        if let Err(e) = w.file.write_all(&frame) {
            // A short write would leave a torn frame mid-log, and since
            // replay stops at the first invalid frame it would also orphan
            // every frame appended after it. Roll the file back to the
            // pre-append length so a *reported* failure loses only this
            // commit's durability, never the log's integrity.
            let _ = w.file.set_len(w.len);
            return Err(io_err("append redo", e));
        }
        w.len += frame.len() as u64;
        if self.opts.sync {
            w.file.sync_data().map_err(|e| io_err("sync redo", e))?;
        }
        Ok(frame.len())
    }

    /// Count a failed redo append: its commit is a change no frame
    /// records.
    pub(crate) fn note_log_error(&self) {
        self.log_errors.fetch_add(1, Ordering::Relaxed);
        self.note_unlogged();
    }

    /// Record a change to the database that no redo frame describes (a
    /// bulk load, an index definition change, a failed append): the next
    /// checkpoint must be a full image, because a delta is only the
    /// frames — and until that image every put is logged whole
    /// ([`Self::logs_whole`]).
    pub(crate) fn note_unlogged(&self) {
        self.unlogged.store(true, Ordering::Release);
    }

    /// Must a commit log its puts as whole images? While the store is
    /// flagged unlogged, the history since the last full image may miss
    /// the version a patch would be based on — a failed append's, say —
    /// and replay refuses a patch whose base it does not hold, so
    /// nothing logged until the next full image may depend on one.
    pub(crate) fn logs_whole(&self) -> bool {
        self.unlogged.load(Ordering::Acquire)
    }

    /// Truncate `rank`'s redo log after a full checkpoint published:
    /// every frame in it describes a commit the new base image captures.
    /// Failure is non-fatal for the checkpoint — stale frames carry an
    /// older generation and are skipped at replay — so the caller only
    /// reports it.
    fn truncate_log(&self, rank: usize) -> GdiResult<()> {
        if self.probe_fault(faults::REDO_ROTATE, rank).is_some() {
            return Err(GdiError::Io("injected redo rotate failure".into()));
        }
        self.cut_log(rank, 0)
    }

    /// Seal `rank`'s redo log after delta `id` published: rename it to
    /// the delta's segment, so the next append starts a fresh log.
    /// Failure is non-fatal for the checkpoint — an unsealed log stays
    /// live, recovery reads it after the chain's segments, and the next
    /// delta seals it whole — so the caller only reports it. A rank that
    /// logged nothing since the last checkpoint has no log to seal.
    fn seal_log(&self, rank: usize, id: u64) -> GdiResult<()> {
        if self.probe_fault(faults::REDO_SEAL, rank).is_some() {
            return Err(GdiError::Io("injected redo seal failure".into()));
        }
        // the append handle would follow the renamed file: drop it
        let mut writer = self.writers[rank].lock();
        *writer = None;
        match fs::rename(self.log_path(rank), self.segment_path(id, rank)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(io_err("seal redo log", e)),
        }
        if self.opts.sync {
            sync_dir(&self.ckpt_dir(id))?;
            sync_dir(&self.opts.dir)?;
        }
        Ok(())
    }

    /// Cut `rank`'s redo log to at most `len` bytes. A recovery cuts
    /// every live log it read to the valid prefix [`Self::read_log`]
    /// returned once its closing checkpoint has published, so a torn or
    /// corrupt
    /// tail that a failed truncation left behind can never strand the
    /// frames appended after it (replay stops at the first invalid
    /// frame). A missing or shorter log is left alone.
    fn cut_log(&self, rank: usize, len: u64) -> GdiResult<()> {
        // drop the append handle (and the length kept beside it) first:
        // the next append reopens the cut file
        if let Some(w) = self.writers.get(rank) {
            *w.lock() = None;
        }
        let f = match OpenOptions::new().write(true).open(self.log_path(rank)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(io_err("truncate redo log", e)),
        };
        let on_disk = f.metadata().map_err(|e| io_err("stat redo log", e))?.len();
        if on_disk > len {
            f.set_len(len).map_err(|e| io_err("truncate redo log", e))?;
            if self.opts.sync {
                f.sync_all().map_err(|e| io_err("sync redo log", e))?;
            }
        }
        Ok(())
    }

    /// Read `rank`'s redo history for recovery: the segments the deltas
    /// of `chain` sealed, in chain order, then the live log — whichever
    /// of those files exist — as one log of frames stamped at or after
    /// the chain's base (see [`parse_log`]; 0 at genesis). Only the live
    /// log may end in a torn or corrupt frame: the history ends there. A
    /// sealed segment never legitimately does — an append that failed
    /// forces the next checkpoint to be a full image, which seals
    /// nothing — so a segment whose frames stop short of its end is
    /// corruption of acknowledged, checkpointed commits, and an I/O
    /// error. Returns the records, the valid bytes read, and the valid
    /// prefix of the live log. The one log reader: only a missing file
    /// reads as empty, any other I/O error surfaces instead of silently
    /// dropping commits. Probes `redo.read` per file: a
    /// [`FaultMode::BitFlip`] corrupts the bytes read; any other mode is
    /// an I/O error. Never writes: the recovery cuts the live log to its
    /// valid prefix ([`Self::cut_log`]) only after its closing
    /// checkpoint has published.
    fn read_log(&self, rank: usize, chain: &[u64]) -> GdiResult<(Vec<RedoRecord>, u64, u64)> {
        let min_gen = chain.first().copied().unwrap_or(0);
        let segments = chain.iter().skip(1).map(|&id| self.segment_path(id, rank));
        let files: Vec<PathBuf> = segments.chain([self.log_path(rank)]).collect();
        let (mut records, mut bytes, mut live) = (Vec::new(), 0u64, 0u64);
        for (i, path) in files.iter().enumerate() {
            let mut file = match fs::read(path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(io_err("read redo log", e)),
            };
            match self.probe_fault(faults::REDO_READ, rank) {
                Some(FaultMode::BitFlip(k)) => faults::flip_bit(&mut file, k),
                Some(_) => return Err(GdiError::Io("injected redo read failure".into())),
                None => {}
            }
            let (frames, valid) = parse_log(&file[..], file.len() as u64, min_gen);
            if i + 1 < files.len() {
                if valid < file.len() as u64 {
                    return Err(GdiError::Io(format!(
                        "corrupt frame at byte {valid} of sealed redo segment {}",
                        path.display()
                    )));
                }
            } else {
                live = valid;
            }
            records.extend(frames);
            bytes += valid;
        }
        Ok((records, bytes, live))
    }

    fn publish_current(&self, id: u64) -> GdiResult<()> {
        let tmp = self.opts.dir.join("CURRENT.tmp");
        fs::write(&tmp, format!("{id}\n")).map_err(|e| io_err("write CURRENT.tmp", e))?;
        if self.probe_fault(faults::CURRENT_RENAME, 0).is_some() {
            // crash between tmp write and rename: CURRENT still names
            // the previous chain, the orphan tmp file is harmless
            return Err(GdiError::Io("injected CURRENT publish failure".into()));
        }
        if self.opts.sync {
            File::open(&tmp)
                .and_then(|f| f.sync_all())
                .map_err(|e| io_err("sync CURRENT.tmp", e))?;
            // the snapshot dir and redo segments must be durably linked
            // before the pointer can durably name them
            sync_dir(&self.opts.dir)?;
        }
        fs::rename(&tmp, self.current_path()).map_err(|e| io_err("publish CURRENT", e))?;
        if self.opts.sync {
            sync_dir(&self.opts.dir)?;
        }
        Ok(())
    }

    /// Delete checkpoint directories that are no longer needed for
    /// recovery. A directory is kept if it belongs to the current
    /// published chain (a delta's base must outlive every delta
    /// stacked on it — deleting it would strand the whole chain) or if
    /// it is the immediately preceding checkpoint (so a failed *next*
    /// checkpoint can never strand the database without a recovery
    /// point). Entirely non-fatal: every step is best-effort, and a
    /// later checkpoint's gc catches up on anything left behind.
    fn gc(&self, id: u64) {
        if self.probe_fault(faults::SNAP_PRUNE, 0).is_some() {
            return; // simulated I/O failure: remove nothing
        }
        let keep: FxHashSet<u64> = self.chain.lock().iter().copied().collect();
        let Ok(entries) = fs::read_dir(&self.opts.dir) else {
            return;
        };
        for e in entries.flatten() {
            let name = e.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(rest) = name.strip_prefix("ckpt-") {
                let Ok(n) = rest.parse::<u64>() else { continue };
                if n + 1 < id && !keep.contains(&n) {
                    let _ = fs::remove_dir_all(e.path());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// manifest
// ---------------------------------------------------------------------

fn dtype_u8(d: Datatype) -> u8 {
    match d {
        Datatype::Uint8 => 0,
        Datatype::Uint16 => 1,
        Datatype::Uint32 => 2,
        Datatype::Uint64 => 3,
        Datatype::Int8 => 4,
        Datatype::Int16 => 5,
        Datatype::Int32 => 6,
        Datatype::Int64 => 7,
        Datatype::Float => 8,
        Datatype::Double => 9,
        Datatype::Bool => 10,
        Datatype::Char => 11,
        Datatype::Byte => 12,
    }
}

fn u8_dtype(v: u8) -> GdiResult<Datatype> {
    Ok(match v {
        0 => Datatype::Uint8,
        1 => Datatype::Uint16,
        2 => Datatype::Uint32,
        3 => Datatype::Uint64,
        4 => Datatype::Int8,
        5 => Datatype::Int16,
        6 => Datatype::Int32,
        7 => Datatype::Int64,
        8 => Datatype::Float,
        9 => Datatype::Double,
        10 => Datatype::Bool,
        11 => Datatype::Char,
        12 => Datatype::Byte,
        _ => return Err(GdiError::Io("bad datatype tag".into())),
    })
}

fn entity_u8(e: EntityType) -> u8 {
    match e {
        EntityType::Vertex => 0,
        EntityType::Edge => 1,
        EntityType::VertexEdge => 2,
    }
}

fn u8_entity(v: u8) -> GdiResult<EntityType> {
    Ok(match v {
        0 => EntityType::Vertex,
        1 => EntityType::Edge,
        2 => EntityType::VertexEdge,
        _ => return Err(GdiError::Io("bad entity tag".into())),
    })
}

fn mult_u8(m: Multiplicity) -> u8 {
    match m {
        Multiplicity::Single => 0,
        Multiplicity::Multi => 1,
    }
}

fn u8_mult(v: u8) -> GdiResult<Multiplicity> {
    Ok(match v {
        0 => Multiplicity::Single,
        1 => Multiplicity::Multi,
        _ => return Err(GdiError::Io("bad multiplicity tag".into())),
    })
}

fn stype_u8(s: SizeType) -> u8 {
    match s {
        SizeType::Fixed => 0,
        SizeType::Limited => 1,
        SizeType::NoLimit => 2,
    }
}

fn u8_stype(v: u8) -> GdiResult<SizeType> {
    Ok(match v {
        0 => SizeType::Fixed,
        1 => SizeType::Limited,
        2 => SizeType::NoLimit,
        _ => return Err(GdiError::Io("bad size-type tag".into())),
    })
}

fn encode_cfg(enc: &mut Enc, cfg: &GdaConfig) {
    enc.u64(cfg.block_size as u64);
    enc.u64(cfg.blocks_per_rank as u64);
    enc.u64(cfg.dht_buckets_per_rank as u64);
    enc.u64(cfg.dht_heap_per_rank as u64);
    enc.u64(cfg.translation_cache_capacity as u64);
}

fn decode_cfg<R: Read>(dec: &mut Dec<R>) -> GdiResult<GdaConfig> {
    Ok(GdaConfig {
        block_size: dec.u64()? as usize,
        blocks_per_rank: dec.u64()? as usize,
        dht_buckets_per_rank: dec.u64()? as usize,
        dht_heap_per_rank: dec.u64()? as usize,
        translation_cache_capacity: dec.u64()? as usize,
    })
}

/// Everything a manifest carries (the shared, rank-independent half of
/// a snapshot).
struct Manifest {
    id: u64,
    name: String,
    nranks: usize,
    cfg: GdaConfig,
    /// The snapshot chain ending at `id`: the full base first, then
    /// every delta in order. Empty only for the genesis manifest (id
    /// 0, no snapshot). Recovery folds exactly these files and gc must
    /// keep them all.
    chain: Vec<u64>,
    meta: MetaParts,
    index_defs: Vec<IndexDef>,
    index_next_id: u32,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut e = Enc::default();
    e.buf.extend_from_slice(MANIFEST_MAGIC);
    e.u32(FORMAT_VERSION);
    e.u64(m.id);
    e.str(&m.name);
    e.u32(m.nranks as u32);
    e.u32(m.chain.len() as u32);
    for c in &m.chain {
        e.u64(*c);
    }
    encode_cfg(&mut e, &m.cfg);
    e.u64(m.meta.epoch);
    e.u32(m.meta.next_label);
    e.u32(m.meta.next_ptype);
    e.u32(m.meta.labels.len() as u32);
    for l in &m.meta.labels {
        e.u32(l.id.0);
        e.str(&l.name);
    }
    e.u32(m.meta.ptypes.len() as u32);
    for p in &m.meta.ptypes {
        e.u32(p.id.0);
        e.str(&p.name);
        e.u8(dtype_u8(p.dtype));
        e.u8(entity_u8(p.entity));
        e.u8(mult_u8(p.mult));
        e.u8(stype_u8(p.stype));
        e.u64(p.count as u64);
    }
    e.u32(m.index_next_id);
    e.u32(m.index_defs.len() as u32);
    for d in &m.index_defs {
        e.u32(d.id.0);
        e.str(&d.name);
        e.u32(d.labels.len() as u32);
        for l in &d.labels {
            e.u32(l.0);
        }
        e.u32(d.ptypes.len() as u32);
        for p in &d.ptypes {
            e.u32(p.0);
        }
    }
    let sum = Checksum::of(&e.buf);
    e.u64(sum);
    e.buf
}

fn decode_manifest(bytes: &[u8]) -> GdiResult<Manifest> {
    if bytes.len() < FILE_HEADER_BYTES + 8 {
        return Err(GdiError::Io("manifest too short".into()));
    }
    // magic and version come before the checksum: a manifest of another
    // format version says so instead of looking corrupt
    let head = bytes[..FILE_HEADER_BYTES].try_into().expect("header");
    check_file_header(head, MANIFEST_MAGIC, "manifest")?;
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if Checksum::of(body) != crate::holder::le_u64(tail, 0) {
        return Err(GdiError::Io("manifest checksum mismatch".into()));
    }
    let mut d = Dec::over(&body[FILE_HEADER_BYTES..]);
    let id = d.u64()?;
    let name = d.str()?;
    let nranks = d.u32()? as usize;
    // every count below is checked against the bytes that remain (at
    // the element's smallest encoding) before its vector is allocated
    let nchain = d.u32()? as u64;
    let mut chain = Vec::with_capacity(d.count(nchain, 8)?);
    for _ in 0..nchain {
        chain.push(d.u64()?);
    }
    // only the genesis manifest (id 0) has no chain
    if chain.last().copied().unwrap_or(0) != id {
        return Err(GdiError::Io("manifest chain does not end at id".into()));
    }
    let cfg = decode_cfg(&mut d)?;
    let epoch = d.u64()?;
    let next_label = d.u32()?;
    let next_ptype = d.u32()?;
    let nlabels = d.u32()? as u64;
    let mut labels = Vec::with_capacity(d.count(nlabels, 8)?);
    for _ in 0..nlabels {
        let id = LabelId(d.u32()?);
        labels.push(crate::meta::LabelDef { id, name: d.str()? });
    }
    let nptypes = d.u32()? as u64;
    let mut ptypes = Vec::with_capacity(d.count(nptypes, 20)?);
    for _ in 0..nptypes {
        ptypes.push(PTypeDef {
            id: PTypeId(d.u32()?),
            name: d.str()?,
            dtype: u8_dtype(d.u8()?)?,
            entity: u8_entity(d.u8()?)?,
            mult: u8_mult(d.u8()?)?,
            stype: u8_stype(d.u8()?)?,
            count: d.u64()? as usize,
        });
    }
    let index_next_id = d.u32()?;
    let ndefs = d.u32()? as u64;
    let mut index_defs = Vec::with_capacity(d.count(ndefs, 16)?);
    for _ in 0..ndefs {
        let id = IndexId(d.u32()?);
        let name = d.str()?;
        let nl = d.u32()? as u64;
        let mut dl = Vec::with_capacity(d.count(nl, 4)?);
        for _ in 0..nl {
            dl.push(LabelId(d.u32()?));
        }
        let np = d.u32()? as u64;
        let mut dp = Vec::with_capacity(d.count(np, 4)?);
        for _ in 0..np {
            dp.push(PTypeId(d.u32()?));
        }
        index_defs.push(IndexDef {
            id,
            name,
            labels: dl,
            ptypes: dp,
        });
    }
    Ok(Manifest {
        id,
        name,
        nranks,
        cfg,
        chain,
        meta: MetaParts {
            labels,
            ptypes,
            next_label,
            next_ptype,
            epoch,
        },
        index_defs,
        index_next_id,
    })
}

/// Read and decode the manifest of published checkpoint `id`, probing
/// `manifest.read` on the plane of `opts` (a [`FaultMode::BitFlip`]
/// corrupts the bytes read, any other failing mode is an I/O error).
fn read_manifest(opts: &PersistOptions, id: u64) -> GdiResult<Manifest> {
    let path = opts.dir.join(format!("ckpt-{id}/manifest.bin"));
    let mut bytes = fs::read(&path).map_err(|e| io_err("read manifest", e))?;
    if let Some(plane) = &opts.faults {
        match plane.check(faults::MANIFEST_READ, 0) {
            Some(FaultMode::BitFlip(k)) => faults::flip_bit(&mut bytes, k),
            Some(FaultMode::Latency(ns)) => std::thread::sleep(std::time::Duration::from_nanos(ns)),
            Some(_) => return Err(GdiError::Io("injected manifest read failure".into())),
            None => {}
        }
    }
    let manifest = decode_manifest(&bytes)?;
    if manifest.id != id {
        return Err(GdiError::Io("manifest id does not match CURRENT".into()));
    }
    Ok(manifest)
}

fn manifest_from_db(db: &GdaDb, id: u64, chain: Vec<u64>) -> Manifest {
    let (index_defs, index_next_id) = db.indexes_shared().export_defs();
    Manifest {
        id,
        name: db.name.clone(),
        nranks: db.nranks(),
        cfg: db.cfg,
        chain,
        meta: db.meta_store().export_parts(),
        index_defs,
        index_next_id,
    }
}

/// `fsync` a directory so renames and file creations inside it survive
/// power loss (the rename itself is atomic but not durable until the
/// directory entry is flushed).
fn sync_dir(dir: &Path) -> GdiResult<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync directory", e))
}

/// Make the fully written `tmp` file the file at `path`: sync it (under
/// the `sync` policy), rename it into place, sync the directory.
fn publish_tmp(file: File, tmp: &Path, path: &Path, sync: bool) -> GdiResult<()> {
    if sync {
        file.sync_all().map_err(|e| io_err("sync snapshot", e))?;
    }
    drop(file);
    fs::rename(tmp, path).map_err(|e| io_err("rename snapshot", e))?;
    if sync {
        if let Some(parent) = path.parent() {
            sync_dir(parent)?;
        }
    }
    Ok(())
}

fn write_atomically(path: &Path, bytes: &[u8], sync: bool) -> GdiResult<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err("create snapshot tmp", e))?;
    f.write_all(bytes)
        .map_err(|e| io_err("write snapshot", e))?;
    publish_tmp(f, &tmp, path, sync)
}

/// Set up persistence for a fresh database: creates the directory,
/// writes the genesis manifest (checkpoint id 0: catalog as of now, no
/// window snapshot) and the `CURRENT` pointer. Fails if the directory
/// already contains a `CURRENT` (use [`recover_with_topology`] for that).
pub(crate) fn create_store(db: &GdaDb, opts: PersistOptions) -> GdiResult<Arc<PersistStore>> {
    fs::create_dir_all(&opts.dir).map_err(|e| io_err("create persistence dir", e))?;
    let store = PersistStore::new(opts, db.nranks(), 0, Vec::new());
    if store.current_path().exists() {
        return Err(GdiError::AlreadyExists("persistence directory"));
    }
    let dir0 = store.ckpt_dir(0);
    fs::create_dir_all(&dir0).map_err(|e| io_err("create genesis dir", e))?;
    let manifest = encode_manifest(&manifest_from_db(db, 0, Vec::new()));
    write_atomically(&dir0.join("manifest.bin"), &manifest, store.opts.sync)?;
    store.publish_current(0)?;
    Ok(store)
}

// ---------------------------------------------------------------------
// checkpoint (collective)
// ---------------------------------------------------------------------

/// The collective checkpoint body behind [`GdaRank::checkpoint`]:
/// delta when the chain and the logs allow it, full otherwise.
pub(crate) fn checkpoint_rank(eng: &GdaRank) -> GdiResult<u64> {
    checkpoint_rank_inner(eng, false)
}

/// The collective body behind [`GdaRank::checkpoint_full`]: force a
/// full rebase regardless of the chain and the logs.
pub(crate) fn checkpoint_rank_full(eng: &GdaRank) -> GdiResult<u64> {
    checkpoint_rank_inner(eng, true)
}

fn checkpoint_rank_inner(eng: &GdaRank, force_full: bool) -> GdiResult<u64> {
    let store = eng
        .persistence()
        .ok_or(GdiError::InvalidArgument("persistence not enabled"))?;
    let ctx = eng.ctx();
    let me = ctx.rank();
    let wall0 = Instant::now();
    ctx.quiesce();
    let sim0 = ctx.now_ns();
    let id = store.current() + 1;
    let dir = store.ckpt_dir(id);

    // Decide full vs delta collectively (the rules are in the module
    // docs): a delta is the frames logged since the last checkpoint, so
    // it must hold every change, and the chain must have a base and room.
    let chain = store.chain();
    let want_full = force_full
        || chain.is_empty()
        || chain.len() >= DELTA_CHAIN_CAP
        || store.unlogged.load(Ordering::Acquire);
    let full = ctx.allreduce_any(want_full);
    let chain_after: Vec<u64> = if full {
        vec![id]
    } else {
        chain.iter().copied().chain([id]).collect()
    };

    // rank 0 creates the directory; everyone votes on the outcome
    let dir_err = if me == 0 {
        fs::create_dir_all(&dir)
            .map_err(|e| io_err("create checkpoint dir", e))
            .err()
    } else {
        None
    };
    if ctx.allreduce_any(dir_err.is_some()) {
        return Err(dir_err.unwrap_or_else(|| GdiError::Io("checkpoint dir failed".into())));
    }

    // a full image: every rank writes its snapshot file as the
    // collective live-set walk visits its chains; then the manifest on
    // rank 0
    let mut res = if full {
        write_rank_snapshot(eng, &store, id, &dir)
    } else {
        Ok(0)
    };
    if res.is_ok() && me == 0 {
        let written = if store.probe_fault(faults::MANIFEST_WRITE, me).is_some() {
            Err(GdiError::Io("injected manifest write failure".into()))
        } else {
            let manifest = encode_manifest(&manifest_from_db(eng.db(), id, chain_after.clone()));
            write_atomically(&dir.join("manifest.bin"), &manifest, store.opts.sync)
                .map(|()| manifest.len() as u64)
        };
        // a delta's one file is its manifest
        res = written.and_then(|manifest| if full { res } else { Ok(manifest) });
    }
    if ctx.allreduce_any(res.is_err()) {
        ctx.barrier();
        if me == 0 {
            let _ = fs::remove_dir_all(&dir);
        }
        ctx.barrier();
        return Err(res
            .err()
            .unwrap_or_else(|| GdiError::Io("checkpoint failed on a peer rank".into())));
    }
    let bytes = *res.as_ref().unwrap();

    // Rank 0 atomically swings `CURRENT`; everyone votes on the
    // outcome. A failed publish is atomic (tmp file + rename), so
    // CURRENT still names the old snapshot in every unwind path. The
    // fabric is quiesced for the whole collective, so unwinding loses
    // no commits.
    let publish = if me == 0 {
        store.publish_current(id)
    } else {
        Ok(())
    };
    if ctx.allreduce_any(publish.is_err()) {
        ctx.barrier();
        if me == 0 {
            let _ = fs::remove_dir_all(&dir);
        }
        ctx.barrier();
        return Err(publish
            .err()
            .unwrap_or_else(|| GdiError::Io("checkpoint publish failed on a peer".into())));
    }
    store.current.store(id, Ordering::Release);
    *store.chain.lock() = chain_after;
    if full {
        store.unlogged.store(false, Ordering::Release);
    } else {
        ctx.count(Counter::DeltaCheckpoints, 1);
    }
    // Post-publish, non-fatal either way (module docs): a full image
    // captures every frame in the log, so truncate it; a delta's
    // segment is the log, so seal it.
    let settled = if full {
        store.truncate_log(me)
    } else {
        store.seal_log(me, id)
    };
    if let Err(e) = &settled {
        eprintln!("gda: settling the redo log failed on rank {me} (non-fatal): {e}");
    }
    ctx.barrier();
    if full && settled.is_err() {
        // a log the truncation left behind may hold a torn frame the
        // image superseded: the next checkpoint rebases again instead
        // of sealing it (raised past the barrier, so no rank's clear
        // above can drop it)
        store.note_unlogged();
    }
    let per_rank_bytes = ctx.allgather(bytes);
    let stall_ns = ctx.allreduce_max_f64(ctx.now_ns() - sim0);
    if me == 0 {
        store.gc(id);
        *store.last_checkpoint.lock() = Some(CheckpointReport {
            id,
            full,
            per_rank_bytes,
            sim_stall_s: stall_ns / 1e9,
            wall_s: wall0.elapsed().as_secs_f64(),
        });
    }
    ctx.barrier();
    Ok(id)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dptr::DPtr;
    use gdi::{AccessMode, AppVertexId, EdgeOrientation, PropertyValue, TxStatus};
    use redo::tests::parse;
    use redo::FRAME_HEADER_BYTES;
    use rma::CostModel;

    /// Rebuild a database at the topology its snapshot was written by.
    pub(crate) fn recover(
        opts: PersistOptions,
        cost: CostModel,
    ) -> GdiResult<(Arc<GdaDb>, rma::Fabric, Vec<RankRecovery>)> {
        recover_with_topology(opts, cost, None)
    }

    impl PersistStore {
        /// Does checkpoint `id`'s snapshot directory exist on disk? (A
        /// failed checkpoint must leave none.)
        fn ckpt_dir_exists(&self, id: u64) -> bool {
            self.ckpt_dir(id).exists()
        }
    }

    /// A unique, self-cleaning persistence directory for one test.
    pub(crate) struct TestDir(pub PathBuf);

    impl TestDir {
        pub(crate) fn new(tag: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "gda-persist-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            TestDir(dir)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let db = GdaDb::new("mani", GdaConfig::tiny(), 4);
        db.meta.create_label("Person").unwrap();
        db.meta
            .create_ptype(
                "age",
                Datatype::Uint64,
                EntityType::Vertex,
                Multiplicity::Single,
                SizeType::Fixed,
                1,
            )
            .unwrap();
        db.indexes
            .create("people", vec![LabelId(1)], vec![])
            .unwrap();
        let m = manifest_from_db(&db, 5, vec![3, 4, 5]);
        let bytes = encode_manifest(&m);
        let back = decode_manifest(&bytes).unwrap();
        assert_eq!(back.id, 5);
        assert_eq!(back.name, "mani");
        assert_eq!(back.nranks, 4);
        assert_eq!(back.chain, vec![3, 4, 5]);
        assert_eq!(back.meta, db.meta.export_parts());
        assert_eq!(back.index_defs, db.indexes.export_defs().0);
        // corruption is detected
        let mut bad = bytes.clone();
        bad[20] ^= 0xFF;
        assert!(decode_manifest(&bad).is_err());
    }

    /// Full lifecycle on one rank: commits → checkpoint → more commits
    /// (redo tail) → "crash" → recover → all committed state is back,
    /// uncommitted state is not.
    #[test]
    fn checkpoint_replay_roundtrip_single_rank() {
        let td = TestDir::new("single");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("p", cfg, 1, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let age = eng
                    .create_ptype(
                        "age",
                        Datatype::Uint64,
                        EntityType::Vertex,
                        Multiplicity::Single,
                        SizeType::Fixed,
                        1,
                    )
                    .unwrap();
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in 0..10u64 {
                    let v = tx.create_vertex(AppVertexId(i)).unwrap();
                    tx.add_property(v, age, &PropertyValue::U64(i * 10))
                        .unwrap();
                }
                tx.commit().unwrap();
                assert_eq!(eng.checkpoint().unwrap(), 1);
                // post-checkpoint commits live only in the redo tail
                let tx = eng.begin(AccessMode::ReadWrite);
                let a = tx.translate_vertex_id(AppVertexId(0)).unwrap();
                let b = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                tx.add_edge(a, b, None, true).unwrap();
                tx.update_property(a, age, &PropertyValue::U64(999))
                    .unwrap();
                tx.commit().unwrap();
                let tx = eng.begin(AccessMode::ReadWrite);
                let d = tx.translate_vertex_id(AppVertexId(9)).unwrap();
                tx.delete_vertex(d).unwrap();
                tx.commit().unwrap();
                // an aborted transaction must not be recovered
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(777)).unwrap();
                tx.abort();
            });
            // db + fabric dropped here: the "crash"
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        assert_eq!(recs[0].snapshot_id, 1);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert!(rec.records >= 2, "redo tail replayed: {rec:?}");
            assert_eq!(rec.errors, 0);
            assert_eq!(rec.final_checkpoint, 2);
            let age = eng.meta().ptype_from_name("age").unwrap();
            let tx = eng.begin(AccessMode::ReadOnly);
            let a = tx.translate_vertex_id(AppVertexId(0)).unwrap();
            assert_eq!(tx.property(a, age).unwrap(), Some(PropertyValue::U64(999)));
            assert_eq!(tx.edge_count(a, EdgeOrientation::Outgoing).unwrap(), 1);
            for i in 1..9u64 {
                let v = tx.translate_vertex_id(AppVertexId(i)).unwrap();
                assert_eq!(
                    tx.property(v, age).unwrap(),
                    Some(PropertyValue::U64(i * 10)),
                    "vertex {i}"
                );
            }
            assert!(tx.translate_vertex_id(AppVertexId(9)).is_err(), "deleted");
            assert!(tx.translate_vertex_id(AppVertexId(777)).is_err(), "aborted");
            assert_eq!(tx.status(), TxStatus::Active);
            tx.commit().unwrap();
            // the recovered database accepts new transactions
            let tx = eng.begin(AccessMode::ReadWrite);
            tx.create_vertex(AppVertexId(100)).unwrap();
            tx.commit().unwrap();
        });
    }

    /// Genesis recovery: no checkpoint ever ran — replay from segment 0
    /// onto re-initialized storage.
    #[test]
    fn genesis_recovery_without_checkpoint() {
        let td = TestDir::new("genesis");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("g", cfg, 2, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    for i in 0..6u64 {
                        tx.create_vertex(AppVertexId(i)).unwrap();
                    }
                    tx.commit().unwrap();
                }
                ctx.barrier();
                if ctx.rank() == 1 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let a = tx.translate_vertex_id(AppVertexId(2)).unwrap();
                    let b = tx.translate_vertex_id(AppVertexId(3)).unwrap();
                    tx.add_edge(a, b, None, true).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
            });
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        assert_eq!(recs[0].snapshot_id, 0);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let tx = eng.begin(AccessMode::ReadOnly);
            for i in 0..6u64 {
                tx.translate_vertex_id(AppVertexId(i)).unwrap();
            }
            let a = tx.translate_vertex_id(AppVertexId(2)).unwrap();
            assert_eq!(tx.edge_count(a, EdgeOrientation::Outgoing).unwrap(), 1);
            tx.commit().unwrap();
        });
    }

    /// Delete-then-recreate across a checkpoint boundary: the replay
    /// must re-point the DHT at the recreated vertex's (possibly
    /// different) primary block.
    #[test]
    fn replay_handles_delete_and_recreate() {
        let td = TestDir::new("recreate");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("r", cfg, 1, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(1)).unwrap();
                tx.create_vertex(AppVertexId(2)).unwrap();
                tx.commit().unwrap();
                eng.checkpoint().unwrap();
                for _ in 0..3 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                    tx.delete_vertex(v).unwrap();
                    tx.commit().unwrap();
                    let tx = eng.begin(AccessMode::ReadWrite);
                    tx.create_vertex(AppVertexId(1)).unwrap();
                    tx.commit().unwrap();
                }
                // and one that lives and dies inside the tail: its put
                // sits *before* its delete in the log and must stay dead
                let tx = eng.begin(AccessMode::ReadWrite);
                let v = tx.create_vertex(AppVertexId(3)).unwrap();
                tx.commit().unwrap();
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.delete_vertex(v).unwrap();
                tx.commit().unwrap();
            });
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0);
            let tx = eng.begin(AccessMode::ReadOnly);
            tx.translate_vertex_id(AppVertexId(1)).unwrap();
            tx.translate_vertex_id(AppVertexId(2)).unwrap();
            assert!(tx.translate_vertex_id(AppVertexId(3)).is_err());
            tx.commit().unwrap();
            // storage is not leaking: delete the vertices and verify the
            // pool drains back to full
            let tx = eng.begin(AccessMode::ReadWrite);
            for i in [1u64, 2] {
                let v = tx.translate_vertex_id(AppVertexId(i)).unwrap();
                tx.delete_vertex(v).unwrap();
            }
            tx.commit().unwrap();
            assert_eq!(eng.bm.count_free(0), eng.cfg().blocks_per_rank);
        });
    }

    /// Regression: a replayed holder *shrink* must not release its
    /// surplus continuation blocks straight into the pool. Sweep 1
    /// cannot reserve a primary that was still allocated (as another
    /// chain's continuation) at snapshot time, so a continuation block
    /// freed mid-replay and re-acquired by a different chain would
    /// later be clobbered by the record whose primary it became.
    /// Choreography: X (3 blocks, rank-1 pool) shrinks in rank 0's log;
    /// Y and Z (rank-1 owners, Z multi-block) are created afterwards —
    /// Y from rank 1's log, Z from rank 0's — reusing X's freed blocks
    /// as their primaries.
    #[test]
    fn replayed_shrink_defers_continuation_frees() {
        let td = TestDir::new("shrink");
        let cfg = GdaConfig::tiny(); // 128 B blocks, 120 B payload
        let big = PropertyValue::Bytes(vec![0xAB; 260]); // 3-block holder
        {
            let (db, fabric) = GdaDb::with_fabric("s", cfg, 2, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let blob = if ctx.rank() == 0 {
                    Some(
                        eng.create_ptype(
                            "blob",
                            Datatype::Byte,
                            EntityType::Vertex,
                            Multiplicity::Single,
                            SizeType::NoLimit,
                            0,
                        )
                        .unwrap(),
                    )
                } else {
                    None
                };
                ctx.barrier();
                eng.refresh_meta();
                let blob = blob.unwrap_or_else(|| eng.meta().ptype_from_name("blob").unwrap());
                // X: app 1 (owner rank 1), 3 blocks
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let x = tx.create_vertex(AppVertexId(1)).unwrap();
                    tx.add_property(x, blob, &big).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
                eng.checkpoint().unwrap();
                // rank 0's log: shrink X back to one block
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let x = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                    tx.remove_properties(x, blob).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
                // rank 1's log: Y (app 3, owner rank 1) reuses a freed
                // continuation of X as its primary
                if ctx.rank() == 1 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let y = tx.create_vertex(AppVertexId(3)).unwrap();
                    tx.add_property(y, blob, &PropertyValue::Bytes(vec![33]))
                        .unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
                // rank 0's log again: Z (app 5, owner rank 1),
                // multi-block — its replay-time continuation allocation
                // must not steal Y's primary
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let z = tx.create_vertex(AppVertexId(5)).unwrap();
                    tx.add_property(z, blob, &big).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
            });
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0, "{rec:?}");
            let blob = eng.meta().ptype_from_name("blob").unwrap();
            let tx = eng.begin(AccessMode::ReadOnly);
            let x = tx.translate_vertex_id(AppVertexId(1)).unwrap();
            assert_eq!(tx.property(x, blob).unwrap(), None, "shrink replayed");
            let y = tx.translate_vertex_id(AppVertexId(3)).unwrap();
            assert_eq!(
                tx.property(y, blob).unwrap(),
                Some(PropertyValue::Bytes(vec![33]))
            );
            let z = tx.translate_vertex_id(AppVertexId(5)).unwrap();
            assert_eq!(
                tx.property(z, blob).unwrap(),
                Some(PropertyValue::Bytes(vec![0xAB; 260])),
                "Z's chain was clobbered by a reused continuation block"
            );
            tx.commit().unwrap();
        });
    }

    /// A failed (injected) checkpoint must leave the previous snapshot
    /// usable and the database serving.
    #[test]
    fn failed_checkpoint_keeps_previous_snapshot() {
        let td = TestDir::new("failckpt");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("f", cfg, 2, CostModel::zero());
            let store = db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    for i in 0..4u64 {
                        tx.create_vertex(AppVertexId(i)).unwrap();
                    }
                    tx.commit().unwrap();
                }
                ctx.barrier();
                assert_eq!(eng.checkpoint().unwrap(), 1);
                // one arming call (not one per rank thread): the fault
                // is scoped to rank 0's manifest write and fires once
                if ctx.rank() == 0 {
                    store.fault_plane().arm_at(
                        faults::MANIFEST_WRITE,
                        Some(0),
                        0,
                        1,
                        FaultMode::Error,
                    );
                }
                let err = eng.checkpoint();
                assert!(err.is_err(), "injected failure must surface");
                // the failed attempt left no partial snapshot behind
                assert_eq!(store.current(), 1);
                assert!(!store.ckpt_dir(2).exists());
                // the database still serves and still logs durably
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    tx.create_vertex(AppVertexId(50)).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
                // and a later checkpoint succeeds again
                assert_eq!(eng.checkpoint().unwrap(), 2);
            });
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        assert_eq!(recs[0].snapshot_id, 2);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let tx = eng.begin(AccessMode::ReadOnly);
            for i in [0u64, 1, 2, 3, 50] {
                tx.translate_vertex_id(AppVertexId(i)).unwrap();
            }
            tx.commit().unwrap();
        });
    }

    /// A torn final frame (crash mid-append) must not poison the log:
    /// recovery truncates at the last checksum-valid frame, keeps every
    /// earlier commit, and never surfaces an I/O error.
    #[test]
    fn torn_redo_tail_truncates_and_recovers() {
        let td = TestDir::new("torntail");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("tt", cfg, 1, CostModel::zero());
            let store = db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in 0..4u64 {
                    tx.create_vertex(AppVertexId(i)).unwrap();
                }
                tx.commit().unwrap();
                // crash mid-append: only 10 bytes of the next frame land
                store
                    .fault_plane()
                    .arm(faults::REDO_APPEND, FaultMode::TornWrite(10));
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(50)).unwrap();
                tx.commit().unwrap(); // in-memory commit stands
                assert_eq!(store.log_errors(), 1, "lost durability is counted");
            });
        }
        let torn_len = fs::metadata(td.0.join("redo-rank-0.log")).unwrap().len();
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0);
            assert!(
                rec.log_bytes < torn_len,
                "the torn bytes must be truncated, not parsed: {} !< {torn_len}",
                rec.log_bytes
            );
            let tx = eng.begin(AccessMode::ReadOnly);
            for i in 0..4u64 {
                tx.translate_vertex_id(AppVertexId(i)).unwrap();
            }
            // the torn commit was never durable
            assert!(tx.translate_vertex_id(AppVertexId(50)).is_err());
            tx.commit().unwrap();
        });
    }

    /// An append that *fails* (device error, no crash) must leave the
    /// log well-formed: commits after the failed one land and stay
    /// recoverable — a partial frame may never orphan later frames.
    #[test]
    fn failed_append_keeps_later_frames_recoverable() {
        let td = TestDir::new("failapp");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("fa", cfg, 1, CostModel::zero());
            let store = db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in 0..4u64 {
                    tx.create_vertex(AppVertexId(i)).unwrap();
                }
                tx.commit().unwrap();
                store
                    .fault_plane()
                    .arm(faults::REDO_APPEND, FaultMode::Error);
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(50)).unwrap();
                tx.commit().unwrap(); // durability lost, commit serves on
                assert_eq!(store.log_errors(), 1);
                // the log keeps appending cleanly after the error
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(60)).unwrap();
                tx.commit().unwrap();
                assert_eq!(store.log_errors(), 1);
            });
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0);
            let tx = eng.begin(AccessMode::ReadOnly);
            for i in [0u64, 1, 2, 3, 60] {
                tx.translate_vertex_id(AppVertexId(i)).unwrap();
            }
            assert!(
                tx.translate_vertex_id(AppVertexId(50)).is_err(),
                "the failed append's commit was never durable"
            );
            tx.commit().unwrap();
        });
    }

    /// A checkpoint that crashes at the `CURRENT` swing — after every
    /// rank wrote its snapshot piece, before publication — must leave
    /// every rank's log tail replayable against the *previous* snapshot.
    #[test]
    fn failed_publish_leaves_all_log_tails_replayable() {
        let td = TestDir::new("failpub");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("fp", cfg, 2, CostModel::zero());
            let store = db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    for i in 0..4u64 {
                        tx.create_vertex(AppVertexId(i)).unwrap();
                    }
                    tx.commit().unwrap();
                }
                ctx.barrier();
                assert_eq!(eng.checkpoint().unwrap(), 1);
                // post-checkpoint commits on *both* ranks: until the next
                // publish they live only in the per-rank redo tails
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(100 + ctx.rank() as u64))
                    .unwrap();
                tx.commit().unwrap();
                if ctx.rank() == 0 {
                    store
                        .fault_plane()
                        .arm(faults::CURRENT_RENAME, FaultMode::Error);
                }
                ctx.barrier();
                assert!(eng.checkpoint().is_err(), "publish crash must abort");
                // nothing rotated: every rank's tail still holds its commits
                let log = td.0.join(format!("redo-rank-{}.log", ctx.rank()));
                assert!(fs::metadata(&log).unwrap().len() > 0);
                assert_eq!(store.current(), 1);
                assert!(!store.ckpt_dir_exists(2), "aborted attempt unwinds");
            });
        }
        let cur = fs::read_to_string(td.0.join("CURRENT")).unwrap();
        assert_eq!(cur.trim(), "1", "CURRENT still names the old snapshot");
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        assert_eq!(recs[0].snapshot_id, 1);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0);
            let tx = eng.begin(AccessMode::ReadOnly);
            for i in [0u64, 1, 2, 3, 100, 101] {
                tx.translate_vertex_id(AppVertexId(i))
                    .unwrap_or_else(|e| panic!("vertex {i} lost: {e}"));
            }
            tx.commit().unwrap();
        });
    }

    /// Multi-rank traffic with cross-rank mirror updates: recovery must
    /// reconstruct identical read state on every rank.
    #[test]
    fn multi_rank_recovery_with_mirrors() {
        let td = TestDir::new("multi");
        let cfg = GdaConfig::tiny();
        let expected_edges = 12usize;
        {
            let (db, fabric) = GdaDb::with_fabric("m", cfg, 4, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    for i in 0..16u64 {
                        tx.create_vertex(AppVertexId(i)).unwrap();
                    }
                    tx.commit().unwrap();
                }
                ctx.barrier();
                eng.checkpoint().unwrap();
                // every rank adds edges from its own vertices (routed),
                // landing mirror updates in other ranks' holders
                let me = ctx.rank() as u64;
                for k in 0..3u64 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let a = tx.translate_vertex_id(AppVertexId(me + 4 * k)).unwrap();
                    let b = tx
                        .translate_vertex_id(AppVertexId((me + 4 * k + 5) % 16))
                        .unwrap();
                    tx.add_edge(a, b, None, true).unwrap();
                    tx.commit().unwrap();
                    ctx.barrier();
                }
            });
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0, "{rec:?}");
            let tx = eng.begin(AccessMode::ReadOnly);
            let mut out_edges = 0usize;
            for i in 0..16u64 {
                let v = tx.translate_vertex_id(AppVertexId(i)).unwrap();
                out_edges += tx.edge_count(v, EdgeOrientation::Outgoing).unwrap();
                // mirror invariant: in-degree total matches out-degree
            }
            assert_eq!(out_edges, expected_edges);
            tx.commit().unwrap();
            ctx.barrier();
        });
    }

    /// Regression: a primary that was *free at snapshot time* (its
    /// pre-checkpoint occupant was deleted before the checkpoint, which
    /// leaves the bytes and every chain pointer intact in `WIN_DATA`)
    /// can still decode as a stale incarnation of the very app id a
    /// post-checkpoint commit recreated there — the delete is not in
    /// the replayed tail, so nothing vacates the block. Replay must
    /// treat a sweep-1-claimed primary as vacant: following the stale
    /// chain makes `write_chain` reuse continuation blocks that belong
    /// to other replayed records.
    /// Choreography (2 ranks; apps 1/3/5 live in rank 1's pool):
    /// X (app 1, 3 blocks P→C1→C2) is created and deleted before the
    /// checkpoint, so the snapshot holds the intact stale chain with
    /// all three blocks free. After the checkpoint, rank 1 creates
    /// dummies that take C2 and C1 as their primaries, then rank 0
    /// recreates app 1 — LIFO hands it P. Replay runs rank 0's log
    /// first: at that moment the stale chain is still fully readable,
    /// and mistaking it for an occupant writes app 1's 3-block holder
    /// over C1/C2 — the dummies' primaries.
    #[test]
    fn replay_ignores_stale_chain_of_precheckpoint_deleted_holder() {
        let td = TestDir::new("stalechain");
        let cfg = GdaConfig::tiny(); // 128 B blocks, 120 B payload
        let big = PropertyValue::Bytes(vec![0xCD; 260]); // 3-block holder
        let big2 = PropertyValue::Bytes(vec![0xEE; 260]); // recreate's blob
        {
            let (db, fabric) = GdaDb::with_fabric("sc", cfg, 2, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let blob = if ctx.rank() == 0 {
                    Some(
                        eng.create_ptype(
                            "blob",
                            Datatype::Byte,
                            EntityType::Vertex,
                            Multiplicity::Single,
                            SizeType::NoLimit,
                            0,
                        )
                        .unwrap(),
                    )
                } else {
                    None
                };
                ctx.barrier();
                eng.refresh_meta();
                let blob = blob.unwrap_or_else(|| eng.meta().ptype_from_name("blob").unwrap());
                // X: app 1 (rank-1 pool), 3 blocks — created and deleted
                // entirely before the checkpoint
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let x = tx.create_vertex(AppVertexId(1)).unwrap();
                    tx.add_property(x, blob, &big).unwrap();
                    tx.commit().unwrap();
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let x = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                    tx.delete_vertex(x).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
                eng.checkpoint().unwrap();
                // rank 1's log: dummies take C2 and C1 as primaries
                if ctx.rank() == 1 {
                    for app in [3u64, 5] {
                        let tx = eng.begin(AccessMode::ReadWrite);
                        let d = tx.create_vertex(AppVertexId(app)).unwrap();
                        tx.add_property(d, blob, &PropertyValue::Bytes(vec![app as u8]))
                            .unwrap();
                        tx.commit().unwrap();
                    }
                }
                ctx.barrier();
                // rank 0's log: recreate app 1 at P, 3 blocks again
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let v = tx.create_vertex(AppVertexId(1)).unwrap();
                    tx.add_property(v, blob, &big2).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
            });
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0, "{rec:?}");
            let blob = eng.meta().ptype_from_name("blob").unwrap();
            let tx = eng.begin(AccessMode::ReadOnly);
            for (app, want) in [(1u64, vec![0xEE; 260]), (3, vec![3]), (5, vec![5])] {
                let v = tx.translate_vertex_id(AppVertexId(app)).unwrap();
                assert_eq!(
                    tx.property(v, blob).unwrap(),
                    Some(PropertyValue::Bytes(want)),
                    "app {app}"
                );
            }
            tx.commit().unwrap();
            ctx.barrier();
            // pool accounting survived: deleting everything must drain
            // rank 1's pool back to exactly full — a stale chain
            // replayed as an occupant corrupts it
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                for app in [1u64, 3, 5] {
                    let v = tx.translate_vertex_id(AppVertexId(app)).unwrap();
                    tx.delete_vertex(v).unwrap();
                }
                tx.commit().unwrap();
            }
            ctx.barrier();
            assert_eq!(eng.bm.count_free(1), eng.cfg().blocks_per_rank);
            ctx.barrier();
        });
    }

    /// Regression: enabling persistence on a database that already
    /// carries commits must not let a later incarnation of an app id
    /// stamp *below* an earlier logged delete. Every version, logged or
    /// not, is a stamp from the owner rank's commit-stamp counter, and
    /// every incarnation of an app id lives on that rank, so a recreate
    /// in another rank's redo tail stamps above the tombstone version
    /// and survives replay instead of being refused as stale.
    #[test]
    fn midlife_persistence_keeps_cross_log_versions_ordered() {
        let td = TestDir::new("midlife");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("ml", cfg, 2, CostModel::zero());
            // phase 1: no persistence — versions are owner-rank stamps
            // all the same
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                if ctx.rank() == 0 {
                    let age = eng
                        .create_ptype(
                            "age",
                            Datatype::Uint64,
                            EntityType::Vertex,
                            Multiplicity::Single,
                            SizeType::Fixed,
                            1,
                        )
                        .unwrap();
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let v = tx.create_vertex(AppVertexId(1)).unwrap();
                    tx.add_property(v, age, &PropertyValue::U64(0)).unwrap();
                    tx.commit().unwrap();
                    for i in 1..4u64 {
                        let tx = eng.begin(AccessMode::ReadWrite);
                        let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                        tx.update_property(v, age, &PropertyValue::U64(i)).unwrap();
                        tx.commit().unwrap();
                    }
                }
                ctx.barrier();
            });
            // phase 2: persistence enabled mid-life; checkpoint captures
            // the pre-persistence state, then delete and recreate land
            // in *different* ranks' redo tails
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.refresh_meta();
                eng.checkpoint().unwrap();
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                    tx.delete_vertex(v).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
                if ctx.rank() == 1 {
                    let age = eng.meta().ptype_from_name("age").unwrap();
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let v = tx.create_vertex(AppVertexId(1)).unwrap();
                    tx.add_property(v, age, &PropertyValue::U64(77)).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
            });
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0, "{rec:?}");
            let age = eng.meta().ptype_from_name("age").unwrap();
            let tx = eng.begin(AccessMode::ReadOnly);
            let v = tx
                .translate_vertex_id(AppVertexId(1))
                .expect("the cross-rank recreate must survive replay");
            assert_eq!(tx.property(v, age).unwrap(), Some(PropertyValue::U64(77)));
            tx.commit().unwrap();
        });
    }

    /// Regression: an object created *and* deleted after the checkpoint
    /// leaves only refused records in the tail (the delete tombstones
    /// its put). The primary sweep 1 claimed for the put must be
    /// released at end of replay, not leaked into every later
    /// checkpoint.
    #[test]
    fn refused_upsert_releases_claimed_primary() {
        let td = TestDir::new("refusedclaim");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("rc", cfg, 1, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(1)).unwrap();
                tx.commit().unwrap();
                eng.checkpoint().unwrap();
                // tail: create app 2, then delete it again
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(2)).unwrap();
                tx.commit().unwrap();
                let tx = eng.begin(AccessMode::ReadWrite);
                let v = tx.translate_vertex_id(AppVertexId(2)).unwrap();
                tx.delete_vertex(v).unwrap();
                tx.commit().unwrap();
            });
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0, "{rec:?}");
            let tx = eng.begin(AccessMode::ReadOnly);
            tx.translate_vertex_id(AppVertexId(1)).unwrap();
            assert!(tx.translate_vertex_id(AppVertexId(2)).is_err());
            tx.commit().unwrap();
            // app 2's sweep-1-claimed primary went back to the pool
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
            tx.delete_vertex(v).unwrap();
            tx.commit().unwrap();
            assert_eq!(eng.bm.count_free(0), eng.cfg().blocks_per_rank);
        });
    }

    /// Per app id: `None` (does not translate) or the `val` property
    /// plus the any-orientation edge count.
    type Observed = Vec<(u64, Option<(Option<PropertyValue>, usize)>)>;

    /// The observable state a reshard must preserve: per app id the
    /// `val` property and the any-orientation edge count, plus (when an
    /// index exists) the global set of indexed app ids.
    fn observable_state(eng: &GdaRank, ids: u64, val: PTypeId) -> Observed {
        let tx = eng.begin(AccessMode::ReadOnly);
        let out = (0..ids)
            .map(|i| {
                let entry = tx.translate_vertex_id(AppVertexId(i)).ok().map(|v| {
                    (
                        tx.property(v, val).unwrap(),
                        tx.edge_count(v, EdgeOrientation::Any).unwrap(),
                    )
                });
                (i, entry)
            })
            .collect();
        tx.commit().unwrap();
        out
    }

    /// Elastic reshard end to end: a 2-rank database with properties,
    /// lightweight + heavyweight edges, an index, a checkpoint and a
    /// redo tail (including a delete) restores identically onto 1, 3
    /// and 5 ranks — and the resharded database checkpoints at its own
    /// topology, so a further same-topology recovery works.
    #[test]
    fn resharded_recovery_preserves_state_across_rank_counts() {
        let td = TestDir::new("reshard");
        let cfg = GdaConfig::tiny();
        let ids = 10u64;
        {
            let (db, fabric) = GdaDb::with_fabric("rs", cfg, 2, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                if ctx.rank() == 0 {
                    eng.create_label("Node").unwrap();
                    eng.create_ptype(
                        "val",
                        Datatype::Uint64,
                        EntityType::Vertex,
                        Multiplicity::Single,
                        SizeType::Fixed,
                        1,
                    )
                    .unwrap();
                    eng.create_ptype(
                        "weight",
                        Datatype::Uint64,
                        EntityType::Edge,
                        Multiplicity::Single,
                        SizeType::Fixed,
                        1,
                    )
                    .unwrap();
                    eng.create_index("nodes", vec![LabelId(1)], vec![]).unwrap();
                }
                ctx.barrier();
                eng.refresh_meta();
                let val = eng.meta().ptype_from_name("val").unwrap();
                let weight = eng.meta().ptype_from_name("weight").unwrap();
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    for i in 0..ids {
                        let v = tx.create_vertex(AppVertexId(i)).unwrap();
                        tx.add_property(v, val, &PropertyValue::U64(i * 7)).unwrap();
                        if i.is_multiple_of(2) {
                            tx.add_label(v, LabelId(1)).unwrap();
                        }
                    }
                    tx.commit().unwrap();
                    // a heavyweight edge (property on the edge)
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let a = tx.translate_vertex_id(AppVertexId(0)).unwrap();
                    let b = tx.translate_vertex_id(AppVertexId(3)).unwrap();
                    let e = tx.add_edge(a, b, None, true).unwrap();
                    tx.set_edge_property(e, weight, &PropertyValue::U64(42))
                        .unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
                eng.checkpoint().unwrap();
                // redo tail: cross-rank edges, an update, a delete, and
                // a vertex that exists only in the logs
                if ctx.rank() == 1 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let a = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                    let b = tx.translate_vertex_id(AppVertexId(6)).unwrap();
                    tx.add_edge(a, b, None, true).unwrap();
                    tx.update_property(a, val, &PropertyValue::U64(999))
                        .unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let d = tx.translate_vertex_id(AppVertexId(4)).unwrap();
                    tx.delete_vertex(d).unwrap();
                    tx.commit().unwrap();
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let v = tx.create_vertex(AppVertexId(100)).unwrap();
                    tx.add_property(v, val, &PropertyValue::U64(5)).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
            });
        }
        // reference: what a same-topology recovery reads back
        let want = {
            let (db, fabric, _) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
            let states = fabric.run(|ctx| {
                let eng = db.attach(ctx);
                let val = eng.meta().ptype_from_name("val").unwrap();
                observable_state(&eng, 101, val)
            });
            states.into_iter().next().unwrap()
        };
        // each reshard's closing checkpoint becomes the next snapshot,
        // so the chain re-reshards its own output: 2 → 1 → 3 → 5
        let mut from = 2usize;
        for q in [1usize, 3, 5] {
            let (db, fabric, recs) =
                recover_with_topology(PersistOptions::new(&td.0), CostModel::zero(), Some(q))
                    .unwrap();
            assert!(recs.iter().map(|r| r.objects).sum::<u64>() > 0);
            let states = fabric.run(|ctx| {
                let eng = db.attach(ctx);
                let rec = &recs[ctx.rank()];
                assert_eq!(rec.resharded_from, Some(from));
                assert!(rec.final_checkpoint > 0, "reshard must publish");
                let val = eng.meta().ptype_from_name("val").unwrap();
                let weight = eng.meta().ptype_from_name("weight").unwrap();
                let got = observable_state(&eng, 101, val);
                // the heavy edge's property survived the move
                let tx = eng.begin(AccessMode::ReadOnly);
                let a = tx.translate_vertex_id(AppVertexId(0)).unwrap();
                let e = tx.edges(a, EdgeOrientation::Outgoing).unwrap()[0];
                assert_eq!(
                    tx.edge_property(e, weight).unwrap(),
                    Some(PropertyValue::U64(42)),
                    "Q={q}"
                );
                tx.commit().unwrap();
                // index postings survived membership-exact (vertex 4
                // was even/labelled but deleted in the tail)
                let ix = eng.all_indexes()[0].id;
                let mine: Vec<u64> = eng
                    .local_index_vertices(ix)
                    .into_iter()
                    .map(|p| p.app_id.0)
                    .collect();
                let mut all: Vec<u64> = ctx.allgatherv(mine).into_iter().flatten().collect();
                all.sort_unstable();
                assert_eq!(all, vec![0, 2, 6, 8], "Q={q}");
                // the resharded database accepts new transactions
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    tx.create_vertex(AppVertexId(500 + q as u64)).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
                got
            });
            for state in &states {
                assert_eq!(state, &want, "Q={q} diverged from same-topology recovery");
            }
            // the reshard's closing checkpoint is a native Q-topology
            // snapshot: a plain recover() boots Q ranks from it
            let (db2, fabric2, recs2) =
                recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
            assert_eq!(db2.nranks(), q);
            let states2 = fabric2.run(|ctx| {
                let eng = db2.attach(ctx);
                let rec = &recs2[ctx.rank()];
                assert_eq!(rec.errors, 0);
                let val = eng.meta().ptype_from_name("val").unwrap();
                observable_state(&eng, 101, val)
            });
            let mut follow = states2.into_iter().next().unwrap();
            // drop the vertices added post-reshard before comparing
            follow.retain(|(id, _)| *id < 500);
            assert_eq!(follow, want, "post-reshard recovery at Q={q}");
            from = q;
        }
    }

    /// Genesis reshard: no checkpoint was ever taken — the logical
    /// state comes entirely from the redo logs, rebuilt on more ranks.
    #[test]
    fn genesis_reshard_replays_logs_onto_new_topology() {
        let td = TestDir::new("genesis-reshard");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("gr", cfg, 2, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    for i in 0..6u64 {
                        tx.create_vertex(AppVertexId(i)).unwrap();
                    }
                    tx.commit().unwrap();
                }
                ctx.barrier();
                if ctx.rank() == 1 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let a = tx.translate_vertex_id(AppVertexId(2)).unwrap();
                    let b = tx.translate_vertex_id(AppVertexId(5)).unwrap();
                    tx.add_edge(a, b, None, true).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
            });
        }
        let (db, fabric, recs) =
            recover_with_topology(PersistOptions::new(&td.0), CostModel::zero(), Some(3)).unwrap();
        assert_eq!(recs[0].snapshot_id, 0);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let tx = eng.begin(AccessMode::ReadOnly);
            for i in 0..6u64 {
                tx.translate_vertex_id(AppVertexId(i)).unwrap();
            }
            let a = tx.translate_vertex_id(AppVertexId(2)).unwrap();
            assert_eq!(tx.edge_count(a, EdgeOrientation::Outgoing).unwrap(), 1);
            tx.commit().unwrap();
        });
    }

    /// A mid-reshard failure on a *receiving* rank must abort the whole
    /// restore collectively (no barrier deadlock), leave `CURRENT` at
    /// the previous P-topology snapshot, and keep a plain same-topology
    /// recovery of that snapshot fully working.
    #[test]
    fn failed_reshard_keeps_previous_snapshot_recoverable() {
        let td = TestDir::new("failreshard");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("fr", cfg, 2, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    for i in 0..8u64 {
                        tx.create_vertex(AppVertexId(i)).unwrap();
                    }
                    tx.commit().unwrap();
                }
                ctx.barrier();
                eng.checkpoint().unwrap();
                if ctx.rank() == 1 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    tx.create_vertex(AppVertexId(50)).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
            });
        }
        {
            let plane = FaultPlane::shared();
            plane.arm_at(
                faults::RESHARD_REDISTRIBUTE,
                Some(1),
                0,
                1,
                FaultMode::Error,
            );
            let mut opts = PersistOptions::new(&td.0);
            opts.faults = Some(plane.clone());
            let err = recover_with_topology(opts, CostModel::zero(), Some(4)).err();
            assert_eq!(
                err,
                Some(GdiError::Io("injected reshard failure".into())),
                "the collective abort returns the failing rank's error"
            );
            assert_eq!(plane.fired(), 1);
        }
        // CURRENT still names the P-topology snapshot...
        let cur = fs::read_to_string(td.0.join("CURRENT")).unwrap();
        assert_eq!(cur.trim(), "1", "aborted reshard must not publish");
        // ...and the untouched snapshot + logs recover at P as before
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        assert_eq!(db.nranks(), 2);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0);
            let tx = eng.begin(AccessMode::ReadOnly);
            for i in (0..8u64).chain([50]) {
                tx.translate_vertex_id(AppVertexId(i)).unwrap();
            }
            tx.commit().unwrap();
        });
    }

    /// Scale-in concentrates all data on fewer ranks: the live config
    /// must grow (blocks / DHT heap) so a 4-rank dataset fits on 1.
    #[test]
    fn scale_in_grows_per_rank_capacity() {
        let td = TestDir::new("scalein");
        let cfg = GdaConfig::tiny(); // 256 blocks, 256 heap entries/rank
        let per_rank = 120u64; // ~480 vertices: far beyond one tiny rank
        {
            let (db, fabric) = GdaDb::with_fabric("si", cfg, 4, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let me = ctx.rank() as u64;
                let tx = eng.begin(AccessMode::ReadWrite);
                for k in 0..per_rank {
                    tx.create_vertex(AppVertexId(me + 4 * k)).unwrap();
                }
                tx.commit().unwrap();
                ctx.barrier();
                eng.checkpoint().unwrap();
            });
        }
        let (db, fabric, recs) =
            recover_with_topology(PersistOptions::new(&td.0), CostModel::zero(), Some(1)).unwrap();
        assert!(
            db.cfg.blocks_per_rank > cfg.blocks_per_rank,
            "block pool must grow for scale-in: {}",
            db.cfg.blocks_per_rank
        );
        assert!(db.cfg.dht_heap_per_rank > cfg.dht_heap_per_rank);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0, "{rec:?}");
            let tx = eng.begin(AccessMode::ReadOnly);
            for i in 0..per_rank * 4 {
                tx.translate_vertex_id(AppVertexId(i)).unwrap();
            }
            tx.commit().unwrap();
        });
    }

    /// Regression: a *peer* rank's redo-log truncation failing after a
    /// full checkpoint published `CURRENT` must be non-fatal — the
    /// checkpoint still succeeds — and the stale frames it leaves behind
    /// (a create *and delete* of app 40, both already captured by the
    /// image) must be skipped at replay via their generation stamp.
    /// Without the stamp, replaying the stale delete against the new
    /// snapshot double-frees blocks the free list already owns, which
    /// the end-of-test pool accounting catches.
    #[test]
    fn failed_peer_truncation_is_nonfatal_and_stale_frames_are_skipped() {
        let td = TestDir::new("failtrunc");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("ft", cfg, 2, CostModel::zero());
            let store = db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    for i in 0..4u64 {
                        tx.create_vertex(AppVertexId(i)).unwrap();
                    }
                    tx.commit().unwrap();
                }
                ctx.barrier();
                assert_eq!(eng.checkpoint().unwrap(), 1);
                // rank 1's log: create and delete app 40 — both of
                // these land in checkpoint 2's image, so replaying them
                // *against* it is the double-free hazard
                if ctx.rank() == 1 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    tx.create_vertex(AppVertexId(40)).unwrap();
                    tx.commit().unwrap();
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let v = tx.translate_vertex_id(AppVertexId(40)).unwrap();
                    tx.delete_vertex(v).unwrap();
                    tx.commit().unwrap();
                    store.fault_plane().arm_at(
                        faults::REDO_ROTATE,
                        Some(1),
                        0,
                        1,
                        FaultMode::Error,
                    );
                }
                ctx.barrier();
                // truncation fails on rank 1, yet the checkpoint stands
                assert_eq!(eng.checkpoint_full().unwrap(), 2);
                assert_eq!(store.current(), 2);
                assert!(store.ckpt_dir_exists(2));
                let cur = fs::read_to_string(td.0.join("CURRENT")).unwrap();
                assert_eq!(cur.trim(), "2");
                // rank 1's log still holds the stale generation-1 frames
                if ctx.rank() == 1 {
                    assert!(
                        fs::metadata(td.0.join("redo-rank-1.log")).unwrap().len() > 0,
                        "the failed truncation must leave the stale frames"
                    );
                    // and new commits append *after* them, generation 2
                    let tx = eng.begin(AccessMode::ReadWrite);
                    tx.create_vertex(AppVertexId(50)).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
            });
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        assert_eq!(recs[0].snapshot_id, 2);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0, "{rec:?}");
            let tx = eng.begin(AccessMode::ReadOnly);
            for i in [0u64, 1, 2, 3, 50] {
                tx.translate_vertex_id(AppVertexId(i)).unwrap();
            }
            assert!(
                tx.translate_vertex_id(AppVertexId(40)).is_err(),
                "the stale frames must not resurrect app 40"
            );
            tx.commit().unwrap();
            ctx.barrier();
            // pool accounting: deleting everything drains both pools
            // back to full — a replayed stale delete corrupts this
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in [0u64, 1, 2, 3, 50] {
                    let v = tx.translate_vertex_id(AppVertexId(i)).unwrap();
                    tx.delete_vertex(v).unwrap();
                }
                tx.commit().unwrap();
            }
            ctx.barrier();
            assert_eq!(eng.bm.count_free(0), eng.cfg().blocks_per_rank);
            assert_eq!(eng.bm.count_free(1), eng.cfg().blocks_per_rank);
            ctx.barrier();
        });
    }

    /// Delta checkpoints chain onto the full base, write their manifest
    /// and seal each rank's log instead of an image, survive recovery —
    /// and gc must keep every chain member alive (the old `id - 1` rule
    /// would delete the base right out from under the deltas).
    #[test]
    fn delta_chain_recovers_and_gc_keeps_base() {
        let td = TestDir::new("deltachain");
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("dc", cfg, 1, CostModel::zero());
            let store = db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in 0..40u64 {
                    tx.create_vertex(AppVertexId(i)).unwrap();
                }
                tx.commit().unwrap();
                // first checkpoint: full (chain was empty)
                assert_eq!(eng.checkpoint().unwrap(), 1);
                let full = store.last_checkpoint().unwrap();
                assert!(full.full);
                assert_eq!(store.chain(), vec![1]);
                // a commit since → delta: the manifest, and the sealed log
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(100)).unwrap();
                tx.commit().unwrap();
                let logged = fs::metadata(store.log_path(0)).unwrap().len();
                assert_eq!(eng.checkpoint().unwrap(), 2);
                let delta = store.last_checkpoint().unwrap();
                assert!(!delta.full, "a logged commit must produce a delta");
                let manifest = fs::metadata(store.ckpt_dir(2).join("manifest.bin")).unwrap();
                assert_eq!(delta.per_rank_bytes, vec![manifest.len()]);
                assert_eq!(
                    fs::metadata(store.segment_path(2, 0)).unwrap().len(),
                    logged
                );
                assert!(!store.log_path(0).exists(), "the live log was sealed");
                // second delta: the old `n + 1 < id` gc rule would now
                // delete ckpt-1 — the chain's base
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(101)).unwrap();
                tx.commit().unwrap();
                assert_eq!(eng.checkpoint().unwrap(), 3);
                assert_eq!(store.chain(), vec![1, 2, 3]);
                assert!(
                    store.ckpt_dir_exists(1),
                    "gc must never remove a delta chain's base"
                );
                // a redo tail on top of the chain
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(102)).unwrap();
                tx.commit().unwrap();
            });
        }
        let (db, fabric, recs) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        assert_eq!(recs[0].snapshot_id, 3);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = &recs[ctx.rank()];
            assert_eq!(rec.errors, 0, "{rec:?}");
            let tx = eng.begin(AccessMode::ReadOnly);
            for i in (0..40u64).chain([100, 101, 102]) {
                tx.translate_vertex_id(AppVertexId(i)).unwrap();
            }
            tx.commit().unwrap();
        });
    }

    /// A full rebase resets the chain, and gc of the *new* chain
    /// reclaims the previous chain's files — while an injected gc
    /// failure is non-fatal and a later gc catches up.
    #[test]
    fn rebase_resets_chain_and_gc_failure_is_nonfatal() {
        let td = TestDir::new("rebase");
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("rb", cfg, 1, CostModel::zero());
        let store = db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let tx = eng.begin(AccessMode::ReadWrite);
            for i in 0..20u64 {
                tx.create_vertex(AppVertexId(i)).unwrap();
            }
            tx.commit().unwrap();
            assert_eq!(eng.checkpoint().unwrap(), 1); // full
            let tx = eng.begin(AccessMode::ReadWrite);
            tx.create_vertex(AppVertexId(100)).unwrap();
            tx.commit().unwrap();
            assert_eq!(eng.checkpoint().unwrap(), 2); // delta on 1
            assert_eq!(store.chain(), vec![1, 2]);
            // forced rebase with gc injected to fail: the checkpoint
            // must still succeed and leave the stale chain on disk
            store
                .fault_plane()
                .arm(faults::SNAP_PRUNE, FaultMode::Error);
            let tx = eng.begin(AccessMode::ReadWrite);
            tx.create_vertex(AppVertexId(101)).unwrap();
            tx.commit().unwrap();
            assert_eq!(eng.checkpoint_full().unwrap(), 3);
            assert!(store.last_checkpoint().unwrap().full);
            assert_eq!(store.chain(), vec![3]);
            assert!(store.ckpt_dir_exists(1), "failed gc removes nothing");
            assert!(store.ckpt_dir_exists(2));
            // the next checkpoint's gc catches up: only the live chain
            // and its immediate predecessor survive
            let tx = eng.begin(AccessMode::ReadWrite);
            tx.create_vertex(AppVertexId(102)).unwrap();
            tx.commit().unwrap();
            assert_eq!(eng.checkpoint().unwrap(), 4); // delta on 3
            assert_eq!(store.chain(), vec![3, 4]);
            assert!(!store.ckpt_dir_exists(1), "caught up");
            assert!(!store.ckpt_dir_exists(2));
            assert!(store.ckpt_dir_exists(3));
            assert!(store.ckpt_dir_exists(4));
        });
    }

    /// A one-rank database with a label, an index and a property,
    /// checkpointed into the chain `[1 (full), 2 (delta: a one-frame
    /// segment)]` with a live redo log behind it. Returns the store
    /// (readable after the fabric is gone).
    fn small_chain(td: &TestDir) -> Arc<PersistStore> {
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("hostile", cfg, 1, CostModel::zero());
        let store = db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let node = eng.create_label("Node").unwrap();
            eng.create_index("nodes", vec![node], vec![]).unwrap();
            let vertices = |ids: std::ops::Range<u64>| {
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in ids {
                    let v = tx.create_vertex(AppVertexId(i)).unwrap();
                    tx.add_label(v, node).unwrap();
                }
                tx.commit().unwrap();
            };
            vertices(0..12);
            assert_eq!(eng.checkpoint().unwrap(), 1);
            vertices(12..15);
            assert_eq!(eng.checkpoint().unwrap(), 2);
            assert!(!store.last_checkpoint().unwrap().full);
            vertices(15..17);
        });
        store
    }

    /// Recompute the trailing checksum of a snapshot or manifest image.
    fn reseal(file: &mut [u8]) {
        let body = file.len() - 8;
        let sum = Checksum::of(&file[..body]);
        file[body..].copy_from_slice(&sum.to_le_bytes());
    }

    /// Recompute the length and checksum of a single-frame redo image.
    fn reseal_frame(frame: &mut [u8]) {
        let (head, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
        head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[4..].copy_from_slice(&Checksum::of(payload).to_le_bytes());
    }

    /// Recompute the checksum of a segment's first frame over the payload
    /// its — possibly hostile — length declares, when the file holds that
    /// much: the frame decoder is reached whenever the length allows it.
    fn reseal_segment(segment: &mut [u8]) {
        let Some(head) = segment.get(..FRAME_HEADER_BYTES) else {
            return;
        };
        let len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
        if let Some(payload) = segment.get(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len) {
            let sum = Checksum::of(payload).to_le_bytes();
            segment[4..FRAME_HEADER_BYTES].copy_from_slice(&sum);
        }
    }

    /// The four parsers fed `bytes` in place of the file at `target`
    /// (0 = full snapshot, read by recovery's record reader, 1 = sealed
    /// segment, 2 = manifest, 3 = redo frame), checksum re-sealed so the
    /// parser itself is reached: each must return a value or a typed I/O
    /// error, and a segment broken at any frame must refuse the redo
    /// history.
    fn parse_hostile(
        store: &PersistStore,
        target: usize,
        mut bytes: Vec<u8>,
    ) -> Result<(), String> {
        let typed = |r: GdiResult<()>| match r {
            Ok(()) | Err(GdiError::Io(_)) => Ok(()),
            Err(other) => Err(format!("untyped error {other:?}")),
        };
        match target {
            0 => {
                if bytes.len() >= 8 {
                    reseal(&mut bytes);
                }
                let path = store.ckpt_dir(1).join("rank-0.snap");
                let original = fs::read(&path).unwrap();
                fs::write(&path, &bytes).unwrap();
                let got = recover::seed_alone(store, 1, 1);
                fs::write(&path, original).unwrap();
                typed(got.map(|_| ()))
            }
            1 => {
                reseal_segment(&mut bytes);
                let path = store.segment_path(2, 0);
                let original = fs::read(&path).unwrap();
                fs::write(&path, &bytes).unwrap();
                let got = store.read_log(0, &[1, 2]);
                fs::write(&path, original).unwrap();
                // a segment broken anywhere refuses the history; a whole
                // one is read, the live log behind it
                let (prefix, valid) = parse(&bytes, 1);
                match got {
                    Err(GdiError::Io(_)) if valid < bytes.len() => Ok(()),
                    Ok((records, read, _))
                        if valid == bytes.len()
                            && records.starts_with(&prefix)
                            && read > valid as u64 =>
                    {
                        Ok(())
                    }
                    other => Err(format!(
                        "segment valid for {valid} of {} bytes read as {other:?}",
                        bytes.len()
                    )),
                }
            }
            2 => {
                if bytes.len() >= 8 {
                    reseal(&mut bytes);
                }
                typed(decode_manifest(&bytes).map(|_| ()))
            }
            _ => {
                if bytes.len() >= FRAME_HEADER_BYTES {
                    reseal_frame(&mut bytes);
                }
                let (records, valid) = parse(&bytes, 0);
                if valid != 0 && valid != bytes.len() {
                    return Err(format!("valid prefix {valid} of {}", bytes.len()));
                }
                if valid == 0 && !records.is_empty() {
                    return Err("records out of a rejected frame".into());
                }
                // what the frame decodes to also replays without a panic:
                // a splice that does not fit its base is refused
                let puts = records
                    .iter()
                    .filter(|r| matches!(r, RedoRecord::Put { .. }))
                    .count() as u64;
                let (_, [applied, skipped, refused, errors]) = recover::replay_alone(&[records]);
                if applied + skipped + refused + errors < puts {
                    return Err(format!(
                        "{puts} puts, {applied} + {skipped} + {refused} + {errors}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// A [`small_chain`] directory kept alive with the pristine images
    /// [`parse_hostile`] mutates.
    struct HostileFixture {
        _dir: TestDir,
        store: Arc<PersistStore>,
        images: Vec<Vec<u8>>,
    }

    impl HostileFixture {
        fn new(tag: &str) -> Self {
            let dir = TestDir::new(tag);
            let store = small_chain(&dir);
            let images = pristine_images(&store);
            Self {
                _dir: dir,
                store,
                images,
            }
        }
    }

    /// A holder and a write to it: the base and the patch of the
    /// hostile frame.
    fn patched_holder() -> (Vec<u8>, Vec<u8>) {
        let mut h = crate::holder::Holder::new_vertex(7);
        h.push_edge(crate::holder::EdgeRecord::lightweight(
            DPtr::new(0, 512),
            0,
            gdi::Direction::Out,
        ));
        h.add_property(PTypeId(3), &[9; 40]);
        h.set_version(3);
        let pre = h.bytes().to_vec();
        h.set_property(PTypeId(3), &[9; 41]);
        h.set_version(4);
        (pre, h.bytes().to_vec())
    }

    /// The pristine images [`parse_hostile`] mutates, in target order.
    /// The frame holds a whole image, a patch over it and a delete.
    fn pristine_images(store: &PersistStore) -> Vec<Vec<u8>> {
        let (pre, post) = patched_holder();
        let primary = DPtr::new(0, 256).raw();
        let frame = encode_frame(
            &[
                redo::whole(primary, 7, 3, &pre),
                RedoRecord::Put {
                    primary,
                    app_id: 7,
                    is_edge: false,
                    version: 4,
                    base: Some(3),
                    splice: crate::holder::splice(&pre, &post),
                },
                RedoRecord::Delete {
                    primary: DPtr::new(0, 128).raw(),
                    app_id: 9,
                    is_edge: true,
                    version: 11,
                },
            ],
            2,
        );
        vec![
            fs::read(store.ckpt_dir(1).join("rank-0.snap")).unwrap(),
            fs::read(store.segment_path(2, 0)).unwrap(),
            fs::read(store.ckpt_dir(2).join("manifest.bin")).unwrap(),
            frame,
        ]
    }

    /// Hostile puts, one field at a time: a splice reaching past its
    /// base's body, edge records the new body cannot hold, a whole image
    /// whose edge records overrun it. The frame codec refuses the whole
    /// image with a typed error; the patches decode, and replay refuses
    /// each one at its base — counted as an error, the base left as it
    /// was — instead of panicking or applying it.
    #[test]
    fn hostile_puts_are_refused_not_applied() {
        let (pre, post) = patched_holder();
        let good = crate::holder::splice(&pre, &post);
        let body = (pre.len() - crate::holder::HEADER_BYTES) as u32;
        let put = |splice: crate::holder::Splice| RedoRecord::Put {
            primary: 1,
            app_id: 7,
            is_edge: false,
            version: 4,
            base: Some(3),
            splice,
        };
        let (objects, counts) =
            recover::replay_alone(&[vec![redo::whole(1, 7, 3, &pre), put(good.clone())]]);
        assert_eq!(counts, [2, 0, 0, 0]);
        assert_eq!(objects[&1].1, post, "the pristine patch applies");
        use crate::holder::Splice;
        for bad in [
            Splice {
                at: body + 1,
                cut: 0,
                ..good.clone()
            },
            Splice {
                at: body,
                cut: 1,
                ..good.clone()
            },
            Splice {
                at: u32::MAX,
                cut: u32::MAX,
                ..good.clone()
            },
            Splice {
                num_edges: 2,
                ..good.clone()
            },
            Splice {
                num_edges: u32::MAX,
                ..good.clone()
            },
        ] {
            let frame = encode_frame(&[redo::whole(1, 7, 3, &pre), put(bad.clone())], 0);
            let (records, valid) = parse(&frame, 0);
            assert_eq!(valid, frame.len(), "a patch is checked at its base");
            let (objects, counts) = recover::replay_alone(&[records]);
            assert_eq!(counts, [1, 0, 0, 1], "{bad:?}");
            assert_eq!(objects[&1], (3, pre.clone()), "{bad:?}: the base stands");
        }
        let mut whole = redo::whole(1, 7, 3, &pre);
        if let RedoRecord::Put { splice, .. } = &mut whole {
            splice.num_edges = 4;
        }
        let frame = encode_frame(&[whole], 0);
        assert_eq!(
            parse(&frame, 0),
            (Vec::new(), 0),
            "a whole image is checked whole"
        );
    }

    /// Every 4- and 8-byte field position of every persisted structure
    /// survives the values a hostile length would take: nothing
    /// panics, and nothing is allocated from a count the input cannot
    /// back (`u32::MAX` postings or `2⁶³` records would abort the
    /// test process if they were). A sealed segment — what recovery
    /// replays for a delta — is swept whole, and the three ways its
    /// first frame can point past itself each stop the frame parser at
    /// byte 0 and refuse the history with a typed error.
    #[test]
    fn every_field_position_survives_hostile_values() {
        let fx = HostileFixture::new("hostile-sweep");
        let store = &fx.store;
        let segment = &fx.images[1];
        // the first record of the first frame is a whole image: tag,
        // primary, app id, edge flag, version, edge records, then its
        // bytes' length
        let record_bytes_len = FRAME_HEADER_BYTES + 8 + 4 + 1 + 8 + 8 + 1 + 8 + 4;
        assert_eq!(
            segment[FRAME_HEADER_BYTES + 12],
            1,
            "a whole image comes first"
        );
        for (what, at) in [
            ("frame length past the file", 0),
            ("record count past the payload", FRAME_HEADER_BYTES + 8),
            ("record bytes past the frame", record_bytes_len),
        ] {
            let mut m = segment.clone();
            m[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            reseal_segment(&mut m);
            assert_eq!(
                parse(&m, 0),
                (Vec::new(), 0),
                "{what}: the first frame stops"
            );
            let path = store.segment_path(2, 0);
            fs::write(&path, &m).unwrap();
            let got = store.read_log(0, &[1, 2]);
            fs::write(&path, segment).unwrap();
            assert!(
                matches!(&got, Err(GdiError::Io(e)) if e.contains("byte 0 of sealed redo segment")),
                "{what}: {got:?}"
            );
        }
        for (target, image) in fx.images.iter().enumerate() {
            parse_hostile(store, target, image.clone()).unwrap();
            for at in 0..image.len() {
                for (width, hostile) in [
                    (4usize, u32::MAX as u64),
                    (4, 1 << 31),
                    (4, 1 << 20),
                    (8, u64::MAX),
                    (8, 1 << 63),
                    (8, 1 << 32),
                ] {
                    if at + width > image.len() {
                        continue;
                    }
                    let mut m = image.clone();
                    m[at..at + width].copy_from_slice(&hostile.to_le_bytes()[..width]);
                    if let Err(e) = parse_hostile(store, target, m) {
                        panic!("target {target} offset {at} width {width} := {hostile:#x}: {e}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// Random damage — overwritten fields, truncation, appended
        /// bytes — to valid snapshot, sealed-segment, manifest and
        /// redo-frame images, re-sealed so the checksum passes: the
        /// parser answers with a value or a typed error, never a panic.
        #[test]
        fn resealed_mutations_never_panic_a_parser(
            target in 0usize..4,
            edits in proptest::prop::collection::vec(
                (0.0f64..1.0, 0usize..3, proptest::any::<u64>(), 0usize..4),
                1..5,
            ),
            cut in proptest::prop::option::of(0.0f64..1.0),
            extra in proptest::prop::collection::vec(proptest::any::<u8>(), 0..24),
        ) {
            let fx = HostileFixture::new("hostile-prop");
            let mut m = fx.images[target].clone();
            for (at, width, value, shape) in edits {
                let width = [1usize, 4, 8][width];
                let at = ((m.len() - width) as f64 * at) as usize;
                // small counts, huge counts, sign bits and noise
                let value = match shape {
                    0 => value,
                    1 => value % 64,
                    2 => u64::MAX - value % 64,
                    _ => 1u64 << (value % 64),
                };
                m[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
            if let Some(cut) = cut {
                m.truncate((m.len() as f64 * cut) as usize);
            }
            m.extend_from_slice(&extra);
            let outcome = parse_hostile(&fx.store, target, m);
            proptest::prop_assert!(outcome.is_ok(), "target {target}: {outcome:?}");
        }
    }

    /// FNV-1a over bytes: the checksum of format versions 2–5.
    fn fnv1a_v5(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ *b as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// The snapshot and manifest files of a [`small_chain`] directory.
    const SMALL_CHAIN_FILES: [&str; 3] = [
        "ckpt-1/rank-0.snap",
        "ckpt-1/manifest.bin",
        "ckpt-2/manifest.bin",
    ];

    /// Every file under `dir` with its bytes, sorted by path.
    fn listing(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        let mut dirs = vec![dir.to_path_buf()];
        while let Some(d) = dirs.pop() {
            for e in fs::read_dir(&d).unwrap().flatten() {
                if e.path().is_dir() {
                    dirs.push(e.path());
                } else {
                    files.push((e.path(), fs::read(e.path()).unwrap()));
                }
            }
        }
        files.sort();
        files
    }

    /// A directory written by format version 5 is refused at the
    /// manifest with the version named — not reported as a checksum
    /// mismatch, and before any redo frame is parsed: under the v6
    /// checksum every v5 frame looks like a torn tail, which replay
    /// would truncate away.
    #[test]
    fn v5_directory_is_refused_by_version_and_left_untouched() {
        let td = TestDir::new("v5dir");
        small_chain(&td);
        // rewrite every file as version 5 would have sealed it
        for name in SMALL_CHAIN_FILES {
            let path = td.0.join(name);
            let mut file = fs::read(&path).unwrap();
            file[8..12].copy_from_slice(&5u32.to_le_bytes());
            let body = file.len() - 8;
            let sum = fnv1a_v5(&file[..body]);
            file[body..].copy_from_slice(&sum.to_le_bytes());
            fs::write(&path, file).unwrap();
        }
        let log_path = td.0.join("redo-rank-0.log");
        let mut log = fs::read(&log_path).unwrap();
        let (records, valid) = parse(&log, 0);
        assert!(!records.is_empty() && valid == log.len());
        let mut pos = 0;
        while pos < log.len() {
            let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
            let payload = pos + FRAME_HEADER_BYTES..pos + FRAME_HEADER_BYTES + len;
            let sum = fnv1a_v5(&log[payload.clone()]);
            log[pos + 4..pos + FRAME_HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
            pos = payload.end;
        }
        fs::write(&log_path, &log).unwrap();
        assert_eq!(
            parse(&log, 0),
            (Vec::new(), 0),
            "a v5 frame is a torn tail to the v6 parser"
        );

        let before = listing(&td.0);
        let err = recover(PersistOptions::new(&td.0), CostModel::zero()).err();
        assert_eq!(
            err,
            Some(GdiError::Io("unsupported manifest version 5".into()))
        );
        assert!(
            listing(&td.0) == before,
            "a refused recovery changed the directory"
        );
        // the snapshot reader names the version the same way
        let snap = snapshot::verify_file(
            &td.0.join("ckpt-1/rank-0.snap"),
            format::SNAP_MAGIC,
            "snapshot",
            None,
        );
        assert_eq!(
            snap.unwrap_err(),
            GdiError::Io("unsupported snapshot version 5".into())
        );
    }

    /// Format-6 to -9 directories are refused by version with a typed
    /// error and left byte-identical. A v6 full carries four window
    /// images, archives and free blocks; a v7 delta is an image patch the
    /// recovery no longer folds — while its redo log holds only the
    /// frames since that delta, so reading it as current would silently
    /// drop every commit the patches carried; a v8 config record carries
    /// two switch bytes the v9 decoder would misread as lengths; a v9
    /// redo put is a whole holder, header included, which the v10
    /// decoder would read as an edge count and a body. All five share
    /// the checksum: only the version word tells them apart.
    #[test]
    fn v6_directory_is_refused_by_version() {
        for old in [6u32, 7, 8, 9] {
            let td = TestDir::new(&format!("v{old}dir"));
            small_chain(&td);
            for name in SMALL_CHAIN_FILES {
                let path = td.0.join(name);
                let mut file = fs::read(&path).unwrap();
                file[8..12].copy_from_slice(&old.to_le_bytes());
                reseal(&mut file);
                fs::write(&path, file).unwrap();
            }
            let before = listing(&td.0);
            let err = recover(PersistOptions::new(&td.0), CostModel::zero()).err();
            assert_eq!(
                err,
                Some(GdiError::Io(format!("unsupported manifest version {old}")))
            );
            assert!(listing(&td.0) == before, "v{old}: the directory changed");
            let snap = snapshot::verify_file(
                &td.0.join("ckpt-1/rank-0.snap"),
                format::SNAP_MAGIC,
                "snapshot",
                None,
            );
            assert_eq!(
                snap.unwrap_err(),
                GdiError::Io(format!("unsupported snapshot version {old}"))
            );
        }
    }
    /// A snapshot file written by format version 10 — window images and
    /// a config record where v11 has records — is refused by version
    /// under a current manifest, with the directory left as it was.
    #[test]
    fn v10_snapshot_is_refused_by_version() {
        let td = TestDir::new("v10snap");
        small_chain(&td);
        let path = td.0.join("ckpt-1/rank-0.snap");
        let mut file = fs::read(&path).unwrap();
        file[8..12].copy_from_slice(&10u32.to_le_bytes());
        reseal(&mut file);
        fs::write(&path, file).unwrap();
        let before = listing(&td.0);
        let err = recover(PersistOptions::new(&td.0), CostModel::zero()).err();
        assert_eq!(
            err,
            Some(GdiError::Io("unsupported snapshot version 10".into()))
        );
        assert!(listing(&td.0) == before, "the directory changed");
    }

    /// A format-11 directory — whose manifests carry a seven-word config
    /// record, two words longer than v12's: a v12 decoder would read
    /// the lock-retry word as the translation-cache capacity and the
    /// chain limit as the start of the metadata — is refused by version
    /// at its manifest and left byte-identical.
    #[test]
    fn v11_directory_is_refused_by_version_and_left_untouched() {
        let td = TestDir::new("v11dir");
        small_chain(&td);
        for name in SMALL_CHAIN_FILES {
            let path = td.0.join(name);
            let mut file = fs::read(&path).unwrap();
            file[8..12].copy_from_slice(&11u32.to_le_bytes());
            reseal(&mut file);
            fs::write(&path, file).unwrap();
        }
        let before = listing(&td.0);
        let err = recover(PersistOptions::new(&td.0), CostModel::zero()).err();
        assert_eq!(
            err,
            Some(GdiError::Io("unsupported manifest version 11".into()))
        );
        assert!(listing(&td.0) == before, "the directory changed");
    }

    /// A format-12 directory — whose snapshot holders may carry the
    /// archive-chain depth in flag bits 16..24, which the v13 decoder
    /// refuses as unknown flags — is refused by version at its manifest
    /// and left byte-identical.
    #[test]
    fn v12_directory_is_refused_by_version_and_left_untouched() {
        let td = TestDir::new("v12dir");
        small_chain(&td);
        for name in SMALL_CHAIN_FILES {
            let path = td.0.join(name);
            let mut file = fs::read(&path).unwrap();
            file[8..12].copy_from_slice(&12u32.to_le_bytes());
            reseal(&mut file);
            fs::write(&path, file).unwrap();
        }
        let before = listing(&td.0);
        let err = recover(PersistOptions::new(&td.0), CostModel::zero()).err();
        assert_eq!(
            err,
            Some(GdiError::Io("unsupported manifest version 12".into()))
        );
        assert!(listing(&td.0) == before, "the directory changed");
    }

    /// A snapshot file of the current format, checkpoint 1, shard 0 of
    /// 1: `records`, no postings, `count` as the record count, checksum
    /// sealed.
    fn records_file(records: &[(DPtr, Vec<u8>)], count: u64) -> Vec<u8> {
        let mut e = Enc::default();
        e.buf.extend_from_slice(format::SNAP_MAGIC);
        e.u32(FORMAT_VERSION);
        e.u64(1);
        e.u32(0);
        e.u32(1);
        for (primary, holder) in records {
            e.u64(primary.raw());
            e.bytes(holder);
        }
        e.u32(0);
        e.u64(count);
        e.u64(0);
        reseal(&mut e.buf);
        e.buf
    }

    /// What recovery's record reader makes of `file` as the chain base
    /// of a one-rank directory: the primaries it lifts, or its refusal.
    fn read_records(file: Vec<u8>) -> GdiResult<Vec<u64>> {
        let td = TestDir::new("records");
        let store = PersistStore::new(PersistOptions::new(&td.0), 1, 1, vec![1]);
        fs::create_dir_all(store.ckpt_dir(1)).unwrap();
        fs::write(store.ckpt_dir(1).join("rank-0.snap"), file).unwrap();
        recover::seed_alone(&store, 1, 1)
    }

    /// Block `b` of rank 0: vertex 1 sits in block 1 (`at(1)`), vertex 2
    /// in block 2, the edge holder in block 3.
    fn at(b: u64) -> DPtr {
        DPtr::new(0, 512 * b)
    }

    /// The records a full checkpoint writes for vertices 1 and 2 joined by
    /// a heavyweight edge whose records name `edge_holder`, and the edge's
    /// holder.
    fn heavy_pair(edge_holder: DPtr) -> Vec<(DPtr, Vec<u8>)> {
        let mut a = crate::holder::Holder::new_vertex(1);
        let mut b = crate::holder::Holder::new_vertex(2);
        for (v, to, dir) in [
            (&mut a, at(2), gdi::Direction::Out),
            (&mut b, at(1), gdi::Direction::In),
        ] {
            v.push_edge(crate::holder::EdgeRecord {
                edge_holder,
                ..crate::holder::EdgeRecord::lightweight(to, 0, dir)
            });
        }
        let e = crate::holder::Holder::new_edge(at(1), at(2));
        vec![
            (at(1), a.bytes().to_vec()),
            (at(2), b.bytes().to_vec()),
            (at(3), e.bytes().to_vec()),
        ]
    }

    /// The refusal `read_records` answers `records` with.
    fn refusal(records: &[(DPtr, Vec<u8>)]) -> String {
        match read_records(records_file(records, records.len() as u64)) {
            Err(GdiError::Io(e)) => e,
            other => panic!("expected a typed I/O error, got {other:?}"),
        }
    }

    #[test]
    fn record_reader_lifts_a_heavy_edge_and_its_holder() {
        let pair = heavy_pair(at(3));
        assert_eq!(
            read_records(records_file(&pair, 3)),
            Ok(vec![at(1).raw(), at(2).raw(), at(3).raw()])
        );
        assert_eq!(read_records(records_file(&[], 0)), Ok(vec![]));
    }

    #[test]
    fn record_reader_refuses_a_holder_that_does_not_decode() {
        let want = "recovery: a snapshot record holds no holder";
        for cut in [1, 8] {
            let mut pair = heavy_pair(at(3));
            let len = pair[1].1.len();
            pair[1].1.truncate(len - cut);
            assert_eq!(refusal(&pair), want, "{cut} bytes short");
        }
        let mut pair = heavy_pair(at(3));
        pair[1].1.extend_from_slice(&[0; 8]);
        assert_eq!(refusal(&pair), want, "longer than its holder");
        let mut pair = heavy_pair(at(3));
        pair[0].1[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(refusal(&pair), want, "unknown flags");
        let mut pair = heavy_pair(at(3));
        pair[0].1[48 + 22] = 0xFF; // the pad of vertex 1's edge record
        assert_eq!(refusal(&pair), want, "a non-zero pad byte");
    }

    #[test]
    fn record_reader_refuses_an_edge_holder_that_is_a_vertex() {
        // both edge records name vertex 2's holder as the edge's
        assert_eq!(
            refusal(&heavy_pair(at(2))),
            "recovery: an edge record names no edge-holder record"
        );
    }

    #[test]
    fn record_reader_refuses_an_edge_holder_naming_no_record() {
        let mut pair = heavy_pair(at(3));
        pair.pop();
        assert_eq!(
            refusal(&pair),
            "recovery: an edge record names no edge-holder record"
        );
    }

    #[test]
    fn record_reader_refuses_a_repeated_primary() {
        let mut pair = heavy_pair(at(3));
        let other = crate::holder::Holder::new_vertex(3).bytes().to_vec();
        pair.push((at(1), other));
        assert_eq!(refusal(&pair), "recovery: a primary recorded twice");
    }

    #[test]
    fn record_reader_refuses_a_repeated_vertex_app_id() {
        let mut pair = heavy_pair(at(3));
        let again = crate::holder::Holder::new_vertex(2).bytes().to_vec();
        pair.push((DPtr::new(0, 2048), again));
        assert_eq!(refusal(&pair), "recovery: a vertex app id recorded twice");
    }

    #[test]
    fn record_reader_refuses_a_primary_off_its_shard() {
        for primary in [DPtr::new(1, 2048), DPtr::NULL] {
            let mut pair = heavy_pair(at(3));
            pair.push((
                primary,
                crate::holder::Holder::new_vertex(3).bytes().to_vec(),
            ));
            assert_eq!(refusal(&pair), "snapshot record off its shard's rank");
        }
    }

    #[test]
    fn record_reader_refuses_counts_beyond_the_bytes_left() {
        let pair = heavy_pair(at(3));
        let beyond = "persisted count exceeds the bytes that remain";
        // (12 bytes is the least a record takes)
        let fits = (records_file(&pair, 3).len() as u64 - 28 - 16) / 12;
        for count in [fits + 1, 1 << 28, u64::MAX] {
            let got = read_records(records_file(&pair, count));
            assert_eq!(got, Err(GdiError::Io(beyond.into())), "count {count}");
        }
        // the first record's length, just past and far past the file
        let left = records_file(&pair, 3).len() as u32 - 28 - 12;
        for len in [left, 1 << 28, u32::MAX] {
            let mut file = records_file(&pair, 3);
            file[36..40].copy_from_slice(&len.to_le_bytes());
            reseal(&mut file);
            let got = read_records(file);
            assert_eq!(got, Err(GdiError::Io(beyond.into())), "length {len}");
        }
    }
}
