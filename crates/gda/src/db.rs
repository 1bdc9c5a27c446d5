//! Database objects and the per-rank engine handle.
//!
//! A [`GdaDb`] is one GDI database: configuration, replicated metadata and
//! explicit-index state. GDA supports **multiple parallel databases**
//! (§3.9) through the [`DbRegistry`]; each database's graph data lives in
//! the fabric windows, disambiguated per database instance (one fabric per
//! database in this implementation — the registry tracks the objects).
//!
//! Inside `fabric.run`, every rank *attaches* to the database
//! ([`GdaDb::attach`]) to obtain a [`GdaRank`]: the engine handle providing
//! metadata routines, index routines, and [`GdaRank::begin`] /
//! [`GdaRank::begin_collective`] to start transactions.

use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use gdi::{
    AccessMode, AppVertexId, Datatype, EntityType, GdiError, GdiResult, LabelId, Multiplicity,
    PTypeId, SizeType, TxKind,
};
use rma::{CostModel, Counter, Fabric, RankCtx};

use crate::blocks::BlockManager;
use crate::config::GdaConfig;
use crate::dht::Dht;
use crate::dptr::DPtr;
use crate::index::{IndexId, IndexShared, Posting};
use crate::locks::LockManager;
use crate::meta::{MetaSnapshot, MetaStore, SharedMeta};
use crate::persist::{PersistOptions, PersistStore, RedoRecord};
use crate::tx::Transaction;

/// One GDI database (shared, rank-independent state).
#[derive(Debug)]
pub struct GdaDb {
    /// Database name (the registry key).
    pub name: String,
    /// The configuration the storage windows are laid out for.
    pub cfg: GdaConfig,
    nranks: usize,
    pub(crate) meta: SharedMeta,
    pub(crate) indexes: Arc<IndexShared>,
    persist: Mutex<Option<Arc<PersistStore>>>,
    /// One retire list per rank, here rather than in the rank's
    /// [`GdaRank`] so it outlives a `fabric.run` (see
    /// [`GdaRank::reclaim_archives`]).
    retired: Vec<Mutex<RetireList>>,
}

/// The blocks of the archive records one rank's commits wrote, each
/// tagged with the epoch of the commit that wrote it: the rank frees an
/// entry once the snapshot floor reaches that epoch.
#[derive(Debug, Default)]
struct RetireList {
    entries: Vec<Retired>,
    /// Entries the last reclaim kept: a commit reclaims again once the
    /// list holds more than twice as many (and more than P).
    kept: usize,
}

#[derive(Debug, Clone, Copy)]
struct Retired {
    epoch: u64,
    block: DPtr,
    /// The record's first block (counts the record once).
    first: bool,
}

impl GdaDb {
    /// Create a database for a fabric of `nranks` ranks.
    pub fn new(name: &str, cfg: GdaConfig, nranks: usize) -> Arc<GdaDb> {
        cfg.validate();
        Arc::new(GdaDb {
            name: name.to_string(),
            cfg,
            nranks,
            meta: Arc::new(MetaStore::new()),
            indexes: Arc::new(IndexShared::new(nranks)),
            persist: Mutex::new(None),
            retired: (0..nranks).map(|_| Mutex::default()).collect(),
        })
    }

    /// Rebuild a database object from recovered parts (the catalog and
    /// index definitions a snapshot manifest carried).
    pub(crate) fn restore(
        name: &str,
        cfg: GdaConfig,
        nranks: usize,
        meta: MetaStore,
        indexes: IndexShared,
    ) -> Arc<GdaDb> {
        cfg.validate();
        Arc::new(GdaDb {
            name: name.to_string(),
            cfg,
            nranks,
            meta: Arc::new(meta),
            indexes: Arc::new(indexes),
            persist: Mutex::new(None),
            retired: (0..nranks).map(|_| Mutex::default()).collect(),
        })
    }

    /// Turn on durability: every commit from now on appends to a
    /// per-rank redo log under `opts.dir`, and [`GdaRank::checkpoint`]
    /// (collective) writes snapshots there. Writes a genesis manifest
    /// (checkpoint 0) capturing the catalog as of now; fails if the
    /// directory already holds a database (use
    /// [`crate::persist::recover_with_topology`] for that). Ranks
    /// attached *before* this call do not log — enable persistence
    /// before `fabric.run`.
    pub fn enable_persistence(&self, opts: PersistOptions) -> GdiResult<Arc<PersistStore>> {
        let mut guard = self.persist.lock();
        if guard.is_some() {
            return Err(GdiError::AlreadyExists("persistence store"));
        }
        let store = crate::persist::create_store(self, opts)?;
        *guard = Some(store.clone());
        Ok(store)
    }

    /// The attached persistence store, if any.
    pub fn persistence(&self) -> Option<Arc<PersistStore>> {
        self.persist.lock().clone()
    }

    /// Attach an already-open store (recovery path).
    pub(crate) fn set_persistence(&self, store: Arc<PersistStore>) {
        *self.persist.lock() = Some(store);
    }

    /// The authoritative metadata store (persistence support).
    pub(crate) fn meta_store(&self) -> &MetaStore {
        &self.meta
    }

    /// The shared index state (persistence support).
    pub(crate) fn indexes_shared(&self) -> &IndexShared {
        &self.indexes
    }

    /// Convenience: create the database together with a matching fabric.
    /// The fabric's execution backend follows the process default
    /// (`GDI_FABRIC_BACKEND`, else simulated).
    pub fn with_fabric(
        name: &str,
        cfg: GdaConfig,
        nranks: usize,
        cost: CostModel,
    ) -> (Arc<GdaDb>, Fabric) {
        let db = Self::new(name, cfg, nranks);
        let fabric = cfg.build_fabric(nranks, cost);
        (db, fabric)
    }

    /// Like [`GdaDb::with_fabric`] but pinned to an explicit fabric
    /// execution backend, ignoring `GDI_FABRIC_BACKEND`.
    pub fn with_fabric_on(
        name: &str,
        cfg: GdaConfig,
        nranks: usize,
        cost: CostModel,
        backend: rma::BackendKind,
    ) -> (Arc<GdaDb>, Fabric) {
        let db = Self::new(name, cfg, nranks);
        let fabric = cfg.build_fabric_on(nranks, cost, backend);
        (db, fabric)
    }

    /// Number of ranks the database is laid out for.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Attach the calling rank to the database.
    pub fn attach<'d, 'c, 'f>(&'d self, ctx: &'c RankCtx<'f>) -> GdaRank<'d, 'c, 'f> {
        assert_eq!(
            ctx.nranks(),
            self.nranks,
            "fabric size does not match database layout"
        );
        GdaRank {
            db: self,
            ctx,
            bm: BlockManager::new(ctx, self.cfg),
            lm: LockManager::new(ctx, self.cfg),
            dht: Dht::new(ctx, self.cfg),
            persist: self.persistence(),
            meta_snap: RefCell::new(self.meta.snapshot()),
            scan_cache: RefCell::new(None),
            snaps: RefCell::new(Vec::new()),
            last_epoch: Cell::new(0),
            reads: Cell::default(),
        }
    }
}

/// What [`GdaRank::audit_pool`] counted in one rank's block pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolAudit {
    /// Blocks on the free list.
    pub free: usize,
    /// Blocks of live holder chains, vertices' and heavyweight edges'.
    pub live: usize,
    /// Blocks of archive records on a retire list.
    pub retired: usize,
}

/// The per-rank engine handle (all GDI routines are invoked through it).
pub struct GdaRank<'d, 'c, 'f> {
    pub(crate) db: &'d GdaDb,
    pub(crate) ctx: &'c RankCtx<'f>,
    pub(crate) bm: BlockManager<'c, 'f>,
    pub(crate) lm: LockManager<'c, 'f>,
    pub(crate) dht: Dht<'c, 'f>,
    pub(crate) persist: Option<Arc<PersistStore>>,
    meta_snap: RefCell<MetaSnapshot>,
    /// Cached OLAP scan view of this rank's partition (see
    /// [`GdaRank::olap_view`]): revalidated per job against the
    /// topology-epoch words it was stamped with.
    scan_cache: RefCell<Option<Rc<crate::scan::CsrView>>>,
    /// Snapshot epochs pinned by live read-only transactions on this
    /// rank (a multiset — the minimum is published to the rank's
    /// min-active-snapshot system word, which holds every rank's
    /// archive reclaim down: [`GdaRank::snapshot_floor`]).
    snaps: RefCell<Vec<u64>>,
    /// Commit epoch of the last read-write transaction this handle
    /// committed (0 before any — the SI differential harness keys its
    /// oracle on this).
    last_epoch: Cell<u64>,
    /// The read-only path's buffers between transactions: each one takes
    /// them at begin and hands them back when it ends (`crate::tx`).
    pub(crate) reads: Cell<Option<Box<crate::tx::Reads>>>,
}

impl<'d, 'c, 'f> GdaRank<'d, 'c, 'f> {
    /// Collective: initialize the storage substrate (block free lists and
    /// DHT heaps). Must be called by all ranks before any transaction.
    pub fn init_collective(&self) {
        // publish "no active snapshot" before the block-manager barrier
        // so no rank can observe a stale 0 (= pin-in-flight marker) once
        // transactions start
        self.ctx.aput_u64(
            crate::config::WIN_SYSTEM,
            self.rank(),
            self.db.cfg.snap_word(),
            u64::MAX,
        );
        self.snaps.borrow_mut().clear();
        self.last_epoch.set(0);
        *self.db.retired[self.rank()].lock() = RetireList::default();
        self.bm.init_collective();
        self.dht.init_collective();
        self.scan_cache.borrow_mut().take();
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.ctx.nranks()
    }

    /// The underlying fabric context (for collectives in workloads).
    pub fn ctx(&self) -> &'c RankCtx<'f> {
        self.ctx
    }

    /// The database configuration.
    pub fn cfg(&self) -> &GdaConfig {
        &self.db.cfg
    }

    /// The database this rank is attached to.
    pub(crate) fn db(&self) -> &GdaDb {
        self.db
    }

    // ---- durability (see `crate::persist`) ------------------------------

    /// The persistence store this attach captured (if the database had
    /// durability enabled at [`GdaDb::attach`] time).
    pub(crate) fn persistence(&self) -> Option<Arc<PersistStore>> {
        self.persist.clone()
    }

    /// Is this engine handle logging commits durably?
    pub(crate) fn persist_enabled(&self) -> bool {
        self.persist.is_some()
    }

    /// Must a commit log its puts as whole images
    /// ([`PersistStore::logs_whole`])?
    pub(crate) fn logs_whole(&self) -> bool {
        self.persist.as_ref().is_some_and(|s| s.logs_whole())
    }

    /// Hook for a change no redo frame records — a bulk load, an index
    /// definition: the next checkpoint must be a full image.
    pub(crate) fn note_unlogged(&self) {
        if let Some(store) = &self.persist {
            store.note_unlogged();
        }
    }

    /// Collective: take a durable checkpoint (quiesce, publish a
    /// manifest, then seal every rank's redo log as the chain's next
    /// segment — a **delta** — or write every rank's live set and
    /// truncate the logs — a **full** image). Every rank must call this
    /// together; returns the published checkpoint id. See
    /// [`crate::persist`] for the protocol and the rebase policy.
    pub fn checkpoint(&self) -> GdiResult<u64> {
        crate::persist::checkpoint_rank(self)
    }

    /// Collective: like [`GdaRank::checkpoint`] but always writes a
    /// full snapshot (a *rebase*), resetting the delta chain to one
    /// file and letting the previous chain be garbage-collected.
    pub fn checkpoint_full(&self) -> GdiResult<u64> {
        crate::persist::checkpoint_rank_full(self)
    }

    /// Collective: run one background-maintenance pass (every rank's
    /// retire list drained to the agreed snapshot floor, checksum
    /// verification of the published snapshot chain; no live block
    /// moves). Every rank must call this together. See `crate::maint`.
    pub fn maintenance(&self) -> crate::maint::MaintenanceReport {
        crate::maint::maintenance_rank(self)
    }

    /// Take the next **commit stamp** from the owner rank of `id`'s
    /// primary block (one `fadd` on the system-window counter). Commits
    /// of one object are serialized by its write lock and every
    /// incarnation of an application id lives on the same owner rank,
    /// so stamps give persisted holder versions a strict monotone order
    /// per object — across delete/recreate — which is what redo replay
    /// orders cross-log records by — and, with or without persistence,
    /// the seqlock stamp every block of the written chain carries.
    pub(crate) fn next_version_stamp(&self, id: crate::dptr::DPtr) -> u64 {
        let word = self.cfg().stamp_word();
        self.ctx
            .fadd_u64(crate::config::WIN_SYSTEM, id.rank(), word, 1)
            + 1
    }

    /// Commit-path hook: append one committed transaction's redo
    /// records to this rank's log, charging the modeled device cost. An
    /// I/O failure is counted and reported, not propagated — the
    /// in-memory commit already succeeded and stays visible.
    pub(crate) fn log_commit(&self, records: Vec<RedoRecord>) {
        let Some(store) = &self.persist else { return };
        if records.is_empty() {
            return;
        }
        match store.append(self.rank(), &records) {
            Ok(bytes) => {
                self.ctx.record_log_write(bytes);
                let whole = records
                    .iter()
                    .filter(|r| matches!(r, RedoRecord::Put { base: None, .. }))
                    .count();
                self.ctx.count(Counter::RedoWholeRecords, whole as u64);
            }
            Err(e) => {
                store.note_log_error();
                eprintln!(
                    "[gda::persist] rank {}: redo append failed: {e}",
                    self.rank()
                );
            }
        }
    }

    // ---- metadata (eventually consistent, §3.8) -------------------------

    /// Refresh the local metadata replica if the authoritative store moved.
    /// Models the propagation cost of replication with a broadcast charge.
    pub fn refresh_meta(&self) {
        if self.db.meta.epoch() != self.meta_snap.borrow().epoch {
            let snap = self.db.meta.snapshot();
            let bytes = 64 * (snap.labels.len() + snap.ptypes.len()) + 64;
            self.ctx
                .charge_ns(self.ctx.cost_model().reduce_like(self.nranks(), bytes));
            *self.meta_snap.borrow_mut() = snap;
        }
    }

    /// Read access to the local metadata replica.
    pub fn meta(&self) -> Ref<'_, MetaSnapshot> {
        self.meta_snap.borrow()
    }

    /// Current authoritative metadata epoch.
    pub fn meta_epoch(&self) -> u64 {
        self.db.meta.epoch()
    }

    /// `GDI_CreateLabel` (local call; propagates eventually).
    pub fn create_label(&self, name: &str) -> GdiResult<LabelId> {
        let r = self.db.meta.create_label(name);
        self.refresh_meta();
        r
    }

    /// `GDI_UpdateLabel`.
    pub fn update_label(&self, id: LabelId, name: &str) -> GdiResult<()> {
        let r = self.db.meta.update_label(id, name);
        self.refresh_meta();
        r
    }

    /// `GDI_DeleteLabel`.
    pub fn delete_label(&self, id: LabelId) -> GdiResult<()> {
        let r = self.db.meta.delete_label(id);
        self.refresh_meta();
        r
    }

    /// `GDI_CreatePropertyType`.
    pub fn create_ptype(
        &self,
        name: &str,
        dtype: Datatype,
        entity: EntityType,
        mult: Multiplicity,
        stype: SizeType,
        count: usize,
    ) -> GdiResult<PTypeId> {
        let r = self
            .db
            .meta
            .create_ptype(name, dtype, entity, mult, stype, count);
        self.refresh_meta();
        r
    }

    /// `GDI_DeletePropertyType`.
    pub fn delete_ptype(&self, id: PTypeId) -> GdiResult<()> {
        let r = self.db.meta.delete_ptype(id);
        self.refresh_meta();
        r
    }

    // ---- explicit indexes ------------------------------------------------

    /// `GDI_CreateIndex` (collective in spirit; cheap here).
    pub fn create_index(
        &self,
        name: &str,
        labels: Vec<LabelId>,
        ptypes: Vec<PTypeId>,
    ) -> GdiResult<IndexId> {
        // replay derives a logged vertex's postings from the index
        // definitions, which would put a vertex committed before this
        // index existed into it: the next image must be exact
        self.note_unlogged();
        self.db.indexes.create(name, labels, ptypes)
    }

    /// `GDI_DeleteIndex`.
    pub fn delete_index(&self, id: IndexId) -> GdiResult<()> {
        self.note_unlogged();
        self.db.indexes.delete(id)
    }

    /// `GDI_GetAllIndexesOfDatabase`.
    pub fn all_indexes(&self) -> Vec<crate::index::IndexDef> {
        self.db.indexes.all()
    }

    /// `GDI_GetLocalVerticesOfIndex` — this rank's partition, unfiltered.
    /// Charges the local scan cost.
    pub fn local_index_vertices(&self, id: IndexId) -> Vec<Posting> {
        let v = self.db.indexes.local_vertices(self.rank(), id);
        self.ctx.charge_cpu(v.len() as u64 + 1);
        v
    }

    /// Size of this rank's partition of an index, without reading it
    /// (planner statistics; one charged operation).
    pub fn local_index_len(&self, id: IndexId) -> usize {
        self.ctx.charge_cpu(1);
        self.db.indexes.local_len(self.rank(), id)
    }

    /// Shared index state (used by transactions at commit).
    pub(crate) fn indexes(&self) -> &IndexShared {
        &self.db.indexes
    }

    // ---- MVCC snapshots (see `crate::tx`) --------------------------------

    /// Atomically read the global **read-epoch watermark** (one `aget`
    /// of rank 0's system window): the highest commit epoch whose
    /// writes — and those of all lower epochs — are fully flushed.
    pub(crate) fn read_watermark(&self) -> u64 {
        self.ctx
            .aget_u64(crate::config::WIN_SYSTEM, 0, self.cfg().watermark_word())
    }

    /// Allocate this commit's epoch: one `fadd` on rank 0's
    /// commit-epoch counter. Every allocated epoch **must** be published
    /// via [`GdaRank::publish_watermark`] — even when the commit fails —
    /// or the in-order publication chain wedges behind the gap.
    pub(crate) fn alloc_commit_epoch(&self) -> u64 {
        self.ctx.fadd_u64(
            crate::config::WIN_SYSTEM,
            0,
            self.cfg().epoch_counter_word(),
            1,
        ) + 1
    }

    /// Publish commit epoch `e`: spin until the watermark reaches
    /// `e - 1`, then CAS it to `e`. In-order publication is what makes
    /// a pinned snapshot `s = W` mean "the committed state as of epoch
    /// `s`, exactly" — an epoch never becomes visible before every
    /// lower epoch is flushed.
    pub(crate) fn publish_watermark(&self, e: u64) {
        let word = self.cfg().watermark_word();
        let shadow = self.cfg().wmark_shadow_word();
        loop {
            let cur = self.ctx.aget_u64(crate::config::WIN_SYSTEM, 0, word);
            if cur >= e {
                return;
            }
            if cur == e - 1 {
                // refresh every rank's watermark shadow *first*: epoch
                // `e` has exactly one publisher and it alone owns the
                // `W == e-1` slot, so shadow stores are serialized
                // (monotone) and `shadow ≥ W` holds on every rank at
                // every instant — the invariant that lets pins read
                // their local shadow instead of rank 0's word
                for r in 0..self.nranks() {
                    self.ctx.aput_u64(crate::config::WIN_SYSTEM, r, shadow, e);
                }
                if self
                    .ctx
                    .cas_u64(crate::config::WIN_SYSTEM, 0, word, e - 1, e)
                    == e - 1
                {
                    self.ctx.count(Counter::WatermarkAdvances, 1);
                    return;
                }
            }
            // the predecessor epoch's publisher may be descheduled (the
            // host can be oversubscribed); yield so it can finish rather
            // than charge-spinning remote agets against its timeslice
            std::thread::yield_now();
        }
    }

    /// Pin a snapshot epoch for a read-only transaction: write the `0`
    /// registration marker to this rank's min-active-snapshot word
    /// (flushed — a concurrent reclaim that sees it skips its round),
    /// read this rank's **watermark shadow**, account the pin in the
    /// rank-local multiset and publish the new minimum. Returns the
    /// pinned epoch.
    ///
    /// The shadow read is the entire latency story of a pin: it is one
    /// *local* atomic, so beginning a read-only transaction costs no
    /// network round trip at all. Safety: the shadow is refreshed before
    /// the authoritative watermark advances (`shadow ≥ W` always), and
    /// every reclaim floor is bounded by a `W` read *before* the
    /// reclaim scanned our snap word — so the pinned epoch can never
    /// lie below a floor that already freed versions.
    pub(crate) fn pin_snapshot(&self) -> u64 {
        let word = self.cfg().snap_word();
        let me = self.rank();
        self.ctx.aput_u64(crate::config::WIN_SYSTEM, me, word, 0);
        self.ctx.flush(me);
        let s = self.ctx.aget_u64(
            crate::config::WIN_SYSTEM,
            me,
            self.cfg().wmark_shadow_word(),
        );
        let mut snaps = self.snaps.borrow_mut();
        snaps.push(s);
        let min = snaps.iter().copied().min().expect("just pushed");
        self.ctx.aput_u64(crate::config::WIN_SYSTEM, me, word, min);
        self.ctx.count(Counter::SnapshotPins, 1);
        s
    }

    /// Drop a pinned snapshot at transaction end and republish the
    /// rank's minimum (`u64::MAX` when no reader remains active).
    pub(crate) fn unpin_snapshot(&self, s: u64) {
        let mut snaps = self.snaps.borrow_mut();
        if let Some(pos) = snaps.iter().position(|&x| x == s) {
            snaps.swap_remove(pos);
        }
        let min = snaps.iter().copied().min().unwrap_or(u64::MAX);
        self.ctx.aput_u64(
            crate::config::WIN_SYSTEM,
            self.rank(),
            self.cfg().snap_word(),
            min,
        );
    }

    /// The version-retention **floor**: no current or future snapshot
    /// lies below it, so an archive record written by a commit at an
    /// epoch at or below it can never be read again. Reads the
    /// watermark *first*, then every rank's min-active-snapshot word;
    /// `None` means a pin registration was mid-flight somewhere (its
    /// epoch unknowable) — the caller skips its reclaim this round.
    pub(crate) fn snapshot_floor(&self) -> Option<u64> {
        let mut floor = self.read_watermark();
        let word = self.cfg().snap_word();
        for r in 0..self.nranks() {
            let m = self.ctx.aget_u64(crate::config::WIN_SYSTEM, r, word);
            if m == 0 {
                return None;
            }
            if m != u64::MAX {
                floor = floor.min(m);
            }
        }
        Some(floor)
    }

    // ---- archive reclaim ---------------------------------------------------
    //
    // A pinned reader at snapshot s follows a `prev` written by the commit
    // at epoch E only while the version it holds has epoch E > s
    // (`Transaction::rewind`), and s ≥ the floor. So once the floor
    // reaches E the record is unreachable, whatever still names it: the
    // live holder's `prev` may dangle, and is never followed.

    /// Put the blocks of the archive record a commit at `epoch` just
    /// wrote on this rank's retire list.
    pub(crate) fn retire_archive(&self, epoch: u64, blocks: &[DPtr]) {
        let mut list = self.db.retired[self.rank()].lock();
        list.entries
            .extend(blocks.iter().enumerate().map(|(i, &block)| Retired {
                epoch,
                block,
                first: i == 0,
            }));
    }

    /// A commit's reclaim: once this rank's list holds more than
    /// `max(P, 2 × the entries the last reclaim kept)`, read the floor
    /// (P remote atomics, so at most one read per archive) and free what
    /// it passed. Counted as chain truncations.
    pub(crate) fn reclaim_if_due(&self) {
        let due = {
            let list = self.db.retired[self.rank()].lock();
            list.entries.len() > self.nranks().max(2 * list.kept)
        };
        if let Some(floor) = due.then(|| self.snapshot_floor()).flatten() {
            let (records, _) = self.reclaim_archives(floor);
            self.ctx.count(Counter::ChainTruncations, records);
        }
    }

    /// Free every entry of this rank's retire list whose commit epoch is
    /// at or below `floor`, a snapshot floor. Returns the records and the
    /// blocks freed.
    pub(crate) fn reclaim_archives(&self, floor: u64) -> (u64, u64) {
        let (mut records, mut blocks) = (0, 0);
        let mut list = self.db.retired[self.rank()].lock();
        list.entries.retain(|r| {
            if r.epoch > floor {
                return true;
            }
            self.bm.release(r.block);
            records += u64::from(r.first);
            blocks += 1;
            false
        });
        list.kept = list.entries.len();
        (records, blocks)
    }

    /// The blocks of this rank's pool that sit on a retire list, any
    /// rank's — a block on two lists is listed twice.
    pub(crate) fn retired_blocks(&self) -> Vec<DPtr> {
        let mut out = Vec::new();
        for list in &self.db.retired {
            let entries = list.lock();
            let mine = entries.entries.iter().map(|r| r.block);
            out.extend(mine.filter(|b| b.rank() == self.rank()));
        }
        out
    }

    /// Collective administration audit of this rank's block pool: every
    /// block is free, in the chain of one live holder (the live set a
    /// full checkpoint writes) or on one retire list, and the three
    /// counts sum to `blocks_per_rank`. A block counted twice — in two
    /// chains, on two lists, or in two of the three sets — a free list
    /// with a cycle, an unreadable live chain or a sum other than the
    /// capacity (a leaked block) fails every rank with an `Io` error
    /// naming the first fault. Assumes no concurrent writers.
    pub fn audit_pool(&self) -> GdiResult<PoolAudit> {
        let (ctx, me) = (self.ctx, self.rank());
        ctx.quiesce();
        let mut owner: FxHashMap<u64, &'static str> = FxHashMap::default();
        let mut twice = None;
        let mut claim = |b: DPtr, set: &'static str| {
            if let Some(first) = owner.insert(b.raw(), set) {
                twice.get_or_insert(format!("block {b} is {first} and {set}"));
            }
        };
        let mut live = 0;
        let walked = crate::hio::walk_live(ctx, self.cfg(), |c| {
            live += c.blocks.len();
            c.blocks.iter().for_each(|&b| claim(b, "live"));
        });
        let retired = self.retired_blocks();
        retired.iter().for_each(|&b| claim(b, "retired"));
        let free = self.bm.free_blocks(me);
        free.iter().flatten().for_each(|&b| claim(b, "free"));
        let audit = PoolAudit {
            free: free.as_ref().map_or(0, Vec::len),
            live,
            retired: retired.len(),
        };
        let capacity = self.cfg().blocks_per_rank;
        let fault = match (walked, free, twice) {
            (Err(e), _, _) => Some(e.to_string()),
            (_, None, _) => Some("the free list has a cycle".into()),
            (_, _, Some(twice)) => Some(twice),
            _ if audit.free + audit.live + audit.retired != capacity => {
                Some(format!("{audit:?} does not sum to {capacity} blocks"))
            }
            _ => None,
        };
        if ctx.allreduce_any(fault.is_some()) {
            let fault = fault.unwrap_or_else(|| "failed on a peer rank".into());
            return Err(GdiError::Io(format!("pool audit, rank {me}: {fault}")));
        }
        Ok(audit)
    }

    /// Commit epoch of the last read-write transaction this engine
    /// handle committed (0 before any). The SI differential harness
    /// keys its sequential oracle on this.
    pub fn last_commit_epoch(&self) -> u64 {
        self.last_epoch.get()
    }

    pub(crate) fn set_last_commit_epoch(&self, e: u64) {
        self.last_epoch.set(e);
    }

    // ---- transactions ------------------------------------------------------

    /// `GDI_StartTransaction`: a local (single-process) transaction.
    pub fn begin(&self, mode: AccessMode) -> Transaction<'_, 'd, 'c, 'f> {
        Transaction::new(self, TxKind::Local, mode)
    }

    /// `GDI_StartCollectiveTransaction`: all ranks must call this together.
    pub fn begin_collective(&self, mode: AccessMode) -> Transaction<'_, 'd, 'c, 'f> {
        self.ctx.barrier();
        Transaction::new(self, TxKind::Collective, mode)
    }

    /// Service-layer entry point: a local transaction with grouped commit
    /// enabled. Many client operations are coalesced into this one
    /// transaction and their write-backs are issued as a single
    /// non-blocking RMA batch at commit — the engine half of the server's
    /// request batching / group commit (see the `server` crate).
    pub fn begin_grouped(&self, mode: AccessMode) -> Transaction<'_, 'd, 'c, 'f> {
        let tx = Transaction::new(self, TxKind::Local, mode);
        tx.enable_grouped_commit();
        tx
    }

    /// Resolve an application vertex id without a transaction: one DHT
    /// lookup, the same walk
    /// [`crate::tx::Transaction::translate_vertex_id`] makes.
    pub fn peek_translate(&self, app: AppVertexId) -> Option<DPtr> {
        self.dht.lookup(app.0).map(DPtr::from_raw)
    }

    // ---- OLAP scan views (see `crate::scan`) ----------------------------

    /// Atomically read `rank`'s **topology-epoch word** (one `aget` of
    /// the system window): the scan-view revalidation primitive.
    /// Commits bump the word on every rank whose membership or edge
    /// lists they changed; property-only commits leave it alone.
    pub(crate) fn topology_epoch(&self, rank: usize) -> u64 {
        self.ctx
            .aget_u64(crate::config::WIN_SYSTEM, rank, self.cfg().topo_word())
    }

    /// Bump `rank`'s topology-epoch word (one `fadd`). Commit-path and
    /// bulk-load hook; always issued *after* the corresponding data
    /// writes so a concurrent view build can never capture new bytes
    /// under an old epoch.
    pub(crate) fn bump_topology_epoch(&self, rank: usize) {
        self.ctx
            .fadd_u64(crate::config::WIN_SYSTEM, rank, self.cfg().topo_word(), 1);
    }

    /// Collective: the cached, epoch-validated OLAP scan view of this
    /// rank's partition (every live local vertex, rows sorted by app
    /// id). One topology-epoch read revalidates the cached mirror; when
    /// the epoch moved the rank rebuilds it by a raw-window sweep — an
    /// abort-free rendezvous, so collective OLAP jobs (`server` crate)
    /// reuse the mirror across jobs instead of rebuilding per request.
    /// Every rank must call this together; like collective read-only
    /// transactions, it assumes no concurrent writers.
    pub fn olap_view(&self) -> Rc<crate::scan::CsrView> {
        use crate::scan;
        let cached = self
            .scan_cache
            .borrow_mut()
            .take()
            .filter(|v| scan::revalidate(self, v));
        // every rank votes, and the vote is "did anything change
        // anywhere", not "do I sweep": ghost and mirror lists of
        // different ranks name each other, so a rank whose own rows
        // stand must still re-resolve its halo when a peer's moved
        let stale_somewhere = self.ctx.allreduce_max_u64(cached.is_none() as u64) != 0;
        // a reuse is exactly a revalidation, so builds + reuses
        // partitions the jobs this rank served
        if cached.is_some() {
            self.ctx.count(Counter::ScanReuses, 1);
        }
        let view = match cached {
            Some(v) if !stale_somewhere => v,
            // the rebuild is collective (DHT exchange): a rank whose view
            // is still valid takes part as a responder without
            // re-sweeping its own window
            own_rows => Rc::new(scan::build_collective(
                self,
                own_rows.map(Rc::unwrap_or_clone),
            )),
        };
        *self.scan_cache.borrow_mut() = Some(view.clone());
        view
    }

    /// Non-collective peek at the OLAP scan view cached by a previous
    /// [`GdaRank::olap_view`] call on this attach, if any. No epoch
    /// revalidation is performed — this is a **planning hint** (the
    /// query planner uses it to decide whether a `CsrView`-backed stage
    /// is already paid for), never a substitute for the collective
    /// rendezvous.
    pub fn olap_view_peek(&self) -> Option<Rc<crate::scan::CsrView>> {
        self.scan_cache.borrow().clone()
    }
}

/// Registry of concurrently existing databases (§3.9).
#[derive(Default)]
pub struct DbRegistry {
    dbs: Mutex<FxHashMap<String, Arc<GdaDb>>>,
}

impl DbRegistry {
    /// `GDI_CreateDatabase`.
    pub fn create(&self, name: &str, cfg: GdaConfig, nranks: usize) -> GdiResult<Arc<GdaDb>> {
        let mut g = self.dbs.lock();
        if g.contains_key(name) {
            return Err(GdiError::AlreadyExists("database"));
        }
        let db = GdaDb::new(name, cfg, nranks);
        g.insert(name.to_string(), db.clone());
        Ok(db)
    }

    /// `GDI_DeleteDatabase`.
    pub fn delete(&self, name: &str) -> GdiResult<()> {
        self.dbs
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or(GdiError::NotFound("database"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DbRegistry {
        /// Look up an existing database.
        fn get(&self, name: &str) -> Option<Arc<GdaDb>> {
            self.dbs.lock().get(name).cloned()
        }

        /// Names of all live databases.
        fn names(&self) -> Vec<String> {
            let mut v: Vec<String> = self.dbs.lock().keys().cloned().collect();
            v.sort();
            v
        }
    }

    #[test]
    fn registry_lifecycle() {
        let reg = DbRegistry::default();
        let cfg = GdaConfig::tiny();
        let a = reg.create("a", cfg, 2).unwrap();
        assert_eq!(a.name, "a");
        assert_eq!(
            reg.create("a", cfg, 2).unwrap_err(),
            GdiError::AlreadyExists("database")
        );
        reg.create("b", cfg, 4).unwrap();
        assert_eq!(reg.names(), vec!["a", "b"]);
        assert!(reg.get("a").is_some());
        reg.delete("a").unwrap();
        assert_eq!(reg.delete("a").unwrap_err(), GdiError::NotFound("database"));
        assert!(reg.get("a").is_none());
    }

    /// The pool audit counts a whole pool, and returns a typed error —
    /// on every rank — for a block that is live and free at once and
    /// for a block that is nowhere (a leak).
    #[test]
    fn audit_pool_refuses_a_double_count_and_a_leak() {
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("audit", cfg, 2, CostModel::zero());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.create_vertex(AppVertexId(ctx.rank() as u64)).unwrap();
            tx.commit().unwrap();
            let whole = PoolAudit {
                free: cfg.blocks_per_rank - 1,
                live: 1,
                retired: 0,
            };
            assert_eq!(eng.audit_pool(), Ok(whole));
            ctx.barrier();
            if ctx.rank() == 0 {
                eng.bm.release(v);
            }
            let twice = eng.audit_pool().unwrap_err();
            assert!(matches!(twice, GdiError::Io(_)), "{twice:?}");
            if ctx.rank() == 0 {
                assert!(twice.to_string().contains("live and free"), "{twice}");
                eng.bm.acquire(0).unwrap();
                eng.bm.acquire(0).unwrap();
            }
            let leak = eng.audit_pool().unwrap_err();
            if ctx.rank() == 0 {
                assert!(leak.to_string().contains("does not sum"), "{leak}");
            }
        });
    }

    #[test]
    fn attach_and_metadata_replication() {
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("m", cfg, 2, CostModel::zero());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            if ctx.rank() == 0 {
                eng.create_label("Person").unwrap();
            }
            ctx.barrier();
            // rank 1's replica is stale until refreshed (eventual consistency)
            let eng2 = &eng;
            eng2.refresh_meta();
            assert!(eng2.meta().label_from_name("Person").is_some());
        });
    }

    // the fabric resumes the original payload of a panicking rank, so
    // the attach assertion's own message is what reaches the caller
    #[test]
    #[should_panic(expected = "fabric size does not match database layout")]
    fn attach_wrong_fabric_size_panics() {
        let cfg = GdaConfig::tiny();
        let db = GdaDb::new("x", cfg, 4);
        let fabric = cfg.build_fabric(2, CostModel::zero());
        fabric.run(|ctx| {
            let _ = db.attach(ctx);
        });
    }
}
