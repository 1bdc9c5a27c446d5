//! Transactions and the graph-data CRUD routines (§5.6).
//!
//! All changes of a [`Transaction`] are **visible only locally** until
//! commit. Read-only transactions take no locks at all. A writer touches
//! one holder at a time, and decides its lock once, at that first touch
//! (`Transaction::first_touch`): local writers lock only what they write
//! (write-write conflict detection), collective writers keep two-phase
//! locking. Which chain reader serves which of them: docs/ARCHITECTURE.md,
//! "Reading a holder chain".
//!
//! ### One read-only path
//!
//! A read-only transaction never builds a `Holder`. Every read it
//! makes — labels, properties, neighbours, edges, whoever owns the id —
//! answers from the serialized bytes of the element's chain
//! (`Transaction::with_bytes`, `Holder::scan_entries`,
//! `Holder::scan_edges`). The transaction holds the chains it fetched
//! last, in buffers reused from one fetch (and transaction) to the next:
//! `Transaction::associate_vertices` fetches a whole group's chains in
//! one level-pipelined pass (how the server answers a read group), and a
//! read of an id outside them fetches that id alone. A local reader pinned
//! a snapshot epoch at `begin`: it takes the validated seqlock copy and,
//! when that version committed after its pin, follows the archived
//! `prev` links at the byte level to the version its epoch sees
//! (snapshot isolation; repeatable reads rest on the pinned epoch). A
//! collective reader is the paper's "read-only transaction that can
//! assume that no participating process modifies the data" (inside the
//! server, collective jobs run at a rendezvous with the writers
//! quiesced): it takes the plain copy. Consecutive reads of held chains
//! copy nothing; an element read again after another fetch is copied
//! (and, on the simulated clock, charged) again — the price of keeping
//! nothing else. The holder cache is for writers only: their own
//! writes, their locks and their pre-images.
//!
//! Conflicts do not block indefinitely: lock acquisition is bounded, and a
//! failed acquisition aborts the transaction with
//! `GDI_ERROR_LOCK_CONFLICT` (a transaction-critical error). This is the
//! mechanism behind the failed-transaction percentages in the paper's
//! Fig. 4.
//!
//! Collective transactions replicate their state per process (each rank
//! holds its own `Transaction`) and close with collective communication:
//! an abort-vote allreduce before write-back, then a barrier (§5.6).

use std::cell::{Cell, RefCell, RefMut};

use rma::Counter;
use rustc_hash::{FxHashMap, FxHashSet};

use gdi::{
    AccessMode, AppVertexId, Constraint, Direction, EdgeOrientation, GdiError, GdiResult, LabelId,
    PTypeId, PropertyValue, TxKind, TxStatus,
};

use crate::db::GdaRank;
use crate::dptr::{owner_rank, DPtr, EdgeUid};
use crate::hio::{self, Source};
use crate::holder::{splice, Archive, EdgeRecord, EdgeScan, EntryScan, Holder};
use crate::index::{holder_matches, IndexId, Posting};
use crate::locks::LockKind;
use crate::persist::RedoRecord;

/// Cached state of one object (vertex holder or heavy-edge holder) inside a
/// writing transaction.
#[derive(Debug)]
struct CachedObj {
    /// The holder as fetched, then as this transaction edits it: the
    /// bytes commit writes back.
    holder: Holder,
    blocks: Vec<DPtr>,
    lock: Option<LockKind>,
    dirty: bool,
    created: bool,
    deleted: bool,
    /// Did this transaction change the object's **topology** — its
    /// membership (create/delete) or its edge-record list? Commit bumps
    /// the topology-epoch word of every rank holding a topo-dirty
    /// object, which is what invalidates cached OLAP scan views
    /// (`gda::scan`). Property/label-only writes leave it false, so a
    /// GNN layer's feature updates never force a view rebuild.
    topo: bool,
    /// The holder bytes exactly as fetched (pre-image). Captured only by
    /// MVCC-eligible writers: commit diffs a dirty object's new version
    /// against it once, for the redo record's splice and for the undo it
    /// archives onto the version chain, so pinned snapshots keep reading
    /// the overwritten version.
    orig: Option<Vec<u8>>,
}

/// A GDI transaction executing on one rank.
pub struct Transaction<'r, 'd, 'c, 'f> {
    eng: &'r GdaRank<'d, 'c, 'f>,
    kind: TxKind,
    mode: AccessMode,
    status: Cell<TxStatus>,
    /// Metadata epoch snapshot at start (staleness detection, §3.8).
    epoch: u64,
    used_meta: Cell<bool>,
    /// Grouped commit: write-back runs inside a non-blocking RMA batch so
    /// block write latencies overlap (the engine half of the service
    /// layer's group commit; see [`crate::db::GdaRank::begin_grouped`]).
    grouped: Cell<bool>,
    /// MVCC: the snapshot epoch pinned at `begin` (every local read-only
    /// transaction). A pinned transaction takes no
    /// locks and reads validated version chains at this epoch — it can
    /// neither abort on conflict nor block a writer.
    snap: Cell<Option<u64>>,
    /// Writers only: read-only transactions read bytes (module docs).
    cache: RefCell<FxHashMap<u64, CachedObj>>,
    /// The chains the read-only path fetched last (module docs); boxed,
    /// so a read moves a pointer in and out, not the buffers.
    reads: Cell<Option<Box<Reads>>>,
}

/// The read-only path's chains: the versions of the ids its last fetch
/// read, in buffers reused from one fetch (and transaction) to the next.
#[derive(Default)]
pub(crate) struct Reads {
    /// `(id, index into bufs.bytes)` of each chain read, sorted by id.
    held: Vec<(u64, usize)>,
    bufs: hio::ChainBufs,
    /// The distinct ids of the fetch, sorted.
    want: Vec<DPtr>,
}

impl<'r, 'd, 'c, 'f> Transaction<'r, 'd, 'c, 'f> {
    pub(crate) fn new(eng: &'r GdaRank<'d, 'c, 'f>, kind: TxKind, mode: AccessMode) -> Self {
        eng.refresh_meta();
        // snapshot-pinning is the read path: every local read-only
        // transaction pins the watermark at begin. (Collective read-only
        // transactions already run the paper's no-concurrent-writer fast
        // path and skip both.)
        let snap =
            (kind == TxKind::Local && mode == AccessMode::ReadOnly).then(|| eng.pin_snapshot());
        let mut reads = eng.reads.take().unwrap_or_default();
        reads.held.clear(); // another transaction's versions
        Self {
            eng,
            kind,
            mode,
            status: Cell::new(TxStatus::Active),
            epoch: eng.meta_epoch(),
            used_meta: Cell::new(false),
            grouped: Cell::new(false),
            snap: Cell::new(snap),
            cache: RefCell::new(FxHashMap::default()),
            reads: Cell::new(Some(reads)),
        }
    }

    /// The snapshot epoch this transaction pinned at `begin`: `Some` for
    /// every local read-only transaction, `None` for writers and for
    /// collective transactions.
    pub fn snapshot_epoch(&self) -> Option<u64> {
        self.snap.get()
    }

    /// Is this transaction an MVCC-eligible writer — one whose commit
    /// allocates an epoch and archives overwritten versions? (Collective
    /// transactions stay at epoch 0: bulk loads are visible to every
    /// snapshot and assume no concurrent readers.)
    fn mvcc_writer(&self) -> bool {
        self.kind == TxKind::Local && self.mode != AccessMode::ReadOnly
    }

    /// Drop the pinned snapshot (transaction close; idempotent).
    fn unpin(&self) {
        if let Some(s) = self.snap.take() {
            self.eng.unpin_snapshot(s);
        }
    }

    /// Enable grouped (batched) commit for this transaction: the dirty
    /// write-back at commit is issued as one non-blocking RMA batch, so the
    /// per-block network latencies overlap and each touched rank is flushed
    /// once for the whole group. Entry point for service layers that
    /// coalesce many client operations into one engine transaction.
    pub(crate) fn enable_grouped_commit(&self) {
        self.grouped.set(true);
    }

    /// `GDI_GetTypeOfTransaction`.
    pub fn kind(&self) -> TxKind {
        self.kind
    }

    /// Current lifecycle status.
    pub fn status(&self) -> TxStatus {
        self.status.get()
    }

    // ------------------------------------------------------------------
    // infrastructure
    // ------------------------------------------------------------------

    fn check_active(&self) -> GdiResult<()> {
        if self.status.get().is_active() {
            Ok(())
        } else {
            Err(GdiError::TransactionClosed)
        }
    }

    fn check_writable(&self) -> GdiResult<()> {
        self.check_active()?;
        if self.mode == AccessMode::ReadOnly {
            self.abort_inner();
            return Err(GdiError::ReadOnlyViolation);
        }
        Ok(())
    }

    /// Propagate an error; transaction-critical errors abort the
    /// transaction on the spot (§3.3).
    fn fail<T>(&self, e: GdiError) -> GdiResult<T> {
        if e.is_transaction_critical() && self.status.get().is_active() {
            self.abort_inner();
        }
        Err(e)
    }

    /// Ensure `id` is cached with at least the requested access. Fetches
    /// blocks and acquires the distributed lock on first touch; upgrades
    /// read→write on first mutation. A transaction-critical failure
    /// (lock conflict) aborts the transaction per §3.3 — unless
    /// `abort_on_critical` is false: then it is reported without
    /// poisoning the transaction, the probe behaviour
    /// [`Transaction::prepare_write`] exposes to batchers.
    fn ensure_cached(&self, id: DPtr, write: bool, abort_on_critical: bool) -> GdiResult<()> {
        self.check_active()?;
        if id.is_null() {
            return Err(GdiError::InvalidArgument("null internal id"));
        }
        let cached = match self.cache.borrow_mut().get_mut(&id.raw()) {
            None => None,
            Some(obj) if obj.deleted => Some(Err(GdiError::NotFound(
                "object deleted in this transaction",
            ))),
            Some(obj) if write && obj.lock != Some(LockKind::Write) => Some(self.upgrade(id, obj)),
            Some(_) => return Ok(()),
        };
        match cached.unwrap_or_else(|| self.first_touch(id, write)) {
            Err(e) if abort_on_critical => self.fail(e),
            res => res,
        }
    }

    /// A cached entry that is not write-locked meets a write intent.
    fn upgrade(&self, id: DPtr, obj: &mut CachedObj) -> GdiResult<()> {
        if obj.lock == Some(LockKind::Read) {
            self.eng.lm.upgrade(id)?;
            obj.lock = Some(LockKind::Write);
        } else if !obj.created {
            // MVCC writer's lock-free first-touch read turning into a
            // write intent: take the write lock *now* (write-write
            // conflict detection), then refetch — the lockless copy
            // may be stale and carries no block list or pre-image
            self.eng.lm.acquire_write(id)?;
            let refetched =
                hio::read_chain(self.eng.ctx, self.eng.cfg(), id).and_then(|(bytes, blocks)| {
                    // bytes that are no holder: the usual stale internal id
                    let holder = Holder::from_bytes(bytes.clone()).ok_or(hio::STALE)?;
                    Ok((holder, blocks, bytes))
                });
            match refetched {
                Ok((holder, blocks, bytes)) if holder.version() == obj.holder.version() => {
                    obj.holder = holder;
                    obj.blocks = blocks;
                    obj.orig = Some(bytes);
                    obj.lock = Some(LockKind::Write);
                }
                other => {
                    self.eng.lm.release(id, LockKind::Write);
                    return Err(match other {
                        // first committer wins: the application may
                        // already have acted on the lock-free copy, so a
                        // version that moved on in between is a
                        // write-write conflict, not something to paper
                        // over with the fresh holder
                        Ok(_) => GdiError::LockConflict,
                        // concurrently deleted under our nose: nothing
                        // to write
                        Err(e) => e,
                    });
                }
            }
        }
        Ok(())
    }

    /// **First touch** of `id` by a writer — not cached yet, not null:
    /// decide its lock, take it, read the chain and cache the holder. A
    /// chain that does not read releases the lock again; whether the
    /// error aborts the transaction is the caller's call.
    fn first_touch(&self, id: DPtr, write: bool) -> GdiResult<()> {
        debug_assert_ne!(self.mode, AccessMode::ReadOnly, "read-only reads bytes");
        let (ctx, cfg, lm) = (self.eng.ctx, self.eng.cfg(), &self.eng.lm);
        let lock = match self.kind {
            _ if write => Some(LockKind::Write),
            // Local writer conflicts are write-write only: a local
            // read-write transaction reads lock-free (validated seqlock
            // copies of the committed version) and only its first *write*
            // touch of an object takes the write lock — so two
            // transactions with overlapping read sets but disjoint write
            // sets both commit (snapshot isolation admits write skew).
            TxKind::Local => None,
            TxKind::Collective => Some(LockKind::Read),
        };
        let fetched = match lock {
            // A local writer's read holds no lock, so a plain chain read
            // could tear against a concurrent 3-phase overwrite — it takes
            // the validated seqlock copy of the committed version instead.
            // Its entry carries no block list, lock or pre-image: the write
            // touch that follows refetches (`upgrade`).
            None => {
                let (mut block, mut bytes) = (vec![0u8; cfg.block_size], Vec::new());
                let src = Source::Validated(ctx);
                hio::read_chain_into(&src, cfg, id, &mut block, &mut bytes)
                    .map(|()| (bytes, Vec::new()))
            }
            Some(kind) => {
                match kind {
                    LockKind::Read => lm.acquire_read(id)?,
                    LockKind::Write => lm.acquire_write(id)?,
                }
                hio::read_chain(ctx, cfg, id)
            }
        };
        let keep_orig = lock.is_some() && self.mvcc_writer();
        let cached = fetched.and_then(|(bytes, blocks)| {
            let orig = keep_orig.then(|| bytes.clone());
            let holder = Holder::from_bytes(bytes).ok_or(hio::STALE)?;
            self.cache.borrow_mut().insert(
                id.raw(),
                CachedObj {
                    holder,
                    blocks,
                    lock,
                    dirty: false,
                    created: false,
                    deleted: false,
                    topo: false,
                    orig,
                },
            );
            Ok(())
        });
        if let (Err(_), Some(kind)) = (&cached, lock) {
            lm.release(id, kind);
        }
        cached
    }

    /// The cache entry of `id`, first touched (and locked) with at
    /// least the requested access if it is not cached yet.
    fn entry(&self, id: DPtr, write: bool) -> GdiResult<RefMut<'_, CachedObj>> {
        self.ensure_cached(id, write, true)?;
        // (never an error: `ensure_cached` has just cached it)
        RefMut::filter_map(self.cache.borrow_mut(), |c| c.get_mut(&id.raw()))
            .map_err(|_| hio::STALE)
    }

    /// Write access to a cached holder (marks it dirty).
    fn with_holder_mut<R>(&self, id: DPtr, f: impl FnOnce(&mut Holder) -> R) -> GdiResult<R> {
        self.check_writable()?;
        let mut obj = self.entry(id, true)?;
        obj.dirty = true;
        Ok(f(&mut obj.holder))
    }

    /// [`Transaction::with_holder_mut`] for **topology** mutations
    /// (edge-record changes): additionally flags the object so commit
    /// bumps its rank's topology-epoch word (scan-view invalidation).
    fn with_holder_topo<R>(&self, id: DPtr, f: impl FnOnce(&mut Holder) -> R) -> GdiResult<R> {
        let r = self.with_holder_mut(id, f)?;
        if let Some(obj) = self.cache.borrow_mut().get_mut(&id.raw()) {
            obj.topo = true;
        }
        Ok(r)
    }

    /// Apply `f` to the mirror of `rec` — the record of the same edge as
    /// seen from `remote` — in `target`'s holder, if it still has one.
    fn update_mirror(
        &self,
        target: DPtr,
        remote: DPtr,
        rec: &EdgeRecord,
        f: impl FnOnce(&mut EdgeRecord),
    ) -> GdiResult<()> {
        let mut nbr = self.entry(target, true)?;
        if let Some(slot) = find_mirror_slot(&nbr.holder, remote, rec) {
            nbr.holder.update_edge(slot, f);
            nbr.dirty = true;
            nbr.topo = true;
        }
        Ok(())
    }

    /// The read-only path (module docs): hand `f` the serialized version
    /// of `id` this transaction reads, out of the chains fetched last —
    /// or, when `id` is not among them, after fetching it alone
    /// (`Transaction::fetch`). The bytes stay put until the next fetch,
    /// so consecutive reads of one id (`has_label`, `property`,
    /// `neighbors` of the same vertex) copy — and are charged for — its
    /// chain once. A chain that does not hold up structurally, or bytes
    /// `f` refuses, are the usual stale-internal-id `NotFound`.
    fn with_bytes<R>(&self, id: DPtr, f: impl FnOnce(&[u8]) -> Option<R>) -> GdiResult<R> {
        self.check_active()?;
        if id.is_null() {
            return Err(GdiError::InvalidArgument("null internal id"));
        }
        // (a read nested in `f` finds no chain held)
        let mut reads = self.reads.take().unwrap_or_default();
        let at = match reads.held.binary_search_by_key(&id.raw(), |h| h.0) {
            Ok(at) => Ok(reads.held[at].1),
            Err(_) => self.fetch(&mut reads, &[id]).map(|()| 0),
        };
        let out = at.and_then(|at| f(&reads.bufs.bytes[at]).ok_or(hio::STALE));
        self.reads.set(Some(reads));
        out
    }

    /// Replace the chains `reads` holds by those of `ids` (null and
    /// repeated ids dropped), fetched in one level-pipelined pass
    /// ([`hio::read_chains_into`]): a collective reader's plain copies,
    /// or a pinned reader's validated copies, each rewound to its
    /// snapshot. Every chain that reads is held; fails with the error of
    /// the lowest id that did not (a null id's first).
    fn fetch(&self, reads: &mut Reads, ids: &[DPtr]) -> GdiResult<()> {
        let (ctx, cfg, snap) = (self.eng.ctx, self.eng.cfg(), self.snap.get());
        let src = match snap {
            Some(_) => Source::Validated(ctx),
            None => Source::Live(ctx),
        };
        let Reads { held, bufs, want } = reads;
        held.clear();
        let mut failed = None;
        let want: &[DPtr] = match ids {
            [id] if !id.is_null() => ids,
            _ => {
                want.clear();
                want.extend(ids);
                want.sort_unstable_by_key(|id| id.raw());
                want.dedup();
                if want.first().is_some_and(|id| id.is_null()) {
                    want.remove(0);
                    failed = Some(GdiError::InvalidArgument("null internal id"));
                }
                want
            }
        };
        hio::read_chains_into(&src, cfg, want, bufs, |i, read| {
            let read = read.and_then(|chain| match snap {
                None => Ok(()),
                Some(snap) => {
                    ctx.count(Counter::SnapshotReads, 1);
                    self.rewind(snap, chain)
                }
            });
            match read {
                Ok(()) => held.push((want[i].raw(), i)),
                Err(e) => failed = failed.take().or(Some(e)),
            }
        });
        failed.map_or(Ok(()), Err)
    }

    /// Resolve `chain`, a validated copy of a live chain, to the version
    /// a snapshot pinned at `snap` reads: walk the archived `prev` links
    /// down to the newest version with `commit_epoch ≤ snap`, rewinding
    /// the bytes by each record's undo on the way ([`Archive::rewind`]).
    /// Never takes a lock, never aborts on conflict; an object with no
    /// version at the snapshot (created later) is simply `NotFound`.
    fn rewind(&self, snap: u64, chain: &mut Vec<u8>) -> GdiResult<()> {
        const GONE: GdiError = GdiError::NotFound("object (no version at snapshot)");
        let (mut epoch, mut prev) = Holder::version_of(chain).ok_or(hio::STALE)?;
        // The walk requires strictly decreasing commit epochs of the same
        // object, which also bounds it: a `prev` that reaches freed
        // (possibly reused) space must read as *chain end*, never as a
        // stranger's bytes. A record this walk can reach was written by
        // a commit at an epoch above `snap`, and a rank frees a record
        // only once the snapshot floor — at most our pinned epoch —
        // reaches its commit's epoch (`GdaRank::reclaim_archives`), so
        // any failure to read or apply one means the link left the live
        // chain.
        let (mut block, mut record) = (Vec::new(), Vec::new());
        while epoch > snap {
            if prev == 0 {
                return Err(GONE);
            }
            block.resize(self.eng.cfg().block_size, 0);
            let (src, at) = (Source::Validated(self.eng.ctx), DPtr::from_raw(prev));
            let archive = hio::read_chain_into(&src, self.eng.cfg(), at, &mut block, &mut record)
                .ok()
                .and_then(|()| Archive::parse(&record))
                .filter(|a| a.commit_epoch < epoch)
                .ok_or(GONE)?;
            *chain = archive.rewind(chain).ok_or(GONE)?;
            (epoch, prev) = (archive.commit_epoch, archive.prev);
        }
        Ok(())
    }

    /// Read access to the labels and properties of `id`, all from **one**
    /// read of the element: its bytes in a read-only transaction (module
    /// docs), a writer's cached holder otherwise. Evaluate a whole
    /// pattern inside `f` rather than calling [`Transaction::has_label`]
    /// and [`Transaction::property`] once per predicate.
    pub fn with_entries<R>(&self, id: DPtr, f: impl FnOnce(&EntryScan<'_>) -> R) -> GdiResult<R> {
        if self.mode == AccessMode::ReadOnly {
            self.with_bytes(id, |bytes| Holder::scan_entries(bytes).map(|e| f(&e)))
        } else {
            Ok(f(&self.entry(id, false)?.holder.entry_scan()))
        }
    }

    /// The edge-section twin of [`Transaction::with_entries`].
    fn with_edges<R>(&self, id: DPtr, f: impl FnOnce(&EdgeScan<'_>) -> R) -> GdiResult<R> {
        if self.mode == AccessMode::ReadOnly {
            self.with_bytes(id, |bytes| Holder::scan_edges(bytes).map(|e| f(&e)))
        } else {
            Ok(f(&self.entry(id, false)?.holder.edge_scan()))
        }
    }

    // ------------------------------------------------------------------
    // vertex id translation & creation
    // ------------------------------------------------------------------

    /// `GDI_TranslateVertexID`: application id → internal id with one
    /// lookup in the offloaded DHT (§5.7). Valid under both access modes:
    /// the DHT holds no stale entry, so a vertex whose delete committed
    /// before this transaction began can never translate, and a committed
    /// insert translates at once.
    pub fn translate_vertex_id(&self, app: AppVertexId) -> GdiResult<DPtr> {
        self.check_active()?;
        self.eng.peek_translate(app).ok_or(UNKNOWN_APP_ID)
    }

    /// [`Transaction::translate_vertex_id`] for many ids, answers in id
    /// order: one walk of all their DHT chains together, one round per
    /// chain level, so the ids share each level's latency.
    pub fn translate_vertex_ids(&self, apps: &[AppVertexId]) -> Vec<GdiResult<DPtr>> {
        if let Err(e) = self.check_active() {
            return apps.iter().map(|_| Err(e.clone())).collect();
        }
        let keys: Vec<u64> = apps.iter().map(|a| a.0).collect();
        (self.eng.dht.lookup_many(&keys).into_iter())
            .map(|raw| raw.map(DPtr::from_raw).ok_or(UNKNOWN_APP_ID))
            .collect()
    }

    /// [`Transaction::translate_vertex_id`] under its former name, kept
    /// only for `benchmark/src/layers.rs:539`, which still calls it.
    pub fn translate_vertex_id_fresh(&self, app: AppVertexId) -> GdiResult<DPtr> {
        self.translate_vertex_id(app)
    }

    /// `GDI_AssociateVertex`: make the vertex accessible through this
    /// transaction (a writer fetches and caches its holder, a read-only
    /// transaction reads its bytes).
    pub fn associate_vertex(&self, id: DPtr) -> GdiResult<()> {
        self.with_entries(id, |_| ())
    }

    /// `GDI_AssociateVertex` for many vertices. A read-only transaction
    /// fetches all their chains together, one round per block level,
    /// and keeps them: its reads of these ids then copy nothing more,
    /// until it reads an id outside them. It holds every chain that
    /// reads and fails with the error of the lowest id that did not. A
    /// writer touches them one by one, in order, each under the lock its
    /// first touch takes, and stops at the first that fails; a lock
    /// conflict aborts it, as any touch's does.
    pub fn associate_vertices(&self, ids: &[DPtr]) -> GdiResult<()> {
        self.check_active()?;
        if self.mode != AccessMode::ReadOnly {
            return ids.iter().try_for_each(|&id| self.associate_vertex(id));
        }
        let mut reads = self.reads.take().unwrap_or_default();
        let fetched = self.fetch(&mut reads, ids);
        self.reads.set(Some(reads));
        fetched
    }

    /// Batch-friendly entry point: acquire the write lock on `id` and
    /// cache its holder *without mutating anything*. A batcher that
    /// prepares every object an op touches before issuing the first
    /// mutation gets all-or-nothing ops inside a shared transaction — and
    /// unlike the ordinary routines, a failed preparation (even a lock
    /// conflict) does **not** poison the transaction: it is a probe, so
    /// the batch can skip the op and keep going (see `server::batch`).
    pub fn prepare_write(&self, id: DPtr) -> GdiResult<()> {
        self.check_active()?;
        if self.mode == AccessMode::ReadOnly {
            return Err(GdiError::ReadOnlyViolation);
        }
        self.ensure_cached(id, true, false)
    }

    /// Probe-lock the full write-set of [`Transaction::delete_vertex`]:
    /// the vertex, every mirror holder, and every heavy edge holder.
    /// Lives next to `delete_vertex` so the enumeration cannot drift from
    /// what the deletion actually touches. Same non-poisoning semantics
    /// as [`Transaction::prepare_write`]; after it succeeds, the deletion
    /// itself cannot hit a lock conflict.
    pub fn prepare_delete_vertex(&self, id: DPtr) -> GdiResult<()> {
        self.prepare_write(id)?;
        let targets: Vec<(DPtr, DPtr)> = self.with_edges(id, |edges| {
            edges
                .live()
                .map(|(_, r)| (r.target, r.edge_holder))
                .collect()
        })?;
        for (target, edge_holder) in targets {
            if target != id {
                self.prepare_write(target)?;
            }
            if !edge_holder.is_null() {
                self.prepare_write(edge_holder)?;
            }
        }
        Ok(())
    }

    /// `GDI_CreateVertex`. The vertex's primary block (and hence its
    /// internal id) is allocated immediately on its round-robin owner rank;
    /// visibility (DHT entry, index postings) happens at commit.
    pub fn create_vertex(&self, app: AppVertexId) -> GdiResult<DPtr> {
        self.check_writable()?;
        if self.eng.peek_translate(app).is_some() {
            return Err(GdiError::AlreadyExists("vertex (application id)"));
        }
        self.create_object(
            owner_rank(app, self.eng.nranks()),
            Holder::new_vertex(app.0),
        )
    }

    /// The created twin of [`Transaction::first_touch`]: allocate a
    /// primary block on `rank`, write-lock it and cache `holder` there as
    /// a created (dirty, topology-changing) object. Returns its id.
    ///
    /// A block straight from the pool can still be locked. A deleting
    /// commit or an abort returns its chain to the pool before it
    /// releases the old primary's lock (released first, a writer still
    /// holding the old id could lock the dead holder and write back into
    /// blocks the pool has handed on), and a transaction with a stale id
    /// may lock a pooled block. Such a block is set aside and the next
    /// one taken; the set-aside blocks go back to the pool once a free
    /// one is held, and become a primary only when their lock reads 0.
    fn create_object(&self, rank: usize, holder: Holder) -> GdiResult<DPtr> {
        let mut aside = Vec::new();
        let taken = loop {
            match self.eng.bm.acquire(rank) {
                Ok(p) if self.eng.lm.try_acquire_write(p) => break Ok(p),
                Ok(p) => aside.push(p),
                Err(e) => break Err(e),
            }
        };
        hio::free_chain(&self.eng.bm, &aside);
        let primary = match taken {
            Ok(p) => p,
            Err(e) => return self.fail(e),
        };
        self.cache.borrow_mut().insert(
            primary.raw(),
            CachedObj {
                holder,
                blocks: vec![primary],
                lock: Some(LockKind::Write),
                dirty: true,
                created: true,
                deleted: false,
                topo: true,
                orig: None,
            },
        );
        Ok(primary)
    }

    /// `GDI_GetVertexApplicationID` (reverse of translation).
    pub fn vertex_app_id(&self, id: DPtr) -> GdiResult<AppVertexId> {
        self.with_entries(id, |e| AppVertexId(e.app_id))
    }

    /// `GDI_DeleteVertex`: removes the vertex, its lightweight edges, the
    /// mirror records at all neighbours, and any heavy-edge holders.
    pub fn delete_vertex(&self, id: DPtr) -> GdiResult<()> {
        self.check_writable()?;
        let edges: Vec<EdgeRecord> = (self.entry(id, true)?.holder.edge_scan().live())
            .map(|(_, r)| r)
            .collect();
        for rec in edges {
            if !rec.edge_holder.is_null() {
                self.delete_object(rec.edge_holder)?;
            }
            if rec.target == id {
                continue; // self-loop: both records die with the holder
            }
            self.update_mirror(rec.target, id, &rec, tombstone)?;
        }
        self.delete_object(id)
    }

    /// Mark a cached object deleted.
    fn delete_object(&self, id: DPtr) -> GdiResult<()> {
        let mut obj = self.entry(id, true)?;
        obj.deleted = true;
        obj.dirty = true;
        obj.topo = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // labels
    // ------------------------------------------------------------------

    /// `GDI_AddLabelToVertex`.
    pub fn add_label(&self, id: DPtr, label: LabelId) -> GdiResult<()> {
        self.used_meta.set(true);
        if self.eng.meta().label_name(label).is_none() {
            return Err(GdiError::NotFound("label"));
        }
        self.with_holder_mut(id, |h| h.add_label(label)).map(|_| ())
    }

    /// `GDI_RemoveLabelFromVertex`.
    pub fn remove_label(&self, id: DPtr, label: LabelId) -> GdiResult<()> {
        self.with_holder_mut(id, |h| {
            if h.remove_label(label) {
                Ok(())
            } else {
                Err(GdiError::NotFound("label on vertex"))
            }
        })?
    }

    /// `GDI_GetAllLabelsOfVertex`.
    pub fn labels(&self, id: DPtr) -> GdiResult<Vec<LabelId>> {
        self.with_entries(id, |e| e.labels().collect())
    }

    /// Does the element carry the label?
    pub fn has_label(&self, id: DPtr, label: LabelId) -> GdiResult<bool> {
        self.with_entries(id, |e| e.has_label(label))
    }

    // ------------------------------------------------------------------
    // properties
    // ------------------------------------------------------------------

    /// Check `value` against `ptype`'s definition; its encoded bytes and
    /// whether the p-type is single-valued.
    fn validate_property(
        &self,
        ptype: PTypeId,
        value: &PropertyValue,
        on_edge: bool,
    ) -> GdiResult<(Vec<u8>, bool)> {
        self.used_meta.set(true);
        let meta = self.eng.meta();
        let def = meta
            .ptype(ptype)
            .ok_or(GdiError::NotFound("property type"))?;
        if (on_edge && !def.entity.allows_edge()) || (!on_edge && !def.entity.allows_vertex()) {
            return Err(GdiError::TypeMismatch);
        }
        let bytes = value.encode();
        let eb = def.dtype.elem_bytes();
        if !bytes.len().is_multiple_of(eb) {
            return Err(GdiError::TypeMismatch);
        }
        if !def.stype.validate(bytes.len() / eb, def.count) {
            return Err(GdiError::SizeExceeded);
        }
        Ok((bytes, def.mult == gdi::Multiplicity::Single))
    }

    /// Decode the raw value bytes of a property entry under `ptype`'s
    /// declared datatype; `None` for an unknown p-type or bytes of the
    /// wrong width.
    pub fn decode_property(&self, ptype: PTypeId, raw: &[u8]) -> Option<PropertyValue> {
        let meta = self.eng.meta();
        let def = meta.ptype(ptype)?;
        PropertyValue::decode(def.dtype, raw).ok()
    }

    /// `GDI_AddPropertyToVertex`. For `Single`-multiplicity types, adding a
    /// second entry is an error (use [`Transaction::update_property`]).
    pub fn add_property(&self, id: DPtr, ptype: PTypeId, value: &PropertyValue) -> GdiResult<()> {
        let (bytes, single) = self.validate_property(ptype, value, false)?;
        self.with_holder_mut(id, |h| {
            if single && h.entry_scan().properties_raw(ptype).next().is_some() {
                Err(GdiError::AlreadyExists("single-valued property"))
            } else {
                h.add_property(ptype, &bytes);
                Ok(())
            }
        })?
    }

    /// `GDI_UpdatePropertyOfVertex`: set/replace the (first) entry.
    pub fn update_property(
        &self,
        id: DPtr,
        ptype: PTypeId,
        value: &PropertyValue,
    ) -> GdiResult<()> {
        let (bytes, _) = self.validate_property(ptype, value, false)?;
        self.with_holder_mut(id, |h| h.set_property(ptype, &bytes))
    }

    /// `GDI_RemovePropertyFromVertex` (all entries of the type). Returns
    /// the number removed.
    pub fn remove_properties(&self, id: DPtr, ptype: PTypeId) -> GdiResult<usize> {
        self.with_holder_mut(id, |h| h.remove_property(ptype))
    }

    /// `GDI_RemoveAllPropertiesFromVertex`.
    pub fn remove_all_properties(&self, id: DPtr) -> GdiResult<usize> {
        self.with_holder_mut(id, |h| h.remove_all_properties())
    }

    /// `GDI_GetPropertiesOfVertex`: first entry of the type, decoded.
    pub fn property(&self, id: DPtr, ptype: PTypeId) -> GdiResult<Option<PropertyValue>> {
        self.with_entries(id, |e| {
            e.properties_raw(ptype)
                .next()
                .and_then(|raw| self.decode_property(ptype, raw))
        })
    }

    /// All entries of the type, decoded.
    pub fn properties(&self, id: DPtr, ptype: PTypeId) -> GdiResult<Vec<PropertyValue>> {
        self.with_entries(id, |e| {
            e.properties_raw(ptype)
                .filter_map(|raw| self.decode_property(ptype, raw))
                .collect()
        })
    }

    /// `GDI_GetAllPropertyTypesOfVertex`.
    pub fn ptypes(&self, id: DPtr) -> GdiResult<Vec<PTypeId>> {
        self.with_entries(id, |e| e.ptypes())
    }

    // ------------------------------------------------------------------
    // edges
    // ------------------------------------------------------------------

    /// `GDI_CreateEdge`: adds a lightweight edge (≤1 label, no properties)
    /// between two vertices. Directed edges store an `Out` record at the
    /// origin and an `In` record at the target; undirected edges store an
    /// `Undirected` record at both endpoints. Returns the edge UID based at
    /// the origin.
    pub fn add_edge(
        &self,
        origin: DPtr,
        target: DPtr,
        label: Option<LabelId>,
        directed: bool,
    ) -> GdiResult<EdgeUid> {
        self.check_writable()?;
        let lbl = label.map(|l| l.0).unwrap_or(0);
        if let Some(l) = label {
            self.used_meta.set(true);
            if self.eng.meta().label_name(l).is_none() {
                return Err(GdiError::NotFound("edge label"));
            }
        }
        let (od, td) = if directed {
            (Direction::Out, Direction::In)
        } else {
            (Direction::Undirected, Direction::Undirected)
        };
        let slot = self.with_holder_topo(origin, |h| {
            h.push_edge(EdgeRecord::lightweight(target, lbl, od))
        })?;
        if origin != target {
            self.with_holder_topo(target, |h| {
                h.push_edge(EdgeRecord::lightweight(origin, lbl, td));
            })?;
        } else if directed {
            // self-loop on a directed edge: record both directions
            self.with_holder_topo(origin, |h| {
                h.push_edge(EdgeRecord::lightweight(origin, lbl, td));
            })?;
        }
        Ok(EdgeUid::new(origin, slot))
    }

    /// Read the record behind an edge UID.
    fn edge_record(&self, e: EdgeUid) -> GdiResult<EdgeRecord> {
        self.with_edges(e.vertex, |edges| edges.get(e.slot))?
            .ok_or(GdiError::NotFound("edge"))
    }

    /// `GDI_DeleteEdge`: tombstones both endpoint records and deletes any
    /// heavy-edge holder.
    pub fn delete_edge(&self, e: EdgeUid) -> GdiResult<()> {
        self.check_writable()?;
        let rec = self.edge_record(e)?;
        self.update_edge_records(e, &rec, tombstone)?;
        if !rec.edge_holder.is_null() {
            self.delete_object(rec.edge_holder)?;
        }
        Ok(())
    }

    /// `GDI_GetEdgesOfVertex`: edge UIDs incident to `id` matching the
    /// orientation selector.
    pub fn edges(&self, id: DPtr, orient: EdgeOrientation) -> GdiResult<Vec<EdgeUid>> {
        self.with_edges(id, |edges| {
            edges
                .live()
                .filter(|(_, r)| orient.matches(r.dir))
                .map(|(s, _)| EdgeUid::new(id, s))
                .collect()
        })
    }

    /// Count edges without materializing UIDs.
    pub fn edge_count(&self, id: DPtr, orient: EdgeOrientation) -> GdiResult<usize> {
        self.with_edges(id, |edges| {
            edges.live().filter(|(_, r)| orient.matches(r.dir)).count()
        })
    }

    /// `GDI_GetNeighborVerticesOfVertex`, optionally filtered by edge
    /// label.
    pub fn neighbors(
        &self,
        id: DPtr,
        orient: EdgeOrientation,
        label: Option<LabelId>,
    ) -> GdiResult<Vec<DPtr>> {
        let mut out = Vec::new();
        self.for_each_neighbor(id, orient, label, |t| out.push(t))?;
        Ok(out)
    }

    /// [`Transaction::neighbors`] without the list: `f` sees every
    /// neighbour in edge-record order.
    pub fn for_each_neighbor(
        &self,
        id: DPtr,
        orient: EdgeOrientation,
        label: Option<LabelId>,
        mut f: impl FnMut(DPtr),
    ) -> GdiResult<()> {
        self.with_edges(id, |edges| {
            edges
                .live()
                .filter(|(_, r)| orient.matches(r.dir) && label.is_none_or(|l| r.label == l.0))
                .for_each(|(_, r)| f(r.target))
        })
    }

    /// `GDI_GetNeighborVerticesOfVertex` with a *constraint object*
    /// (Listing 3, lines 9–10): expand over edges matching `edge_label`,
    /// keep only neighbors whose holders satisfy the DNF `constraint`
    /// (the "let the storage handle the filtering" path of §3.1). The candidates
    /// are associated together ([`Transaction::associate_vertices`]): a reader
    /// fetches them as **one pipelined non-blocking batch** — one network latency
    /// per chain level across all of them, not one chain walk per neighbor — and
    /// tests the chains it holds in place; a writer touches them one by one into
    /// its cache.
    pub fn neighbors_matching(
        &self,
        id: DPtr,
        orient: EdgeOrientation,
        edge_label: Option<LabelId>,
        constraint: &Constraint,
    ) -> GdiResult<Vec<DPtr>> {
        let candidates = self.neighbors(id, orient, edge_label)?;
        // `id` (a self-loop's target) is read already: test it before the batch
        let own = candidates.contains(&id) && self.entries_match(id, constraint)?;
        let others: Vec<DPtr> = candidates.iter().copied().filter(|&c| c != id).collect();
        self.associate_vertices(&others)?;
        let mut out = Vec::new();
        for nbr in candidates {
            if (nbr == id && own) || (nbr != id && self.entries_match(nbr, constraint)?) {
                out.push(nbr);
            }
        }
        Ok(out)
    }

    /// Does `id` satisfy `constraint`? One read of the element.
    fn entries_match(&self, id: DPtr, constraint: &Constraint) -> GdiResult<bool> {
        self.with_entries(id, |e| self.matches(e, constraint))
    }

    /// Do the entries `e` satisfy `constraint`?
    fn matches(&self, e: &EntryScan<'_>, constraint: &Constraint) -> bool {
        holder_matches(e, constraint, |pt, raw| self.decode_property(pt, raw))
    }

    /// `GDI_GetVerticesOfEdge`: (origin, target) internal ids.
    pub fn edge_endpoints(&self, e: EdgeUid) -> GdiResult<(DPtr, DPtr)> {
        let rec = self.edge_record(e)?;
        Ok(match rec.dir {
            Direction::Out | Direction::Undirected => (e.vertex, rec.target),
            Direction::In => (rec.target, e.vertex),
        })
    }

    /// `GDI_GetDirectionOfEdge` relative to the base vertex.
    pub fn edge_direction(&self, e: EdgeUid) -> GdiResult<Direction> {
        Ok(self.edge_record(e)?.dir)
    }

    /// `GDI_GetAllLabelsOfEdge`: the lightweight label plus any labels on a
    /// heavy-edge holder.
    pub fn edge_labels(&self, e: EdgeUid) -> GdiResult<Vec<LabelId>> {
        let rec = self.edge_record(e)?;
        let mut out = Vec::new();
        if rec.label != 0 {
            out.push(LabelId(rec.label));
        }
        if !rec.edge_holder.is_null() {
            out.extend(self.labels(rec.edge_holder)?);
        }
        Ok(out)
    }

    /// `GDI_AddLabelToEdge`. The first label is stored inline in the
    /// lightweight record (both mirrors); further labels promote the edge
    /// to a heavy-edge holder.
    pub fn add_edge_label(&self, e: EdgeUid, label: LabelId) -> GdiResult<()> {
        self.check_writable()?;
        self.used_meta.set(true);
        if self.eng.meta().label_name(label).is_none() {
            return Err(GdiError::NotFound("label"));
        }
        let rec = self.edge_record(e)?;
        if rec.label == 0 {
            self.update_edge_records(e, &rec, |r| r.label = label.0)
        } else {
            let holder = self.ensure_edge_holder(e, &rec)?;
            self.with_holder_mut(holder, |h| h.add_label(label))
                .map(|_| ())
        }
    }

    /// `GDI_AddPropertyToEdge` / update: stores the property on the edge's
    /// heavy holder, creating it on demand.
    pub fn set_edge_property(
        &self,
        e: EdgeUid,
        ptype: PTypeId,
        value: &PropertyValue,
    ) -> GdiResult<()> {
        let (bytes, _) = self.validate_property(ptype, value, true)?;
        let rec = self.edge_record(e)?;
        let holder = self.ensure_edge_holder(e, &rec)?;
        self.with_holder_mut(holder, |h| h.set_property(ptype, &bytes))
    }

    /// `GDI_GetPropertiesOfEdge`: first entry of the type.
    pub fn edge_property(&self, e: EdgeUid, ptype: PTypeId) -> GdiResult<Option<PropertyValue>> {
        let rec = self.edge_record(e)?;
        if rec.edge_holder.is_null() {
            return Ok(None);
        }
        self.property(rec.edge_holder, ptype)
    }

    /// `GDI_RemovePropertyFromEdge`: remove all entries of `ptype` from the
    /// edge's heavy holder. Returns the number removed (0 if the edge never
    /// had a heavy holder).
    pub fn remove_edge_properties(&self, e: EdgeUid, ptype: PTypeId) -> GdiResult<usize> {
        self.check_writable()?;
        let rec = self.edge_record(e)?;
        if rec.edge_holder.is_null() {
            return Ok(0);
        }
        self.with_holder_mut(rec.edge_holder, |h| h.remove_property(ptype))
    }

    /// `GDI_GetAllPropertyTypesOfEdge`.
    pub fn edge_ptypes(&self, e: EdgeUid) -> GdiResult<Vec<PTypeId>> {
        let rec = self.edge_record(e)?;
        if rec.edge_holder.is_null() {
            return Ok(Vec::new());
        }
        self.ptypes(rec.edge_holder)
    }

    /// `GDI_SetOriginVertexOfEdge` / `GDI_SetTargetVertexOfEdge` analog:
    /// flip the direction of a directed edge (swap origin/target). The
    /// paper exposes endpoint mutation; flipping covers its use case while
    /// keeping mirror records consistent.
    pub fn flip_edge(&self, e: EdgeUid) -> GdiResult<()> {
        self.check_writable()?;
        let rec = self.edge_record(e)?;
        if rec.dir == Direction::Undirected {
            return Err(GdiError::InvalidArgument("cannot flip an undirected edge"));
        }
        self.update_edge_records(e, &rec, |r| r.dir = r.dir.reverse())
    }

    /// Create (if needed) the heavy holder of an edge and link it from both
    /// endpoint records.
    fn ensure_edge_holder(&self, e: EdgeUid, rec: &EdgeRecord) -> GdiResult<DPtr> {
        if !rec.edge_holder.is_null() {
            return Ok(rec.edge_holder);
        }
        let (origin, target) = match rec.dir {
            Direction::Out | Direction::Undirected => (e.vertex, rec.target),
            Direction::In => (rec.target, e.vertex),
        };
        let primary = self.create_object(e.vertex.rank(), Holder::new_edge(origin, target))?;
        self.update_edge_records(e, rec, |r| r.edge_holder = primary)?;
        Ok(primary)
    }

    /// Apply a mutation to an edge's record at the base vertex *and* its
    /// mirror at the other endpoint.
    fn update_edge_records(
        &self,
        e: EdgeUid,
        rec: &EdgeRecord,
        f: impl Fn(&mut EdgeRecord),
    ) -> GdiResult<()> {
        self.with_holder_topo(e.vertex, |h| h.update_edge(e.slot, &f))?;
        if rec.target != e.vertex {
            self.update_mirror(rec.target, e.vertex, rec, &f)?;
        } else {
            // self-loop: the sibling record in the same holder
            self.with_holder_topo(e.vertex, |h| {
                let sib = h
                    .edge_scan()
                    .live()
                    .find(|(s, r)| {
                        *s != e.slot && r.target == e.vertex && r.edge_holder == rec.edge_holder
                    })
                    .map(|(s, _)| s);
                if let Some(s) = sib {
                    h.update_edge(s, &f);
                }
            })?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // index scans
    // ------------------------------------------------------------------

    /// Scan this rank's partition of an explicit index, filtered by a DNF
    /// constraint evaluated on each candidate's holder (one read per
    /// posting). The workhorse of Listings 2 and 3.
    pub fn local_index_scan(
        &self,
        index: IndexId,
        constraint: &Constraint,
    ) -> GdiResult<Vec<Posting>> {
        self.check_active()?;
        if constraint.is_stale(self.eng.meta_epoch()) && constraint.epoch != 0 {
            return self.fail(GdiError::StaleMetadata);
        }
        let postings = self.eng.local_index_vertices(index);
        let mut out = Vec::new();
        for p in postings {
            if self.entries_match(p.vertex, constraint)? {
                out.push(p);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // MVCC version-chain maintenance (commit-path helpers)
    // ------------------------------------------------------------------

    /// Write `record` — the [`Archive`] of one overwritten version — to
    /// a fresh block chain on `id`'s rank: the new head of `id`'s
    /// version chain, retired at once under the commit's `epoch` (the
    /// rank frees it when the snapshot floor reaches `epoch`, so a
    /// write-back that fails after this leaks nothing). Single-phase —
    /// the archive is unreachable until the committing writer publishes
    /// the new version's `prev` pointing at it — and never durable: a
    /// full image carries live chains only, a delta carries redo frames
    /// only.
    fn archive_version(&self, id: DPtr, record: &[u8], epoch: u64) -> GdiResult<DPtr> {
        let primary = self.eng.bm.acquire(id.rank())?;
        let mut blocks = vec![primary];
        match hio::write_chain(self.eng.ctx, &self.eng.bm, record, &mut blocks) {
            Ok(()) => {
                self.eng.retire_archive(epoch, &blocks);
                self.eng.ctx().count(Counter::VersionArchives, 1);
                self.eng
                    .ctx()
                    .count(Counter::ArchiveBytes, record.len() as u64);
                Ok(primary)
            }
            Err(e) => {
                hio::free_chain(&self.eng.bm, &blocks);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // commit / abort (§5.6)
    // ------------------------------------------------------------------

    /// `GDI_CloseTransaction` / `GDI_CloseCollectiveTransaction` with
    /// commit semantics.
    pub fn commit(self) -> GdiResult<()> {
        self.check_active()?;
        // metadata staleness check (§3.8): eventual consistency requires
        // transactions that relied on metadata to detect concurrent changes
        if self.used_meta.get() && self.eng.meta_epoch() != self.epoch {
            self.abort_inner();
            if self.kind == TxKind::Collective {
                let _ = self.eng.ctx().allreduce_any(true);
            }
            return Err(GdiError::StaleMetadata);
        }
        if self.kind == TxKind::Collective {
            // abort vote before any write-back: either all commit or none
            let anyone_aborted = self.eng.ctx().allreduce_any(false);
            if anyone_aborted {
                self.abort_inner();
                return Err(GdiError::ValidationFailed);
            }
        }
        let mut cache = self.cache.borrow_mut();
        // MVCC: one commit epoch for the whole (possibly grouped)
        // transaction, allocated only when there is something to
        // publish. Every allocated epoch is published at the end of
        // this function — even on a failed commit — because watermark
        // publication is strictly in epoch order and a silent gap would
        // wedge every later commit. The rank's archive reclaim runs
        // first, so no later epoch waits behind it.
        let epoch =
            if self.mvcc_writer() && cache.values().any(|o| o.dirty || o.created || o.deleted) {
                self.eng.reclaim_if_due();
                Some(self.eng.alloc_commit_epoch())
            } else {
                None
            };
        let mut touched: FxHashSet<usize> = FxHashSet::default();
        // ranks whose *topology* this commit changed (membership or edge
        // lists): their topology-epoch word is bumped after the
        // write-back so cached OLAP scan views revalidate (`gda::scan`)
        let mut topo_touched: FxHashSet<usize> = FxHashSet::default();
        let mut result = Ok(());
        // durability: effects of this commit, at holder granularity,
        // appended to the rank's redo log after the write-back (only the
        // objects actually persisted — a partially failed commit logs
        // exactly what it made visible)
        let logging = self.eng.persist_enabled();
        let logs_whole = self.eng.logs_whole();
        let mut redo: Vec<RedoRecord> = Vec::new();
        // Has any object been written back (or freed) already? Once one
        // has, persisted holders may reference a created object's blocks
        // (mirror edge records), so reclaiming those blocks on a later
        // failure could hand them to a new owner while stale references
        // resolve to them — silent corruption. In that case we leak the
        // blocks instead (bounded: only failed commits); reclaiming is
        // safe only while nothing has been persisted yet.
        let mut wrote_any = false;
        // grouped commit: overlap the write-back transfers of all dirty
        // objects in one non-blocking batch (one deferred latency + one
        // flush per touched rank instead of per-object costs)
        if self.grouped.get() {
            self.eng.ctx().begin_nb_batch();
        }
        for (&raw, obj) in cache.iter_mut() {
            let id = DPtr::from_raw(raw);
            if result.is_err() {
                // the commit already failed: write back nothing further;
                // reclaim never-published creations only when nothing was
                // persisted before the failure (see `wrote_any` above)
                if obj.created && !wrote_any {
                    hio::free_chain(&self.eng.bm, &obj.blocks);
                }
                continue;
            }
            if obj.deleted {
                if !obj.created {
                    // remove from DHT and indexes, then free storage; the
                    // delete bumps the owner's epoch, retiring every cached
                    // translation of the vertex
                    if !obj.holder.is_edge() {
                        self.eng.dht.delete(obj.holder.app_id());
                        self.eng.indexes().reindex_vertex(
                            id,
                            AppVertexId(obj.holder.app_id()),
                            None,
                        );
                    }
                }
                hio::free_chain(&self.eng.bm, &obj.blocks);
                if logging && !obj.created {
                    redo.push(RedoRecord::Delete {
                        primary: raw,
                        app_id: obj.holder.app_id(),
                        is_edge: obj.holder.is_edge(),
                        version: obj.holder.version(),
                    });
                }
                touched.insert(id.rank());
                topo_touched.insert(id.rank());
                wrote_any = true;
            } else if obj.dirty || obj.created {
                // every write versions the holder with a commit stamp
                // from its owner rank: strictly monotone per object
                // across incarnations, the replay ordering authority,
                // and unique per rank across objects and incarnations,
                // as the seqlock publication stamp must be (a reused
                // block must never revalidate under a stale stamp).
                // Every version a holder carries came from that counter
                // (a commit, a bulk load) or lies at or below the floor
                // recovery raises every counter to, so the new stamp is
                // always above it.
                let base = obj.holder.version();
                let stamp = self.eng.next_version_stamp(id);
                debug_assert!(base < stamp, "version {base} not below stamp {stamp}");
                obj.holder.set_version(stamp);
                // an unversioned overwrite (a collective writer: no
                // concurrent reader) ends the chain: its records undo the
                // version this write replaces, not the one it writes, and
                // stay on their retire lists until the floor passes them
                if epoch.is_none() || obj.created {
                    obj.holder.set_prev(0);
                }
                if let Some(e) = epoch {
                    obj.holder.set_commit_epoch(e);
                }
                obj.holder.compact_edges();
                // one diff against the pre-image: the redo record's
                // forward splice, and the archive's undo of it
                let archives = epoch.filter(|_| !obj.created);
                let fwd = (obj.orig.as_deref())
                    .filter(|_| archives.is_some() || (logging && !logs_whole))
                    .map(|pre| (pre, splice(pre, obj.holder.bytes())));
                if let Some(e) = archives {
                    let Some((pre, fwd)) = &fwd else {
                        result = Err(NO_PRE_IMAGE);
                        continue;
                    };
                    match self.archive_version(id, &Archive::record(pre, fwd), e) {
                        Ok(head) => obj.holder.set_prev(head.raw()),
                        Err(e) => {
                            result = Err(e);
                            continue;
                        }
                    }
                }
                // pre-existing objects are republished with the 3-phase
                // seqlock overwrite so concurrent validated snapshot
                // reads can never assemble a torn mix of versions;
                // created objects are unreachable until the DHT insert
                // below and write single-phase
                let (bytes, blocks) = (obj.holder.bytes(), &mut obj.blocks);
                let write_res = if !obj.created {
                    hio::overwrite_chain(self.eng.ctx, &self.eng.bm, bytes, blocks)
                } else {
                    hio::write_chain(self.eng.ctx, &self.eng.bm, bytes, blocks)
                };
                if let Err(e) = write_res {
                    result = Err(e);
                    if obj.created && !wrote_any {
                        // nothing persisted references this object yet
                        // and it is not in the DHT: safe to reclaim
                        hio::free_chain(&self.eng.bm, &obj.blocks);
                    }
                    continue;
                }
                wrote_any = true;
                if obj.created && !obj.holder.is_edge() {
                    if let Err(e) = self.eng.dht.insert(obj.holder.app_id(), raw) {
                        result = Err(e);
                        // written (wrote_any is set): persisted mirrors
                        // may point here, so the blocks must leak rather
                        // than be reused
                        continue;
                    }
                }
                if !obj.holder.is_edge() {
                    let labels: Vec<LabelId> = obj.holder.entry_scan().labels().collect();
                    let app = AppVertexId(obj.holder.app_id());
                    self.eng.indexes().reindex_vertex(id, app, Some(&labels));
                }
                if logging {
                    // the new body as a splice over the pre-image it
                    // overwrote; whole where there is none, or none the
                    // history is sure to hold (`PersistStore::logs_whole`)
                    let (base, splice) = match fwd.filter(|_| !logs_whole) {
                        Some((_, fwd)) => (Some(base), fwd),
                        None => (None, splice(&[], obj.holder.bytes())),
                    };
                    redo.push(RedoRecord::Put {
                        primary: raw,
                        app_id: obj.holder.app_id(),
                        is_edge: obj.holder.is_edge(),
                        version: obj.holder.version(),
                        base,
                        splice,
                    });
                }
                touched.insert(id.rank());
                if obj.topo {
                    topo_touched.insert(id.rank());
                }
            }
        }
        for r in touched {
            self.eng.ctx().flush(r);
        }
        if self.grouped.get() {
            self.eng.ctx().end_nb_batch();
        }
        // topology-epoch bumps strictly *after* the data write-back: a
        // scan view built against the old epoch can never have read new
        // bytes it would then fail to revalidate (one fadd per touched
        // rank per commit; property-only commits bump nothing)
        for r in topo_touched {
            self.eng.bump_topology_epoch(r);
        }
        // one redo append per commit: a grouped commit logs the whole
        // group in one frame, amortizing the device overhead
        self.eng.log_commit(redo);
        // MVCC epoch publication: strictly in epoch order (spin until
        // the watermark reaches e-1, then CAS), and unconditional —
        // a failed commit publishes too, or every later epoch would
        // spin forever behind the gap. Runs *after* the redo append:
        // log-before-publish keeps a fuzzy checkpoint's recovered
        // watermark consistent with the images it restores.
        if let Some(e) = epoch {
            self.eng.publish_watermark(e);
            self.eng.set_last_commit_epoch(e);
        }
        // release all locks (end of phase two)
        for (&raw, obj) in cache.iter() {
            if let Some(kind) = obj.lock {
                self.eng.lm.release(DPtr::from_raw(raw), kind);
            }
        }
        cache.clear();
        drop(cache);
        self.unpin();
        self.status.set(TxStatus::Committed);
        if self.kind == TxKind::Collective {
            self.eng.ctx().barrier();
        }
        result
    }

    /// `GDI_CloseTransaction` with abort semantics: no effects are visible.
    pub fn abort(self) {
        if self.status.get().is_active() {
            self.abort_inner();
        }
    }

    fn abort_inner(&self) {
        let mut cache = self.cache.borrow_mut();
        for (&raw, obj) in cache.iter() {
            if obj.created {
                // blocks were acquired eagerly; give them back
                hio::free_chain(&self.eng.bm, &obj.blocks);
            }
            if let Some(kind) = obj.lock {
                self.eng.lm.release(DPtr::from_raw(raw), kind);
            }
        }
        cache.clear();
        drop(cache);
        self.unpin();
        self.status.set(TxStatus::Aborted);
    }
}

impl Drop for Transaction<'_, '_, '_, '_> {
    fn drop(&mut self) {
        if self.status.get().is_active() {
            self.abort_inner();
        }
        self.eng.reads.set(self.reads.take());
    }
}

/// Locate the mirror record of an edge at the opposite endpoint: same
/// remote vertex, reversed direction, same label and heavy-holder link.
fn find_mirror_slot(holder: &Holder, remote: DPtr, rec: &EdgeRecord) -> Option<u32> {
    holder
        .edge_scan()
        .live()
        .find(|(_, r)| {
            r.target == remote
                && r.dir == rec.dir.reverse()
                && r.label == rec.label
                && r.edge_holder == rec.edge_holder
        })
        .map(|(s, _)| s)
}

/// Tombstone an edge record (its slot stays, so later slots keep their
/// edge UIDs until commit compacts).
fn tombstone(r: &mut EdgeRecord) {
    r.flags |= EdgeRecord::TOMBSTONE;
}

/// An application id no vertex has.
const UNKNOWN_APP_ID: GdiError = GdiError::NotFound("vertex (application id)");

/// A commit meets a written object it holds no pre-image of, so it
/// cannot archive the version it overwrites (never expected: every
/// write-locked first touch of an MVCC writer keeps one).
const NO_PRE_IMAGE: GdiError = GdiError::NotFound("pre-image of an overwritten object");

#[cfg(test)]
mod tests {
    mod archive_undo;

    use super::*;
    use crate::config::GdaConfig;
    use crate::db::GdaDb;
    use gdi::{Datatype, EntityType, Multiplicity, SizeType};
    use rma::CostModel;

    /// A read-only transaction — pinned or collective, on local and
    /// remote ids, through every reader — answers from bytes and puts
    /// nothing into the decoded cache (module docs).
    #[test]
    fn read_only_transactions_cache_nothing() {
        let (db, fabric) = GdaDb::with_fabric("ro", GdaConfig::tiny(), 2, CostModel::zero());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let ids = (ctx.rank() == 0).then(|| {
                let tag = eng.create_label("Tag").unwrap();
                let (int, single, fixed) =
                    (Datatype::Uint64, Multiplicity::Single, SizeType::Fixed);
                let p = eng
                    .create_ptype("p", int, EntityType::VertexEdge, single, fixed, 1)
                    .unwrap();
                let tx = eng.begin(AccessMode::ReadWrite);
                let [a, b] = [1, 2].map(|i| tx.create_vertex(AppVertexId(i)).unwrap());
                tx.add_label(a, tag).unwrap();
                tx.add_property(b, p, &PropertyValue::U64(7)).unwrap();
                let e = tx.add_edge(a, b, Some(tag), true).unwrap();
                tx.set_edge_property(e, p, &PropertyValue::U64(9)).unwrap();
                tx.commit().unwrap();
                (tag.0, p.0)
            });
            let (tag, p) = ctx.bcast(0, ids);
            let (tag, p) = (LabelId(tag), PTypeId(p));
            eng.refresh_meta();
            let any = EdgeOrientation::Any;
            let readers = [
                eng.begin(AccessMode::ReadOnly),
                eng.begin_collective(AccessMode::ReadOnly),
            ];
            for tx in readers {
                let [a, b] = [1, 2].map(|i| tx.translate_vertex_id(AppVertexId(i)).unwrap());
                assert_ne!(a.rank(), b.rank(), "one local id, one remote");
                for v in [a, b] {
                    tx.associate_vertex(v).unwrap();
                    assert_eq!(tx.has_label(v, tag).unwrap(), v == a);
                    assert_eq!(tx.edge_count(v, any).unwrap(), 1);
                    let nbrs = tx.neighbors_matching(v, any, None, &Constraint::any());
                    assert_eq!(nbrs.unwrap().len(), 1);
                }
                assert_eq!(tx.property(b, p).unwrap(), Some(PropertyValue::U64(7)));
                // a read nested in another's closure leaves the buffers
                // naming the chain they hold
                let nested = tx.with_entries(a, |_| tx.property(b, p).unwrap());
                assert_eq!(nested.unwrap(), Some(PropertyValue::U64(7)));
                assert_eq!(tx.property(b, p).unwrap(), Some(PropertyValue::U64(7)));
                let e = tx.edges(a, EdgeOrientation::Outgoing).unwrap()[0];
                assert_eq!(tx.edge_endpoints(e).unwrap(), (a, b));
                assert_eq!(tx.edge_labels(e).unwrap(), vec![tag]);
                assert_eq!(tx.edge_ptypes(e).unwrap(), vec![p]);
                assert_eq!(tx.edge_property(e, p).unwrap(), Some(PropertyValue::U64(9)));
                assert!(tx.cache.borrow().is_empty(), "rank {}", ctx.rank());
                tx.commit().unwrap();
            }
        });
    }

    /// Translation is one DHT lookup and nothing else: translating a
    /// vertex whose DHT entry sits on the other rank costs the same
    /// remote traffic every time, and no remote atomic — the bucket head
    /// is a word-atomic `get`, like the entries after it.
    #[test]
    fn translation_is_one_dht_lookup() {
        let cfg = GdaConfig::tiny();
        let (db, fabric) =
            GdaDb::with_fabric_on("xlate", cfg, 2, CostModel::default(), rma::BackendKind::Sim);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            if ctx.rank() == 0 {
                let app = (1..)
                    .map(AppVertexId)
                    .find(|a| crate::rankmap::dht_rank(a.0, 2) == 1)
                    .unwrap();
                let tx = eng.begin(AccessMode::ReadWrite);
                let v = tx.create_vertex(app).unwrap();
                tx.commit().unwrap();

                let tx = eng.begin(AccessMode::ReadOnly);
                let traffic = |s: &rma::RankReport| (s.atomics, s.gets);
                let before = traffic(&ctx.stats_snapshot());
                assert_eq!(tx.translate_vertex_id(app).unwrap(), v);
                let first = traffic(&ctx.stats_snapshot());
                assert_eq!(tx.translate_vertex_id(app).unwrap(), v);
                let second = traffic(&ctx.stats_snapshot());
                tx.commit().unwrap();

                let cost1 = (first.0 - before.0, first.1 - before.1);
                let cost2 = (second.0 - first.0, second.1 - first.1);
                assert_eq!(cost1, cost2, "(atomics, gets) of two translations");
                assert_eq!(cost1, (0, 2), "two remote gets: the bucket head, the entry");
            }
            ctx.barrier();
        });
    }
}
