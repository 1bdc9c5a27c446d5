//! Crash recovery: one replay, whatever the live rank count.
//!
//! [`recover_with_topology`] boots the published snapshot chain —
//! written by `P` ranks — on `Q` live ranks; `None` is `Q = P`, the
//! identity [`RankMap`]. It is one collective call, like an MPI
//! routine: when it returns, every rank of the new fabric has restored
//! its share and the recovery is committed, or it has failed everywhere.
//! Either way it runs the same two halves:
//!
//! 1. **Logical reconstruction** ([`plan`], single-threaded, before the
//!    fabric exists): read every `P` shard's base image and redo history
//!    — the chain's sealed segments, then the live log, through the one
//!    log reader `PersistStore::read_log` — with the base image's records
//!    going straight into the object map ([`seed_objects`]: one record
//!    per live holder chain, as the full checkpoint's `hio::walk_live`
//!    visited it, and the image's postings seed index membership), then
//!    replay the logs against that object map under [`ReplayOrder`]:
//!    deletes first, leaving identity-keyed tombstones; then puts in
//!    version order across all logs, refused at or before their object's
//!    tombstone and when a state at least as new is already live, a
//!    patch applied only to its object at exactly its base (a missing
//!    base is refused and counted). Patches apply here, in the
//!    snapshot's address space, so everything after sees whole holders.
//!    The result is one map `old primary → (app id, holder bytes, index
//!    membership)`, each object's owner under the live topology, and
//!    the live config: the snapshot's at
//!    `Q = P` (every object keeps its rank), grown to fit the data on
//!    `Q ≠ P` ranks (scale-in needs more blocks and DHT heap per rank).
//! 2. **Collective restore** (one `fabric.run` on the fresh fabric,
//!    inside [`recover_with_topology`]): each rank takes its own share
//!    of the plan by value — the objects it owns, in old-primary order —
//!    and allocates all their new primaries in one pass, publishing each
//!    into a dense old → new table (the sorted old primaries, one slot
//!    per object, written only by the object's owner). After one abort
//!    vote the table is complete and read-only: each rank moves its
//!    holders' bytes into the editor one at a time, rewrites their edge
//!    records through the table, writes the chain and drops the bytes,
//!    inserts its DHT entries and imports its index postings;
//!    then every commit-stamp counter is raised above the largest live
//!    version, and a full checkpoint commits the recovery.
//!
//! Every object gets a fresh primary from an ordinary allocation, and
//! every holder starts a fresh epoch-0 world without archives, so after
//! a recovery each rank's pool holds exactly its live holders' blocks;
//! no window image is ever built on the way.
//!
//! ## Failure semantics
//!
//! A recovery *commits only through its closing full checkpoint*. Until
//! that checkpoint publishes, `CURRENT` names the previous snapshot and
//! the redo logs are untouched (read-only, a torn tail included). The
//! old frames name the old addresses, so appending to those logs after
//! a logical rebuild would be unsound: any failure — an unreadable shard
//! or log, a sealed segment with a bad frame (only the live log may end
//! torn), a rank erroring mid-redistribution, a failed closing
//! checkpoint — is voted collectively (no barrier deadlocks) and
//! returned as [`recover_with_topology`]'s error, with the directory
//! exactly as it was, recoverable again at any topology.
//!
//! After the publish, each shard's reader cuts its live log to the valid
//! prefix it read. The checkpoint's own truncation is best-effort; were
//! it to fail, a torn tail would otherwise stay in front of every later
//! append and the next replay would stop there. A failed cut fails the
//! recovery: it has committed, but no database is returned, so nothing
//! serves until a second recovery (which cuts again) succeeds.

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rustc_hash::{FxHashMap, FxHashSet};

use gdi::{AppVertexId, GdiError, GdiResult};
use rma::{CostModel, Fabric};

use super::format::io_err;
use super::snapshot::read_rank_snapshot;
use super::{read_manifest, PersistOptions, PersistStore, RedoRecord};
use crate::config::{GdaConfig, WIN_SYSTEM};
use crate::db::{GdaDb, GdaRank};
use crate::dptr::DPtr;
use crate::faults;
use crate::hio;
use crate::holder::{apply_splice, Holder};
use crate::index::{IndexDef, IndexId, IndexShared, Posting};
use crate::meta::MetaStore;
use crate::rankmap::RankMap;

/// What one rank did during the restore [`recover_with_topology`] runs.
#[derive(Debug, Clone, Default)]
pub struct RankRecovery {
    /// This rank's id.
    pub rank: usize,
    /// The checkpoint id the recovery restored from (0 = genesis).
    pub snapshot_id: u64,
    /// Snapshot bytes of the shards this rank is the reader of (0 at
    /// genesis).
    pub snapshot_bytes: u64,
    /// Valid redo bytes — sealed segments and live log — of the shards
    /// this rank is the reader of.
    pub log_bytes: u64,
    /// Records in the redo histories of those shards.
    pub records: u64,
    /// Records the replay applied (newer than the state they met) —
    /// reported by rank 0 for all logs, 0 elsewhere.
    pub applied: u64,
    /// Records the replay skipped as stale (older than or equal to the
    /// state they met, or refused by a tombstone) — rank 0, all logs.
    pub skipped: u64,
    /// Patches refused because the history does not hold their base
    /// version (a log cut short in front of it) — rank 0, all logs.
    /// Never applied to another version.
    pub refused: u64,
    /// Records or references that could not be materialized (a splice
    /// that does not fit its base or makes no valid holder, an edge to
    /// an object that does not exist); should be zero.
    pub errors: u64,
    /// Objects this rank re-materialized (it owns them on the live
    /// topology).
    pub objects: u64,
    /// Holder bytes of those objects.
    pub holder_bytes: u64,
    /// Simulated seconds of restore on this rank.
    pub sim_restore_s: f64,
    /// Wall-clock seconds of restore on this rank.
    pub wall_restore_s: f64,
    /// Id of the full checkpoint that committed the recovery.
    pub final_checkpoint: u64,
    /// `Some(P)` when this restore resharded a `P`-rank snapshot onto a
    /// different live rank count (see [`recover_with_topology`]).
    pub resharded_from: Option<usize>,
}

/// The **replay-order rule** of [`plan`]: which record of an object is
/// the later state. Deletes replay in a first pass and leave tombstones
/// here; a put in the second pass consults its own identity's tombstone
/// to distinguish a genuinely later state from an older record of the
/// deleted object — which must never resurrect it — and is then
/// measured against whatever state its primary already holds.
#[derive(Default)]
struct ReplayOrder {
    /// Object identity `(primary, app_id, is_edge)` → `(version at
    /// delete, the log holding the delete, position in that log)`.
    tombstones: FxHashMap<(u64, u64, bool), (u64, usize, usize)>,
}

impl ReplayOrder {
    /// `(identity, version)` of the object state a record speaks of.
    fn key(rec: &RedoRecord) -> ((u64, u64, bool), u64) {
        match *rec {
            RedoRecord::Put {
                primary,
                app_id,
                is_edge,
                version,
                ..
            }
            | RedoRecord::Delete {
                primary,
                app_id,
                is_edge,
                version,
            } => ((primary, app_id, is_edge), version),
        }
    }

    /// The committed delete `rec`, found at position `seq` of log `log`,
    /// is a fact whatever state it meets: remember it.
    fn tombstone(&mut self, rec: &RedoRecord, log: usize, seq: usize) {
        let (id, version) = Self::key(rec);
        self.tombstones.insert(id, (version, log, seq));
    }

    /// May the put `rec` (position `seq` of log `log`) replay past its
    /// object's tombstone? Only when it is *later than the delete*: a
    /// later position in the same log, or a newer version from another
    /// log (a genuine recreate) — which then retires the tombstone.
    fn admits(&mut self, rec: &RedoRecord, log: usize, seq: usize) -> bool {
        let (id, version) = Self::key(rec);
        if let Some(&(t_ver, t_log, t_seq)) = self.tombstones.get(&id) {
            let later = if t_log == log {
                seq > t_seq
            } else {
                version > t_ver
            };
            if !later {
                return false;
            }
            self.tombstones.remove(&id);
        }
        true
    }

    /// Is the state found at `rec`'s primary — an object `(app_id,
    /// is_edge)` — the object `rec` speaks of, not another one (or stale
    /// bytes of one) at the same address?
    fn same_object(rec: &RedoRecord, app_id: u64, is_edge: bool) -> bool {
        let ((_, rec_app, rec_edge), _) = Self::key(rec);
        (rec_app, rec_edge) == (app_id, is_edge)
    }
}

/// What the logical replay did (global counts over all logs).
#[derive(Debug, Clone, Copy, Default)]
struct ReplayCounts {
    applied: u64,
    skipped: u64,
    refused: u64,
    errors: u64,
}

/// One snapshot shard's redo history as [`read_shards`] read it.
struct Shard {
    /// The shard's redo history.
    records: Vec<RedoRecord>,
    /// What the shard's reader reports.
    io: ShardIo,
}

/// Per snapshot shard: what its reader reports (and is charged for),
/// and the valid prefix of its live log (what the reader cuts it to).
#[derive(Debug, Clone, Copy, Default)]
struct ShardIo {
    snap_bytes: u64,
    log_bytes: u64,
    records: u64,
    live_log_bytes: u64,
}

/// Read every shard of the published `chain`, written by `nranks` ranks:
/// the committed objects of the chain's base ([`seed_objects`]) and each
/// shard's redo history.
fn read_shards(
    store: &PersistStore,
    chain: &[u64],
    nranks: usize,
) -> GdiResult<(FxHashMap<u64, LiveObject>, Vec<Shard>)> {
    let (objects, snap_bytes) = seed_objects(store, chain.first().copied(), nranks)?;
    let shards = (0..nranks)
        .map(|rank| {
            let (records, log_bytes, live_log_bytes) = store.read_log(rank, chain)?;
            let io = ShardIo {
                snap_bytes: snap_bytes[rank],
                log_bytes,
                records: records.len() as u64,
                live_log_bytes,
            };
            Ok(Shard { records, io })
        })
        .collect::<GdiResult<_>>()?;
    Ok((objects, shards))
}

/// One live object during reconstruction.
struct LiveObject {
    app_id: u64,
    is_edge: bool,
    version: u64,
    /// Serialized holder, still referencing snapshot-space `DPtr`s.
    bytes: Vec<u8>,
    /// Explicit indexes the object belongs to (vertices only).
    indexes: Vec<IndexId>,
}

/// The collective restore's input: the reconstructed logical state,
/// partitioned by owner under the live topology, and the dense old →
/// new table the restore resolves references through. Built by [`plan`]
/// and consumed by [`Restore::run`] inside
/// [`recover_with_topology`].
struct Restore {
    snapshot_id: u64,
    map: RankMap,
    /// Per live rank: the objects it owns as `(slot in old, object)`,
    /// in old-primary order. Each rank takes its own share by value.
    parts: Vec<Mutex<Vec<(usize, LiveObject)>>>,
    /// Every object's old primary (raw `DPtr` in the snapshot address
    /// space), sorted.
    old: Vec<u64>,
    /// `new[i]`: the new primary of the object at `old[i]`. Written only
    /// by the object's owner, read only after the allocation vote.
    new: Vec<AtomicU64>,
    replay: ReplayCounts,
    shards: Vec<ShardIo>,
    /// Largest holder version alive anywhere (snapshot or logs): every
    /// live rank's commit-stamp counter starts strictly above it.
    max_version: u64,
}

/// Index membership of a vertex with these labels, under these defs —
/// must agree exactly with `IndexShared::reindex_vertex`.
fn membership(defs: &[IndexDef], labels: &[gdi::LabelId]) -> Vec<IndexId> {
    defs.iter()
        .filter(|d| d.matches(labels))
        .map(|d| d.id)
        .collect()
}

fn corrupt(what: &str) -> GdiError {
    GdiError::Io(format!("recovery: {what}"))
}

/// Lift every committed object out of the snapshot files of the chain's
/// `base` (none at genesis): each shard's records straight into the
/// object map, then the postings onto the vertices they name. Refuses,
/// with a typed `Io` error, a record whose holder does not decode (or
/// is not exactly its record's length), a primary or vertex app id
/// recorded twice, and — once every shard is read, as an edge holder may
/// sit on another shard than the vertex naming it — a vertex's live
/// edge record whose `edge_holder` names no edge-holder record. Returns
/// the objects and each shard's snapshot bytes.
fn seed_objects(
    store: &PersistStore,
    base: Option<u64>,
    nranks: usize,
) -> GdiResult<(FxHashMap<u64, LiveObject>, Vec<u64>)> {
    let mut objects: FxHashMap<u64, LiveObject> = FxHashMap::default();
    let mut snap_bytes = vec![0; nranks];
    let Some(base) = base else {
        return Ok((objects, snap_bytes));
    };
    let mut apps = FxHashSet::default();
    let mut named = Vec::new();
    let mut postings = Vec::new();
    for (rank, bytes) in snap_bytes.iter_mut().enumerate() {
        let snap = read_rank_snapshot(store, base, rank, nranks, |primary, holder| {
            let scan = Holder::scan_edges(&holder)
                .filter(|_| Holder::peek_total_len(&holder) == holder.len())
                .ok_or_else(|| corrupt("a snapshot record holds no holder"))?;
            let (app_id, is_edge) = (scan.app_id, scan.is_edge);
            if !is_edge {
                if !apps.insert(app_id) {
                    return Err(corrupt("a vertex app id recorded twice"));
                }
                let holders = scan.live().map(|(_, r)| r.edge_holder);
                named.extend(holders.filter(|h| !h.is_null()).map(DPtr::raw));
            }
            let object = LiveObject {
                app_id,
                is_edge,
                version: hio::stamp_of(&holder),
                bytes: holder,
                indexes: Vec::new(),
            };
            match objects.insert(primary.raw(), object) {
                Some(_) => Err(corrupt("a primary recorded twice")),
                None => Ok(()),
            }
        })?;
        *bytes = snap.bytes;
        postings.push(snap.postings);
    }
    if !named
        .iter()
        .all(|h| objects.get(h).is_some_and(|o| o.is_edge))
    {
        return Err(corrupt("an edge record names no edge-holder record"));
    }
    // Index membership is *not* re-derived from labels for snapshot
    // residents: a vertex created before an index existed is not in it.
    // The postings are the authority.
    for (ix, ps) in postings.into_iter().flatten() {
        for p in ps {
            if let Some(o) = objects.get_mut(&p.vertex.raw()).filter(|o| !o.is_edge) {
                o.indexes.push(ix);
            }
        }
    }
    Ok((objects, snap_bytes))
}

/// Replay the redo tails (log `r` = snapshot shard `r`) against the
/// object map under [`ReplayOrder`]: every committed delete lands (or
/// tombstones) first, then every put — all logs' in one version order,
/// so each object's states follow each other as they were committed,
/// whichever rank logged them. A whole image replaces an older state; a
/// patch applies only to the object at exactly its base. A patch whose
/// base is older than the state it meets is stale (skipped); one whose
/// base the history does not hold — the object is missing, another one,
/// or older than the base — is refused and counted, never applied to
/// another version.
fn replay_logs(
    objects: &mut FxHashMap<u64, LiveObject>,
    logs: &[Vec<RedoRecord>],
    index_defs: &[IndexDef],
) -> ReplayCounts {
    let mut order = ReplayOrder::default();
    let mut replay = ReplayCounts::default();
    let mut puts = Vec::new();
    for (r, log) in logs.iter().enumerate() {
        for (seq, rec) in log.iter().enumerate() {
            let RedoRecord::Delete {
                primary, version, ..
            } = rec
            else {
                puts.push((ReplayOrder::key(rec).1, r, seq));
                continue;
            };
            order.tombstone(rec, r, seq);
            match objects.get(primary) {
                Some(cur)
                    if ReplayOrder::same_object(rec, cur.app_id, cur.is_edge)
                        && *version >= cur.version =>
                {
                    objects.remove(primary);
                    replay.applied += 1;
                }
                _ => replay.skipped += 1,
            }
        }
    }
    puts.sort_unstable();
    for (_, r, seq) in puts {
        let rec = &logs[r][seq];
        let RedoRecord::Put {
            primary,
            app_id,
            is_edge,
            version,
            base,
            splice,
        } = rec
        else {
            continue;
        };
        if !order.admits(rec, r, seq) {
            replay.skipped += 1;
            continue;
        }
        let cur = objects
            .get(primary)
            .filter(|cur| ReplayOrder::same_object(rec, cur.app_id, cur.is_edge));
        let from: &[u8] = match (base, cur) {
            // a state at least as new is live: replay is idempotent
            (_, Some(cur)) if cur.version >= *version => {
                replay.skipped += 1;
                continue;
            }
            // vacant, or stale bytes of a different (deleted) occupant:
            // a whole image is the authority
            (None, _) => &[],
            (Some(base), Some(cur)) if cur.version == *base => &cur.bytes,
            (Some(base), Some(cur)) if cur.version > *base => {
                replay.skipped += 1;
                continue;
            }
            (Some(_), _) => {
                replay.refused += 1;
                continue;
            }
        };
        let Some(bytes) = apply_splice(from, splice, *app_id, *is_edge, *version) else {
            replay.errors += 1;
            continue;
        };
        let indexes = match (*is_edge, Holder::scan_entries(&bytes)) {
            (false, Some(scan)) => membership(index_defs, &scan.labels().collect::<Vec<_>>()),
            _ => Vec::new(),
        };
        let object = LiveObject {
            app_id: *app_id,
            is_edge: *is_edge,
            version: *version,
            bytes,
            indexes,
        };
        objects.insert(*primary, object);
        replay.applied += 1;
    }
    replay
}

/// Build the logical state and its placement under `map`. Pure
/// computation over the objects and shards already read; no fabric
/// exists yet (the returned config decides its window sizes).
fn plan(
    snapshot_id: u64,
    snap_cfg: &GdaConfig,
    map: RankMap,
    index_defs: &[IndexDef],
    mut objects: FxHashMap<u64, LiveObject>,
    shards: Vec<Shard>,
) -> (GdaConfig, Restore) {
    let live_ranks = map.live_ranks();
    let (logs, io): (Vec<_>, Vec<_>) = shards.into_iter().map(|s| (s.records, s.io)).unzip();
    let replay = replay_logs(&mut objects, &logs, index_defs);
    let max_version = objects
        .values()
        .map(|o| o.version)
        .chain(logs.iter().flatten().map(|r| ReplayOrder::key(r).1))
        .max()
        .unwrap_or(0);
    drop(logs);

    // Vertices go to their round-robin owner. At the snapshot's own
    // topology an edge holder stays on its rank, so every object keeps
    // its owner; resharded, it follows its origin endpoint (the live
    // engine's locality rule: `ensure_edge_holder` allocates on the
    // base vertex's rank), with the old rank folded into the live space
    // as a fallback. Every placement is resolved first (edge anchors
    // need the vertex map), then the map is *drained* into the owners'
    // shares — holder payloads are moved, not cloned.
    let mut old: Vec<u64> = objects.keys().copied().collect();
    old.sort_unstable();
    let owners: Vec<usize> = old
        .iter()
        .map(|praw| {
            let obj = &objects[praw];
            if !obj.is_edge {
                map.vertex_owner(AppVertexId(obj.app_id))
            } else if map.is_identity() {
                DPtr::from_raw(*praw).rank()
            } else {
                Holder::scan_edges(&obj.bytes)
                    .and_then(|scan| scan.records().next().map(|e| e.target.raw()))
                    .and_then(|anchor| {
                        objects
                            .get(&anchor)
                            .filter(|o| !o.is_edge)
                            .map(|o| map.vertex_owner(AppVertexId(o.app_id)))
                    })
                    .unwrap_or(DPtr::from_raw(*praw).rank() % live_ranks)
            }
        })
        .collect();

    // At the snapshot's own rank count its config stands: every object
    // keeps its rank, the data fit there before, and the rebuild drops
    // every archive. Resharding moves data between ranks (scale-in
    // concentrates it on fewer): grow the per-rank block pool and DHT
    // heap where the exact per-rank demand (with 2x headroom for
    // post-recovery traffic) exceeds the snapshot's config. Never shrink
    // — the old config is the floor.
    let mut cfg = *snap_cfg;
    if !map.is_identity() {
        let mut blocks_per = vec![0usize; live_ranks];
        let mut heap_per = vec![0usize; live_ranks];
        for (praw, &owner) in old.iter().zip(&owners) {
            let obj = &objects[praw];
            blocks_per[owner] += hio::blocks_needed(snap_cfg, obj.bytes.len());
            if !obj.is_edge {
                heap_per[map.dht_rank(obj.app_id)] += 1;
            }
        }
        let need_blocks = blocks_per.iter().copied().max().unwrap_or(0);
        cfg.blocks_per_rank = cfg
            .blocks_per_rank
            .max(((need_blocks + 1) * 2).next_power_of_two());
        let need_heap = heap_per.iter().copied().max().unwrap_or(0);
        cfg.dht_heap_per_rank = cfg
            .dht_heap_per_rank
            .max(((need_heap + 1) * 2).next_power_of_two());
    }

    let mut parts: Vec<Vec<(usize, LiveObject)>> = (0..live_ranks).map(|_| Vec::new()).collect();
    for (slot, (praw, owner)) in old.iter().zip(owners).enumerate() {
        if let Some(obj) = objects.remove(praw) {
            parts[owner].push((slot, obj));
        }
    }
    let restore = Restore {
        snapshot_id,
        map,
        parts: parts.into_iter().map(Mutex::new).collect(),
        new: old.iter().map(|_| AtomicU64::new(0)).collect(),
        old,
        replay,
        shards: io,
        max_version,
    };
    (cfg, restore)
}

/// Collective abort vote: if any rank failed its phase, every rank
/// returns an error together (no unilateral early return may leave
/// peers deadlocked in a later barrier).
fn vote(ctx: &rma::RankCtx, my_err: Option<GdiError>) -> GdiResult<()> {
    if ctx.allreduce_any(my_err.is_some()) {
        Err(my_err.unwrap_or_else(peer_failed))
    } else {
        Ok(())
    }
}

/// What [`vote`] returns on a rank whose own phase went through.
fn peer_failed() -> GdiError {
    GdiError::Io("recovery failed on a peer rank".into())
}

impl Restore {
    /// The new primary of the object whose old primary is `old`, once
    /// the allocation vote has passed; `None` for a reference to no
    /// object of the plan.
    fn resolve(&self, old: u64) -> Option<u64> {
        let slot = self.old.binary_search(&old).ok()?;
        Some(self.new[slot].load(Ordering::Acquire))
    }

    /// Collective: rebuild this rank's share of the logical state on the
    /// fresh fabric and commit it with a full checkpoint (see the module
    /// docs). Every rank of the fabric runs it together, once.
    fn run(&self, eng: &GdaRank) -> GdiResult<RankRecovery> {
        let store = eng
            .persistence()
            .ok_or(GdiError::InvalidArgument("persistence not enabled"))?;
        let ctx = eng.ctx();
        let me = eng.rank();
        debug_assert_eq!(eng.nranks(), self.map.live_ranks());
        let mine = std::mem::take(&mut *self.parts[me].lock());
        let wall0 = Instant::now();
        let sim0 = ctx.now_ns();
        let mut out = RankRecovery {
            rank: me,
            snapshot_id: self.snapshot_id,
            resharded_from: (!self.map.is_identity()).then_some(self.map.snapshot_ranks()),
            ..Default::default()
        };

        // fresh storage substrate on the live topology
        eng.init_collective();

        // model this rank reading its snapshot shards and redo segments in
        // parallel with the other readers (device-speed sequential reads)
        for s in self.map.shards_for(me) {
            let io = self.shards[s];
            out.snapshot_bytes += io.snap_bytes;
            out.log_bytes += io.log_bytes;
            out.records += io.records;
        }
        ctx.charge_ns(
            ctx.cost_model()
                .log_write((out.snapshot_bytes + out.log_bytes) as usize),
        );
        if me == 0 {
            // the logical replay's global outcome, reported once
            out.applied = self.replay.applied;
            out.skipped = self.replay.skipped;
            out.refused = self.replay.refused;
            out.errors = self.replay.errors;
        }

        // ---- phase 1: every owned primary, in old-primary order -------
        let alloc = mine.iter().try_for_each(|&(slot, _)| {
            let dp = eng.bm.acquire(me)?;
            self.new[slot].store(dp.raw(), Ordering::Release);
            Ok(())
        });
        vote(ctx, alloc.err())?;

        // ---- phase 2: materialize (rewrite dptrs, write chains, DHT,
        // index postings) ---------------------------------------------
        // The table is complete and read-only from here.
        let mut my_err: Option<GdiError> = None;
        let mut postings: FxHashMap<IndexId, Vec<Posting>> = FxHashMap::default();
        for (slot, obj) in mine {
            // fault point: a rank errors mid-redistribution; the vote
            // below aborts the recovery everywhere
            if store
                .probe_fault(faults::RESHARD_REDISTRIBUTE, me)
                .is_some()
            {
                my_err = Some(GdiError::Io("injected reshard failure".into()));
                break;
            }
            let Some(mut h) = Holder::from_bytes(obj.bytes) else {
                out.errors += 1;
                continue;
            };
            // rewrite every embedded reference into the live address
            // space, record by record in place; an unresolvable reference
            // means the committed state was inconsistent — count it and
            // drop the record rather than leak a snapshot-space pointer
            // into live data
            let mut broken = 0u64;
            h.retain_edges(|rec| {
                for dp in [&mut rec.target, &mut rec.edge_holder] {
                    if dp.is_null() {
                        continue;
                    }
                    match self.resolve(dp.raw()) {
                        Some(n) => *dp = DPtr::from_raw(n),
                        None => {
                            broken += 1;
                            return false;
                        }
                    }
                }
                true
            });
            out.errors += broken;
            // re-materialized holders start a fresh epoch-0 world: the
            // old incarnation's version chain lives in snapshot address
            // space and the new fabric's watermark starts at zero, so
            // every object must be visible to every snapshot
            h.set_commit_epoch(0);
            h.set_prev(0);
            let new_primary = DPtr::from_raw(self.new[slot].load(Ordering::Acquire));
            let mut blocks = vec![new_primary];
            if let Err(e) = hio::write_chain(ctx, &eng.bm, h.bytes(), &mut blocks) {
                my_err = Some(e);
                break;
            }
            if !obj.is_edge {
                if let Err(e) = eng.dht.insert(obj.app_id, new_primary.raw()) {
                    my_err = Some(e);
                    break;
                }
                for ix in obj.indexes {
                    postings.entry(ix).or_default().push(Posting {
                        vertex: new_primary,
                        app_id: AppVertexId(obj.app_id),
                    });
                }
            }
            out.objects += 1;
            out.holder_bytes += h.bytes().len() as u64;
        }
        if my_err.is_none() {
            let mut parts: Vec<(IndexId, Vec<Posting>)> = postings.into_iter().collect();
            parts.sort_unstable_by_key(|(id, _)| *id);
            eng.indexes().import_rank(me, parts);
        }
        vote(ctx, my_err)?;

        // ---- phase 3: commit stamps -------------------------------------
        // every future commit must stamp strictly above anything alive
        let stamp_word = eng.cfg().stamp_word();
        if ctx.aget_u64(WIN_SYSTEM, me, stamp_word) < self.max_version {
            ctx.aput_u64(WIN_SYSTEM, me, stamp_word, self.max_version);
        }
        ctx.barrier();

        out.sim_restore_s = (ctx.now_ns() - sim0) / 1e9;
        out.wall_restore_s = wall0.elapsed().as_secs_f64();

        // ---- phase 4: the committing checkpoint -------------------------
        // A full rebase: a delta would chain the rebuilt windows onto the
        // old chain, whose addresses (and, resharded, whose rank count)
        // they no longer share. Its failure is the recovery's failure
        // (checkpoint errors are already collective).
        out.final_checkpoint = eng.checkpoint_full()?;

        // ---- phase 5: cut every live log read to its valid prefix ------
        // The published chain captures all of it; what lies past the
        // prefix (a torn or flipped frame, and anything behind it) was
        // not replayed and must not precede the next append.
        let cut = self
            .map
            .shards_for(me)
            .into_iter()
            .find_map(|s| store.cut_log(s, self.shards[s].live_log_bytes).err());
        vote(ctx, cut)?;
        Ok(out)
    }
}

/// Oracle for tests — collective, and the caller keeps the database
/// quiet: what a recovery would rebuild from the published chain is what
/// the database holds. Every rank reads the objects out of every shard's
/// base image and replays every redo history onto them, exactly as
/// [`recover_with_topology`] plans, then compares the objects whose
/// primary it stores with its live chains (the walk a full image writes): the same
/// set, each with the same identity and holder bytes — up to the MVCC
/// bookkeeping recovery resets (commit epoch, archive link, depth) —
/// and the same index membership. Archives, free blocks and the usage
/// and system windows are not compared: recovery reads none of them.
/// Returns the objects compared on this rank; a difference or an
/// unreadable chain fails every rank with an `Io` error naming the first
/// object that differs.
pub fn audit_image(eng: &GdaRank) -> GdiResult<u64> {
    let ctx = eng.ctx();
    ctx.quiesce();
    let mut live = FxHashMap::default();
    let walked = hio::walk_live(ctx, eng.cfg(), |c| {
        live.insert(c.primary.raw(), (c.app_id, c.is_edge, c.bytes.to_vec()));
    });
    let mine = walked.and_then(|()| audit_rank(eng, live));
    if ctx.allreduce_any(mine.is_err()) {
        return Err(mine
            .err()
            .unwrap_or_else(|| GdiError::Io("image audit failed on a peer rank".into())));
    }
    mine
}

/// [`audit_image`]'s comparison on one rank, against `live`: primary →
/// (app id, edge holder?, holder bytes) of every chain the rank stores.
fn audit_rank(eng: &GdaRank, mut live: FxHashMap<u64, (u64, bool, Vec<u8>)>) -> GdiResult<u64> {
    let me = eng.rank();
    let store = eng
        .persistence()
        .ok_or(GdiError::InvalidArgument("persistence not enabled"))?;
    let (mut objects, shards) = read_shards(&store, &store.chain(), eng.nranks())?;
    let logs: Vec<Vec<RedoRecord>> = shards.into_iter().map(|s| s.records).collect();
    replay_logs(&mut objects, &logs, &eng.indexes().export_defs().0);
    let mut postings: FxHashMap<u64, Vec<IndexId>> = FxHashMap::default();
    for (ix, ps) in eng.indexes().export_rank(me) {
        for p in ps {
            postings.entry(p.vertex.raw()).or_default().push(ix);
        }
    }
    // what recovery resets before it writes a holder back
    let rebuilt = |bytes: &[u8]| {
        Holder::from_bytes(bytes.to_vec()).map(|mut h| {
            h.set_commit_epoch(0);
            h.set_prev(0);
            h
        })
    };
    let differ = |what: &str, primary: u64| {
        Err(GdiError::Io(format!(
            "recovery would {what} object {:?} of rank {me}",
            DPtr::from_raw(primary)
        )))
    };
    let mut compared = 0u64;
    for (&primary, obj) in objects
        .iter()
        .filter(|(p, _)| DPtr::from_raw(**p).rank() == me)
    {
        let Some((app_id, is_edge, bytes)) = live.remove(&primary) else {
            return differ("resurrect", primary);
        };
        if (app_id, is_edge) != (obj.app_id, obj.is_edge) || rebuilt(&bytes) != rebuilt(&obj.bytes)
        {
            return differ("change", primary);
        }
        let mut want = postings.remove(&primary).unwrap_or_default();
        let mut got = obj.indexes.clone();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            return differ("re-index", primary);
        }
        compared += 1;
    }
    match live.keys().chain(postings.keys()).next() {
        Some(&primary) => differ("lose", primary),
        None => Ok(compared),
    }
}

/// Rebuild a database from its persistence directory onto `target_ranks
/// = Some(Q)` live ranks (`None`: the `P` ranks that wrote the
/// snapshot). Reads `CURRENT`, the manifest (catalog, index
/// definitions), every shard's base image and redo history, and builds
/// the logical state (see the module docs) — all before the fabric
/// exists; then builds the fabric and runs the collective restore on it
/// (one `fabric.run`). Returns the restored database, ready to serve,
/// its fabric and what each rank did, in rank order. At `Q = P` the
/// database keeps the snapshot's config; at `Q ≠ P` it is grown
/// automatically where `Q` ranks need more per-rank capacity than `P`
/// did (scale-in). A failure is voted on every rank and returned — the
/// failing rank's own error — with the directory exactly as it was
/// (see "Failure semantics" in the module docs).
pub fn recover_with_topology(
    opts: PersistOptions,
    cost: CostModel,
    target_ranks: Option<usize>,
) -> GdiResult<(Arc<GdaDb>, Fabric, Vec<RankRecovery>)> {
    let current = fs::read_to_string(opts.dir.join("CURRENT"))
        .map_err(|e| io_err("read CURRENT", e))?
        .trim()
        .parse::<u64>()
        .map_err(|_| GdiError::Io("corrupt CURRENT pointer".into()))?;
    let manifest = read_manifest(&opts, current)?;
    let snapshot_ranks = manifest.nranks;
    let live_ranks = target_ranks.unwrap_or(snapshot_ranks);
    if live_ranks == 0 || live_ranks > u16::MAX as usize {
        return Err(GdiError::InvalidArgument(
            "target rank count must be in 1..=65535",
        ));
    }
    if snapshot_ranks == 0 || snapshot_ranks > u16::MAX as usize {
        return Err(GdiError::Io("manifest rank count out of range".into()));
    }

    let backend = opts.backend;
    let store = PersistStore::new(opts, live_ranks, current, manifest.chain.clone());
    let (objects, shards) = read_shards(&store, &manifest.chain, snapshot_ranks)?;
    let map = RankMap::resharded(snapshot_ranks, live_ranks);
    let defs = &manifest.index_defs;
    let (cfg, restore) = plan(current, &manifest.cfg, map, defs, objects, shards);

    let meta = MetaStore::from_parts(manifest.meta);
    let indexes = IndexShared::from_parts(live_ranks, manifest.index_defs, manifest.index_next_id);
    let db = GdaDb::restore(&manifest.name, cfg, live_ranks, meta, indexes);
    let faults_plane = store.fault_plane().clone();
    db.set_persistence(store);
    // the booted fabric shares the store's fault plane, so one arming
    // call covers fabric latency points and persistence I/O points
    let fabric = db
        .cfg
        .build_fabric_shared(live_ranks, cost, backend, Some(faults_plane));
    let results = fabric.run(|ctx| restore.run(&db.attach(ctx)));
    drop(restore);
    // every rank fails together; return the error of a rank that failed
    // its own phase rather than a peer's echo of it
    let mut stats = Vec::with_capacity(live_ranks);
    let mut failed: Option<GdiError> = None;
    for r in results {
        match r {
            Ok(rec) => stats.push(rec),
            Err(e) if failed.as_ref().is_none_or(|f| *f == peer_failed()) => failed = Some(e),
            Err(_) => {}
        }
    }
    match failed {
        Some(e) => Err(e),
        None => Ok((db, fabric, stats)),
    }
}

/// [`seed_objects`] of the chain base `base`, written by `nranks` ranks:
/// the primaries it lifts, sorted, or its refusal.
#[cfg(test)]
pub(super) fn seed_alone(store: &PersistStore, base: u64, nranks: usize) -> GdiResult<Vec<u64>> {
    let (objects, _) = seed_objects(store, Some(base), nranks)?;
    let mut primaries: Vec<u64> = objects.into_keys().collect();
    primaries.sort_unstable();
    Ok(primaries)
}

/// Replayed objects: primary → (version, holder bytes).
#[cfg(test)]
type Replayed = FxHashMap<u64, (u64, Vec<u8>)>;

/// [`replay_logs`] onto an empty object map, without index
/// definitions: the objects it leaves and its `[applied, skipped,
/// refused, errors]` counts.
#[cfg(test)]
pub(super) fn replay_alone(logs: &[Vec<RedoRecord>]) -> (Replayed, [u64; 4]) {
    let mut objects = FxHashMap::default();
    let c = replay_logs(&mut objects, logs, &[]);
    let objects = objects
        .into_iter()
        .map(|(primary, o)| (primary, (o.version, o.bytes)))
        .collect();
    (objects, [c.applied, c.skipped, c.refused, c.errors])
}
