//! Elastic resharded recovery: restore a `P`-rank snapshot onto `Q`
//! live ranks (`Q ≠ P`).
//!
//! A same-topology recovery (`crate::persist`) is *physical*: window
//! bytes are put back verbatim and the redo tails replay against them,
//! because every persisted `DPtr` is still a valid address. Under a
//! different rank count nothing survives verbatim — vertex ownership
//! (`app mod P` → `app mod Q`), DHT placement (`h(k) mod P` →
//! `h(k) mod Q`), block addresses, index partitions and every `DPtr`
//! embedded in holder bytes all change meaning. Resharding therefore
//! runs in two halves:
//!
//! 1. **Logical reconstruction** ([`plan`], single-threaded, before the
//!    live fabric exists): lift the committed state out of the `P`
//!    snapshot images ([`crate::dht::decode_partition`] enumerates the
//!    vertices, [`crate::hio::read_chain_bytes`] lifts the holder
//!    chains, snapshot postings seed index membership), then replay the
//!    `P` redo logs **logically** against that object map with exactly
//!    the same ordering rules the physical replay uses — deletes first
//!    with identity-keyed tombstones, then upserts in log order, refused
//!    at or below their object's tombstone, cross-log ties broken by the
//!    commit-stamp versions. The result is one map `old primary →
//!    (app id, version, holder bytes, index membership)` plus the
//!    ownership decisions of the new topology (a [`RankMap`]) and a
//!    live config grown to fit the data on `Q` ranks (scale-in needs
//!    more blocks and DHT heap per rank).
//! 2. **Collective redistribution** ([`restore_rank_resharded`], every
//!    rank of the fresh `Q`-rank fabric): phase-by-phase with abort
//!    votes between phases — allocate every object's new primary on its
//!    new owner rank (filling the shared old→new remap table), then
//!    materialize: rewrite each holder's edge records through the remap
//!    table, write the chains, insert DHT entries under the new
//!    placement (quiet inserts + one collective epoch bump, the bulk-
//!    load discipline), import the index postings, raise every commit-
//!    stamp counter above the largest live version, and finish with a
//!    **mandatory** fresh checkpoint at the `Q` topology.
//!
//! ## Failure semantics
//!
//! A reshard *commits only through its closing checkpoint*: until that
//! checkpoint publishes, `CURRENT` still names the `P`-topology
//! snapshot, and the `P` redo segments are untouched (read-only). Any
//! mid-reshard failure — a receiving rank erroring during
//! redistribution, a corrupt shard, a failed closing checkpoint — is
//! voted collectively (no barrier deadlocks), surfaces on every rank,
//! and leaves the previous snapshot fully recoverable at the original
//! topology.

use parking_lot::RwLock;
use rustc_hash::FxHashMap;

use gdi::{AppVertexId, GdiError, GdiResult};

use crate::config::{GdaConfig, WIN_SYSTEM};
use crate::db::GdaRank;
use crate::dht::decode_partition;
use crate::dptr::DPtr;
use crate::hio;
use crate::holder::Holder;
use crate::index::{IndexDef, IndexId, Posting};
use crate::persist::{PersistStore, RankRecovery, RankSnapshot, RedoRecord, ReplayOrder};
use crate::rankmap::RankMap;

/// What the logical replay did (global counts over all `P` logs).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReplayCounts {
    pub applied: u64,
    pub skipped: u64,
    pub errors: u64,
}

/// One object of the reconstructed logical state, with its placement
/// decision under the live topology.
#[derive(Debug)]
struct ReshardObject {
    /// Raw `DPtr` of the primary block in the snapshot address space.
    old_primary: u64,
    /// Owner rank under the live topology (allocates + materializes it).
    new_rank: usize,
    app_id: u64,
    is_edge: bool,
    /// Serialized holder (version embedded), still referencing
    /// snapshot-space `DPtr`s.
    bytes: Vec<u8>,
    /// Explicit indexes the object belongs to (vertices only).
    indexes: Vec<IndexId>,
}

/// The reconstructed state plus everything the collective
/// redistribution needs. Built by [`plan`], carried inside the
/// [`crate::persist::RecoveryPlan`] of a resharded recovery.
pub(crate) struct ReshardState {
    /// snapshot-rank → live-rank → ownership map.
    pub(crate) map: RankMap,
    /// The live config: the snapshot's config, grown where `Q` ranks
    /// need more per-rank capacity than `P` did (scale-in).
    pub(crate) cfg: GdaConfig,
    objects: Vec<ReshardObject>,
    /// old primary raw → new primary raw; written in the allocation
    /// phases, read-only (shared read guards, no copies) during
    /// materialization.
    remap: RwLock<FxHashMap<u64, u64>>,
    pub(crate) replay: ReplayCounts,
    /// Redo records parsed per snapshot shard (attributed to each
    /// shard's reader for reporting).
    log_records: Vec<u64>,
    /// Snapshot bytes per shard (reporting + parallel-read cost model).
    snap_bytes: Vec<u64>,
    /// Redo-log bytes per shard.
    log_bytes: Vec<u64>,
    /// Largest holder version alive anywhere (snapshot or logs): every
    /// live rank's commit-stamp counter starts strictly above it.
    max_version: u64,
}

impl std::fmt::Debug for ReshardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReshardState")
            .field("map", &self.map)
            .field("objects", &self.objects.len())
            .finish()
    }
}

impl ReshardState {
    /// Number of logical objects to redistribute (diagnostics/tests).
    pub(crate) fn object_count(&self) -> usize {
        self.objects.len()
    }
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
    GdiError::Io(format!("reshard: {what}"))
}

/// Build the logical state and the redistribution plan. Pure
/// computation over the already-read snapshot images and parsed logs;
/// no fabric exists yet (the returned config decides its window sizes).
pub(crate) fn plan(
    snap_cfg: &GdaConfig,
    map: RankMap,
    index_defs: &[IndexDef],
    snapshots: &[Option<RankSnapshot>],
    logs: &[Vec<RedoRecord>],
    snap_bytes: Vec<u64>,
    log_bytes: Vec<u64>,
) -> GdiResult<ReshardState> {
    let (snapshot_ranks, live_ranks) = (map.snapshot_ranks(), map.live_ranks());
    assert!(live_ranks >= 1 && live_ranks <= u16::MAX as usize);

    /// One live object during reconstruction.
    struct LObj {
        app_id: u64,
        is_edge: bool,
        version: u64,
        bytes: Vec<u8>,
        indexes: Vec<IndexId>,
    }
    let mut objects: FxHashMap<u64, LObj> = FxHashMap::default();

    // ---- seed from the snapshot images ------------------------------
    // Index membership is *not* re-derived from labels for snapshot
    // residents: a vertex created before an index existed is not in it,
    // and the physical restore preserves that by importing postings
    // verbatim. Same here.
    let mut member: FxHashMap<u64, Vec<IndexId>> = FxHashMap::default();
    for snap in snapshots.iter().flatten() {
        for (ix, ps) in &snap.postings {
            for p in ps {
                member.entry(p.vertex.raw()).or_default().push(*ix);
            }
        }
    }
    let data_of = |rank: usize| -> GdiResult<&[u8]> {
        snapshots
            .get(rank)
            .and_then(|s| s.as_ref())
            .map(|s| s.windows[0].as_slice())
            .ok_or_else(|| corrupt("holder chain points at a missing shard"))
    };
    // vertices, enumerated through the DHT partitions
    let mut edge_holders: Vec<u64> = Vec::new();
    for snap in snapshots.iter().flatten() {
        for (app, praw) in decode_partition(snap_cfg, &snap.windows[3]) {
            let primary = DPtr::from_raw(praw);
            let (bytes, _) = hio::read_chain_bytes(snap_cfg, data_of(primary.rank())?, primary)
                .ok_or_else(|| corrupt("unreadable vertex chain in snapshot"))?;
            let h = Holder::try_decode(&bytes)
                .ok_or_else(|| corrupt("undecodable vertex holder in snapshot"))?;
            if h.app_id != app || h.is_edge {
                return Err(corrupt("DHT entry does not match its holder"));
            }
            for (_, rec) in h.live_edges() {
                if !rec.edge_holder.is_null() {
                    edge_holders.push(rec.edge_holder.raw());
                }
            }
            objects.insert(
                praw,
                LObj {
                    app_id: app,
                    is_edge: false,
                    version: h.version,
                    bytes,
                    indexes: member.get(&praw).cloned().unwrap_or_default(),
                },
            );
        }
    }
    // heavyweight edge holders, discovered through their endpoints'
    // records (both mirrors reference the same holder — dedup)
    for praw in edge_holders {
        if objects.contains_key(&praw) {
            continue;
        }
        let primary = DPtr::from_raw(praw);
        let (bytes, _) = hio::read_chain_bytes(snap_cfg, data_of(primary.rank())?, primary)
            .ok_or_else(|| corrupt("unreadable edge-holder chain in snapshot"))?;
        let h = Holder::try_decode(&bytes)
            .ok_or_else(|| corrupt("undecodable edge holder in snapshot"))?;
        if !h.is_edge {
            return Err(corrupt("edge record points at a non-edge holder"));
        }
        objects.insert(
            praw,
            LObj {
                app_id: h.app_id,
                is_edge: true,
                version: h.version,
                bytes,
                indexes: Vec::new(),
            },
        );
    }

    // ---- logical redo replay ----------------------------------------
    // The physical `apply_record` path's ordering, by the same
    // `ReplayOrder`: all committed deletes land (or tombstone) first;
    // then upserts in log order, refused at or before their object's
    // tombstone, and refused when an already-live state of the same
    // object is at least as new.
    let mut order = ReplayOrder::default();
    let mut replay = ReplayCounts::default();
    for (r, log) in logs.iter().enumerate() {
        for (seq, rec) in log.iter().enumerate() {
            if let RedoRecord::Delete { primary, .. } = rec {
                order.tombstone(rec, r, seq);
                match objects.get(primary) {
                    Some(cur)
                        if ReplayOrder::same_object(rec, cur.app_id, cur.is_edge)
                            && ReplayOrder::supersedes(rec, cur.version) =>
                    {
                        objects.remove(primary);
                        replay.applied += 1;
                    }
                    _ => replay.skipped += 1,
                }
            }
        }
    }
    let mut log_records = vec![0u64; snapshot_ranks];
    for (r, log) in logs.iter().enumerate() {
        log_records[r] = log.len() as u64;
        for (seq, rec) in log.iter().enumerate() {
            let RedoRecord::Upsert {
                primary,
                app_id,
                is_edge,
                version,
                bytes,
            } = rec
            else {
                continue;
            };
            if !order.admits(rec, r, seq) {
                replay.skipped += 1;
                continue;
            }
            let Some(h) = Holder::try_decode(bytes) else {
                replay.errors += 1;
                continue;
            };
            let indexes = if *is_edge {
                Vec::new()
            } else {
                membership(index_defs, &h.labels())
            };
            match objects.get_mut(primary) {
                Some(cur) if ReplayOrder::same_object(rec, cur.app_id, cur.is_edge) => {
                    if !ReplayOrder::supersedes(rec, cur.version) {
                        replay.skipped += 1;
                    } else {
                        cur.version = *version;
                        cur.bytes = bytes.clone();
                        cur.indexes = indexes;
                        replay.applied += 1;
                    }
                }
                _ => {
                    // vacant, or stale bytes of a different (deleted)
                    // occupant: the record is the authority
                    objects.insert(
                        *primary,
                        LObj {
                            app_id: *app_id,
                            is_edge: *is_edge,
                            version: *version,
                            bytes: bytes.clone(),
                            indexes,
                        },
                    );
                    replay.applied += 1;
                }
            }
        }
    }

    // ---- placement under the live topology --------------------------
    // Vertices go to their round-robin owner. An edge holder follows
    // its origin endpoint (same locality rule the live engine uses:
    // `ensure_edge_holder` allocates on the base vertex's rank), with
    // the old rank folded into the live space as a fallback.
    let max_version = objects
        .values()
        .map(|o| o.version)
        .chain(logs.iter().flatten().map(|r| match r {
            RedoRecord::Upsert { version, .. } | RedoRecord::Delete { version, .. } => *version,
        }))
        .max()
        .unwrap_or(0);
    // resolve every placement first (edge anchors need the vertex map),
    // then *drain* the object map into the plan — holder payloads are
    // moved, not cloned, so peak memory stays one copy of the database
    let new_ranks: FxHashMap<u64, usize> = objects
        .iter()
        .map(|(&praw, obj)| {
            let rank = if obj.is_edge {
                Holder::try_decode(&obj.bytes)
                    .and_then(|h| h.edges.first().map(|e| e.target.raw()))
                    .and_then(|anchor| {
                        objects
                            .get(&anchor)
                            .filter(|o| !o.is_edge)
                            .map(|o| map.vertex_owner(AppVertexId(o.app_id)))
                    })
                    .unwrap_or(DPtr::from_raw(praw).rank() % live_ranks)
            } else {
                map.vertex_owner(AppVertexId(obj.app_id))
            };
            (praw, rank)
        })
        .collect();
    let mut planned: Vec<ReshardObject> = objects
        .into_iter()
        .map(|(praw, obj)| ReshardObject {
            old_primary: praw,
            new_rank: new_ranks[&praw],
            app_id: obj.app_id,
            is_edge: obj.is_edge,
            bytes: obj.bytes,
            indexes: obj.indexes,
        })
        .collect();
    // deterministic materialization order regardless of hash-map order
    planned.sort_unstable_by_key(|o| o.old_primary);

    // ---- size the live config ---------------------------------------
    // Scale-in concentrates the same data on fewer ranks: grow the
    // per-rank block pool and DHT heap where the exact per-rank demand
    // (with 2x headroom for post-reshard traffic) exceeds the
    // snapshot's config. Never shrink — the old config is the floor.
    let mut blocks_per = vec![0usize; live_ranks];
    let mut heap_per = vec![0usize; live_ranks];
    for obj in &planned {
        blocks_per[obj.new_rank] += hio::blocks_needed(snap_cfg, obj.bytes.len());
        if !obj.is_edge {
            heap_per[map.dht_rank(obj.app_id)] += 1;
        }
    }
    let mut cfg = *snap_cfg;
    let need_blocks = blocks_per.iter().copied().max().unwrap_or(0);
    cfg.blocks_per_rank = cfg
        .blocks_per_rank
        .max(((need_blocks + 1) * 2).next_power_of_two());
    let need_heap = heap_per.iter().copied().max().unwrap_or(0);
    cfg.dht_heap_per_rank = cfg
        .dht_heap_per_rank
        .max(((need_heap + 1) * 2).next_power_of_two());

    Ok(ReshardState {
        map,
        cfg,
        objects: planned,
        remap: RwLock::new(FxHashMap::default()),
        replay,
        log_records,
        snap_bytes,
        log_bytes,
        max_version,
    })
}

/// Collective abort vote: if any rank failed its phase, every rank
/// returns an error together (no unilateral early return may leave
/// peers deadlocked in a later barrier).
fn vote(ctx: &rma::RankCtx, my_err: Option<GdiError>) -> GdiResult<()> {
    if ctx.allreduce_any(my_err.is_some()) {
        Err(my_err.unwrap_or_else(|| GdiError::Io("reshard failed on a peer rank".into())))
    } else {
        Ok(())
    }
}

/// The collective redistribution body behind
/// [`crate::persist::RecoveryPlan::restore_rank`] when the plan carries
/// a [`ReshardState`]. Every rank of the `Q`-rank fabric runs it once,
/// together.
pub(crate) fn restore_rank_resharded(
    rs: &ReshardState,
    eng: &GdaRank,
    store: &PersistStore,
) -> GdiResult<RankRecovery> {
    let ctx = eng.ctx();
    let me = eng.rank();
    debug_assert_eq!(eng.nranks(), rs.map.live_ranks());
    let wall0 = std::time::Instant::now();
    let sim0 = ctx.now_ns();
    let mut out = RankRecovery {
        rank: me,
        resharded_from: Some(rs.map.snapshot_ranks()),
        ..Default::default()
    };

    // fresh storage substrate on the live topology
    eng.init_collective();

    // model this rank reading its snapshot shards and redo segments in
    // parallel with the other readers (device-speed sequential reads)
    let mut in_snap = 0u64;
    let mut in_log = 0u64;
    for s in rs.map.shards_for(me) {
        in_snap += rs.snap_bytes[s];
        in_log += rs.log_bytes[s];
        out.records += rs.log_records[s];
    }
    ctx.charge_ns(ctx.cost_model().log_write((in_snap + in_log) as usize));
    out.snapshot_bytes = in_snap;
    out.log_bytes = in_log;
    if me == 0 {
        // the logical replay's global outcome, reported once
        out.applied = rs.replay.applied;
        out.skipped = rs.replay.skipped;
        out.errors = rs.replay.errors;
    }

    // ---- phase 1: allocate vertex primaries on their new owners -----
    let mut my_err: Option<GdiError> = None;
    for obj in &rs.objects {
        if obj.is_edge || obj.new_rank != me {
            continue;
        }
        match eng.bm.acquire(me) {
            Ok(dp) => {
                rs.remap.write().insert(obj.old_primary, dp.raw());
            }
            Err(e) => {
                my_err = Some(e);
                break;
            }
        }
    }
    vote(ctx, my_err.take())?;

    // ---- phase 2: allocate edge-holder primaries --------------------
    for obj in &rs.objects {
        if !obj.is_edge || obj.new_rank != me {
            continue;
        }
        match eng.bm.acquire(me) {
            Ok(dp) => {
                rs.remap.write().insert(obj.old_primary, dp.raw());
            }
            Err(e) => {
                my_err = Some(e);
                break;
            }
        }
    }
    vote(ctx, my_err.take())?;

    // ---- phase 3: materialize (rewrite dptrs, write chains, DHT,
    // index postings) -------------------------------------------------
    // The remap table is complete and read-only from here: every rank
    // holds a shared read guard for the whole phase (no copies, no
    // serialization on the lock).
    let remap = rs.remap.read();
    let mut moved = 0u64;
    let mut moved_bytes = 0u64;
    let mut postings: FxHashMap<IndexId, Vec<Posting>> = FxHashMap::default();
    for obj in &rs.objects {
        if obj.new_rank != me {
            continue;
        }
        // fault point: a receiving rank errors mid-redistribution; the
        // vote below aborts the reshard everywhere
        if store
            .probe_fault(crate::faults::RESHARD_REDISTRIBUTE, me)
            .is_some()
        {
            my_err = Some(GdiError::Io("injected reshard failure".into()));
            break;
        }
        let Some(mut h) = Holder::try_decode(&obj.bytes) else {
            out.errors += 1;
            continue;
        };
        // rewrite every embedded reference into the live address space;
        // an unresolvable reference means the committed state was
        // inconsistent — count it and drop the record rather than leak
        // a snapshot-space pointer into live data
        let mut broken = 0u64;
        h.edges.retain_mut(|rec| {
            if !rec.target.is_null() {
                match remap.get(&rec.target.raw()) {
                    Some(&n) => rec.target = DPtr::from_raw(n),
                    None => {
                        broken += 1;
                        return false;
                    }
                }
            }
            if !rec.edge_holder.is_null() {
                match remap.get(&rec.edge_holder.raw()) {
                    Some(&n) => rec.edge_holder = DPtr::from_raw(n),
                    None => {
                        broken += 1;
                        return false;
                    }
                }
            }
            true
        });
        out.errors += broken;
        // re-materialized holders start a fresh epoch-0 world: the old
        // incarnation's version chain lives in snapshot address space
        // (unresolvable here) and the new fabric's watermark restarts
        // at zero, so every object must be visible to every snapshot
        h.commit_epoch = 0;
        h.prev = 0;
        h.depth = 0;
        let bytes = h.encode();
        let new_primary = DPtr::from_raw(remap[&obj.old_primary]);
        let mut blocks = vec![new_primary];
        if let Err(e) = hio::write_chain(ctx, &eng.bm, &bytes, &mut blocks) {
            my_err = Some(e);
            break;
        }
        if !obj.is_edge {
            // bulk-load discipline: quiet inserts now, one collective
            // epoch bump afterwards (no reader exists yet)
            if let Err(e) = eng.dht.insert_quiet(obj.app_id, new_primary.raw()) {
                my_err = Some(e);
                break;
            }
            for ix in &obj.indexes {
                postings.entry(*ix).or_default().push(Posting {
                    vertex: new_primary,
                    app_id: AppVertexId(obj.app_id),
                });
            }
        }
        moved += 1;
        moved_bytes += bytes.len() as u64;
    }
    if my_err.is_none() {
        let mut parts: Vec<(IndexId, Vec<Posting>)> = postings.into_iter().collect();
        parts.sort_unstable_by_key(|(id, _)| *id);
        eng.indexes().import_rank(me, parts);
    }
    ctx.record_reshard(moved, moved_bytes);
    vote(ctx, my_err.take())?;

    // ---- phase 4: epochs + commit stamps ----------------------------
    eng.dht.bump_own_insert_epoch();
    // every future commit must stamp strictly above anything alive
    let stamp_word = eng.cfg().stamp_word();
    let cur = ctx.aget_u64(WIN_SYSTEM, me, stamp_word);
    if cur < rs.max_version {
        ctx.aput_u64(WIN_SYSTEM, me, stamp_word, rs.max_version);
    }
    ctx.barrier();

    out.sim_restore_s = (ctx.now_ns() - sim0) / 1e9;
    out.wall_restore_s = wall0.elapsed().as_secs_f64();

    // ---- phase 5: the committing checkpoint -------------------------
    // Unlike a same-topology recovery (where a failed end-of-recovery
    // checkpoint is tolerable — the old snapshot + still-valid logs
    // cover the state), a reshard is durable *only* through this
    // publish: until it lands, `CURRENT` names the P-topology snapshot,
    // and post-reshard commits would be stranded on a topology the
    // pointer does not describe. A failure is therefore a recovery
    // failure (checkpoint errors are already collective).
    // Always a full rebase: a delta here would chain the Q-topology
    // windows onto the P-topology chain, which no later recovery could
    // read (the shard identity — rank count — changed underneath it).
    out.final_checkpoint = Some(eng.checkpoint_full()?);
    Ok(out)
}
