//! Background maintenance: collective, quiesced passes that keep a
//! long-running database's storage bounded and its published
//! checkpoints trustworthy. Runnable between server drain cycles
//! (`server::GdiServer` schedules them) or directly via
//! [`crate::db::GdaRank::maintenance`].
//!
//! One pass runs four sub-passes, in order:
//!
//! 1. **MVCC version vacuum** — the commit path truncates an archive
//!    chain only when the chain *grows past* [`crate::MVCC_CHAIN_LIMIT`]
//!    ([`crate::tx`]), so a hot object's garbage is bounded but a
//!    **cold** object — overwritten a few times, then never again —
//!    keeps its archives forever. The vacuum sweeps every chain of the
//!    live set this rank stores (`hio::walk_live`, the walk a full
//!    checkpoint writes) and frees all archived versions no pinned
//!    snapshot can still resolve to (strictly below the global snapshot
//!    floor), patching the live holder's recorded depth and `prev` **in
//!    place** (two aligned word writes; no version bump — the seqlock
//!    stamp is unchanged and both words flip atomically, so a racing
//!    pinned reader sees either the old or the new link, never a torn
//!    one). Every truncation *seals* the cut by zeroing the last kept
//!    archive's `prev` (`seal_chain_tail`), so no later walk follows
//!    a freed link into reused space.
//! 2. **Free-list vacuum** — rebuild the rank's block free list in
//!    ascending order ([`crate::blocks::BlockManager::vacuum_free_list`])
//!    so subsequent allocation packs live data at the front of the
//!    window.
//! 3. **Holder-chain compaction** — relocate multi-block holders'
//!    *continuation* blocks (never the primary: it is the object's
//!    identity) to lower-numbered free blocks. Logical content is
//!    unchanged, so no redo record is written, and none is needed:
//!    recovery replays holders by primary into freshly allocated
//!    chains, so the layout a compaction leaves is never read back —
//!    the next full image walks the moved chain, every earlier image
//!    and segment still yields the same holder bytes.
//! 4. **Checksum verification** — re-read every file of the published
//!    snapshot chain — the base image, the manifests and the sealed redo
//!    segments — and validate its checksums ([`crate::persist`]),
//!    surfacing silent corruption *before* the next recovery depends on
//!    the file.
//!
//! The pass requires quiescence: no transaction may be open anywhere
//! except **pinned read-only snapshots** — those never write back
//! cached holder state (which would resurrect a vacuumed `prev`) and
//! their pins hold the snapshot floor down, which the vacuum respects.

use gdi::{GdiError, GdiResult};
use rma::{Counter, RankCtx};

use crate::config::{GdaConfig, WIN_DATA};
use crate::db::GdaRank;
use crate::dptr::DPtr;
use crate::hio::{self, BLOCK_PAYLOAD_OFFSET};
use crate::holder::{Archive, Holder, DEPTH_MASK, FLAGS_WORD_OFFSET, PREV_OFFSET};

/// What one collective maintenance pass did, globally (every field is
/// an allreduced sum; identical on every rank).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// The snapshot floor the vacuum ran against (0 when the vacuum
    /// was skipped because a pin was mid-registration).
    pub floor: u64,
    /// Objects whose archive chain the vacuum touched.
    pub vacuumed_objects: u64,
    /// Archived versions freed by the vacuum.
    pub vacuumed_versions: u64,
    /// Blocks returned to the free lists by the vacuum.
    pub vacuumed_blocks: u64,
    /// Free blocks across all ranks after the free-list vacuum.
    pub free_blocks: u64,
    /// Holder chains whose continuation blocks were relocated.
    pub compacted_chains: u64,
    /// Continuation blocks moved to lower addresses.
    pub compacted_blocks: u64,
    /// Snapshot-chain bytes re-read and checksum-verified.
    pub verified_bytes: u64,
    /// Checksum/readability failures found in the published chain.
    pub verify_errors: u64,
}

/// Trim the archive chain at `head`, walking newest → oldest: with a
/// snapshot `floor`, keep every version with `commit_epoch > floor`
/// **plus the first with epoch ≤ floor** (the version every snapshot ≥
/// floor resolves to), free the strictly older rest — then **seal the
/// cut**: the last kept archive's `prev` still names the first freed
/// block, so it is zeroed in place (archives never change otherwise, so
/// no reader can tear on it). An unsealed cut is a dangling pointer into
/// freed — eventually reused — space, and every later walk of this
/// chain (a pinned reader, the vacuum, the delete path) would need to
/// *guess* where the chain ends. With no `floor` the whole chain is
/// freed. The one trim behind the commit path ([`crate::tx`]: the chain
/// limit, and a deleted object's archives) and the vacuum; the caller
/// holds the object's write lock or runs quiesced, so the chain cannot
/// change underneath.
///
/// `live` bounds the walk to the holder's recorded archive depth,
/// defence in depth against a chain whose seal never made it to the
/// window (a crash between the frees and the word write): walking by
/// pointers alone could double-free or cycle. Returns `(archives kept,
/// versions freed, blocks freed)`.
pub(crate) fn trim_archives(
    eng: &GdaRank,
    head: u64,
    floor: Option<u64>,
    live: usize,
) -> (usize, u64, u64) {
    let (mut kept, mut versions, mut blocks_freed) = (0usize, 0u64, 0u64);
    let mut cut = floor.is_none();
    let mut tail: Option<DPtr> = None;
    let mut cur = head;
    let mut seen = 0usize;
    while cur != 0 && seen < live {
        seen += 1;
        let dp = DPtr::from_raw(cur);
        let Ok((bytes, blocks)) = hio::read_chain(eng.ctx(), eng.cfg(), dp) else {
            break;
        };
        let Some(a) = Archive::parse(&bytes) else {
            break;
        };
        if cut {
            hio::free_chain(&eng.bm, &blocks);
            versions += 1;
            blocks_freed += blocks.len() as u64;
        } else {
            kept += 1;
            if floor.is_some_and(|f| a.commit_epoch <= f) {
                cut = true;
                tail = Some(dp);
            }
        }
        cur = a.prev;
    }
    if let (true, Some(dp)) = (versions > 0, tail) {
        seal_chain_tail(eng.ctx(), dp);
    }
    (kept, versions, blocks_freed)
}

/// Seal a truncated archive chain: zero the `prev` field of the last
/// kept archive, in place (one aligned word write into the archive's
/// primary block — `prev` sits entirely inside the first block's
/// payload, after the 48-byte header start).
fn seal_chain_tail(ctx: &RankCtx, dp: DPtr) {
    let at = dp.offset() as usize + BLOCK_PAYLOAD_OFFSET + PREV_OFFSET;
    debug_assert!(at.is_multiple_of(8), "prev is an aligned word");
    ctx.put_bytes(WIN_DATA, dp.rank(), at, &0u64.to_le_bytes());
    ctx.flush(dp.rank());
}

/// Patch a live holder's archive bookkeeping in place: rewrite the
/// depth bits inside the flags word and (when `prev` is given) the
/// `prev` pointer, without touching the seqlock stamp or the version.
/// Safe against concurrent pinned readers: each write is one aligned
/// word, and any old/new combination of the two words yields a valid
/// (possibly shorter) walk — see the module docs.
fn patch_live_holder(ctx: &RankCtx, id: DPtr, depth: u8, prev: Option<u64>) {
    let base = id.offset() as usize + BLOCK_PAYLOAD_OFFSET;
    let fw = (base + FLAGS_WORD_OFFSET) / 8;
    let word = ctx.get_u64(WIN_DATA, id.rank(), fw);
    let flags = ((word >> 32) as u32 & !DEPTH_MASK) | ((depth as u32) << 16);
    ctx.put_u64(
        WIN_DATA,
        id.rank(),
        fw,
        (word & 0xFFFF_FFFF) | ((flags as u64) << 32),
    );
    if let Some(p) = prev {
        let pw = (base + PREV_OFFSET) / 8;
        ctx.put_u64(WIN_DATA, id.rank(), pw, p);
    }
    ctx.flush(id.rank());
}

/// Vacuum one object's archive chain against `floor`. Returns
/// `(versions_freed, blocks_freed)`; `(0, 0)` when nothing was
/// reclaimable.
fn vacuum_object(eng: &GdaRank, id: DPtr, h: &Holder, floor: u64) -> (u64, u64) {
    if h.prev == 0 || h.depth == 0 {
        return (0, 0);
    }
    // a live version at or below the floor is what every snapshot ≥
    // floor resolves to: the whole archive chain is unreachable garbage.
    // Above it, keep every archive a pinned snapshot could still need.
    let whole = h.commit_epoch <= floor;
    let (kept, versions, blocks) =
        trim_archives(eng, h.prev, (!whole).then_some(floor), h.depth as usize);
    if whole {
        patch_live_holder(eng.ctx(), id, 0, Some(0));
    } else if versions > 0 {
        patch_live_holder(eng.ctx(), id, kept.min(u8::MAX as usize) as u8, None);
    }
    (versions, blocks)
}

/// Relocate the continuation blocks of one holder chain to
/// lower-numbered blocks when the free list offers them. Returns the
/// number of blocks moved (0 = chain untouched).
fn compact_chain(eng: &GdaRank, bytes: &[u8], blocks: &[DPtr]) -> u64 {
    if blocks.len() < 2 {
        return 0;
    }
    let bm = &eng.bm;
    let me = blocks[0].rank();
    let mut newb = blocks.to_vec();
    let mut replaced = Vec::new();
    for slot in newb.iter_mut().skip(1) {
        let Ok(cand) = bm.acquire(me) else {
            break;
        };
        if cand.offset() < slot.offset() {
            replaced.push(std::mem::replace(slot, cand));
        } else {
            bm.release(cand);
        }
    }
    if replaced.is_empty() {
        return 0;
    }
    if hio::write_chain(eng.ctx(), bm, bytes, &mut newb).is_err() {
        // write_chain errs only acquiring blocks, before it writes one
        // (and the chain never grows here): the old layout stands, and
        // every block the new one holds that the old does not — the
        // candidates swapped in — goes back to the pool
        for (i, dp) in newb.iter().enumerate() {
            if blocks.get(i) != Some(dp) {
                bm.release(*dp);
            }
        }
        return 0;
    }
    let moved = replaced.len() as u64;
    // old continuation blocks go back to the pool only after the new
    // chain is fully published
    for dp in replaced {
        bm.release(dp);
    }
    moved
}

/// Collective: one full maintenance pass (see the module docs for the
/// four sub-passes and the quiescence requirement). Every rank must
/// call this together; returns the globally aggregated report.
pub(crate) fn maintenance_rank(eng: &GdaRank) -> GdiResult<MaintenanceReport> {
    let ctx = eng.ctx();
    let cfg: &GdaConfig = eng.cfg();
    let me = eng.rank();
    ctx.quiesce();

    // -- agree on the vacuum floor ------------------------------------
    // A pin mid-registration (snap word 0) makes the floor unknowable;
    // skip the vacuum for this pass rather than guess. All ranks must
    // agree — a pin can finish registering between two ranks' reads.
    let local_floor = eng.snapshot_floor();
    let skip_vacuum = ctx.allreduce_any(local_floor.is_none());
    let floor = if skip_vacuum {
        0
    } else {
        ctx.allreduce_min_u64(local_floor.unwrap_or(u64::MAX))
    };

    // -- pass 1: MVCC version vacuum ----------------------------------
    // Over the live set — every chain this rank stores that the DHT
    // names, directly or through a heavyweight edge record — the walk a
    // full checkpoint writes: an unreadable chain fails the pass on
    // every rank.
    let mut vacuumed_objects = 0u64;
    let mut vacuumed_versions = 0u64;
    let mut vacuumed_blocks = 0u64;
    // multi-block chains, as (highest block offset, primary): the
    // compaction candidates
    let mut chains: Vec<(u64, DPtr)> = Vec::new();
    let walked = hio::walk_live(ctx, cfg, |c| {
        if c.blocks.len() > 1 {
            let top = c.blocks.iter().map(|b| b.offset()).max().unwrap_or(0);
            chains.push((top, c.primary));
        }
        if skip_vacuum {
            return;
        }
        // (the walk validated the holder as `try_decode` does)
        let Some(h) = Holder::try_decode(c.bytes) else {
            return;
        };
        let (v, b) = vacuum_object(eng, c.primary, &h, floor);
        if v > 0 {
            vacuumed_objects += 1;
            vacuumed_versions += v;
            vacuumed_blocks += b;
        }
    });
    if ctx.allreduce_any(walked.is_err()) {
        return Err(walked
            .err()
            .unwrap_or_else(|| GdiError::Io("maintenance failed on a peer rank".into())));
    }

    // -- pass 2: free-list vacuum -------------------------------------
    // Before compaction, so `acquire` below hands out the lowest free
    // blocks first.
    let free_blocks = eng.bm.vacuum_free_list(me) as u64;

    // -- pass 3: holder-chain compaction ------------------------------
    // Largest offsets first: draining the high end of the window first
    // maximizes how far the live data packs down in one pass.
    let mut compacted_chains = 0u64;
    let mut compacted_blocks = 0u64;
    chains.sort_unstable_by_key(|&(top, _)| std::cmp::Reverse(top));
    for &(_, primary) in &chains {
        // read the chain now, not during the vacuum sweep: the vacuum
        // patched `depth`/`prev` of the holders it touched in place, and
        // rewriting a pre-vacuum image would resurrect the link to the
        // archives it just freed (the next pass would free them again)
        let Ok((bytes, blocks)) = hio::read_chain(ctx, cfg, primary) else {
            continue;
        };
        let moved = compact_chain(eng, &bytes, &blocks);
        if moved > 0 {
            compacted_chains += 1;
            compacted_blocks += moved;
        }
    }

    // -- pass 4: checksum verification of the published chain ---------
    let (verified_bytes, verify_errors) = match eng.persistence() {
        Some(store) => store.verify_chain(me),
        None => (0, 0),
    };
    for (c, n) in [
        (Counter::VacuumedVersions, vacuumed_versions),
        (Counter::CompactedChains, compacted_chains),
        (Counter::CompactedBlocks, compacted_blocks),
        (Counter::VerifiedBytes, verified_bytes),
        (Counter::VerifyErrors, verify_errors),
        (Counter::MaintenancePasses, 1),
    ] {
        ctx.count(c, n);
    }
    ctx.barrier();
    Ok(MaintenanceReport {
        floor,
        vacuumed_objects: ctx.allreduce_sum_u64(vacuumed_objects),
        vacuumed_versions: ctx.allreduce_sum_u64(vacuumed_versions),
        vacuumed_blocks: ctx.allreduce_sum_u64(vacuumed_blocks),
        free_blocks: ctx.allreduce_sum_u64(free_blocks),
        compacted_chains: ctx.allreduce_sum_u64(compacted_chains),
        compacted_blocks: ctx.allreduce_sum_u64(compacted_blocks),
        verified_bytes: ctx.allreduce_sum_u64(verified_bytes),
        verify_errors: ctx.allreduce_sum_u64(verify_errors),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::GdaDb;
    use crate::persist::{recover, PersistOptions};
    use gdi::{
        AccessMode, AppVertexId, Datatype, EntityType, Multiplicity, PTypeId, PropertyValue,
        SizeType,
    };
    use rma::CostModel;

    fn prop_bytes(n: usize) -> PropertyValue {
        PropertyValue::Bytes(vec![7u8; n])
    }

    /// Register the unlimited-size byte property the tests write.
    fn blob_ptype(eng: &GdaRank) -> PTypeId {
        eng.create_ptype(
            "blob",
            Datatype::Byte,
            EntityType::Vertex,
            Multiplicity::Single,
            SizeType::NoLimit,
            0,
        )
        .unwrap()
    }

    /// The bug family this PR fixes, end to end: cold objects
    /// overwritten a few times leak archives forever (the commit path
    /// truncates only chains that *grow* past the limit); the vacuum
    /// reclaims them down to the snapshot floor, and pool accounting
    /// proves it.
    #[test]
    fn vacuum_reclaims_cold_archives() {
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("vac", cfg, 2, CostModel::zero());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let blob = if ctx.rank() == 0 {
                Some(blob_ptype(&eng))
            } else {
                None
            };
            let blob = PTypeId(ctx.allreduce_max_u64(blob.map(|p| p.0 as u64).unwrap_or(0)) as u32);
            eng.refresh_meta();
            let owner = if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                let v = tx.create_vertex(AppVertexId(1)).unwrap();
                tx.commit().unwrap();
                // three overwrites: depth 3, below MVCC_CHAIN_LIMIT
                // (4), so the commit path never truncates — the chain
                // is leaked garbage once the watermark moves past it
                for i in 0..3u64 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                    tx.update_property(v, blob, &prop_bytes(8 + i as usize))
                        .unwrap();
                    tx.commit().unwrap();
                }
                v.rank()
            } else {
                0
            };
            let owner = ctx.allreduce_max_u64(owner as u64) as usize;
            let before = eng.bm.count_free(owner);
            let rep = eng.maintenance().unwrap();
            assert_eq!(rep.vacuumed_objects, 1, "{rep:?}");
            assert_eq!(rep.vacuumed_versions, 3, "{rep:?}");
            assert!(rep.vacuumed_blocks >= 3);
            assert_eq!(
                eng.bm.count_free(owner),
                before + rep.vacuumed_blocks as usize,
                "every freed archive block is back in the pool"
            );
            // the patched holder reads back clean and live
            eng.refresh_meta();
            let tx = eng.begin(AccessMode::ReadOnly);
            let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
            assert_eq!(
                tx.property(v, blob).unwrap(),
                Some(prop_bytes(10)),
                "live version intact after vacuum"
            );
            tx.commit().unwrap();
            // a second pass finds nothing: the vacuum converges
            let rep2 = eng.maintenance().unwrap();
            assert_eq!(rep2.vacuumed_versions, 0, "{rep2:?}");
            // ... and a delete after the vacuum drains the pool fully
            // (the in-place patch kept depth == surviving archives, so
            // the delete path double-frees nothing)
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                tx.delete_vertex(v).unwrap();
                tx.commit().unwrap();
            }
            ctx.barrier();
            assert_eq!(eng.bm.count_free(0), cfg.blocks_per_rank);
            assert_eq!(eng.bm.count_free(1), cfg.blocks_per_rank);
        });
    }

    /// A pinned snapshot reader holds the floor down: the vacuum must
    /// keep every version the pin can still resolve to, and reclaim
    /// the rest only after the pin is gone. The reader's bounded walk
    /// never decodes a freed block while racing the vacuum.
    #[test]
    fn vacuum_respects_pinned_snapshots() {
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("vacpin", cfg, 1, CostModel::zero());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let blob = blob_ptype(&eng);
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.create_vertex(AppVertexId(1)).unwrap();
            tx.update_property(v, blob, &prop_bytes(8)).unwrap();
            tx.commit().unwrap();
            // a local read-only transaction under MVCC pins the
            // watermark at begin; overwrite twice behind the pin
            let pinned = eng.begin(AccessMode::ReadOnly);
            assert!(pinned.snapshot_epoch().is_some());
            for i in 1..3usize {
                let tx = eng.begin(AccessMode::ReadWrite);
                let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                tx.update_property(v, blob, &prop_bytes(8 + i)).unwrap();
                tx.commit().unwrap();
            }
            let rep = eng.maintenance().unwrap();
            // the pinned version must survive the vacuum; only
            // archives strictly below the pin's resolution point go
            let v = pinned.translate_vertex_id(AppVertexId(1)).unwrap();
            assert_eq!(
                pinned.property(v, blob).unwrap(),
                Some(prop_bytes(8)),
                "pin reads its snapshot across a vacuum"
            );
            pinned.commit().unwrap();
            // pin released: the next pass reclaims the remaining chain
            let rep2 = eng.maintenance().unwrap();
            assert!(
                rep.vacuumed_versions + rep2.vacuumed_versions >= 2,
                "{rep:?} then {rep2:?}"
            );
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
            tx.delete_vertex(v).unwrap();
            tx.commit().unwrap();
            assert_eq!(eng.bm.count_free(0), cfg.blocks_per_rank);
        });
    }

    /// A pass that both vacuums a multi-block holder's archives and
    /// compacts its chain must rewrite the holder *as the vacuum left
    /// it*: compacting from the pre-vacuum image would resurrect the
    /// `prev` link to blocks the same pass just freed, and the next
    /// pass would free them again ("free-list cycle during vacuum").
    #[test]
    fn vacuumed_holders_compact_from_their_patched_image() {
        let cfg = GdaConfig {
            blocks_per_rank: 1024,
            ..GdaConfig::tiny()
        };
        let (db, fabric) = GdaDb::with_fabric("vac-compact", cfg, 1, CostModel::zero());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let tx = eng.begin(AccessMode::ReadWrite);
            for a in 1..=40u64 {
                tx.create_vertex(AppVertexId(a)).unwrap();
            }
            tx.commit().unwrap();
            for pass in 0..3u64 {
                // every commit archives vertex 1's previous version and
                // grows its holder across more blocks
                for i in 0..13u64 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let hub = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                    let to = tx
                        .translate_vertex_id(AppVertexId(2 + pass * 13 + i))
                        .unwrap();
                    tx.add_edge(hub, to, None, true).unwrap();
                    tx.commit().unwrap();
                }
                let rep = eng.maintenance().unwrap();
                assert!(rep.vacuumed_versions >= 1, "{rep:?}");
            }
            // deleting everything drains the pool exactly: no block was
            // freed twice, none leaked
            let tx = eng.begin(AccessMode::ReadWrite);
            for a in 1..=40u64 {
                let v = tx.translate_vertex_id(AppVertexId(a)).unwrap();
                tx.delete_vertex(v).unwrap();
            }
            tx.commit().unwrap();
            assert_eq!(eng.bm.count_free(0), cfg.blocks_per_rank);
        });
    }

    /// Compaction migrates continuation blocks downwards after churn
    /// opens holes at the front of the window, and the relocated
    /// chains stay readable (and recoverable).
    #[test]
    fn compaction_packs_continuation_blocks() {
        let td_base = std::env::temp_dir().join(format!("gda-maint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&td_base);
        let cfg = GdaConfig::tiny();
        {
            let (db, fabric) = GdaDb::with_fabric("cmp", cfg, 1, CostModel::zero());
            db.enable_persistence(PersistOptions::new(&td_base))
                .unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let blob = blob_ptype(&eng);
                // small vertices filling the front of the window...
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in 0..30u64 {
                    tx.create_vertex(AppVertexId(i)).unwrap();
                }
                tx.commit().unwrap();
                // ...then a fat multi-block vertex allocated above them
                let tx = eng.begin(AccessMode::ReadWrite);
                let v = tx.create_vertex(AppVertexId(1000)).unwrap();
                tx.update_property(v, blob, &prop_bytes(300)).unwrap();
                tx.commit().unwrap();
                // churn: delete the small vertices, opening holes below
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in 0..30u64 {
                    let v = tx.translate_vertex_id(AppVertexId(i)).unwrap();
                    tx.delete_vertex(v).unwrap();
                }
                tx.commit().unwrap();
                let rep = eng.maintenance().unwrap();
                assert!(rep.compacted_chains >= 1, "{rep:?}");
                assert!(rep.compacted_blocks >= 1, "{rep:?}");
                // the fat vertex survived the move
                let tx = eng.begin(AccessMode::ReadOnly);
                let v = tx.translate_vertex_id(AppVertexId(1000)).unwrap();
                assert_eq!(tx.property(v, blob).unwrap(), Some(prop_bytes(300)));
                tx.commit().unwrap();
                // converged: a second pass moves nothing further
                let rep2 = eng.maintenance().unwrap();
                assert_eq!(rep2.compacted_blocks, 0, "{rep2:?}");
                eng.checkpoint().unwrap();
            });
        }
        // the compacted layout recovers
        let (db, fabric, plan) = recover(PersistOptions::new(&td_base), CostModel::zero()).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = plan.restore_rank(&eng).unwrap();
            assert_eq!(rec.errors, 0, "{rec:?}");
            let tx = eng.begin(AccessMode::ReadOnly);
            let v = tx.translate_vertex_id(AppVertexId(1000)).unwrap();
            let blob = PTypeId(3);
            assert_eq!(tx.property(v, blob).unwrap(), Some(prop_bytes(300)));
            tx.commit().unwrap();
        });
        let _ = std::fs::remove_dir_all(&td_base);
    }

    /// The verifier walks the published chain and reports corruption
    /// without failing the pass.
    #[test]
    fn verifier_flags_corrupted_snapshot_files() {
        let td_base = std::env::temp_dir().join(format!("gda-verify-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&td_base);
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("vfy", cfg, 1, CostModel::zero());
        db.enable_persistence(PersistOptions::new(&td_base))
            .unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let tx = eng.begin(AccessMode::ReadWrite);
            tx.create_vertex(AppVertexId(1)).unwrap();
            tx.commit().unwrap();
            eng.checkpoint().unwrap();
            let rep = eng.maintenance().unwrap();
            assert!(rep.verified_bytes > 0, "{rep:?}");
            assert_eq!(rep.verify_errors, 0, "{rep:?}");
            // flip one byte mid-file: the next pass must notice
            let snap = td_base.join("ckpt-1").join("rank-0.snap");
            let mut bytes = std::fs::read(&snap).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&snap, &bytes).unwrap();
            let rep = eng.maintenance().unwrap();
            assert!(rep.verify_errors > 0, "{rep:?}");
        });
        let _ = std::fs::remove_dir_all(&td_base);
    }
}
