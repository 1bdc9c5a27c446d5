//! Background maintenance: collective, quiesced passes that keep a
//! long-running database's storage bounded and its published
//! checkpoints trustworthy. Runnable between server drain cycles
//! (`server::GdiServer` schedules them) or directly via
//! [`crate::db::GdaRank::maintenance`].
//!
//! One pass runs four sub-passes, in order:
//!
//! 1. **MVCC version vacuum** — every rank drains its retire list (the
//!    blocks of the archive records its commits wrote, each tagged with
//!    the committing epoch) down to the snapshot floor all ranks agree
//!    on (`GdaRank::reclaim_archives`, the reclaim a commit runs once
//!    its list has grown). A record freed here was written at an epoch
//!    at or below every pinned snapshot, so no reader follows a `prev`
//!    to it any more; a cold object's archives come back without the
//!    object being written again.
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
//! except **pinned read-only snapshots** — their pins hold the snapshot
//! floor down, which the vacuum respects.

use gdi::{GdiError, GdiResult};
use rma::Counter;

use crate::config::GdaConfig;
use crate::db::GdaRank;
use crate::dptr::DPtr;
use crate::hio;

/// What one collective maintenance pass did, globally (every field is
/// an allreduced sum; identical on every rank).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// The snapshot floor the vacuum ran against (0 when the vacuum
    /// was skipped because a pin was mid-registration).
    pub floor: u64,
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
    // This rank's retire list, to the agreed floor: its blocks may live
    // on any rank, so the vote below also orders every free before the
    // free-list vacuum.
    let (vacuumed_versions, vacuumed_blocks) = if skip_vacuum {
        (0, 0)
    } else {
        eng.reclaim_archives(floor)
    };
    // multi-block chains of the live set this rank stores, as (highest
    // block offset, primary): the compaction candidates. An unreadable
    // chain fails the pass on every rank.
    let mut chains: Vec<(u64, DPtr)> = Vec::new();
    let walked = hio::walk_live(ctx, cfg, |c| {
        if c.blocks.len() > 1 {
            let top = c.blocks.iter().map(|b| b.offset()).max().unwrap_or(0);
            chains.push((top, c.primary));
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

    /// A cold object — overwritten a few times, then never again — gets
    /// its archives back without being written again: the commits left
    /// them on the retire list (it was not yet long enough to reclaim),
    /// the pass drains it to the snapshot floor, and pool accounting
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
                // three overwrites: a list of at most P + 1 entries is
                // never reclaimed at commit
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
            assert_eq!(rep.vacuumed_versions, 3, "{rep:?}");
            assert!(rep.vacuumed_blocks >= 3);
            assert_eq!(
                eng.bm.count_free(owner),
                before + rep.vacuumed_blocks as usize,
                "every freed archive block is back in the pool"
            );
            // the live version reads back; its `prev` dangles, unread
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

    /// A pinned snapshot reader holds the floor down: no retire-list
    /// entry above the pin is freed — not by the reclaims of the commits
    /// behind it, not by a pass — and the pin reads its version
    /// throughout; the pass after it unpins frees them all.
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
            // watermark at begin; overwrite six times behind the pin
            let pinned = eng.begin(AccessMode::ReadOnly);
            assert!(pinned.snapshot_epoch().is_some());
            let truncations = ctx.stats_snapshot().chain_truncations;
            for i in 1..=6usize {
                let tx = eng.begin(AccessMode::ReadWrite);
                let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
                tx.update_property(v, blob, &prop_bytes(8 + i)).unwrap();
                tx.commit().unwrap();
            }
            assert_eq!(eng.retired_blocks().len(), 6, "the commits kept all");
            assert_eq!(ctx.stats_snapshot().chain_truncations, truncations);
            let rep = eng.maintenance().unwrap();
            assert_eq!(rep.vacuumed_versions, 0, "{rep:?}");
            assert_eq!(eng.retired_blocks().len(), 6, "the pass kept all");
            let v = pinned.translate_vertex_id(AppVertexId(1)).unwrap();
            assert_eq!(
                pinned.property(v, blob).unwrap(),
                Some(prop_bytes(8)),
                "pin reads its snapshot across a vacuum"
            );
            pinned.commit().unwrap();
            // pin released: the next pass reclaims them all
            let rep = eng.maintenance().unwrap();
            assert_eq!(rep.vacuumed_versions, 6, "{rep:?}");
            assert!(eng.retired_blocks().is_empty());
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
            tx.delete_vertex(v).unwrap();
            tx.commit().unwrap();
            assert_eq!(eng.bm.count_free(0), cfg.blocks_per_rank);
        });
    }

    /// Passes that each reclaim a growing multi-block holder's archives
    /// and compact its chain free no block twice and leak none: deleting
    /// everything afterwards drains the pool exactly.
    #[test]
    fn reclaiming_and_compacting_in_one_pass_frees_no_block_twice() {
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
