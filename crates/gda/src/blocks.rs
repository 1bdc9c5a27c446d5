//! BGDL block management (§5.5).
//!
//! The Blocked Graph Data Layout divides each rank's data window into
//! fixed-size blocks. `acquire_block` / `release_block` are the two basic
//! operations; both are **lock-free** and fully one-sided, following the
//! paper's protocol:
//!
//! *acquire*: (1) `AGET` the tagged free-list head from the system window;
//! (2) `GET` the next-free link of the head block from the usage window;
//! (3) `CAS` the head from the observed value to `(tag+1, next)` — success
//! means no other process raced us, failure restarts at (2) with the value
//! returned by the CAS.
//!
//! The 16-bit tag in the head implements the *tagged pointer* ABA
//! mitigation the paper prescribes: without it, a concurrent
//! release-acquire pair reinstating the same head block would let a stale
//! CAS succeed and corrupt the free list.

use gdi::{GdiError, GdiResult};
use rma::RankCtx;

use crate::config::{GdaConfig, WIN_SYSTEM, WIN_USAGE};
use crate::dptr::{DPtr, TaggedIdx};

/// Word index of the free-list head in the system window.
const HEAD_WORD: usize = 0;

/// Block-pool view bound to a rank context.
pub(crate) struct BlockManager<'c, 'f> {
    ctx: &'c RankCtx<'f>,
    cfg: GdaConfig,
}

impl<'c, 'f> BlockManager<'c, 'f> {
    /// Bind a block-pool view to a rank context.
    pub(crate) fn new(ctx: &'c RankCtx<'f>, cfg: GdaConfig) -> Self {
        Self { ctx, cfg }
    }

    /// Block size in bytes.
    #[inline]
    pub(crate) fn block_size(&self) -> usize {
        self.cfg.block_size
    }

    /// Collective: initialize this rank's free list (blocks `1..=N` linked
    /// in order, block 0 reserved as the null block). Must be called by
    /// every rank before any block traffic; ends with a barrier.
    pub(crate) fn init_collective(&self) {
        let me = self.ctx.rank();
        let n = self.cfg.blocks_per_rank;
        for i in 1..=n {
            let next = if i < n { (i + 1) as u64 } else { 0 };
            self.ctx.put_u64(WIN_USAGE, me, i, next);
        }
        self.ctx
            .put_u64(WIN_SYSTEM, me, HEAD_WORD, TaggedIdx::new(0, 1).raw());
        self.ctx.barrier();
    }

    /// Try to allocate one block on `target`. Returns the `DPtr` of the
    /// block, or `GDI_ERROR_NO_MEMORY` if the target's pool is exhausted.
    pub(crate) fn acquire(&self, target: usize) -> GdiResult<DPtr> {
        let mut head = TaggedIdx::from_raw(self.ctx.aget_u64(WIN_SYSTEM, target, HEAD_WORD));
        loop {
            let idx = head.idx();
            if idx == 0 {
                return Err(GdiError::OutOfMemory);
            }
            let next = self.ctx.get_u64(WIN_USAGE, target, idx as usize);
            let new_head = head.bump(next);
            let prev = self
                .ctx
                .cas_u64(WIN_SYSTEM, target, HEAD_WORD, head.raw(), new_head.raw());
            if prev == head.raw() {
                return Ok(DPtr::new(target, idx * self.cfg.block_size as u64));
            }
            head = TaggedIdx::from_raw(prev);
        }
    }

    /// Return a block to its owner's pool. The caller must not use the
    /// block afterwards.
    pub(crate) fn release(&self, dp: DPtr) {
        debug_assert!(!dp.is_null(), "releasing the null block");
        let target = dp.rank();
        let idx = dp.offset() / self.cfg.block_size as u64;
        debug_assert!(idx >= 1 && idx <= self.cfg.blocks_per_rank as u64);
        let mut head = TaggedIdx::from_raw(self.ctx.aget_u64(WIN_SYSTEM, target, HEAD_WORD));
        loop {
            self.ctx
                .put_u64(WIN_USAGE, target, idx as usize, head.idx());
            let new_head = head.bump(idx);
            let prev = self
                .ctx
                .cas_u64(WIN_SYSTEM, target, HEAD_WORD, head.raw(), new_head.raw());
            if prev == head.raw() {
                return;
            }
            head = TaggedIdx::from_raw(prev);
        }
    }

    /// The free blocks on `target`, in list order, by walking the free
    /// list (O(n); audits only, not the hot path). `None` on a list
    /// longer than the pool: it has a cycle.
    pub(crate) fn free_blocks(&self, target: usize) -> Option<Vec<DPtr>> {
        let mut idx = TaggedIdx::from_raw(self.ctx.aget_u64(WIN_SYSTEM, target, HEAD_WORD)).idx();
        let mut free = Vec::new();
        while idx != 0 {
            if free.len() == self.cfg.blocks_per_rank {
                return None;
            }
            free.push(DPtr::new(target, idx * self.cfg.block_size as u64));
            idx = self.ctx.get_u64(WIN_USAGE, target, idx as usize);
        }
        Some(free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma::CostModel;
    use std::collections::HashSet;

    impl BlockManager<'_, '_> {
        /// Free blocks on `target`: the length of the audit's walk.
        pub(crate) fn count_free(&self, target: usize) -> usize {
            self.free_blocks(target).expect("free-list cycle").len()
        }
    }

    fn setup(nranks: usize) -> (rma::Fabric, GdaConfig) {
        let cfg = GdaConfig::tiny();
        (cfg.build_fabric(nranks, CostModel::zero()), cfg)
    }

    #[test]
    fn acquire_returns_distinct_blocks() {
        let (f, cfg) = setup(1);
        f.run(|ctx| {
            let bm = BlockManager::new(ctx, cfg);
            bm.init_collective();
            let mut seen = HashSet::new();
            for _ in 0..cfg.blocks_per_rank {
                let dp = bm.acquire(0).unwrap();
                assert!(seen.insert(dp), "duplicate block {dp}");
                assert!(!dp.is_null());
                assert!(dp.offset().is_multiple_of(cfg.block_size as u64));
            }
            assert_eq!(bm.acquire(0), Err(GdiError::OutOfMemory));
        });
    }

    #[test]
    fn release_makes_blocks_reusable() {
        let (f, cfg) = setup(1);
        f.run(|ctx| {
            let bm = BlockManager::new(ctx, cfg);
            bm.init_collective();
            let a = bm.acquire(0).unwrap();
            let b = bm.acquire(0).unwrap();
            let free_before = bm.count_free(0);
            bm.release(a);
            bm.release(b);
            assert_eq!(bm.count_free(0), free_before + 2);
            // drain fully: all blocks come back
            let mut n = 0;
            while bm.acquire(0).is_ok() {
                n += 1;
            }
            assert_eq!(n, cfg.blocks_per_rank);
        });
    }

    #[test]
    fn remote_acquire_and_release() {
        let (f, cfg) = setup(2);
        f.run(|ctx| {
            let bm = BlockManager::new(ctx, cfg);
            bm.init_collective();
            if ctx.rank() == 0 {
                // rank 0 allocates on rank 1 and gives the block back
                let dp = bm.acquire(1).unwrap();
                assert_eq!(dp.rank(), 1);
                bm.release(dp);
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                assert_eq!(bm.count_free(1), cfg.blocks_per_rank);
            }
        });
    }

    #[test]
    fn concurrent_acquire_no_double_allocation() {
        // All ranks hammer rank 0's pool concurrently; the union of
        // allocations must be duplicate-free and complete.
        let (f, cfg) = setup(8);
        let got = f.run(|ctx| {
            let bm = BlockManager::new(ctx, cfg);
            bm.init_collective();
            let per_rank = cfg.blocks_per_rank / 8;
            let mut mine = Vec::new();
            for _ in 0..per_rank {
                mine.push(bm.acquire(0).unwrap());
            }
            ctx.barrier();
            mine
        });
        let all: Vec<DPtr> = got.into_iter().flatten().collect();
        let uniq: HashSet<DPtr> = all.iter().copied().collect();
        assert_eq!(all.len(), uniq.len(), "double allocation detected");
        assert_eq!(all.len(), (GdaConfig::tiny().blocks_per_rank / 8) * 8);
    }

    #[test]
    fn concurrent_acquire_release_churn() {
        // Acquire/release churn across ranks; afterwards every block must be
        // back in the pool exactly once (ABA / lost-block detector).
        let (f, cfg) = setup(4);
        f.run(|ctx| {
            let bm = BlockManager::new(ctx, cfg);
            bm.init_collective();
            for round in 0..50 {
                let t = (ctx.rank() + round) % ctx.nranks();
                let mut held = Vec::new();
                for _ in 0..4 {
                    if let Ok(dp) = bm.acquire(t) {
                        held.push(dp);
                    }
                }
                for dp in held {
                    bm.release(dp);
                }
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                for r in 0..ctx.nranks() {
                    assert_eq!(bm.count_free(r), cfg.blocks_per_rank, "rank {r}");
                }
            }
        });
    }
}
