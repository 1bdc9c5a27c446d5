//! Scalable distributed reader-writer locking (§5.6).
//!
//! GDA ensures the ACI properties with two-phase reader-writer locking.
//! Each vertex has exactly **one** lock word — "only one lock per any
//! vertex v is used to reduce the number of remote atomics" — stored in the
//! system window at the word corresponding to the primary block of `v`'s
//! holder:
//!
//! ```text
//! bit 63        : write bit
//! bits 0..=31   : reader counter
//! ```
//!
//! All operations are single remote atomics (FADD/CAS), the cheapest
//! possible on RDMA NICs. Acquisition is *bounded*: after
//! `MAX_LOCK_RETRIES` failed attempts the caller receives
//! `GDI_ERROR_LOCK_CONFLICT` and the transaction aborts — conflicts surface
//! as the failed-transaction percentages the paper reports (Fig. 4c/4d).

use gdi::{GdiError, GdiResult};
use rma::RankCtx;

use crate::config::{GdaConfig, WIN_SYSTEM};
use crate::dptr::DPtr;
use crate::hio::STALE;

/// Bounded lock acquisition attempts before a transaction aborts with
/// `GDI_ERROR_LOCK_CONFLICT` (the source of the paper's failed-
/// transaction percentages).
const MAX_LOCK_RETRIES: usize = 48;

/// The write bit of a lock word.
pub(crate) const WRITE_BIT: u64 = 1 << 63;

/// Kind of lock held on an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LockKind {
    /// A shared reader lock.
    Read,
    /// An exclusive writer lock.
    Write,
}

/// Reader-writer lock operations bound to a rank context.
pub(crate) struct LockManager<'c, 'f> {
    ctx: &'c RankCtx<'f>,
    cfg: GdaConfig,
}

impl<'c, 'f> LockManager<'c, 'f> {
    /// Bind a lock-manager view to a rank context.
    pub(crate) fn new(ctx: &'c RankCtx<'f>, cfg: GdaConfig) -> Self {
        Self { ctx, cfg }
    }

    /// `(rank, system-window word)` of the lock of the object rooted at
    /// `dp`. An id that names no block — a rank past the fabric, the null
    /// block, a block past the pool, an offset inside a block — is the
    /// stale-internal-id `NotFound` the chain readers answer, never an
    /// out-of-window atomic.
    #[inline]
    fn lock_word(&self, dp: DPtr) -> GdiResult<(usize, usize)> {
        let block = self.cfg.block_size as u64;
        let block_idx = dp.offset() / block;
        let named = dp.rank() < self.ctx.nranks()
            && dp.offset().is_multiple_of(block)
            && (1..=self.cfg.blocks_per_rank as u64).contains(&block_idx);
        match named {
            true => Ok((dp.rank(), block_idx as usize)),
            false => Err(STALE),
        }
    }

    fn backoff(&self, attempt: usize) {
        // Real-time politeness towards other rank threads plus simulated
        // exponential backoff cost.
        if attempt % 4 == 3 {
            std::thread::yield_now();
        }
        let model = self.ctx.cost_model();
        self.ctx
            .charge_ns(model.cpu_op_ns * (1 << attempt.min(8)) as f64);
    }

    /// Acquire a read lock: atomically bump the reader counter; if the
    /// write bit was set, undo and retry (bounded).
    pub(crate) fn acquire_read(&self, dp: DPtr) -> GdiResult<()> {
        let (rank, word) = self.lock_word(dp)?;
        for attempt in 0..MAX_LOCK_RETRIES {
            let prev = self.ctx.fadd_u64(WIN_SYSTEM, rank, word, 1);
            if prev & WRITE_BIT == 0 {
                return Ok(());
            }
            self.ctx.fsub_u64(WIN_SYSTEM, rank, word, 1);
            self.backoff(attempt);
        }
        Err(GdiError::LockConflict)
    }

    /// Release a read lock (of an id no lock was granted on: a no-op).
    pub(crate) fn release_read(&self, dp: DPtr) {
        let Ok((rank, word)) = self.lock_word(dp) else {
            return;
        };
        let prev = self.ctx.fsub_u64(WIN_SYSTEM, rank, word, 1);
        debug_assert!(prev & !WRITE_BIT > 0, "read-lock underflow");
    }

    /// Acquire a write lock: CAS the whole word from 0 (no writer, no
    /// readers) to the write bit.
    pub(crate) fn acquire_write(&self, dp: DPtr) -> GdiResult<()> {
        let (rank, word) = self.lock_word(dp)?;
        for attempt in 0..MAX_LOCK_RETRIES {
            if self.ctx.cas_u64(WIN_SYSTEM, rank, word, 0, WRITE_BIT) == 0 {
                return Ok(());
            }
            self.backoff(attempt);
        }
        Err(GdiError::LockConflict)
    }

    /// One attempt at the write lock, with no retry: `true` if it was
    /// free (no writer, no readers) and is now ours.
    pub(crate) fn try_acquire_write(&self, dp: DPtr) -> bool {
        self.lock_word(dp)
            .is_ok_and(|(rank, word)| self.ctx.cas_u64(WIN_SYSTEM, rank, word, 0, WRITE_BIT) == 0)
    }

    /// Upgrade a read lock we hold to a write lock: succeeds only while we
    /// are the sole reader (CAS `1 → WRITE_BIT`). On failure the read lock
    /// is still held.
    pub(crate) fn upgrade(&self, dp: DPtr) -> GdiResult<()> {
        let (rank, word) = self.lock_word(dp)?;
        for attempt in 0..MAX_LOCK_RETRIES {
            let prev = self.ctx.cas_u64(WIN_SYSTEM, rank, word, 1, WRITE_BIT);
            if prev == 1 {
                return Ok(());
            }
            if prev & WRITE_BIT != 0 {
                // a writer sneaked in while we held a read lock — impossible
                // under correct use (write bit excludes readers), so this is
                // another upgrader; give up immediately to avoid livelock
                return Err(GdiError::LockConflict);
            }
            // other readers still present; wait for them to drain
            self.backoff(attempt);
        }
        Err(GdiError::LockConflict)
    }

    /// Release a write lock (of an id no lock was granted on: a no-op).
    ///
    /// Uses an atomic subtract of the write bit rather than a CAS: a
    /// concurrent reader's transient `+1/-1` probe (its failed
    /// acquire-read) may be in flight, which would make a
    /// `CAS(WRITE_BIT → 0)` fail spuriously.
    pub(crate) fn release_write(&self, dp: DPtr) {
        let Ok((rank, word)) = self.lock_word(dp) else {
            return;
        };
        let prev = self.ctx.fsub_u64(WIN_SYSTEM, rank, word, WRITE_BIT);
        debug_assert!(prev & WRITE_BIT != 0, "write-lock released but not held");
    }

    /// Release a lock of either kind.
    pub(crate) fn release(&self, dp: DPtr, kind: LockKind) {
        match kind {
            LockKind::Read => self.release_read(dp),
            LockKind::Write => self.release_write(dp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma::CostModel;

    impl LockManager<'_, '_> {
        /// Diagnostic: raw lock word.
        pub(crate) fn peek(&self, dp: DPtr) -> GdiResult<u64> {
            let (rank, word) = self.lock_word(dp)?;
            Ok(self.ctx.aget_u64(WIN_SYSTEM, rank, word))
        }
    }

    fn fabric(n: usize) -> (rma::Fabric, GdaConfig) {
        let cfg = GdaConfig::tiny();
        (cfg.build_fabric(n, CostModel::zero()), cfg)
    }

    fn dp() -> DPtr {
        DPtr::new(0, 128) // block 1 on rank 0
    }

    #[test]
    fn read_locks_are_shared() {
        let (f, cfg) = fabric(4);
        f.run(|ctx| {
            let lm = LockManager::new(ctx, cfg);
            lm.acquire_read(dp()).unwrap();
            ctx.barrier();
            // all four ranks hold the read lock simultaneously
            assert_eq!(lm.peek(dp()).unwrap(), 4);
            ctx.barrier();
            lm.release_read(dp());
            ctx.barrier();
            assert_eq!(lm.peek(dp()).unwrap(), 0);
        });
    }

    #[test]
    fn write_lock_is_exclusive() {
        let (f, cfg) = fabric(4);
        let winners = f.run(|ctx| {
            let lm = LockManager::new(ctx, cfg);
            let got = lm.acquire_write(dp()).is_ok();
            ctx.barrier();
            if got {
                lm.release_write(dp());
            }
            got
        });
        // with bounded retries under contention exactly one holds it at the
        // barrier; the others may or may not have succeeded before/after,
        // but at most one holds it *simultaneously*: verify via count of
        // winners being >= 1 and the lock ending free
        assert!(winners.iter().any(|&w| w));
    }

    #[test]
    fn writer_blocks_readers_and_vice_versa() {
        let (f, cfg) = fabric(2);
        f.run(|ctx| {
            let lm = LockManager::new(ctx, cfg);
            if ctx.rank() == 0 {
                lm.acquire_write(dp()).unwrap();
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                assert_eq!(lm.acquire_read(dp()), Err(GdiError::LockConflict));
                assert_eq!(lm.acquire_write(dp()), Err(GdiError::LockConflict));
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                lm.release_write(dp());
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                lm.acquire_read(dp()).unwrap();
                lm.release_read(dp());
            }
        });
    }

    #[test]
    fn reader_blocks_writer() {
        let (f, cfg) = fabric(2);
        f.run(|ctx| {
            let lm = LockManager::new(ctx, cfg);
            if ctx.rank() == 0 {
                lm.acquire_read(dp()).unwrap();
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                assert_eq!(lm.acquire_write(dp()), Err(GdiError::LockConflict));
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                lm.release_read(dp());
            }
        });
    }

    #[test]
    fn upgrade_sole_reader() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let lm = LockManager::new(ctx, cfg);
            lm.acquire_read(dp()).unwrap();
            lm.upgrade(dp()).unwrap();
            assert_eq!(lm.peek(dp()).unwrap(), WRITE_BIT);
            lm.release_write(dp());
            assert_eq!(lm.peek(dp()).unwrap(), 0);
        });
    }

    #[test]
    fn upgrade_fails_with_other_readers() {
        let (f, cfg) = fabric(2);
        f.run(|ctx| {
            let lm = LockManager::new(ctx, cfg);
            lm.acquire_read(dp()).unwrap();
            ctx.barrier();
            if ctx.rank() == 0 {
                assert_eq!(lm.upgrade(dp()), Err(GdiError::LockConflict));
                // read lock still held after failed upgrade
                assert!(lm.peek(dp()).unwrap() >= 2);
            }
            ctx.barrier();
            lm.release_read(dp());
        });
    }

    #[test]
    fn mutual_exclusion_under_churn() {
        // Writers increment a non-atomic-looking counter (two separate
        // window words that must stay equal) under the write lock; any
        // mutual-exclusion violation desynchronizes them.
        let (f, cfg) = fabric(4);
        f.run(|ctx| {
            let lm = LockManager::new(ctx, cfg);
            let mut acquired = 0u64;
            for _ in 0..100 {
                if lm.acquire_write(dp()).is_ok() {
                    let a = ctx.get_u64(crate::config::WIN_DATA, 0, 0);
                    let b = ctx.get_u64(crate::config::WIN_DATA, 0, 1);
                    assert_eq!(a, b, "write lock failed to exclude");
                    ctx.put_u64(crate::config::WIN_DATA, 0, 0, a + 1);
                    std::thread::yield_now();
                    ctx.put_u64(crate::config::WIN_DATA, 0, 1, b + 1);
                    lm.release_write(dp());
                    acquired += 1;
                }
            }
            let total = ctx.allreduce_sum_u64(acquired);
            ctx.barrier();
            assert_eq!(ctx.get_u64(crate::config::WIN_DATA, 0, 0), total);
        });
    }

    /// An internal id that names no lock word — another rank than the
    /// fabric has, the null block, a block past the pool, an offset
    /// inside a block — is refused with the stale-id `NotFound` by every
    /// acquisition, and its release and peek touch nothing.
    #[test]
    fn hostile_ids_are_stale_not_a_panic() {
        let (f, cfg) = fabric(2);
        f.run(|ctx| {
            let lm = LockManager::new(ctx, cfg);
            let block = cfg.block_size as u64;
            for hostile in [
                DPtr::new(2, block),
                DPtr::new(0, 0),
                DPtr::new(1, (cfg.blocks_per_rank as u64 + 1) * block),
                DPtr::new(0, 1 << 40),
                DPtr::new(1, block + 8),
            ] {
                assert_eq!(lm.acquire_read(hostile), Err(STALE));
                assert_eq!(lm.acquire_write(hostile), Err(STALE));
                assert_eq!(lm.upgrade(hostile), Err(STALE));
                assert_eq!(lm.peek(hostile), Err(STALE));
                lm.release(hostile, LockKind::Read);
                lm.release(hostile, LockKind::Write);
            }
            // the last block of the pool is a lock like any other
            let last = DPtr::new(1, cfg.blocks_per_rank as u64 * block);
            ctx.barrier();
            if ctx.rank() == 0 {
                lm.acquire_write(last).unwrap();
                assert_eq!(lm.peek(last), Ok(WRITE_BIT));
                lm.release_write(last);
            }
        });
    }
}
