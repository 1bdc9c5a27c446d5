//! Per-rank, epoch-validated translation cache (app vertex id → `DPtr`).
//!
//! Every OLTP op pays `Dht::lookup` — one remote atomic plus a remote
//! chain walk — to resolve an application vertex id (the paper's Fig-4
//! hot path). This cache keeps recent translations (positive *and*
//! negative) local and validates them against the owner rank's **epoch
//! word** in the index window (`delete_epoch:32 | insert_epoch:32`, see
//! [`crate::dht`]):
//!
//! * a **positive** entry (id found) is trusted while the owner's
//!   *delete* epoch is unchanged — only a delete can retire it;
//! * a **negative** entry (id absent) is trusted while the owner's
//!   *insert* epoch is unchanged — only an insert can retire it.
//!
//! The cache has one rule: every probe reads the owner's epoch word (one
//! remote `aget`), answers from an entry that word still vouches for, and
//! otherwise walks the DHT and stores the outcome against the word it
//! read **before** the walk. A mutation racing with the walk bumps past
//! that word, so the entry self-invalidates on the next probe. This
//! rank's own inserts and deletes bump the same epoch halves a peer's
//! would, so they retire the entries they make stale like any other.

use std::cell::RefCell;

use rustc_hash::FxHashMap;

use rma::{Counter, RankCtx};

use crate::dht::{epoch_del, epoch_ins, Dht};

/// One cached translation. `raw == 0` (the null `DPtr`) encodes a
/// negative entry: valid application vertices never translate to null.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    raw: u64,
    /// The owner-rank epoch half guarding this entry: the delete half for
    /// positive entries, the insert half for negative ones.
    epoch: u32,
}

/// The epoch half of `word` that guards an entry holding `raw`.
fn guard(raw: u64, word: u64) -> u32 {
    if raw == 0 {
        epoch_ins(word)
    } else {
        epoch_del(word)
    }
}

/// The per-rank translation cache. Lives inside [`crate::db::GdaRank`];
/// not `Send`/`Sync` (single-writer: the owning rank thread). Its hits,
/// misses and invalidations are the `cache.*` rows of [`rma::Counter`].
pub(crate) struct TranslationCache {
    cap: usize,
    entries: RefCell<FxHashMap<u64, CacheEntry>>,
}

impl TranslationCache {
    /// A cache holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            cap: capacity.max(1),
            entries: RefCell::new(FxHashMap::default()),
        }
    }

    /// Drop every entry (storage re-initialization).
    pub(crate) fn clear(&self) {
        self.entries.borrow_mut().clear();
    }

    /// Translate `key` through the cache: one epoch `aget`, then either a
    /// valid entry answers or the full `Dht::lookup` runs and its outcome
    /// is cached against the epoch word read before the walk.
    pub(crate) fn lookup(&self, dht: &Dht, ctx: &RankCtx, key: u64) -> Option<u64> {
        let word = dht.read_epoch(dht.placement_rank(key));
        let cached = self.entries.borrow().get(&key).copied();
        if let Some(e) = cached {
            if guard(e.raw, word) == e.epoch {
                ctx.count(Counter::CacheHits, 1);
                return (e.raw != 0).then_some(e.raw);
            }
            // the owner's epoch moved past this entry: retire it
            self.entries.borrow_mut().remove(&key);
            ctx.count(Counter::CacheInvalidations, 1);
        }
        ctx.count(Counter::CacheMisses, 1);
        let res = dht.lookup(key);
        let raw = res.unwrap_or(0);
        let mut m = self.entries.borrow_mut();
        if m.len() >= self.cap {
            // evict an arbitrary resident (cheap; hot keys re-enter on
            // their next probe)
            if let Some(&victim) = m.keys().next() {
                m.remove(&victim);
            }
        }
        m.insert(
            key,
            CacheEntry {
                raw,
                epoch: guard(raw, word),
            },
        );
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GdaConfig;
    use rma::{BackendKind, CostModel};

    fn fabric(n: usize) -> (rma::Fabric, GdaConfig) {
        let cfg = GdaConfig::tiny();
        (cfg.build_fabric(n, CostModel::zero()), cfg)
    }

    /// `(hits, misses, invalidations)` this rank has counted so far.
    fn counts(ctx: &RankCtx) -> (u64, u64, u64) {
        let s = ctx.stats_snapshot();
        (s.cache_hits, s.cache_misses, s.cache_invalidations)
    }

    #[test]
    fn hit_after_miss_and_negative_caching() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(64);
            dht.insert(1, 100).unwrap();
            assert_eq!(cache.lookup(&dht, ctx, 1), Some(100)); // miss
            assert_eq!(cache.lookup(&dht, ctx, 1), Some(100)); // hit
            assert_eq!(cache.lookup(&dht, ctx, 2), None); // negative miss
            assert_eq!(cache.lookup(&dht, ctx, 2), None); // negative hit
            assert_eq!(counts(ctx), (2, 2, 0));
        });
    }

    #[test]
    fn delete_invalidates_positive_entry() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(64);
            dht.insert(7, 70).unwrap();
            assert_eq!(cache.lookup(&dht, ctx, 7), Some(70));
            assert!(dht.delete(7));
            assert_eq!(cache.lookup(&dht, ctx, 7), None, "stale hit served");
            assert_eq!(counts(ctx).2, 1);
        });
    }

    #[test]
    fn insert_invalidates_negative_entry() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(64);
            assert_eq!(cache.lookup(&dht, ctx, 9), None);
            dht.insert(9, 90).unwrap();
            assert_eq!(cache.lookup(&dht, ctx, 9), Some(90), "stale NotFound");
        });
    }

    #[test]
    fn unrelated_delete_keeps_negative_entry_valid() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(64);
            dht.insert(1, 10).unwrap();
            assert_eq!(cache.lookup(&dht, ctx, 2), None); // negative cached
            assert!(dht.delete(1)); // bumps delete half only
            assert_eq!(cache.lookup(&dht, ctx, 2), None);
            // the second probe of key 2 must be a hit: deletes cannot
            // retire negative entries
            assert_eq!(counts(ctx).0, 1);
        });
    }

    #[test]
    fn capacity_is_bounded() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(8);
            for k in 0..64u64 {
                dht.insert(k, k + 1).unwrap();
            }
            for k in 0..64u64 {
                assert_eq!(cache.lookup(&dht, ctx, k), Some(k + 1));
            }
            assert!(cache.entries.borrow().len() <= 8);
        });
    }

    #[test]
    fn cross_rank_invalidation() {
        let (f, cfg) = fabric(4);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(64);
            if ctx.rank() == 0 {
                for k in 0..32u64 {
                    dht.insert(k, k + 1).unwrap();
                }
            }
            ctx.barrier();
            // every rank caches all translations
            for k in 0..32u64 {
                assert_eq!(cache.lookup(&dht, ctx, k), Some(k + 1));
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                for k in 0..32u64 {
                    assert!(dht.delete(k));
                }
            }
            ctx.barrier();
            // no rank may serve the retired translations
            for k in 0..32u64 {
                assert_eq!(cache.lookup(&dht, ctx, k), None, "stale k={k}");
            }
        });
    }

    /// The LogGP relation the cache exists for: once a key set is
    /// resident, translating it through the cache (one epoch `aget` a
    /// key) costs at least 1.3× less simulated time than the uncached
    /// chain walk over the same keys.
    #[test]
    fn resident_keys_translate_cheaper_than_the_chain_walk() {
        let cfg = GdaConfig::tiny();
        let f = cfg.build_fabric_on(2, CostModel::default(), BackendKind::Sim);
        let times = f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(cfg.translation_cache_capacity);
            let keys: Vec<u64> = (0..64u64).map(|k| ctx.rank() as u64 * 1000 + k).collect();
            for &k in &keys {
                dht.insert(k, k + 1).unwrap();
            }
            ctx.barrier();
            for &k in &keys {
                cache.lookup(&dht, ctx, k);
            }
            let t0 = ctx.now_ns();
            for &k in &keys {
                assert_eq!(cache.lookup(&dht, ctx, k), Some(k + 1));
            }
            let cached = ctx.now_ns() - t0;
            let t0 = ctx.now_ns();
            for &k in &keys {
                assert_eq!(dht.lookup(k), Some(k + 1));
            }
            (cached, ctx.now_ns() - t0)
        });
        for (rank, (cached, walk)) in times.into_iter().enumerate() {
            assert!(
                walk >= 1.3 * cached,
                "rank {rank}: cached {cached} ns vs chain walk {walk} ns"
            );
        }
    }
}
