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
//! Revalidation is one remote `aget` of the epoch word instead of the
//! chain walk; when the relevant half moved, the entry is dropped and the
//! full lookup re-runs. The epoch word a new entry records is always one
//! that was **observed before the chain walk started**, so a mutation
//! racing with the walk bumps past it and forces revalidation on the
//! next probe — the cache can never latch a translation concurrent
//! mutations have retired.
//!
//! ## Pinned cycles (server drain batches)
//!
//! A service layer draining a whole batch per cycle calls
//! [`TranslationCache::begin_cycle`] once: the epoch words of all ranks
//! are snapshotted (`P` agets), and until [`TranslationCache::end_cycle`]
//! every probe validates against the snapshot with **zero** remote
//! operations — one epoch check per batch instead of per op. The rank's
//! own commits stay exact through write-through
//! ([`TranslationCache::note_insert`] / [`TranslationCache::note_delete`]);
//! remote mutations are observed at the next cycle boundary (the
//! staleness contract the README documents).

use std::cell::{Cell, RefCell};

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

/// Counters of one rank's translation cache (also counted as the
/// `cache.*` rows of [`rma::Counter`] via the rank context).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache (no chain walk).
    pub hits: u64,
    /// Probes that paid the full DHT lookup.
    pub misses: u64,
    /// Entries dropped because their owner's epoch half moved.
    pub invalidations: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all probes (0 when never probed).
    pub fn hit_fraction(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The per-rank translation cache. Lives inside [`crate::db::GdaRank`];
/// not `Send`/`Sync` (single-writer: the owning rank thread).
pub struct TranslationCache {
    enabled: bool,
    cap: usize,
    entries: RefCell<FxHashMap<u64, CacheEntry>>,
    /// Last observed epoch word per owner rank.
    epochs: RefCell<Vec<u64>>,
    /// While set, probes trust the `epochs` snapshot without remote
    /// revalidation (one epoch check per server drain cycle).
    pinned: Cell<bool>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    invalidations: Cell<u64>,
    evictions: Cell<u64>,
}

impl TranslationCache {
    /// Create a cache for a fabric of `nranks` ranks (a disabled
    /// cache passes every lookup straight through).
    pub fn new(enabled: bool, capacity: usize, nranks: usize) -> Self {
        Self {
            enabled,
            cap: capacity.max(1),
            entries: RefCell::new(FxHashMap::default()),
            epochs: RefCell::new(vec![0; nranks]),
            pinned: Cell::new(false),
            hits: Cell::new(0),
            misses: Cell::new(0),
            invalidations: Cell::new(0),
            evictions: Cell::new(0),
        }
    }

    /// Is the cache consulted at all?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            invalidations: self.invalidations.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Drop every entry and epoch snapshot (storage re-initialization).
    pub fn clear(&self) {
        self.entries.borrow_mut().clear();
        for e in self.epochs.borrow_mut().iter_mut() {
            *e = 0;
        }
        self.pinned.set(false);
    }

    /// Translate `key` through the cache: a valid entry answers locally
    /// (plus at most one epoch `aget`); otherwise the full `Dht::lookup`
    /// runs and its outcome is cached against the epoch observed *before*
    /// the walk.
    pub fn lookup(&self, dht: &Dht, ctx: &RankCtx, key: u64) -> Option<u64> {
        self.lookup_inner(dht, ctx, key, false)
    }

    /// [`TranslationCache::lookup`] that revalidates the owner's epoch
    /// remotely even inside a pinned cycle — for translations of
    /// vertices the caller does *not* own (where routing-plus-write-
    /// through cannot vouch for the pinned snapshot, e.g. an edge's
    /// non-routed endpoint in the server batcher).
    pub fn lookup_fresh(&self, dht: &Dht, ctx: &RankCtx, key: u64) -> Option<u64> {
        self.lookup_inner(dht, ctx, key, true)
    }

    fn lookup_inner(&self, dht: &Dht, ctx: &RankCtx, key: u64, fresh: bool) -> Option<u64> {
        if !self.enabled {
            return dht.lookup(key);
        }
        let rank = dht.placement_rank(key);
        // current epoch word for the owner: a pinned cycle reuses its
        // snapshot (zero remote ops), otherwise one remote aget. A
        // `fresh` probe always pays the aget and tightens the pinned
        // snapshot — moving a snapshot slot forward can only retire
        // more entries, never revive one.
        let word = if self.pinned.get() && !fresh {
            self.epochs.borrow()[rank]
        } else {
            let w = dht.read_epoch(rank);
            if self.pinned.get() {
                self.epochs.borrow_mut()[rank] = w;
            }
            w
        };
        let cached = self.entries.borrow().get(&key).copied();
        if let Some(e) = cached {
            let current = if e.raw == 0 {
                epoch_ins(word)
            } else {
                epoch_del(word)
            };
            if current == e.epoch {
                self.hits.set(self.hits.get() + 1);
                ctx.count(Counter::CacheHits, 1);
                return if e.raw == 0 { None } else { Some(e.raw) };
            }
            // the owner's epoch moved past this entry: retire it
            self.entries.borrow_mut().remove(&key);
            self.invalidations.set(self.invalidations.get() + 1);
            ctx.count(Counter::CacheInvalidations, 1);
        }
        self.misses.set(self.misses.get() + 1);
        ctx.count(Counter::CacheMisses, 1);
        // `word` was observed before this walk: any mutation racing with
        // the walk bumps past it, so the entry self-invalidates later
        let res = dht.lookup(key);
        self.store(key, res.unwrap_or(0), word);
        res
    }

    /// Write-through after this rank published `key` in the DHT (commit
    /// path). `word` is the pre-bump epoch word the insert observed.
    pub fn note_insert(&self, key: u64, raw: u64, word: u64) {
        if !self.enabled {
            return;
        }
        self.store(key, raw, word);
    }

    /// Write-through after this rank deleted `key` from the DHT (commit
    /// and failed-commit cleanup paths). `word` is the pre-bump epoch
    /// word the delete observed.
    pub fn note_delete(&self, key: u64, word: u64) {
        if !self.enabled {
            return;
        }
        self.store(key, 0, word);
    }

    fn store(&self, key: u64, raw: u64, word: u64) {
        let epoch = if raw == 0 {
            epoch_ins(word)
        } else {
            epoch_del(word)
        };
        let mut m = self.entries.borrow_mut();
        if !m.contains_key(&key) && m.len() >= self.cap {
            // evict an arbitrary resident (cheap; hot keys re-enter on
            // their next probe)
            if let Some(&victim) = m.keys().next() {
                m.remove(&victim);
                self.evictions.set(self.evictions.get() + 1);
            }
        }
        m.insert(key, CacheEntry { raw, epoch });
    }

    /// Snapshot every rank's epoch word (one `aget` each) and trust the
    /// snapshot until [`TranslationCache::end_cycle`]: the server's
    /// one-epoch-check-per-drain-cycle amortization.
    pub fn begin_cycle(&self, dht: &Dht, nranks: usize) {
        if !self.enabled {
            return;
        }
        let mut eps = self.epochs.borrow_mut();
        for (r, slot) in eps.iter_mut().enumerate().take(nranks) {
            *slot = dht.read_epoch(r);
        }
        drop(eps);
        self.pinned.set(true);
    }

    /// Leave the pinned cycle: probes revalidate remotely again.
    pub fn end_cycle(&self) {
        self.pinned.set(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GdaConfig;
    use rma::CostModel;

    fn fabric(n: usize) -> (rma::Fabric, GdaConfig) {
        let cfg = GdaConfig::tiny();
        (cfg.build_fabric(n, CostModel::zero()), cfg)
    }

    #[test]
    fn hit_after_miss_and_negative_caching() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(true, 64, 1);
            dht.insert(1, 100).unwrap();
            assert_eq!(cache.lookup(&dht, ctx, 1), Some(100)); // miss
            assert_eq!(cache.lookup(&dht, ctx, 1), Some(100)); // hit
            assert_eq!(cache.lookup(&dht, ctx, 2), None); // negative miss
            assert_eq!(cache.lookup(&dht, ctx, 2), None); // negative hit
            let s = cache.stats();
            assert_eq!((s.hits, s.misses), (2, 2));
        });
    }

    #[test]
    fn delete_invalidates_positive_entry() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(true, 64, 1);
            dht.insert(7, 70).unwrap();
            assert_eq!(cache.lookup(&dht, ctx, 7), Some(70));
            assert!(dht.delete(7)); // third-party delete, no write-through
            assert_eq!(cache.lookup(&dht, ctx, 7), None, "stale hit served");
            assert_eq!(cache.stats().invalidations, 1);
        });
    }

    #[test]
    fn insert_invalidates_negative_entry() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(true, 64, 1);
            assert_eq!(cache.lookup(&dht, ctx, 9), None);
            dht.insert(9, 90).unwrap(); // third-party insert
            assert_eq!(cache.lookup(&dht, ctx, 9), Some(90), "stale NotFound");
        });
    }

    /// The write-through contract behind `Dht::delete_traced`'s
    /// pre-unlink epoch read: a negative entry recorded by our own
    /// delete must self-invalidate against any re-create of the key —
    /// it may never mask the recreated vertex.
    #[test]
    fn recreate_after_write_through_delete_is_visible() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(true, 64, 1);
            dht.insert(5, 50).unwrap();
            assert_eq!(cache.lookup(&dht, ctx, 5), Some(50));
            let w = dht.delete_traced(5).expect("present");
            cache.note_delete(5, w);
            assert_eq!(cache.lookup(&dht, ctx, 5), None);
            dht.insert(5, 51).unwrap(); // third-party re-create
            assert_eq!(cache.lookup(&dht, ctx, 5), Some(51), "recreated key masked");
        });
    }

    #[test]
    fn unrelated_delete_keeps_negative_entry_valid() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(true, 64, 1);
            dht.insert(1, 10).unwrap();
            assert_eq!(cache.lookup(&dht, ctx, 2), None); // negative cached
            assert!(dht.delete(1)); // bumps delete half only
            assert_eq!(cache.lookup(&dht, ctx, 2), None);
            let s = cache.stats();
            // the second probe of key 2 must be a hit: deletes cannot
            // retire negative entries
            assert_eq!(s.hits, 1, "{s:?}");
        });
    }

    #[test]
    fn write_through_keeps_own_mutations_exact_while_pinned() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(true, 64, 1);
            cache.begin_cycle(&dht, 1);
            assert_eq!(cache.lookup(&dht, ctx, 4), None);
            let w = dht.insert_traced(4, 40).unwrap();
            cache.note_insert(4, 40, w);
            assert_eq!(cache.lookup(&dht, ctx, 4), Some(40), "own insert lost");
            let w = dht.delete_traced(4).unwrap();
            cache.note_delete(4, w);
            assert_eq!(cache.lookup(&dht, ctx, 4), None, "own delete lost");
            cache.end_cycle();
        });
    }

    #[test]
    fn capacity_is_bounded() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(true, 8, 1);
            for k in 0..64u64 {
                dht.insert(k, k + 1).unwrap();
            }
            for k in 0..64u64 {
                assert_eq!(cache.lookup(&dht, ctx, k), Some(k + 1));
            }
            assert!(cache.entries.borrow().len() <= 8);
            assert!(cache.stats().evictions >= 56);
        });
    }

    #[test]
    fn disabled_cache_is_transparent() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(false, 8, 1);
            dht.insert(3, 30).unwrap();
            assert_eq!(cache.lookup(&dht, ctx, 3), Some(30));
            assert_eq!(cache.stats(), CacheStats::default());
            assert!(cache.entries.borrow().is_empty());
        });
    }

    #[test]
    fn cross_rank_invalidation() {
        let (f, cfg) = fabric(4);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let cache = TranslationCache::new(true, 64, ctx.nranks());
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
}
