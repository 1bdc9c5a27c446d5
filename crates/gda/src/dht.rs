//! Lock-free, fully-offloaded distributed hash table (§5.7, Listing 4).
//!
//! GDA resolves application vertex ids to internal `DPtr`s through a DHT
//! whose *every* operation — insert, lookup and delete — is implemented
//! with one-sided puts/gets/CAS only ("to the best of our knowledge, the
//! first DHT with all its operations being fully offloaded, including
//! deletes").
//!
//! Layout (per rank, in the index window):
//!
//! ```text
//! word 0                  : tagged free-list head of the entry heap
//! word 1                  : reserved — nothing reads or writes it
//! words 2..=B+1           : buckets — each holds the heap index of the
//!                           first chain entry (0 = empty)
//! words B+2..             : heap of 3-word entries {key, value, next}
//! ```
//!
//! `Transaction::translate_vertex_id` is one [`Dht::lookup`], a walk of
//! the live chain, so a translation is never stale: an insert is seen
//! once its CAS links the entry, a delete once it unlinks it.
//! `Transaction::translate_vertex_ids` is one [`Dht::lookup_many`],
//! which walks all its keys' chains together, one round per level.
//!
//! A key `k` hashes to bucket rank `h(k) mod P` and bucket index
//! `(h(k)/P) mod B`; chains stay on the bucket's rank (distributed
//! chaining: any rank walks them one-sidedly).
//!
//! **Deletion protocol** (Listing 4): the first CAS redirects the victim's
//! `next` pointer *to the victim itself*, marking it logically deleted;
//! the second CAS swings the predecessor cell past the victim. Readers that
//! encounter a self-pointing entry restart, because the chain beyond it is
//! only recoverable by the deleting process (which remembered the original
//! successor and retries the unlink until it succeeds).

use gdi::{GdiError, GdiResult};
use rma::RankCtx;

use crate::config::{GdaConfig, WIN_INDEX};
use crate::dptr::{DPtr, TaggedIdx, OFFSET_MASK};

/// Word index of the heap free-list head.
const HEAP_HEAD_WORD: usize = 0;

/// Sentinel key stored in freed heap entries so that in-flight traversals
/// can never match them. Application keys must be `< u64::MAX`.
const FREE_KEY: u64 = u64::MAX;

/// 64-bit finalizer (splitmix64): good avalanche for sequential app ids.
#[inline]
pub(crate) fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One key's walk down its chain ([`Dht::walk`]).
struct Probe {
    key: u64,
    /// Rank and bucket word of the key's chain.
    rank: usize,
    bucket: usize,
    /// The heap entry to read next; 0 while the bucket head is.
    at: u64,
    /// The answer, once the walk has one.
    found: Option<Option<u64>>,
}

/// The distributed hash table, bound to a rank context.
pub(crate) struct Dht<'c, 'f> {
    ctx: &'c RankCtx<'f>,
    cfg: GdaConfig,
}

impl<'c, 'f> Dht<'c, 'f> {
    /// Bind a DHT view to a rank context.
    pub(crate) fn new(ctx: &'c RankCtx<'f>, cfg: GdaConfig) -> Self {
        Self { ctx, cfg }
    }

    #[inline]
    fn nbuckets(&self) -> usize {
        self.cfg.dht_buckets_per_rank
    }

    #[inline]
    fn heap_base(&self) -> usize {
        2 + self.nbuckets()
    }

    /// Word of bucket `b`.
    #[inline]
    fn bucket_word(&self, b: usize) -> usize {
        2 + b
    }

    /// First word of heap entry `idx` (1-based).
    #[inline]
    fn entry_word(&self, idx: u64) -> usize {
        self.heap_base() + 3 * (idx as usize - 1)
    }

    /// Word of the `next` field of heap entry `idx`.
    #[inline]
    fn next_word(&self, idx: u64) -> usize {
        self.entry_word(idx) + 2
    }

    /// Bucket placement of a key. Delegates the rank/bucket formulas to
    /// [`crate::rankmap`] (the single authoritative copy — resharding
    /// re-evaluates them under a different rank count).
    #[inline]
    fn place(&self, key: u64) -> (usize, usize) {
        let rank = crate::rankmap::dht_rank(key, self.ctx.nranks());
        let bucket = crate::rankmap::dht_bucket(key, self.ctx.nranks(), self.nbuckets());
        (rank, self.bucket_word(bucket))
    }

    /// Collective: initialize this rank's heap free list; ends in a barrier.
    ///
    /// The free list is threaded through the **value** word of free entries
    /// (not the `next` word): freed entries keep their self-pointing `next`
    /// from the deletion protocol, so a traverser that still holds a pointer
    /// to a reclaimed entry sees `next == self`, restarts its walk from the
    /// bucket, and can never follow a free-list link into unrelated memory.
    /// Their key word holds the reserved free-key sentinel (`u64::MAX`),
    /// so they can never match a lookup.
    pub(crate) fn init_collective(&self) {
        let me = self.ctx.rank();
        // empty every bucket (re-initialization must not leave stale chain
        // heads pointing into the rebuilt free list)
        for b in 0..self.nbuckets() {
            self.ctx.put_u64(WIN_INDEX, me, self.bucket_word(b), 0);
        }
        let n = self.cfg.dht_heap_per_rank as u64;
        for i in 1..=n {
            let link = if i < n { i + 1 } else { 0 };
            let ew = self.entry_word(i);
            self.ctx.put_u64(WIN_INDEX, me, ew, FREE_KEY);
            self.ctx.put_u64(WIN_INDEX, me, ew + 1, link);
            self.ctx.put_u64(WIN_INDEX, me, ew + 2, i); // self-pointing
        }
        self.ctx
            .put_u64(WIN_INDEX, me, HEAP_HEAD_WORD, TaggedIdx::new(0, 1).raw());
        self.ctx.barrier();
    }

    /// Allocate a heap entry on `target` (tagged-CAS free list, like BGDL
    /// blocks; the link lives in the entry's value word).
    fn alloc(&self, target: usize) -> GdiResult<u64> {
        let mut head = TaggedIdx::from_raw(self.ctx.aget_u64(WIN_INDEX, target, HEAP_HEAD_WORD));
        loop {
            let idx = head.idx();
            if idx == 0 {
                return Err(GdiError::OutOfMemory);
            }
            // the link shares the entry's value word: if a racing alloc
            // already took `idx` and stored its value there, this read is
            // not a link at all. The CAS below then fails on the bumped
            // tag; masking only keeps the doomed candidate well-formed.
            let link = self
                .ctx
                .get_u64(WIN_INDEX, target, self.entry_word(idx) + 1)
                & OFFSET_MASK;
            let prev = self.ctx.cas_u64(
                WIN_INDEX,
                target,
                HEAP_HEAD_WORD,
                head.raw(),
                head.bump(link).raw(),
            );
            if prev == head.raw() {
                return Ok(idx);
            }
            head = TaggedIdx::from_raw(prev);
        }
    }

    /// Return a heap entry to `target`'s free list. The entry must already
    /// be self-pointing (marked by the deletion protocol).
    fn dealloc(&self, target: usize, idx: u64) {
        let ew = self.entry_word(idx);
        self.ctx.put_u64(WIN_INDEX, target, ew, FREE_KEY);
        let mut head = TaggedIdx::from_raw(self.ctx.aget_u64(WIN_INDEX, target, HEAP_HEAD_WORD));
        loop {
            self.ctx.put_u64(WIN_INDEX, target, ew + 1, head.idx());
            let prev = self.ctx.cas_u64(
                WIN_INDEX,
                target,
                HEAP_HEAD_WORD,
                head.raw(),
                head.bump(idx).raw(),
            );
            if prev == head.raw() {
                return;
            }
            head = TaggedIdx::from_raw(prev);
        }
    }

    /// Insert a key/value pair (Listing 4 `insert`). Keys are expected to
    /// be unique; duplicate keys yield multiple entries, with lookups
    /// returning the most recently inserted.
    pub(crate) fn insert(&self, key: u64, value: u64) -> GdiResult<()> {
        assert_ne!(key, FREE_KEY, "u64::MAX is a reserved key");
        let (rank, bucket) = self.place(key);
        let entry = self.alloc(rank)?;
        let ew = self.entry_word(entry);
        self.ctx.put_u64(WIN_INDEX, rank, ew, key);
        self.ctx.put_u64(WIN_INDEX, rank, ew + 1, value);
        loop {
            let head = self.ctx.aget_u64(WIN_INDEX, rank, bucket);
            self.ctx.put_u64(WIN_INDEX, rank, ew + 2, head);
            self.ctx.flush(rank);
            let prev = self.ctx.cas_u64(WIN_INDEX, rank, bucket, head, entry);
            if prev == head {
                return Ok(());
            }
        }
    }

    /// Heap entry `idx` on `rank` as `[key, value, next]`, in one get.
    /// The window loads its words in order, each with acquire, so a
    /// walker sees them in the order three single-word gets would.
    fn read_entry(&self, rank: usize, idx: u64) -> [u64; 3] {
        let mut buf = [0u8; 24];
        self.ctx
            .get_bytes(WIN_INDEX, rank, self.entry_word(idx) * 8, &mut buf);
        let word = |i: usize| u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
        [word(0), word(1), word(2)]
    }

    /// Look up a key (Listing 4 `lookup`): the one-key case of
    /// [`Dht::lookup_many`].
    pub(crate) fn lookup(&self, key: u64) -> Option<u64> {
        let mut probe = [self.probe(key)];
        self.walk(&mut probe);
        probe[0].found.flatten()
    }

    /// Look up many keys at once, answers in key order. Their chains are
    /// walked together, one round per chain level (see [`Dht::walk`]), so
    /// `k` keys pay the latency of their deepest chain, not `k` chains'.
    pub(crate) fn lookup_many(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let mut probes: Vec<Probe> = keys.iter().map(|&k| self.probe(k)).collect();
        self.walk(&mut probes);
        probes.iter().map(|p| p.found.flatten()).collect()
    }

    fn probe(&self, key: u64) -> Probe {
        let (rank, bucket) = self.place(key);
        Probe {
            key,
            rank,
            bucket,
            at: 0,
            found: None,
        }
    }

    /// Walk every probe's chain, level by level: level 0 reads the bucket heads
    /// (word-atomic `get`s), level `k` every unfinished chain's `k`-th entry
    /// ([`Dht::step`]). A level prefetches every word it will read (on Wall its
    /// cache misses overlap), then reads them all in one non-blocking batch (on
    /// Sim it pays one latency). The last probe left walks on alone, unbatched.
    fn walk(&self, probes: &mut [Probe]) {
        let mut live = probes.len();
        while live > 1 {
            for p in probes.iter().filter(|p| p.found.is_none()) {
                let (word, words) = match p.at {
                    0 => (p.bucket, 1),
                    at => (self.entry_word(at), 3),
                };
                self.ctx.prefetch(WIN_INDEX, p.rank, word * 8, words * 8);
            }
            let mut restarted = false;
            self.ctx.begin_nb_batch();
            for p in probes.iter_mut().filter(|p| p.found.is_none()) {
                restarted |= self.step(p);
                live -= usize::from(p.found.is_some());
            }
            self.ctx.end_nb_batch();
            if restarted {
                // let the deleter finish its unlink
                std::thread::yield_now();
            }
        }
        if let Some(p) = probes.iter_mut().find(|p| p.found.is_none()) {
            while p.found.is_none() {
                if self.step(p) {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Read the next word or entry of `p`'s chain and move `p` on: to its answer,
    /// to the next entry, or — returning true — back to the bucket head, when the
    /// entry it read is mid-delete (self-pointing: the chain beyond is opaque).
    #[inline]
    fn step(&self, p: &mut Probe) -> bool {
        if p.at == 0 {
            p.at = self.ctx.get_u64(WIN_INDEX, p.rank, p.bucket);
            p.found = (p.at == 0).then_some(None);
            return false;
        }
        let [k, v, next] = self.read_entry(p.rank, p.at);
        if next == p.at {
            p.at = 0;
            return true;
        }
        if k == p.key {
            p.found = Some(Some(v));
        } else if next == 0 {
            p.found = Some(None);
        } else {
            p.at = next;
        }
        false
    }

    /// Delete a key (Listing 4 `delete`). Returns whether it was present.
    pub(crate) fn delete(&self, key: u64) -> bool {
        let (rank, bucket) = self.place(key);
        'restart: loop {
            let mut cur = self.ctx.aget_u64(WIN_INDEX, rank, bucket);
            while cur != 0 {
                let [k, _, next] = self.read_entry(rank, cur);
                if next == cur {
                    // someone is deleting `cur`; restart once it is unlinked
                    std::thread::yield_now();
                    continue 'restart;
                }
                if k == key {
                    // CAS 1: mark the entry by pointing its next to itself
                    let prev = self
                        .ctx
                        .cas_u64(WIN_INDEX, rank, self.next_word(cur), next, cur);
                    if prev != next {
                        // lost a race (entry or its successor changed)
                        continue 'restart;
                    }
                    // CAS 2: unlink — we own `cur`; retry until the
                    // predecessor cell is swung past it
                    self.unlink(rank, bucket, cur, next);
                    self.dealloc(rank, cur);
                    return true;
                }
                cur = next;
            }
            return false;
        }
    }

    /// Swing whichever cell currently points at `victim` to `successor`.
    /// The caller owns `victim` (marked by CAS 1), so this terminates as
    /// soon as a consistent predecessor is found — walking restarts while
    /// neighbouring deletions are in flight.
    fn unlink(&self, rank: usize, bucket: usize, victim: u64, successor: u64) {
        loop {
            let mut cell = bucket;
            let mut ptr = self.ctx.aget_u64(WIN_INDEX, rank, cell);
            loop {
                if ptr == victim {
                    let prev = self.ctx.cas_u64(WIN_INDEX, rank, cell, victim, successor);
                    if prev == victim {
                        return;
                    }
                    break; // cell changed under us: rewalk from the bucket
                }
                if ptr == 0 {
                    // victim temporarily unreachable (a neighbouring marked
                    // entry hides it); wait for that deleter to finish
                    break;
                }
                let nw = self.next_word(ptr);
                let next = self.ctx.get_u64(WIN_INDEX, rank, nw);
                if next == ptr {
                    // marked predecessor: its deleter will restore
                    // reachability; rewalk
                    break;
                }
                cell = nw;
                ptr = next;
            }
            std::thread::yield_now();
        }
    }
}

/// Offline decode of one rank's DHT partition from its raw **index
/// window bytes** (a snapshot's fourth window): walks every bucket
/// chain in the byte image and returns the live `(key, value)` pairs.
///
/// Recovery primitive: a recovery rebuilds the database at fresh
/// addresses (on `Q` ranks, `Q = P` included) instead of `put`ting the
/// window bytes back, so the logical contents are lifted out of the
/// image. Also the first step of every OLAP view sweep
/// (`gda::scan`). The image was taken quiesced, so no marked
/// (self-pointing) entries can appear; one is treated as end-of-chain
/// defensively, as is any structurally impossible link.
///
/// Total on any byte image: nothing past `win.len()` is read, and since
/// a live entry sits on exactly one chain, at most `dht_heap_per_rank`
/// entries are visited over *all* buckets — a link cycle reachable from
/// every bucket ends the decode instead of being walked once per bucket.
pub(crate) fn decode_partition(cfg: &GdaConfig, win: &[u8]) -> Vec<(u64, u64)> {
    let nwords = win.len() / 8;
    let word = |i: usize| -> u64 { u64::from_le_bytes(win[i * 8..i * 8 + 8].try_into().unwrap()) };
    let nb = cfg.dht_buckets_per_rank;
    let heap = cfg.dht_heap_per_rank as u64;
    let heap_base = 2 + nb;
    let mut out = Vec::new();
    let mut budget = cfg.dht_heap_per_rank;
    // a truncated image has fewer bucket words than the config says
    for b in 0..nb.min(nwords.saturating_sub(2)) {
        let mut ptr = word(2 + b);
        while ptr != 0 && ptr <= heap {
            let ew = heap_base + 3 * (ptr as usize - 1);
            if ew + 2 >= nwords {
                break;
            }
            let k = word(ew);
            let v = word(ew + 1);
            let next = word(ew + 2);
            if next == ptr {
                break; // marked entry: impossible in a quiesced snapshot
            }
            if budget == 0 {
                return out; // more visits than entries: a cycle
            }
            budget -= 1;
            if k != FREE_KEY {
                out.push((k, v));
            }
            ptr = next;
        }
    }
    out
}

/// Collective: every `(app id, primary)` pair of the whole DHT whose
/// primary block lives on this rank. Each rank decodes **its own**
/// partition out of the raw index window (one local sequential read, no
/// remote operations, [`decode_partition`]) and one `alltoallv` routes
/// every pair to its primary's rank — DHT placement is by hash, storage
/// is not. The first step of an OLAP view sweep (`crate::scan`) and of a
/// full checkpoint's live-set walk (`crate::persist`).
pub(crate) fn owned_entries(ctx: &RankCtx, cfg: &GdaConfig) -> Vec<(u64, u64)> {
    let mut img = vec![0u8; ctx.win_len_bytes(WIN_INDEX)];
    ctx.get_bytes(WIN_INDEX, ctx.rank(), 0, &mut img);
    let pairs = decode_partition(cfg, &img);
    ctx.charge_cpu(pairs.len() as u64 + cfg.dht_buckets_per_rank as u64);
    let mut routed: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ctx.nranks()];
    for (app, raw) in pairs {
        routed[DPtr::from_raw(raw).rank()].push((app, raw));
    }
    ctx.alltoallv(routed).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma::CostModel;

    /// Entries in this rank's partition, decoded from a copy of its
    /// index window (the caller keeps the partition quiet).
    fn partition_len(ctx: &RankCtx, cfg: &GdaConfig) -> usize {
        let mut img = vec![0u8; ctx.win_len_bytes(WIN_INDEX)];
        ctx.get_bytes(WIN_INDEX, ctx.rank(), 0, &mut img);
        decode_partition(cfg, &img).len()
    }

    fn fabric(n: usize) -> (rma::Fabric, GdaConfig) {
        let cfg = GdaConfig::tiny();
        (cfg.build_fabric(n, CostModel::zero()), cfg)
    }

    #[test]
    fn hash_mixes() {
        // sequential keys spread over both rank and bucket space
        let mut ranks = std::collections::HashSet::new();
        for k in 0..64u64 {
            ranks.insert(hash64(k) % 8);
        }
        assert!(ranks.len() >= 6, "poor rank dispersion: {ranks:?}");
        assert_ne!(hash64(1), hash64(2));
    }

    #[test]
    fn insert_lookup_single_rank() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            for k in 0..100u64 {
                dht.insert(k, k * 2 + 1).unwrap();
            }
            for k in 0..100u64 {
                assert_eq!(dht.lookup(k), Some(k * 2 + 1));
            }
            assert_eq!(dht.lookup(100), None);
            assert_eq!(partition_len(ctx, &cfg), 100);
        });
    }

    #[test]
    fn delete_restores_capacity() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            for round in 0..4 {
                for k in 0..cfg.dht_heap_per_rank as u64 {
                    dht.insert(k, round).unwrap();
                }
                assert!(dht.insert(999_999, 0).is_err(), "heap should be full");
                for k in 0..cfg.dht_heap_per_rank as u64 {
                    assert!(dht.delete(k), "round {round} key {k}");
                }
                assert_eq!(partition_len(ctx, &cfg), 0);
            }
        });
    }

    #[test]
    fn delete_missing_is_false() {
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            assert!(!dht.delete(7));
            dht.insert(7, 1).unwrap();
            assert!(dht.delete(7));
            assert!(!dht.delete(7));
            assert_eq!(dht.lookup(7), None);
        });
    }

    #[test]
    fn distributed_insert_lookup() {
        let (f, cfg) = fabric(4);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            // each rank inserts its own keyspace slice
            let base = ctx.rank() as u64 * 1000;
            for k in 0..50 {
                dht.insert(base + k, base + k + 7).unwrap();
            }
            ctx.barrier();
            // every rank looks up every key
            for r in 0..ctx.nranks() as u64 {
                for k in 0..50 {
                    assert_eq!(dht.lookup(r * 1000 + k), Some(r * 1000 + k + 7));
                }
            }
        });
    }

    #[test]
    fn concurrent_inserts_all_survive() {
        let (f, cfg) = fabric(8);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let me = ctx.rank() as u64;
            for k in 0..40 {
                dht.insert(me * 100 + k, me).unwrap();
            }
            ctx.barrier();
            let mine_visible = (0..40).all(|k| dht.lookup(me * 100 + k) == Some(me));
            assert!(mine_visible);
            let total: u64 = ctx.allreduce_sum_u64(40);
            let local_total: u64 = ctx.allreduce_sum_u64(partition_len(ctx, &cfg) as u64);
            assert_eq!(total, local_total);
        });
    }

    #[test]
    fn concurrent_delete_each_key_once() {
        // all ranks try to delete the same keys; each key must be deleted
        // exactly once in total
        let (f, cfg) = fabric(8);
        let deleted = f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            if ctx.rank() == 0 {
                for k in 0..64u64 {
                    dht.insert(k, k).unwrap();
                }
            }
            ctx.barrier();
            let mut mine = 0u64;
            for k in 0..64u64 {
                if dht.delete(k) {
                    mine += 1;
                }
            }
            ctx.barrier();
            assert_eq!(dht.lookup(13), None);
            mine
        });
        assert_eq!(deleted.iter().sum::<u64>(), 64);
    }

    #[test]
    fn concurrent_mixed_churn() {
        // ranks repeatedly insert and delete disjoint keys that share
        // buckets with other ranks' keys; exercises marked-entry traversal
        let (f, cfg) = fabric(6);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let me = ctx.rank() as u64;
            for round in 0..30 {
                for k in 0..8u64 {
                    dht.insert(me * 31 + k, round).unwrap();
                }
                for k in 0..8u64 {
                    assert_eq!(dht.lookup(me * 31 + k), Some(round), "round {round}");
                }
                for k in 0..8u64 {
                    assert!(dht.delete(me * 31 + k));
                }
            }
            ctx.barrier();
            let remaining = ctx.allreduce_sum_u64(partition_len(ctx, &cfg) as u64);
            assert_eq!(remaining, 0);
        });
    }

    /// Index-window word 1 is reserved: no insert or delete writes it,
    /// and lookups answer from the chains alone.
    #[test]
    fn reserved_word_stays_zero() {
        const RESERVED_WORD: usize = 1;
        let (f, cfg) = fabric(1);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            let reserved = || ctx.aget_u64(WIN_INDEX, 0, RESERVED_WORD);
            assert_eq!(reserved(), 0);
            dht.insert(5, 50).unwrap();
            assert_eq!(reserved(), 0);
            assert_eq!(dht.lookup(5), Some(50));
            dht.insert(6, 60).unwrap();
            assert_eq!(reserved(), 0);
            assert_eq!((dht.lookup(5), dht.lookup(6)), (Some(50), Some(60)));
            assert!(dht.delete(5));
            assert_eq!(reserved(), 0);
            assert_eq!((dht.lookup(5), dht.lookup(6)), (None, Some(60)));
            // deleting an absent key changes nothing
            assert!(!dht.delete(5));
            assert_eq!(reserved(), 0);
            assert_eq!((dht.lookup(5), dht.lookup(6)), (None, Some(60)));
        });
    }

    /// A real partition image after inserts and deletes, and the sorted
    /// live `(key, value)` pairs it holds.
    fn partition_image() -> (GdaConfig, Vec<u8>, Vec<(u64, u64)>) {
        let (f, cfg) = fabric(1);
        let win = f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            for k in 0..60u64 {
                dht.insert(k, k * 3 + 1).unwrap();
            }
            for k in (0..60u64).step_by(3) {
                assert!(dht.delete(k));
            }
            let mut win = vec![0u8; ctx.win_len_bytes(WIN_INDEX)];
            ctx.get_bytes(WIN_INDEX, 0, 0, &mut win);
            win
        });
        let want = (0..60u64)
            .filter(|k| !k.is_multiple_of(3))
            .map(|k| (k, k * 3 + 1))
            .collect();
        (cfg, win.into_iter().next().unwrap(), want)
    }

    fn sorted(mut pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        pairs.sort_unstable();
        pairs
    }

    /// The offline partition decoder must see exactly what live lookups
    /// see — it is the seed of every recovery.
    #[test]
    fn offline_decode_matches_live_contents() {
        let (cfg, win, want) = partition_image();
        assert_eq!(sorted(decode_partition(&cfg, &win)), want);
    }

    /// Hostile bytes: a window shorter than its bucket array used to
    /// panic at the first missing bucket word.
    #[test]
    fn decode_reads_nothing_past_a_truncated_window() {
        let (cfg, win, want) = partition_image();
        let buckets_end = (2 + cfg.dht_buckets_per_rank) * 8;
        for len in [0, 7, 8, 16, 17, buckets_end - 8, buckets_end] {
            assert!(decode_partition(&cfg, &win[..len]).is_empty(), "len {len}");
        }
        // entries cut off mid-heap end their chains; the rest decode
        let got = decode_partition(&cfg, &win[..buckets_end + 3 * 8 * 20]);
        assert!(!got.is_empty() && got.iter().all(|p| want.contains(p)));
    }

    /// Hostile bytes: a two-entry cycle A → B → A reachable from every
    /// bucket used to pass the per-bucket step guard once per bucket and
    /// return `buckets × (heap + 1)` pairs.
    #[test]
    fn decode_bounds_a_cycle_shared_by_every_bucket() {
        let cfg = GdaConfig::tiny();
        let mut words = vec![0u64; cfg.index_bytes() / 8];
        let heap_base = 2 + cfg.dht_buckets_per_rank;
        words[2..heap_base].fill(1);
        words[heap_base..heap_base + 6].copy_from_slice(&[10, 100, 2, 20, 200, 1]);
        let win: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let got = decode_partition(&cfg, &win);
        assert!(got.len() <= cfg.dht_heap_per_rank, "{} pairs", got.len());
        assert!(got.iter().all(|p| [(10, 100), (20, 200)].contains(p)));
    }

    proptest::proptest! {
        /// Random word corruptions and truncations of a real partition
        /// image: the decode never panics, never returns more pairs than
        /// the heap has entries, and is exact on an image left as it was.
        #[test]
        fn decode_is_total_on_corrupted_images(
            hits in proptest::collection::vec((0usize..4096, 0usize..6, proptest::prelude::any::<u64>()), 0..12),
            cut in 0usize..4096,
        ) {
            let (cfg, mut win, want) = partition_image();
            let pristine = win.clone();
            let nwords = win.len() / 8;
            for (at, kind, noise) in hits {
                // small values are plausible links, the rest is noise
                let value = match kind {
                    0 => 0,
                    1 => noise % (cfg.dht_heap_per_rank as u64 + 2),
                    2 => u64::MAX,
                    _ => noise,
                };
                let i = at % nwords;
                win[i * 8..i * 8 + 8].copy_from_slice(&value.to_le_bytes());
            }
            // most cases keep the whole window
            if cut < win.len() && cut % 4 == 0 {
                win.truncate(cut);
            }
            let got = decode_partition(&cfg, &win);
            proptest::prop_assert!(got.len() <= cfg.dht_heap_per_rank);
            if win == pristine {
                proptest::prop_assert_eq!(sorted(got), want);
            }
        }
    }

    /// `lookup_many` answers what one `lookup` per key answers: present
    /// and absent keys, keys chained in one bucket, a repeated key, in
    /// any order, from a rank that owns some chains and not others.
    #[test]
    fn lookup_many_matches_per_key_lookups() {
        let (f, cfg) = fabric(2);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            if ctx.rank() == 0 {
                for k in 0..60u64 {
                    dht.insert(k, k * 5 + 3).unwrap();
                }
                for k in (0..60u64).step_by(7) {
                    assert!(dht.delete(k));
                }
            }
            ctx.barrier();
            // present, deleted and never-inserted keys, one of them twice
            let keys: Vec<u64> = (0..80u64).rev().chain([13, 13]).collect();
            let one_by_one: Vec<_> = keys.iter().map(|&k| dht.lookup(k)).collect();
            assert_eq!(dht.lookup_many(&keys), one_by_one);
            assert_eq!(dht.lookup_many(&[]), Vec::new());
            // some present keys share a bucket: their chains are > 1 deep
            let mut places: Vec<_> = (0..60u64)
                .filter(|k| k % 7 != 0)
                .map(|k| dht.place(k))
                .collect();
            places.sort_unstable();
            assert!(places.windows(2).any(|w| w[0] == w[1]), "no shared bucket");
        });
    }

    /// A key whose entry is mid-delete (self-pointing) restarts its own
    /// walk until the deleter is done; the other keys of the same call
    /// are answered as if it were not there. (Whether the walk meets the
    /// self-pointer or the restored entry depends on thread timing; the
    /// answers must be the same either way, so only they are checked.)
    #[test]
    fn lookup_many_restarts_only_a_key_mid_delete() {
        let (f, cfg) = fabric(2);
        let victim = 9u64;
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            if ctx.rank() == 0 {
                for k in 0..40u64 {
                    dht.insert(k, k + 100).unwrap();
                }
            }
            ctx.barrier();
            let (rank, bucket) = dht.place(victim);
            if ctx.rank() == 1 {
                // CAS 1 of a delete: the victim's entry points at itself
                let mut at = ctx.get_u64(WIN_INDEX, rank, bucket);
                while dht.read_entry(rank, at)[0] != victim {
                    at = dht.read_entry(rank, at)[2];
                }
                let next = dht.read_entry(rank, at)[2];
                ctx.put_u64(WIN_INDEX, rank, dht.next_word(at), at);
                ctx.barrier();
                // ... and the deleter backs off: the entry is live again
                std::thread::sleep(std::time::Duration::from_millis(20));
                ctx.put_u64(WIN_INDEX, rank, dht.next_word(at), next);
            } else {
                ctx.barrier();
                let keys: Vec<u64> = (0..40u64).chain([77]).collect();
                let want: Vec<_> = keys.iter().map(|&k| (k < 40).then_some(k + 100)).collect();
                assert_eq!(dht.lookup_many(&keys), want);
                assert_eq!(
                    keys.iter().map(|&k| dht.lookup(k)).collect::<Vec<_>>(),
                    want
                );
            }
            ctx.barrier();
        });
    }

    /// On Sim, `k` keys whose chains sit on the other rank cost less than
    /// two single lookups — one latency per level, not per key — while
    /// the walk issues exactly the atomics and gets the `k` lookups do.
    #[test]
    fn lookup_many_pays_one_latency_per_level() {
        let cfg = GdaConfig::tiny();
        let f = cfg.build_fabric_on(2, CostModel::default(), rma::BackendKind::Sim);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            if ctx.rank() == 0 {
                for k in 0..60u64 {
                    dht.insert(k, k).unwrap();
                }
                let remote: Vec<u64> = (0..60u64)
                    .filter(|&k| dht.place(k).0 == 1)
                    .take(8)
                    .collect();
                assert_eq!(remote.len(), 8);
                let cost = |f: &dyn Fn()| {
                    let (s0, t0) = (ctx.stats_snapshot(), ctx.now_ns());
                    f();
                    let s1 = ctx.stats_snapshot();
                    (
                        ctx.now_ns() - t0,
                        s1.atomics - s0.atomics,
                        s1.gets - s0.gets,
                    )
                };
                let singles: Vec<_> = remote
                    .iter()
                    .map(|&k| cost(&|| assert_eq!(dht.lookup(k), Some(k))))
                    .collect();
                let many = cost(&|| {
                    assert_eq!(
                        dht.lookup_many(&remote),
                        remote.iter().map(|&k| Some(k)).collect::<Vec<_>>()
                    )
                });
                let dearest = singles.iter().map(|s| s.0).fold(0.0, f64::max);
                assert!(
                    many.0 < 2.0 * dearest,
                    "{} ns for 8 keys, {dearest} ns for one",
                    many.0
                );
                let sum = |i: fn(&(f64, u64, u64)) -> u64| singles.iter().map(i).sum::<u64>();
                assert_eq!((many.1, many.2), (sum(|s| s.1), sum(|s| s.2)));
            }
            ctx.barrier();
        });
    }

    #[test]
    fn lookup_during_concurrent_deletes() {
        let (f, cfg) = fabric(4);
        f.run(|ctx| {
            let dht = Dht::new(ctx, cfg);
            dht.init_collective();
            // persistent keys that must stay visible throughout
            if ctx.rank() == 0 {
                for k in 1000..1040u64 {
                    dht.insert(k, 1).unwrap();
                }
            }
            ctx.barrier();
            if ctx.rank() % 2 == 0 {
                // churners
                let me = ctx.rank() as u64;
                for _ in 0..50 {
                    for k in 0..8u64 {
                        dht.insert(me * 31 + k, 2).unwrap();
                    }
                    for k in 0..8u64 {
                        dht.delete(me * 31 + k);
                    }
                }
            } else {
                // readers
                for _ in 0..100 {
                    for k in 1000..1040u64 {
                        assert_eq!(dht.lookup(k), Some(1), "stable key vanished");
                    }
                }
            }
            ctx.barrier();
        });
    }
}
