//! Fabric-level dirty-chunk tracking: the write-capture substrate of
//! incremental (delta) checkpoints.
//!
//! Every one-sided write operation ([`crate::RankCtx::put_bytes`],
//! `put_u64`, `aput_u64`, `cas_u64`, `fadd_u64`, `fsub_u64`) marks the
//! byte range it touched in a per-target-rank, per-window bitmap at a
//! fixed *chunk* granularity. Tracking at the fabric layer — rather than
//! at engine call sites — means a write path added later can never
//! silently escape the dirty map: anything that can change window bytes
//! goes through these six operations, including bulk loads, recovery
//! restores and maintenance header patches — except the one documented
//! volatile put below.
//!
//! ## Volatile writes
//!
//! [`crate::RankCtx::put_bytes_volatile`] is `put_bytes` without the
//! mark: the same clock charge, the same counters, the same window
//! bytes, but no checkpoint ever ships them. An engine uses it only for
//! bytes its recovery never reads. GDA writes its MVCC version archives
//! (and the word that seals a truncated archive chain) this way: the
//! archives serve pinned readers of the *running* database, while
//! recovery rebuilds every object from its live chain alone. That is
//! sound because every block of a live chain is (re)written by a
//! *marking* put after its last allocation — an archive block freed and
//! reused by a live chain is dirty again before any checkpoint can
//! depend on it — and recovery never follows an archive link.
//!
//! The consumer is the checkpoint protocol (`gda::persist`): while the
//! fabric is quiesced, each rank *drains* the map for its own windows
//! ([`DirtyMap::take`]) and writes only the chunks whose bits are set.
//! A checkpoint that has to unwind puts the drained bits back
//! ([`DirtyMap::remark`]) so the aborted attempt loses no information.
//!
//! Marking is a relaxed `fetch_or` per touched bitmap word — one shared
//! cache line of overhead per ~`64 × chunk` bytes of window, negligible
//! next to the operation's own transfer charge.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::WinId;

/// Default chunk granularity when the builder does not set one.
pub const DEFAULT_CHUNK_BYTES: usize = 256;

/// Per-fabric dirty-chunk bitmaps: `maps[rank][win]` covers rank
/// `rank`'s instance of window `win`.
pub struct DirtyMap {
    chunk_bytes: usize,
    maps: Vec<Vec<Box<[AtomicU64]>>>,
}

impl std::fmt::Debug for DirtyMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirtyMap")
            .field("chunk_bytes", &self.chunk_bytes)
            .field("ranks", &self.maps.len())
            .finish()
    }
}

impl DirtyMap {
    /// Build zeroed (all-clean) bitmaps for `nranks` ranks and the given
    /// per-window byte sizes, at `chunk_bytes` granularity.
    pub fn new(nranks: usize, window_bytes: &[usize], chunk_bytes: usize) -> Self {
        assert!(chunk_bytes >= 8, "dirty chunk must cover at least a word");
        let per_rank = |_: usize| -> Vec<Box<[AtomicU64]>> {
            window_bytes
                .iter()
                .map(|&b| {
                    let chunks = b.div_ceil(chunk_bytes);
                    let words = chunks.div_ceil(64).max(1);
                    let mut v = Vec::with_capacity(words);
                    v.resize_with(words, || AtomicU64::new(0));
                    v.into_boxed_slice()
                })
                .collect()
        };
        Self {
            chunk_bytes,
            maps: (0..nranks).map(per_rank).collect(),
        }
    }

    /// The chunk granularity in bytes.
    #[inline]
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Number of chunks tracked for one window instance.
    pub fn chunk_count(&self, win: WinId, rank: usize) -> usize {
        self.maps[rank][win.0].len() * 64
    }

    /// Mark the byte range `[off, off + len)` of `rank`'s window `win`
    /// dirty. Zero-length writes mark nothing.
    #[inline]
    pub fn mark(&self, win: WinId, rank: usize, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first = off / self.chunk_bytes;
        let last = (off + len - 1) / self.chunk_bytes;
        let words = &self.maps[rank][win.0];
        let mut c = first;
        while c <= last {
            let word = c / 64;
            // set every touched bit of this bitmap word in one RMW
            let hi_in_word = last.min(word * 64 + 63);
            let mut bits = 0u64;
            for b in c..=hi_in_word {
                bits |= 1u64 << (b % 64);
            }
            words[word].fetch_or(bits, Ordering::Relaxed);
            c = hi_in_word + 1;
        }
    }

    /// Drain and clear the bitmaps of `rank`'s windows (one raw `u64`
    /// vector per window, in window order). Callers run this quiesced —
    /// a concurrent marker could race the swap and land in either epoch.
    pub fn take(&self, rank: usize) -> Vec<Vec<u64>> {
        self.maps[rank]
            .iter()
            .map(|words| {
                words
                    .iter()
                    .map(|w| w.swap(0, Ordering::AcqRel))
                    .collect::<Vec<u64>>()
            })
            .collect()
    }

    /// OR previously [`DirtyMap::take`]n bitmaps back in (checkpoint
    /// unwind: the aborted attempt must not launder its dirty set).
    pub fn remark(&self, rank: usize, bitmaps: &[Vec<u64>]) {
        for (words, bits) in self.maps[rank].iter().zip(bitmaps) {
            for (w, &b) in words.iter().zip(bits) {
                if b != 0 {
                    w.fetch_or(b, Ordering::AcqRel);
                }
            }
        }
    }
}

/// Chunk indices of the set bits in a drained bitmap, ascending.
pub fn set_chunks(bitmap: &[u64]) -> Vec<usize> {
    let mut out = Vec::new();
    for (wi, &w) in bitmap.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            out.push(wi * 64 + b);
            w &= w - 1;
        }
    }
    out
}

/// Maximal runs `(first chunk, chunk count)` of adjacent set bits among
/// the first `limit` chunks of a drained bitmap, ascending — what a
/// delta checkpoint ships: one contiguous byte range per run.
pub fn set_runs(bitmap: &[u64], limit: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let limit = limit.min(bitmap.len() * 64);
    // first bit at or after `from` whose value is `set`, below `limit`
    let next = move |from: usize, set: bool| -> Option<usize> {
        let mut wi = from / 64;
        let mut mask = u64::MAX << (from % 64);
        while wi * 64 < limit {
            let w = if set { bitmap[wi] } else { !bitmap[wi] } & mask;
            if w != 0 {
                let bit = wi * 64 + w.trailing_zeros() as usize;
                return (bit < limit).then_some(bit);
            }
            wi += 1;
            mask = u64::MAX;
        }
        None
    };
    let mut from = 0;
    std::iter::from_fn(move || {
        let first = next(from, true)?;
        let end = next(first, false).unwrap_or(limit);
        from = end;
        Some((first, end - first))
    })
}

/// Total set bits across a drained per-window bitmap set.
pub fn dirty_chunks(bitmaps: &[Vec<u64>]) -> u64 {
    bitmaps
        .iter()
        .flat_map(|b| b.iter())
        .map(|w| w.count_ones() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_take_clear_roundtrip() {
        let m = DirtyMap::new(2, &[1024, 64], 64);
        m.mark(WinId(0), 1, 0, 1); // chunk 0
        m.mark(WinId(0), 1, 200, 16); // chunks 3..=3
        m.mark(WinId(1), 1, 8, 8); // chunk 0 of win 1
                                   // rank 0 untouched
        assert_eq!(dirty_chunks(&m.take(0)), 0);
        let t = m.take(1);
        assert_eq!(set_chunks(&t[0]), vec![0, 3]);
        assert_eq!(set_chunks(&t[1]), vec![0]);
        // drained: a second take is clean
        assert_eq!(dirty_chunks(&m.take(1)), 0);
    }

    #[test]
    fn range_spanning_chunks_and_words() {
        let m = DirtyMap::new(1, &[1 << 20], 64);
        // spans chunks 10 ..= 70 — crosses the word-0/word-1 boundary
        m.mark(WinId(0), 0, 10 * 64, 61 * 64);
        let t = m.take(0);
        assert_eq!(set_chunks(&t[0]), (10..=70).collect::<Vec<_>>());
    }

    #[test]
    fn remark_restores_drained_bits() {
        let m = DirtyMap::new(1, &[4096], 256);
        m.mark(WinId(0), 0, 300, 8);
        let t = m.take(0);
        assert_eq!(dirty_chunks(&t), 1);
        m.remark(0, &t);
        let t2 = m.take(0);
        assert_eq!(set_chunks(&t2[0]), vec![1]);
    }

    #[test]
    fn runs_coalesce_adjacent_chunks_up_to_the_limit() {
        let m = DirtyMap::new(1, &[200 * 64], 64);
        m.mark(WinId(0), 0, 0, 1); // chunk 0
        m.mark(WinId(0), 0, 5 * 64, 3 * 64); // chunks 5..=7
        m.mark(WinId(0), 0, 60 * 64, 10 * 64); // 60..=69: crosses a bitmap word
        m.mark(WinId(0), 0, 190 * 64, 10 * 64); // 190..=199: up to the last chunk
        let t = m.take(0);
        let runs = |limit| set_runs(&t[0], limit).collect::<Vec<_>>();
        assert_eq!(runs(200), vec![(0, 1), (5, 3), (60, 10), (190, 10)]);
        // the bitmap is padded to whole words; chunks at or past the
        // limit (beyond the window's end) are never reported
        assert_eq!(runs(usize::MAX), runs(200));
        assert_eq!(runs(195), vec![(0, 1), (5, 3), (60, 10), (190, 5)]);
        assert_eq!(runs(64), vec![(0, 1), (5, 3), (60, 4)]);
        assert_eq!(runs(0), vec![]);
        // every set chunk is in exactly one run
        let total: usize = runs(200).iter().map(|r| r.1).sum();
        assert_eq!(total, set_chunks(&t[0]).len());
        // a full bitmap is one run
        assert_eq!(
            set_runs(&[u64::MAX; 3], 150).collect::<Vec<_>>(),
            vec![(0, 150)]
        );
    }

    #[test]
    fn zero_length_marks_nothing() {
        let m = DirtyMap::new(1, &[4096], 256);
        m.mark(WinId(0), 0, 100, 0);
        assert_eq!(dirty_chunks(&m.take(0)), 0);
    }

    #[test]
    fn last_byte_of_window_marks_last_chunk() {
        let m = DirtyMap::new(1, &[1024], 256);
        m.mark(WinId(0), 0, 1016, 8);
        assert_eq!(set_chunks(&m.take(0)[0]), vec![3]);
    }
}
