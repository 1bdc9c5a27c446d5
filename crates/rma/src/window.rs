//! RMA windows: word-granular atomic memory regions.
//!
//! A window is the unit of memory a rank *exposes* to one-sided access by
//! other ranks (§5.1). We store windows as `Box<[AtomicU64]>`:
//!
//! * all remote atomics (CAS, FADD, AGET, APUT) operate on naturally aligned
//!   64-bit words — exactly the hardware-accelerated granularity the paper
//!   builds its design around (§5.3, "Using 64-bit distributed pointers
//!   facilitates harnessing hardware accelerated remote atomic operations");
//! * bulk `GET`/`PUT` of byte ranges run as one copy kernel — an unaligned
//!   head, a body of whole words, a partial tail — in which every word is
//!   still one acquire load or release store. That reproduces RDMA
//!   semantics: a bulk transfer is *not* atomic with respect to concurrent
//!   accesses (it may mix old and new words) and must be ordered by
//!   flushes and application-level locks, but no aligned word is ever
//!   torn, which is what the seqlock readers in `gda::hio` rely on.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::WORD_BYTES;

/// A word-granular shared memory region.
pub struct Window {
    words: Box<[AtomicU64]>,
}

impl std::fmt::Debug for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Window")
            .field("bytes", &(self.words.len() * WORD_BYTES))
            .finish()
    }
}

impl Window {
    /// Create a zero-initialized window of at least `bytes` bytes (rounded up
    /// to whole words).
    pub fn new(bytes: usize) -> Self {
        let nwords = bytes.div_ceil(WORD_BYTES);
        let mut v = Vec::with_capacity(nwords);
        v.resize_with(nwords, || AtomicU64::new(0));
        Self {
            words: v.into_boxed_slice(),
        }
    }

    /// Size in bytes.
    #[inline]
    pub fn len_bytes(&self) -> usize {
        self.words.len() * WORD_BYTES
    }

    /// Size in words.
    #[inline]
    pub fn len_words(&self) -> usize {
        self.words.len()
    }

    /// Atomic load of word `idx` (acquire).
    #[inline]
    pub fn load(&self, idx: usize) -> u64 {
        self.words[idx].load(Ordering::Acquire)
    }

    /// Atomic store to word `idx` (release).
    #[inline]
    pub fn store(&self, idx: usize, v: u64) {
        self.words[idx].store(v, Ordering::Release);
    }

    /// Atomic compare-and-swap on word `idx`; returns the previous value.
    #[inline]
    pub fn cas(&self, idx: usize, compare: u64, new: u64) -> u64 {
        match self.words[idx].compare_exchange(compare, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) => prev,
            Err(prev) => prev,
        }
    }

    /// Atomic fetch-and-add on word `idx`; returns the previous value.
    #[inline]
    pub fn fadd(&self, idx: usize, delta: u64) -> u64 {
        self.words[idx].fetch_add(delta, Ordering::AcqRel)
    }

    /// Atomic fetch-and-sub on word `idx`; returns the previous value.
    #[inline]
    pub fn fsub(&self, idx: usize, delta: u64) -> u64 {
        self.words[idx].fetch_sub(delta, Ordering::AcqRel)
    }

    /// Bulk read of `dst.len()` bytes starting at byte offset `off`.
    ///
    /// Non-atomic across words: concurrent writers may produce a mix of
    /// old and new words (torn bulk reads), as on real RDMA hardware —
    /// but every aligned word read is one atomic load, so it is always a
    /// value some writer stored. Callers serialize through locks/flushes
    /// or validate with a seqlock, as GDA does.
    pub fn read_bytes(&self, off: usize, dst: &mut [u8]) {
        let span = self.span(off, dst.len(), "read");
        let (head, rest) = dst.split_at_mut(span.head_len);
        let (body, tail) = rest.split_at_mut(span.body.len() * WORD_BYTES);
        if let Some(w) = span.head {
            let w = w.load(Ordering::Acquire).to_le_bytes();
            head.copy_from_slice(&w[span.head_at..span.head_at + span.head_len]);
        }
        for (chunk, w) in body.chunks_exact_mut(WORD_BYTES).zip(span.body) {
            chunk.copy_from_slice(&w.load(Ordering::Acquire).to_le_bytes());
        }
        if let Some(w) = span.tail {
            tail.copy_from_slice(&w.load(Ordering::Acquire).to_le_bytes()[..tail.len()]);
        }
    }

    /// Bulk write of `src` starting at byte offset `off`.
    ///
    /// Whole words are stored atomically; partial boundary words use a
    /// load-modify-store (safe here because GDA guards all bulk block writes
    /// with its distributed reader-writer locks, mirroring the paper's ACI
    /// protocol).
    pub fn write_bytes(&self, off: usize, src: &[u8]) {
        let span = self.span(off, src.len(), "write");
        let (head, rest) = src.split_at(span.head_len);
        let (body, tail) = rest.split_at(span.body.len() * WORD_BYTES);
        if let Some(w) = span.head {
            patch(w, span.head_at, head);
        }
        for (chunk, w) in body.chunks_exact(WORD_BYTES).zip(span.body) {
            let v = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields words"));
            w.store(v, Ordering::Release);
        }
        if let Some(w) = span.tail {
            patch(w, 0, tail);
        }
    }

    /// Zero a byte range (used when releasing blocks back to the pool).
    pub fn zero_bytes(&self, off: usize, len: usize) {
        const Z: [u8; WORD_BYTES] = [0; WORD_BYTES];
        let span = self.span(off, len, "write");
        if let Some(w) = span.head {
            patch(w, span.head_at, &Z[..span.head_len]);
        }
        for w in span.body {
            w.store(0, Ordering::Release);
        }
        if let Some(w) = span.tail {
            patch(w, 0, &Z[..span.tail_len]);
        }
    }

    /// Bounds-check the byte range `[off, off + len)` and split the words
    /// it touches into the three parts every bulk kernel walks.
    #[inline]
    fn span(&self, off: usize, len: usize, what: &str) -> Span<'_> {
        assert!(
            off.checked_add(len)
                .is_some_and(|end| end <= self.len_bytes()),
            "window {what} out of bounds: off={off} len={len} window={}",
            self.len_bytes()
        );
        let head_at = off % WORD_BYTES;
        let head_len = if head_at == 0 {
            0
        } else {
            (WORD_BYTES - head_at).min(len)
        };
        let words = &self.words[off / WORD_BYTES..(off + len).div_ceil(WORD_BYTES)];
        let (head, words) = match words.split_first() {
            Some((first, rest)) if head_len > 0 => (Some(first), rest),
            _ => (None, words),
        };
        let (body, tail) = words.split_at((len - head_len) / WORD_BYTES);
        let tail_len = (len - head_len) % WORD_BYTES;
        Span {
            head,
            head_at,
            head_len,
            body,
            // an empty range that starts off a word boundary still lies
            // "in" a word: it must not be touched
            tail: tail.first().filter(|_| tail_len > 0),
            tail_len,
        }
    }
}

/// The words a byte range touches: a partial first word (when the range
/// starts off a word boundary) holding `head_len` bytes of it from byte
/// `head_at` on, whole `body` words, and a partial last word holding
/// the `tail_len` bytes that remain.
struct Span<'a> {
    head: Option<&'a AtomicU64>,
    head_at: usize,
    head_len: usize,
    body: &'a [AtomicU64],
    tail: Option<&'a AtomicU64>,
    tail_len: usize,
}

/// Overwrite bytes `[at, at + src.len())` of one word, keeping the rest
/// (load-modify-store; the partial boundary words of a bulk write).
#[inline]
fn patch(word: &AtomicU64, at: usize, src: &[u8]) {
    let mut w = word.load(Ordering::Acquire).to_le_bytes();
    w[at..at + src.len()].copy_from_slice(src);
    word.store(u64::from_le_bytes(w), Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_up_to_words() {
        let w = Window::new(3);
        assert_eq!(w.len_bytes(), 8);
        assert_eq!(w.len_words(), 1);
        let w = Window::new(16);
        assert_eq!(w.len_words(), 2);
    }

    #[test]
    fn word_ops() {
        let w = Window::new(64);
        w.store(2, 0xdead_beef);
        assert_eq!(w.load(2), 0xdead_beef);
        assert_eq!(w.cas(2, 0xdead_beef, 7), 0xdead_beef);
        assert_eq!(w.load(2), 7);
        // failed CAS returns current value and leaves memory untouched
        assert_eq!(w.cas(2, 99, 1), 7);
        assert_eq!(w.load(2), 7);
        assert_eq!(w.fadd(2, 10), 7);
        assert_eq!(w.load(2), 17);
        assert_eq!(w.fsub(2, 17), 17);
        assert_eq!(w.load(2), 0);
    }

    #[test]
    fn byte_roundtrip_aligned() {
        let w = Window::new(64);
        let src: Vec<u8> = (0..32).collect();
        w.write_bytes(8, &src);
        let mut dst = vec![0u8; 32];
        w.read_bytes(8, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn byte_roundtrip_unaligned() {
        let w = Window::new(64);
        let src: Vec<u8> = (100..100 + 13).collect();
        w.write_bytes(3, &src);
        let mut dst = vec![0u8; 13];
        w.read_bytes(3, &mut dst);
        assert_eq!(src, dst);
        // neighbouring bytes untouched
        let mut b = [0u8; 3];
        w.read_bytes(0, &mut b);
        assert_eq!(b, [0, 0, 0]);
    }

    #[test]
    fn unaligned_write_preserves_neighbours() {
        let w = Window::new(32);
        w.write_bytes(0, &[0xAA; 16]);
        w.write_bytes(5, &[0xBB; 4]);
        let mut dst = [0u8; 16];
        w.read_bytes(0, &mut dst);
        for (i, b) in dst.iter().enumerate() {
            let expect = if (5..9).contains(&i) { 0xBB } else { 0xAA };
            assert_eq!(*b, expect, "byte {i}");
        }
    }

    #[test]
    fn zeroing() {
        let w = Window::new(1024);
        w.write_bytes(0, &[0xFF; 1024]);
        w.zero_bytes(100, 700);
        let mut dst = [0u8; 1024];
        w.read_bytes(0, &mut dst);
        assert!(dst[..100].iter().all(|&b| b == 0xFF));
        assert!(dst[100..800].iter().all(|&b| b == 0));
        assert!(dst[800..].iter().all(|&b| b == 0xFF));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let w = Window::new(8);
        let mut dst = [0u8; 16];
        w.read_bytes(0, &mut dst);
    }

    #[test]
    fn empty_ranges_touch_nothing() {
        let w = Window::new(16);
        w.write_bytes(0, &[0xAB; 16]);
        for off in 0..=16 {
            let span = w.span(off, 0, "write");
            assert!(span.head.is_none() && span.body.is_empty() && span.tail.is_none());
            w.write_bytes(off, &[]);
            w.zero_bytes(off, 0);
            w.read_bytes(off, &mut []);
        }
        let mut all = [0u8; 16];
        w.read_bytes(0, &mut all);
        assert_eq!(all, [0xAB; 16]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn overflowing_range_panics() {
        Window::new(8).zero_bytes(usize::MAX, 2);
    }

    /// One step of the model comparison: the same operation on the
    /// window and on a plain byte array.
    #[derive(Debug, Clone)]
    enum BulkOp {
        Write(usize, Vec<u8>),
        Zero(usize, usize),
        Read(usize, usize),
    }

    const MODEL_BYTES: usize = 96;

    fn arb_bulk_op() -> impl Strategy<Value = BulkOp> {
        // offsets and lengths cover empty, sub-word, unaligned head,
        // unaligned tail and whole-window ranges
        let range = || {
            (0..=MODEL_BYTES, 0..=MODEL_BYTES)
                .prop_map(|(off, len)| (off, len.min(MODEL_BYTES - off)))
        };
        prop_oneof![
            (range(), any::<u8>()).prop_map(|((off, len), seed)| {
                let bytes = (0..len).map(|i| seed.wrapping_add(i as u8) | 1).collect();
                BulkOp::Write(off, bytes)
            }),
            range().prop_map(|(off, len)| BulkOp::Zero(off, len)),
            range().prop_map(|(off, len)| BulkOp::Read(off, len)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sequence of bulk writes, zeroings and reads behaves like
        /// the same sequence on a byte array: what a range read returns,
        /// and every byte outside a written range, included.
        #[test]
        fn bulk_ops_match_byte_array_model(ops in prop::collection::vec(arb_bulk_op(), 1..24)) {
            let w = Window::new(MODEL_BYTES);
            let mut model = [0u8; MODEL_BYTES];
            for op in &ops {
                match op {
                    BulkOp::Write(off, bytes) => {
                        w.write_bytes(*off, bytes);
                        model[*off..*off + bytes.len()].copy_from_slice(bytes);
                    }
                    BulkOp::Zero(off, len) => {
                        w.zero_bytes(*off, *len);
                        model[*off..*off + *len].fill(0);
                    }
                    BulkOp::Read(off, len) => {
                        let mut got = vec![0xEEu8; *len];
                        w.read_bytes(*off, &mut got);
                        prop_assert_eq!(&got[..], &model[*off..*off + *len]);
                    }
                }
                let mut all = [0u8; MODEL_BYTES];
                w.read_bytes(0, &mut all);
                prop_assert!(all == model, "window diverged from the model after {op:?}");
            }
        }
    }

    /// A bulk reader racing a bulk writer may see old and new words
    /// mixed, but never a word that is neither: every aligned word moves
    /// by one atomic access. The barrier starts both threads inside the
    /// writer's first pass; the writer then keeps flipping until the
    /// reader has finished all its passes.
    #[test]
    fn racing_bulk_reader_sees_only_whole_words() {
        const WORDS: usize = 512;
        // old and new differ in every byte of every word, so any mix
        // below word granularity is neither
        let old: Vec<u8> = (1..=WORDS as u64)
            .flat_map(|i| i.wrapping_mul(0x0101_0101_0101_0101).to_le_bytes())
            .collect();
        let new: Vec<u8> = old.iter().map(|b| !b).collect();
        let w = Window::new(WORDS * WORD_BYTES);
        w.write_bytes(0, &old);
        let start = std::sync::Barrier::new(2);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    w.write_bytes(0, &new);
                    w.write_bytes(0, &old);
                }
            });
            let reader = s.spawn(|| {
                let mut got = vec![0u8; WORDS * WORD_BYTES];
                start.wait();
                for _ in 0..2_000 {
                    // an unaligned start exercises head and tail too
                    w.read_bytes(3, &mut got[3..]);
                    for (i, word) in got.chunks_exact(WORD_BYTES).enumerate().skip(1) {
                        let at = i * WORD_BYTES..(i + 1) * WORD_BYTES;
                        assert!(
                            word == &old[at.clone()] || word == &new[at],
                            "word {i} is neither old nor new: {word:?}"
                        );
                    }
                }
                done.store(true, Ordering::Release);
            });
            reader.join().expect("reader thread");
        });
    }
}
