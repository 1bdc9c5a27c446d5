//! Byte-level primitives of the on-disk format: the file magics and
//! version, the streaming [`Checksum`], and the little-endian
//! encoder/decoder pair every persisted structure (snapshot, manifest,
//! redo frame) is written and parsed with.

use std::io::Read;

use gdi::{GdiError, GdiResult};

/// Magic prefix of a per-rank snapshot file.
pub(super) const SNAP_MAGIC: &[u8; 8] = b"GDASNAP\x01";
/// Magic prefix of a manifest file.
pub(super) const MANIFEST_MAGIC: &[u8; 8] = b"GDAMANI\x01";
/// On-disk format version (bumped on incompatible layout changes).
/// Snapshot and manifest files start with `[magic 8][version u32]`, and
/// readers check those twelve bytes *before* the checksum, so a file of
/// another version is reported as such rather than as corrupt.
/// v2: the checksum's FNV-1a prime was corrected (v1 shipped a
/// truncated constant), which changes every snapshot/manifest/frame
/// checksum.
/// v3: the system window grew by one word (the per-rank topology-epoch
/// counter backing OLAP scan views), so every snapshot's window image
/// lengths changed.
/// v4: MVCC snapshot isolation — the block format gained a per-block
/// version-stamp word (`[next:8][stamp:8][payload]`), the holder header
/// grew to 48 bytes (commit epoch + archived-version pointer), the
/// system window gained three words (commit-epoch counter, read-epoch
/// watermark, min-active-snapshot), and the manifest's config encoding
/// gained the `mvcc`/`mvcc_chain_limit` fields.
/// v5: incremental checkpoints — snapshot files gained a kind byte
/// (full = 0, delta = 1) with delta files carrying the base id and
/// chunked window patches, the manifest gained the delta-chain list,
/// redo segments moved to constant per-rank names truncated at
/// publish, and every log frame gained the checkpoint generation it
/// was appended under.
/// v6: the checksum of snapshot files, manifests and redo frames became
/// the word-wise streaming [`Checksum`] (byte-wise FNV-1a before), and
/// delta files ship runs of adjacent dirty chunks `(first, count,
/// bytes)` instead of one `(index, length, bytes)` entry per chunk.
/// v7: snapshot files carry two windows, data and index (the usage and
/// system windows are gone), and a full image's data window holds the
/// live chains only, every other block zero. A v6 directory is refused
/// by version, like every older one.
/// v8: a delta checkpoint is its manifest plus each rank's sealed redo
/// log (`ckpt-<id>/redo-rank-<r>.seg`); there are no delta snapshot
/// files, and a chain member's frames are read from its segments, not
/// patched into an image. Snapshot files keep the v7 full-image layout.
/// A v7 directory is refused by version: its deltas are images the
/// recovery no longer folds.
/// v9: the config record of manifests and snapshot headers lost its two
/// switch bytes — the translation-cache switch and the retired v6 `mvcc`
/// byte — and is seven u64 words. A v8 directory is refused by version.
/// v10: a redo put carries the holder's body as a byte splice — over the
/// version it overwrote (tag 3, with that base version) or over nothing
/// (tag 1, a whole image) — plus the new edge-record count, and no
/// holder header: replay rebuilds it. A v9 directory is refused by
/// version: its tag-1 records carry whole holders, header included.
/// v11: a snapshot file is the live set as records — `primary:u64
/// len:u32 holder` per live chain, then the postings, then the record
/// count — instead of the data and index window images, and its header
/// lost the config record (the manifest keeps it) and the v7 kind byte.
/// A v10 snapshot is refused by version: its first record would be a
/// config word.
/// v12: the manifest's config record lost the lock-retry bound and the
/// MVCC chain limit, now engine constants, and is five u64 words. A v11
/// directory is refused by version.
/// v13: a holder's flags lost the archive-chain depth (bits 16..24),
/// which the decoder now refuses as unknown flags. A v12 directory is
/// refused by version: its images may carry depth bits.
pub(crate) const FORMAT_VERSION: u32 = 13;

/// Bytes of the fixed `[magic 8][version u32]` prefix of snapshot and
/// manifest files.
pub(super) const FILE_HEADER_BYTES: usize = 12;

/// Check the fixed prefix of a `what` file (`"snapshot"`/`"manifest"`):
/// the magic, then the version — the step that runs before any
/// checksum is computed.
pub(super) fn check_file_header(
    head: &[u8; FILE_HEADER_BYTES],
    magic: &[u8; 8],
    what: &str,
) -> GdiResult<()> {
    if &head[..8] != magic {
        return Err(GdiError::Io(format!("bad {what} magic")));
    }
    let version = crate::holder::le_u32(head, 8);
    if version != FORMAT_VERSION {
        return Err(GdiError::Io(format!(
            "unsupported {what} version {version}"
        )));
    }
    Ok(())
}

/// The checksum sealing snapshot files, manifests and redo frames:
/// FNV-1a taken over little-endian 64-bit **words** instead of bytes.
///
/// Starting from the FNV offset basis, every 8 input bytes are folded
/// as `h = (h ^ word) * PRIME`; a final partial word is zero-padded; the
/// total byte length is folded last, the same way. Feeding the input
/// through `Checksum::update` in any split gives the same sum, so a
/// file can be sealed while it streams out and verified while it
/// streams in, in `O(1)` memory.
///
/// What it detects: each fold is a bijection of the state for a fixed
/// word (xor, then multiplication by an odd constant modulo 2⁶⁴) and a
/// bijection of the word for a fixed state. Two inputs of equal length
/// that differ only inside one aligned word therefore differ in state
/// right after that word and in every state after it — any corruption
/// confined to one word (a flipped bit, a torn sector edge inside a
/// word) is *always* caught, not just with probability 1 − 2⁻⁶⁴. Inputs
/// that agree up to zero padding differ in the length fold. Unrelated
/// inputs, including truncations and extensions, collide with
/// probability ≈ 2⁻⁶⁴. The constants are part of the on-disk format:
/// changing them requires a `FORMAT_VERSION` bump.
#[derive(Debug, Clone)]
pub struct Checksum {
    h: u64,
    len: u64,
    /// The bytes of a word not yet complete, and how many there are.
    pending: [u8; 8],
    npending: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// The sum of the empty input, ready for [`Checksum::update`].
    pub(crate) fn new() -> Self {
        Self {
            h: Self::BASIS,
            len: 0,
            pending: [0; 8],
            npending: 0,
        }
    }

    #[inline]
    fn fold(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(Self::PRIME)
    }

    /// Append `bytes` to the summed input.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.npending > 0 {
            let take = (8 - self.npending).min(bytes.len());
            self.pending[self.npending..self.npending + take].copy_from_slice(&bytes[..take]);
            self.npending += take;
            bytes = &bytes[take..];
            if self.npending < 8 {
                return;
            }
            self.h = Self::fold(self.h, u64::from_le_bytes(self.pending));
            self.npending = 0;
        }
        let mut words = bytes.chunks_exact(8);
        let mut h = self.h;
        for w in &mut words {
            h = Self::fold(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        self.h = h;
        let rest = words.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.npending = rest.len();
    }

    /// The sum of everything fed so far (the state stays usable).
    pub(crate) fn finish(&self) -> u64 {
        let mut h = self.h;
        if self.npending > 0 {
            let mut last = [0u8; 8];
            last[..self.npending].copy_from_slice(&self.pending[..self.npending]);
            h = Self::fold(h, u64::from_le_bytes(last));
        }
        Self::fold(h, self.len)
    }

    /// The sum of one contiguous buffer.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut sum = Self::new();
        sum.update(bytes);
        sum.finish()
    }
}

pub(super) fn io_err(what: &str, e: std::io::Error) -> GdiError {
    GdiError::Io(format!("{what}: {e}"))
}

/// Append-only little-endian encoder.
#[derive(Default)]
pub(super) struct Enc {
    pub(super) buf: Vec<u8>,
}

impl Enc {
    pub(super) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(super) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(super) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(super) fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    pub(super) fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Checked little-endian decoder over a byte source of known length —
/// a slice for manifests and redo frames, a buffered file for
/// snapshots. It never reads past `left`, and [`Dec::count`] is how
/// every element count read off disk is bounded by the bytes that
/// remain *before* anything is allocated for it.
pub(super) struct Dec<R> {
    r: R,
    left: u64,
}

impl<'a> Dec<&'a [u8]> {
    pub(super) fn over(bytes: &'a [u8]) -> Self {
        Self::new(bytes, bytes.len() as u64)
    }
}

impl<R: Read> Dec<R> {
    /// Decode the next `len` bytes of `r`.
    pub(super) fn new(r: R, len: u64) -> Self {
        Self { r, left: len }
    }

    /// Bytes not yet consumed.
    pub(super) fn left(&self) -> u64 {
        self.left
    }

    /// Fill `buf` with the next `buf.len()` bytes.
    pub(super) fn fill(&mut self, buf: &mut [u8]) -> GdiResult<()> {
        if buf.len() as u64 > self.left {
            return Err(GdiError::Io("truncated persistence record".into()));
        }
        self.r
            .read_exact(buf)
            .map_err(|e| io_err("read persistence record", e))?;
        self.left -= buf.len() as u64;
        Ok(())
    }

    pub(super) fn array<const N: usize>(&mut self) -> GdiResult<[u8; N]> {
        let mut a = [0u8; N];
        self.fill(&mut a)?;
        Ok(a)
    }
    pub(super) fn u8(&mut self) -> GdiResult<u8> {
        Ok(self.array::<1>()?[0])
    }
    pub(super) fn u32(&mut self) -> GdiResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    pub(super) fn u64(&mut self) -> GdiResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Validate an element count read from the input: `n` elements of
    /// at least `min_bytes_each` encoded bytes must fit in what remains.
    /// Callers allocate for `n` only after this returns.
    pub(super) fn count(&self, n: u64, min_bytes_each: u64) -> GdiResult<usize> {
        n.checked_mul(min_bytes_each)
            .filter(|bytes| *bytes <= self.left)
            .and_then(|_| usize::try_from(n).ok())
            .ok_or_else(|| GdiError::Io("persisted count exceeds the bytes that remain".into()))
    }

    pub(super) fn bytes(&mut self) -> GdiResult<Vec<u8>> {
        let n = self.u32()?;
        let mut v = vec![0u8; self.count(n as u64, 1)?];
        self.fill(&mut v)?;
        Ok(v)
    }
    pub(super) fn str(&mut self) -> GdiResult<String> {
        String::from_utf8(self.bytes()?).map_err(|_| GdiError::Io("invalid utf-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte-at-a-time reference of the definition in [`Checksum`]'s docs.
    fn reference(bytes: &[u8]) -> u64 {
        let mut h = Checksum::BASIS;
        for word in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            h = (h ^ u64::from_le_bytes(w)).wrapping_mul(Checksum::PRIME);
        }
        (h ^ bytes.len() as u64).wrapping_mul(Checksum::PRIME)
    }

    #[test]
    fn empty_and_known_values() {
        assert_eq!(Checksum::new().finish(), reference(&[]));
        assert_eq!(Checksum::of(b"abc"), reference(b"abc"));
        assert_eq!(Checksum::of(&[7u8; 24]), reference(&[7u8; 24]));
        // zero padding is not the data: the length fold tells them apart
        assert_ne!(Checksum::of(b"ab"), Checksum::of(b"ab\0"));
        assert_ne!(Checksum::of(&[]), Checksum::of(&[0u8; 8]));
    }

    /// Exhaustive on small inputs: all 65 793 byte strings of length
    /// 0..=2 have pairwise distinct sums, and so do all single-word
    /// changes and all truncations and extensions of a fixed 3-word
    /// input by up to two bytes of any value.
    #[test]
    fn small_inputs_never_collide() {
        let mut sums = vec![Checksum::of(&[])];
        for a in 0..=255u8 {
            sums.push(Checksum::of(&[a]));
            for b in 0..=255u8 {
                sums.push(Checksum::of(&[a, b]));
            }
        }
        sums.sort_unstable();
        sums.dedup();
        assert_eq!(sums.len(), 1 + 256 + 65_536);

        let base: Vec<u8> = (1..=24).collect();
        let want = Checksum::of(&base);
        for at in 0..base.len() {
            for v in 0..=255u8 {
                if v != base[at] {
                    let mut m = base.clone();
                    m[at] = v;
                    assert_ne!(Checksum::of(&m), want, "byte {at} := {v}");
                }
            }
        }
        for cut in 0..base.len() {
            assert_ne!(Checksum::of(&base[..cut]), want, "truncated to {cut}");
        }
        for a in 0..=255u8 {
            let mut m = base.clone();
            m.push(a);
            assert_ne!(Checksum::of(&m), want, "extended by [{a}]");
            for b in 0..=255u8 {
                m.truncate(base.len() + 1);
                m.push(b);
                assert_ne!(Checksum::of(&m), want, "extended by [{a}, {b}]");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any split of the input into `update` calls gives the sum of
        /// the whole, which is the reference definition's.
        #[test]
        fn any_split_gives_the_same_sum(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
            cuts in prop::collection::vec(0usize..600, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut sum = Checksum::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                sum.update(&bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(sum.finish(), Checksum::of(&bytes));
            prop_assert_eq!(sum.finish(), reference(&bytes));
        }

        /// Large inputs: rewriting any part of one aligned word, and any
        /// truncation or extension, changes the sum.
        #[test]
        fn large_input_corruption_is_detected(
            bytes in prop::collection::vec(any::<u8>(), 64..4096),
            word in 0usize..512,
            patch in any::<u64>(),
            cut in 0usize..4096,
            extra in prop::collection::vec(any::<u8>(), 1..40),
        ) {
            let want = Checksum::of(&bytes);
            let at = (word % (bytes.len() / 8)) * 8;
            let old = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            if patch != 0 {
                let mut m = bytes.clone();
                m[at..at + 8].copy_from_slice(&(old ^ patch).to_le_bytes());
                prop_assert_ne!(Checksum::of(&m), want);
            }
            prop_assert_ne!(Checksum::of(&bytes[..cut % bytes.len()]), want);
            let mut longer = bytes.clone();
            longer.extend_from_slice(&extra);
            prop_assert_ne!(Checksum::of(&longer), want);
        }
    }

    #[test]
    fn header_is_checked_magic_then_version() {
        let mut head = [0u8; FILE_HEADER_BYTES];
        head[..8].copy_from_slice(SNAP_MAGIC);
        head[8..].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        check_file_header(&head, SNAP_MAGIC, "snapshot").unwrap();
        let wrong = check_file_header(&head, MANIFEST_MAGIC, "manifest").unwrap_err();
        assert_eq!(wrong, GdiError::Io("bad manifest magic".into()));
        head[8..].copy_from_slice(&5u32.to_le_bytes());
        let old = check_file_header(&head, SNAP_MAGIC, "snapshot").unwrap_err();
        assert_eq!(old, GdiError::Io("unsupported snapshot version 5".into()));
    }

    #[test]
    fn dec_bounds_every_read_and_count() {
        let bytes = [1u8, 0, 0, 0, 9, 9];
        let mut d = Dec::over(&bytes);
        assert_eq!(d.u32().unwrap(), 1);
        assert_eq!(d.left(), 2);
        assert!(d.u32().is_err(), "two bytes cannot hold a u32");
        assert_eq!(d.count(2, 1).unwrap(), 2);
        assert!(d.count(3, 1).is_err());
        assert!(d.count(u64::MAX, 16).is_err(), "overflow is a refusal");
        // a declared length beyond the input never allocates
        let hostile = [0xFFu8, 0xFF, 0xFF, 0xFF, 1, 2];
        assert!(Dec::over(&hostile).bytes().is_err());
    }
}
