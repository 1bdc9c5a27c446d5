//! Vertex and edge *holders* — the Logical Layout level (§5.4).
//!
//! A holder is the logically contiguous, flexible-size structure describing
//! one vertex (or one heavyweight edge): management metadata, the list of
//! lightweight edge records, and the label/property entries. Holders are
//! assembled and edited in local memory and only translated to fixed-size
//! BGDL blocks when written back (see [`crate::hio`]), which is exactly the
//! paper's split between the graph-centric LL API and the block-centric
//! BGDL level.
//!
//! ### Serialized layout
//!
//! ```text
//! header  (48 B): total_len:u32 | num_edges:u32 | entries_bytes:u32 |
//!                 flags:u32 | app_id:u64 | version:u64 |
//!                 commit_epoch:u64 | prev:u64
//! edges   (24 B each): target:u64 | edge_holder:u64 | label:u32 |
//!                 dir:u8 | eflags:u8 | pad:u16
//! entries (8 B header + padded data): id:u32 | len:u32 | data…pad8
//! ```
//!
//! Every pad byte is zero; a reader refuses bytes where one is not.
//!
//! `commit_epoch` is the global commit epoch the version became visible
//! at (0 = bulk-loaded / pre-MVCC, visible to every snapshot). `prev`
//! is the raw `DPtr` of the archived previous version's chain head
//! (NULL if none) — the MVCC version chain snapshot reads walk, whose
//! records are the undo of one overwrite each ([`Archive`]).
//!
//! Entry ids follow §5.4.3: `ENTRY_LABEL` (2) tags a label entry whose data
//! is the label integer id; ids `>= FIRST_PTYPE_ID` are property entries of
//! that p-type.
//!
//! ### One representation
//!
//! A holder is its serialized bytes, wherever it is: a [`Holder`] owns
//! nothing else. A writer edits the bytes in place — its mutators splice
//! them and rewrite the header's length words — and commits them as they
//! stand; redo and undo splices, archives, snapshot records and the
//! recovery replay carry the same bytes. Every read goes through
//! [`EdgeScan`] (the edge records) or [`EntryScan`] (labels and property
//! values) over them: on a `Holder`, or on fetched bytes that
//! [`Holder::scan_edges`] / [`Holder::scan_entries`] validate first. All
//! of these validate through one private layout parser, so they accept
//! exactly the same bytes.

use gdi::{Direction, LabelId, PTypeId, ENTRY_LABEL, FIRST_PTYPE_ID};

use crate::dptr::DPtr;

/// Bytes of one serialized edge record.
pub(crate) const EDGE_RECORD_BYTES: usize = 24;
/// Bytes of the serialized holder header.
pub(crate) const HEADER_BYTES: usize = 48;
/// Holder flag: this holder describes a (heavyweight) edge, not a vertex.
pub(crate) const FLAG_EDGE_HOLDER: u32 = 1;
/// Byte offset of the `prev` (archived version chain head) field within
/// a serialized holder and an [`Archive`] record.
const PREV_OFFSET: usize = 40;
/// Flag bits that may legitimately be set on a serialized holder.
const KNOWN_FLAGS: u32 = FLAG_EDGE_HOLDER;

/// The little-endian `u32` at byte `at` of `b`. Every caller has checked
/// the length first; a word that runs past the end of `b` reads as zero
/// instead of panicking.
#[inline]
pub(crate) fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(le_word(b, at))
}

/// The little-endian `u64` at byte `at` of `b` (see [`le_u32`]).
#[inline]
pub(crate) fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(le_word(b, at))
}

/// (A shape the optimizer folds into the caller's own length checks:
/// the scan sweep reads every edge record through it.)
#[inline]
fn le_word<const N: usize>(b: &[u8], at: usize) -> [u8; N] {
    let mut word = [0u8; N];
    // a start within N of usize::MAX wraps below itself: no range
    if let Some(src) = b.get(at..at.wrapping_add(N)) {
        word.copy_from_slice(src);
    }
    word
}

/// The serialized header of a holder whose sections are `num_edges`
/// edge records and `entries` entry bytes (the layout in the module
/// docs).
fn header(num_edges: u32, entries: u32, flags: u32, words: [u64; 4]) -> [u8; HEADER_BYTES] {
    let total = HEADER_BYTES as u32 + num_edges * EDGE_RECORD_BYTES as u32 + entries;
    let mut h = [0u8; HEADER_BYTES];
    for (i, w) in [total, num_edges, entries, flags].into_iter().enumerate() {
        h[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
    }
    for (i, w) in words.into_iter().enumerate() {
        h[16 + 8 * i..24 + 8 * i].copy_from_slice(&w.to_le_bytes());
    }
    h
}

/// One holder's body (everything past the header) as a byte splice over
/// a base holder's body: the base's bytes `at..at + cut` replaced by
/// `bytes`. A redo record carries a committed holder this way — against
/// the version it overwrote, or against nothing (a whole image: `at` and
/// `cut` 0). The header is not part of it: [`apply_splice`] rebuilds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Splice {
    /// Offset into the base body of the first replaced byte.
    pub at: u32,
    /// Base body bytes replaced.
    pub cut: u32,
    /// What replaces them.
    pub bytes: Vec<u8>,
    /// Edge records of the spliced holder (its header's `num_edges`).
    pub num_edges: u32,
}

/// The body of a serialized holder (empty for an empty slice).
fn body(holder: &[u8]) -> &[u8] {
    let end = le_u32(holder, 0) as usize;
    holder.get(HEADER_BYTES..end).unwrap_or_default()
}

/// Bytes `a` and `b` agree on from their start, compared a word at a
/// time (a commit diffs whole holders: bytewise is 5x slower).
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let (aw, bw) = (a.as_chunks::<8>().0, b.as_chunks::<8>().0);
    let words = 8 * aw.iter().zip(bw).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[words..], &b[words..]);
    words + a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Bytes `a` and `b` agree on from their end (see [`common_prefix`]).
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let (aw, bw) = (a.as_rchunks::<8>().1, b.as_rchunks::<8>().1);
    let words = 8 * aw
        .iter()
        .rev()
        .zip(bw.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - words], &b[..b.len() - words]);
    words
        + a.iter()
            .rev()
            .zip(b.iter().rev())
            .take_while(|(x, y)| x == y)
            .count()
}

/// The splice turning `pre`'s body into `post`'s — two serialized
/// holders — with their common prefix and suffix trimmed. An empty `pre`
/// is no base: the splice is `post`'s whole body.
pub(crate) fn splice(pre: &[u8], post: &[u8]) -> Splice {
    let (old, new) = (body(pre), body(post));
    let prefix = common_prefix(old, new);
    let suffix = common_suffix(&old[prefix..], &new[prefix..]);
    Splice {
        at: prefix as u32,
        cut: (old.len() - prefix - suffix) as u32,
        bytes: new[prefix..new.len() - suffix].to_vec(),
        num_edges: le_u32(post, 4),
    }
}

/// The holder `s` makes of `pre` (a serialized holder, or empty for no
/// base), under a header rebuilt from `app_id`, `is_edge`, `version`,
/// `s.num_edges` and the new body's length — at commit epoch 0, with no
/// archive link, which is how recovery writes every holder back. `None`
/// — never a panic — when `pre` is no holder, the splice reaches past
/// its body, `num_edges` does not fit the new body, or the result is not
/// a holder [`Holder::from_bytes`] accepts.
pub(crate) fn apply_splice(
    pre: &[u8],
    s: &Splice,
    app_id: u64,
    is_edge: bool,
    version: u64,
) -> Option<Vec<u8>> {
    let base = if pre.is_empty() {
        &[][..]
    } else {
        &pre[HEADER_BYTES..Layout::parse(pre)?.end]
    };
    let (head, rest) = base.split_at_checked(s.at as usize)?;
    let tail = rest.get(s.cut as usize..)?;
    let len = head.len() + s.bytes.len() + tail.len();
    let edges = (s.num_edges as usize).checked_mul(EDGE_RECORD_BYTES)?;
    let entries = u32::try_from(len.checked_sub(edges)?).ok()?;
    u32::try_from(HEADER_BYTES + len).ok()?;
    let flags = if is_edge { FLAG_EDGE_HOLDER } else { 0 };
    let mut out = Vec::with_capacity(HEADER_BYTES + len);
    out.extend_from_slice(&header(
        s.num_edges,
        entries,
        flags,
        [app_id, version, 0, 0],
    ));
    out.extend_from_slice(head);
    out.extend_from_slice(&s.bytes);
    out.extend_from_slice(tail);
    Layout::validated(&out)?;
    Some(out)
}

/// One archived version, as its record on the MVCC version chain holds
/// it: not a copy of the version but the **undo** of the overwrite that
/// replaced it (Neumann, Mühlbauer and Kemper, SIGMOD 2015) — the splice
/// turning the overwriting version's body back into this one's.
///
/// ```text
/// record (48 B): total_len:u32 | num_edges:u32 | at:u32 | cut:u32 |
///                app_id:u64 | version:u64 | commit_epoch:u64 | prev:u64
/// bytes:         the total_len − 48 bytes of the archived body the
///                overwrite replaced, which the undo puts back at `at`
///                in place of the `cut` bytes the overwrite inserted
/// ```
///
/// `total_len`, `app_id`, `version`, `commit_epoch` and `prev` sit where
/// a holder's header has them, so the block chain stores, stamps and
/// walks a record as it does a holder. A reader rewinds the version it
/// copied one record at a time (`Archive::rewind`), newest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Archive {
    /// Application-level id of the archived holder.
    pub app_id: u64,
    /// The archived version's stamp.
    pub version: u64,
    /// The commit epoch the archived version became visible at.
    pub commit_epoch: u64,
    /// Raw `DPtr` of the next older record, or 0 at the chain's end.
    pub prev: u64,
    /// The splice from the overwriting version's body to this one's
    /// (`num_edges`: the archived version's edge records).
    pub undo: Splice,
}

impl Archive {
    /// The record of `pre`, a serialized holder, overwritten through the
    /// forward splice `fwd` (`splice(pre, post)`): the same `at`, cutting
    /// the bytes `fwd` inserted and restoring the ones it cut.
    pub(crate) fn record(pre: &[u8], fwd: &Splice) -> Vec<u8> {
        let (at, cut) = (fwd.at as usize, fwd.cut as usize);
        let restored = body(pre).get(at..at + cut).unwrap_or_default();
        let total = (HEADER_BYTES + restored.len()) as u32;
        let mut out = Vec::with_capacity(HEADER_BYTES + restored.len());
        for w in [total, le_u32(pre, 4), fwd.at, fwd.bytes.len() as u32] {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for at in [16, 24, 32, PREV_OFFSET] {
            out.extend_from_slice(&le_u64(pre, at).to_le_bytes());
        }
        out.extend_from_slice(restored);
        out
    }

    /// Parse a record's bytes (as a chain read returns them). `None` —
    /// never a panic — when they are shorter than the header or than the
    /// length it announces; what the splice says is checked where it is
    /// applied (`Archive::rewind`).
    pub(crate) fn parse(bytes: &[u8]) -> Option<Archive> {
        let total = le_u32(bytes, 0) as usize;
        let restored = bytes.get(HEADER_BYTES..total)?;
        Some(Archive {
            app_id: le_u64(bytes, 16),
            version: le_u64(bytes, 24),
            commit_epoch: le_u64(bytes, 32),
            prev: le_u64(bytes, PREV_OFFSET),
            undo: Splice {
                at: le_u32(bytes, 8),
                cut: le_u32(bytes, 12),
                bytes: restored.to_vec(),
                num_edges: le_u32(bytes, 4),
            },
        })
    }

    /// The archived version, rewound from `post` — the serialized
    /// version that overwrote it — through [`apply_splice`], with its
    /// commit epoch and `prev` in the header. `None` when
    /// `post` is no holder, is another object's, or the undo does not
    /// fit it.
    pub(crate) fn rewind(&self, post: &[u8]) -> Option<Vec<u8>> {
        let lay = Layout::parse(post)?;
        if le_u64(post, 16) != self.app_id {
            return None;
        }
        let is_edge = lay.flags & FLAG_EDGE_HOLDER != 0;
        let bytes = apply_splice(post, &self.undo, self.app_id, is_edge, self.version)?;
        let mut pre = Holder { bytes };
        pre.set_commit_epoch(self.commit_epoch);
        pre.set_prev(self.prev);
        Some(pre.bytes)
    }
}

/// A lightweight edge record stored inside a vertex holder (§5.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EdgeRecord {
    /// `DPtr` of the other endpoint's vertex holder.
    pub target: DPtr,
    /// `DPtr` of a heavyweight edge holder carrying extra labels/properties,
    /// or NULL for a pure lightweight edge (≤ 1 label, no properties).
    pub edge_holder: DPtr,
    /// The single label of a lightweight edge (0 = unlabeled).
    pub label: u32,
    /// Direction of the edge relative to the vertex storing this record.
    pub dir: Direction,
    /// Record flags (bit 0: tombstone — slot kept to preserve edge-UID
    /// offsets of later records within a transaction).
    pub flags: u8,
}

impl EdgeRecord {
    /// Flag bit marking a tombstoned (removed) record.
    pub(crate) const TOMBSTONE: u8 = 1;

    /// A lightweight record (no heavy holder) to `target`.
    pub(crate) fn lightweight(target: DPtr, label: u32, dir: Direction) -> Self {
        Self {
            target,
            edge_holder: DPtr::NULL,
            label,
            dir,
            flags: 0,
        }
    }

    /// Is this record tombstoned?
    pub(crate) fn is_tombstone(&self) -> bool {
        self.flags & Self::TOMBSTONE != 0
    }

    /// The record's serialized bytes (the layout in the module docs).
    fn to_bytes(self) -> [u8; EDGE_RECORD_BYTES] {
        let mut b = [0u8; EDGE_RECORD_BYTES];
        b[..8].copy_from_slice(&self.target.raw().to_le_bytes());
        b[8..16].copy_from_slice(&self.edge_holder.raw().to_le_bytes());
        b[16..20].copy_from_slice(&self.label.to_le_bytes());
        b[20] = self.dir as u8;
        b[21] = self.flags;
        b
    }

    /// The record serialized at the start of `b`: `None` when `b` is
    /// shorter than a record or its direction byte names no direction.
    fn read(b: &[u8]) -> Option<Self> {
        let b = b.first_chunk::<EDGE_RECORD_BYTES>()?;
        Some(Self {
            target: DPtr::from_raw(le_u64(b, 0)),
            edge_holder: DPtr::from_raw(le_u64(b, 8)),
            label: le_u32(b, 16),
            dir: Direction::from_u8(b[20])?,
            flags: b[21],
        })
    }
}

/// Serialized bytes of an entry frame whose data is `len` bytes: the
/// 8-byte `id | len` header and the data padded to a multiple of 8.
fn frame_bytes(len: usize) -> usize {
    8 + len.div_ceil(8) * 8
}

/// Append the entry frame of `(id, data)` to `out`.
fn put_frame(out: &mut Vec<u8>, id: u32, data: &[u8]) {
    let end = out.len() + frame_bytes(data.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(data);
    out.resize(end, 0);
}

/// One vertex or heavy-edge holder: its serialized layout (module docs)
/// and nothing else. Every `Holder` is bytes [`Layout::validated`]
/// accepts — the constructors write such bytes, [`Holder::from_bytes`]
/// refuses any others, and every editor splices them and rewrites the
/// header's length words — so a writer commits [`Holder::bytes`] as
/// they stand, and every read goes through [`EdgeScan`] / [`EntryScan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Holder {
    bytes: Vec<u8>,
}

impl Holder {
    /// A fresh vertex holder.
    pub(crate) fn new_vertex(app_id: u64) -> Self {
        Self {
            bytes: header(0, 0, 0, [app_id, 0, 0, 0]).to_vec(),
        }
    }

    /// A fresh edge holder for a heavy edge between `origin` and `target`.
    pub(crate) fn new_edge(origin: DPtr, target: DPtr) -> Self {
        let mut h = Self {
            bytes: header(0, 0, FLAG_EDGE_HOLDER, [0; 4]).to_vec(),
        };
        h.push_edge(EdgeRecord::lightweight(origin, 0, Direction::Out));
        h.push_edge(EdgeRecord::lightweight(target, 0, Direction::In));
        h
    }

    /// The holder `bytes` serialize, cut to the length their header
    /// announces; `None` — structural validation of every field — for
    /// bytes [`Layout::validated`] refuses. Fetched bytes may be anyone's:
    /// a stale internal id can point at storage that was reclaimed and
    /// reused by another object (§3.4: volatile ids).
    pub(crate) fn from_bytes(mut bytes: Vec<u8>) -> Option<Self> {
        bytes.truncate(Layout::validated(&bytes)?.end);
        Some(Self { bytes })
    }

    /// The serialized holder.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Application-level id (vertices only; 0 for edge holders).
    pub(crate) fn app_id(&self) -> u64 {
        le_u64(&self.bytes, 16)
    }

    /// Is this an edge holder?
    pub(crate) fn is_edge(&self) -> bool {
        le_u32(&self.bytes, 12) & FLAG_EDGE_HOLDER != 0
    }

    /// Version counter, bumped on every write-back. Under MVCC this is
    /// the rank-unique commit stamp also written into every block's
    /// stamp word (the torn-read seqlock validator, see `crate::hio`).
    pub(crate) fn version(&self) -> u64 {
        le_u64(&self.bytes, 24)
    }

    /// Set the version (see [`Holder::version`]).
    pub(crate) fn set_version(&mut self, version: u64) {
        self.put_u64(24, version);
    }

    /// Set the global commit epoch this version becomes visible at (0 =
    /// bulk-loaded / pre-MVCC: visible to every snapshot).
    pub(crate) fn set_commit_epoch(&mut self, epoch: u64) {
        self.put_u64(32, epoch);
    }

    /// Set the raw `DPtr` of the archived previous version's chain head
    /// (0: none). Archives are immutable; once the snapshot floor reaches
    /// this version's commit epoch the record may be freed and the
    /// pointer dangles, but no snapshot follows it any more.
    pub(crate) fn set_prev(&mut self, prev: u64) {
        self.put_u64(PREV_OFFSET, prev);
    }

    fn put_u64(&mut self, at: usize, word: u64) {
        self.bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
    }

    /// The section bounds, read off the header without checks: a
    /// `Holder`'s bytes are valid by construction.
    fn layout(&self) -> Layout {
        Layout {
            num_edges: le_u32(&self.bytes, 4) as usize,
            flags: le_u32(&self.bytes, 12),
            end: self.bytes.len(),
        }
    }

    /// Rewrite the header's length words after an edit that left
    /// `num_edges` edge records.
    fn set_lengths(&mut self, num_edges: usize) {
        let total = self.bytes.len();
        let entries = total - HEADER_BYTES - num_edges * EDGE_RECORD_BYTES;
        for (at, word) in [(0, total), (4, num_edges), (8, entries)] {
            self.bytes[at..at + 4].copy_from_slice(&(word as u32).to_le_bytes());
        }
    }

    /// The edge records, read in place.
    pub(crate) fn edge_scan(&self) -> EdgeScan<'_> {
        EdgeScan::new(&self.bytes, &self.layout())
    }

    /// The label and property entries, read in place.
    pub(crate) fn entry_scan(&self) -> EntryScan<'_> {
        EntryScan::new(&self.bytes, &self.layout())
    }

    // ----- labels ---------------------------------------------------------

    /// Add a label; no-op if already present. Returns whether it was added.
    pub(crate) fn add_label(&mut self, label: LabelId) -> bool {
        if self.entry_scan().has_label(label) {
            return false;
        }
        self.push_entry(ENTRY_LABEL, &label.0.to_le_bytes());
        true
    }

    /// Remove a label. Returns whether it was present.
    pub(crate) fn remove_label(&mut self, label: LabelId) -> bool {
        self.retain_entries(|id, data| !is_label(id, data, label)) > 0
    }

    // ----- properties ------------------------------------------------------

    /// Append a property entry.
    pub(crate) fn add_property(&mut self, ptype: PTypeId, data: &[u8]) {
        debug_assert!(ptype.0 >= FIRST_PTYPE_ID);
        self.push_entry(ptype.0, data);
    }

    /// Replace the first entry of `ptype` (insert if absent) — the `Single`
    /// multiplicity update path.
    pub(crate) fn set_property(&mut self, ptype: PTypeId, data: &[u8]) {
        let lay = self.layout();
        let start = lay.entries_start();
        let first = Frames::new(&self.bytes[start..])
            .map(|frame| frame.expect("a holder's entry framing is valid"))
            .find(|&(_, id, _)| id == ptype.0);
        let Some((at, _, old)) = first else {
            return self.add_property(ptype, data);
        };
        let span = start + at..start + at + frame_bytes(old.len());
        let mut frame = Vec::with_capacity(frame_bytes(data.len()));
        put_frame(&mut frame, ptype.0, data);
        self.bytes.splice(span, frame);
        self.set_lengths(lay.num_edges);
    }

    /// Remove all entries of `ptype`. Returns the number removed.
    pub(crate) fn remove_property(&mut self, ptype: PTypeId) -> usize {
        self.retain_entries(|id, _| id != ptype.0)
    }

    /// Remove every property entry (keeps labels) —
    /// `GDI_RemoveAllPropertiesFromVertex`.
    pub(crate) fn remove_all_properties(&mut self) -> usize {
        self.retain_entries(|id, _| id == ENTRY_LABEL)
    }

    /// Append the entry `(id, data)`.
    fn push_entry(&mut self, id: u32, data: &[u8]) {
        let num_edges = self.layout().num_edges;
        put_frame(&mut self.bytes, id, data);
        self.set_lengths(num_edges);
    }

    /// Keep the entries `keep` accepts, in order. Returns the number
    /// dropped.
    fn retain_entries(&mut self, mut keep: impl FnMut(u32, &[u8]) -> bool) -> usize {
        let lay = self.layout();
        let start = lay.entries_start();
        let mut kept = Vec::with_capacity(lay.end - start);
        let mut dropped = 0;
        for frame in Frames::new(&self.bytes[start..]) {
            let (at, id, data) = frame.expect("a holder's entry framing is valid");
            if keep(id, data) {
                kept.extend_from_slice(&self.bytes[start + at..][..frame_bytes(data.len())]);
            } else {
                dropped += 1;
            }
        }
        self.bytes.truncate(start);
        self.bytes.extend_from_slice(&kept);
        self.set_lengths(lay.num_edges);
        dropped
    }

    // ----- edges -----------------------------------------------------------

    /// Append an edge record; returns its slot (stable edge-UID offset).
    pub(crate) fn push_edge(&mut self, rec: EdgeRecord) -> u32 {
        let lay = self.layout();
        let at = lay.entries_start();
        self.bytes.extend_from_slice(&rec.to_bytes());
        self.bytes[at..].rotate_right(EDGE_RECORD_BYTES);
        self.set_lengths(lay.num_edges + 1);
        lay.num_edges as u32
    }

    /// Rewrite the record in `slot` (live or tombstoned) through `f`.
    /// Panics when the holder has no such slot.
    pub(crate) fn update_edge(&mut self, slot: u32, f: impl FnOnce(&mut EdgeRecord)) {
        let slot = slot as usize;
        assert!(
            slot < self.layout().num_edges,
            "edge slot {slot} out of range"
        );
        let at = HEADER_BYTES + slot * EDGE_RECORD_BYTES;
        let bytes = &mut self.bytes[at..at + EDGE_RECORD_BYTES];
        let mut rec = EdgeRecord::read(bytes).expect("a holder's direction bytes are valid");
        f(&mut rec);
        bytes.copy_from_slice(&rec.to_bytes());
    }

    /// Keep the edge records `f` accepts, each as `f` left it, in slot
    /// order (the records after a dropped one move down a slot).
    pub(crate) fn retain_edges(&mut self, mut f: impl FnMut(&mut EdgeRecord) -> bool) {
        let at = |slot: usize| HEADER_BYTES + slot * EDGE_RECORD_BYTES;
        let n = self.layout().num_edges;
        let mut kept = 0;
        for slot in 0..n {
            let mut rec = EdgeRecord::read(&self.bytes[at(slot)..])
                .expect("a holder's direction bytes are valid");
            if f(&mut rec) {
                self.bytes[at(kept)..at(kept + 1)].copy_from_slice(&rec.to_bytes());
                kept += 1;
            }
        }
        self.bytes.drain(at(kept)..at(n));
        self.set_lengths(kept);
    }

    /// Drop trailing/interior tombstones (compaction at write-back; edge
    /// UIDs are volatile across transactions, §3.4, so compaction between
    /// transactions is legal).
    pub(crate) fn compact_edges(&mut self) {
        self.retain_edges(|rec| !rec.is_tombstone());
    }

    // ----- reading serialized bytes in place --------------------------------

    /// Total length field of a serialized holder (peek at the first bytes).
    pub(crate) fn peek_total_len(bytes: &[u8]) -> usize {
        le_u32(bytes, 0) as usize
    }

    /// Validate serialized bytes **exactly as [`Holder::from_bytes`]
    /// does** (header, known flags, length arithmetic, every edge
    /// record's direction byte, entry framing: the one
    /// [`Layout::validated`]) and hand back their edge section without
    /// copying them. The OLAP scan sweep reads adjacency this way
    /// (`crate::scan`).
    pub(crate) fn scan_edges(bytes: &[u8]) -> Option<EdgeScan<'_>> {
        Some(EdgeScan::new(bytes, &Layout::validated(bytes)?))
    }

    /// The entry-section twin of [`Holder::scan_edges`]: the same
    /// validation, and then labels are tested and property values found
    /// **in place**. Every read of a read-only transaction is answered
    /// this way (`crate::tx`).
    pub(crate) fn scan_entries(bytes: &[u8]) -> Option<EntryScan<'_>> {
        Some(EntryScan::new(bytes, &Layout::validated(bytes)?))
    }

    /// `(commit_epoch, prev)` of a serialized holder whose header holds
    /// up (the header checks of [`Holder::from_bytes`]): where a snapshot
    /// read starts its walk down the archive chain, without copying a
    /// version.
    pub(crate) fn version_of(bytes: &[u8]) -> Option<(u64, u64)> {
        Layout::parse(bytes)?;
        Some((le_u64(bytes, 32), le_u64(bytes, PREV_OFFSET)))
    }
}

/// Is the entry `(id, data)` the label `label`? A label entry holds
/// exactly the 4-byte label id.
fn is_label(id: u32, data: &[u8], label: LabelId) -> bool {
    id == ENTRY_LABEL && data == label.0.to_le_bytes()
}

/// Section bounds of a serialized holder whose header is structurally
/// plausible — the validation [`Holder::from_bytes`],
/// [`Holder::scan_edges`] and [`Holder::scan_entries`] share, so the
/// three accept exactly the same bytes.
struct Layout {
    num_edges: usize,
    flags: u32,
    /// End of the entry section (= the holder's total length).
    end: usize,
}

impl Layout {
    fn parse(bytes: &[u8]) -> Option<Layout> {
        if bytes.len() < HEADER_BYTES {
            return None;
        }
        let total = Holder::peek_total_len(bytes);
        if total < HEADER_BYTES || bytes.len() < total {
            return None;
        }
        let num_edges = le_u32(bytes, 4) as usize;
        let entries_bytes = le_u32(bytes, 8) as usize;
        let flags = le_u32(bytes, 12);
        if flags & !KNOWN_FLAGS != 0 {
            return None;
        }
        if HEADER_BYTES + num_edges * EDGE_RECORD_BYTES + entries_bytes != total {
            return None;
        }
        Some(Layout {
            num_edges,
            flags,
            end: total,
        })
    }

    /// [`Layout::parse`] plus every edge record's direction byte
    /// (tombstoned records included), the entry framing, and every pad
    /// byte — an edge record's last two, an entry frame's after its data
    /// — being zero, so one logical holder has exactly one byte form.
    fn validated(bytes: &[u8]) -> Option<Layout> {
        let lay = Layout::parse(bytes)?;
        for rec in lay.edge_records(bytes).chunks_exact(EDGE_RECORD_BYTES) {
            // the record's last word: dir:u8 | eflags:u8 | pad:u16
            let tail = le_u32(rec, 20);
            Direction::from_u8(tail as u8)?;
            if tail >> 16 != 0 {
                return None;
            }
        }
        let section = &bytes[lay.entries_start()..lay.end];
        for frame in Frames::new(section) {
            let (off, _, data) = frame?;
            let used = data.len() % 8;
            if used != 0 {
                // the frame's last word: `used` data bytes, then the pad
                // (a padded frame past the section is refused either way)
                let end = off + frame_bytes(data.len());
                if le_u64(section.get(end - 8..end)?, 0) >> (8 * used) != 0 {
                    return None;
                }
            }
        }
        Some(lay)
    }

    fn entries_start(&self) -> usize {
        HEADER_BYTES + self.num_edges * EDGE_RECORD_BYTES
    }

    fn edge_records<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[HEADER_BYTES..self.entries_start()]
    }
}

/// The frames of an entry section, in order, as `(offset in the section,
/// id, data)`. A frame that overruns the section, or a padded frame that
/// ends past it, is yielded as one `None`, after which the iterator is
/// done.
struct Frames<'a> {
    section: &'a [u8],
    off: usize,
}

impl<'a> Frames<'a> {
    fn new(section: &'a [u8]) -> Self {
        Self { section, off: 0 }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Option<(usize, u32, &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        let (off, end) = (self.off, self.section.len());
        if off == end {
            return None;
        }
        // whatever happens below, a bad frame is the last item
        self.off = end;
        if off + 8 > end {
            return Some(None);
        }
        let id = le_u32(self.section, off);
        let len = le_u32(self.section, off + 4) as usize;
        if off + 8 + len > end {
            return Some(None);
        }
        self.off = off + frame_bytes(len);
        Some(Some((off, id, &self.section[off + 8..off + 8 + len])))
    }
}

/// The edge records of one holder, read where they lie: the validated
/// edge section of serialized bytes (see [`Holder::scan_edges`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeScan<'a> {
    /// Application-level id of the holder.
    pub app_id: u64,
    /// Is the holder a heavyweight edge's (not a vertex's)?
    pub is_edge: bool,
    section: &'a [u8],
}

impl<'a> EdgeScan<'a> {
    fn new(bytes: &'a [u8], lay: &Layout) -> Self {
        Self {
            app_id: le_u64(bytes, 16),
            is_edge: lay.flags & FLAG_EDGE_HOLDER != 0,
            section: lay.edge_records(bytes),
        }
    }

    /// Every record, tombstones included, in slot order.
    pub(crate) fn records(&self) -> impl Iterator<Item = EdgeRecord> + 'a {
        self.section
            .chunks_exact(EDGE_RECORD_BYTES)
            .map(|rec| EdgeRecord::read(rec).expect("direction bytes validated"))
    }

    /// The live (non-tombstoned) edge records with their slots, in slot
    /// order.
    pub(crate) fn live(&self) -> impl Iterator<Item = (u32, EdgeRecord)> + 'a {
        self.records()
            .enumerate()
            .filter(|(_, r)| !r.is_tombstone())
            .map(|(slot, r)| (slot as u32, r))
    }

    /// The live record in `slot`, if there is one.
    pub(crate) fn get(&self, slot: u32) -> Option<EdgeRecord> {
        self.records()
            .nth(slot as usize)
            .filter(|r| !r.is_tombstone())
    }
}

/// The label and property entries of one holder, read where they lie:
/// the validated entry section of serialized bytes (see
/// `Holder::scan_entries`). An entry is `(id, value bytes)`, in entry
/// order.
#[derive(Debug, Clone, Copy)]
pub struct EntryScan<'a> {
    /// Application-level id of the holder.
    pub app_id: u64,
    section: &'a [u8],
}

impl<'a> EntryScan<'a> {
    fn new(bytes: &'a [u8], lay: &Layout) -> Self {
        Self {
            app_id: le_u64(bytes, 16),
            section: &bytes[lay.entries_start()..lay.end],
        }
    }

    /// Every entry as `(id, value bytes)`, in entry order.
    fn entries(&self) -> impl Iterator<Item = (u32, &'a [u8])> + 'a {
        Frames::new(self.section).map(|frame| {
            let (_, id, data) = frame.expect("entry framing validated");
            (id, data)
        })
    }

    /// Does the element carry `label`? (A label entry holds exactly the
    /// 4-byte label id.)
    pub fn has_label(&self, label: LabelId) -> bool {
        self.entries().any(|(id, data)| is_label(id, data, label))
    }

    /// All labels on the element, in entry order.
    pub(crate) fn labels(&self) -> impl Iterator<Item = LabelId> + 'a {
        self.entries()
            .filter(|(id, _)| *id == ENTRY_LABEL)
            .filter_map(|(_, data)| Some(LabelId(u32::from_le_bytes(data.try_into().ok()?))))
    }

    /// All distinct p-type ids present, ascending.
    pub(crate) fn ptypes(&self) -> Vec<PTypeId> {
        let mut v: Vec<PTypeId> = self
            .entries()
            .filter(|(id, _)| *id >= FIRST_PTYPE_ID)
            .map(|(id, _)| PTypeId(id))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Raw value bytes of the property entries of `ptype`, in entry
    /// order.
    pub fn properties_raw(&self, ptype: PTypeId) -> impl Iterator<Item = &'a [u8]> + 'a {
        self.entries()
            .filter(move |(id, _)| *id == ptype.0)
            .map(|(_, data)| data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference a [`Holder`] is held to: a holder's logical content
    /// as fields and lists, with the layout of the module docs written
    /// out field by field ([`Model::serialized`], [`Model::parse`]) and
    /// a writer's edits made on the lists.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    struct Model {
        app_id: u64,
        is_edge: bool,
        version: u64,
        commit_epoch: u64,
        prev: u64,
        edges: Vec<EdgeRecord>,
        /// `(entry id, value bytes)`, in entry order.
        entries: Vec<(u32, Vec<u8>)>,
    }

    impl Model {
        fn vertex(app_id: u64) -> Self {
            Self {
                app_id,
                ..Self::default()
            }
        }

        /// The reference encoder.
        fn serialized(&self) -> Vec<u8> {
            let padded = |len: usize| len.div_ceil(8) * 8;
            let entries: usize = self.entries.iter().map(|(_, d)| 8 + padded(d.len())).sum();
            let total = HEADER_BYTES + self.edges.len() * EDGE_RECORD_BYTES + entries;
            let flags = if self.is_edge { FLAG_EDGE_HOLDER } else { 0 };
            let mut out = Vec::new();
            for w in [total as u32, self.edges.len() as u32, entries as u32, flags] {
                out.extend_from_slice(&w.to_le_bytes());
            }
            for w in [self.app_id, self.version, self.commit_epoch, self.prev] {
                out.extend_from_slice(&w.to_le_bytes());
            }
            for e in &self.edges {
                out.extend_from_slice(&e.target.raw().to_le_bytes());
                out.extend_from_slice(&e.edge_holder.raw().to_le_bytes());
                out.extend_from_slice(&e.label.to_le_bytes());
                out.extend_from_slice(&[e.dir as u8, e.flags, 0, 0]);
            }
            for (id, data) in &self.entries {
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
                out.resize(out.len() + padded(data.len()) - data.len(), 0);
            }
            assert_eq!(out.len(), total);
            out
        }

        /// The reference decoder: `None` for bytes that are no holder —
        /// a header shorter than 48 bytes or longer than the bytes, an
        /// unknown flag bit, lengths that do not add up, a direction byte
        /// naming no direction, a non-zero pad byte (of an edge record or
        /// after an entry's data), an entry frame past its section or a
        /// section no frame boundary ends.
        fn parse(bytes: &[u8]) -> Option<Model> {
            let u32_at =
                |at: usize| Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?));
            let u64_at =
                |at: usize| Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?));
            let [total, n, entries, flags] = [0, 4, 8, 12].map(u32_at);
            let (total, n, entries, flags) =
                (total? as usize, n? as usize, entries? as usize, flags?);
            let fits = total >= HEADER_BYTES && total <= bytes.len();
            if !fits || flags & !FLAG_EDGE_HOLDER != 0 || HEADER_BYTES + n * 24 + entries != total {
                return None;
            }
            let mut m = Model {
                app_id: u64_at(16)?,
                is_edge: flags != 0,
                version: u64_at(24)?,
                commit_epoch: u64_at(32)?,
                prev: u64_at(40)?,
                ..Model::default()
            };
            for at in (0..n).map(|i| HEADER_BYTES + 24 * i) {
                if bytes[at + 22..at + 24] != [0, 0] {
                    return None;
                }
                m.edges.push(EdgeRecord {
                    target: DPtr::from_raw(u64_at(at)?),
                    edge_holder: DPtr::from_raw(u64_at(at + 8)?),
                    label: u32_at(at + 16)?,
                    dir: Direction::from_u8(bytes[at + 20])?,
                    flags: bytes[at + 21],
                });
            }
            let mut at = HEADER_BYTES + 24 * n;
            while at < total {
                let len = u32_at(at + 4).filter(|_| at + 8 <= total)? as usize;
                if at + 8 + len > total {
                    return None;
                }
                m.entries
                    .push((u32_at(at)?, bytes[at + 8..at + 8 + len].to_vec()));
                let pad = at + 8 + len..(at + 8 + len.div_ceil(8) * 8).min(total);
                if bytes[pad].iter().any(|&b| b != 0) {
                    return None;
                }
                at += 8 + len.div_ceil(8) * 8;
            }
            (at == total).then_some(m)
        }

        /// The same content built through the byte editor.
        fn built(&self) -> Holder {
            let flags = if self.is_edge { FLAG_EDGE_HOLDER } else { 0 };
            let words = [self.app_id, self.version, self.commit_epoch, self.prev];
            let mut h = Holder {
                bytes: header(0, 0, flags, words).to_vec(),
            };
            for &rec in &self.edges {
                h.push_edge(rec);
            }
            for (id, data) in &self.entries {
                h.push_entry(*id, data);
            }
            h
        }

        fn has_label(&self, label: LabelId) -> bool {
            self.entries
                .iter()
                .any(|(id, data)| is_label(*id, data, label))
        }

        /// The edit `mutate` makes of a holder, made on the lists.
        fn mutate(&mut self, op: u8, arg: u64) {
            let slot = arg as usize % (self.edges.len() + 1);
            let ptype = 3 + (arg % 4) as u32;
            let label = LabelId((arg % 6) as u32);
            match op {
                0 => self.edges.push(pushed(arg)),
                1 => {
                    if let Some(r) = self.edges.get_mut(slot) {
                        r.flags |= EdgeRecord::TOMBSTONE;
                    }
                }
                2 => match self.entries.iter_mut().find(|(id, _)| *id == ptype) {
                    Some((_, data)) => *data = arg.to_le_bytes().to_vec(),
                    None => self.entries.push((ptype, arg.to_le_bytes().to_vec())),
                },
                3 => self
                    .entries
                    .push((ptype, vec![arg as u8; arg as usize % 19])),
                4 => self.entries.retain(|(id, _)| *id != ptype),
                5 if !self.has_label(label) => self
                    .entries
                    .push((ENTRY_LABEL, label.0.to_le_bytes().to_vec())),
                5 => {}
                6 => self
                    .entries
                    .retain(|(id, data)| !is_label(*id, data, label)),
                7 => self.entries.retain(|(id, _)| *id == ENTRY_LABEL),
                8 => self.edges.retain(|r| !r.is_tombstone()),
                9 => {
                    if let Some(r) = self.edges.get_mut(slot) {
                        rewired(r, arg);
                    }
                }
                10 => self.version = arg,
                11 => self.commit_epoch = arg,
                12 => self.prev = arg,
                _ => self.edges.retain_mut(|r| moved(r, arg)),
            }
        }
    }

    /// The record op 0 appends.
    fn pushed(arg: u64) -> EdgeRecord {
        EdgeRecord::lightweight(
            DPtr::new(arg as usize % 4, 128 * (arg % 64)),
            (arg % 5) as u32,
            Direction::from_u8((arg % 3) as u8).unwrap(),
        )
    }

    /// Op 9's rewrite of one record: a new label, the direction
    /// reversed, a heavy holder linked.
    fn rewired(r: &mut EdgeRecord, arg: u64) {
        r.label = (arg >> 8) as u32;
        r.dir = r.dir.reverse();
        r.edge_holder = DPtr::new(1, 128 * (arg % 32));
    }

    /// Op 13's rewrite of every record, as recovery moves a holder: a
    /// target on a rank `arg` picks is dropped, every other one moves.
    fn moved(r: &mut EdgeRecord, arg: u64) -> bool {
        if r.target.rank() == arg as usize % 4 {
            return false;
        }
        r.target = DPtr::new(r.target.rank() ^ 1, 128 * (arg % 64));
        true
    }

    /// One writer's edit of a holder: `op` picks the mutator, `arg` its
    /// operand. Ops 0–7 are the edits a transaction makes before commit
    /// compacts; 8–13 are compaction, a record rewrite, the header
    /// setters and recovery's record rewrite.
    fn mutate(h: &mut Holder, op: u8, arg: u64) {
        let slots = h.edge_scan().records().count();
        let slot = (arg as usize % (slots + 1)) as u32;
        let ptype = PTypeId(3 + (arg % 4) as u32);
        let label = LabelId((arg % 6) as u32);
        match op {
            0 => drop(h.push_edge(pushed(arg))),
            1 if (slot as usize) < slots => {
                h.update_edge(slot, |r| r.flags |= EdgeRecord::TOMBSTONE)
            }
            1 => {}
            2 => h.set_property(ptype, &arg.to_le_bytes()),
            3 => h.add_property(ptype, &vec![arg as u8; arg as usize % 19]),
            4 => drop(h.remove_property(ptype)),
            5 => drop(h.add_label(label)),
            6 => drop(h.remove_label(label)),
            7 => drop(h.remove_all_properties()),
            8 => h.compact_edges(),
            9 if (slot as usize) < slots => h.update_edge(slot, |r| rewired(r, arg)),
            9 => {}
            10 => h.set_version(arg),
            11 => h.set_commit_epoch(arg),
            12 => h.set_prev(arg),
            _ => h.retain_edges(|r| moved(r, arg)),
        }
    }

    fn sample() -> Holder {
        let mut h = Holder::new_vertex(42);
        h.add_label(LabelId(10));
        h.add_label(LabelId(11));
        h.add_property(PTypeId(3), &[1, 2, 3]);
        h.add_property(PTypeId(4), &77u64.to_le_bytes());
        h.push_edge(EdgeRecord::lightweight(
            DPtr::new(1, 512),
            5,
            Direction::Out,
        ));
        h.push_edge(EdgeRecord::lightweight(
            DPtr::new(2, 1024),
            6,
            Direction::In,
        ));
        h
    }

    /// `sample()` as the reference holds it.
    fn sample_model() -> Model {
        Model {
            edges: vec![
                EdgeRecord::lightweight(DPtr::new(1, 512), 5, Direction::Out),
                EdgeRecord::lightweight(DPtr::new(2, 1024), 6, Direction::In),
            ],
            entries: vec![
                (ENTRY_LABEL, 10u32.to_le_bytes().to_vec()),
                (ENTRY_LABEL, 11u32.to_le_bytes().to_vec()),
                (3, vec![1, 2, 3]),
                (4, 77u64.to_le_bytes().to_vec()),
            ],
            ..Model::vertex(42)
        }
    }

    /// Test views of a holder.
    impl Holder {
        fn labels(&self) -> Vec<LabelId> {
            self.entry_scan().labels().collect()
        }

        fn has_label(&self, label: LabelId) -> bool {
            self.entry_scan().has_label(label)
        }

        fn properties_raw(&self, ptype: PTypeId) -> Vec<&[u8]> {
            self.entry_scan().properties_raw(ptype).collect()
        }

        fn ptypes(&self) -> Vec<PTypeId> {
            self.entry_scan().ptypes()
        }

        fn edge_count(&self) -> usize {
            self.edge_scan().live().count()
        }

        /// Tombstone the edge record in `slot`. Returns the record if it
        /// was live.
        fn remove_edge(&mut self, slot: u32) -> Option<EdgeRecord> {
            let rec = self.edge_scan().get(slot)?;
            self.update_edge(slot, |r| r.flags |= EdgeRecord::TOMBSTONE);
            Some(rec)
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = sample();
        let bytes = h.bytes().to_vec();
        assert_eq!(bytes, sample_model().serialized());
        assert_eq!(Holder::peek_total_len(&bytes), bytes.len());
        assert_eq!(Model::parse(&bytes), Some(sample_model()));
        assert_eq!(Holder::from_bytes(bytes), Some(h));
    }

    #[test]
    fn empty_holder_roundtrip() {
        let h = Holder::new_vertex(0);
        assert_eq!(h.bytes(), Model::vertex(0).serialized());
        assert_eq!(h.bytes().len(), HEADER_BYTES);
        assert_eq!(Holder::from_bytes(h.bytes().to_vec()), Some(h));
    }

    #[test]
    fn edge_holder_roundtrip() {
        let (origin, target) = (DPtr::new(0, 128), DPtr::new(3, 256));
        let h = Holder::new_edge(origin, target);
        let want = Model {
            is_edge: true,
            edges: vec![
                EdgeRecord::lightweight(origin, 0, Direction::Out),
                EdgeRecord::lightweight(target, 0, Direction::In),
            ],
            ..Model::default()
        };
        assert_eq!(h.bytes(), want.serialized());
        let scan = Holder::scan_edges(h.bytes()).unwrap();
        assert!(scan.is_edge && h.is_edge());
        let dirs: Vec<Direction> = scan.records().map(|r| r.dir).collect();
        assert_eq!(dirs, [Direction::Out, Direction::In]);
    }

    #[test]
    fn label_crud() {
        let mut h = Holder::new_vertex(1);
        assert!(h.add_label(LabelId(5)));
        assert!(!h.add_label(LabelId(5)), "duplicate add is a no-op");
        assert!(h.has_label(LabelId(5)));
        assert_eq!(h.labels(), vec![LabelId(5)]);
        assert!(h.remove_label(LabelId(5)));
        assert!(!h.remove_label(LabelId(5)));
        assert!(h.labels().is_empty());
        assert_eq!(h, Holder::new_vertex(1), "back to the empty holder");
    }

    #[test]
    fn property_crud() {
        let mut h = Holder::new_vertex(1);
        h.add_property(PTypeId(3), &[1]);
        h.add_property(PTypeId(3), &[2]);
        assert_eq!(h.properties_raw(PTypeId(3)), vec![&[1][..], &[2][..]]);
        h.set_property(PTypeId(3), &[9]);
        assert_eq!(h.properties_raw(PTypeId(3)), vec![&[9][..], &[2][..]]);
        // a longer value moves the frames behind it
        h.set_property(PTypeId(3), &[8; 11]);
        assert_eq!(h.properties_raw(PTypeId(3)), vec![&[8; 11][..], &[2][..]]);
        assert_eq!(h.remove_property(PTypeId(3)), 2);
        assert!(h.properties_raw(PTypeId(3)).is_empty());
        assert_eq!(h, Holder::new_vertex(1));
    }

    #[test]
    fn remove_all_properties_keeps_labels() {
        let mut h = sample();
        let removed = h.remove_all_properties();
        assert_eq!(removed, 2);
        assert_eq!(h.labels().len(), 2);
        assert!(h.ptypes().is_empty());
    }

    #[test]
    fn ptypes_sorted_deduped() {
        let mut h = Holder::new_vertex(1);
        h.add_property(PTypeId(9), &[]);
        h.add_property(PTypeId(3), &[]);
        h.add_property(PTypeId(9), &[1]);
        assert_eq!(h.ptypes(), vec![PTypeId(3), PTypeId(9)]);
    }

    #[test]
    fn edge_tombstones_preserve_slots() {
        let mut h = sample();
        assert_eq!(h.edge_count(), 2);
        let removed = h.remove_edge(0).unwrap();
        assert_eq!(removed.label, 5);
        assert_eq!(h.edge_count(), 1);
        assert!(h.remove_edge(0).is_none(), "double remove");
        assert!(h.remove_edge(99).is_none(), "bad slot");
        // slot 1 still addresses the same record
        let live: Vec<u32> = h.edge_scan().live().map(|(s, _)| s).collect();
        assert_eq!(live, vec![1]);
        h.compact_edges();
        assert_eq!(h.edge_scan().records().count(), 1);
        let mut want = sample_model();
        want.edges.remove(0);
        assert_eq!(h.bytes(), want.serialized());
    }

    #[test]
    fn entry_padding_alignment() {
        for len in 0..=17 {
            let mut h = Holder::new_vertex(1);
            h.add_property(PTypeId(3), &vec![0xAB; len]);
            let entries = le_u32(h.bytes(), 8) as usize;
            assert!(entries.is_multiple_of(8));
            assert!(entries >= 8 + len);
            assert_eq!(h.properties_raw(PTypeId(3)), [&vec![0xAB; len][..]]);
        }
    }

    #[test]
    fn odd_sized_properties_roundtrip() {
        let (mut h, mut want) = (Holder::new_vertex(7), Model::vertex(7));
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63] {
            h.add_property(PTypeId(3 + len as u32), &vec![len as u8; len]);
            want.entries.push((3 + len as u32, vec![len as u8; len]));
        }
        assert_eq!(h.bytes(), want.serialized());
        assert_eq!(Model::parse(h.bytes()), Some(want));
    }

    #[test]
    fn version_survives_roundtrip() {
        let mut h = sample();
        h.set_version(9000);
        assert_eq!(h.version(), 9000);
        assert_eq!(Model::parse(h.bytes()).unwrap().version, 9000);
        // the version word sits where the block chain reads its stamp
        assert_eq!(crate::hio::stamp_of(h.bytes()), 9000);
    }

    #[test]
    fn mvcc_fields_survive_roundtrip() {
        let mut h = sample();
        h.set_commit_epoch(77);
        h.set_prev(DPtr::new(1, 4096).raw());
        let bytes = h.bytes().to_vec();
        assert_eq!(
            le_u64(&bytes, 32),
            77,
            "commit_epoch must sit at the fixed header offset"
        );
        assert_eq!(
            Holder::version_of(&bytes),
            Some((77, DPtr::new(1, 4096).raw()))
        );
        let want = Model {
            commit_epoch: 77,
            prev: DPtr::new(1, 4096).raw(),
            ..sample_model()
        };
        assert_eq!(bytes, want.serialized());
        // an unknown flag bit outside FLAG_EDGE_HOLDER is corrupt — the
        // archive-depth bits 16..24 of format 12 included
        for bit in [16, 23, 31] {
            let mut bad = bytes.clone();
            bad[12 + bit / 8] |= 1 << (bit % 8);
            assert!(Holder::from_bytes(bad).is_none(), "flag bit {bit}");
        }
    }

    /// What `from_bytes`, `scan_edges` and `scan_entries` promise, on
    /// arbitrary bytes: each accepts exactly what the reference decoder
    /// accepts, and then the holder keeps exactly the announced bytes,
    /// the edge scan yields exactly the decoded live edge records, the
    /// entry scan exactly the decoded entries — and every read derived
    /// from them agrees.
    fn assert_scan_matches_decode(bytes: &[u8]) {
        let decoded = Model::parse(bytes);
        let verdict = |accepts: bool| if accepts { "accepts" } else { "refuses" };
        let agree = |reader: &str, accepts: bool| {
            assert_eq!(
                accepts,
                decoded.is_some(),
                "{reader} {} what the reference decoder {}",
                verdict(accepts),
                verdict(decoded.is_some()),
            );
        };
        let holder = Holder::from_bytes(bytes.to_vec());
        agree("from_bytes", holder.is_some());
        agree("scan_edges", Holder::scan_edges(bytes).is_some());
        agree("scan_entries", Holder::scan_entries(bytes).is_some());
        let (Some(m), Some(holder)) = (decoded, holder) else {
            return;
        };
        // a holder has one byte form: its reference encoding
        let announced = &bytes[..Holder::peek_total_len(bytes)];
        assert_eq!(holder.bytes(), announced, "kept bytes");
        assert_eq!(m.serialized(), announced, "one byte form");
        let live: Vec<(u32, EdgeRecord)> = (m.edges.iter().enumerate())
            .filter(|(_, r)| !r.is_tombstone())
            .map(|(s, r)| (s as u32, *r))
            .collect();
        let want: Vec<(u32, &[u8])> = m.entries.iter().map(|(id, d)| (*id, &d[..])).collect();
        let labels: Vec<LabelId> = (m.entries.iter())
            .filter(|(id, d)| *id == ENTRY_LABEL && d.len() == 4)
            .map(|(_, d)| LabelId(le_u32(d, 0)))
            .collect();
        let (edges, entries) = (
            Holder::scan_edges(bytes).unwrap(),
            Holder::scan_entries(bytes).unwrap(),
        );
        for scan in [edges, holder.edge_scan()] {
            assert_eq!((scan.app_id, scan.is_edge), (m.app_id, m.is_edge));
            assert_eq!(scan.live().collect::<Vec<_>>(), live);
            for slot in 0..=m.edges.len() as u32 {
                let want = live.iter().find(|(s, _)| *s == slot).map(|(_, r)| *r);
                assert_eq!(scan.get(slot), want);
            }
        }
        for scan in [entries, holder.entry_scan()] {
            assert_eq!(scan.app_id, m.app_id);
            assert_eq!(scan.entries().collect::<Vec<_>>(), want);
            assert_eq!(scan.labels().collect::<Vec<_>>(), labels);
            for id in 0..16 {
                assert_eq!(scan.has_label(LabelId(id)), m.has_label(LabelId(id)));
                let values: Vec<&[u8]> = (want.iter())
                    .filter(|(e, _)| *e == id)
                    .map(|(_, d)| *d)
                    .collect();
                assert_eq!(scan.properties_raw(PTypeId(id)).collect::<Vec<_>>(), values);
            }
        }
    }

    /// A holder with edges in every direction, a tombstone in the
    /// middle and entries of awkward lengths.
    fn busy() -> Holder {
        let mut h = sample();
        h.push_edge(EdgeRecord::lightweight(
            DPtr::new(0, 640),
            0,
            Direction::Undirected,
        ));
        h.push_edge(EdgeRecord {
            edge_holder: DPtr::new(1, 768),
            ..EdgeRecord::lightweight(DPtr::new(1, 512), 9, Direction::Out)
        });
        h.remove_edge(1).unwrap();
        h.add_property(PTypeId(9), &[7; 13]);
        h.add_property(PTypeId(10), &[]);
        h
    }

    #[test]
    fn scan_edges_reads_what_decode_reads() {
        for h in [sample(), busy(), Holder::new_vertex(3)] {
            assert_scan_matches_decode(h.bytes());
            assert!(Holder::scan_edges(h.bytes()).is_some());
        }
        let live: Vec<u32> = Holder::scan_edges(busy().bytes())
            .unwrap()
            .live()
            .map(|(slot, _)| slot)
            .collect();
        assert_eq!(live, [0, 2, 3], "the tombstoned slot is skipped");
    }

    #[test]
    fn scan_entries_reads_what_decode_reads() {
        for h in [sample(), busy(), Holder::new_vertex(3)] {
            assert_scan_matches_decode(h.bytes());
            assert!(Holder::scan_entries(h.bytes()).is_some());
        }
        let h = busy();
        let scan = Holder::scan_entries(h.bytes()).unwrap();
        assert!(scan.has_label(LabelId(10)) && scan.has_label(LabelId(11)));
        assert!(!scan.has_label(LabelId(3)), "a p-type id is not a label");
        assert_eq!(
            scan.properties_raw(PTypeId(9)).collect::<Vec<_>>(),
            [&[7u8; 13][..]]
        );
        // present-but-empty is not absent
        assert_eq!(
            scan.properties_raw(PTypeId(10)).collect::<Vec<_>>(),
            [&[][..]]
        );
        assert_eq!(scan.properties_raw(PTypeId(12)).count(), 0);
    }

    /// A label entry is exactly the 4-byte id: a label-tagged entry of
    /// any other width is no label, to every reader and to the editor.
    #[test]
    fn odd_width_label_entries_carry_no_label() {
        let mut h = Holder::new_vertex(1);
        for len in [0usize, 3, 5, 8] {
            h.push_entry(ENTRY_LABEL, &7u64.to_le_bytes()[..len]);
        }
        assert_scan_matches_decode(h.bytes());
        assert!(!Holder::scan_entries(h.bytes())
            .unwrap()
            .has_label(LabelId(7)));
        assert!(!h.remove_label(LabelId(7)), "no 4-byte entry to remove");
        assert!(h.add_label(LabelId(7)));
        assert_scan_matches_decode(h.bytes());
        assert!(Holder::scan_entries(h.bytes())
            .unwrap()
            .has_label(LabelId(7)));
    }

    /// Multi-valued properties keep their entry order through both
    /// readers — "the first entry of a p-type" is the same entry.
    #[test]
    fn multi_valued_properties_keep_entry_order() {
        let mut h = Holder::new_vertex(1);
        h.add_property(PTypeId(5), &[1]);
        h.add_label(LabelId(2));
        h.add_property(PTypeId(6), &[9; 8]);
        h.add_property(PTypeId(5), &[2, 2]);
        h.add_property(PTypeId(5), &[3]);
        let scan = Holder::scan_entries(h.bytes()).unwrap();
        let got: Vec<&[u8]> = scan.properties_raw(PTypeId(5)).collect();
        assert_eq!(got, [&[1u8][..], &[2, 2], &[3]]);
        assert_eq!(got, h.properties_raw(PTypeId(5)));
        assert_eq!(scan.properties_raw(PTypeId(5)).next(), Some(&[1u8][..]));
    }

    /// The positions a hostile writer would aim at, one by one: each is
    /// refused by every reader.
    #[test]
    fn scans_refuse_what_decode_refuses() {
        let good = busy().bytes().to_vec();
        let refused = |m: Vec<u8>| {
            assert_scan_matches_decode(&m);
            assert!(Holder::scan_edges(&m).is_none());
            assert!(Holder::scan_entries(&m).is_none());
            assert!(Holder::from_bytes(m).is_none());
        };
        let with = |at: usize, v: &[u8]| {
            let mut m = good.clone();
            m[at..at + v.len()].copy_from_slice(v);
            m
        };
        let u32_at = |at: usize| le_u32(&good, at);
        // unknown flag bit
        refused(with(15, &[good[15] | 0x80]));
        // bad direction byte: on a live record, and on the tombstoned
        // one (every record is validated)
        refused(with(HEADER_BYTES + 20, &[3]));
        refused(with(HEADER_BYTES + EDGE_RECORD_BYTES + 20, &[0xFF]));
        // length arithmetic off by one, each of the three terms
        refused(with(0, &(u32_at(0) + 1).to_le_bytes()));
        refused(with(0, &(u32_at(0) - 1).to_le_bytes()));
        refused(with(4, &(u32_at(4) + 1).to_le_bytes()));
        refused(with(8, &(u32_at(8) - 8).to_le_bytes()));
        // total length beyond the bytes at hand, below the header
        refused(good[..good.len() - 1].to_vec());
        refused(with(0, &40u32.to_le_bytes()));
        refused(good[..HEADER_BYTES - 1].to_vec());
        // entry framing: a length that overruns the section (by a lot,
        // by one byte), and a section whose end no frame boundary meets
        let entries = HEADER_BYTES + 4 * EDGE_RECORD_BYTES;
        refused(with(entries + 4, &u32::MAX.to_le_bytes()));
        let last = good.len() - 8; // the empty property's frame
        refused(with(last + 4, &1u32.to_le_bytes()));
        let mut ragged = with(0, &(u32_at(0) + 4).to_le_bytes());
        ragged[8..12].copy_from_slice(&(u32_at(8) + 4).to_le_bytes());
        ragged.extend_from_slice(&[0; 4]);
        refused(ragged);
        // bytes past the announced length are not the holder's
        let mut longer = good.clone();
        longer.extend_from_slice(&[0xEE; 5]);
        assert_scan_matches_decode(&longer);
        assert_eq!(Holder::from_bytes(longer).unwrap().bytes(), good);
    }

    /// Pad bytes count toward validity: one `0xFF` pad byte in an edge
    /// record, or after an entry's data, and every reader refuses the
    /// holder — the reference decoder, the scans, `from_bytes` and an
    /// archive rewinding it — so one logical holder has one byte form.
    #[test]
    fn a_non_zero_pad_byte_is_refused() {
        let mut pre = busy();
        pre.set_version(9);
        let mut post = pre.clone();
        post.set_version(10);
        let archive = Archive::parse(&Archive::record(
            pre.bytes(),
            &splice(pre.bytes(), post.bytes()),
        ))
        .unwrap();
        let good = post.bytes().to_vec();
        assert_eq!(archive.rewind(&good).as_deref(), Some(pre.bytes()));
        // property 9's frame, second to last: 13 data bytes, 3 pad bytes
        let frame = good.len() - 8 - (8 + 16);
        assert_eq!((le_u32(&good, frame), le_u32(&good, frame + 4)), (9, 13));
        let edge_pads = [HEADER_BYTES + 22, HEADER_BYTES + EDGE_RECORD_BYTES + 23];
        let entry_pads = [frame + 8 + 13, frame + 8 + 15];
        for at in edge_pads.into_iter().chain(entry_pads) {
            let mut m = good.clone();
            m[at] = 0xFF;
            assert!(Model::parse(&m).is_none(), "byte {at}");
            assert_scan_matches_decode(&m);
            assert!(Holder::scan_edges(&m).is_none(), "byte {at}");
            assert!(Holder::scan_entries(&m).is_none(), "byte {at}");
            assert!(archive.rewind(&m).is_none(), "byte {at}");
            assert!(Holder::from_bytes(m).is_none(), "byte {at}");
        }
    }

    /// Edge records `(rank, block, label, direction, tombstone)`.
    type GenEdges = Vec<(usize, u64, u32, u8, u8)>;

    /// A holder from the generators below: `edges` as records, `props`
    /// as `(entry id, value length)` entries — id 2 is the label tag, so
    /// label entries of every width occur.
    fn generated(edges: &GenEdges, props: &[(u32, usize)], is_edge: bool) -> Model {
        let mut m = Model {
            is_edge,
            ..Model::vertex(77)
        };
        for &(rank, block, label, dir, tomb) in edges {
            m.edges.push(EdgeRecord {
                flags: tomb,
                ..EdgeRecord::lightweight(
                    DPtr::new(rank, block * 128),
                    label,
                    Direction::from_u8(dir).unwrap(),
                )
            });
        }
        for &(id, len) in props {
            m.entries.push((id, vec![0xA5; len]));
        }
        m
    }

    /// `post` as recovery writes it back: commit epoch 0, no archive
    /// link.
    fn rebuilt(post: &Holder) -> Vec<u8> {
        let mut post = post.clone();
        post.set_commit_epoch(0);
        post.set_prev(0);
        post.bytes
    }

    #[test]
    fn splice_of_a_value_update_is_the_changed_bytes() {
        let pre = busy();
        let mut post = pre.clone();
        post.set_property(PTypeId(4), &78u64.to_le_bytes());
        post.set_version(9);
        post.set_commit_epoch(5);
        post.set_prev(4096);
        let (a, b) = (pre.bytes(), post.bytes());
        let s = splice(a, b);
        assert_eq!((s.cut, s.bytes.as_slice()), (1, &[78u8][..]), "{s:?}");
        assert_eq!(s.num_edges, 4);
        let got = apply_splice(a, &s, post.app_id(), post.is_edge(), post.version());
        assert_eq!(got, Some(rebuilt(&post)));
        // against no base, the splice is the whole body
        let whole = splice(&[], b);
        assert_eq!((whole.at, whole.cut), (0, 0));
        assert_eq!(whole.bytes, b[HEADER_BYTES..]);
        assert_eq!(
            apply_splice(&[], &whole, post.app_id(), post.is_edge(), post.version()),
            Some(rebuilt(&post))
        );
    }

    /// Splices that do not fit their base are refused, never applied.
    #[test]
    fn apply_splice_refuses_what_does_not_fit() {
        let pre = busy().bytes().to_vec();
        let len = (pre.len() - HEADER_BYTES) as u32;
        let fits = Splice {
            at: len,
            cut: 0,
            bytes: Vec::new(),
            num_edges: 4,
        };
        assert!(apply_splice(&pre, &fits, 42, false, 1).is_some());
        for bad in [
            Splice {
                at: len + 1,
                ..fits.clone()
            },
            Splice {
                at: len,
                cut: 1,
                ..fits.clone()
            },
            Splice {
                at: u32::MAX,
                cut: u32::MAX,
                ..fits.clone()
            },
            Splice {
                num_edges: 5,
                ..fits.clone()
            },
            Splice {
                num_edges: u32::MAX,
                ..fits.clone()
            },
            Splice {
                num_edges: 3,
                ..fits.clone()
            },
            Splice {
                at: 0,
                cut: 1,
                ..fits.clone()
            },
        ] {
            assert_eq!(apply_splice(&pre, &bad, 42, false, 1), None, "{bad:?}");
        }
        // a base that is no holder
        assert_eq!(
            apply_splice(&pre[..HEADER_BYTES], &fits, 42, false, 1),
            None
        );
        assert_eq!(apply_splice(&[], &fits, 42, false, 1), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The byte editor ≡ the reference: random vertex and edge
        /// holders under random edit sequences mixing every mutator —
        /// labels, properties, records pushed, tombstoned and rewritten
        /// by slot, compaction, recovery's record rewrite, the header
        /// setters. After every edit the holder's bytes are exactly what
        /// the reference encoder makes of the same content, every reader
        /// accepts them, and the on-disk format is still version 13.
        #[test]
        fn edits_match_the_reference_encoder(
            edges in proptest::collection::vec((0usize..4, 1u64..64, 0u32..5, 0u8..3, 0u8..2), 0..12),
            props in proptest::collection::vec((2u32..9, 0usize..20), 0..6),
            is_edge in proptest::any::<bool>(),
            ops in proptest::collection::vec((0u8..14, proptest::any::<u64>()), 1..24),
        ) {
            proptest::prop_assert_eq!(crate::persist::FORMAT_VERSION, 13);
            let mut m = generated(&edges, &props, is_edge);
            let mut h = m.built();
            proptest::prop_assert_eq!(h.bytes(), m.serialized());
            for (op, arg) in ops {
                mutate(&mut h, op, arg);
                m.mutate(op, arg);
                let want = m.serialized();
                proptest::prop_assert!(h.bytes() == want, "op {op} arg {arg}: {:?} != {want:?}", h.bytes());
                proptest::prop_assert!(Layout::validated(h.bytes()).is_some());
                proptest::prop_assert_eq!(Model::parse(h.bytes()), Some(m.clone()));
            }
        }

        /// `apply_splice(pre, splice(pre, post)) == post` for random
        /// holders and random write sequences — whatever MVCC header the
        /// two versions carry — and the splice never holds more than
        /// the new body.
        #[test]
        fn apply_splice_inverts_splice(
            edges in proptest::collection::vec((0usize..4, 1u64..64, 0u32..5, 0u8..3, 0u8..2), 0..12),
            props in proptest::collection::vec((2u32..9, 0usize..20), 0..6),
            is_edge in proptest::any::<bool>(),
            ops in proptest::collection::vec((0u8..8, proptest::any::<u64>()), 0..6),
            header in (proptest::any::<u64>(), proptest::any::<u64>()),
        ) {
            let mut pre = generated(&edges, &props, is_edge).built();
            pre.set_commit_epoch(header.0);
            pre.set_prev(header.1);
            let mut post = pre.clone();
            for (op, arg) in ops {
                mutate(&mut post, op, arg);
            }
            post.compact_edges();
            post.set_version(pre.version() + 1);
            post.set_commit_epoch(header.0.wrapping_add(1));
            post.set_prev(64);
            let (a, b) = (pre.bytes(), post.bytes());
            let want = rebuilt(&post);
            for base in [a, &[]] {
                let s = splice(base, b);
                proptest::prop_assert!(s.bytes.len() <= b.len() - HEADER_BYTES);
                let got = apply_splice(base, &s, post.app_id(), post.is_edge(), post.version());
                proptest::prop_assert_eq!(got.as_ref(), Some(&want));
            }
        }

        /// Rewinding `post` by the archive record built from
        /// `splice(pre, post)` gives back `pre`'s body under `pre`'s
        /// version, commit epoch and `prev`, for random holders and
        /// random write sequences; the record holds only the bytes the
        /// overwrite replaced.
        #[test]
        fn archive_rewind_inverts_splice(
            edges in proptest::collection::vec((0usize..4, 1u64..64, 0u32..5, 0u8..3, 0u8..2), 0..12),
            props in proptest::collection::vec((2u32..9, 0usize..20), 0..6),
            is_edge in proptest::any::<bool>(),
            ops in proptest::collection::vec((0u8..8, proptest::any::<u64>()), 0..6),
            header in (proptest::any::<u64>(), proptest::any::<u64>()),
        ) {
            let mut pre = generated(&edges, &props, is_edge).built();
            pre.set_version(9);
            pre.set_commit_epoch(header.0);
            pre.set_prev(header.1);
            let mut post = pre.clone();
            for (op, arg) in ops {
                mutate(&mut post, op, arg);
            }
            post.compact_edges();
            post.set_version(10);
            post.set_commit_epoch(header.0.wrapping_add(1));
            post.set_prev(4096);
            let (a, b) = (pre.bytes(), post.bytes());
            let fwd = splice(a, b);
            let record = Archive::record(a, &fwd);
            proptest::prop_assert_eq!(record.len(), HEADER_BYTES + fwd.cut as usize);
            let archive = Archive::parse(&record).unwrap();
            proptest::prop_assert_eq!(
                (archive.app_id, archive.version, archive.commit_epoch, archive.prev),
                (pre.app_id(), 9, header.0, header.1)
            );
            proptest::prop_assert_eq!(archive.rewind(b), Some(a.to_vec()));
        }

        /// A hostile archive record — any byte of it overwritten, a whole
        /// word set to `u32::MAX`, the record cut short — and a hostile
        /// version to rewind are refused or yield a holder every reader
        /// accepts; never a panic.
        #[test]
        fn hostile_archive_records_never_panic(
            edges in proptest::collection::vec((0usize..4, 1u64..64, 0u32..5, 0u8..3, 0u8..2), 0..12),
            props in proptest::collection::vec((2u32..9, 0usize..20), 0..6),
            ops in proptest::collection::vec((0u8..8, proptest::any::<u64>()), 1..6),
            hits in proptest::collection::vec((0usize..4096, 0u64..6, proptest::any::<bool>()), 1..8),
        ) {
            let pre = generated(&edges, &props, false).built();
            let mut post = pre.clone();
            for (op, arg) in ops {
                mutate(&mut post, op, arg);
            }
            post.compact_edges();
            let (a, b) = (pre.bytes(), post.bytes());
            let good = Archive::record(a, &splice(a, b));
            for (at, kind, on_record) in hits {
                let (mut record, mut version) = (good.clone(), b.to_vec());
                let m = if on_record { &mut record } else { &mut version };
                let at = at % m.len();
                match kind {
                    0 => m[at] = 0xFF,
                    1 => m[at] = m[at].wrapping_add(1),
                    2 => m[at] = m[at].wrapping_sub(1),
                    3 => m[at] ^= 0x80,
                    4 => {
                        let at = at & !3;
                        let end = (at + 4).min(m.len());
                        m[at..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - at]);
                    }
                    _ => m.truncate(at),
                }
                if let Some(rewound) = Archive::parse(&record).and_then(|r| r.rewind(&version)) {
                    proptest::prop_assert!(Holder::from_bytes(rewound.clone()).is_some());
                    assert_scan_matches_decode(&rewound);
                }
            }
        }

        /// Random holders are read alike by every reader and the
        /// reference decoder — and so is every single-field corruption
        /// of them: any byte of the header or of an edge record's
        /// direction/flags, any entry frame word, overwritten with a
        /// hostile value.
        #[test]
        fn scans_are_from_bytes_on_random_and_hostile_holders(
            edges in proptest::collection::vec((0usize..4, 1u64..64, 0u32..5, 0u8..3, 0u8..2), 0..12),
            props in proptest::collection::vec((2u32..9, 0usize..20), 0..6),
            is_edge in 0u8..2,
            hits in proptest::collection::vec((0usize..4096, 0u64..6), 1..8),
        ) {
            let good = generated(&edges, &props, is_edge == 1).serialized();
            assert_scan_matches_decode(&good);
            proptest::prop_assert!(Holder::scan_edges(&good).is_some());
            proptest::prop_assert!(Holder::scan_entries(&good).is_some());
            for (at, kind) in hits {
                let mut m = good.clone();
                let at = at % m.len();
                match kind {
                    0 => m[at] = 0xFF,
                    1 => m[at] = m[at].wrapping_add(1),
                    2 => m[at] = m[at].wrapping_sub(1),
                    3 => m[at] ^= 0x80,
                    4 => {
                        // a whole hostile word
                        let at = at & !3;
                        let end = (at + 4).min(m.len());
                        m[at..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - at]);
                    }
                    _ => m.truncate(at),
                }
                assert_scan_matches_decode(&m);
            }
        }
    }

    fn arb_direction() -> impl Strategy<Value = Direction> {
        prop_oneof![
            Just(Direction::Out),
            Just(Direction::In),
            Just(Direction::Undirected)
        ]
    }

    fn arb_edge() -> impl Strategy<Value = EdgeRecord> {
        (
            0usize..64,
            0u64..(1u64 << 40),
            any::<u32>(),
            arb_direction(),
            prop::bool::ANY,
        )
            .prop_map(|(rank, off, label, dir, tomb)| {
                let mut e = EdgeRecord::lightweight(DPtr::new(rank, off & !7), label, dir);
                if tomb {
                    e.flags |= EdgeRecord::TOMBSTONE;
                }
                e
            })
    }

    fn arb_entry() -> impl Strategy<Value = (u32, Vec<u8>)> {
        prop_oneof![
            (1u32..2000).prop_map(|l| (ENTRY_LABEL, l.to_le_bytes().to_vec())),
            (3u32..500, prop::collection::vec(any::<u8>(), 0..100)),
        ]
    }

    fn arb_holder() -> impl Strategy<Value = Model> {
        (
            any::<u64>(),
            prop::bool::ANY,
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_edge(), 0..24),
            prop::collection::vec(arb_entry(), 0..16),
        )
            .prop_map(
                |(app_id, is_edge, version, commit_epoch, prev, edges, entries)| Model {
                    app_id,
                    is_edge,
                    version,
                    commit_epoch,
                    prev,
                    edges,
                    entries,
                },
            )
    }

    proptest! {
        #[test]
        fn holder_encode_decode_roundtrip(m in arb_holder()) {
            let h = m.built();
            let bytes = h.bytes().to_vec();
            prop_assert_eq!(&bytes, &m.serialized());
            prop_assert_eq!(Holder::peek_total_len(&bytes), bytes.len());
            prop_assert_eq!(Model::parse(&bytes), Some(m));
            prop_assert_eq!(Holder::from_bytes(bytes), Some(h));
        }

        #[test]
        fn holder_label_ops_preserve_properties(m in arb_holder(), l in 1u32..2000) {
            let h = m.built();
            let mut h2 = h.clone();
            let label = LabelId(l);
            h2.add_label(label);
            prop_assert!(h2.has_label(label));
            // property entries untouched by label operations
            prop_assert_eq!(h2.ptypes(), h.ptypes());
            h2.remove_label(label);
            prop_assert!(!h2.has_label(label));
        }

        #[test]
        fn holder_edge_count_equals_live_records(m in arb_holder()) {
            let live = m.edges.iter().filter(|e| !e.is_tombstone()).count();
            let h = m.built();
            prop_assert_eq!(h.edge_count(), live);
            prop_assert_eq!(h.edge_scan().live().count(), live);
        }

        #[test]
        fn compaction_preserves_live_edges(m in arb_holder()) {
            let h = m.built();
            let mut h2 = h.clone();
            let live: Vec<EdgeRecord> = h.edge_scan().live().map(|(_, e)| e).collect();
            h2.compact_edges();
            let after: Vec<EdgeRecord> = h2.edge_scan().live().map(|(_, e)| e).collect();
            prop_assert_eq!(&live, &after);
            prop_assert_eq!(h2.edge_scan().records().count(), h2.edge_count());
            let want = Model { edges: live, ..m };
            prop_assert_eq!(h2.bytes(), want.serialized());
        }
    }
}
