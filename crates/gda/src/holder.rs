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
//! ### Reading without decoding
//!
//! [`Holder::try_decode`] materialises a `Holder` (a `Vec` of records, a
//! `Vec<u8>` per entry) — what a transaction that edits or re-reads an
//! object wants. Readers that look once read the serialized bytes in
//! place: [`Holder::scan_edges`] yields the live edge records,
//! [`Holder::scan_entries`] tests labels and finds property values. All
//! three validate through one private layout parser, so they accept
//! exactly the same bytes.

use gdi::{Direction, LabelId, PTypeId, ENTRY_LABEL, FIRST_PTYPE_ID};

use crate::dptr::DPtr;

/// Bytes of one serialized edge record.
pub const EDGE_RECORD_BYTES: usize = 24;
/// Bytes of the serialized holder header.
pub const HEADER_BYTES: usize = 48;
/// Holder flag: this holder describes a (heavyweight) edge, not a vertex.
pub const FLAG_EDGE_HOLDER: u32 = 1;
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
pub struct Splice {
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
pub fn splice(pre: &[u8], post: &[u8]) -> Splice {
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
/// a holder [`Holder::try_decode`] accepts.
pub fn apply_splice(
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

/// Write `prev` into the header of the serialized holder `bytes` — a
/// commit links the version it encoded to the archive it wrote after
/// encoding it.
pub(crate) fn relink(bytes: &mut [u8], prev: u64) {
    bytes[PREV_OFFSET..PREV_OFFSET + 8].copy_from_slice(&prev.to_le_bytes());
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
pub struct Archive {
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
    pub fn parse(bytes: &[u8]) -> Option<Archive> {
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
        let mut pre = apply_splice(post, &self.undo, self.app_id, is_edge, self.version)?;
        pre[32..40].copy_from_slice(&self.commit_epoch.to_le_bytes());
        relink(&mut pre, self.prev);
        Some(pre)
    }
}

/// A lightweight edge record stored inside a vertex holder (§5.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRecord {
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
    pub const TOMBSTONE: u8 = 1;

    /// A lightweight record (no heavy holder) to `target`.
    pub fn lightweight(target: DPtr, label: u32, dir: Direction) -> Self {
        Self {
            target,
            edge_holder: DPtr::NULL,
            label,
            dir,
            flags: 0,
        }
    }

    /// Is this record tombstoned?
    pub fn is_tombstone(&self) -> bool {
        self.flags & Self::TOMBSTONE != 0
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.target.raw().to_le_bytes());
        out.extend_from_slice(&self.edge_holder.raw().to_le_bytes());
        out.extend_from_slice(&self.label.to_le_bytes());
        out.push(self.dir as u8);
        out.push(self.flags);
        out.extend_from_slice(&[0u8; 2]);
    }

    fn decode(b: &[u8]) -> Option<Self> {
        let b = b.first_chunk::<EDGE_RECORD_BYTES>()?;
        let target = DPtr::from_raw(le_u64(b, 0));
        let edge_holder = DPtr::from_raw(le_u64(b, 8));
        let label = le_u32(b, 16);
        let dir = Direction::from_u8(b[20])?;
        let flags = b[21];
        Some(Self {
            target,
            edge_holder,
            label,
            dir,
            flags,
        })
    }
}

/// One label or property entry (§5.4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// `ENTRY_LABEL` for labels; a p-type integer id (`>= FIRST_PTYPE_ID`)
    /// for properties.
    pub id: u32,
    /// Raw value bytes (for a label: the 4-byte LE label id).
    pub data: Vec<u8>,
}

impl Entry {
    /// A label entry.
    pub fn label(label: LabelId) -> Self {
        Self {
            id: ENTRY_LABEL,
            data: label.0.to_le_bytes().to_vec(),
        }
    }

    /// A property entry of `ptype` with raw value bytes.
    pub fn property(ptype: PTypeId, data: Vec<u8>) -> Self {
        debug_assert!(ptype.0 >= FIRST_PTYPE_ID);
        Self { id: ptype.0, data }
    }

    /// The label id, if this is a label entry.
    pub fn as_label(&self) -> Option<LabelId> {
        if self.id == ENTRY_LABEL && self.data.len() == 4 {
            Some(LabelId(le_u32(&self.data, 0)))
        } else {
            None
        }
    }

    /// Is this a property entry of `ptype`?
    pub fn is_property_of(&self, ptype: PTypeId) -> bool {
        self.id == ptype.0
    }

    /// Serialized size including the 8-byte entry header and padding.
    pub fn encoded_len(&self) -> usize {
        8 + self.data.len().div_ceil(8) * 8
    }
}

/// A decoded holder: the Logical Layout view of one vertex or heavy edge.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Holder {
    /// Application-level id (vertices only; 0 for edge holders).
    pub app_id: u64,
    /// Is this an edge holder?
    pub is_edge: bool,
    /// Version counter, bumped on every write-back. Under MVCC this is
    /// the rank-unique commit stamp also written into every block's
    /// stamp word (the torn-read seqlock validator, see `crate::hio`).
    pub version: u64,
    /// Global commit epoch this version became visible at (0 =
    /// bulk-loaded / pre-MVCC: visible to every snapshot).
    pub commit_epoch: u64,
    /// Raw `DPtr` of the archived previous version's chain head, or
    /// `DPtr::NULL` if none. Archives are immutable; once the snapshot
    /// floor reaches this version's commit epoch the record may be freed
    /// and the pointer dangles, but no snapshot follows it any more.
    pub prev: u64,
    /// Lightweight edge records (vertices) or the two endpoints (edges).
    pub edges: Vec<EdgeRecord>,
    /// Label and property entries.
    pub entries: Vec<Entry>,
}

impl Holder {
    /// A fresh vertex holder.
    pub fn new_vertex(app_id: u64) -> Self {
        Self {
            app_id,
            ..Default::default()
        }
    }

    /// A fresh edge holder for a heavy edge between `origin` and `target`.
    pub fn new_edge(origin: DPtr, target: DPtr) -> Self {
        Self {
            is_edge: true,
            edges: vec![
                EdgeRecord::lightweight(origin, 0, Direction::Out),
                EdgeRecord::lightweight(target, 0, Direction::In),
            ],
            ..Default::default()
        }
    }

    // ----- labels ---------------------------------------------------------

    /// All labels on the element.
    pub fn labels(&self) -> Vec<LabelId> {
        self.entry_scan().labels().collect()
    }

    /// Does the element carry `label`?
    pub fn has_label(&self, label: LabelId) -> bool {
        self.entry_scan().has_label(label)
    }

    /// Add a label; no-op if already present. Returns whether it was added.
    pub fn add_label(&mut self, label: LabelId) -> bool {
        if self.has_label(label) {
            return false;
        }
        self.entries.push(Entry::label(label));
        true
    }

    /// Remove a label. Returns whether it was present.
    pub fn remove_label(&mut self, label: LabelId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.as_label() != Some(label));
        self.entries.len() != before
    }

    // ----- properties ------------------------------------------------------

    /// Raw bytes of all property entries of `ptype`, in entry order.
    pub fn properties_raw(&self, ptype: PTypeId) -> Vec<&[u8]> {
        self.entry_scan().properties_raw(ptype).collect()
    }

    /// This decoded holder's entries behind the reader that
    /// [`Holder::scan_entries`] gives serialized bytes: one label test
    /// and one property lookup for both representations.
    pub fn entry_scan(&self) -> EntryScan<'_> {
        EntryScan {
            app_id: self.app_id,
            src: EntrySrc::Decoded(&self.entries),
        }
    }

    /// Append a property entry.
    pub fn add_property(&mut self, ptype: PTypeId, data: Vec<u8>) {
        self.entries.push(Entry::property(ptype, data));
    }

    /// Replace the first entry of `ptype` (insert if absent) — the `Single`
    /// multiplicity update path.
    pub fn set_property(&mut self, ptype: PTypeId, data: Vec<u8>) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.is_property_of(ptype)) {
            e.data = data;
        } else {
            self.add_property(ptype, data);
        }
    }

    /// Remove all entries of `ptype`. Returns the number removed.
    pub fn remove_property(&mut self, ptype: PTypeId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !e.is_property_of(ptype));
        before - self.entries.len()
    }

    /// Remove every property entry (keeps labels) —
    /// `GDI_RemoveAllPropertiesFromVertex`.
    pub fn remove_all_properties(&mut self) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.id == ENTRY_LABEL);
        before - self.entries.len()
    }

    /// All distinct p-type ids present — `GDI_GetAllPropertyTypesOf…`.
    pub fn ptypes(&self) -> Vec<PTypeId> {
        self.entry_scan().ptypes()
    }

    // ----- edges -----------------------------------------------------------

    /// This decoded holder's edge records behind the reader that
    /// [`Holder::scan_edges`] gives serialized bytes.
    pub(crate) fn edge_scan(&self) -> EdgeScan<'_> {
        EdgeScan {
            app_id: self.app_id,
            is_edge: self.is_edge,
            src: EdgeSrc::Decoded(&self.edges),
        }
    }

    /// Live (non-tombstoned) edge records with their slots.
    pub fn live_edges(&self) -> impl Iterator<Item = (u32, &EdgeRecord)> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.is_tombstone())
            .map(|(i, e)| (i as u32, e))
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.is_tombstone()).count()
    }

    /// Append an edge record; returns its slot (stable edge-UID offset).
    pub fn push_edge(&mut self, rec: EdgeRecord) -> u32 {
        self.edges.push(rec);
        (self.edges.len() - 1) as u32
    }

    /// Tombstone the edge record in `slot`. Returns the record if it was
    /// live.
    pub fn remove_edge(&mut self, slot: u32) -> Option<EdgeRecord> {
        let rec = self.edges.get_mut(slot as usize)?;
        if rec.is_tombstone() {
            return None;
        }
        let out = *rec;
        rec.flags |= EdgeRecord::TOMBSTONE;
        Some(out)
    }

    /// Drop trailing/interior tombstones (compaction at write-back; edge
    /// UIDs are volatile across transactions, §3.4, so compaction between
    /// transactions is legal).
    pub fn compact_edges(&mut self) {
        self.edges.retain(|e| !e.is_tombstone());
    }

    // ----- serialization ---------------------------------------------------

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES
            + self.edges.len() * EDGE_RECORD_BYTES
            + self.entries.iter().map(Entry::encoded_len).sum::<usize>()
    }

    /// Serialize to the on-block byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let total = self.encoded_len();
        let mut out = Vec::with_capacity(total);
        let entries_bytes: usize = self.entries.iter().map(Entry::encoded_len).sum();
        let flags = if self.is_edge { FLAG_EDGE_HOLDER } else { 0 };
        let words = [self.app_id, self.version, self.commit_epoch, self.prev];
        out.extend_from_slice(&header(
            self.edges.len() as u32,
            entries_bytes as u32,
            flags,
            words,
        ));
        for e in &self.edges {
            e.encode(&mut out);
        }
        for e in &self.entries {
            out.extend_from_slice(&e.id.to_le_bytes());
            out.extend_from_slice(&(e.data.len() as u32).to_le_bytes());
            out.extend_from_slice(&e.data);
            let pad = e.data.len().div_ceil(8) * 8 - e.data.len();
            out.extend_from_slice(&[0u8; 8][..pad]);
        }
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Total length field of a serialized holder (peek at the first bytes).
    pub fn peek_total_len(bytes: &[u8]) -> usize {
        le_u32(bytes, 0) as usize
    }

    /// Decode from the on-block byte layout. Panics on corrupt input; use
    /// [`Holder::try_decode`] for bytes fetched from shared memory, where a
    /// stale internal id may point at storage that was reclaimed and
    /// reused by another object (§3.4: volatile ids).
    pub fn decode(bytes: &[u8]) -> Self {
        Self::try_decode(bytes).expect("corrupt holder bytes")
    }

    /// Defensive decode: structural validation of every field, `None` on
    /// any inconsistency.
    pub fn try_decode(bytes: &[u8]) -> Option<Self> {
        let lay = Layout::parse(bytes)?;
        let app_id = le_u64(bytes, 16);
        let version = le_u64(bytes, 24);
        let commit_epoch = le_u64(bytes, 32);
        let prev = le_u64(bytes, PREV_OFFSET);
        let mut edges = Vec::with_capacity(lay.num_edges);
        for rec in lay.edge_records(bytes).chunks_exact(EDGE_RECORD_BYTES) {
            edges.push(EdgeRecord::decode(rec)?);
        }
        let mut entries = Vec::new();
        lay.walk_entries(bytes, |id, data| {
            entries.push(Entry {
                id,
                data: data.to_vec(),
            })
        })?;
        Some(Self {
            app_id,
            is_edge: lay.flags & FLAG_EDGE_HOLDER != 0,
            version,
            commit_epoch,
            prev,
            edges,
            entries,
        })
    }

    /// Validate a serialized holder **exactly as [`Holder::try_decode`]
    /// does** (header, known flags, length arithmetic, every edge
    /// record's direction byte, entry framing — the two share one
    /// layout parser) and hand back its edge section without materialising
    /// a `Holder`: no entry is copied, no `Vec` is allocated. The OLAP
    /// scan sweep reads adjacency this way (`crate::scan`).
    pub fn scan_edges(bytes: &[u8]) -> Option<EdgeScan<'_>> {
        let lay = Layout::validated(bytes)?;
        Some(EdgeScan {
            app_id: le_u64(bytes, 16),
            is_edge: lay.flags & FLAG_EDGE_HOLDER != 0,
            src: EdgeSrc::Bytes(lay.edge_records(bytes)),
        })
    }

    /// The entry-section twin of [`Holder::scan_edges`]: the same
    /// validation — so it accepts exactly the bytes
    /// [`Holder::try_decode`] accepts — and then labels are tested and
    /// property values found **in place**: no `Holder`, no `Entry`, no
    /// copy of a value. Every read of a read-only transaction is
    /// answered this way (`crate::tx`).
    pub fn scan_entries(bytes: &[u8]) -> Option<EntryScan<'_>> {
        let lay = Layout::validated(bytes)?;
        Some(EntryScan {
            app_id: le_u64(bytes, 16),
            src: EntrySrc::Bytes(&bytes[lay.entries_start()..lay.end]),
        })
    }

    /// `(commit_epoch, prev)` of a serialized holder whose header holds
    /// up (the header checks of [`Holder::try_decode`]): where a snapshot
    /// read starts its walk down the archive chain, without decoding a
    /// version.
    pub(crate) fn version_of(bytes: &[u8]) -> Option<(u64, u64)> {
        Layout::parse(bytes)?;
        Some((le_u64(bytes, 32), le_u64(bytes, PREV_OFFSET)))
    }
}

/// Section bounds of a serialized holder whose header is structurally
/// plausible — the validation [`Holder::try_decode`],
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

    /// [`Layout::parse`] plus everything else `try_decode` checks on its
    /// way: every edge record's direction byte (tombstoned records
    /// included) and the entry framing.
    fn validated(bytes: &[u8]) -> Option<Layout> {
        let lay = Layout::parse(bytes)?;
        for rec in lay.edge_records(bytes).chunks_exact(EDGE_RECORD_BYTES) {
            Direction::from_u8(rec[20])?;
        }
        lay.walk_entries(bytes, |_, _| {})?;
        Some(lay)
    }

    fn entries_start(&self) -> usize {
        HEADER_BYTES + self.num_edges * EDGE_RECORD_BYTES
    }

    fn edge_records<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[HEADER_BYTES..self.entries_start()]
    }

    /// Walk the entry section's framing, handing every `(id, data)` to
    /// `f`; `None` when a frame overruns the section or the walk does
    /// not end on its boundary.
    fn walk_entries<'a>(&self, bytes: &'a [u8], mut f: impl FnMut(u32, &'a [u8])) -> Option<()> {
        for frame in Frames::new(&bytes[self.entries_start()..self.end]) {
            let (id, data) = frame?;
            f(id, data);
        }
        Some(())
    }
}

/// The frames of an entry section, in order. A frame that overruns the
/// section, or a padded frame that ends past it, is yielded as one
/// `None`, after which the iterator is done.
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
    type Item = Option<(u32, &'a [u8])>;

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
        self.off = off + 8 + len.div_ceil(8) * 8;
        Some(Some((id, &self.section[off + 8..off + 8 + len])))
    }
}

/// The edge records of one holder, read where they lie: the validated
/// edge section of serialized bytes (see [`Holder::scan_edges`]) or a
/// decoded holder's record list (`Holder::edge_scan`).
#[derive(Debug, Clone, Copy)]
pub struct EdgeScan<'a> {
    /// Application-level id of the holder.
    pub app_id: u64,
    /// Is the holder a heavyweight edge's (not a vertex's)?
    pub is_edge: bool,
    src: EdgeSrc<'a>,
}

#[derive(Debug, Clone, Copy)]
enum EdgeSrc<'a> {
    Bytes(&'a [u8]),
    Decoded(&'a [EdgeRecord]),
}

impl<'a> EdgeScan<'a> {
    /// Every record, tombstones included, in slot order.
    fn records(&self) -> impl Iterator<Item = EdgeRecord> + 'a {
        let (section, decoded) = match self.src {
            EdgeSrc::Bytes(section) => (section, &[][..]),
            EdgeSrc::Decoded(records) => (&[][..], records),
        };
        section
            .chunks_exact(EDGE_RECORD_BYTES)
            .map(|rec| EdgeRecord::decode(rec).expect("direction bytes validated by scan_edges"))
            .chain(decoded.iter().copied())
    }

    /// The live (non-tombstoned) edge records with their slots, in slot
    /// order — the pairs [`Holder::live_edges`] yields on the decoded
    /// holder.
    pub fn live(&self) -> impl Iterator<Item = (u32, EdgeRecord)> + 'a {
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
/// [`Holder::scan_entries`]) or a decoded holder's entry list
/// ([`Holder::entry_scan`]). Either way an entry is `(id, value bytes)`
/// in entry order, so a predicate has one definition for both.
#[derive(Debug, Clone, Copy)]
pub struct EntryScan<'a> {
    /// Application-level id of the holder.
    pub app_id: u64,
    src: EntrySrc<'a>,
}

#[derive(Debug, Clone, Copy)]
enum EntrySrc<'a> {
    Bytes(&'a [u8]),
    Decoded(&'a [Entry]),
}

impl<'a> EntryScan<'a> {
    /// Every entry as `(id, value bytes)`, in entry order.
    fn entries(&self) -> impl Iterator<Item = (u32, &'a [u8])> + 'a {
        let (section, decoded) = match self.src {
            EntrySrc::Bytes(section) => (section, &[][..]),
            EntrySrc::Decoded(entries) => (&[][..], entries),
        };
        Frames::new(section)
            .map(|frame| frame.expect("entry framing validated by scan_entries"))
            .chain(decoded.iter().map(|e| (e.id, e.data.as_slice())))
    }

    /// Does the element carry `label`? (A label entry holds exactly the
    /// 4-byte label id, as [`Entry::as_label`] reads it.)
    pub fn has_label(&self, label: LabelId) -> bool {
        self.entries()
            .any(|(id, data)| id == ENTRY_LABEL && data == label.0.to_le_bytes())
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
    /// order — what [`Holder::properties_raw`] returns.
    pub fn properties_raw(&self, ptype: PTypeId) -> impl Iterator<Item = &'a [u8]> + 'a {
        self.entries()
            .filter(move |(id, _)| *id == ptype.0)
            .map(|(_, data)| data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Holder {
        let mut h = Holder::new_vertex(42);
        h.add_label(LabelId(10));
        h.add_label(LabelId(11));
        h.add_property(PTypeId(3), vec![1, 2, 3]);
        h.add_property(PTypeId(4), 77u64.to_le_bytes().to_vec());
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

    #[test]
    fn encode_decode_roundtrip() {
        let h = sample();
        let bytes = h.encode();
        assert_eq!(bytes.len(), h.encoded_len());
        assert_eq!(Holder::peek_total_len(&bytes), bytes.len());
        let d = Holder::decode(&bytes);
        assert_eq!(d, h);
    }

    #[test]
    fn empty_holder_roundtrip() {
        let h = Holder::new_vertex(0);
        let d = Holder::decode(&h.encode());
        assert_eq!(d, h);
        assert_eq!(h.encoded_len(), HEADER_BYTES);
    }

    #[test]
    fn edge_holder_roundtrip() {
        let h = Holder::new_edge(DPtr::new(0, 128), DPtr::new(3, 256));
        let d = Holder::decode(&h.encode());
        assert!(d.is_edge);
        assert_eq!(d.edges.len(), 2);
        assert_eq!(d.edges[0].dir, Direction::Out);
        assert_eq!(d.edges[1].dir, Direction::In);
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
    }

    #[test]
    fn property_crud() {
        let mut h = Holder::new_vertex(1);
        h.add_property(PTypeId(3), vec![1]);
        h.add_property(PTypeId(3), vec![2]);
        assert_eq!(h.properties_raw(PTypeId(3)), vec![&[1][..], &[2][..]]);
        h.set_property(PTypeId(3), vec![9]);
        assert_eq!(h.properties_raw(PTypeId(3)), vec![&[9][..], &[2][..]]);
        assert_eq!(h.remove_property(PTypeId(3)), 2);
        assert!(h.properties_raw(PTypeId(3)).is_empty());
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
        h.add_property(PTypeId(9), vec![]);
        h.add_property(PTypeId(3), vec![]);
        h.add_property(PTypeId(9), vec![1]);
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
        let live: Vec<u32> = h.live_edges().map(|(s, _)| s).collect();
        assert_eq!(live, vec![1]);
        h.compact_edges();
        assert_eq!(h.edges.len(), 1);
    }

    #[test]
    fn entry_padding_alignment() {
        for len in 0..=17 {
            let e = Entry::property(PTypeId(3), vec![0xAB; len]);
            assert!(e.encoded_len().is_multiple_of(8));
            assert!(e.encoded_len() >= 8 + len);
        }
    }

    #[test]
    fn odd_sized_properties_roundtrip() {
        let mut h = Holder::new_vertex(7);
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63] {
            h.add_property(PTypeId(3 + len as u32), vec![len as u8; len]);
        }
        let d = Holder::decode(&h.encode());
        assert_eq!(d, h);
    }

    #[test]
    fn version_survives_roundtrip() {
        let mut h = sample();
        h.version = 9000;
        assert_eq!(Holder::decode(&h.encode()).version, 9000);
    }

    #[test]
    fn mvcc_fields_survive_roundtrip() {
        let mut h = sample();
        h.commit_epoch = 77;
        h.prev = DPtr::new(1, 4096).raw();
        let bytes = h.encode();
        assert_eq!(
            le_u64(&bytes, 32),
            77,
            "commit_epoch must sit at the fixed header offset"
        );
        let d = Holder::decode(&bytes);
        assert_eq!(d, h);
        // an unknown flag bit outside FLAG_EDGE_HOLDER is corrupt — the
        // archive-depth bits 16..24 of format 12 included
        for bit in [16, 23, 31] {
            let mut bad = bytes.clone();
            bad[12 + bit / 8] |= 1 << (bit % 8);
            assert!(Holder::try_decode(&bad).is_none(), "flag bit {bit}");
        }
    }

    /// What `scan_edges` and `scan_entries` promise, on arbitrary bytes:
    /// each accepts exactly what `try_decode` accepts, and then the one
    /// yields exactly the decoded holder's live edge records, the other
    /// exactly its entries — and every read derived from them.
    fn assert_scan_matches_decode(bytes: &[u8]) {
        let decoded = Holder::try_decode(bytes);
        let verdict = |accepts: bool| if accepts { "accepts" } else { "refuses" };
        match (Holder::scan_edges(bytes), &decoded) {
            (None, None) => {}
            (Some(scan), Some(h)) => {
                assert_eq!(scan.app_id, h.app_id);
                let want: Vec<(u32, EdgeRecord)> = h.live_edges().map(|(s, r)| (s, *r)).collect();
                assert_eq!(scan.live().collect::<Vec<_>>(), want);
                // the decoded holder behind the same reader, slot by slot
                assert_eq!(h.edge_scan().live().collect::<Vec<_>>(), want);
                for slot in 0..=h.edges.len() as u32 {
                    let live = want.iter().find(|(s, _)| *s == slot).map(|(_, r)| *r);
                    assert_eq!(scan.get(slot), live);
                    assert_eq!(h.edge_scan().get(slot), live);
                }
            }
            (scan, decoded) => panic!(
                "scan_edges {} what try_decode {}",
                verdict(scan.is_some()),
                verdict(decoded.is_some()),
            ),
        }
        match (Holder::scan_entries(bytes), &decoded) {
            (None, None) => {}
            (Some(scan), Some(h)) => {
                assert_eq!(scan.app_id, h.app_id);
                let want: Vec<(u32, &[u8])> =
                    h.entries.iter().map(|e| (e.id, &e.data[..])).collect();
                assert_eq!(scan.entries().collect::<Vec<_>>(), want);
                // the decoded holder behind the same reader
                assert_eq!(h.entry_scan().entries().collect::<Vec<_>>(), want);
                assert_eq!(scan.labels().collect::<Vec<_>>(), h.labels());
                assert_eq!(scan.ptypes(), h.ptypes());
                for id in 0..16 {
                    assert_eq!(scan.has_label(LabelId(id)), h.has_label(LabelId(id)));
                    assert_eq!(
                        scan.properties_raw(PTypeId(id)).collect::<Vec<_>>(),
                        h.properties_raw(PTypeId(id)),
                    );
                }
            }
            (scan, decoded) => panic!(
                "scan_entries {} what try_decode {}",
                verdict(scan.is_some()),
                verdict(decoded.is_some()),
            ),
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
        h.add_property(PTypeId(9), vec![7; 13]);
        h.add_property(PTypeId(10), Vec::new());
        h
    }

    #[test]
    fn scan_edges_reads_what_decode_reads() {
        for h in [sample(), busy(), Holder::new_vertex(3)] {
            let bytes = h.encode();
            assert_scan_matches_decode(&bytes);
            assert!(Holder::scan_edges(&bytes).is_some());
        }
        let live: Vec<u32> = Holder::scan_edges(&busy().encode())
            .unwrap()
            .live()
            .map(|(slot, _)| slot)
            .collect();
        assert_eq!(live, [0, 2, 3], "the tombstoned slot is skipped");
    }

    #[test]
    fn scan_entries_reads_what_decode_reads() {
        for h in [sample(), busy(), Holder::new_vertex(3)] {
            let bytes = h.encode();
            assert_scan_matches_decode(&bytes);
            assert!(Holder::scan_entries(&bytes).is_some());
        }
        let bytes = busy().encode();
        let scan = Holder::scan_entries(&bytes).unwrap();
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
    /// any other width is no label, to either reader.
    #[test]
    fn odd_width_label_entries_carry_no_label() {
        let mut h = Holder::new_vertex(1);
        for len in [0usize, 3, 5, 8] {
            h.entries.push(Entry {
                id: ENTRY_LABEL,
                data: 7u64.to_le_bytes()[..len].to_vec(),
            });
        }
        let bytes = h.encode();
        assert_scan_matches_decode(&bytes);
        assert!(!Holder::scan_entries(&bytes).unwrap().has_label(LabelId(7)));
        h.add_label(LabelId(7));
        let bytes = h.encode();
        assert_scan_matches_decode(&bytes);
        assert!(Holder::scan_entries(&bytes).unwrap().has_label(LabelId(7)));
    }

    /// Multi-valued properties keep their entry order through both
    /// readers — "the first entry of a p-type" is the same entry.
    #[test]
    fn multi_valued_properties_keep_entry_order() {
        let mut h = Holder::new_vertex(1);
        h.add_property(PTypeId(5), vec![1]);
        h.add_label(LabelId(2));
        h.add_property(PTypeId(6), vec![9; 8]);
        h.add_property(PTypeId(5), vec![2, 2]);
        h.add_property(PTypeId(5), vec![3]);
        let bytes = h.encode();
        let scan = Holder::scan_entries(&bytes).unwrap();
        let got: Vec<&[u8]> = scan.properties_raw(PTypeId(5)).collect();
        assert_eq!(got, [&[1u8][..], &[2, 2], &[3]]);
        assert_eq!(got, h.properties_raw(PTypeId(5)));
        assert_eq!(scan.properties_raw(PTypeId(5)).next(), Some(&[1u8][..]));
    }

    /// The positions a hostile writer would aim at, one by one: each is
    /// refused by every reader.
    #[test]
    fn scans_refuse_what_decode_refuses() {
        let good = busy().encode();
        let refused = |m: Vec<u8>| {
            assert_scan_matches_decode(&m);
            assert!(Holder::scan_edges(&m).is_none());
            assert!(Holder::scan_entries(&m).is_none());
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
        // one (decode validates every record, so must the scan)
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
    }

    /// Edge records `(rank, block, label, direction, tombstone)`.
    type GenEdges = Vec<(usize, u64, u32, u8, u8)>;

    /// A holder from the generators below: `edges` as records, `props`
    /// as `(entry id, value length)` entries — id 2 is the label tag, so
    /// label entries of every width occur.
    fn generated(edges: &GenEdges, props: &[(u32, usize)], is_edge: bool) -> Holder {
        let mut h = Holder::new_vertex(77);
        h.is_edge = is_edge;
        for &(rank, block, label, dir, tomb) in edges {
            h.push_edge(EdgeRecord {
                flags: tomb,
                ..EdgeRecord::lightweight(
                    DPtr::new(rank, block * 128),
                    label,
                    Direction::from_u8(dir).unwrap(),
                )
            });
        }
        for &(id, len) in props {
            h.entries.push(Entry {
                id,
                data: vec![0xA5; len],
            });
        }
        h
    }

    /// One committed write, as the transaction layer makes them: `op`
    /// picks the mutator, `arg` its operand.
    fn mutate(h: &mut Holder, op: u8, arg: u64) {
        let slot = (arg as usize % (h.edges.len() + 1)) as u32;
        match op {
            0 => drop(h.push_edge(EdgeRecord::lightweight(
                DPtr::new(arg as usize % 4, 128 * (arg % 64)),
                (arg % 5) as u32,
                Direction::from_u8((arg % 3) as u8).unwrap(),
            ))),
            1 => drop(h.remove_edge(slot)),
            2 => h.set_property(PTypeId(3 + (arg % 4) as u32), arg.to_le_bytes().to_vec()),
            3 => h.add_property(
                PTypeId(3 + (arg % 4) as u32),
                vec![arg as u8; arg as usize % 19],
            ),
            4 => drop(h.remove_property(PTypeId(3 + (arg % 4) as u32))),
            5 => drop(h.add_label(LabelId((arg % 6) as u32))),
            6 => drop(h.remove_label(LabelId((arg % 6) as u32))),
            _ => drop(h.remove_all_properties()),
        }
    }

    /// `post` as recovery writes it back: commit epoch 0, no archive
    /// link.
    fn rebuilt(mut post: Holder) -> Vec<u8> {
        (post.commit_epoch, post.prev) = (0, 0);
        post.encode()
    }

    #[test]
    fn splice_of_a_value_update_is_the_changed_bytes() {
        let pre = busy();
        let mut post = pre.clone();
        post.set_property(PTypeId(4), 78u64.to_le_bytes().to_vec());
        (post.version, post.commit_epoch, post.prev) = (9, 5, 4096);
        let (a, b) = (pre.encode(), post.encode());
        let s = splice(&a, &b);
        assert_eq!((s.cut, s.bytes.as_slice()), (1, &[78u8][..]), "{s:?}");
        assert_eq!(s.num_edges, 4);
        let got = apply_splice(&a, &s, post.app_id, post.is_edge, post.version);
        assert_eq!(got, Some(rebuilt(post.clone())));
        // against no base, the splice is the whole body
        let whole = splice(&[], &b);
        assert_eq!((whole.at, whole.cut), (0, 0));
        assert_eq!(whole.bytes, b[HEADER_BYTES..]);
        assert_eq!(
            apply_splice(&[], &whole, post.app_id, post.is_edge, post.version),
            Some(rebuilt(post))
        );
    }

    /// Splices that do not fit their base are refused, never applied.
    #[test]
    fn apply_splice_refuses_what_does_not_fit() {
        let pre = busy().encode();
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
            let mut pre = generated(&edges, &props, is_edge);
            (pre.commit_epoch, pre.prev) = header;
            let mut post = pre.clone();
            for (op, arg) in ops {
                mutate(&mut post, op, arg);
            }
            post.compact_edges();
            post.version = pre.version + 1;
            (post.commit_epoch, post.prev) = (header.0 + 1, 64);
            let (a, b) = (pre.encode(), post.encode());
            let want = rebuilt(post.clone());
            for base in [&a[..], &[]] {
                let s = splice(base, &b);
                proptest::prop_assert!(s.bytes.len() <= b.len() - HEADER_BYTES);
                let got = apply_splice(base, &s, post.app_id, post.is_edge, post.version);
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
            let mut pre = generated(&edges, &props, is_edge);
            (pre.version, pre.commit_epoch, pre.prev) = (9, header.0, header.1);
            let mut post = pre.clone();
            for (op, arg) in ops {
                mutate(&mut post, op, arg);
            }
            post.compact_edges();
            (post.version, post.commit_epoch, post.prev) = (10, header.0 + 1, 4096);
            let (a, b) = (pre.encode(), post.encode());
            let fwd = splice(&a, &b);
            let record = Archive::record(&a, &fwd);
            proptest::prop_assert_eq!(record.len(), HEADER_BYTES + fwd.cut as usize);
            let archive = Archive::parse(&record).unwrap();
            proptest::prop_assert_eq!(
                (archive.app_id, archive.version, archive.commit_epoch, archive.prev),
                (pre.app_id, pre.version, pre.commit_epoch, pre.prev)
            );
            proptest::prop_assert_eq!(archive.rewind(&b), Some(pre.encode()));
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
            let pre = generated(&edges, &props, false);
            let mut post = pre.clone();
            for (op, arg) in ops {
                mutate(&mut post, op, arg);
            }
            post.compact_edges();
            let (a, b) = (pre.encode(), post.encode());
            let good = Archive::record(&a, &splice(&a, &b));
            for (at, kind, on_record) in hits {
                let (mut record, mut version) = (good.clone(), b.clone());
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
                    proptest::prop_assert!(Holder::try_decode(&rewound).is_some());
                    assert_scan_matches_decode(&rewound);
                }
            }
        }

        /// Random holders round-trip through all three readers alike —
        /// and so does every single-field corruption of them: any byte
        /// of the header or of an edge record's direction/flags, any
        /// entry frame word, overwritten with a hostile value.
        #[test]
        fn scans_are_try_decode_on_random_and_hostile_holders(
            edges in proptest::collection::vec((0usize..4, 1u64..64, 0u32..5, 0u8..3, 0u8..2), 0..12),
            props in proptest::collection::vec((2u32..9, 0usize..20), 0..6),
            is_edge in 0u8..2,
            hits in proptest::collection::vec((0usize..4096, 0u64..6), 1..8),
        ) {
            let good = generated(&edges, &props, is_edge == 1).encode();
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
}
