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
//! (NULL if none) — the MVCC version chain snapshot reads walk. Flag
//! bits 16..24 carry the archive-chain depth (see [`Holder::depth`]).
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
/// Mask of the archive-chain **depth** packed into flag bits 16..24.
pub(crate) const DEPTH_MASK: u32 = 0xFF << 16;
/// Byte offset of the `prev` (archived version chain head) field within
/// a serialized holder — patched **in place** by chain truncation and
/// the maintenance vacuum (one aligned word write) to seal a truncated
/// chain, so no later walk follows a freed link.
pub(crate) const PREV_OFFSET: usize = 40;
/// Byte offset of the word holding `entries_bytes` (low half) and the
/// flags+depth word (high half) within a serialized holder — the word
/// the maintenance vacuum rewrites to patch the archive depth in place.
pub(crate) const FLAGS_WORD_OFFSET: usize = 24;
/// Flag bits that may legitimately be set on a serialized holder.
const KNOWN_FLAGS: u32 = FLAG_EDGE_HOLDER | DEPTH_MASK;

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
        let target = DPtr::from_raw(u64::from_le_bytes(b[0..8].try_into().unwrap()));
        let edge_holder = DPtr::from_raw(u64::from_le_bytes(b[8..16].try_into().unwrap()));
        let label = u32::from_le_bytes(b[16..20].try_into().unwrap());
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
            Some(LabelId(u32::from_le_bytes(
                self.data[..].try_into().unwrap(),
            )))
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
    /// `DPtr::NULL` if none survives. Archives are immutable; dangling
    /// pointers below the truncation floor are never followed.
    pub prev: u64,
    /// Archive-chain depth behind this version (saturating at 255).
    pub depth: u8,
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
        out.extend_from_slice(&(total as u32).to_le_bytes());
        out.extend_from_slice(&(self.edges.len() as u32).to_le_bytes());
        out.extend_from_slice(&(entries_bytes as u32).to_le_bytes());
        let flags = if self.is_edge { FLAG_EDGE_HOLDER } else { 0 } | ((self.depth as u32) << 16);
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&self.app_id.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.commit_epoch.to_le_bytes());
        out.extend_from_slice(&self.prev.to_le_bytes());
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
        u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize
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
        let app_id = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let version = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let commit_epoch = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
        let prev = u64::from_le_bytes(bytes[40..48].try_into().unwrap());
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
            depth: ((lay.flags & DEPTH_MASK) >> 16) as u8,
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
            app_id: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
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
            app_id: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            src: EntrySrc::Bytes(&bytes[lay.entries_start()..lay.end]),
        })
    }

    /// `(app_id, commit_epoch, prev, depth)` of a serialized holder
    /// whose header holds up (the header checks of
    /// [`Holder::try_decode`]): what a snapshot read walks the archive
    /// chain by, without decoding a version.
    pub(crate) fn version_of(bytes: &[u8]) -> Option<(u64, u64, u64, u8)> {
        let lay = Layout::parse(bytes)?;
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap_or_default());
        let depth = ((lay.flags & DEPTH_MASK) >> 16) as u8;
        Some((word(16), word(32), word(PREV_OFFSET), depth))
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
        let num_edges = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let entries_bytes = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
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
        let id = u32::from_le_bytes(self.section[off..off + 4].try_into().unwrap());
        let len = u32::from_le_bytes(self.section[off + 4..off + 8].try_into().unwrap()) as usize;
        if off + 8 + len > end {
            return Some(None);
        }
        self.off = off + 8 + len.div_ceil(8) * 8;
        Some(Some((id, &self.section[off + 8..off + 8 + len])))
    }
}

/// The edge records of one holder, read where they lie: the validated
/// edge section of serialized bytes (see [`Holder::scan_edges`]) or a
/// decoded holder's record list ([`Holder::edge_scan`]).
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
        h.depth = 3;
        let bytes = h.encode();
        assert_eq!(
            u64::from_le_bytes(bytes[32..40].try_into().unwrap()),
            77,
            "commit_epoch must sit at the fixed header offset"
        );
        let d = Holder::decode(&bytes);
        assert_eq!(d, h);
        assert_eq!(d.depth, 3);
        // an unknown flag bit outside FLAG_EDGE_HOLDER | depth is corrupt
        let mut bad = bytes.clone();
        bad[15] |= 0x80; // flags bit 31
        assert!(Holder::try_decode(&bad).is_none());
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
        let u32_at = |at: usize| u32::from_le_bytes(good[at..at + 4].try_into().unwrap());
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

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
            let mut h = Holder::new_vertex(77);
            h.is_edge = is_edge == 1;
            for (rank, block, label, dir, tomb) in edges {
                h.push_edge(EdgeRecord {
                    flags: tomb,
                    ..EdgeRecord::lightweight(
                        DPtr::new(rank, block * 128),
                        label,
                        Direction::from_u8(dir).unwrap(),
                    )
                });
            }
            // (id 2 is the label tag: label entries of every width)
            for (id, len) in props {
                h.entries.push(Entry { id, data: vec![0xA5; len] });
            }
            let good = h.encode();
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
