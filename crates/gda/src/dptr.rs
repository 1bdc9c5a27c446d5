//! Distributed pointers (§5.3) and edge UIDs (§5.4.2).
//!
//! The internal GDI id of a vertex in GDA is a 64-bit *distributed
//! hierarchical pointer* (`DPtr`): the top 16 bits name the owning rank
//! (compute server/process), the low 48 bits are a byte offset into that
//! rank's data window, pointing at the **primary block** of the object's
//! holder. 64 bits are used deliberately so that ids can travel through
//! hardware-accelerated 64-bit remote atomics.
//!
//! Free-list heads additionally carry a 16-bit **ABA tag** in the rank field
//! position ([`TaggedIdx`]), the classic tagged-pointer mitigation the paper
//! applies to block operations (§5.5).

use gdi::AppVertexId;

/// Number of bits for the offset part of a `DPtr`.
pub(crate) const OFFSET_BITS: u32 = 48;
/// Mask of the offset part.
pub(crate) const OFFSET_MASK: u64 = (1u64 << OFFSET_BITS) - 1;

/// A 64-bit distributed pointer: `rank:16 | byte_offset:48`.
///
/// The all-zero value is the null pointer: GDA never allocates block 0, so
/// offset 0 on rank 0 is unreachable for valid objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DPtr(pub u64);

impl DPtr {
    /// The null distributed pointer.
    pub(crate) const NULL: DPtr = DPtr(0);

    /// Pack a rank and a byte offset.
    #[inline]
    pub fn new(rank: usize, offset: u64) -> DPtr {
        debug_assert!(rank <= u16::MAX as usize, "rank must fit in 16 bits");
        debug_assert!(offset <= OFFSET_MASK, "offset must fit in 48 bits");
        DPtr(((rank as u64) << OFFSET_BITS) | offset)
    }

    /// Owning rank.
    #[inline]
    pub fn rank(self) -> usize {
        (self.0 >> OFFSET_BITS) as usize
    }

    /// Byte offset into the owner's data window.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0 & OFFSET_MASK
    }

    /// Is this the null pointer?
    #[inline]
    pub(crate) fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Raw 64-bit representation (what travels through windows/atomics).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild from the raw representation.
    #[inline]
    pub fn from_raw(v: u64) -> DPtr {
        DPtr(v)
    }
}

impl std::fmt::Display for DPtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_null() {
            write!(f, "DPtr(NULL)")
        } else {
            write!(f, "DPtr(r{}+{:#x})", self.rank(), self.offset())
        }
    }
}

/// A tagged index: `tag:16 | index:48`, used for ABA-safe free-list heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaggedIdx(pub u64);

impl TaggedIdx {
    /// Pack a tag and an index.
    #[inline]
    pub(crate) fn new(tag: u16, idx: u64) -> TaggedIdx {
        debug_assert!(idx <= OFFSET_MASK);
        TaggedIdx(((tag as u64) << OFFSET_BITS) | idx)
    }

    /// The 16-bit ABA tag.
    #[inline]
    pub(crate) fn tag(self) -> u16 {
        (self.0 >> OFFSET_BITS) as u16
    }

    /// The 48-bit index (block index, heap-entry index, …; 0 = empty list).
    #[inline]
    pub(crate) fn idx(self) -> u64 {
        self.0 & OFFSET_MASK
    }

    /// Successor head pointing at `new_idx` with the tag bumped (wrapping).
    #[inline]
    pub(crate) fn bump(self, new_idx: u64) -> TaggedIdx {
        TaggedIdx::new(self.tag().wrapping_add(1), new_idx)
    }

    /// Raw 64-bit representation.
    #[inline]
    pub(crate) fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild from the raw representation.
    #[inline]
    pub(crate) fn from_raw(v: u64) -> TaggedIdx {
        TaggedIdx(v)
    }
}

/// An edge UID (§5.4.2): identifies a lightweight edge by the `DPtr` of the
/// vertex holding it plus the index of the edge record within that holder.
///
/// The same physical edge has two UIDs, one per endpoint — exactly the
/// paper's semantics ("the same edge can be identified by two different edge
/// UIDs, depending on which vertex is used as a base").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeUid {
    /// The base vertex whose holder stores the edge record.
    pub vertex: DPtr,
    /// Index of the edge record in the base vertex's edge list.
    pub slot: u32,
}

impl EdgeUid {
    /// An edge UID based at `vertex`, record slot `slot`.
    pub(crate) fn new(vertex: DPtr, slot: u32) -> EdgeUid {
        EdgeUid { vertex, slot }
    }
}

/// Choose the owner rank of an application vertex id: round-robin
/// distribution across ranks (§5.4: "use round-robin distribution").
/// Delegates to `crate::rankmap::vertex_owner` — the single
/// authoritative copy of the formula, so elastic resharding can reason
/// about ownership under both the snapshot and the live topology.
#[inline]
pub fn owner_rank(app: AppVertexId, nranks: usize) -> usize {
    crate::rankmap::vertex_owner(app, nranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dptr_pack_unpack() {
        let p = DPtr::new(513, 0x0012_3456_789A);
        assert_eq!(p.rank(), 513);
        assert_eq!(p.offset(), 0x0012_3456_789A);
        assert!(!p.is_null());
        assert_eq!(DPtr::from_raw(p.raw()), p);
    }

    #[test]
    fn dptr_extremes() {
        let p = DPtr::new(u16::MAX as usize, OFFSET_MASK);
        assert_eq!(p.rank(), u16::MAX as usize);
        assert_eq!(p.offset(), OFFSET_MASK);
        assert!(DPtr::NULL.is_null());
        assert_eq!(DPtr::new(0, 0), DPtr::NULL);
    }

    #[test]
    fn dptr_display() {
        assert_eq!(DPtr::NULL.to_string(), "DPtr(NULL)");
        assert!(DPtr::new(3, 256).to_string().contains("r3"));
    }

    #[test]
    fn tagged_idx_bump_increments_tag() {
        let t = TaggedIdx::new(7, 100);
        assert_eq!(t.tag(), 7);
        assert_eq!(t.idx(), 100);
        let b = t.bump(200);
        assert_eq!(b.tag(), 8);
        assert_eq!(b.idx(), 200);
    }

    #[test]
    fn tagged_idx_tag_wraps() {
        let t = TaggedIdx::new(u16::MAX, 1);
        assert_eq!(t.bump(2).tag(), 0);
    }

    #[test]
    fn tag_distinguishes_same_idx() {
        // the ABA scenario: same index, different generation
        let a = TaggedIdx::new(0, 42);
        let b = a.bump(13).bump(42);
        assert_eq!(b.idx(), 42);
        assert_ne!(a.raw(), b.raw());
    }

    #[test]
    fn round_robin_ownership() {
        assert_eq!(owner_rank(AppVertexId(0), 4), 0);
        assert_eq!(owner_rank(AppVertexId(1), 4), 1);
        assert_eq!(owner_rank(AppVertexId(5), 4), 1);
        assert_eq!(owner_rank(AppVertexId(7), 1), 0);
    }

    #[test]
    fn edge_uid_identity() {
        let v = DPtr::new(1, 512);
        let e1 = EdgeUid::new(v, 0);
        let e2 = EdgeUid::new(v, 1);
        assert_ne!(e1, e2);
        assert_eq!(e1, EdgeUid::new(v, 0));
    }

    proptest::proptest! {
        #[test]
        fn tagged_idx_bump_never_collides_with_original(tag in any::<u16>(), idx in 0u64..(1u64<<48), idx2 in 0u64..(1u64<<48)) {
            let t = TaggedIdx::new(tag, idx);
            // one bump always changes the raw value, even if pointing back at
            // the same index — the ABA property
            prop_assert_ne!(t.bump(idx2).raw(), t.raw());
            prop_assert_eq!(t.bump(idx2).idx(), idx2);
        }
    }
}
