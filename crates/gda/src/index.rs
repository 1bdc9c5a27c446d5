//! Explicit indexes (§3.6) with per-rank partitions.
//!
//! GDI exposes user-managed indexes over vertices: an index is associated
//! with a set of labels (and optionally property types); queries retrieve
//! the **local** partition of an index (`GDI_GetLocalVerticesOfIndex`) —
//! the natural building block for collective OLAP/OLSP scans, where every
//! rank processes its own shard (Listings 2 and 3).
//!
//! Postings live on the rank that owns the vertex (its primary block's
//! rank). Index maintenance happens at transaction commit and is only
//! *eventually consistent* (§3.8): committed membership changes become
//! visible to index scans that start afterwards.

use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashMap;

use gdi::{AppVertexId, Constraint, GdiError, GdiResult, LabelId, PTypeId};

use crate::dptr::DPtr;
use crate::holder::EntryScan;

/// Identifier of an explicit index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

/// Definition of an explicit index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    /// The index id.
    pub id: IndexId,
    /// Unique index name.
    pub name: String,
    /// Labels whose carriers are indexed. Empty = index **all** vertices.
    pub labels: Vec<LabelId>,
    /// Property types associated for acceleration hints
    /// (`GDI_AddPropertyTypeToIndex`); membership is label-driven.
    pub ptypes: Vec<PTypeId>,
}

impl IndexDef {
    /// Does a vertex with these labels belong to the index?
    pub fn matches(&self, labels: &[LabelId]) -> bool {
        self.labels.is_empty() || self.labels.iter().any(|l| labels.contains(l))
    }
}

/// A posting: one indexed vertex on its owner rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Internal id of the indexed vertex.
    pub vertex: DPtr,
    /// Its application id.
    pub app_id: AppVertexId,
}

type RankPostings = FxHashMap<IndexId, FxHashMap<u64, AppVertexId>>;

/// One partition's postings, unordered: callers copy them under the
/// partition lock and sort them by vertex after dropping it (a vertex
/// appears once per partition, so an unstable sort is deterministic).
fn postings(part: &FxHashMap<u64, AppVertexId>) -> Vec<Posting> {
    part.iter()
        .map(|(&raw, &app_id)| Posting {
            vertex: DPtr::from_raw(raw),
            app_id,
        })
        .collect()
}

/// Shared index state of one database.
#[derive(Debug)]
pub struct IndexShared {
    defs: RwLock<Vec<IndexDef>>,
    next_id: Mutex<u32>,
    /// `postings[rank]`: that rank's partitions of every index.
    postings: Vec<Mutex<RankPostings>>,
}

impl IndexShared {
    /// Empty index state for a fabric of `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        Self {
            defs: RwLock::new(Vec::new()),
            next_id: Mutex::new(1),
            postings: (0..nranks)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
        }
    }

    /// `GDI_CreateIndex`.
    pub fn create(
        &self,
        name: &str,
        labels: Vec<LabelId>,
        ptypes: Vec<PTypeId>,
    ) -> GdiResult<IndexId> {
        let mut defs = self.defs.write();
        if defs.iter().any(|d| d.name == name) {
            return Err(GdiError::AlreadyExists("index"));
        }
        let mut next = self.next_id.lock();
        let id = IndexId(*next);
        *next += 1;
        defs.push(IndexDef {
            id,
            name: name.to_string(),
            labels,
            ptypes,
        });
        Ok(id)
    }

    /// `GDI_DeleteIndex`.
    pub fn delete(&self, id: IndexId) -> GdiResult<()> {
        let mut defs = self.defs.write();
        let before = defs.len();
        defs.retain(|d| d.id != id);
        if defs.len() == before {
            return Err(GdiError::NotFound("index"));
        }
        for p in &self.postings {
            p.lock().remove(&id);
        }
        Ok(())
    }

    /// `GDI_GetAllIndexesOfDatabase`.
    pub fn all(&self) -> Vec<IndexDef> {
        self.defs.read().clone()
    }

    /// Definition of one index.
    pub fn def(&self, id: IndexId) -> GdiResult<IndexDef> {
        self.defs
            .read()
            .iter()
            .find(|d| d.id == id)
            .cloned()
            .ok_or(GdiError::NotFound("index"))
    }

    /// `GDI_AddLabelToIndex` / `GDI_RemoveLabelFromIndex`.
    pub fn add_label(&self, id: IndexId, label: LabelId) -> GdiResult<()> {
        let mut defs = self.defs.write();
        let d = defs
            .iter_mut()
            .find(|d| d.id == id)
            .ok_or(GdiError::NotFound("index"))?;
        if !d.labels.contains(&label) {
            d.labels.push(label);
        }
        Ok(())
    }

    /// `GDI_RemoveLabelFromIndex`.
    pub fn remove_label(&self, id: IndexId, label: LabelId) -> GdiResult<()> {
        let mut defs = self.defs.write();
        let d = defs
            .iter_mut()
            .find(|d| d.id == id)
            .ok_or(GdiError::NotFound("index"))?;
        d.labels.retain(|l| *l != label);
        Ok(())
    }

    /// Recompute the postings of one vertex against every index, given its
    /// (possibly new) labels. `None` labels = vertex deleted.
    pub fn reindex_vertex(&self, vertex: DPtr, app_id: AppVertexId, labels: Option<&[LabelId]>) {
        let defs = self.defs.read();
        let mut rank = self.postings[vertex.rank()].lock();
        for d in defs.iter() {
            let belongs = labels.map(|ls| d.matches(ls)).unwrap_or(false);
            let part = rank.entry(d.id).or_default();
            if belongs {
                part.insert(vertex.raw(), app_id);
            } else {
                part.remove(&vertex.raw());
            }
        }
    }

    /// The local partition of an index on `rank`
    /// (`GDI_GetLocalVerticesOfIndex`), unfiltered.
    pub fn local_vertices(&self, rank: usize, id: IndexId) -> Vec<Posting> {
        let mut v = self.postings[rank]
            .lock()
            .get(&id)
            .map(postings)
            .unwrap_or_default();
        v.sort_unstable_by_key(|p| p.vertex);
        v
    }

    /// Number of postings in `rank`'s partition of an index: the map's
    /// length under the partition lock, nothing materialised or sorted
    /// (the planner's statistic — it only ever needed the count).
    pub fn local_len(&self, rank: usize, id: IndexId) -> usize {
        self.postings[rank].lock().get(&id).map_or(0, |m| m.len())
    }

    /// Export the index definitions plus the id allocator (persistence
    /// support: the manifest half of a durable snapshot).
    pub fn export_defs(&self) -> (Vec<IndexDef>, u32) {
        (self.defs.read().clone(), *self.next_id.lock())
    }

    /// Export one rank's postings of every index, sorted for stable
    /// snapshot bytes (persistence support: the per-rank half).
    pub fn export_rank(&self, rank: usize) -> Vec<(IndexId, Vec<Posting>)> {
        let mut out: Vec<_> = self.postings[rank]
            .lock()
            .iter()
            .map(|(&id, m)| (id, postings(m)))
            .collect();
        for (_, v) in &mut out {
            v.sort_unstable_by_key(|p| p.vertex);
        }
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Rebuild shared index state from exported parts (recovery).
    pub fn from_parts(nranks: usize, defs: Vec<IndexDef>, next_id: u32) -> Self {
        Self {
            defs: RwLock::new(defs),
            next_id: Mutex::new(next_id.max(1)),
            postings: (0..nranks)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
        }
    }

    /// Install one rank's exported postings (recovery; replaces that
    /// rank's partitions wholesale).
    pub fn import_rank(&self, rank: usize, parts: Vec<(IndexId, Vec<Posting>)>) {
        let mut guard = self.postings[rank].lock();
        guard.clear();
        for (id, postings) in parts {
            let m = guard.entry(id).or_default();
            for p in postings {
                m.insert(p.vertex.raw(), p.app_id);
            }
        }
    }

    /// Look up a vertex by app id within an index partition — the fast path
    /// behind `GDI_TranslateVertexID` when an index is available.
    pub fn find_by_app_id(&self, rank: usize, id: IndexId, app: AppVertexId) -> Option<DPtr> {
        let guard = self.postings[rank].lock();
        let part = guard.get(&id)?;
        part.iter()
            .find(|(_, &a)| a == app)
            .map(|(&raw, _)| DPtr::from_raw(raw))
    }
}

/// Evaluate a constraint against a holder's entries — serialized bytes
/// or a decoded holder, [`EntryScan`] reads both — as index scans and
/// constrained expansions do. Property values are compared decoded; the
/// caller supplies the decode function from p-type to value, and only
/// the entries of a p-type the constraint names are ever decoded.
pub fn holder_matches(
    entries: &EntryScan<'_>,
    constraint: &Constraint,
    decode: impl Fn(PTypeId, &[u8]) -> Option<gdi::PropertyValue>,
) -> bool {
    struct View<'s, 'a, F> {
        entries: &'s EntryScan<'a>,
        decode: F,
    }
    impl<F: Fn(PTypeId, &[u8]) -> Option<gdi::PropertyValue>> gdi::constraint::ElementView
        for View<'_, '_, F>
    {
        fn has_label(&self, label: LabelId) -> bool {
            self.entries.has_label(label)
        }
        fn properties(&self, ptype: PTypeId) -> Vec<gdi::PropertyValue> {
            self.entries
                .properties_raw(ptype)
                .filter_map(|raw| (self.decode)(ptype, raw))
                .collect()
        }
    }
    constraint.eval(&View { entries, decode })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holder::Holder;
    use gdi::{CmpOp, PropertyValue, Subconstraint};

    fn person() -> LabelId {
        LabelId(10)
    }

    #[test]
    fn create_delete_indexes() {
        let ix = IndexShared::new(2);
        let a = ix.create("people", vec![person()], vec![]).unwrap();
        assert_eq!(
            ix.create("people", vec![], vec![]),
            Err(GdiError::AlreadyExists("index"))
        );
        let b = ix.create("all", vec![], vec![]).unwrap();
        assert_ne!(a, b);
        assert_eq!(ix.all().len(), 2);
        ix.delete(a).unwrap();
        assert_eq!(ix.delete(a), Err(GdiError::NotFound("index")));
        assert_eq!(ix.all().len(), 1);
    }

    #[test]
    fn postings_follow_membership() {
        let ix = IndexShared::new(2);
        let people = ix.create("people", vec![person()], vec![]).unwrap();
        let v0 = DPtr::new(0, 128);
        let v1 = DPtr::new(1, 128);

        ix.reindex_vertex(v0, AppVertexId(100), Some(&[person()]));
        ix.reindex_vertex(v1, AppVertexId(101), Some(&[LabelId(99)]));
        assert_eq!(ix.local_vertices(0, people).len(), 1);
        assert_eq!(ix.local_vertices(1, people).len(), 0);

        // label removed -> vertex drops out
        ix.reindex_vertex(v0, AppVertexId(100), Some(&[]));
        assert!(ix.local_vertices(0, people).is_empty());

        // deletion removes from all indexes
        ix.reindex_vertex(v1, AppVertexId(101), Some(&[person()]));
        assert_eq!(ix.local_vertices(1, people).len(), 1);
        ix.reindex_vertex(v1, AppVertexId(101), None);
        assert!(ix.local_vertices(1, people).is_empty());
    }

    #[test]
    fn empty_label_set_indexes_everything() {
        let ix = IndexShared::new(1);
        let all = ix.create("all", vec![], vec![]).unwrap();
        ix.reindex_vertex(DPtr::new(0, 128), AppVertexId(1), Some(&[]));
        ix.reindex_vertex(DPtr::new(0, 256), AppVertexId(2), Some(&[person()]));
        assert_eq!(ix.local_vertices(0, all).len(), 2);
    }

    #[test]
    fn find_by_app_id_works() {
        let ix = IndexShared::new(1);
        let all = ix.create("all", vec![], vec![]).unwrap();
        let v = DPtr::new(0, 384);
        ix.reindex_vertex(v, AppVertexId(42), Some(&[]));
        assert_eq!(ix.find_by_app_id(0, all, AppVertexId(42)), Some(v));
        assert_eq!(ix.find_by_app_id(0, all, AppVertexId(43)), None);
    }

    #[test]
    fn index_def_matching() {
        let d = IndexDef {
            id: IndexId(1),
            name: "x".into(),
            labels: vec![LabelId(1), LabelId(2)],
            ptypes: vec![],
        };
        assert!(d.matches(&[LabelId(2)]));
        assert!(d.matches(&[LabelId(1), LabelId(9)]));
        assert!(!d.matches(&[LabelId(9)]));
        assert!(!d.matches(&[]));
    }

    #[test]
    fn mutate_index_labels() {
        let ix = IndexShared::new(1);
        let id = ix.create("x", vec![LabelId(1)], vec![]).unwrap();
        ix.add_label(id, LabelId(2)).unwrap();
        ix.add_label(id, LabelId(2)).unwrap(); // idempotent
        assert_eq!(ix.def(id).unwrap().labels, vec![LabelId(1), LabelId(2)]);
        ix.remove_label(id, LabelId(1)).unwrap();
        assert_eq!(ix.def(id).unwrap().labels, vec![LabelId(2)]);
        assert_eq!(
            ix.add_label(IndexId(999), LabelId(1)),
            Err(GdiError::NotFound("index"))
        );
    }

    #[test]
    fn holder_constraint_matching() {
        let mut h = Holder::new_vertex(1);
        h.add_label(person());
        h.add_property(PTypeId(3), 35u64.to_le_bytes().to_vec());
        let c = Constraint::from_sub(Subconstraint::new().with_label(person()).with_prop(
            PTypeId(3),
            CmpOp::Gt,
            PropertyValue::U64(30),
        ));
        let decode = |_pt: PTypeId, raw: &[u8]| {
            Some(PropertyValue::U64(u64::from_le_bytes(raw.try_into().ok()?)))
        };
        // the decoded holder and its serialized bytes answer alike
        let bytes = h.encode();
        let scan = Holder::scan_entries(&bytes).unwrap();
        assert!(holder_matches(&h.entry_scan(), &c, decode));
        assert!(holder_matches(&scan, &c, decode));
        let c2 = Constraint::from_sub(Subconstraint::new().with_prop(
            PTypeId(3),
            CmpOp::Gt,
            PropertyValue::U64(40),
        ));
        assert!(!holder_matches(&h.entry_scan(), &c2, decode));
        assert!(!holder_matches(&scan, &c2, decode));
    }

    /// P-types 3..=6 are declared `Uint64` for the differential below:
    /// 8 bytes decode to a number, other multiples of 8 to raw bytes,
    /// any other width not at all.
    fn decode_u64(_pt: PTypeId, raw: &[u8]) -> Option<PropertyValue> {
        PropertyValue::decode(gdi::Datatype::Uint64, raw).ok()
    }

    /// The constraint semantics written out against the decoded holder's
    /// own fields (no `EntryScan`): every label condition holds, and every
    /// property condition holds for **some** decodable entry of its type.
    fn reference_matches(h: &Holder, c: &Constraint) -> bool {
        let sub_holds = |sub: &Subconstraint| {
            sub.label_conds
                .iter()
                .all(|lc| h.entries.iter().any(|e| e.as_label() == Some(lc.label)) == lc.present)
                && sub.prop_conds.iter().all(|pc| {
                    h.entries
                        .iter()
                        .filter(|e| e.id == pc.ptype.0)
                        .filter_map(|e| decode_u64(pc.ptype, &e.data))
                        .any(|v| pc.op.eval(v.cmp_total(&pc.value)))
                })
        };
        c.subconstraints.is_empty() || c.subconstraints.iter().any(sub_holds)
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Constraint evaluation over serialized bytes ≡ over the decoded
        /// holder ≡ the written-out reference: random holders (0–3
        /// labels; properties absent, single, multi-valued, of the
        /// declared width and not) × random DNF constraints (0–3 label
        /// conditions of either polarity, 0–2 property conditions of
        /// every operator, 1–2 disjuncts).
        #[test]
        fn byte_evaluation_is_decoded_evaluation(
            labels in proptest::collection::vec(10u32..14, 0..4),
            props in proptest::collection::vec((3u32..7, 0u64..4, 0usize..4), 0..6),
            subs in proptest::collection::vec(
                (
                    proptest::collection::vec((10u32..14, 0u8..2), 0..4),
                    proptest::collection::vec((3u32..7, 0usize..6, 0u64..4), 0..3),
                ),
                1..3,
            ),
        ) {
            let mut h = Holder::new_vertex(9);
            for l in labels {
                h.add_label(LabelId(l));
            }
            for (pt, v, shape) in props {
                // shape 0–1: the declared 8 bytes; 2: two elements; 3: a
                // width that is no multiple of the element size
                let width = [8, 8, 16, 5][shape];
                let mut data = v.to_le_bytes().repeat(2);
                data.truncate(width);
                h.add_property(PTypeId(pt), data);
            }
            let mut c = Constraint::any();
            for (label_conds, prop_conds) in subs {
                let mut sub = Subconstraint::new();
                for (l, present) in label_conds {
                    sub = if present == 1 {
                        sub.with_label(LabelId(l))
                    } else {
                        sub.without_label(LabelId(l))
                    };
                }
                for (pt, op, v) in prop_conds {
                    sub = sub.with_prop(PTypeId(pt), OPS[op], PropertyValue::U64(v));
                }
                c = c.or(sub);
            }
            let bytes = h.encode();
            let scan = Holder::scan_entries(&bytes).expect("encoded holders scan");
            let want = reference_matches(&h, &c);
            proptest::prop_assert_eq!(holder_matches(&scan, &c, decode_u64), want);
            proptest::prop_assert_eq!(holder_matches(&h.entry_scan(), &c, decode_u64), want);
        }
    }
}
