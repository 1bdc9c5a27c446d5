//! Replicated graph metadata: labels and property types (§5.8).
//!
//! GDA replicates metadata on every process "for performance reasons …
//! because both L and P are in practice much smaller than n". A label is a
//! (name, integer id) pair; a property type additionally carries entity
//! type, datatype, size type and count (Fig. 3 M).
//!
//! Consistency: GDI only requires **eventual consistency** for metadata
//! (§3.8). We model replication with a shared authoritative store plus a
//! per-rank *snapshot* that is refreshed lazily: metadata mutations bump a
//! global epoch; transactions record the epoch they started at, and any
//! commit that observes a newer epoch while having relied on metadata aborts
//! with `GDI_ERROR_STALE_METADATA` — exactly the "transactions must be able
//! to detect such state and abort accordingly" requirement.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rustc_hash::FxHashMap;

use gdi::{
    Datatype, EntityType, GdiError, GdiResult, LabelId, Multiplicity, PTypeId, SizeType,
    FIRST_PTYPE_ID,
};

/// Definition of a label (element of `L`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelDef {
    /// The label id.
    pub id: LabelId,
    /// Unique label name.
    pub name: String,
}

/// Definition of a property type (element of `K`), with the §3.7 hints.
#[derive(Debug, Clone, PartialEq)]
pub struct PTypeDef {
    /// The property-type id.
    pub id: PTypeId,
    /// Unique property-type name.
    pub name: String,
    /// Element datatype of the values.
    pub dtype: Datatype,
    /// Which entity kinds may carry it.
    pub entity: EntityType,
    /// Single- or multi-entry per element.
    pub mult: Multiplicity,
    /// Size behaviour of values.
    pub stype: SizeType,
    /// Element count for `Fixed`/`Limited` size types.
    pub count: usize,
}

#[derive(Debug, Default)]
struct MetaInner {
    labels: Vec<LabelDef>,
    ptypes: Vec<PTypeDef>,
    next_label: u32,
    next_ptype: u32,
}

/// The authoritative metadata store of one database, shared by all ranks.
#[derive(Debug)]
pub(crate) struct MetaStore {
    inner: RwLock<MetaInner>,
    epoch: AtomicU64,
}

impl Default for MetaStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MetaStore {
    /// An empty catalog.
    pub(crate) fn new() -> Self {
        Self {
            inner: RwLock::new(MetaInner {
                labels: Vec::new(),
                ptypes: Vec::new(),
                next_label: 1,
                next_ptype: FIRST_PTYPE_ID,
            }),
            epoch: AtomicU64::new(1),
        }
    }

    /// Current metadata epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Create a label (`GDI_CreateLabel`).
    pub(crate) fn create_label(&self, name: &str) -> GdiResult<LabelId> {
        let mut g = self.inner.write();
        if g.labels.iter().any(|l| l.name == name) {
            return Err(GdiError::AlreadyExists("label"));
        }
        let id = LabelId(g.next_label);
        g.next_label += 1;
        g.labels.push(LabelDef {
            id,
            name: name.to_string(),
        });
        drop(g);
        self.bump();
        Ok(id)
    }

    /// Rename a label (`GDI_UpdateLabel`).
    pub(crate) fn update_label(&self, id: LabelId, new_name: &str) -> GdiResult<()> {
        let mut g = self.inner.write();
        if g.labels.iter().any(|l| l.name == new_name && l.id != id) {
            return Err(GdiError::AlreadyExists("label name"));
        }
        let l = g
            .labels
            .iter_mut()
            .find(|l| l.id == id)
            .ok_or(GdiError::NotFound("label"))?;
        l.name = new_name.to_string();
        drop(g);
        self.bump();
        Ok(())
    }

    /// Delete a label (`GDI_DeleteLabel`). Graph data still carrying the
    /// label id is unaffected (eventual consistency: readers resolve the id
    /// to "unknown" until converged).
    pub(crate) fn delete_label(&self, id: LabelId) -> GdiResult<()> {
        let mut g = self.inner.write();
        let before = g.labels.len();
        g.labels.retain(|l| l.id != id);
        if g.labels.len() == before {
            return Err(GdiError::NotFound("label"));
        }
        drop(g);
        self.bump();
        Ok(())
    }

    /// Create a property type (`GDI_CreatePropertyType`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn create_ptype(
        &self,
        name: &str,
        dtype: Datatype,
        entity: EntityType,
        mult: Multiplicity,
        stype: SizeType,
        count: usize,
    ) -> GdiResult<PTypeId> {
        let mut g = self.inner.write();
        if g.ptypes.iter().any(|p| p.name == name) {
            return Err(GdiError::AlreadyExists("property type"));
        }
        let id = PTypeId(g.next_ptype);
        g.next_ptype += 1;
        g.ptypes.push(PTypeDef {
            id,
            name: name.to_string(),
            dtype,
            entity,
            mult,
            stype,
            count,
        });
        drop(g);
        self.bump();
        Ok(id)
    }

    /// Delete a property type (`GDI_DeletePropertyType`).
    pub(crate) fn delete_ptype(&self, id: PTypeId) -> GdiResult<()> {
        let mut g = self.inner.write();
        let before = g.ptypes.len();
        g.ptypes.retain(|p| p.id != id);
        if g.ptypes.len() == before {
            return Err(GdiError::NotFound("property type"));
        }
        drop(g);
        self.bump();
        Ok(())
    }

    /// Export the full catalog state for a durable snapshot (labels,
    /// property types, id allocators and the current epoch) — the
    /// persistence twin of [`MetaStore::snapshot`].
    pub(crate) fn export_parts(&self) -> MetaParts {
        let g = self.inner.read();
        MetaParts {
            labels: g.labels.clone(),
            ptypes: g.ptypes.clone(),
            next_label: g.next_label,
            next_ptype: g.next_ptype,
            epoch: self.epoch(),
        }
    }

    /// Rebuild a store from exported parts (recovery). Id allocators are
    /// restored too, so ids created after recovery never collide with
    /// pre-crash ids.
    pub(crate) fn from_parts(parts: MetaParts) -> Self {
        Self {
            inner: RwLock::new(MetaInner {
                labels: parts.labels,
                ptypes: parts.ptypes,
                next_label: parts.next_label,
                next_ptype: parts.next_ptype,
            }),
            epoch: AtomicU64::new(parts.epoch.max(1)),
        }
    }

    /// Take a consistent snapshot (what a rank replicates locally).
    pub(crate) fn snapshot(&self) -> MetaSnapshot {
        // epoch first: if a mutation lands between the two reads we get a
        // snapshot at least as new as the recorded epoch, which is safe
        // (staleness detection errs towards aborting).
        let epoch = self.epoch();
        let g = self.inner.read();
        let mut s = MetaSnapshot {
            epoch,
            labels: g.labels.clone(),
            ptypes: g.ptypes.clone(),
            label_by_name: FxHashMap::default(),
            label_by_id: FxHashMap::default(),
            ptype_by_name: FxHashMap::default(),
            ptype_by_id: FxHashMap::default(),
        };
        for (i, l) in s.labels.iter().enumerate() {
            s.label_by_name.insert(l.name.clone(), i);
            s.label_by_id.insert(l.id, i);
        }
        for (i, p) in s.ptypes.iter().enumerate() {
            s.ptype_by_name.insert(p.name.clone(), i);
            s.ptype_by_id.insert(p.id, i);
        }
        s
    }
}

/// Exportable catalog state of a [`MetaStore`] (persistence support: what
/// a durable snapshot's manifest carries).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetaParts {
    /// All label definitions.
    pub labels: Vec<LabelDef>,
    /// All property-type definitions.
    pub ptypes: Vec<PTypeDef>,
    /// Next label id to allocate.
    pub next_label: u32,
    /// Next property-type id to allocate.
    pub next_ptype: u32,
    /// Metadata epoch at export time.
    pub epoch: u64,
}

/// A rank-local replica of the metadata (hash maps for O(1) existence
/// checks, per §5.8).
#[derive(Debug, Clone, Default)]
pub struct MetaSnapshot {
    /// The authoritative epoch this replica reflects.
    pub epoch: u64,
    /// All label definitions at that epoch.
    pub labels: Vec<LabelDef>,
    /// All property-type definitions at that epoch.
    pub ptypes: Vec<PTypeDef>,
    label_by_name: FxHashMap<String, usize>,
    label_by_id: FxHashMap<LabelId, usize>,
    ptype_by_name: FxHashMap<String, usize>,
    ptype_by_id: FxHashMap<PTypeId, usize>,
}

impl MetaSnapshot {
    /// `GDI_GetLabelFromName`.
    pub fn label_from_name(&self, name: &str) -> Option<LabelId> {
        self.label_by_name.get(name).map(|&i| self.labels[i].id)
    }

    /// `GDI_GetNameOfLabel`.
    pub fn label_name(&self, id: LabelId) -> Option<&str> {
        self.label_by_id
            .get(&id)
            .map(|&i| self.labels[i].name.as_str())
    }

    /// `GDI_GetPropertyTypeFromName`.
    pub fn ptype_from_name(&self, name: &str) -> Option<PTypeId> {
        self.ptype_by_name.get(name).map(|&i| self.ptypes[i].id)
    }

    /// Full definition of a property type.
    pub fn ptype(&self, id: PTypeId) -> Option<&PTypeDef> {
        self.ptype_by_id.get(&id).map(|&i| &self.ptypes[i])
    }

    /// `GDI_GetAllLabelsOfDatabase`.
    pub fn all_labels(&self) -> &[LabelDef] {
        &self.labels
    }

    /// `GDI_GetAllPropertyTypesOfDatabase`.
    pub fn all_ptypes(&self) -> &[PTypeDef] {
        &self.ptypes
    }
}

/// Convenience alias for sharing a store.
pub(crate) type SharedMeta = Arc<MetaStore>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_lifecycle() {
        let m = MetaStore::new();
        let e0 = m.epoch();
        let person = m.create_label("Person").unwrap();
        let car = m.create_label("Car").unwrap();
        assert_ne!(person, car);
        assert!(m.epoch() > e0, "creation bumps the epoch");
        assert_eq!(
            m.create_label("Person"),
            Err(GdiError::AlreadyExists("label"))
        );

        let s = m.snapshot();
        assert_eq!(s.label_from_name("Person"), Some(person));
        assert_eq!(s.label_name(car), Some("Car"));
        assert_eq!(s.all_labels().len(), 2);

        m.update_label(person, "Human").unwrap();
        let s2 = m.snapshot();
        assert_eq!(s2.label_from_name("Human"), Some(person));
        assert_eq!(s2.label_from_name("Person"), None);
        assert_eq!(
            m.update_label(car, "Human"),
            Err(GdiError::AlreadyExists("label name"))
        );

        m.delete_label(car).unwrap();
        assert_eq!(m.delete_label(car), Err(GdiError::NotFound("label")));
        assert_eq!(m.snapshot().all_labels().len(), 1);
    }

    #[test]
    fn ptype_lifecycle() {
        let m = MetaStore::new();
        let age = m
            .create_ptype(
                "age",
                Datatype::Uint64,
                EntityType::Vertex,
                Multiplicity::Single,
                SizeType::Fixed,
                1,
            )
            .unwrap();
        assert!(age.0 >= FIRST_PTYPE_ID);
        assert_eq!(
            m.create_ptype(
                "age",
                Datatype::Uint32,
                EntityType::Vertex,
                Multiplicity::Single,
                SizeType::Fixed,
                1
            ),
            Err(GdiError::AlreadyExists("property type"))
        );
        let s = m.snapshot();
        let def = s.ptype(age).unwrap();
        assert_eq!(def.dtype, Datatype::Uint64);
        assert_eq!(def.entity, EntityType::Vertex);
        assert_eq!(s.ptype_from_name("age"), Some(age));
        m.delete_ptype(age).unwrap();
        assert_eq!(
            m.delete_ptype(age),
            Err(GdiError::NotFound("property type"))
        );
    }

    #[test]
    fn snapshots_are_isolated_from_later_changes() {
        let m = MetaStore::new();
        m.create_label("A").unwrap();
        let snap = m.snapshot();
        m.create_label("B").unwrap();
        assert_eq!(snap.all_labels().len(), 1, "snapshot is a replica");
        assert!(snap.epoch < m.epoch(), "staleness is detectable");
        assert_eq!(m.snapshot().all_labels().len(), 2);
    }

    #[test]
    fn ids_never_reused() {
        let m = MetaStore::new();
        let a = m.create_label("A").unwrap();
        m.delete_label(a).unwrap();
        let b = m.create_label("B").unwrap();
        assert_ne!(a, b, "label ids must not be recycled");
    }

    #[test]
    fn concurrent_creates_unique_ids() {
        let m = Arc::new(MetaStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                (0..20)
                    .map(|i| m.create_label(&format!("L{t}-{i}")).unwrap())
                    .collect::<Vec<_>>()
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let uniq: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(uniq.len(), all.len());
        assert_eq!(m.snapshot().all_labels().len(), 160);
    }
}
