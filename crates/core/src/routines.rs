//! The GDI routine catalog (Fig. 2).
//!
//! The paper structures GDI into groups of routines — general management,
//! graph metadata (labels, property types), graph data (vertices, edges),
//! transactions, indexes, constraints, and errors — each marked local
//! (`[L]`) or collective (`[C]`). This module is the machine-readable
//! version of that figure: every routine with its group and call class,
//! and the routines this reproduction does not implement
//! ([`NOT_IMPLEMENTED`]). Where each other routine lives is a table of
//! typed paths in `gda`'s `routines` test, so a rename or a narrowed
//! visibility fails to build it, and that test checks that every routine
//! here is either in the table or on the not-implemented list.

/// How many processes actively participate in a routine (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallClass {
    /// `[L]` — executed by a single process (may passively involve others).
    Local,
    /// `[C]` — all processes must call it.
    Collective,
}

/// The routine groups of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// General database management (create/delete/start-up).
    Management,
    /// Label metadata routines.
    Labels,
    /// Property-type metadata routines.
    PropertyTypes,
    /// Vertex graph-data routines.
    Vertices,
    /// Edge graph-data routines.
    Edges,
    /// Transaction lifecycle routines.
    Transactions,
    /// Explicit-index routines.
    Indexes,
    /// Constraint-object routines.
    Constraints,
    /// Error introspection routines.
    Errors,
}

/// One GDI routine and where it lives in this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routine {
    /// The `GDI_*` routine name as printed in Fig. 2.
    pub name: &'static str,
    /// The routine group (Fig. 2 section).
    pub group: Group,
    /// Local or collective call class.
    pub class: CallClass,
}

macro_rules! routine {
    ($name:literal, $group:ident, $class:ident) => {
        Routine {
            name: $name,
            group: Group::$group,
            class: CallClass::$class,
        }
    };
}

/// The full catalog (Fig. 2), in figure order.
pub const CATALOG: &[Routine] = &[
    // ---- general management ------------------------------------------
    routine!("GDI_Init", Management, Collective),
    routine!("GDI_Finalize", Management, Collective),
    routine!("GDI_CreateDatabase", Management, Collective),
    routine!("GDI_DeleteDatabase", Management, Collective),
    // ---- labels -------------------------------------------------------
    routine!("GDI_CreateLabel", Labels, Collective),
    routine!("GDI_UpdateLabel", Labels, Collective),
    routine!("GDI_DeleteLabel", Labels, Collective),
    routine!("GDI_GetLabelFromName", Labels, Local),
    routine!("GDI_GetNameOfLabel", Labels, Local),
    routine!("GDI_GetAllLabelsOfDatabase", Labels, Local),
    // ---- property types ------------------------------------------------
    routine!("GDI_CreatePropertyType", PropertyTypes, Collective),
    routine!("GDI_UpdatePropertyType", PropertyTypes, Collective),
    routine!("GDI_DeletePropertyType", PropertyTypes, Collective),
    routine!("GDI_GetPropertyTypeFromName", PropertyTypes, Local),
    routine!("GDI_GetNameOfPropertyType", PropertyTypes, Local),
    routine!("GDI_GetAllPropertyTypesOfDatabase", PropertyTypes, Local),
    routine!("GDI_GetEntityTypeOfPropertyType", PropertyTypes, Local),
    routine!("GDI_GetSizeTypeOfPropertyType", PropertyTypes, Local),
    routine!("GDI_GetDatatypeOfPropertyType", PropertyTypes, Local),
    // ---- vertices -------------------------------------------------------
    routine!("GDI_CreateVertex", Vertices, Local),
    routine!("GDI_DeleteVertex", Vertices, Local),
    routine!("GDI_TranslateVertexID", Vertices, Local),
    routine!("GDI_AssociateVertex", Vertices, Local),
    routine!("GDI_GetEdgesOfVertex", Vertices, Local),
    routine!("GDI_GetNeighborVerticesOfVertex", Vertices, Local),
    routine!("GDI_AddLabelToVertex", Vertices, Local),
    routine!("GDI_RemoveLabelFromVertex", Vertices, Local),
    routine!("GDI_GetAllLabelsOfVertex", Vertices, Local),
    routine!("GDI_AddPropertyToVertex", Vertices, Local),
    routine!("GDI_UpdatePropertyOfVertex", Vertices, Local),
    routine!("GDI_RemovePropertyFromVertex", Vertices, Local),
    routine!("GDI_GetPropertiesOfVertex", Vertices, Local),
    routine!("GDI_RemoveAllPropertiesFromVertex", Vertices, Local),
    routine!("GDI_GetAllPropertyTypesOfVertex", Vertices, Local),
    routine!("GDI_BulkLoadVertices", Vertices, Collective),
    // ---- edges -----------------------------------------------------------
    routine!("GDI_CreateEdge", Edges, Local),
    routine!("GDI_DeleteEdge", Edges, Local),
    routine!("GDI_GetVerticesOfEdge", Edges, Local),
    routine!("GDI_GetDirectionOfEdge", Edges, Local),
    routine!("GDI_SetOriginVertexOfEdge", Edges, Local),
    routine!("GDI_SetTargetVertexOfEdge", Edges, Local),
    routine!("GDI_AddLabelToEdge", Edges, Local),
    routine!("GDI_GetAllLabelsOfEdge", Edges, Local),
    routine!("GDI_AddPropertyToEdge", Edges, Local),
    routine!("GDI_UpdatePropertyOfEdge", Edges, Local),
    routine!("GDI_RemovePropertyFromEdge", Edges, Local),
    routine!("GDI_GetPropertiesOfEdge", Edges, Local),
    routine!("GDI_GetAllPropertyTypesOfEdge", Edges, Local),
    routine!("GDI_BulkLoadEdges", Edges, Collective),
    // ---- transactions ------------------------------------------------------
    routine!("GDI_StartTransaction", Transactions, Local),
    routine!("GDI_CloseTransaction", Transactions, Local),
    routine!("GDI_StartCollectiveTransaction", Transactions, Collective),
    routine!("GDI_CloseCollectiveTransaction", Transactions, Collective),
    routine!("GDI_GetTypeOfTransaction", Transactions, Local),
    // ---- indexes --------------------------------------------------------------
    routine!("GDI_CreateIndex", Indexes, Collective),
    routine!("GDI_DeleteIndex", Indexes, Collective),
    routine!("GDI_AddLabelToIndex", Indexes, Collective),
    routine!("GDI_RemoveLabelFromIndex", Indexes, Collective),
    routine!("GDI_GetAllLabelsOfIndex", Indexes, Local),
    routine!("GDI_GetLocalVerticesOfIndex", Indexes, Local),
    routine!("GDI_GetAllIndexesOfDatabase", Indexes, Local),
    // ---- constraints -------------------------------------------------------------
    routine!("GDI_CreateConstraint", Constraints, Local),
    routine!("GDI_CreateSubconstraint", Constraints, Local),
    routine!("GDI_AddLabelConditionToSubconstraint", Constraints, Local),
    routine!(
        "GDI_AddPropertyConditionToSubconstraint",
        Constraints,
        Local
    ),
    routine!("GDI_AddSubconstraintToConstraint", Constraints, Local),
    routine!("GDI_VerifyStaleness", Constraints, Local),
    // ---- errors -----------------------------------------------------------------------
    routine!("GDI_GetErrorClass", Errors, Local),
    routine!("GDI_GetErrorName", Errors, Local),
];

/// Catalog routines this reproduction does not implement, each with why.
pub const NOT_IMPLEMENTED: &[(&str, &str)] = &[
    (
        "GDI_AddLabelToIndex",
        "index membership is evaluated only when a commit reindexes a \
         vertex, so a changed label set needs a collective re-index of \
         every existing vertex and a full checkpoint; an index's labels \
         are fixed at GDI_CreateIndex",
    ),
    (
        "GDI_RemoveLabelFromIndex",
        "as GDI_AddLabelToIndex: a changed label set needs a collective \
         re-index and a full checkpoint",
    ),
];

/// Look up a routine by its GDI name.
pub fn lookup(name: &str) -> Option<&'static Routine> {
    CATALOG.iter().find(|r| r.name == name)
}

/// Routines of one group, in catalog order.
pub fn by_group(group: Group) -> impl Iterator<Item = &'static Routine> {
    CATALOG.iter().filter(move |r| r.group == group)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_unique_and_conventional() {
        let mut seen = std::collections::HashSet::new();
        for r in CATALOG {
            assert!(r.name.starts_with("GDI_"), "{}", r.name);
            assert!(seen.insert(r.name), "duplicate routine {}", r.name);
        }
    }

    #[test]
    fn every_group_populated() {
        for g in [
            Group::Management,
            Group::Labels,
            Group::PropertyTypes,
            Group::Vertices,
            Group::Edges,
            Group::Transactions,
            Group::Indexes,
            Group::Constraints,
            Group::Errors,
        ] {
            assert!(by_group(g).count() >= 2, "{g:?} too sparse");
        }
    }

    #[test]
    fn figure2_collective_markers() {
        // the [C] markers of Fig. 2 that matter most
        for (name, class) in [
            ("GDI_CreateLabel", CallClass::Collective),
            ("GDI_BulkLoadVertices", CallClass::Collective),
            ("GDI_StartCollectiveTransaction", CallClass::Collective),
            ("GDI_CreateIndex", CallClass::Collective),
            ("GDI_StartTransaction", CallClass::Local),
            ("GDI_TranslateVertexID", CallClass::Local),
            ("GDI_GetLocalVerticesOfIndex", CallClass::Local),
        ] {
            assert_eq!(lookup(name).unwrap().class, class, "{name}");
        }
    }

    #[test]
    fn lookup_misses_cleanly() {
        assert!(lookup("GDI_Frobnicate").is_none());
    }

    #[test]
    fn catalog_size_matches_figure2_scope() {
        // Fig. 2 lists ~60 routines across the groups; the catalog must
        // stay in that ballpark (guards against accidental truncation)
        assert!(CATALOG.len() >= 55, "catalog shrank to {}", CATALOG.len());
    }
}
