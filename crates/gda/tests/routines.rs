//! The GDI routine map, checked by the compiler: every routine of
//! `gdi::routines::CATALOG` is either a row here, naming the public
//! items that implement it, or on `gdi::routines::NOT_IMPLEMENTED`.
//! A row refers to its items as typed paths, so renaming one or
//! narrowing its visibility fails to build this test.

use std::collections::BTreeSet;

use gda::{DbRegistry, GdaDb, GdaRank, IndexDef, MetaSnapshot, PTypeDef, Transaction};
use gdi::routines::{CATALOG, NOT_IMPLEMENTED};
use gdi::{Constraint, GdiError, Subconstraint};
use rma::{Fabric, RankCtx};

/// Each implemented routine's name, after referring to its items.
fn implemented() -> Vec<&'static str> {
    let mut rows = Vec::new();
    macro_rules! row {
        ($name:literal: $($item:expr),+) => {{
            $(let _ = $item;)+
            rows.push($name);
        }};
    }
    // ---- general management
    row!("GDI_Init": GdaDb::with_fabric, Fabric::run::<fn(&RankCtx) -> (), ()>);
    row!("GDI_Finalize": Fabric::run::<fn(&RankCtx) -> (), ()>);
    row!("GDI_CreateDatabase": DbRegistry::create, GdaDb::attach);
    row!("GDI_DeleteDatabase": DbRegistry::delete);
    // ---- labels
    row!("GDI_CreateLabel": GdaRank::create_label);
    row!("GDI_UpdateLabel": GdaRank::update_label);
    row!("GDI_DeleteLabel": GdaRank::delete_label);
    row!("GDI_GetLabelFromName": MetaSnapshot::label_from_name);
    row!("GDI_GetNameOfLabel": MetaSnapshot::label_name);
    row!("GDI_GetAllLabelsOfDatabase": MetaSnapshot::all_labels);
    // ---- property types
    row!("GDI_CreatePropertyType": GdaRank::create_ptype);
    row!("GDI_UpdatePropertyType": GdaRank::delete_ptype, GdaRank::create_ptype);
    row!("GDI_DeletePropertyType": GdaRank::delete_ptype);
    row!("GDI_GetPropertyTypeFromName": MetaSnapshot::ptype_from_name);
    row!("GDI_GetNameOfPropertyType": |d: &PTypeDef| d.name.clone());
    row!("GDI_GetAllPropertyTypesOfDatabase": MetaSnapshot::all_ptypes);
    row!("GDI_GetEntityTypeOfPropertyType": |d: &PTypeDef| d.entity);
    row!("GDI_GetSizeTypeOfPropertyType": |d: &PTypeDef| d.stype);
    row!("GDI_GetDatatypeOfPropertyType": |d: &PTypeDef| d.dtype);
    // ---- vertices
    row!("GDI_CreateVertex": Transaction::create_vertex);
    row!("GDI_DeleteVertex": Transaction::delete_vertex);
    row!("GDI_TranslateVertexID": Transaction::translate_vertex_id);
    row!("GDI_AssociateVertex": Transaction::associate_vertex);
    row!("GDI_GetEdgesOfVertex": Transaction::edges);
    row!("GDI_GetNeighborVerticesOfVertex": Transaction::neighbors, Transaction::neighbors_matching);
    row!("GDI_AddLabelToVertex": Transaction::add_label);
    row!("GDI_RemoveLabelFromVertex": Transaction::remove_label);
    row!("GDI_GetAllLabelsOfVertex": Transaction::labels);
    row!("GDI_AddPropertyToVertex": Transaction::add_property);
    row!("GDI_UpdatePropertyOfVertex": Transaction::update_property);
    row!("GDI_RemovePropertyFromVertex": Transaction::remove_properties);
    row!("GDI_GetPropertiesOfVertex": Transaction::property, Transaction::properties);
    row!("GDI_RemoveAllPropertiesFromVertex": Transaction::remove_all_properties);
    row!("GDI_GetAllPropertyTypesOfVertex": Transaction::ptypes);
    row!("GDI_BulkLoadVertices": GdaRank::bulk_load);
    // ---- edges
    row!("GDI_CreateEdge": Transaction::add_edge);
    row!("GDI_DeleteEdge": Transaction::delete_edge);
    row!("GDI_GetVerticesOfEdge": Transaction::edge_endpoints);
    row!("GDI_GetDirectionOfEdge": Transaction::edge_direction);
    row!("GDI_SetOriginVertexOfEdge": Transaction::flip_edge);
    row!("GDI_SetTargetVertexOfEdge": Transaction::flip_edge);
    row!("GDI_AddLabelToEdge": Transaction::add_edge_label);
    row!("GDI_GetAllLabelsOfEdge": Transaction::edge_labels);
    row!("GDI_AddPropertyToEdge": Transaction::set_edge_property);
    row!("GDI_UpdatePropertyOfEdge": Transaction::set_edge_property);
    row!("GDI_RemovePropertyFromEdge": Transaction::remove_edge_properties);
    row!("GDI_GetPropertiesOfEdge": Transaction::edge_property);
    row!("GDI_GetAllPropertyTypesOfEdge": Transaction::edge_ptypes);
    row!("GDI_BulkLoadEdges": GdaRank::bulk_load);
    // ---- transactions
    row!("GDI_StartTransaction": GdaRank::begin);
    row!("GDI_CloseTransaction": Transaction::commit, Transaction::abort);
    row!("GDI_StartCollectiveTransaction": GdaRank::begin_collective);
    row!("GDI_CloseCollectiveTransaction": Transaction::commit, Transaction::abort);
    row!("GDI_GetTypeOfTransaction": Transaction::kind);
    // ---- indexes
    row!("GDI_CreateIndex": GdaRank::create_index);
    row!("GDI_DeleteIndex": GdaRank::delete_index);
    row!("GDI_GetAllLabelsOfIndex": |d: &IndexDef| d.labels.clone());
    row!("GDI_GetLocalVerticesOfIndex": GdaRank::local_index_vertices, Transaction::local_index_scan);
    row!("GDI_GetAllIndexesOfDatabase": GdaRank::all_indexes);
    // ---- constraints
    row!("GDI_CreateConstraint": Constraint::any, Constraint::from_sub);
    row!("GDI_CreateSubconstraint": Subconstraint::new);
    row!("GDI_AddLabelConditionToSubconstraint": Subconstraint::with_label, Subconstraint::without_label);
    row!("GDI_AddPropertyConditionToSubconstraint": Subconstraint::with_prop);
    row!("GDI_AddSubconstraintToConstraint": Constraint::or);
    row!("GDI_VerifyStaleness": Constraint::is_stale);
    // ---- errors
    row!("GDI_GetErrorClass": GdiError::is_transaction_critical);
    row!("GDI_GetErrorName": GdiError::name);
    rows
}

#[test]
fn every_catalog_routine_is_implemented_or_listed_as_not() {
    let implemented = implemented();
    let rows: BTreeSet<&str> = implemented.iter().copied().collect();
    assert_eq!(rows.len(), implemented.len(), "a routine has two rows");
    let not: BTreeSet<&str> = NOT_IMPLEMENTED.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        not.iter().copied().collect::<Vec<_>>(),
        ["GDI_AddLabelToIndex", "GDI_RemoveLabelFromIndex"]
    );
    for (name, why) in NOT_IMPLEMENTED {
        assert!(
            !why.is_empty(),
            "{name} is not implemented without a reason"
        );
    }
    for r in CATALOG {
        assert!(
            rows.contains(r.name) != not.contains(r.name),
            "{} must be either implemented or listed as not",
            r.name
        );
    }
    let catalog: BTreeSet<&str> = CATALOG.iter().map(|r| r.name).collect();
    assert!(rows.is_subset(&catalog), "a row names no catalog routine");
    assert!(
        not.is_subset(&catalog),
        "a listed routine is not in the catalog"
    );
}
