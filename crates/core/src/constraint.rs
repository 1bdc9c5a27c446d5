//! Constraints: boolean formulas in disjunctive normal form (§3.6).
//!
//! Explicit GDI indexes are queried with *constraints*: an OR of
//! *subconstraints*, each an AND of label conditions and property
//! conditions. Constraints support arbitrary comparison conditions on
//! labels and properties, covering filters such as
//! `(:Car AND color = "red") OR (:Bike)`.
//!
//! Constraints carry the metadata epoch at which they were built: because
//! GDI only guarantees *eventual consistency* for metadata (§3.8), a
//! constraint referencing labels/p-types that changed since must be
//! reported stale (`GDI_VerifyStaleness`).

use serde::{Deserialize, Serialize};

use crate::model::{LabelId, PTypeId};
use crate::value::PropertyValue;

/// Comparison operator for property conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering of `lhs` relative to `rhs`.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A label condition: the element must (or must not) carry `label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelCond {
    /// The label the condition tests for.
    pub label: LabelId,
    /// `true` = must carry the label, `false` = must not.
    pub present: bool,
}

/// A property condition: `property(ptype) <op> value`.
///
/// For multi-entry property types the condition holds if *any* entry
/// satisfies it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PropCond {
    /// The property type whose entries are compared.
    pub ptype: PTypeId,
    /// The comparison operator.
    pub op: CmpOp,
    /// The right-hand-side value entries are compared against.
    pub value: PropertyValue,
}

impl PropCond {
    /// Evaluate against the entries of the property type on an element.
    pub fn eval(&self, entries: &[PropertyValue]) -> bool {
        entries
            .iter()
            .any(|v| self.op.eval(v.cmp_total(&self.value)))
    }
}

/// View of an element (vertex or edge) that constraints evaluate against.
///
/// Implemented by GDA over a holder's entries (`gda::index`); defined
/// here so that constraint semantics are specified independently of any
/// implementation.
pub trait ElementView {
    /// Does the element carry `label`?
    fn has_label(&self, label: LabelId) -> bool;
    /// All property entries of type `ptype` on the element.
    fn properties(&self, ptype: PTypeId) -> Vec<PropertyValue>;
}

/// A conjunction of label and property conditions.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Subconstraint {
    /// Label conditions, all of which must hold.
    pub label_conds: Vec<LabelCond>,
    /// Property conditions, all of which must hold.
    pub prop_conds: Vec<PropCond>,
}

impl Subconstraint {
    /// An empty (always-true) conjunction to extend with builders.
    pub fn new() -> Self {
        Self::default()
    }

    /// Require the element to carry `label` (`GDI_AddLabelConditionToSubconstraint`).
    pub fn with_label(mut self, label: LabelId) -> Self {
        self.label_conds.push(LabelCond {
            label,
            present: true,
        });
        self
    }

    /// Require the element to *not* carry `label`.
    pub fn without_label(mut self, label: LabelId) -> Self {
        self.label_conds.push(LabelCond {
            label,
            present: false,
        });
        self
    }

    /// Add a property condition (`GDI_AddPropertyConditionToSubconstraint`).
    pub fn with_prop(mut self, ptype: PTypeId, op: CmpOp, value: PropertyValue) -> Self {
        self.prop_conds.push(PropCond { ptype, op, value });
        self
    }

    /// Evaluate the conjunction against an element.
    pub fn eval<E: ElementView + ?Sized>(&self, e: &E) -> bool {
        self.label_conds
            .iter()
            .all(|c| e.has_label(c.label) == c.present)
            && self
                .prop_conds
                .iter()
                .all(|c| c.eval(&e.properties(c.ptype)))
    }

    /// Is this subconstraint the trivial (always-true) conjunction?
    pub fn is_trivial(&self) -> bool {
        self.label_conds.is_empty() && self.prop_conds.is_empty()
    }
}

/// A constraint: a disjunction of subconstraints (DNF formula).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Constraint {
    /// The disjuncts: the constraint holds if *any* of them holds.
    pub subconstraints: Vec<Subconstraint>,
    /// Metadata epoch at which the constraint was created; used for the
    /// staleness check mandated by eventual metadata consistency.
    pub epoch: u64,
}

impl Constraint {
    /// An empty constraint. Per GDI semantics an empty disjunction matches
    /// *everything* (it expresses "no filtering"), which is what index scans
    /// without conditions use.
    pub fn any() -> Self {
        Self::default()
    }

    /// Build a constraint from one subconstraint.
    pub fn from_sub(sub: Subconstraint) -> Self {
        Self {
            subconstraints: vec![sub],
            epoch: 0,
        }
    }

    /// Add a subconstraint (`GDI_AddSubconstraintToConstraint`).
    pub fn or(mut self, sub: Subconstraint) -> Self {
        self.subconstraints.push(sub);
        self
    }

    /// Stamp the metadata epoch.
    pub fn at_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Evaluate against an element.
    pub fn eval<E: ElementView + ?Sized>(&self, e: &E) -> bool {
        self.subconstraints.is_empty() || self.subconstraints.iter().any(|s| s.eval(e))
    }

    /// `GDI_VerifyStaleness`: is the constraint stale at `current_epoch`?
    pub fn is_stale(&self, current_epoch: u64) -> bool {
        self.epoch < current_epoch
    }

    /// All label ids referenced (useful for index-selection planning).
    pub fn referenced_labels(&self) -> Vec<LabelId> {
        let mut v: Vec<LabelId> = self
            .subconstraints
            .iter()
            .flat_map(|s| s.label_conds.iter().map(|c| c.label))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// All property-type ids referenced.
    pub fn referenced_ptypes(&self) -> Vec<PTypeId> {
        let mut v: Vec<PTypeId> = self
            .subconstraints
            .iter()
            .flat_map(|s| s.prop_conds.iter().map(|c| c.ptype))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeElem {
        labels: Vec<LabelId>,
        props: Vec<(PTypeId, PropertyValue)>,
    }

    impl ElementView for FakeElem {
        fn has_label(&self, label: LabelId) -> bool {
            self.labels.contains(&label)
        }
        fn properties(&self, ptype: PTypeId) -> Vec<PropertyValue> {
            self.props
                .iter()
                .filter(|(p, _)| *p == ptype)
                .map(|(_, v)| v.clone())
                .collect()
        }
    }

    fn red_car_over30() -> FakeElem {
        FakeElem {
            labels: vec![LabelId(10), LabelId(11)], // Person, CarOwner
            props: vec![
                (PTypeId(3), PropertyValue::U64(35)), // age
                (PTypeId(4), PropertyValue::Text("red".into())),
            ],
        }
    }

    #[test]
    fn cmp_op_truth_table() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.eval(Equal) && !CmpOp::Eq.eval(Less));
        assert!(CmpOp::Ne.eval(Less) && !CmpOp::Ne.eval(Equal));
        assert!(CmpOp::Lt.eval(Less) && !CmpOp::Lt.eval(Equal));
        assert!(CmpOp::Le.eval(Less) && CmpOp::Le.eval(Equal) && !CmpOp::Le.eval(Greater));
        assert!(CmpOp::Gt.eval(Greater) && !CmpOp::Gt.eval(Equal));
        assert!(CmpOp::Ge.eval(Greater) && CmpOp::Ge.eval(Equal) && !CmpOp::Ge.eval(Less));
    }

    #[test]
    fn label_conditions() {
        let e = red_car_over30();
        let has = Constraint::from_sub(Subconstraint::new().with_label(LabelId(10)));
        assert!(has.eval(&e));
        let not = Constraint::from_sub(Subconstraint::new().without_label(LabelId(99)));
        assert!(not.eval(&e));
        let missing = Constraint::from_sub(Subconstraint::new().with_label(LabelId(99)));
        assert!(!missing.eval(&e));
    }

    #[test]
    fn paper_query_shape() {
        // age > 30 AND color = red  (the paper's running Cypher example)
        let e = red_car_over30();
        let c = Constraint::from_sub(
            Subconstraint::new()
                .with_prop(PTypeId(3), CmpOp::Gt, PropertyValue::U64(30))
                .with_prop(PTypeId(4), CmpOp::Eq, PropertyValue::Text("red".into())),
        );
        assert!(c.eval(&e));
        let c_blue = Constraint::from_sub(Subconstraint::new().with_prop(
            PTypeId(4),
            CmpOp::Eq,
            PropertyValue::Text("blue".into()),
        ));
        assert!(!c_blue.eval(&e));
    }

    #[test]
    fn dnf_disjunction() {
        let e = red_car_over30();
        let no_match = Subconstraint::new().with_label(LabelId(99));
        let matches = Subconstraint::new().with_prop(PTypeId(3), CmpOp::Ge, PropertyValue::U64(35));
        let c = Constraint::from_sub(no_match).or(matches);
        assert!(c.eval(&e));
    }

    #[test]
    fn empty_constraint_matches_everything() {
        let e = red_car_over30();
        assert!(Constraint::any().eval(&e));
        assert!(Subconstraint::new().is_trivial());
        assert!(Subconstraint::new().eval(&e));
    }

    #[test]
    fn multi_entry_any_semantics() {
        let e = FakeElem {
            labels: vec![],
            props: vec![
                (PTypeId(5), PropertyValue::U64(1)),
                (PTypeId(5), PropertyValue::U64(100)),
            ],
        };
        let c = Constraint::from_sub(Subconstraint::new().with_prop(
            PTypeId(5),
            CmpOp::Gt,
            PropertyValue::U64(50),
        ));
        assert!(c.eval(&e));
    }

    #[test]
    fn missing_property_fails_condition() {
        let e = FakeElem {
            labels: vec![],
            props: vec![],
        };
        let c = Constraint::from_sub(Subconstraint::new().with_prop(
            PTypeId(5),
            CmpOp::Eq,
            PropertyValue::U64(1),
        ));
        assert!(!c.eval(&e));
    }

    #[test]
    fn staleness() {
        let c = Constraint::any().at_epoch(3);
        assert!(!c.is_stale(3));
        assert!(c.is_stale(4));
        assert!(!c.is_stale(2));
    }

    #[test]
    fn referenced_ids_deduplicated() {
        let c = Constraint::from_sub(
            Subconstraint::new()
                .with_label(LabelId(7))
                .with_label(LabelId(5))
                .with_prop(PTypeId(9), CmpOp::Eq, PropertyValue::U64(0)),
        )
        .or(Subconstraint::new().with_label(LabelId(7)).with_prop(
            PTypeId(4),
            CmpOp::Eq,
            PropertyValue::U64(0),
        ));
        assert_eq!(c.referenced_labels(), vec![LabelId(5), LabelId(7)]);
        assert_eq!(c.referenced_ptypes(), vec![PTypeId(4), PTypeId(9)]);
    }
}
