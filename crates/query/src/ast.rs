//! The typed pattern/filter AST.
//!
//! A [`Query`] is a linear MATCH chain — a driving node pattern followed
//! by zero or more edge expansions — closed by a projection:
//!
//! ```text
//! MATCH (p:L0)-[:L1]->(c:L2) WHERE p.P0 > t1 AND c.P1 > t2
//! RETURN count(p)
//! ```
//!
//! ## Matching semantics
//!
//! A *binding* of a query with expansions `e1..ek` is a tuple
//! `(v0, v1, .., vk)` of vertices such that `v0` satisfies the root
//! [`NodePattern`] (all labels, all property predicates, and the app-id
//! equality when present), and for every step `i` there is an edge from
//! `v{i-1}` to `v{i}` satisfying the step's orientation and edge-label
//! constraint, with `v{i}` satisfying the step's target pattern. A
//! *cycle-closing* step instead requires an edge from `v{i-1}` back to
//! the root (`v{i} = v0`), the triangle-ish shape.
//!
//! The projection aggregates over the **distinct** vertices bound to one
//! variable (the root or the last pattern node) across all bindings:
//! count, sum of a `u64` property (wrapping, missing entries contribute
//! zero), or the sorted application ids.

use gdi::{AppVertexId, CmpOp, EdgeOrientation, LabelId, PTypeId, PropertyValue};

/// One property predicate: `property(ptype) <op> value`.
#[derive(Debug, Clone, PartialEq)]
pub struct PropFilter {
    /// Property type compared.
    pub ptype: PTypeId,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub value: PropertyValue,
}

/// A node pattern: conjunctive label + property predicates, and an
/// optional application-id equality (the DHT point-lookup predicate).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodePattern {
    /// Variable name (explain/debug only; semantics are positional).
    pub var: String,
    /// Labels the vertex must carry (all of them).
    pub labels: Vec<LabelId>,
    /// Property predicates (all must hold).
    pub props: Vec<PropFilter>,
    /// `id(var) = x` equality predicate — only meaningful on the root.
    pub app_id: Option<AppVertexId>,
}

impl NodePattern {
    /// A pattern with no predicates (matches every vertex).
    pub fn any(var: &str) -> Self {
        Self {
            var: var.to_string(),
            ..Self::default()
        }
    }

    /// Does the pattern carry a label or property predicate — one that
    /// takes a read of the vertex's holder to decide?
    pub fn tests_holder(&self) -> bool {
        !(self.labels.is_empty() && self.props.is_empty())
    }

    /// Does the pattern carry no label/property/app-id predicate at all?
    pub fn is_trivial(&self) -> bool {
        !self.tests_holder() && self.app_id.is_none()
    }
}

/// One edge-expansion step of the MATCH chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Expand {
    /// Edge orientation relative to the previous pattern node.
    pub orient: EdgeOrientation,
    /// Required edge label, if any.
    pub edge_label: Option<LabelId>,
    /// Target node pattern. Ignored when `close_to_root` is set.
    pub target: NodePattern,
    /// Cycle-closing step: the edge must lead back to the root binding
    /// instead of binding a fresh node (`(a)-[..]->(b)-[..]->(a)`).
    pub close_to_root: bool,
}

/// Which chain variable the projection aggregates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggTarget {
    /// The driving (first) pattern node.
    Root,
    /// The last non-closing pattern node of the chain.
    Last,
}

/// The aggregate computed over the distinct vertices of the target
/// variable.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// Number of distinct vertices.
    Count,
    /// Wrapping sum of the (single-entry `u64`) property over the
    /// distinct vertices; vertices without the property contribute 0.
    Sum(PTypeId),
    /// Sorted application ids of the distinct vertices.
    CollectIds,
}

/// The RETURN clause: an aggregate over one chain variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// Variable aggregated over.
    pub target: AggTarget,
    /// The aggregate.
    pub agg: Aggregate,
}

/// A complete declarative query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The driving node pattern.
    pub root: NodePattern,
    /// Expansion steps, in chain order.
    pub expands: Vec<Expand>,
    /// The projection.
    pub returns: Projection,
}

impl Query {
    /// The pattern node the projection aggregates over.
    pub fn target_pattern(&self) -> &NodePattern {
        match self.returns.target {
            AggTarget::Root => &self.root,
            AggTarget::Last => self
                .expands
                .iter()
                .rev()
                .find(|e| !e.close_to_root)
                .map_or(&self.root, |e| &e.target),
        }
    }

    /// Variable name the projection aggregates over.
    pub fn target_var(&self) -> &str {
        &self.target_pattern().var
    }

    /// Must execution remember which root each binding started from?
    /// Only a cycle-closing step or a root projection over expansions
    /// reads it; every other query treats its roots as one set.
    pub fn tracks_roots(&self) -> bool {
        self.expands.iter().any(|e| e.close_to_root)
            || (self.returns.target == AggTarget::Root && !self.expands.is_empty())
    }

    /// Does any expansion step use the given orientation?
    pub fn uses_orientation(&self, o: EdgeOrientation) -> bool {
        self.expands.iter().any(|e| e.orient == o)
    }

    /// Render the query in the Cypher-ish surface syntax (ids shown
    /// numerically; the parseable form needs name resolution).
    pub fn display(&self) -> String {
        let mut s = String::from("MATCH ");
        let node = |n: &NodePattern| {
            let mut t = format!("({}", n.var);
            for l in &n.labels {
                t.push_str(&format!(":#{}", l.0));
            }
            t.push(')');
            t
        };
        s.push_str(&node(&self.root));
        for e in &self.expands {
            let (l, r) = match e.orient {
                EdgeOrientation::Outgoing => ("-", "->"),
                EdgeOrientation::Incoming => ("<-", "-"),
                _ => ("-", "-"),
            };
            let lbl = e
                .edge_label
                .map(|l| format!("[:#{}]", l.0))
                .unwrap_or_else(|| "[]".to_string());
            s.push_str(&format!("{l}{lbl}{r}"));
            if e.close_to_root {
                s.push_str(&format!("({})", self.root.var));
            } else {
                s.push_str(&node(&e.target));
            }
        }
        let tgt = self.target_var();
        s.push_str(&match &self.returns.agg {
            Aggregate::Count => format!(" RETURN count(DISTINCT {tgt})"),
            Aggregate::Sum(p) => format!(" RETURN sum({tgt}.#{})", p.0),
            Aggregate::CollectIds => format!(" RETURN collect({tgt})"),
        });
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_var_resolution() {
        let q = Query {
            root: NodePattern::any("a"),
            expands: vec![
                Expand {
                    orient: EdgeOrientation::Outgoing,
                    edge_label: None,
                    target: NodePattern::any("b"),
                    close_to_root: false,
                },
                Expand {
                    orient: EdgeOrientation::Outgoing,
                    edge_label: None,
                    target: NodePattern::default(),
                    close_to_root: true,
                },
            ],
            returns: Projection {
                target: AggTarget::Last,
                agg: Aggregate::Count,
            },
        };
        // the closing step binds no fresh node: "last" is still b
        assert_eq!(q.target_var(), "b");
        assert!(q.display().contains("MATCH (a)"));
    }

    #[test]
    fn trivial_pattern() {
        assert!(NodePattern::any("x").is_trivial());
        let mut p = NodePattern::any("x");
        p.app_id = Some(AppVertexId(3));
        assert!(!p.is_trivial());
    }
}
