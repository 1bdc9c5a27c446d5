//! Physical vocabulary shared by the planner and the executor: access
//! paths, per-stage plan entries, runtime stage counters and result
//! values.

use std::fmt;

use gda::IndexId;

/// How the driving stage produces the roots — the initial frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// One DHT translation of the root's app-id equality predicate
    /// (`GDI_TranslateVertexID`), then a holder filter on the owner.
    PointLookup,
    /// Scan this rank's postings of an explicit index covering a root
    /// label, filtering each posting's holder.
    IndexScan(IndexId),
    /// Full-partition sweep over the zero-transaction [`gda::CsrView`]
    /// rows, filtering every local vertex.
    Sweep,
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPath::PointLookup => write!(f, "point-lookup"),
            AccessPath::IndexScan(id) => write!(f, "index-scan(ix{})", id.0),
            AccessPath::Sweep => write!(f, "sweep"),
        }
    }
}

/// Where expansion stages read a frontier vertex's adjacency. Either
/// way the stage ORs the vertex's root-lane row into its neighbours'
/// rows, routes them to the neighbours' owners with `alltoallv` and
/// filters there (see [`crate::executor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpandPath {
    /// Read each distinct frontier vertex's edge list from its holder
    /// ([`gda::Transaction::neighbors`], one call per vertex, on its
    /// owner). Needs no view and serves every orientation.
    Tx,
    /// Read it from the vertex's row of the cached [`gda::CsrView`]
    /// (outgoing/any orientation only).
    Csr,
}

impl fmt::Display for ExpandPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandPath::Tx => write!(f, "tx"),
            ExpandPath::Csr => write!(f, "csr"),
        }
    }
}

/// A complete access-path assignment for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathChoice {
    /// Driving stage access path.
    pub access: AccessPath,
    /// Expansion traversal path (ignored for expand-free queries).
    pub expand: ExpandPath,
}

impl fmt::Display for PathChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.access, self.expand)
    }
}

/// One planned stage: a human-readable operator description plus the
/// planner's row/time estimates (global rows, simulated nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlan {
    /// Operator description (stable explain text).
    pub desc: String,
    /// Estimated surviving bindings after the stage, machine-wide —
    /// capped at what a frontier holds (`vertices × root lanes`); the
    /// aggregate stage estimates distinct targets.
    pub est_rows: f64,
    /// Estimated simulated nanoseconds spent in the stage (critical
    /// path, LogGP model).
    pub est_ns: f64,
}

/// Measured counters of one executed stage on one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Operator description (mirrors the [`StagePlan`] entry).
    pub desc: String,
    /// Frontier rows — distinct newest vertices, however many roots
    /// reach each — surviving the stage on this rank, summed over lane
    /// batches (driving stage: roots; aggregate stage: distinct targets).
    pub rows: u64,
    /// Adjacency entries inspected by the stage on this rank.
    pub expanded: u64,
    /// Bytes this rank contributed to stage-level exchanges.
    pub comm_bytes: u64,
}

/// The value a query evaluates to (identical on every rank).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryValue {
    /// `count(DISTINCT target)`.
    Count(u64),
    /// Wrapping `sum(target.ptype)` over the distinct targets.
    Sum(u64),
    /// Sorted application ids of the distinct targets.
    Ids(Vec<u64>),
}

impl QueryValue {
    /// The count/sum as a scalar; for id lists, the number of ids.
    pub fn scalar(&self) -> u64 {
        match self {
            QueryValue::Count(n) | QueryValue::Sum(n) => *n,
            QueryValue::Ids(v) => v.len() as u64,
        }
    }
}

/// What one rank gets back from executing a plan: the (replicated)
/// value plus its local per-stage counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// The aggregate value, identical on every rank.
    pub value: QueryValue,
    /// This rank's per-stage execution counters.
    pub stages: Vec<StageStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_are_stable() {
        let c = PathChoice {
            access: AccessPath::IndexScan(IndexId(3)),
            expand: ExpandPath::Csr,
        };
        assert_eq!(c.to_string(), "index-scan(ix3)+csr");
        let p = PathChoice {
            access: AccessPath::PointLookup,
            expand: ExpandPath::Tx,
        };
        assert_eq!(p.to_string(), "point-lookup+tx");
        assert_eq!(AccessPath::Sweep.to_string(), "sweep");
    }

    #[test]
    fn scalar_views() {
        assert_eq!(QueryValue::Count(4).scalar(), 4);
        assert_eq!(QueryValue::Ids(vec![9, 1]).scalar(), 2);
    }
}
