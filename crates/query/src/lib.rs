//! Declarative pattern queries over GDI-RMA: typed AST, Cypher-ish
//! parser, cost-aware planner and collective executor.
//!
//! The paper's BI workloads (Listing 3) are MATCH/WHERE/aggregate
//! shapes; this crate turns them from hand-compiled Rust into data.
//! A [`Query`] — built with [`QueryBuilder`] or parsed from text with
//! [`parse()`](parse::parse) — is planned by [`planner::plan`] against
//! a collectively
//! gathered [`planner::Catalog`], choosing per stage between the three
//! access paths the engine already exposes:
//!
//! - **DHT point lookup** when the root carries an `id(v) = x`
//!   predicate (one translation instead of any scan),
//! - **index-posting scan** when an explicit index covers a root label,
//! - **zero-transaction [`gda::CsrView`] sweep** otherwise,
//!
//! and between holder edge lists and cached-view rows as the adjacency
//! source of the expansion stages. [`executor::execute`] then runs the
//! [`planner::Plan`] as one collective read-only transaction (plus the
//! view rendezvous when the plan needs it) over a frontier of root-lane
//! bit rows — never `(root, cur)` pairs — surfacing per-stage
//! row/communication counters as [`rma::Counter`] rows (`query.*`).
//!
//! Everything here is **collective and deterministic**: all ranks
//! gather the same catalog, derive the same plan, and hit the same
//! collectives in the same order.

#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod executor;
pub mod parse;
pub mod physical;
pub mod planner;

pub use ast::{AggTarget, Aggregate, Expand, NodePattern, Projection, PropFilter, Query};
pub use builder::QueryBuilder;
pub use executor::{execute, run};
pub use parse::{parse, ParseError};
pub use physical::{
    AccessPath, ExpandPath, PathChoice, QueryOutput, QueryValue, StagePlan, StageStats,
};
pub use planner::{plan, plan_choice, viable_choices, Catalog, IndexStat, Plan};
