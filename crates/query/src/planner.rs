//! Rule/cost-based planner: pick the driving access path and the
//! expansion traversal for a [`Query`].
//!
//! ## Rules (what is viable)
//!
//! - **Point lookup** needs an `id(root) = x` equality predicate — one
//!   DHT translation replaces any scan.
//! - **Index scan** needs an explicit index *covering* the root: the
//!   index is unfiltered (`labels` empty) or shares a label with the
//!   root pattern, so every root match is among its postings. The
//!   planner considers only the smallest covering index.
//! - **Sweep** (full-partition [`gda::CsrView`] iteration) is always
//!   viable.
//! - **Csr expansion** needs at least one expansion step and no
//!   `Incoming`/`Undirected` orientation (the view stores out/any
//!   adjacency only); **Tx expansion** is always viable.
//!
//! ## Cost (which viable choice wins)
//!
//! Stage costs come from the LogGP model in [`rma::cost::CostModel`] —
//! the same constants the simulated fabric charges — combined with
//! simple selectivity estimates: exact label frequencies where an index
//! publishes them, fixed priors for property predicates. The estimate
//! is the machine-wide critical path in simulated nanoseconds, so "the
//! cheapest plan" means the same thing as the benches' simulated time.
//!
//! Expansion is costed the way the executor runs it (see
//! [`crate::executor`]): a stage touches each **distinct** frontier
//! vertex once per lane batch, ORs a row of root-lane words per edge,
//! routes one row per distinct neighbour and filters on the owner. So
//! row estimates are capped at what a frontier can hold — `n · lanes`
//! bindings — and work terms scale with frontier rows × row words, never
//! with `(root, cur)` pairs.
//!
//! Planning must be **deterministic across ranks**: the executor runs
//! collectives in plan order, so two ranks disagreeing on a plan would
//! deadlock the fabric. [`Catalog::gather`] is therefore collective
//! (every rank sees identical statistics), and everything downstream is
//! a pure function of `(Catalog, Query)`.

use gda::{GdaRank, IndexDef};
use gdi::{CmpOp, EdgeOrientation};
use rma::CostModel;

use crate::ast::{AggTarget, Aggregate, NodePattern, Query};
use crate::executor::LANE_BATCH;
use crate::physical::{AccessPath, ExpandPath, PathChoice, StagePlan};

/// Fallback mean out-degree when no scan view is cached anywhere.
const DEFAULT_DEG_OUT: f64 = 8.0;
/// Label + property entry bytes of a typical vertex holder (the edge
/// records are estimated from the catalog's degrees).
const HOLDER_ENTRY_BYTES: f64 = 96.0;

/// Statistics of one explicit index as the planner sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStat {
    /// The index definition (labels decide covering).
    pub def: IndexDef,
    /// Machine-wide posting count.
    pub entries: u64,
}

/// Collectively gathered statistics the planner runs on. All ranks hold
/// an identical catalog, so planning is replicated instead of
/// coordinated.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    /// Fabric size.
    pub nranks: usize,
    /// Machine-wide live vertex estimate.
    pub n_vertices: u64,
    /// Label universe size (selectivity prior for edge labels).
    pub n_labels: usize,
    /// Explicit indexes with machine-wide posting counts (id order).
    pub indexes: Vec<IndexStat>,
    /// Mean out-degree (exact when a scan view was cached everywhere).
    pub deg_out: f64,
    /// Mean undirected degree (out + in incidences per vertex).
    pub deg_any: f64,
    /// Every rank holds a cached scan view (a Csr stage revalidates
    /// instead of sweeping).
    pub view_cached: bool,
    /// BGDL block size in bytes: a holder is read in whole blocks.
    pub block_bytes: usize,
    /// The fabric's LogGP constants.
    pub cost: CostModel,
    /// Metadata epoch the catalog was taken at.
    pub meta_epoch: u64,
}

impl Catalog {
    /// Collectively gather planner statistics. Every rank must call
    /// this together; the result is identical on all ranks.
    pub fn gather(eng: &GdaRank) -> Catalog {
        let ctx = eng.ctx();
        let mut defs = eng.all_indexes();
        defs.sort_by_key(|d| d.id);
        // one exchange: per-index local posting counts + local view stats
        let mut local: Vec<u64> = defs
            .iter()
            .map(|d| eng.local_index_len(d.id) as u64)
            .collect();
        let peek = eng.olap_view_peek();
        let (lv, le_out, le_any, have) = peek
            .as_ref()
            .map(|v| {
                (
                    v.len() as u64,
                    v.out_edges() as u64,
                    v.any_edges() as u64,
                    1,
                )
            })
            .unwrap_or((0, 0, 0, 0));
        local.extend_from_slice(&[lv, le_out, le_any, have]);
        let gathered = ctx.allgatherv(local);
        let mut totals = vec![0u64; defs.len() + 4];
        for row in &gathered {
            for (t, v) in totals.iter_mut().zip(row) {
                *t += v;
            }
        }
        let (view_v, view_out, view_any, view_haves) = (
            totals[defs.len()],
            totals[defs.len() + 1],
            totals[defs.len() + 2],
            totals[defs.len() + 3],
        );
        let view_cached = view_haves as usize == eng.nranks();

        let indexes: Vec<IndexStat> = defs
            .into_iter()
            .zip(totals.iter())
            .map(|(def, &entries)| IndexStat { def, entries })
            .collect();
        // vertex count: an all-vertex index is exact; a view cached
        // everywhere is exact too; otherwise the largest index is a
        // lower bound
        let n_vertices = indexes
            .iter()
            .find(|s| s.def.labels.is_empty())
            .map(|s| s.entries)
            .or_else(|| view_cached.then_some(view_v))
            .or_else(|| indexes.iter().map(|s| s.entries).max())
            .unwrap_or(0)
            .max(1);
        let (deg_out, deg_any) = if view_cached && view_v > 0 {
            (
                view_out as f64 / view_v as f64,
                view_any as f64 / view_v as f64,
            )
        } else {
            (DEFAULT_DEG_OUT, 2.0 * DEFAULT_DEG_OUT)
        };
        Catalog {
            nranks: eng.nranks(),
            n_vertices,
            n_labels: eng.meta().all_labels().len().max(1),
            indexes,
            deg_out,
            deg_any,
            view_cached,
            block_bytes: eng.cfg().block_size,
            cost: *ctx.cost_model(),
            meta_epoch: eng.meta_epoch(),
        }
    }

    /// Fraction of vertices carrying label `l` (exact when an index on
    /// exactly `{l}` exists; the tightest covering index otherwise).
    fn label_sel(&self, l: gdi::LabelId) -> f64 {
        let n = self.n_vertices as f64;
        let tightest = self
            .indexes
            .iter()
            .filter(|s| s.def.labels.contains(&l))
            .map(|s| s.entries as f64 / n)
            .fold(f64::INFINITY, f64::min);
        if tightest.is_finite() {
            tightest.clamp(1e-9, 1.0)
        } else {
            0.5
        }
    }

    /// Estimated fraction of vertices matching the pattern.
    fn pattern_sel(&self, p: &NodePattern) -> f64 {
        let mut s = 1.0f64;
        for l in &p.labels {
            s *= self.label_sel(*l);
        }
        for f in &p.props {
            s *= prop_sel(f.op);
        }
        if p.app_id.is_some() {
            s = s.min(1.0 / self.n_vertices as f64);
        }
        s.clamp(1e-9, 1.0)
    }

    /// The smallest explicit index covering the root pattern, if any.
    fn best_covering_index(&self, root: &NodePattern) -> Option<&IndexStat> {
        self.indexes
            .iter()
            .filter(|s| {
                s.def.labels.is_empty() || root.labels.iter().any(|l| s.def.labels.contains(l))
            })
            .min_by_key(|s| (s.entries, s.def.id))
    }

    /// One read of a local vertex's holder — a pattern evaluation, an
    /// aggregate's property read, or a Tx stage's adjacency fetch. The
    /// collective read-only transaction copies the chain out of the
    /// local window block by block (one charged `get` per block, nothing
    /// cached between reads) and evaluates in place, so the cost is the
    /// holder's blocks: header, one 24-byte record per incident edge,
    /// the entries — plus half a block, because sizes are skewed and a
    /// partly filled last block is read whole.
    fn holder_read_ns(&self) -> f64 {
        let payload = (self.block_bytes - gda::hio::BLOCK_PAYLOAD_OFFSET) as f64;
        let bytes = gda::holder::HEADER_BYTES as f64
            + gda::holder::EDGE_RECORD_BYTES as f64 * self.deg_any
            + HOLDER_ENTRY_BYTES;
        let blocks = (bytes / payload + 0.5).max(1.0);
        blocks * self.cost.transfer(0, 0, self.block_bytes)
    }

    /// Cost of making the scan view available: when cached everywhere,
    /// one read of this rank's own topology-epoch word and the 8-byte
    /// "anything stale anywhere" vote ([`GdaRank::olap_view`]); a full
    /// collective sweep otherwise.
    fn view_ns(&self) -> f64 {
        let p = self.nranks;
        if self.view_cached {
            self.cost.atomic(0, 0) + self.cost.reduce_like(p, 8)
        } else {
            let local = self.n_vertices as f64 / p as f64;
            local * self.cost.local_word_ns * 64.0
                + self.cost.alltoallv(
                    p.saturating_sub(1),
                    (local * 16.0) as usize,
                    (local * 16.0) as usize,
                )
                + self.cost.barrier(p)
        }
    }
}

/// Property-predicate selectivity priors.
fn prop_sel(op: CmpOp) -> f64 {
    match op {
        CmpOp::Eq => 0.05,
        CmpOp::Ne => 0.95,
        _ => 1.0 / 3.0,
    }
}

/// An explainable physical plan: the chosen paths, per-stage estimates
/// and the costs of the alternatives that lost.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The winning access-path assignment.
    pub choice: PathChoice,
    /// Estimated machine-wide critical path, simulated nanoseconds.
    pub est_cost_ns: f64,
    /// Estimated distinct aggregate targets.
    pub est_rows: f64,
    /// Per-stage estimates, in execution order.
    pub stages: Vec<StagePlan>,
    /// `(choice, est_cost_ns)` of every viable alternative, cheapest
    /// first (includes the winner).
    pub alternatives: Vec<(String, f64)>,
    /// The executor must rendezvous on [`GdaRank::olap_view`] first.
    pub uses_view: bool,
    /// The query in display syntax (explain header).
    pub query: String,
}

impl Plan {
    /// Stable one-plan-per-call explain text (golden-tested): header,
    /// winning choice, per-stage estimates, ranked alternatives.
    pub fn explain(&self) -> String {
        let mut s = format!("query: {}\n", self.query);
        s.push_str(&format!(
            "choice: {} est={:.3}ms rows~{:.1}{}\n",
            self.choice,
            self.est_cost_ns / 1e6,
            self.est_rows,
            if self.uses_view { " [view]" } else { "" }
        ));
        for (i, st) in self.stages.iter().enumerate() {
            s.push_str(&format!(
                "  stage {}: {} rows~{:.1} est={:.3}ms\n",
                i + 1,
                st.desc,
                st.est_rows,
                st.est_ns / 1e6
            ));
        }
        s.push_str("alternatives:\n");
        for (name, ns) in &self.alternatives {
            s.push_str(&format!("  {:<24} {:.3}ms\n", name, ns / 1e6));
        }
        s
    }
}

/// Every viable access-path assignment for `q`, in a stable order.
pub fn viable_choices(cat: &Catalog, q: &Query) -> Vec<PathChoice> {
    let mut accesses = Vec::new();
    if q.root.app_id.is_some() {
        accesses.push(AccessPath::PointLookup);
    }
    if let Some(ix) = cat.best_covering_index(&q.root) {
        accesses.push(AccessPath::IndexScan(ix.def.id));
    }
    accesses.push(AccessPath::Sweep);

    let mut expands = vec![ExpandPath::Tx];
    if !q.expands.is_empty()
        && !q.uses_orientation(EdgeOrientation::Incoming)
        && !q.uses_orientation(EdgeOrientation::Undirected)
    {
        expands.push(ExpandPath::Csr);
    }
    let mut out = Vec::new();
    for &access in &accesses {
        for &expand in &expands {
            out.push(PathChoice { access, expand });
        }
    }
    out
}

fn pattern_desc(p: &NodePattern) -> String {
    let mut parts = vec![p.var.clone()];
    if !p.labels.is_empty() {
        parts.push(format!("labels={}", p.labels.len()));
    }
    if !p.props.is_empty() {
        parts.push(format!("props={}", p.props.len()));
    }
    format!("({})", parts.join(" "))
}

/// Cost one concrete choice. `None` when the choice is not viable for
/// the query (missing app-id, no covering index, incoming + csr).
pub fn plan_choice(cat: &Catalog, q: &Query, choice: PathChoice) -> Option<Plan> {
    let p = cat.nranks as f64;
    let n = cat.n_vertices as f64;
    let mut stages = Vec::new();
    let mut total = 0.0f64;
    let mut view_paid = false;
    let uses_view = matches!(choice.access, AccessPath::Sweep)
        || (!q.expands.is_empty() && choice.expand == ExpandPath::Csr);

    // ---- driving stage ---------------------------------------------------
    // a posting is always read (the index is maintained lazily); a DHT
    // entry or view row only if the pattern has a predicate to test
    let root_is_read = q.root.tests_holder() || matches!(choice.access, AccessPath::IndexScan(_));
    let root_read = if root_is_read {
        cat.holder_read_ns()
    } else {
        0.0
    };
    let mut rows;
    match choice.access {
        AccessPath::PointLookup => {
            q.root.app_id?;
            rows = if q.root.tests_holder() {
                (cat.pattern_sel(&q.root) * n).min(1.0)
            } else {
                1.0
            };
            let ns = 2.0 * cat.cost.transfer(0, 1, 64) + root_read;
            total += ns;
            stages.push(StagePlan {
                desc: format!("point-lookup {}", pattern_desc(&q.root)),
                est_rows: rows,
                est_ns: ns,
            });
        }
        AccessPath::IndexScan(id) => {
            let st = cat.indexes.iter().find(|s| s.def.id == id)?;
            if !(st.def.labels.is_empty()
                || q.root.labels.iter().any(|l| st.def.labels.contains(l)))
            {
                return None;
            }
            rows = (n * cat.pattern_sel(&q.root)).min(st.entries as f64);
            // holder filter per posting, plus listing the posting itself
            // (`GdaRank::local_index_vertices` charges one op each)
            let ns = (st.entries as f64 / p) * (root_read + cat.cost.cpu_op_ns);
            total += ns;
            stages.push(StagePlan {
                desc: format!("index-scan[{}] {}", st.def.name, pattern_desc(&q.root)),
                est_rows: rows,
                est_ns: ns,
            });
        }
        AccessPath::Sweep => {
            let mut ns = 0.0;
            if !view_paid {
                ns += cat.view_ns();
                view_paid = true;
            }
            ns += (n / p) * root_read;
            rows = n * cat.pattern_sel(&q.root);
            total += ns;
            stages.push(StagePlan {
                desc: format!("sweep {}", pattern_desc(&q.root)),
                est_rows: rows,
                est_ns: ns,
            });
        }
    }
    rows = rows.max(1e-3);

    // ---- frontier shape --------------------------------------------------
    // one lane per root while root identity is live, one shared lane
    // otherwise; rows wider than a lane batch run the expands per batch
    let roots = rows;
    let track_roots = q.tracks_roots();
    let lanes = if track_roots { roots.max(1.0) } else { 1.0 };
    let batches = (lanes / LANE_BATCH as f64).ceil();
    let words = (lanes.min(LANE_BATCH as f64) / 64.0).ceil();
    let row_bytes = 8.0 * (1.0 + words);
    // bindings a frontier can hold, and the frontier rows (distinct
    // vertices, summed over batches) a binding estimate amounts to
    let cap = n * lanes;
    let frontier_rows = |bindings: f64| bindings.min(n * batches);

    // ---- expansion stages ------------------------------------------------
    for e in &q.expands {
        if matches!(
            e.orient,
            EdgeOrientation::Incoming | EdgeOrientation::Undirected
        ) && choice.expand == ExpandPath::Csr
        {
            return None;
        }
        let deg = match e.orient {
            EdgeOrientation::Outgoing => cat.deg_out,
            _ => cat.deg_any,
        };
        let esel = if e.edge_label.is_some() {
            1.0 / cat.n_labels as f64
        } else {
            1.0
        };
        let tsel = cat.pattern_sel(&e.target);
        let mut ns = 0.0;
        // adjacency of every local frontier row: a read of its holder
        // (tx) or its cached view row (csr)
        let cur = frontier_rows(rows) / p;
        let fetch = match choice.expand {
            ExpandPath::Tx => cat.holder_read_ns(),
            ExpandPath::Csr => {
                if !view_paid {
                    ns += cat.view_ns();
                    view_paid = true;
                }
                (2.0 + deg) * cat.cost.local_word_ns
            }
        };
        if e.close_to_root {
            // root→lane map per batch, then a bit test per edge and one
            // row AND per frontier vertex
            ns += batches
                * cat
                    .cost
                    .allgather(cat.nranks, (lanes / batches / p * 8.0) as usize);
            ns += cur * fetch + cat.cost.cpu_op_ns * (lanes + cur * (deg * esel + words));
            rows *= (deg * esel / n).min(1.0);
        } else {
            // one row OR per edge, one routed row per distinct neighbour,
            // merged and filtered on its owner
            let reached = (rows * deg * esel).min(cap);
            let arrive = frontier_rows(reached) / p;
            let routed = (arrive * row_bytes / batches) as usize;
            ns += cur * (fetch + deg * esel * words * cat.cost.cpu_op_ns);
            ns += batches
                * cat
                    .cost
                    .alltoallv(cat.nranks.saturating_sub(1), routed, routed);
            ns += 2.0 * arrive * words * cat.cost.cpu_op_ns;
            if !e.target.is_trivial() {
                ns += arrive * cat.holder_read_ns();
            }
            rows = reached * tsel;
        }
        rows = rows.max(1e-3);
        total += ns;
        let dir = match e.orient {
            EdgeOrientation::Outgoing => "out",
            EdgeOrientation::Incoming => "in",
            _ => "any",
        };
        let what = if e.close_to_root {
            "close-cycle".to_string()
        } else {
            format!("to {}", pattern_desc(&e.target))
        };
        stages.push(StagePlan {
            desc: format!(
                "expand-{} {}{} {}",
                choice.expand,
                dir,
                if e.edge_label.is_some() {
                    "[lbl]"
                } else {
                    "[]"
                },
                what
            ),
            est_rows: rows,
            est_ns: ns,
        });
    }

    // ---- aggregate stage -------------------------------------------------
    // the distinct targets already sit on their owners; a root projection
    // first ORs the hit lanes across ranks
    let mut ns = 0.0;
    rows = match q.returns.target {
        AggTarget::Root => {
            if track_roots {
                ns += cat.cost.allgather(cat.nranks, (lanes / 8.0) as usize);
            }
            rows.min(roots)
        }
        AggTarget::Last => rows.min(n),
    };
    let tloc = rows / p;
    // the value comes with the read that tested the projected variable's
    // pattern; a variable without predicates is read here
    let target = q.target_pattern();
    let read = if target.tests_holder() || (std::ptr::eq(target, &q.root) && root_is_read) {
        0.0
    } else {
        tloc * cat.holder_read_ns()
    };
    ns += match &q.returns.agg {
        Aggregate::Count => cat.cost.reduce_like(cat.nranks, 8),
        Aggregate::Sum(_) => read + cat.cost.reduce_like(cat.nranks, 8),
        Aggregate::CollectIds => read + cat.cost.allgather(cat.nranks, (tloc * 8.0) as usize),
    };
    total += ns;
    let agg_desc = match &q.returns.agg {
        Aggregate::Count => format!("count(distinct {})", q.target_var()),
        Aggregate::Sum(_) => format!("sum({}.prop)", q.target_var()),
        Aggregate::CollectIds => format!("collect({})", q.target_var()),
    };
    stages.push(StagePlan {
        desc: agg_desc,
        est_rows: rows,
        est_ns: ns,
    });

    Some(Plan {
        choice,
        est_cost_ns: total,
        est_rows: rows,
        stages,
        alternatives: Vec::new(),
        uses_view,
        query: q.display(),
    })
}

/// Plan `q`: cost every viable choice and keep the cheapest (ties break
/// towards the earlier choice in [`viable_choices`] order, so planning
/// is deterministic). The losing costs are kept in
/// [`Plan::alternatives`] for explain output.
pub fn plan(cat: &Catalog, q: &Query) -> Plan {
    let mut best: Option<Plan> = None;
    let mut alts: Vec<(String, f64)> = Vec::new();
    for choice in viable_choices(cat, q) {
        if let Some(p) = plan_choice(cat, q, choice) {
            alts.push((choice.to_string(), p.est_cost_ns));
            let better = best
                .as_ref()
                .map(|b| p.est_cost_ns < b.est_cost_ns)
                .unwrap_or(true);
            if better {
                best = Some(p);
            }
        }
    }
    let mut plan = best.expect("sweep+tx is always viable");
    alts.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    plan.alternatives = alts;
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AggTarget;
    use crate::builder::QueryBuilder;
    use gda::IndexId;
    use gdi::{AppVertexId, LabelId, PTypeId};

    fn cat() -> Catalog {
        Catalog {
            nranks: 4,
            n_vertices: 4096,
            n_labels: 4,
            indexes: vec![
                IndexStat {
                    def: IndexDef {
                        id: IndexId(1),
                        name: "__all".to_string(),
                        labels: vec![],
                        ptypes: vec![],
                    },
                    entries: 4096,
                },
                IndexStat {
                    def: IndexDef {
                        id: IndexId(2),
                        name: "lab1".to_string(),
                        labels: vec![LabelId(1)],
                        ptypes: vec![],
                    },
                    entries: 2048,
                },
            ],
            deg_out: 8.0,
            deg_any: 16.0,
            view_cached: true,
            block_bytes: 512,
            cost: CostModel::default(),
            meta_epoch: 1,
        }
    }

    fn bi2ish() -> Query {
        QueryBuilder::node("p")
            .label(LabelId(1))
            .prop_gt(PTypeId(10), 100)
            .expand_out(Some(LabelId(2)))
            .to("c")
            .label(LabelId(3))
            .prop_gt(PTypeId(11), 200)
            .count(AggTarget::Root)
    }

    #[test]
    fn point_lookup_wins_with_app_id() {
        let q = QueryBuilder::node("p")
            .with_app_id(AppVertexId(7))
            .expand_any(None)
            .to("n")
            .count(AggTarget::Last);
        let pl = plan(&cat(), &q);
        assert_eq!(pl.choice.access, AccessPath::PointLookup);
        assert!(pl.alternatives.len() >= 4, "{:?}", pl.alternatives);
    }

    #[test]
    fn labeled_root_prefers_the_label_index() {
        let pl = plan(&cat(), &bi2ish());
        assert_eq!(pl.choice.access, AccessPath::IndexScan(IndexId(2)));
        // the covering index halves the holder evaluations vs a sweep
        let sweep = plan_choice(
            &cat(),
            &bi2ish(),
            PathChoice {
                access: AccessPath::Sweep,
                expand: pl.choice.expand,
            },
        )
        .unwrap();
        assert!(pl.est_cost_ns < sweep.est_cost_ns);
    }

    #[test]
    fn incoming_orientation_disables_csr() {
        let q = Query {
            root: NodePattern::any("a"),
            expands: vec![crate::ast::Expand {
                orient: EdgeOrientation::Incoming,
                edge_label: None,
                target: NodePattern::any("b"),
                close_to_root: false,
            }],
            returns: crate::ast::Projection {
                target: AggTarget::Last,
                agg: Aggregate::Count,
            },
        };
        for c in viable_choices(&cat(), &q) {
            assert_eq!(c.expand, ExpandPath::Tx);
        }
    }

    #[test]
    fn unindexed_catalog_has_no_index_choice() {
        let mut c = cat();
        c.indexes.clear();
        let choices = viable_choices(&c, &bi2ish());
        assert!(choices
            .iter()
            .all(|c| !matches!(c.access, AccessPath::IndexScan(_))));
        // and pattern selectivity falls back to priors without NaN
        assert!(c.pattern_sel(&bi2ish().root) > 0.0);
    }

    #[test]
    fn plans_are_deterministic() {
        let a = plan(&cat(), &bi2ish());
        let b = plan(&cat(), &bi2ish());
        assert_eq!(a, b);
        assert_eq!(a.explain(), b.explain());
    }
}
