//! Collective executor: run a [`Plan`] against a [`GdaRank`].
//!
//! Execution is **collective and symmetric**: every rank calls
//! [`execute`] with the *same* query and plan (plan with a
//! [`Catalog`](crate::planner::Catalog) from
//! [`Catalog::gather`](crate::planner::Catalog::gather) — it is
//! collective precisely so all ranks cost identically), and every
//! collective below fires in plan order on all ranks. Two ranks
//! disagreeing on a plan would deadlock the fabric.
//!
//! ## Bindings are a frontier of root-lane rows
//!
//! The supported projections need two things of a binding chain: its
//! first vertex (`root`) and its newest (`cur`). The executor never
//! materialises those pairs. It keeps one `Frontier` — the **distinct**
//! `cur` vertices, each on the rank that owns it, each carrying a row
//! of **root-lane bits**: lane *i* is set iff root *i* reaches this
//! vertex (the multi-source-BFS representation). Every stage works on
//! whole rows, so its cost follows the edges it touches times the row
//! width in words, not the number of `(root, cur)` pairs:
//!
//! - **driving stage**: point lookup (one DHT translation, owner rank
//!   keeps the root; a deleted id is an empty result, not an error),
//!   the root pattern evaluated over this rank's index postings
//!   ([`GdaRank::local_index_vertices`]) or over every row of the
//!   collective [`gda::CsrView`] (the full-partition sweep). All three
//!   leave every root on its owner, and roots are numbered machine-wide
//!   in rank order — that number is the root's lane;
//! - **expand stage**: each local row is ORed into the rows of `cur`'s
//!   label-matching neighbours (adjacency from one
//!   [`gda::Transaction::for_each_neighbor`] read per distinct `cur` on
//!   the Tx path, from the cached view row on the Csr path), the partial rows
//!   travel to the neighbours' owners in one `alltoallv`, duplicates are
//!   OR-merged on arrival, and the **owner** evaluates the target
//!   pattern once per distinct arriving vertex against its local
//!   holder — one read of the holder's bytes
//!   ([`gda::Transaction::with_entries`]; the collective read-only
//!   transaction keeps no decoded copy of a local vertex, see
//!   `gda::tx`), and that read answers for **every** pattern of the
//!   query, so a vertex that comes up again at another stage is not
//!   read again. Nobody scans a whole partition to pre-qualify targets and
//!   no id set is broadcast: the filter runs where the holder lives, on
//!   the vertices that were actually reached. On the Csr path a stage
//!   names vertices by their **halo id** in the view (`Names`): the
//!   frontier's vertex → row-slot table and the closing stage's root →
//!   lane table are flat arrays over the view's rows and ghosts, a view
//!   row's neighbours arrive already named, and only the wire carries
//!   internal ids. The Tx path names them by internal id, in hash maps;
//! - **close-cycle stage**: the batch's root ids are allgathered into a
//!   root→lane map, and a row keeps lane *i* only if an edge of `cur`
//!   leads to root *i* — a bit test per edge, no routing;
//! - **aggregate stage**: `…(Last)` is the set of vertices whose row is
//!   non-zero, `…(Root)` the OR of all rows (one `allgatherv` of the
//!   hit bits) read back against each rank's own roots. Either way the
//!   targets already sit on their owners, deduplicated, so values
//!   combine with one `allreduce`/`allgatherv` (sums are wrapping:
//!   generator properties span the full `u64` range). A summed property
//!   or collected id comes from the read that evaluated the projected
//!   variable's pattern; only a variable without predicates is read here.
//!
//! A vertex can vanish under a query's feet — a posting, DHT entry or
//! view row outlives the holder it names. Every predicate and aggregate
//! read treats `NotFound` as "matches nothing, contributes nothing";
//! any other error is a bug and panics.
//!
//! **Lane batches.** A row is at most [`LANE_BATCH`] lanes wide. When
//! the machine-wide root count exceeds that, the expand stages run once
//! per batch of consecutive roots (the batch count comes from one
//! allgather of the per-rank root counts, so all ranks agree), bounding
//! frontier memory by `local vertices × LANE_BATCH / 8` bytes. When root
//! identity is dead — no closing stage and the projection does not read
//! the root — all roots share lane 0 and the frontier is a plain vertex
//! set.

use std::cell::RefCell;

use rustc_hash::{FxHashMap, FxHashSet};

use gda::holder::EntryScan;
use gda::{CsrView, DPtr, GdaRank, Transaction};
use gdi::{AccessMode, EdgeOrientation, GdiError, GdiResult, PTypeId, PropertyValue};
use rma::Counter;

use crate::ast::{AggTarget, Aggregate, Expand, NodePattern, Query};
use crate::physical::{AccessPath, ExpandPath, QueryOutput, QueryValue, StageStats};
use crate::planner::Plan;

/// Widest frontier row, in root lanes (a multiple of 64). Queries with
/// more roots run their expand stages once per batch of this many.
pub const LANE_BATCH: usize = 4096;

/// Which of `patterns` does `v` satisfy, by label + property predicates
/// (app-id excluded — the driving stages handle it)? Bit *i* of the
/// answer is `patterns[i]`'s verdict. One read of `v` answers for all
/// of them; `on_match` sees the entries with every pattern that held,
/// from that same read.
fn node_matches(
    tx: &Transaction,
    v: DPtr,
    patterns: &[&NodePattern],
    mut on_match: impl FnMut(&EntryScan<'_>, &NodePattern),
) -> GdiResult<u64> {
    tx.with_entries(v, |e| {
        let mut verdicts = 0;
        for (i, p) in patterns.iter().enumerate() {
            if pattern_holds(e, p, |pt, raw| tx.decode_property(pt, raw)) {
                verdicts |= 1 << i;
                on_match(e, p);
            }
        }
        verdicts
    })
}

/// Do the entries at hand satisfy `p`, given the p-type → value
/// decoder? A property predicate compares the **first** entry of its
/// p-type, as [`Transaction::property`] reads it.
fn pattern_holds(
    e: &EntryScan<'_>,
    p: &NodePattern,
    decode: impl Fn(PTypeId, &[u8]) -> Option<PropertyValue>,
) -> bool {
    p.labels.iter().all(|l| e.has_label(*l))
        && p.props.iter().all(|f| {
            e.properties_raw(f.ptype)
                .next()
                .and_then(|raw| decode(f.ptype, raw))
                .is_some_and(|val| f.op.eval(val.cmp_total(&f.value)))
        })
}

/// The answer of a predicate or aggregate read, where a vertex that
/// vanished under the query — a posting or view row whose holder was
/// freed — is `None`: it matches nothing and contributes nothing
/// (concurrent deletes must not panic readers). Any other error is a
/// bug and surfaces.
fn found<T>(read: GdiResult<T>, what: &str) -> Option<T> {
    match read {
        Ok(v) => Some(v),
        Err(GdiError::NotFound(_)) => None,
        Err(e) => panic!("{what} failed: {e:?}"),
    }
}

/// Slot of a vertex that arrived but failed the stage's target pattern:
/// remembered so the pattern is evaluated once per distinct vertex.
const REJECTED: u32 = u32::MAX;
/// Slot of a vertex a dense table has not seen.
const VACANT: u32 = u32::MAX - 1;

/// What the expand stages call a vertex. On the Tx path that is its
/// internal id; when the plan expands over the scan view it is the
/// vertex's **halo id** in that view (a row or a ghost, see
/// `gda::scan`) — dense, so per-vertex state is a flat table instead of
/// a hash map, and a view row's neighbours arrive already named.
#[derive(Clone, Copy)]
struct Names<'v>(Option<&'v CsrView>);

impl Names<'_> {
    /// An empty per-vertex table over this name space.
    fn table(self) -> Slots {
        match self.0 {
            Some(view) => Slots::Dense(vec![VACANT; view.halo_len()]),
            None => Slots::Sparse(FxHashMap::default()),
        }
    }

    /// The name of internal id `id`; `None` when the view cannot see it
    /// from this rank (then no local edge leads to it either).
    #[inline]
    fn of(self, id: u64) -> Option<u64> {
        match self.0 {
            Some(view) => view.halo_of(DPtr::from_raw(id)).map(u64::from),
            None => Some(id),
        }
    }

    /// The internal id behind `name`.
    #[inline]
    fn id(self, name: u64) -> DPtr {
        match self.0 {
            Some(view) => view.target(name as u32),
            None => DPtr::from_raw(name),
        }
    }
}

/// A `name → u32` table: a hash map over internal ids, a flat array
/// over halo ids.
enum Slots {
    Sparse(FxHashMap<u64, u32>),
    Dense(Vec<u32>),
}

impl Slots {
    #[inline]
    fn get(&self, name: u64) -> Option<u32> {
        match self {
            Slots::Sparse(map) => map.get(&name).copied(),
            Slots::Dense(table) => Some(table[name as usize]).filter(|&at| at != VACANT),
        }
    }

    /// The value at `name`, set from `init` on first sight.
    #[inline]
    fn get_or_insert_with(&mut self, name: u64, init: impl FnOnce() -> u32) -> u32 {
        match self {
            Slots::Sparse(map) => *map.entry(name).or_insert_with(init),
            Slots::Dense(table) => {
                let at = &mut table[name as usize];
                if *at == VACANT {
                    *at = init();
                }
                *at
            }
        }
    }
}

/// The distinct `cur` vertices of the live bindings, each with a row of
/// `words` root-lane words (see the module docs).
struct Frontier {
    words: usize,
    slot: Slots,
    names: Vec<u64>,
    bits: Vec<u64>,
}

impl Frontier {
    fn new(words: usize, names: Names) -> Self {
        Self {
            words,
            slot: names.table(),
            names: Vec::new(),
            bits: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.names.len()
    }

    /// OR `row` into `name`'s row. A vertex seen for the first time is
    /// admitted only if `admit` says so; the verdict sticks.
    #[inline]
    fn or_row(&mut self, name: u64, row: &[u64], admit: impl FnOnce() -> bool) {
        let Self {
            words,
            slot,
            names,
            bits,
        } = self;
        let at = slot.get_or_insert_with(name, || {
            if !admit() {
                return REJECTED;
            }
            names.push(name);
            bits.resize(bits.len() + *words, 0);
            (names.len() - 1) as u32
        });
        if at != REJECTED {
            let at = at as usize * *words;
            for (d, s) in bits[at..at + *words].iter_mut().zip(row) {
                *d |= *s;
            }
        }
    }

    fn rows(&self) -> impl Iterator<Item = (u64, &[u64])> {
        self.names
            .iter()
            .copied()
            .zip(self.bits.chunks_exact(self.words))
    }
}

/// Call `f` with the name of every neighbour of the local vertex `cur`
/// along `e`'s orientation and edge label — read from the view row when
/// the plan expands over the view (`cur` is then a row, its neighbours
/// halo ids), from `cur`'s holder otherwise. Returns how many there were.
fn for_each_neighbor(
    tx: &Transaction,
    names: Names,
    cur: u64,
    e: &Expand,
    mut f: impl FnMut(u64),
) -> u64 {
    let Some(view) = names.0 else {
        let mut n = 0;
        let read = tx.for_each_neighbor(DPtr::from_raw(cur), e.orient, e.edge_label, |t| {
            n += 1;
            f(t.raw())
        });
        found(read, "expand neighbors");
        return n;
    };
    let row = cur as usize;
    let (tgts, lbls) = match e.orient {
        EdgeOrientation::Outgoing => (view.out(row), view.out_labels(row)),
        EdgeOrientation::Any => (view.any(row), view.any_labels(row)),
        EdgeOrientation::Incoming | EdgeOrientation::Undirected => {
            unreachable!("the planner never assigns csr to in/undirected expands")
        }
    };
    let mut n = 0;
    for (t, l) in tgts.iter().zip(lbls) {
        if e.edge_label.map(|el| *l == el.0).unwrap_or(true) {
            n += 1;
            f(*t as u64);
        }
    }
    n
}

/// Execute `plan` collectively. Every rank must call this with the same
/// `q`/`plan`; the returned [`QueryValue`] is identical on all ranks,
/// the per-stage counters are this rank's share.
pub fn execute(eng: &GdaRank, q: &Query, plan: &Plan) -> QueryOutput {
    let ctx = eng.ctx();
    ctx.count(Counter::QueryExecs, 1);
    let (rank, nranks) = (eng.rank(), eng.nranks());
    // the view rendezvous is collective: it must run before the read
    // transaction's own collectives, in plan order
    let view = plan.uses_view.then(|| eng.olap_view());
    let tx = eng.begin_collective(AccessMode::ReadOnly);
    let mut stages: Vec<StageStats> = (0..q.expands.len() + 2)
        .map(|si| StageStats {
            desc: plan
                .stages
                .get(si)
                .map(|s| s.desc.clone())
                .unwrap_or_default(),
            rows: 0,
            expanded: 0,
            comm_bytes: 0,
        })
        .collect();

    // What the aggregate reads of a vertex. A vertex that passes the
    // projected variable's pattern leaves its value here, from the read
    // that admitted it — the aggregate stage reads only what no
    // predicate read before it.
    let agg_value = |e: &EntryScan<'_>| match &q.returns.agg {
        Aggregate::Count => None,
        Aggregate::Sum(pt) => {
            let first = e.properties_raw(*pt).next();
            match first.and_then(|raw| tx.decode_property(*pt, raw)) {
                Some(PropertyValue::U64(x)) => Some(x),
                _ => Some(0),
            }
        }
        Aggregate::CollectIds => Some(e.app_id),
    };
    let agg_values: RefCell<FxHashMap<u64, u64>> = RefCell::default();
    let target = q.target_pattern();
    // A vertex can come up at more than one stage (a root candidate that
    // is also a hop's target), so when several patterns of the query
    // test holders, the one read of a vertex evaluates them all and
    // leaves a verdict bit for each; the stages ask the bits.
    let tested: Vec<&NodePattern> = std::iter::once(&q.root)
        .chain(
            q.expands
                .iter()
                .filter(|e| !e.close_to_root)
                .map(|e| &e.target),
        )
        .filter(|p| p.tests_holder())
        .collect();
    let shared = (2..=64).contains(&tested.len());
    let verdicts: RefCell<FxHashMap<u64, u64>> = RefCell::default();
    let read = |v: DPtr, patterns: &[&NodePattern]| {
        let keep = |e: &EntryScan<'_>, p: &NodePattern| {
            let projected = std::ptr::eq(p, target).then(|| agg_value(e)).flatten();
            if let Some(x) = projected {
                agg_values.borrow_mut().insert(v.raw(), x);
            }
        };
        found(node_matches(&tx, v, patterns, keep), "filter").unwrap_or(0)
    };
    let matches = |v: DPtr, p: &NodePattern| {
        let bit = tested.iter().position(|t| std::ptr::eq(*t, p));
        match bit.filter(|_| shared) {
            Some(bit) => {
                let mut verdicts = verdicts.borrow_mut();
                *verdicts.entry(v.raw()).or_insert_with(|| read(v, &tested)) >> bit & 1 == 1
            }
            None => read(v, &[p]) == 1,
        }
    };
    // a DHT entry, a view row or an arriving neighbour is taken at its
    // word when the pattern has nothing to test (a posting is not: index
    // maintenance is lazy, so the index scan reads what it lists)
    let admits = |v: DPtr, p: &NodePattern| !p.tests_holder() || matches(v, p);

    // ---- driving stage ---------------------------------------------------
    // every path leaves a root on the rank that owns it
    let mut roots: Vec<u64> = match plan.choice.access {
        AccessPath::PointLookup => {
            let app = q.root.app_id.expect("point lookup requires an app-id");
            // deleted or never-created id: an empty result
            match found(tx.translate_vertex_id(app), "point lookup") {
                Some(v) if v.rank() == rank && admits(v, &q.root) => vec![v.raw()],
                _ => Vec::new(),
            }
        }
        AccessPath::IndexScan(ix) => eng
            .local_index_vertices(ix)
            .into_iter()
            .filter(|p| q.root.app_id.map(|a| a == p.app_id).unwrap_or(true))
            .map(|p| p.vertex)
            .filter(|&v| matches(v, &q.root))
            .map(DPtr::raw)
            .collect(),
        AccessPath::Sweep => {
            let view = view.as_ref().expect("sweep plans carry a view");
            (0..view.len())
                .filter(|&i| q.root.app_id.map(|a| a.0 == view.apps[i]).unwrap_or(true))
                .map(|i| view.vids[i])
                .filter(|&v| admits(v, &q.root))
                .map(DPtr::raw)
                .collect()
        }
    };
    roots.sort_unstable();
    roots.dedup();
    stages[0].rows = roots.len() as u64;

    // ---- lanes -----------------------------------------------------------
    // root identity matters only to a closing stage or a root projection
    // over expands; otherwise one shared lane carries every root
    let track_roots = q.tracks_roots();
    let (first_lane, lanes) = if track_roots {
        let counts = ctx.allgatherv(vec![roots.len()]);
        let count = |c: &[Vec<usize>]| c.iter().map(|c| c[0]).sum::<usize>();
        (count(&counts[..rank]), count(&counts))
    } else {
        (0, 1)
    };

    // ---- expand stages, once per lane batch --------------------------------
    let names = Names(match plan.choice.expand {
        ExpandPath::Csr => view.as_deref(),
        ExpandPath::Tx => None,
    });
    // `Root` projection: the OR of all rows, one bit per machine-wide lane
    let project_roots = track_roots && q.returns.target == AggTarget::Root;
    let mut root_hits = vec![0u64; lanes.div_ceil(64)];
    // `Last` projection: the vertices whose row is non-zero
    let mut last_hits: FxHashSet<u64> = FxHashSet::default();
    for batch in 0..lanes.div_ceil(LANE_BATCH) {
        let lane0 = batch * LANE_BATCH;
        let words = (lanes - lane0).min(LANE_BATCH).div_ceil(64);
        // this rank's roots of the batch, as a range of `roots`
        let own = if track_roots {
            let clamp = |lane: usize| lane.saturating_sub(first_lane).min(roots.len());
            clamp(lane0)..clamp(lane0 + LANE_BATCH)
        } else {
            0..roots.len()
        };
        let mut frontier = Frontier::new(words, names);
        let mut lane_row = vec![0u64; words];
        for i in own.clone() {
            let lane = if track_roots {
                first_lane + i - lane0
            } else {
                0
            };
            // a root the view has no row for has no edges to follow
            let Some(name) = names.of(roots[i]) else {
                continue;
            };
            lane_row[lane / 64] = 1 << (lane % 64);
            frontier.or_row(name, &lane_row, || true);
            lane_row[lane / 64] = 0;
        }

        for (e, st) in q.expands.iter().zip(&mut stages[1..]) {
            let mut next = Frontier::new(words, names);
            if e.close_to_root {
                // lanes are numbered in rank order, so concatenating the
                // ranks' batch roots lists them by lane
                let all_roots = ctx.allgatherv(roots[own.clone()].to_vec());
                st.comm_bytes += own.len() as u64 * 8;
                let mut lane_of = names.table();
                let mut n_roots = 0;
                for (root, lane) in all_roots.into_iter().flatten().zip(0u32..) {
                    n_roots += 1;
                    if let Some(name) = names.of(root) {
                        lane_of.get_or_insert_with(name, || lane);
                    }
                }
                let mut expanded = 0;
                for (cur, row) in frontier.rows() {
                    lane_row.fill(0);
                    expanded += for_each_neighbor(&tx, names, cur, e, |t| {
                        if let Some(lane) = lane_of.get(t) {
                            lane_row[lane as usize / 64] |= 1 << (lane % 64);
                        }
                    });
                    // the closing step filters lanes; `cur` stays the
                    // last non-closing variable
                    let mut any = 0;
                    for (m, r) in lane_row.iter_mut().zip(row) {
                        *m &= *r;
                        any |= *m;
                    }
                    if any != 0 {
                        next.or_row(cur, &lane_row, || true);
                    }
                }
                st.expanded += expanded;
                ctx.charge_cpu(expanded + (n_roots + frontier.len() * words) as u64);
            } else {
                // partial rows, keyed by neighbour, merged before they
                // travel
                let mut partial = Frontier::new(words, names);
                let mut expanded = 0;
                for (cur, row) in frontier.rows() {
                    expanded +=
                        for_each_neighbor(&tx, names, cur, e, |t| partial.or_row(t, row, || true));
                }
                st.expanded += expanded;
                let mut outbox: Vec<Vec<u64>> = vec![Vec::new(); nranks];
                for (name, row) in partial.rows() {
                    let id = names.id(name);
                    let to = &mut outbox[id.rank()];
                    to.push(id.raw());
                    to.extend_from_slice(row);
                }
                st.comm_bytes += (partial.len() * (1 + words) * 8) as u64;
                // the owner filters: one pattern evaluation per distinct
                // arriving vertex, against its local holder
                for inbox in ctx.alltoallv(outbox) {
                    for arrived in inbox.chunks_exact(1 + words) {
                        let id = arrived[0];
                        // what arrives is local; without a row it is not
                        // live, and nothing matches it
                        let Some(name) = names.of(id) else {
                            continue;
                        };
                        next.or_row(name, &arrived[1..], || {
                            admits(DPtr::from_raw(id), &e.target)
                        });
                    }
                }
                ctx.charge_cpu((expanded + (partial.len() + next.len()) as u64) * words as u64);
            }
            st.rows += next.len() as u64;
            frontier = next;
        }

        if project_roots {
            let hits = &mut root_hits[lane0 / 64..][..words];
            for (_, row) in frontier.rows() {
                for (h, r) in hits.iter_mut().zip(row) {
                    *h |= *r;
                }
            }
        } else {
            last_hits.extend(frontier.names.iter().map(|&name| names.id(name).raw()));
        }
    }

    // ---- aggregate stage -------------------------------------------------
    // the distinct targets, each on the rank that owns it
    let agg = stages.last_mut().expect("aggregate stage");
    let mine: Vec<u64> = if project_roots {
        agg.comm_bytes = root_hits.len() as u64 * 8;
        let mut hits = vec![0u64; root_hits.len()];
        for theirs in ctx.allgatherv(root_hits) {
            for (h, t) in hits.iter_mut().zip(theirs) {
                *h |= t;
            }
        }
        roots
            .iter()
            .zip(first_lane..)
            .filter(|(_, lane)| hits[lane / 64] >> (lane % 64) & 1 == 1)
            .map(|(r, _)| *r)
            .collect()
    } else {
        last_hits.into_iter().collect()
    };
    agg.rows = mine.len() as u64;
    let agg_values = agg_values.into_inner();
    let values = mine.iter().filter_map(|raw| {
        agg_values.get(raw).copied().or_else(|| {
            let read = tx.with_entries(DPtr::from_raw(*raw), agg_value);
            found(read, "aggregate read").flatten()
        })
    });
    let value = match &q.returns.agg {
        Aggregate::Count => QueryValue::Count(ctx.allreduce_sum_u64(mine.len() as u64)),
        Aggregate::Sum(_) => {
            let s = values.fold(0u64, u64::wrapping_add);
            QueryValue::Sum(ctx.allreduce_wrapping_sum_u64(s))
        }
        Aggregate::CollectIds => {
            let ids: Vec<u64> = values.collect();
            let mut all: Vec<u64> = ctx.allgatherv(ids).into_iter().flatten().collect();
            all.sort_unstable();
            QueryValue::Ids(all)
        }
    };
    for st in &stages {
        ctx.count(Counter::QueryRows, st.rows);
        ctx.count(Counter::QueryExpands, st.expanded);
        ctx.count(Counter::QueryBytes, st.comm_bytes);
    }
    tx.commit().expect("collective read-only commit");
    QueryOutput { value, stages }
}

/// Convenience: collectively gather a catalog, plan and execute in one
/// call, returning the plan alongside the output.
pub fn run(eng: &GdaRank, q: &Query) -> (Plan, QueryOutput) {
    let cat = crate::planner::Catalog::gather(eng);
    let plan = crate::planner::plan(&cat, q);
    let out = execute(eng, q, &plan);
    (plan, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::PropFilter;
    use gda::holder::Holder;
    use gdi::{CmpOp, Datatype, LabelId};

    /// Every p-type is declared `Uint64`: 8 bytes decode to a number,
    /// a width that is no multiple of 8 not at all.
    fn decode_u64(_pt: PTypeId, raw: &[u8]) -> Option<PropertyValue> {
        PropertyValue::decode(Datatype::Uint64, raw).ok()
    }

    fn pattern(labels: &[u32], props: &[(u32, CmpOp, u64)]) -> NodePattern {
        NodePattern {
            labels: labels.iter().map(|l| LabelId(*l)).collect(),
            props: props
                .iter()
                .map(|&(pt, op, v)| PropFilter {
                    ptype: PTypeId(pt),
                    op,
                    value: PropertyValue::U64(v),
                })
                .collect(),
            ..NodePattern::any("v")
        }
    }

    /// Labels 10 and 11; p-type 3 = 5 then 50 (multi-valued), p-type 4 of
    /// an undecodable width, p-type 5 absent — read from the serialized
    /// bytes (that they and the decoded holder give the same entries is
    /// `gda::holder`'s differential test).
    fn holds(p: &NodePattern) -> bool {
        let mut h = Holder::new_vertex(1);
        h.add_label(LabelId(10));
        h.add_label(LabelId(11));
        h.add_property(PTypeId(3), 5u64.to_le_bytes().to_vec());
        h.add_property(PTypeId(3), 50u64.to_le_bytes().to_vec());
        h.add_property(PTypeId(4), vec![7; 5]);
        let bytes = h.encode();
        pattern_holds(&Holder::scan_entries(&bytes).unwrap(), p, decode_u64)
    }

    #[test]
    fn a_pattern_is_a_conjunction_over_labels_and_first_entries() {
        assert!(holds(&pattern(&[], &[])));
        assert!(holds(&pattern(&[10, 11], &[])));
        assert!(!holds(&pattern(&[10, 12], &[])));
        use CmpOp::*;
        for (op, below, at, above) in [
            (Eq, false, true, false),
            (Ne, true, false, true),
            (Lt, false, false, true),
            (Le, false, true, true),
            (Gt, true, false, false),
            (Ge, true, true, false),
        ] {
            for (rhs, want) in [(4, below), (5, at), (6, above)] {
                assert_eq!(
                    holds(&pattern(&[], &[(3, op, rhs)])),
                    want,
                    "5 {op:?} {rhs}"
                );
            }
            // no first entry to compare, or none that decodes: no match,
            // whatever the operator
            assert!(!holds(&pattern(&[], &[(5, op, 0)])));
            assert!(!holds(&pattern(&[], &[(4, op, 0)])));
        }
        assert!(holds(&pattern(&[10], &[(3, Gt, 4), (3, Lt, 6)])));
        assert!(!holds(&pattern(&[10], &[(3, Gt, 4), (3, Lt, 5)])));
        assert!(!holds(&pattern(&[12], &[(3, Gt, 4)])));
    }

    /// Of a multi-valued property a predicate sees the first entry —
    /// not the last, not any.
    #[test]
    fn a_predicate_compares_the_first_entry_of_its_ptype() {
        assert!(holds(&pattern(&[], &[(3, CmpOp::Gt, 4)])));
        assert!(
            !holds(&pattern(&[], &[(3, CmpOp::Gt, 10)])),
            "50 is not first"
        );
        assert!(!holds(&pattern(&[], &[(3, CmpOp::Eq, 50)])));
    }
}
