//! Differential tests for the declarative query layer (`crates/query`).
//!
//! * a property-based sweep: for randomized graphs and randomized query
//!   shapes, the planner-picked plan AND every viable forced path must
//!   return exactly the sequential generator-space oracle
//!   (`workloads::queries::reference_eval`), on 1-, 2- and 4-rank
//!   fabrics;
//! * the durable axis: the same differential contract holds against a
//!   database that was checkpointed, killed and recovered from its
//!   snapshot (index postings included);
//! * a golden test pinning the stable [`query::Plan::explain`] format.

use proptest::prelude::*;

use gda::persist::{recover, PersistOptions};
use gda::{GdaDb, IndexDef, IndexId};
use gdi::{AppVertexId, CmpOp, EdgeOrientation, LabelId, PTypeId};
use graphgen::{sized_config, GraphSpec, LpgMeta};
use query::{executor, planner, AggTarget, Query, QueryBuilder, QueryValue};
use rma::CostModel;
use workloads::queries::{load_with_label_indexes, reference_eval, suite, SuiteParams};
use workloads::scratch::ScratchDir;

fn rich_spec(scale: u32, edge_factor: u32, seed: u64) -> GraphSpec {
    GraphSpec {
        scale,
        edge_factor,
        seed,
        lpg: graphgen::LpgConfig {
            num_labels: 4,
            num_ptypes: 4,
            labels_per_vertex: 2,
            props_per_vertex: 3,
            edge_label_fraction: 1.0,
            ..Default::default()
        },
    }
}

// ---------------------------------------------------------------------
// Randomized query shapes (generator index space; resolved to ids once
// the metadata is installed)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ExpandSketch {
    orient: EdgeOrientation,
    edge_label: Option<usize>,
    target_label: Option<usize>,
    target_prop: Option<(usize, u64)>,
}

#[derive(Debug, Clone)]
struct QuerySketch {
    root_label: Option<usize>,
    root_prop: Option<(usize, CmpOp, u64)>,
    app_id: Option<u64>,
    expands: Vec<ExpandSketch>,
    close: bool,
    agg: u8, // 0 count, 1 sum, 2 collect
    sum_prop: usize,
    target_last: bool,
}

fn arb_orient() -> impl Strategy<Value = EdgeOrientation> {
    prop_oneof![
        Just(EdgeOrientation::Outgoing),
        Just(EdgeOrientation::Outgoing),
        Just(EdgeOrientation::Any),
        Just(EdgeOrientation::Incoming),
    ]
}

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Gt),
        Just(CmpOp::Le),
        Just(CmpOp::Ne),
        Just(CmpOp::Ge),
    ]
}

fn arb_expand() -> impl Strategy<Value = ExpandSketch> {
    (
        arb_orient(),
        prop::option::of(0usize..4),
        prop::option::of(0usize..4),
        prop::option::of((0usize..4, any::<u64>())),
    )
        .prop_map(
            |(orient, edge_label, target_label, target_prop)| ExpandSketch {
                orient,
                edge_label,
                target_label,
                target_prop,
            },
        )
}

fn arb_query() -> impl Strategy<Value = QuerySketch> {
    (
        prop::option::of(0usize..4),
        prop::option::of((0usize..4, arb_op(), any::<u64>())),
        prop::option::of(0u64..96),
        prop::collection::vec(arb_expand(), 0..3),
        any::<bool>(),
        0u8..3,
        0usize..4,
        any::<bool>(),
    )
        .prop_map(
            |(root_label, root_prop, app_id, expands, close, agg, sum_prop, target_last)| {
                QuerySketch {
                    root_label,
                    root_prop,
                    app_id,
                    expands,
                    close,
                    agg,
                    sum_prop,
                    target_last,
                }
            },
        )
}

fn build_query(meta: &LpgMeta, s: &QuerySketch) -> Query {
    let mut b = QueryBuilder::node("a");
    if let Some(l) = s.root_label {
        b = b.label(meta.label(l));
    }
    if let Some((p, op, v)) = s.root_prop {
        b = b.prop(meta.ptype(p), op, gdi::PropertyValue::U64(v));
    }
    if let Some(a) = s.app_id {
        b = b.with_app_id(AppVertexId(a));
    }
    let n = s.expands.len();
    for (i, e) in s.expands.iter().enumerate() {
        b = b.expand(e.orient, e.edge_label.map(|l| meta.label(l)));
        if s.close && i == n - 1 {
            b = b.close_cycle();
            continue;
        }
        b = b.to(&format!("v{}", i + 1));
        if let Some(l) = e.target_label {
            b = b.label(meta.label(l));
        }
        if let Some((p, v)) = e.target_prop {
            b = b.prop_gt(meta.ptype(p), v);
        }
    }
    let target = if s.target_last {
        AggTarget::Last
    } else {
        AggTarget::Root
    };
    match s.agg {
        0 => b.count(target),
        1 => b.sum(target, meta.ptype(s.sum_prop)),
        _ => b.collect_ids(target),
    }
}

/// Run every query `build` makes through the planner-picked plan and
/// every viable forced choice on a fresh `nranks`-rank database; every
/// result must equal the sequential oracle. Returns the oracle's values.
fn assert_all_paths_match(
    nranks: usize,
    spec: &GraphSpec,
    build: impl Fn(&LpgMeta) -> Vec<Query> + Sync,
) -> Vec<QueryValue> {
    let cfg = sized_config(spec, nranks);
    let (db, fabric) = GdaDb::with_fabric("qdiff", cfg, nranks, CostModel::zero());
    let outcomes = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_with_label_indexes(&eng, spec);
        let _ = eng.olap_view();
        let cat = planner::Catalog::gather(&eng);
        let mut failures: Vec<String> = Vec::new();
        let mut wants = Vec::new();
        for (qi, q) in build(&meta).iter().enumerate() {
            let want = reference_eval(spec, &meta, q);
            wants.push(want.clone());
            let picked = planner::plan(&cat, q);
            let got = executor::execute(&eng, q, &picked);
            if got.value != want {
                failures.push(format!(
                    "query {qi} [{}] planner pick {}: got {:?}, oracle {:?}",
                    q.display(),
                    picked.choice,
                    got.value,
                    want
                ));
            }
            for choice in planner::viable_choices(&cat, q) {
                let Some(plan) = planner::plan_choice(&cat, q, choice) else {
                    continue;
                };
                let got = executor::execute(&eng, q, &plan);
                if got.value != want {
                    failures.push(format!(
                        "query {qi} [{}] forced {}: got {:?}, oracle {:?}",
                        q.display(),
                        choice,
                        got.value,
                        want
                    ));
                }
            }
        }
        (failures, wants)
    });
    if let Some(f) = outcomes.iter().flat_map(|(f, _)| f).next() {
        panic!("{f}");
    }
    outcomes.into_iter().next().expect("rank 0").1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// planner pick ≡ every forced path ≡ sequential oracle, for
    /// arbitrary query shapes on arbitrary small graphs, P ∈ {1, 2, 4}.
    #[test]
    fn randomized_queries_match_oracle_on_all_paths(
        scale in 5u32..=6,
        edge_factor in 2u32..=6,
        seed in 0u64..1000,
        pidx in 0usize..3,
        sketches in prop::collection::vec(arb_query(), 3..4),
    ) {
        let nranks = [1usize, 2, 4][pidx];
        let spec = rich_spec(scale, edge_factor, seed);
        assert_all_paths_match(nranks, &spec, |meta| {
            sketches.iter().map(|s| build_query(meta, s)).collect()
        });
    }
}

// ---------------------------------------------------------------------
// Deterministic frontier cases: lane batches, mid-size suite, counters
// ---------------------------------------------------------------------

/// The threshold `t` for which exactly `k` vertices satisfy `P0 > t`.
fn p0_threshold_for(spec: &GraphSpec, k: usize) -> u64 {
    let mut vals: Vec<u64> = (0..spec.n_vertices())
        .filter_map(|v| {
            spec.lpg
                .vertex_props(spec.seed, v)
                .into_iter()
                .find(|(p, _)| *p == 0)
                .map(|(_, x)| x)
        })
        .collect();
    vals.sort_unstable_by(|a, b| b.cmp(a));
    assert!(vals[k - 1] > vals[k], "property values collide at rank {k}");
    vals[k]
}

/// Root counts one below, at and one above the executor's lane batch:
/// the expand stages run once, once, and twice (the second batch a
/// single lane wide). Root projection, cycle close and a sum over the
/// last variable all have to survive the split, on ranks whose share of
/// a batch is uneven (P = 3).
#[test]
fn root_counts_around_the_lane_batch_match_oracle() {
    let spec = rich_spec(13, 3, 29);
    let batch = executor::LANE_BATCH;
    for k in [batch - 1, batch, batch + 1] {
        let t = p0_threshold_for(&spec, k);
        assert_all_paths_match(3, &spec, |meta| {
            let roots = || QueryBuilder::node("a").prop_gt(meta.ptype(0), t);
            vec![
                roots()
                    .expand_out(None)
                    .to("b")
                    .label(meta.label(1))
                    .count(AggTarget::Root),
                roots()
                    .expand_any(None)
                    .to("b")
                    .expand_any(None)
                    .close_cycle()
                    .sum(AggTarget::Last, meta.ptype(1)),
                roots()
                    .expand_out(Some(meta.label(0)))
                    .to("b")
                    .expand_out(None)
                    .to("c")
                    .expand_out(None)
                    .close_cycle()
                    .collect_ids(AggTarget::Root),
            ]
        });
    }
}

/// The five suite queries on mid-size graphs, every forced path, on
/// 1-, 2- and 4-rank fabrics.
#[test]
fn suite_matches_oracle_on_every_path_at_mid_size() {
    let params = SuiteParams::default();
    for (nranks, scale) in [(1, 9), (2, 10), (4, 10)] {
        let spec = rich_spec(scale, 8, 41);
        assert_all_paths_match(nranks, &spec, |meta| {
            suite(meta, &params).into_iter().map(|(_, q)| q).collect()
        });
    }
}

/// A closing expand over an edge label no edge carries, and a root
/// projection over a frontier the target filter emptied: both are the
/// oracle's empty value, not a panic or a stale row.
#[test]
fn empty_frontiers_return_the_empty_value() {
    let mut spec = rich_spec(7, 6, 5);
    spec.lpg.edge_label_fraction = 0.0; // no edge carries any label
    let empty = assert_all_paths_match(2, &spec, |meta| {
        let never = gdi::PropertyValue::U64(u64::MAX);
        vec![
            QueryBuilder::node("a")
                .expand_out(None)
                .to("b")
                .expand_out(Some(meta.label(0)))
                .close_cycle()
                .count(AggTarget::Root),
            QueryBuilder::node("a")
                .expand_out(None)
                .to("b")
                .expand_out(Some(meta.label(0)))
                .close_cycle()
                .collect_ids(AggTarget::Last),
            QueryBuilder::node("a")
                .label(meta.label(0))
                .expand_any(None)
                .to("b")
                .prop(meta.ptype(0), CmpOp::Gt, never.clone())
                .sum(AggTarget::Root, meta.ptype(1)),
            QueryBuilder::node("a")
                .label(meta.label(0))
                .expand_any(None)
                .to("b")
                .prop(meta.ptype(0), CmpOp::Gt, never)
                .collect_ids(AggTarget::Root),
        ]
    });
    assert_eq!(
        empty,
        vec![
            QueryValue::Count(0),
            QueryValue::Ids(Vec::new()),
            QueryValue::Sum(0),
            QueryValue::Ids(Vec::new()),
        ]
    );
}

/// A posting, a DHT entry and a view row can outlive their vertex (index
/// maintenance is eventually consistent; a view is a snapshot). Every
/// read that meets such a vertex — a predicate's, an aggregate's — takes
/// it as matching nothing and contributing nothing, on every access
/// path; it never panics a reader. Phase 1 blanks the
/// holder of an *isolated* vertex that the indexed aggregate counts and
/// runs the suite plus root-only shapes; phase 2 blanks a *sink* (edges
/// in, none out) that an unfiltered expand admits unread, so the
/// aggregate stage's own reads meet it.
#[test]
fn a_vanished_vertex_matches_nothing_on_any_path() {
    let nranks = 2;
    let spec = rich_spec(8, 6, 23);
    let cfg = sized_config(&spec, nranks);
    let n = spec.n_vertices() as usize;
    let (mut outd, mut ind) = (vec![0u32; n], vec![0u32; n]);
    for (u, v) in spec.edges_for_rank(0, 1) {
        outd[u as usize] += 1;
        ind[v as usize] += 1;
    }
    let p2_of = |v: u64| {
        let props = spec.lpg.vertex_props(spec.seed, v);
        props.iter().find(|(i, _)| *i == 2).map_or(0, |(_, x)| *x)
    };
    let (db, fabric) = GdaDb::with_fabric("vanish", cfg, nranks, CostModel::zero());
    let failures = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_with_label_indexes(&eng, &spec);
        let _ = eng.olap_view();
        let cat = planner::Catalog::gather(&eng);
        let mut failures: Vec<String> = Vec::new();
        // planner pick and every viable forced choice must return `want`
        let mut check = |q: &Query, want: QueryValue| {
            let picked = planner::plan(&cat, q);
            let forced = planner::viable_choices(&cat, q)
                .into_iter()
                .filter_map(|c| planner::plan_choice(&cat, q, c));
            for plan in std::iter::once(picked).chain(forced) {
                let got = executor::execute(&eng, q, &plan).value;
                if got != want {
                    failures.push(format!(
                        "[{}] via {}: got {got:?}, want {want:?}",
                        q.display(),
                        plan.choice
                    ));
                }
            }
        };
        // blank `app`'s primary block on its owner: what a freed, zeroed
        // block reads as (`NotFound`), with every pointer to it intact
        let vanish = |app: u64| {
            let v = eng.peek_translate(AppVertexId(app)).expect("loaded");
            if v.rank() == eng.rank() {
                let zeros = vec![0u8; cfg.block_size];
                ctx.put_bytes(gda::config::WIN_DATA, v.rank(), v.offset() as usize, &zeros);
            }
            ctx.barrier();
        };
        let ids_of = |v: QueryValue| match v {
            QueryValue::Ids(ids) => ids,
            other => panic!("expected ids, got {other:?}"),
        };

        // ---- phase 1: an isolated vertex the indexed aggregate counts ----
        let (l1, p1) = (meta.label(1), meta.ptype(1));
        let t1 = SuiteParams::default().t1;
        let summed = QueryBuilder::node("v")
            .label(l1)
            .prop_gt(p1, t1)
            .collect_ids(AggTarget::Root);
        let summed_ids = ids_of(reference_eval(&spec, &meta, &summed));
        let lone = *summed_ids
            .iter()
            .find(|&&v| outd[v as usize] == 0 && ind[v as usize] == 0)
            .expect("an isolated vertex among the indexed aggregate's roots");
        vanish(lone);
        let params = SuiteParams {
            point_id: lone,
            ..SuiteParams::default()
        };
        for (name, q) in suite(&meta, &params) {
            let want = match (name, reference_eval(&spec, &meta, &q)) {
                ("indexed-sum", QueryValue::Sum(s)) => QueryValue::Sum(s.wrapping_sub(p2_of(lone))),
                // no edges: the oracle's answer is empty already
                ("point-neighborhood", v) => {
                    assert_eq!(v, QueryValue::Ids(Vec::new()));
                    v
                }
                (_, v) => v,
            };
            check(&q, want);
        }
        let without = |ids: &[u64], gone: u64| -> Vec<u64> {
            ids.iter().copied().filter(|&v| v != gone).collect()
        };
        check(&summed, QueryValue::Ids(without(&summed_ids, lone)));
        // the DHT still names it: without a predicate nothing reads it
        // before the aggregate does
        check(
            &QueryBuilder::node("v")
                .with_app_id(AppVertexId(lone))
                .collect_ids(AggTarget::Root),
            QueryValue::Ids(Vec::new()),
        );
        check(
            &QueryBuilder::node("v")
                .with_app_id(AppVertexId(lone))
                .label(l1)
                .collect_ids(AggTarget::Root),
            QueryValue::Ids(Vec::new()),
        );

        // ---- phase 2: a sink the expand admits without reading it --------
        let reached = QueryBuilder::node("a")
            .expand_out(None)
            .to("b")
            .collect_ids(AggTarget::Last);
        let reached_ids = ids_of(reference_eval(&spec, &meta, &reached));
        let sink = (0..n as u64)
            .find(|&v| outd[v as usize] == 0 && ind[v as usize] > 0 && p2_of(v) != 0)
            .expect("a vertex with in-edges only");
        assert!(reached_ids.contains(&sink));
        vanish(sink);
        check(&reached, QueryValue::Ids(without(&reached_ids, sink)));
        let reached_sum = QueryBuilder::node("a")
            .expand_out(None)
            .to("b")
            .sum(AggTarget::Last, meta.ptype(2));
        let QueryValue::Sum(s) = reference_eval(&spec, &meta, &reached_sum) else {
            panic!("a sum");
        };
        check(&reached_sum, QueryValue::Sum(s.wrapping_sub(p2_of(sink))));
        // behind a target filter it is read, and matches nothing
        let carried = spec.lpg.vertex_label_indices(spec.seed, sink)[0];
        let labelled = QueryBuilder::node("a")
            .expand_out(None)
            .to("b")
            .label(meta.label(carried))
            .collect_ids(AggTarget::Last);
        let labelled_ids = ids_of(reference_eval(&spec, &meta, &labelled));
        assert!(labelled_ids.contains(&sink));
        check(&labelled, QueryValue::Ids(without(&labelled_ids, sink)));
        failures
    });
    if let Some(f) = failures.iter().flatten().next() {
        panic!("{f}");
    }
}

/// Of a multi-valued property a pattern compares the first entry, as
/// `Transaction::property` reads it — on every driving path alike: an
/// index scan and a sweep that disagreed (any entry vs the first) would
/// make the answer depend on the plan.
#[test]
fn every_root_path_compares_the_first_entry_of_a_multi_valued_property() {
    use gdi::{AccessMode, Datatype, EntityType, Multiplicity, PropertyValue, SizeType};
    let cfg = gda::GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("multi", cfg, 2, CostModel::zero());
    let answers = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let ids = (ctx.rank() == 0).then(|| {
            let l = eng.create_label("L").unwrap();
            let (dt, multi) = (Datatype::Uint64, Multiplicity::Multi);
            let p = eng
                .create_ptype("p", dt, EntityType::Vertex, multi, SizeType::Fixed, 1)
                .unwrap();
            eng.create_index("by_l", vec![l], vec![]).unwrap();
            let tx = eng.begin(AccessMode::ReadWrite);
            for (app, entries) in [(1, [5, 50]), (2, [50, 5]), (3, [50, 50]), (4, [5, 5])] {
                let v = tx.create_vertex(AppVertexId(app)).unwrap();
                tx.add_label(v, l).unwrap();
                for x in entries {
                    tx.add_property(v, p, &PropertyValue::U64(x)).unwrap();
                }
            }
            tx.commit().unwrap();
            (l.0, p.0)
        });
        let (l, p) = ctx.bcast(0, ids);
        eng.refresh_meta();
        let _ = eng.olap_view();
        let cat = planner::Catalog::gather(&eng);
        let q = QueryBuilder::node("v")
            .label(LabelId(l))
            .prop_gt(PTypeId(p), 10)
            .collect_ids(AggTarget::Root);
        let choices = planner::viable_choices(&cat, &q);
        assert!(choices.len() >= 2, "an index scan and a sweep: {choices:?}");
        choices
            .into_iter()
            .filter_map(|c| planner::plan_choice(&cat, &q, c))
            .map(|plan| {
                (
                    plan.choice.to_string(),
                    executor::execute(&eng, &q, &plan).value,
                )
            })
            .collect::<Vec<_>>()
    });
    for (choice, got) in answers.into_iter().flatten() {
        assert_eq!(got, QueryValue::Ids(vec![2, 3]), "via {choice}");
    }
}

/// Counter pin: the suite's two-hop never enumerates `(root, cur)`
/// pairs. Summed over ranks, each expand stage inspects at most every
/// edge once and keeps at most every vertex once — on both expand
/// paths, with the exact values pinned (they are deterministic), so a
/// regression to per-pair work fails here and not in a benchmark.
#[test]
fn two_hop_work_is_bounded_by_the_graph() {
    let spec = rich_spec(8, 8, 7);
    let nranks = 2;
    let cfg = sized_config(&spec, nranks);
    let (db, fabric) = GdaDb::with_fabric("qpin", cfg, nranks, CostModel::zero());
    let per_rank = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_with_label_indexes(&eng, &spec);
        let _ = eng.olap_view();
        let cat = planner::Catalog::gather(&eng);
        let (_, q) = suite(&meta, &SuiteParams::default()).swap_remove(1);
        assert_eq!(q.expands.len(), 2, "suite order changed");
        planner::viable_choices(&cat, &q)
            .into_iter()
            .filter_map(|c| planner::plan_choice(&cat, &q, c))
            .map(|plan| {
                let out = executor::execute(&eng, &q, &plan);
                let counters: Vec<(u64, u64)> =
                    out.stages.iter().map(|s| (s.rows, s.expanded)).collect();
                (plan.choice.to_string(), out.value, counters)
            })
            .collect::<Vec<_>>()
    });
    let (edges, vertices) = (spec.n_edges(), spec.n_vertices());
    for (i, (choice, value, _)) in per_rank[0].iter().enumerate() {
        // (rows, expanded) per stage, summed over ranks
        let total: Vec<(u64, u64)> = (0..4)
            .map(|st| {
                per_rank.iter().fold((0, 0), |(r, e), rank| {
                    let (rows, expanded) = rank[i].2[st];
                    (r + rows, e + expanded)
                })
            })
            .collect();
        for &(rows, expanded) in &total[1..3] {
            assert!(expanded <= edges, "{choice}: {expanded} entries > |E|");
            assert!(rows <= vertices, "{choice}: {rows} rows > |V|");
        }
        assert_eq!(*value, QueryValue::Count(PIN_TWO_HOP.3), "{choice}");
        assert_eq!(
            total,
            vec![
                (PIN_TWO_HOP.0, 0),
                PIN_TWO_HOP.1,
                PIN_TWO_HOP.2,
                (PIN_TWO_HOP.3, 0)
            ],
            "{choice}"
        );
    }
}

/// `two_hop_work_is_bounded_by_the_graph`'s pinned counters on
/// `rich_spec(8, 8, 7)`: roots, `(rows, expanded)` of the two expand
/// stages, distinct targets.
const PIN_TWO_HOP: (u64, (u64, u64), (u64, u64), u64) = (118, (157, 1043), (91, 1955), 91);

/// Read pin: a vertex that comes up at two stages is read once. The
/// suite's two-hop sweeps every local vertex as `a` and filters the far
/// end `c` on another property; over the view (`sweep+csr`: adjacency
/// costs no holder read) it fetches exactly the blocks the root sweep
/// alone fetches — the `c` verdicts come from the read that tested `a`.
#[test]
fn a_vertex_tested_at_two_stages_is_read_once() {
    use query::{AccessPath, ExpandPath, PathChoice};
    let spec = rich_spec(8, 8, 7);
    let nranks = 2;
    let cfg = sized_config(&spec, nranks);
    let (db, fabric) = GdaDb::with_fabric("qreads", cfg, nranks, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_with_label_indexes(&eng, &spec);
        let _ = eng.olap_view();
        let cat = planner::Catalog::gather(&eng);
        let params = SuiteParams::default();
        let (_, two_hop) = suite(&meta, &params).swap_remove(1);
        let root_only = QueryBuilder::node("a")
            .prop_gt(meta.ptype(0), params.t1)
            .count(AggTarget::Root);
        let choice = PathChoice {
            access: AccessPath::Sweep,
            expand: ExpandPath::Csr,
        };
        // holder blocks this rank fetches from its own window
        let gets = |q: &Query| {
            let plan = planner::plan_choice(&cat, q, choice).expect("sweep+csr is viable");
            let before = ctx.stats_snapshot().local_ops;
            executor::execute(&eng, q, &plan);
            ctx.stats_snapshot().local_ops - before
        };
        let one_pass = gets(&root_only);
        assert!(one_pass > 0);
        assert_eq!(gets(&two_hop), one_pass);
    });
}

// ---------------------------------------------------------------------
// Durable axis: differential contract after checkpoint + crash + recover
// ---------------------------------------------------------------------

/// Reconstruct the generator's metadata handles from a recovered
/// catalog by the names `install_metadata` gave them.
fn remeta(eng: &gda::GdaRank, spec: &GraphSpec) -> LpgMeta {
    let snap = eng.meta();
    LpgMeta {
        labels: (0..spec.lpg.num_labels)
            .map(|i| snap.label_from_name(&format!("L{i}")).expect("label"))
            .collect(),
        ptypes: (0..spec.lpg.num_ptypes)
            .map(|i| snap.ptype_from_name(&format!("P{i}")).expect("ptype"))
            .collect(),
        all_index: eng
            .all_indexes()
            .into_iter()
            .find(|d| d.name == "__all")
            .map(|d| d.id),
    }
}

#[test]
fn suite_matches_oracle_after_recovery() {
    let spec = rich_spec(6, 8, 17);
    let params = SuiteParams::default();
    let nranks = 3;
    let td = ScratchDir::new("query-recover");
    {
        let cfg = sized_config(&spec, nranks);
        let (db, fabric) = GdaDb::with_fabric("qdur", cfg, nranks, CostModel::zero());
        db.enable_persistence(PersistOptions::new(td.path()))
            .unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let _ = load_with_label_indexes(&eng, &spec);
            eng.checkpoint().unwrap();
        });
        // drop: the crash — everything in memory is lost
    }
    let (db, fabric, plan) = recover(PersistOptions::new(td.path()), CostModel::zero()).unwrap();
    let outcomes = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = plan.restore_rank(&eng).unwrap();
        assert_eq!(rec.errors, 0, "replay errors: {rec:?}");
        ctx.barrier();
        let meta = remeta(&eng, &spec);
        let _ = eng.olap_view();
        let cat = planner::Catalog::gather(&eng);
        // the recovered database must still carry the per-label postings
        assert!(
            cat.indexes
                .iter()
                .any(|ix| ix.def.name == "lab1" && ix.entries > 0),
            "per-label index postings lost in recovery: {:?}",
            cat.indexes
        );
        let mut results = Vec::new();
        for (name, q) in suite(&meta, &params) {
            let want = reference_eval(&spec, &meta, &q);
            let picked = planner::plan(&cat, &q);
            let got = executor::execute(&eng, &q, &picked);
            assert_eq!(
                got.value, want,
                "{name} (picked {}) diverged",
                picked.choice
            );
            for choice in planner::viable_choices(&cat, &q) {
                let Some(p) = planner::plan_choice(&cat, &q, choice) else {
                    continue;
                };
                let got = executor::execute(&eng, &q, &p);
                assert_eq!(got.value, want, "{name} (forced {choice}) diverged");
            }
            results.push((name, got.value));
        }
        results
    });
    // every rank agrees with rank 0
    let first = outcomes[0].clone();
    for o in &outcomes[1..] {
        assert_eq!(o, &first);
    }
    // sanity: the suite is not trivially empty on this graph
    assert!(first
        .iter()
        .any(|(_, v)| !matches!(v, QueryValue::Count(0) | QueryValue::Sum(0))));
}

// ---------------------------------------------------------------------
// Golden explain format
// ---------------------------------------------------------------------

fn golden_catalog() -> planner::Catalog {
    planner::Catalog {
        nranks: 4,
        n_vertices: 4096,
        n_labels: 4,
        indexes: vec![
            planner::IndexStat {
                def: IndexDef {
                    id: IndexId(1),
                    name: "__all".to_string(),
                    labels: vec![],
                    ptypes: vec![],
                },
                entries: 4096,
            },
            planner::IndexStat {
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

/// `Plan::explain` is a stable text format: tools (and humans) parse it,
/// so any change must be deliberate — update the golden string when it
/// is. (The numbers are the planner's costs: they last moved when a
/// holder read was re-costed as whole blocks of an uncached chain and
/// the cached-view rendezvous as one epoch read plus an 8-byte vote,
/// which turned this pick from `+tx` to `+csr`.)
#[test]
fn explain_format_is_stable() {
    let cat = golden_catalog();
    let q = QueryBuilder::node("p")
        .label(LabelId(1))
        .prop_gt(PTypeId(10), 100)
        .expand_out(Some(LabelId(2)))
        .to("c")
        .label(LabelId(3))
        .prop_gt(PTypeId(11), 200)
        .count(AggTarget::Root);
    let plan = planner::plan(&cat, &q);
    let golden = "\
query: MATCH (p:#1)-[:#2]->(c:#3) RETURN count(DISTINCT p)
choice: index-scan(ix2)+csr est=0.162ms rows~227.6 [view]
  stage 1: index-scan[lab1] (p labels=1 props=1) rows~682.7 est=0.077ms
  stage 2: expand-csr out[lbl] to (c labels=1 props=1) rows~227.6 est=0.078ms
  stage 3: count(distinct p) rows~227.6 est=0.007ms
alternatives:
  index-scan(ix2)+csr      0.162ms
  index-scan(ix2)+tx       0.182ms
  sweep+csr                0.238ms
  sweep+tx                 0.261ms
";
    assert_eq!(
        plan.explain(),
        golden,
        "explain drifted:\n---- got ----\n{}\n---- want ----\n{golden}",
        plan.explain()
    );
}
