//! The analytics workload: a fixed cycle of collective jobs, one in
//! flight, behind a burst of session writes that retires the cached
//! scan view — so the scan layer refreshes beside reuse, and a gain for
//! static views that costs patched views shows.

use std::sync::Arc;
use std::time::Instant;

use query::QueryValue;
use workloads::queries::{reference_eval, suite, suite_text, SuiteParams};

use crate::boot::fabric_counters;
use crate::jobs::{JobCtx, KHOP_K};
use crate::oltp::{Budget, Driver, Window};
use crate::oracle::{fresh_components, Oracle};
use crate::stats::reduce_slice;
use crate::trace::{SpanId, Tracer};

/// Session ops per burst (Table-3 LinkBench weights).
pub const BURST_OPS: u64 = 2000;
/// Times each query shape runs per cycle, in suite order (hop-filter,
/// two-hop, point, indexed-sum, triangle): 25 requests. Two-hop and
/// triangle cost ~180 ms each at this scale, the others 0.5-10 ms; run
/// equally often they would be 93 % of a cycle and the kernels noise.
/// With these counts the median request is an indexed aggregate and the
/// 95th percentile (rank 24 of 25) the cheaper of the two heavy shapes.
pub const QUERY_REPEATS: [usize; 5] = [6, 1, 9, 8, 1];
/// `exec` span name of each suite shape, in suite order.
pub const QUERY_EXEC_SPANS: [&str; 5] = [
    "query.execute.hop_filter",
    "query.execute.two_hop",
    "query.execute.point",
    "query.execute.indexed_sum",
    "query.execute.triangle",
];

/// The suite's inputs: property thresholds that pass half the vertices,
/// and an ordinary vertex for the point lookup (the planner knows only
/// mean degrees; a hub would measure its misestimate, not the path).
pub fn suite_params(oracle: &Oracle) -> SuiteParams {
    SuiteParams {
        t1: u64::MAX / 2,
        t2: u64::MAX / 2,
        point_id: oracle.typical(),
    }
}

/// What every cycle's results are checked against: sequential oracles
/// over the generated edge list and `reference_eval` of each query.
pub struct Expected {
    pub hub: u64,
    pub bfs_reach: u64,
    pub base_components: u64,
    pub khop: Vec<(u64, u64)>,
    pub queries: Vec<(Arc<str>, &'static str, QueryValue)>,
}

impl Expected {
    pub fn new(driver: &Driver, oracle: &Oracle) -> Self {
        let (spec, meta) = (driver.gen.spec(), driver.gen.meta());
        let hub = oracle.hub();
        let n = spec.n_vertices();
        let params = suite_params(oracle);
        let roots = [hub, params.point_id, n / 3, (2 * n) / 3 + 1];
        Self {
            hub,
            bfs_reach: oracle.bfs(hub, u32::MAX),
            base_components: oracle.components(),
            khop: roots.iter().map(|&r| (r, oracle.bfs(r, KHOP_K))).collect(),
            queries: suite(meta, &params)
                .iter()
                .zip(suite_text(&params))
                .zip(QUERY_EXEC_SPANS)
                .map(|(((_, q), (_, text)), span)| {
                    (text.into(), span, reference_eval(spec, meta, q))
                })
                .collect(),
        }
    }

    /// Analytic jobs one cycle submits.
    pub fn jobs_per_cycle(&self) -> u64 {
        (4 + self.khop.len() + QUERY_REPEATS.iter().sum::<usize>()) as u64
    }
}

/// One cycle; returns its wall time and the query request latencies.
fn cycle(
    driver: &mut Driver,
    tracer: &Arc<Tracer>,
    want: &Expected,
    index: u64,
    scratch: &mut Vec<u32>,
) -> (u64, Vec<u32>) {
    let t0 = Instant::now();
    let span = tracer.open("olap.cycle", SpanId::NONE, index);
    scratch.clear();
    tracer.time("oltp.burst", span, index, |_| {
        driver.run_ops(BURST_OPS, scratch)
    });
    let ctx = JobCtx {
        server: driver.server(),
        tracer,
        parent: span,
        request_id: index,
    };
    let n = driver.gen.spec().n_vertices();
    let fresh = driver.gen.alive().count() as u64;
    let mut bad: Vec<String> = Vec::new();
    let fresh_comps = fresh_components(driver.gen.alive(), &driver.gen.fresh_edges);
    let rows = ctx.refresh_view();
    let sum = ctx.pagerank();
    if (sum - 1.0).abs() > 1e-9 {
        bad.push(format!("cycle {index}: PageRank sums to {sum}"));
    }
    let mut counts = vec![
        ("view rows", rows, n + fresh),
        ("BFS reach", ctx.bfs(want.hub), want.bfs_reach),
        (
            "WCC components",
            ctx.wcc(),
            want.base_components + fresh_comps,
        ),
    ];
    counts.extend(
        want.khop
            .iter()
            .map(|&(root, reach)| ("k-hop reach", ctx.khop(root), reach)),
    );
    for (what, got, want) in counts {
        if got != want {
            bad.push(format!("cycle {index}: {what}: got {got}, want {want}"));
        }
    }
    let mut query_lat = Vec::new();
    for round in 0..QUERY_REPEATS.into_iter().max().unwrap_or(0) {
        for ((text, exec_span, value), repeats) in want.queries.iter().zip(QUERY_REPEATS) {
            if round >= repeats {
                continue;
            }
            let (got, ns) = ctx.query(text, exec_span);
            if got != *value {
                bad.push(format!(
                    "cycle {index}: {text}: got {got:?}, want {value:?}"
                ));
            }
            query_lat.push(ns.min(u32::MAX as u64) as u32);
        }
    }
    tracer.close(span);
    driver.model.checks += want.jobs_per_cycle();
    for b in bad {
        driver.model.mismatch(b);
    }
    (t0.elapsed().as_nanos() as u64, query_lat)
}

/// One serving round: warm up with one cycle (every round attaches
/// afresh, so its first view build is a cold full sweep), then measure
/// whole cycles until the budget is spent, appending to `out`. A slice
/// is one cycle: analytic jobs per second, p50/p95 over the cycle's
/// query requests, and the redo bytes and writes of its burst.
pub fn measure(
    driver: &mut Driver,
    tracer: &Arc<Tracer>,
    want: &Expected,
    budget: Budget,
    out: &mut Window,
    alternate_tracing: bool,
) {
    let mut scratch = Vec::new();
    tracer.set(false);
    cycle(driver, tracer, want, 0, &mut scratch);
    let (attempted0, failed0) = (driver.attempted, driver.failed);
    let mut writes_mark = driver.committed_writes;
    let mut log_mark = fabric_counters(driver.server()).log_bytes;
    let slices0 = out.slices.len();
    let started = Instant::now();
    while !budget.spent(started, out.slices.len() - slices0) {
        let traced = out.next_traced(alternate_tracing);
        tracer.set(traced);
        let index = out.slices.len() as u64 + 1;
        let (wall_ns, mut query_lat) = cycle(driver, tracer, want, index, &mut scratch);
        let slice = reduce_slice(want.jobs_per_cycle(), wall_ns, &mut query_lat);
        let log = fabric_counters(driver.server()).log_bytes;
        let (bytes, writes) = (log - log_mark, driver.committed_writes - writes_mark);
        out.push(
            slice,
            alternate_tracing.then_some(traced),
            (bytes, writes, false),
        );
        out.redo_bytes += bytes;
        out.committed_writes += writes;
        // the cycle's analytic jobs are requests too
        driver.attempted += want.jobs_per_cycle();
        (log_mark, writes_mark) = (log, driver.committed_writes);
    }
    tracer.set(false);
    // no checkpoint since the base one: the logs hold every append
    out.close_round(driver.server(), log_mark, false);
    driver.attempted -= attempted0;
    driver.failed -= failed0;
}
