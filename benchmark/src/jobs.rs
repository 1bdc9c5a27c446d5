//! One collective analytic job each, submitted through
//! `GdiServer::submit_olap` and timed from outside: the client-observed
//! latency (`olap.job` / `query.request`) is the span's parent, the call
//! into the layer on rank 0 its child. The OLAP cycle and the per-layer
//! probes both go through here, so they measure the same calls.

use std::sync::Arc;
use std::time::Instant;

use gda::{GdaRank, ScanPartition};
use query::{executor, planner, QueryValue};
use server::GdiServer;
use workloads::analytics;

use crate::boot::on_ranks;
use crate::trace::{SpanId, Tracer};

pub const PAGERANK_ITERS: usize = 10;
pub const PAGERANK_DAMPING: f64 = 0.85;
pub const KHOP_K: u32 = 2;

/// Where a job reports to.
pub struct JobCtx<'a> {
    pub server: &'a GdiServer,
    pub tracer: &'a Arc<Tracer>,
    pub parent: SpanId,
    pub request_id: u64,
}

/// What rank 0 measured inside the job: named `[start, end)` intervals
/// on the tracer's clock.
type Inner = Vec<(&'static str, u64, u64)>;

impl JobCtx<'_> {
    /// Submit `f` to every rank, wait, record the spans, and return rank
    /// 0's value with the client-observed latency in ns.
    fn job<T: Send + 'static>(
        &self,
        outer: &'static str,
        f: impl for<'r, 'd, 'c, 'f> Fn(&'r GdaRank<'d, 'c, 'f>, &Tracer) -> (T, Inner)
            + Send
            + Sync
            + 'static,
    ) -> (T, u64) {
        let tracer = self.tracer.clone();
        let t0 = Instant::now();
        let mut per_rank = on_ranks(self.server, move |eng| f(eng, &tracer));
        let t1 = Instant::now();
        let (value, inner) = per_rank.swap_remove(0);
        let id = self.tracer.record(
            outer,
            self.parent,
            self.request_id,
            self.tracer.ns_of(t0),
            self.tracer.ns_of(t1),
        );
        for (name, start, end) in inner {
            self.tracer.record(name, id, self.request_id, start, end);
        }
        (value, (t1 - t0).as_nanos() as u64)
    }

    /// A job that does nothing: the rendezvous cost alone.
    pub fn noop(&self) -> u64 {
        self.job("olap.job", |_, _| ((), Vec::new())).1
    }

    /// `GdaRank::olap_view`: revalidate, patch or rebuild the cached
    /// scan view. Returns the machine-wide row count.
    pub fn refresh_view(&self) -> u64 {
        self.job("olap.job", |eng, tr| {
            let t0 = tr.now_ns();
            let view = eng.olap_view();
            let t1 = tr.now_ns();
            let rows = eng.ctx().allreduce_sum_u64(view.len() as u64);
            (rows, vec![("scan.refresh", t0, t1)])
        })
        .0
    }

    /// `gda::scan::build_view`: a full raw-window sweep, no cache.
    /// Returns the machine-wide out-edge count.
    pub fn build_view(&self) -> u64 {
        self.job("olap.job", |eng, tr| {
            let t0 = tr.now_ns();
            let view = gda::scan::build_view(eng, ScanPartition::LocalAll);
            let t1 = tr.now_ns();
            let edges = eng.ctx().allreduce_sum_u64(view.out_edges() as u64);
            (edges, vec![("scan.view_build", t0, t1)])
        })
        .0
    }

    /// PageRank; returns the machine-wide score sum (must be 1).
    pub fn pagerank(&self) -> f64 {
        self.job("olap.job", |eng, tr| {
            let view = eng.olap_view();
            let t0 = tr.now_ns();
            let scores = analytics::pagerank(eng, &view, PAGERANK_ITERS, PAGERANK_DAMPING);
            let t1 = tr.now_ns();
            let sum = eng.ctx().allreduce_sum_f64(scores.iter().sum());
            (sum, vec![("analytics.pagerank", t0, t1)])
        })
        .0
    }

    /// Full BFS; returns the vertices reached.
    pub fn bfs(&self, root: u64) -> u64 {
        self.job("olap.job", move |eng, tr| {
            let view = eng.olap_view();
            let t0 = tr.now_ns();
            let reached = analytics::bfs(eng, &view, root).visited;
            let t1 = tr.now_ns();
            (reached, vec![("analytics.bfs", t0, t1)])
        })
        .0
    }

    /// WCC to convergence; returns the component count.
    pub fn wcc(&self) -> u64 {
        self.job("olap.job", |eng, tr| {
            let view = eng.olap_view();
            let t0 = tr.now_ns();
            let comp = analytics::wcc_converged(eng, &view);
            let t1 = tr.now_ns();
            // a component's label is its smallest app id: count the roots
            let roots = comp.iter().zip(&view.apps).filter(|(c, a)| c == a).count();
            let total = eng.ctx().allreduce_sum_u64(roots as u64);
            (total, vec![("analytics.wcc", t0, t1)])
        })
        .0
    }

    /// k-hop neighbourhood size.
    pub fn khop(&self, root: u64) -> u64 {
        self.job("olap.job", move |eng, tr| {
            let view = eng.olap_view();
            let t0 = tr.now_ns();
            let count = analytics::khop(eng, &view, root, KHOP_K);
            let t1 = tr.now_ns();
            (count, vec![("analytics.khop", t0, t1)])
        })
        .0
    }

    /// One declarative query, from text to value: parse, gather the
    /// catalog and plan, execute. Returns the value and the
    /// client-observed latency in ns. `exec_span` names the execute span
    /// (one name per query shape).
    pub fn query(&self, text: &Arc<str>, exec_span: &'static str) -> (QueryValue, u64) {
        let text = text.clone();
        self.job("query.request", move |eng, tr| {
            let t0 = tr.now_ns();
            let q = query::parse(&text, &eng.meta()).expect("suite query parses");
            let t1 = tr.now_ns();
            let plan = planner::plan(&planner::Catalog::gather(eng), &q);
            let t2 = tr.now_ns();
            let out = executor::execute(eng, &q, &plan);
            let t3 = tr.now_ns();
            (
                out.value,
                vec![
                    ("query.parse", t0, t1),
                    ("query.plan", t1, t2),
                    (exec_span, t2, t3),
                ],
            )
        })
    }
}
