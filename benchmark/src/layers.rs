//! Per-layer metrics of the traced run: counters read through the
//! engine's public accessors, and timed calls into each layer's public
//! functions made from here — on the workload's own loaded, serving
//! database, after its traced window. Nothing under `crates/` is
//! instrumented. A layer is a module: `rma`, `gda::dht`/`gda::cache`,
//! `gda::tx`, `gda::persist`/`gda::maint`, `gda::scan`,
//! `workloads::analytics`, `query`, `server`, `graphgen`/`gda::bulk`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gda::config::{WIN_DATA, WIN_SYSTEM};
use gda::GdaRank;
use gdi::{AccessMode, AppVertexId, EdgeOrientation, PropertyValue};
use graphgen::GraphSpec;
use rma::RankReport;
use server::{GdiServer, Op};

use crate::boot::{fabric_counters, on_ranks, Loaded, P};
use crate::host;
use crate::jobs::{JobCtx, PAGERANK_ITERS};
use crate::olap::QUERY_EXEC_SPANS;
use crate::oltp::{Driver, Window, SESSIONS};
use crate::opgen::tagged_value;
use crate::oracle::Oracle;
use crate::stats::{median, percentile_sorted};
use crate::trace::{SpanId, Tracer};
use crate::workload::{RepConfig, Workload};

/// Every per-layer metric, with its unit and which direction is better:
/// the list `BENCHMARK.json` carries and the traced run prints. Counts are per 1 000 requests of
/// the traced window, so they do not scale with its length.
pub const METRICS: &[(&str, &str, &str)] = &[
    ("rma.get_local_ns", "ns", "lower"),
    ("rma.get_remote_ns", "ns", "lower"),
    ("rma.get_block_remote_mb_per_s", "MB/s", "higher"),
    ("rma.cas_remote_ns", "ns", "lower"),
    ("rma.fadd_remote_ns", "ns", "lower"),
    ("rma.barrier_us", "us", "lower"),
    ("rma.alltoallv_mb_per_s", "MB/s", "higher"),
    ("dht.lookup_local_ns", "ns", "lower"),
    ("dht.lookup_remote_ns", "ns", "lower"),
    ("cache.lookup_hit_ns", "ns", "lower"),
    ("cache.hit_frac", "frac", "higher"),
    ("cache.invalidations", "1/kop", "lower"),
    ("tx.begin_commit_ro_ns", "ns", "lower"),
    ("tx.translate_ns", "ns", "lower"),
    ("tx.read_props_local_ns", "ns", "lower"),
    ("tx.read_props_remote_ns", "ns", "lower"),
    ("tx.get_edges_ns", "ns", "lower"),
    ("tx.update_prop_ns", "ns", "lower"),
    ("tx.add_edge_ns", "ns", "lower"),
    ("tx.add_vertex_ns", "ns", "lower"),
    ("tx.delete_vertex_ns", "ns", "lower"),
    ("tx.commit_write_ns", "ns", "lower"),
    ("tx.abort_frac", "frac", "lower"),
    ("mvcc.snapshot_pins", "1/kop", "lower"),
    ("mvcc.version_archives", "1/kop", "lower"),
    ("mvcc.chain_truncations", "1/kop", "lower"),
    ("persist.redo_bytes_per_write", "B", "lower"),
    ("persist.commit_overhead_ns", "ns", "lower"),
    ("persist.checkpoint_delta_s", "s", "lower"),
    ("persist.checkpoint_full_s", "s", "lower"),
    ("persist.checkpoint_mb_per_s", "MB/s", "higher"),
    ("persist.space_amp", "ratio", "lower"),
    ("persist.recovery_s", "s", "lower"),
    ("persist.recovery_objects_per_s", "1/s", "higher"),
    ("maint.pass_s", "s", "lower"),
    ("maint.vacuumed_versions", "count", "higher"),
    ("scan.view_build_s", "s", "lower"),
    ("scan.view_build_edges_per_s", "1/s", "higher"),
    ("scan.view_refresh_s", "s", "lower"),
    ("scan.builds", "1/kop", "lower"),
    ("scan.patches", "1/kop", "higher"),
    ("scan.reuse_frac", "frac", "higher"),
    ("analytics.pagerank_edges_per_s", "1/s", "higher"),
    ("analytics.pagerank_iter_ms", "ms", "lower"),
    ("analytics.bfs_ms", "ms", "lower"),
    ("analytics.bfs_edges_per_s", "1/s", "higher"),
    ("analytics.wcc_ms", "ms", "lower"),
    ("analytics.khop_ms", "ms", "lower"),
    ("query.parse_us", "us", "lower"),
    ("query.plan_us", "us", "lower"),
    ("query.exec_point_us", "us", "lower"),
    ("query.exec_hop_filter_ms", "ms", "lower"),
    ("query.exec_two_hop_ms", "ms", "lower"),
    ("query.exec_indexed_sum_ms", "ms", "lower"),
    ("query.exec_triangle_ms", "ms", "lower"),
    ("query.rows_per_result", "count", "lower"),
    ("server.p50_s1_us", "us", "lower"),
    ("server.overhead_us", "us", "lower"),
    ("server.mean_batch", "count", "higher"),
    ("server.batches_per_s", "1/s", "higher"),
    ("server.p99_us", "us", "lower"),
    ("server.abort_frac", "frac", "lower"),
    ("server.rejected", "count", "lower"),
    ("server.olap_rendezvous_us", "us", "lower"),
    ("server.checkpoint_stall_us", "us", "lower"),
    ("graphgen.edges_per_s", "1/s", "higher"),
    ("bulk.load_edges_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
];

/// Timed calls per probe; every metric is their median. A collective
/// job over the whole graph (a kernel, a view build, a query) gets as
/// many calls as fit into [`JOB_BUDGET_S`], at least one: the suite's
/// two-hop query alone takes 4 s on the scale-16 graph.
const CALLS: usize = 9;
const JOB_BUDGET_S: f64 = 3.0;
/// Operations per timed batch of a micro-probe.
const BATCH: usize = 4096;

struct Counters {
    fabric: RankReport,
    committed: u64,
    aborted: u64,
    rejected: u64,
    at: Instant,
}

impl Counters {
    fn read(server: &GdiServer) -> Self {
        let m = server.metrics();
        Self {
            fabric: fabric_counters(server),
            committed: m.committed(),
            aborted: m.aborted(),
            rejected: m.rejected(),
            at: Instant::now(),
        }
    }
}

pub struct Probe {
    on: bool,
    smoke: bool,
    seed: u64,
    spec: GraphSpec,
    route: server::RoutePolicy,
    values: BTreeMap<&'static str, f64>,
    before: Option<Counters>,
    /// Delta checkpoints seen: client-side µs, `wall_s`, bytes.
    delta_checkpoints: Vec<(f64, f64, u64)>,
    full_checkpoints_s: Vec<f64>,
    full_bytes: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Probe {
    pub fn new(cfg: &RepConfig, loaded: &Loaded) -> Self {
        let mut values = BTreeMap::new();
        let edges = loaded.spec.n_edges() as f64;
        // each rank generates and ingests its half concurrently
        values.insert("graphgen.edges_per_s", edges / loaded.gen_s);
        values.insert("bulk.load_edges_per_s", edges / loaded.bulk_s);
        Self {
            on: cfg.trace,
            smoke: cfg.smoke,
            seed: cfg.seed,
            spec: loaded.spec,
            route: cfg.workload.server_options().route,
            values,
            before: None,
            delta_checkpoints: Vec::new(),
            full_checkpoints_s: Vec::new(),
            full_bytes: 0,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(METRICS.iter().any(|m| m.0 == name), "{name}");
        self.values.insert(name, value);
    }

    fn calls(&self) -> usize {
        if self.smoke {
            3
        } else {
            CALLS
        }
    }

    /// Call `job` up to [`Probe::calls`] times, within [`JOB_BUDGET_S`].
    fn repeat(&self, mut job: impl FnMut()) {
        let t0 = Instant::now();
        job();
        let once = t0.elapsed().as_secs_f64();
        let fit = (JOB_BUDGET_S / once.max(1e-9)) as usize;
        for _ in 1..fit.clamp(1, self.calls()) {
            job();
        }
    }

    pub fn setup(&mut self, checkpoint_s: f64, bytes: u64) {
        self.full_checkpoints_s.push(checkpoint_s);
        self.full_bytes = bytes;
    }

    pub fn before_window(&mut self, server: &GdiServer) {
        if self.on {
            self.before = Some(Counters::read(server));
        }
    }

    /// Counter deltas over the traced window, per 1 000 requests.
    fn window_counters(&mut self, server: &GdiServer, requests: u64) {
        let before = self.before.take().expect("before_window ran");
        let after = Counters::read(server);
        let (a, b) = (&before.fabric, &after.fabric);
        let kops = requests as f64 / 1e3;
        let hits = b.cache_hits - a.cache_hits;
        let misses = b.cache_misses - a.cache_misses;
        self.set("cache.hit_frac", ratio(hits, hits + misses));
        self.set(
            "cache.invalidations",
            (b.cache_invalidations - a.cache_invalidations) as f64 / kops,
        );
        self.set(
            "mvcc.snapshot_pins",
            (b.snapshot_pins - a.snapshot_pins) as f64 / kops,
        );
        self.set(
            "mvcc.version_archives",
            (b.version_archives - a.version_archives) as f64 / kops,
        );
        self.set(
            "mvcc.chain_truncations",
            (b.chain_truncations - a.chain_truncations) as f64 / kops,
        );
        let builds = b.scan_builds - a.scan_builds;
        let patches = b.scan_patches - a.scan_patches;
        let reuses = b.scan_reuses - a.scan_reuses;
        self.set("scan.builds", builds as f64 / kops);
        self.set("scan.patches", patches as f64 / kops);
        self.set("scan.reuse_frac", ratio(reuses, builds + patches + reuses));
        let batches = b.batches_drained - a.batches_drained;
        self.set(
            "server.mean_batch",
            ratio(b.requests_served - a.requests_served, batches),
        );
        self.set(
            "server.batches_per_s",
            batches as f64 / (after.at - before.at).as_secs_f64(),
        );
        let (c, ab) = (
            after.committed - before.committed,
            after.aborted - before.aborted,
        );
        self.set("server.abort_frac", ratio(ab, c + ab));
        self.set("server.rejected", (after.rejected - before.rejected) as f64);
    }

    fn overhead(&mut self, traced: &[f64], untraced: &[f64]) {
        let frac = if traced.is_empty() || untraced.is_empty() {
            0.0
        } else {
            1.0 - median(traced) / median(untraced)
        };
        self.set("trace.overhead_frac", frac);
    }

    /// What the traced windows say: counter deltas over their `requests`,
    /// the tracing overhead, the latency tail, redo bytes and checkpoints.
    pub fn after_window(&mut self, server: &GdiServer, win: &Window, requests: u64) {
        if !self.on {
            return;
        }
        self.window_counters(server, requests);
        self.overhead(&win.traced_rates, &win.untraced_rates);
        let p99_us = if win.all_lat_ns.is_empty() {
            // analytics: the tail over query requests; the slowest
            // cycle's p95 (rank 24 of 25) stands in
            win.slices.iter().map(|s| s.p95_us).fold(0.0, f64::max)
        } else {
            let mut lat = win.all_lat_ns.clone();
            lat.sort_unstable();
            percentile_sorted(&lat, 99.0) as f64 / 1e3
        };
        self.set("server.p99_us", p99_us);
        self.set(
            "persist.redo_bytes_per_write",
            ratio(win.redo_bytes, win.committed_writes),
        );
        for &(us, wall_s, bytes, full) in &win.checkpoints {
            if full {
                self.full_checkpoints_s.push(wall_s);
            } else {
                self.delta_checkpoints.push((us, wall_s, bytes));
            }
        }
    }

    /// The timed calls, on the serving database after its window.
    pub fn probes(
        &mut self,
        server: &GdiServer,
        tracer: &Arc<Tracer>,
        driver: &mut Driver,
        oracle: &Oracle,
    ) {
        if !self.on {
            return;
        }
        tracer.set(true);
        let root = tracer.open("probes", SpanId::NONE, 0);
        self.rma(server);
        self.translation(server);
        self.tx_replay(server, tracer, root, driver);
        self.server_overhead(server, driver);
        let ctx = JobCtx {
            server,
            tracer,
            parent: root,
            request_id: 0,
        };
        let rendezvous: Vec<f64> = (0..4 * self.calls())
            .map(|_| ctx.noop() as f64 / 1e3)
            .collect();
        self.set("server.olap_rendezvous_us", median(&rendezvous));
        self.jobs(&ctx, oracle);
        self.checkpoints(server, tracer, root);
        self.maintenance(server, tracer, root);
        let after = fabric_counters(server);
        if let Some(execs) = after.query_execs.checked_div(P as u64).filter(|e| *e > 0) {
            self.set(
                "query.rows_per_result",
                after.query_expands as f64 / execs as f64,
            );
        }
        tracer.close(root);
        tracer.set(false);
    }

    /// `rma`: one-sided gets and atomics against the own and the other
    /// rank's window, and the two collectives the analytics lean on.
    fn rma(&mut self, server: &GdiServer) {
        let calls = self.calls();
        let mut out = on_ranks(server, move |eng| {
            let ctx = eng.ctx();
            let (me, peer) = (ctx.rank(), (ctx.rank() + 1) % P);
            let words = ctx.win_len_bytes(WIN_DATA) / 8;
            let stamp = eng.cfg().stamp_word();
            let mut res: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
            let mut rng = SmallRng::seed_from_u64(7);
            let mut block = vec![0u8; eng.cfg().block_size];
            for _ in 0..calls {
                // both ranks run the collectives; rank 0's clock counts
                let t = Instant::now();
                for _ in 0..64 {
                    ctx.barrier();
                }
                res.entry("rma.barrier_us")
                    .or_default()
                    .push(t.elapsed().as_nanos() as f64 / 64e3);
                let rows: Vec<Vec<u64>> = (0..P).map(|_| vec![me as u64; 1 << 16]).collect();
                let t = Instant::now();
                let got = ctx.alltoallv(rows);
                let mb = (got.iter().map(Vec::len).sum::<usize>() * 8) as f64 / 1e6;
                res.entry("rma.alltoallv_mb_per_s")
                    .or_default()
                    .push(mb / t.elapsed().as_secs_f64());
                ctx.barrier();
                if me != 0 {
                    // one rank measures, the other waits: one-sided ops
                    // need no partner
                    ctx.barrier();
                    continue;
                }
                for (name, target) in [("rma.get_local_ns", me), ("rma.get_remote_ns", peer)] {
                    let t = Instant::now();
                    let mut acc = 0u64;
                    for _ in 0..BATCH {
                        acc ^= ctx.get_u64(WIN_DATA, target, rng.gen_range(0..words));
                    }
                    std::hint::black_box(acc);
                    res.entry(name)
                        .or_default()
                        .push(t.elapsed().as_nanos() as f64 / BATCH as f64);
                }
                let t = Instant::now();
                for _ in 0..BATCH {
                    let off = rng.gen_range(0..words - block.len() / 8) * 8;
                    ctx.get_bytes(WIN_DATA, peer, off, &mut block);
                }
                std::hint::black_box(&block);
                let mb = (BATCH * block.len()) as f64 / 1e6;
                res.entry("rma.get_block_remote_mb_per_s")
                    .or_default()
                    .push(mb / t.elapsed().as_secs_f64());
                // atomics that change nothing: a CAS that cannot match the
                // monotone stamp counter, and a fetch-add of zero on it
                let t = Instant::now();
                for _ in 0..BATCH {
                    std::hint::black_box(ctx.cas_u64(WIN_SYSTEM, peer, stamp, u64::MAX, u64::MAX));
                }
                res.entry("rma.cas_remote_ns")
                    .or_default()
                    .push(t.elapsed().as_nanos() as f64 / BATCH as f64);
                let t = Instant::now();
                for _ in 0..BATCH {
                    std::hint::black_box(ctx.fadd_u64(WIN_SYSTEM, peer, stamp, 0));
                }
                res.entry("rma.fadd_remote_ns")
                    .or_default()
                    .push(t.elapsed().as_nanos() as f64 / BATCH as f64);
                ctx.barrier();
            }
            res
        });
        for (name, samples) in out.swap_remove(0) {
            self.set(name, median(&samples));
        }
    }

    /// `gda::dht` (uncached lookups, own and other rank's partition) and
    /// `gda::cache` (a translation that hits).
    fn translation(&mut self, server: &GdiServer) {
        let calls = self.calls();
        let n = self.spec.n_vertices();
        let mut out = on_ranks(server, move |eng| {
            let mut res: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
            if eng.rank() != 0 {
                return res;
            }
            let mut rng = SmallRng::seed_from_u64(11);
            for _ in 0..calls {
                for (name, owner) in [("dht.lookup_local_ns", 0), ("dht.lookup_remote_ns", 1)] {
                    let t = Instant::now();
                    for _ in 0..BATCH {
                        let app = rng.gen_range(0..n / P as u64) * P as u64 + owner;
                        std::hint::black_box(eng.peek_translate(AppVertexId(app)));
                    }
                    res.entry(name)
                        .or_default()
                        .push(t.elapsed().as_nanos() as f64 / BATCH as f64);
                }
                // 64 keys, resident after the first round
                let tx = eng.begin(AccessMode::ReadOnly);
                for round in 0..1 + BATCH / 64 {
                    let t = Instant::now();
                    for k in 0..64u64 {
                        std::hint::black_box(
                            tx.translate_vertex_id(AppVertexId(k * 97 % n)).is_ok(),
                        );
                    }
                    if round > 0 {
                        res.entry("cache.lookup_hit_ns")
                            .or_default()
                            .push(t.elapsed().as_nanos() as f64 / 64.0);
                    }
                }
                tx.commit().expect("read-only commit");
            }
            res
        });
        for (name, samples) in out.swap_remove(0) {
            self.set(name, median(&samples));
        }
    }

    /// `gda::tx`: single-op transactions straight against `GdaRank` on
    /// rank 0's thread, no server, with a stamp at every phase edge.
    fn tx_replay(
        &mut self,
        server: &GdiServer,
        tracer: &Arc<Tracer>,
        root: SpanId,
        driver: &mut Driver,
    ) {
        let per_kind = if self.smoke { 40 } else { 400 };
        let (spec, meta) = (*driver.gen.spec(), driver.gen.meta().clone());
        let n = spec.n_vertices();
        // ids no session uses
        let fresh0 = n + 1 + ((SESSIONS as u64 + 1) << 32);
        let seed = self.seed;
        let tr = tracer.clone();
        let mut out = on_ranks(server, move |eng| {
            let mut rows: Vec<TxRow> = Vec::new();
            if eng.rank() != 0 {
                return rows;
            }
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x7478);
            let p0 = meta.ptype(0);
            for kind in TxKind::ORDER {
                for i in 0..per_kind as u64 {
                    let fresh = AppVertexId(fresh0 + i);
                    let key = match kind {
                        TxKind::ReadLocal => rng.gen_range(0..n / 2) * 2,
                        TxKind::ReadRemote => rng.gen_range(0..n / 2) * 2 + 1,
                        _ => rng.gen_range(0..n),
                    };
                    let props = spec.lpg.vertex_props(spec.seed, key);
                    let (pidx, _) = props[rng.gen_range(0..props.len())];
                    let value = tagged_value(key, pidx, rng.gen());
                    let mode = if kind.is_read() {
                        AccessMode::ReadOnly
                    } else {
                        AccessMode::ReadWrite
                    };
                    let t0 = tr.now_ns();
                    let tx = eng.begin(mode);
                    let t1 = tr.now_ns();
                    let target = match kind {
                        TxKind::AddVertex => Ok(None),
                        TxKind::DeleteVertex => tx.translate_vertex_id(fresh).map(Some),
                        _ => tx.translate_vertex_id(AppVertexId(key)).map(Some),
                    };
                    let t2 = tr.now_ns();
                    let body = target.and_then(|v| match (kind, v) {
                        (TxKind::ReadLocal | TxKind::ReadRemote, Some(v)) => {
                            tx.properties(v, meta.ptype(pidx)).map(|p| {
                                std::hint::black_box(p);
                            })
                        }
                        (TxKind::GetEdges, Some(v)) => tx.edges(v, EdgeOrientation::Any).map(|e| {
                            std::hint::black_box(e);
                        }),
                        (TxKind::AddVertex, _) => tx.create_vertex(fresh).and_then(|v| {
                            tx.add_label(v, meta.label(0))?;
                            tx.add_property(v, p0, &PropertyValue::U64(fresh.0))
                        }),
                        (TxKind::UpdateProp, Some(v)) => {
                            tx.update_property(v, meta.ptype(pidx), &PropertyValue::U64(value))
                        }
                        (TxKind::AddEdge, Some(v)) => tx
                            .translate_vertex_id_fresh(fresh)
                            .and_then(|f| tx.add_edge(v, f, Some(meta.label(0)), true).map(|_| ())),
                        (TxKind::DeleteVertex, Some(v)) => tx.delete_vertex(v),
                        _ => unreachable!("every kind but AddVertex translates"),
                    });
                    let t3 = tr.now_ns();
                    let committed = match body {
                        Ok(()) => tx.commit().is_ok(),
                        Err(_) => {
                            tx.abort();
                            false
                        }
                    };
                    let t4 = tr.now_ns();
                    let slot = props.iter().position(|(i, _)| *i == pidx).unwrap_or(0);
                    rows.push(TxRow {
                        kind,
                        stamps: [t0, t1, t2, t3, t4],
                        committed,
                        key,
                        slot,
                        value,
                    });
                }
            }
            rows
        });
        let rows = out.swap_remove(0);
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, r) in rows.iter().enumerate() {
            let [t0, t1, t2, t3, t4] = r.stamps;
            let op = tracer.record("tx.op", root, i as u64, t0, t4);
            tracer.record("tx.begin", op, i as u64, t0, t1);
            tracer.record("tx.translate", op, i as u64, t1, t2);
            tracer.record("tx.body", op, i as u64, t2, t3);
            tracer.record("tx.commit", op, i as u64, t3, t4);
            if r.kind != TxKind::AddVertex {
                by.entry("tx.translate_ns")
                    .or_default()
                    .push((t2 - t1) as f64);
            }
            by.entry(r.kind.body_metric())
                .or_default()
                .push((t3 - t2) as f64);
            if r.kind.is_read() {
                by.entry("tx.begin_commit_ro_ns")
                    .or_default()
                    .push((t1 - t0 + t4 - t3) as f64);
            } else {
                by.entry("tx.commit_write_ns")
                    .or_default()
                    .push((t4 - t3) as f64);
            }
            if r.kind == TxKind::UpdateProp && r.committed {
                driver.model.note_update(r.key, r.slot, r.value);
            }
        }
        for (name, samples) in by {
            self.set(name, median(&samples));
        }
        let aborted = rows.iter().filter(|r| !r.committed).count();
        self.set("tx.abort_frac", aborted as f64 / rows.len() as f64);
    }

    /// `server`: one session with one op in flight, then the same reads
    /// as single-op transactions on the rank that served them. The
    /// difference of the two medians is queue wait + batch formation +
    /// acknowledgement: `p50_s1 = overhead + direct p50` by construction.
    fn server_overhead(&mut self, server: &GdiServer, driver: &mut Driver) {
        let count = if self.smoke { 300 } else { 3000 };
        let n = self.spec.n_vertices();
        let meta = driver.gen.meta().clone();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x7331);
        let ops: Vec<Op> = (0..count)
            .map(|i| {
                let v = AppVertexId(rng.gen_range(0..n));
                if i % 2 == 0 {
                    Op::GetVertexProps {
                        v,
                        ptype: Some(meta.ptype(rng.gen_range(0..meta.ptypes.len()))),
                    }
                } else {
                    Op::GetEdges { v }
                }
            })
            .collect();
        let session = server.session();
        let serving_rank = match self.route {
            server::RoutePolicy::SessionAffine => Some(session.id() as usize % P),
            server::RoutePolicy::Owner => None,
        };
        let mut served: Vec<f64> = Vec::with_capacity(count);
        for op in &ops {
            let t = Instant::now();
            let out = session.execute(op.clone()).expect("read accepted");
            served.push(t.elapsed().as_nanos() as f64 / 1e3);
            assert!(out.is_committed(), "{op:?}: {out:?}");
        }
        let ops = Arc::new(ops);
        let direct: Vec<f64> = on_ranks(server, move |eng| {
            let mut lat = Vec::new();
            for op in ops.iter() {
                let rank = serving_rank.unwrap_or(op.routing_vertex().0 as usize % P);
                if rank != eng.rank() {
                    continue;
                }
                let t = Instant::now();
                let tx = eng.begin(AccessMode::ReadOnly);
                let v = tx
                    .translate_vertex_id(op.routing_vertex())
                    .expect("generated vertex");
                match op {
                    Op::GetVertexProps { ptype: Some(p), .. } => {
                        std::hint::black_box(tx.properties(v, *p).expect("read"));
                    }
                    _ => {
                        std::hint::black_box(
                            tx.edges(v, EdgeOrientation::Any).expect("read").len(),
                        );
                    }
                }
                tx.commit().expect("read-only commit");
                lat.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            lat
        })
        .into_iter()
        .flatten()
        .collect();
        let p50 = median(&served);
        self.set("server.p50_s1_us", p50);
        self.set("server.overhead_us", p50 - median(&direct));
    }

    /// `gda::scan`, `workloads::analytics` and `query`, one collective
    /// job per call; the metrics come from the spans, in `finish`.
    fn jobs(&mut self, ctx: &JobCtx, oracle: &Oracle) {
        let session = ctx.server.session();
        let mut next = self.spec.n_vertices() + 1 + ((SESSIONS as u64 + 2) << 32);
        self.repeat(|| {
            ctx.build_view();
        });
        self.repeat(|| {
            // a few inserts retire the cached view: the refresh patches
            // or rebuilds, whichever the scan layer decides
            for _ in 0..16 {
                let out = session
                    .execute(Op::AddVertex {
                        v: AppVertexId(next),
                        label: None,
                        prop: None,
                    })
                    .expect("insert accepted");
                assert!(out.is_committed(), "probe insert: {out:?}");
                next += 1;
            }
            ctx.refresh_view();
        });
        self.repeat(|| {
            ctx.pagerank();
        });
        self.repeat(|| {
            ctx.wcc();
        });
        self.repeat(|| {
            ctx.bfs(oracle.hub());
        });
        self.repeat(|| {
            ctx.khop(oracle.hub());
        });
        let params = crate::olap::suite_params(oracle);
        for ((_, text), span) in workloads::queries::suite_text(&params)
            .into_iter()
            .zip(QUERY_EXEC_SPANS)
        {
            let text: Arc<str> = text.into();
            self.repeat(|| {
                ctx.query(&text, span);
            });
        }
    }

    /// `gda::persist`: delta checkpoints behind a little churn, then
    /// explicit full rebases.
    fn checkpoints(&mut self, server: &GdiServer, tracer: &Arc<Tracer>, root: SpanId) {
        let session = server.session();
        let mut next = self.spec.n_vertices() + 1 + ((SESSIONS as u64 + 3) << 32);
        for _ in 0..self.calls() {
            for _ in 0..16 {
                let _ = session.execute(Op::AddVertex {
                    v: AppVertexId(next),
                    label: None,
                    prop: None,
                });
                next += 1;
            }
            let t = Instant::now();
            let report = tracer.time("persist.checkpoint", root, 0, |_| {
                server.checkpoint().expect("probe checkpoint")
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            if report.full {
                self.full_checkpoints_s.push(report.wall_s);
            } else {
                self.delta_checkpoints.push((
                    us,
                    report.wall_s,
                    report.per_rank_bytes.iter().sum(),
                ));
            }
        }
        for _ in 0..self.calls().min(3) {
            let t = Instant::now();
            let ok = tracer.time("persist.checkpoint_full", root, 0, |_| {
                on_ranks(server, |eng| eng.checkpoint_full().is_ok())
            });
            assert!(ok.iter().all(|ok| *ok), "full checkpoint failed");
            self.full_checkpoints_s.push(t.elapsed().as_secs_f64());
            if let Some(r) = server.db().persistence().and_then(|s| s.last_checkpoint()) {
                self.full_bytes = r.per_rank_bytes.iter().sum();
            }
        }
    }

    /// `gda::maint`: one collective pass, the last thing the database
    /// sees. One only: at the parent commit a second pass after a pass
    /// that vacuumed versions dies on "free-list cycle during vacuum"
    /// (50 `add_edge` commits on a scale-10 graph reproduce it), and this
    /// benchmark measures the engine as it is.
    fn maintenance(&mut self, server: &GdiServer, tracer: &Arc<Tracer>, root: SpanId) {
        let t = Instant::now();
        let report = tracer.time("maint.pass", root, 0, |_| {
            server.maintenance().expect("maintenance pass")
        });
        self.set("maint.pass_s", t.elapsed().as_secs_f64());
        self.set("maint.vacuumed_versions", report.vacuumed_versions as f64);
    }

    /// Space on disk over the bytes of the latest full snapshot.
    pub fn space(&mut self, dir: &Path) {
        if self.on {
            self.set(
                "persist.space_amp",
                ratio(host::dir_bytes(dir), self.full_bytes),
            );
        }
    }

    pub fn recovery(&mut self, seconds: f64, objects: u64) {
        if self.on {
            self.set("persist.recovery_s", seconds);
            self.set("persist.recovery_objects_per_s", objects as f64 / seconds);
        }
    }

    /// Reduce the spans to metrics, write the span file, and return every
    /// metric of [`METRICS`] in order.
    pub fn finish(mut self, tracer: &Arc<Tracer>, workload: Workload) -> Vec<(&'static str, f64)> {
        if !self.on {
            return Vec::new();
        }
        self.set("persist.commit_overhead_ns", commit_overhead(self.seed));
        let med = |name: &str| {
            let d = tracer.durations(name);
            if d.is_empty() {
                0.0
            } else {
                median(&d)
            }
        };
        let edges = self.spec.n_edges() as f64;
        let build_s = med("scan.view_build") / 1e9;
        self.set("scan.view_build_s", build_s);
        self.set("scan.view_build_edges_per_s", edges / build_s);
        self.set("scan.view_refresh_s", med("scan.refresh") / 1e9);
        let pr_s = med("analytics.pagerank") / 1e9;
        self.set(
            "analytics.pagerank_iter_ms",
            pr_s * 1e3 / PAGERANK_ITERS as f64,
        );
        self.set(
            "analytics.pagerank_edges_per_s",
            edges * PAGERANK_ITERS as f64 / pr_s,
        );
        let bfs_s = med("analytics.bfs") / 1e9;
        self.set("analytics.bfs_ms", bfs_s * 1e3);
        // a BFS over the giant component crosses every edge both ways
        self.set("analytics.bfs_edges_per_s", 2.0 * edges / bfs_s);
        self.set("analytics.wcc_ms", med("analytics.wcc") / 1e6);
        self.set("analytics.khop_ms", med("analytics.khop") / 1e6);
        self.set("query.parse_us", med("query.parse") / 1e3);
        self.set("query.plan_us", med("query.plan") / 1e3);
        self.set("query.exec_hop_filter_ms", med(QUERY_EXEC_SPANS[0]) / 1e6);
        self.set("query.exec_two_hop_ms", med(QUERY_EXEC_SPANS[1]) / 1e6);
        self.set("query.exec_point_us", med(QUERY_EXEC_SPANS[2]) / 1e3);
        self.set("query.exec_indexed_sum_ms", med(QUERY_EXEC_SPANS[3]) / 1e6);
        self.set("query.exec_triangle_ms", med(QUERY_EXEC_SPANS[4]) / 1e6);
        let deltas = std::mem::take(&mut self.delta_checkpoints);
        let col =
            |f: fn(&(f64, f64, u64)) -> f64| median(&deltas.iter().map(f).collect::<Vec<_>>());
        self.set("server.checkpoint_stall_us", col(|d| d.0));
        self.set("persist.checkpoint_delta_s", col(|d| d.1));
        self.set(
            "persist.checkpoint_mb_per_s",
            col(|d| d.2 as f64 / 1e6 / d.1),
        );
        let fulls = std::mem::take(&mut self.full_checkpoints_s);
        self.set("persist.checkpoint_full_s", median(&fulls));
        self.set("trace.spans", tracer.len() as f64);

        let path = host::out_dir().join(format!("trace-{}.json", workload.name()));
        tracer.write_json(&path).expect("write the span file");
        METRICS
            .iter()
            .map(|(name, ..)| {
                (
                    *name,
                    *self
                        .values
                        .get(name)
                        .unwrap_or_else(|| panic!("{name} not measured")),
                )
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxKind {
    AddVertex,
    ReadLocal,
    ReadRemote,
    GetEdges,
    UpdateProp,
    AddEdge,
    DeleteVertex,
}

impl TxKind {
    /// Inserts first and deletes last: edges attach to the probe's own
    /// inserts and leave with them, so the generated graph is untouched.
    const ORDER: [TxKind; 7] = [
        TxKind::AddVertex,
        TxKind::ReadLocal,
        TxKind::ReadRemote,
        TxKind::GetEdges,
        TxKind::UpdateProp,
        TxKind::AddEdge,
        TxKind::DeleteVertex,
    ];

    fn is_read(self) -> bool {
        matches!(
            self,
            TxKind::ReadLocal | TxKind::ReadRemote | TxKind::GetEdges
        )
    }

    fn body_metric(self) -> &'static str {
        match self {
            TxKind::AddVertex => "tx.add_vertex_ns",
            TxKind::ReadLocal => "tx.read_props_local_ns",
            TxKind::ReadRemote => "tx.read_props_remote_ns",
            TxKind::GetEdges => "tx.get_edges_ns",
            TxKind::UpdateProp => "tx.update_prop_ns",
            TxKind::AddEdge => "tx.add_edge_ns",
            TxKind::DeleteVertex => "tx.delete_vertex_ns",
        }
    }
}

struct TxRow {
    kind: TxKind,
    /// begin, translate, body, commit, end
    stamps: [u64; 5],
    committed: bool,
    key: u64,
    slot: usize,
    value: u64,
}

/// `persist.commit_overhead_ns`: median write-commit time with the store
/// attached minus without, on two small databases that differ in nothing
/// else.
fn commit_overhead(seed: u64) -> f64 {
    let spec = GraphSpec::new(10, seed);
    let commit_ns = |persist: bool| -> f64 {
        let dir = host::ScratchDir::new(if persist {
            "overhead-on"
        } else {
            "overhead-off"
        })
        .expect("scratch dir");
        let cfg = graphgen::sized_config(&spec, P);
        let db = gda::GdaDb::new("overhead", cfg, P);
        if persist {
            db.enable_persistence(gda::PersistOptions::new(dir.path()))
                .expect("fresh dir");
        }
        let fabric = cfg.build_fabric_on(P, rma::CostModel::default(), rma::BackendKind::Wall);
        let mut out = fabric.run(|ctx| {
            let eng: GdaRank = db.attach(ctx);
            eng.init_collective();
            let (meta, _) = graphgen::load_into(&eng, &spec);
            ctx.barrier();
            let mut lat = Vec::new();
            if ctx.rank() == 0 {
                let mut rng = SmallRng::seed_from_u64(seed);
                for _ in 0..2000 {
                    let v = rng.gen_range(0..spec.n_vertices());
                    let (pidx, _) = spec.lpg.vertex_props(spec.seed, v)[0];
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let id = tx
                        .translate_vertex_id(AppVertexId(v))
                        .expect("generated vertex");
                    tx.update_property(id, meta.ptype(pidx), &PropertyValue::U64(rng.gen()))
                        .expect("update");
                    let t = Instant::now();
                    tx.commit().expect("uncontended commit");
                    lat.push(t.elapsed().as_nanos() as f64);
                }
            }
            ctx.barrier();
            lat
        });
        median(&out.swap_remove(0))
    };
    commit_ns(true) - commit_ns(false)
}
