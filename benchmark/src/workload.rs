//! The three workloads and one repetition of each: fresh database,
//! fabric and server, warm-up, measured window, output checks.

use std::sync::Arc;

use gda::persist::PersistOptions;
use graphgen::{GraphSpec, LpgConfig};
use rma::{BackendKind, CostModel};
use server::{GdiServer, RoutePolicy, ServerOptions};

use crate::boot;
use crate::host::{self, ScratchDir};
use crate::layers;
use crate::olap::{self, Expected};
use crate::oltp::{self, Budget, Driver, Model, OltpPlan, Window, SESSIONS};
use crate::opgen::{OpGen, Profile};
use crate::oracle::Oracle;
use crate::stats::SliceStats;
use crate::trace::Tracer;

/// Seed of every workload's generated graph.
pub const GRAPH_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadMostly,
    WriteDurable,
    Olap,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReadMostly, Workload::WriteDurable, Workload::Olap];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMostly => "oltp_read_mostly",
            Workload::WriteDurable => "oltp_write_durable",
            Workload::Olap => "olap_analytics",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Kronecker scale (edge factor 16 throughout). Sized so that peak
    /// RSS stays under 2 GiB and a run fits its share of the time cap.
    pub fn scale(self, smoke: bool) -> u32 {
        match (smoke, self) {
            (true, _) => 12,
            (false, Workload::ReadMostly) => 16,
            // 32 k vertices: twice what the two translation caches hold,
            // and few enough that the MVCC version chains reach their
            // bound within the first seconds of a window
            (false, Workload::WriteDurable) => 15,
            // the suite's two-hop and triangle shapes grow much faster
            // than the graph (1 s and 0.5 s per execution at scale 13);
            // at scale 12 a cycle is ~0.5 s, so a run holds ~40 of them
            (false, Workload::Olap) => 12,
        }
    }

    pub fn profile(self) -> Profile {
        match self {
            Workload::ReadMostly => Profile::ReadMostly,
            Workload::WriteDurable => Profile::WriteSteady,
            Workload::Olap => Profile::LinkBenchFresh,
        }
    }

    /// Ops per slice: at least 2 000 latency samples behind every p95.
    pub fn slice_ops(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (Workload::ReadMostly, false) => 50_000,
            (Workload::ReadMostly, true) => 10_000,
            (Workload::WriteDurable, false) => 12_500,
            (Workload::WriteDurable, true) => 2_500,
            (Workload::Olap, _) => olap::BURST_OPS,
        }
    }

    /// The dataset: fixed per workload, as a benchmark's dataset is. The
    /// `--seed` drives the request stream (keys, op kinds, values, the hot
    /// set); the graph it runs against is the same in every run.
    fn spec(self, smoke: bool) -> GraphSpec {
        let mut spec = GraphSpec::new(self.scale(smoke), GRAPH_SEED);
        if self == Workload::Olap {
            // few labels, every edge labelled: the query suite selects a
            // meaningful subset (the repo's `rich_lpg` shape)
            spec.lpg = LpgConfig {
                num_labels: 4,
                num_ptypes: 4,
                labels_per_vertex: 2,
                props_per_vertex: 3,
                edge_label_fraction: 1.0,
                ..LpgConfig::default()
            };
        }
        spec
    }

    pub fn server_options(self) -> ServerOptions {
        ServerOptions {
            route: match self {
                // the paper's deployment: ops land on the connected rank
                // and reach data by one-sided RMA
                Workload::ReadMostly => RoutePolicy::SessionAffine,
                _ => RoutePolicy::Owner,
            },
            ..ServerOptions::default()
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RepConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of measured window in this repetition.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct RepResult {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub slices: Vec<SliceStats>,
    /// Bytes written per committed write: one ratio per slice, or the
    /// one ratio of the checkpointing workload's first rebase cycle.
    pub disk_ratios: Vec<f64>,
    /// Bytes the store wrote in the measured window.
    pub disk_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: u64,
    pub mismatches: Vec<String>,
    pub op_hash: u64,
    pub ops_generated: u64,
    /// Median slice rate of the first and last third of the window.
    pub thirds: (f64, f64),
    /// `(name, value)` of every per-layer metric (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Serving rounds per repetition: each restarts the rank threads on
/// the loaded database. Where the scheduler puts three busy threads on
/// two cores moves the slice rate by ±10 % for as long as the threads
/// live; more rounds draw that placement more often, so the median over
/// all slices settles. (A traced repetition serves once.)
fn rounds(cfg: &RepConfig) -> usize {
    match (cfg.trace || cfg.smoke, cfg.workload) {
        (true, _) => 1,
        (false, Workload::ReadMostly) => 4,
        (false, Workload::WriteDurable) => 2,
        (false, Workload::Olap) => 3,
    }
}

/// Run one repetition. Panics (and so exits non-zero) on a harness
/// failure; output mismatches are returned, not panicked on.
pub fn run_rep(cfg: &RepConfig) -> RepResult {
    let w = cfg.workload;
    let tracer = Arc::new(Tracer::new(cfg.trace));
    let dir = ScratchDir::new(w.name()).expect("scratch dir under benchmark/out");
    let spec = w.spec(cfg.smoke);
    let loaded = boot::load(spec, w == Workload::Olap, dir.path(), &tracer);
    let gen = OpGen::new(w.profile(), spec, loaded.meta.clone(), SESSIONS, cfg.seed);
    let model = Model::new(&gen, w.profile());
    let mut res = RepResult::default();
    let mut probe = layers::Probe::new(cfg, &loaded);

    let rounds = rounds(cfg);
    let budget = match cfg.smoke {
        true => Budget::Slices(match w {
            Workload::ReadMostly => 4,
            // one whole rebase cycle: seven deltas and the full snapshot
            Workload::WriteDurable => 8,
            Workload::Olap => 2,
        }),
        false => Budget::Seconds(cfg.seconds / rounds as f64),
    };
    let slice_ops = w.slice_ops(cfg.smoke);
    let plan = OltpPlan {
        slice_ops,
        warmup_ops: 2 * slice_ops,
        budget,
        checkpoint_per_slice: w == Workload::WriteDurable,
    };
    let mut win = Window::default();
    let mut state = Some((gen, model));
    let mut oracle = None;
    let mut expected = None;
    for round in 0..rounds {
        let (first, last) = (round == 0, round + 1 == rounds);
        boot::serve(&loaded.db, &loaded.fabric, w.server_options(), |server| {
            if first {
                let (setup_s, ckpt_s, ckpt_bytes) = boot::base_checkpoint(&loaded, server, &tracer);
                res.setup_s = setup_s;
                probe.setup(ckpt_s, ckpt_bytes);
                // the oracle is client-side work: after set-up, off its clock
                oracle = Some(Oracle::new(&spec));
                probe.before_window(server);
            }
            let oracle = oracle.as_ref().expect("built in the first round");
            let (gen, model) = state.take().expect("handed on by the round before");
            let mut driver = Driver::new(server, gen, model, &tracer);
            if w == Workload::Olap {
                let want = expected.get_or_insert_with(|| Expected::new(&driver, oracle));
                olap::measure(&mut driver, &tracer, want, budget, &mut win, cfg.trace);
            } else {
                oltp::measure(
                    &mut driver,
                    &plan,
                    &mut win,
                    (first, last),
                    cfg.trace,
                    cfg.trace,
                );
            }
            res.attempted += driver.attempted;
            res.failed += driver.failed;
            if last {
                check_redo(&mut driver.model, win.redo_on_disk);
                probe.after_window(server, &win, res.attempted);
                probe.probes(server, &tracer, &mut driver, oracle);
            }
            state = Some(driver.into_parts());
        });
    }
    res.disk_ratios = win.disk_ratios();
    res.disk_bytes = win.disk.iter().map(|d| d.0).sum();
    res.slices = win.slices;
    let (gen, mut model) = state.take().expect("handed on by the last round");
    let oracle = oracle.expect("built in the first round");
    res.op_hash = gen.hash;
    res.ops_generated = gen.generated;
    model.check_samples(&gen, &oracle);
    probe.space(dir.path());
    drop(loaded);

    // crash: nothing above took a final checkpoint. Boot from the
    // directory alone and look for every sampled acknowledged write.
    if w == Workload::WriteDurable || cfg.trace {
        let t0 = std::time::Instant::now();
        let (server, fabric) = GdiServer::recover(
            PersistOptions::new(dir.path()).backend(BackendKind::Wall),
            CostModel::default(),
            ServerOptions::default(),
        )
        .expect("recover from the persistence directory");
        let span = tracer.open("persist.recover", crate::trace::SpanId::NONE, 0);
        boot::serve_on(&server, &fabric, |server| {
            // the first reply proves every rank finished restoring
            let session = server.session();
            let checks = model.check_recovered(&gen, &oracle, &session);
            tracer.close(span);
            assert!(
                w != Workload::WriteDurable || checks >= 1000 || cfg.smoke,
                "only {checks} recovery checks"
            );
        });
        let recovery = server.metrics().recovery.expect("recovered server reports");
        if recovery.errors > 0 {
            model.mismatch(format!("{} redo records failed to apply", recovery.errors));
        }
        probe.recovery(
            t0.elapsed().as_secs_f64(),
            spec.n_vertices() + gen.alive().count() as u64,
        );
    }
    let slice_rates: Vec<f64> = res.slices.iter().map(|s| s.ops_per_s).collect();
    res.thirds = crate::stats::thirds(&slice_rates);
    res.checks = model.checks;
    res.mismatches = std::mem::take(&mut model.mismatches);
    res.layers = probe.finish(&tracer, w);
    res.peak_rss_mb = host::peak_rss_mb();
    res
}

/// The log-write counters, cross-checked once against the directory.
fn check_redo(model: &mut oltp::Model, (on_disk, counted): (u64, u64)) {
    model.checks += 1;
    if on_disk != counted {
        model.mismatch(format!(
            "redo files hold {on_disk} B, the log counters say {counted} B"
        ));
    }
}
