//! Set-up shared by every workload: generate the graph, bulk-load it
//! into a fresh `GdaDb` on the Wall fabric with persistence attached,
//! start the serve loops and take the base checkpoint. `setup_s` is the
//! wall time of exactly this, until the first op can be served.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use gda::persist::PersistOptions;
use gda::{EdgeSpec, GdaDb, GdaRank, VertexSpec};
use graphgen::load::{edge_spec, vertex_spec};
use graphgen::{install_metadata, sized_config, GraphSpec, LpgMeta};
use rma::{BackendKind, CostModel, Fabric, RankReport};
use server::{GdiServer, ServerOptions};

use crate::trace::{SpanId, Tracer};

/// Fabric ranks: two, so remote RMA exists on a 2-core host.
pub const P: usize = 2;

/// A loaded, not yet serving database.
pub struct Loaded {
    pub db: Arc<GdaDb>,
    pub fabric: Fabric,
    pub spec: GraphSpec,
    pub meta: LpgMeta,
    pub started: Instant,
    pub setup_span: SpanId,
    pub gen_s: f64,
    pub bulk_s: f64,
}

/// Generate `spec` and bulk-load it (per-label indexes first when
/// `label_indexes`), with durability (no fsync) under `dir`.
pub fn load(
    spec: GraphSpec,
    label_indexes: bool,
    dir: &std::path::Path,
    tracer: &Tracer,
) -> Loaded {
    let started = Instant::now();
    let setup_span = tracer.open("setup", SpanId::NONE, 0);
    let mut cfg = sized_config(&spec, P);
    // the engine default, so a uniform key stream does not fit the cache
    cfg.translation_cache_capacity = gda::GdaConfig::default().translation_cache_capacity;
    let db = GdaDb::new("bench", cfg, P);
    db.enable_persistence(PersistOptions::new(dir).backend(BackendKind::Wall))
        .expect("fresh persistence dir");
    let fabric = cfg.build_fabric_on(P, CostModel::default(), BackendKind::Wall);
    let mut per_rank = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let meta = install_metadata(&eng, &spec.lpg);
        if label_indexes {
            // postings are maintained from creation on: create before ingest
            // (what `workloads::queries::load_with_label_indexes` does, split
            // here so generation and ingestion are timed apart)
            if eng.rank() == 0 {
                for (i, l) in meta.labels.iter().enumerate() {
                    eng.create_index(&format!("lab{i}"), vec![*l], Vec::new())
                        .expect("fresh database");
                }
            }
            ctx.barrier();
        }
        let t_gen = tracer.now_ns();
        let vertices: Vec<VertexSpec> = spec
            .vertices_for_rank(eng.rank(), P)
            .into_iter()
            .map(|app| vertex_spec(&spec, &meta, app))
            .collect();
        let edges: Vec<EdgeSpec> = spec
            .edges_for_rank(eng.rank(), P)
            .into_iter()
            .map(|(u, v)| edge_spec(&spec, &meta, u, v))
            .collect();
        let t_bulk = tracer.now_ns();
        eng.bulk_load(vertices, edges).expect("bulk load");
        let t_end = tracer.now_ns();
        (meta, t_gen, t_bulk, t_end)
    });
    let (meta, t_gen, t_bulk, t_end) = per_rank.swap_remove(0);
    tracer.record("graphgen.generate", setup_span, 0, t_gen, t_bulk);
    tracer.record("bulk.load", setup_span, 0, t_bulk, t_end);
    Loaded {
        db,
        fabric,
        spec,
        meta,
        started,
        setup_span,
        gen_s: (t_bulk - t_gen) as f64 / 1e9,
        bulk_s: (t_end - t_bulk) as f64 / 1e9,
    }
}

/// Shuts the server down when the workload body unwinds, so the scoped
/// serving thread ends and the panic can propagate instead of hanging.
struct ShutdownOnDrop<'a>(&'a GdiServer);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Run `body` against a server whose rank loops are live on `fabric`;
/// shuts down and joins the loops afterwards.
pub fn serve<R>(
    db: &Arc<GdaDb>,
    fabric: &Fabric,
    opts: ServerOptions,
    body: impl FnOnce(&GdiServer) -> R,
) -> R {
    let server = GdiServer::new(db.clone(), opts);
    serve_on(&server, fabric, body)
}

/// [`serve`] for an already constructed server (the recovery path).
pub fn serve_on<R>(server: &GdiServer, fabric: &Fabric, body: impl FnOnce(&GdiServer) -> R) -> R {
    std::thread::scope(|scope| {
        let ranks = scope.spawn(move || {
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fabric.run(|ctx| server.serve_rank(ctx))
            }));
            if served.is_err() {
                // A dead rank leaves collective-job tickets pending for
                // ever; the client would wait on one until the driver's
                // timeout. The panic message is already on stderr.
                eprintln!("gdi-benchmark: a serving rank panicked");
                crate::host::remove_scratch_dirs();
                std::process::exit(101);
            }
        });
        let out = {
            let _guard = ShutdownOnDrop(server);
            body(server)
        };
        ranks.join().expect("serving fabric panicked");
        out
    })
}

/// Finish set-up on a live server: the full base checkpoint. Returns
/// `(setup_s, checkpoint_full_s, checkpoint bytes)`.
pub fn base_checkpoint(loaded: &Loaded, server: &GdiServer, tracer: &Tracer) -> (f64, f64, u64) {
    let t = Instant::now();
    let report = tracer.time("persist.checkpoint_full", loaded.setup_span, 0, |_| {
        server.checkpoint().expect("base checkpoint")
    });
    assert!(report.full, "the first checkpoint must be a full snapshot");
    let ckpt_s = t.elapsed().as_secs_f64();
    tracer.close(loaded.setup_span);
    (
        loaded.started.elapsed().as_secs_f64(),
        ckpt_s,
        report.per_rank_bytes.iter().sum(),
    )
}

/// Run `f` on every serving rank at the next rendezvous and return the
/// per-rank results: the benchmark's window into rank-local state
/// (fabric counters, cache stats) and its way to time calls into the
/// engine from a rank thread.
pub fn on_ranks<T: Send + 'static>(
    server: &GdiServer,
    f: impl for<'r, 'd, 'c, 'f> Fn(&'r GdaRank<'d, 'c, 'f>) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let slots: Arc<Mutex<Vec<Option<T>>>> = Arc::new(Mutex::new((0..P).map(|_| None).collect()));
    let sink = slots.clone();
    let ticket = server
        .submit_olap(move |eng| {
            sink.lock().expect("slots lock")[eng.rank()] = Some(f(eng));
            0.0
        })
        .expect("server accepts collective jobs");
    assert!(ticket.wait().is_committed(), "collective job did not run");
    let mut slots = slots.lock().expect("slots lock");
    slots
        .iter_mut()
        .map(|s| s.take().expect("every rank reported"))
        .collect()
}

/// Bytes in the redo files right now. A checkpoint truncates them, so
/// while no append is in flight this equals what the fabric's log-write
/// counters recorded since the last checkpoint — the cross-check of the
/// counters against the directory.
pub fn redo_bytes_on_disk(server: &GdiServer) -> u64 {
    let store = server.db().persistence().expect("persistence is on");
    (0..P)
        .map(|r| {
            std::fs::metadata(store.dir().join(format!("redo-rank-{r}.log"))).map_or(0, |m| m.len())
        })
        .sum()
}

/// Every rank's fabric counters, summed.
pub fn fabric_counters(server: &GdiServer) -> RankReport {
    let mut sum = RankReport::default();
    for r in on_ranks(server, |eng| eng.ctx().stats_snapshot()) {
        sum.merge(&r);
    }
    sum
}
