//! `olap_scan_sweep` — the zero-transaction OLAP scan layer's cost
//! curves (`gda::scan`), with the tx-based builder as differential
//! oracle.
//!
//! Per (ranks, scale) point the harness measures, on the simulated
//! clock:
//!
//! * **view build** — the tx-based builder (`build_view`: DHT
//!   translation + per-vertex `neighbors` through a collective read
//!   transaction), the index-seeded tx builder (`build_view_indexed`),
//!   and the raw-window **scan** build (`gda::scan`);
//! * **end-to-end PageRank** — view build + 10 power iterations, tx
//!   path vs scan path (`GdaRank::olap_view`);
//! * **view reuse** — a second PageRank job against the cached,
//!   epoch-revalidated mirror (the server-side caching win);
//! * **`neighbors_matching`** — per-candidate blocking fetches
//!   (the pre-batching behaviour, emulated with per-candidate
//!   `associate_vertex`) vs the pipelined nb-batch fetch (the
//!   regression guard for that satellite fix).
//!
//! At every point the scan-built view must be **logically identical**
//! to the tx-built view and PageRank, WCC and BFS on the two must match
//! exactly — the process aborts on any divergence.
//!
//! `--smoke` runs one small point (the CI guard: zero divergence and a
//! minimum view-build speedup at P=2).

use gdi::{AccessMode, Constraint, EdgeOrientation};
use gdi_bench::{
    backend_selection, emit, emit_json_unless_smoke, for_backends, spec_for, BackendKind, RunParams,
};
use graphgen::{load_into, sized_config, LpgConfig};
use rma::CostModel;
use workloads::analytics::{
    bfs, build_view, build_view_indexed, pagerank, scan_view, wcc_converged,
};

#[derive(Debug, Clone, Copy, Default)]
struct PointOut {
    nranks: usize,
    scale: u32,
    vertices: u64,
    /// Max-over-ranks simulated seconds per phase.
    tx_build_s: f64,
    ix_build_s: f64,
    scan_build_s: f64,
    pr_tx_s: f64,
    pr_scan_s: f64,
    pr_reuse_s: f64,
    nm_seq_s: f64,
    nm_batch_s: f64,
    /// Oracle failures (rows/scores differing) — must be zero.
    divergence: u64,
    scan_reuses: u64,
    scan_builds: u64,
}

fn run_point(nranks: usize, scale: u32) -> PointOut {
    let spec = spec_for(scale, 42, LpgConfig::default());
    let cfg = sized_config(&spec, nranks);
    let (db, fabric) = gda::GdaDb::with_fabric("olap-scan", cfg, nranks, CostModel::default());
    let outs = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_into(&eng, &spec);
        let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
        let mut p = PointOut {
            nranks,
            scale,
            vertices: spec.n_vertices(),
            ..PointOut::default()
        };
        let timed = |f: &mut dyn FnMut()| {
            ctx.barrier();
            let t0 = ctx.now_ns();
            f();
            ctx.barrier();
            (ctx.now_ns() - t0) / 1e9
        };

        // ---- view builds ---------------------------------------------
        // every measured phase runs on a *fresh attach*: an OLAP job
        // arrives with cold per-rank caches (exactly what each
        // `gda_olap` fabric run pays), so the tx path's translation
        // cache cannot leak warmth from one phase into the next
        let mut tx_view = None;
        {
            let eng = db.attach(ctx);
            p.tx_build_s = timed(&mut || tx_view = Some(build_view(&eng, &apps)));
        }
        let tx_view = tx_view.unwrap();
        let mut ix_view = None;
        let ix = meta.all_index.expect("generator installs __all index");
        p.ix_build_s = timed(&mut || ix_view = Some(build_view_indexed(&eng, ix)));
        let ix_view = ix_view.unwrap();
        let mut sc_view = None;
        p.scan_build_s = timed(&mut || sc_view = Some(scan_view(&eng)));
        let sc_view = sc_view.unwrap();

        // ---- differential oracle: scan ≡ tx, edge for edge -----------
        if !sc_view.logical_eq(&tx_view) {
            p.divergence += 1;
        }
        if !sc_view.logical_eq(&ix_view) {
            p.divergence += 1;
        }

        // ---- end-to-end PageRank -------------------------------------
        let mut pr_tx = Vec::new();
        {
            let eng = db.attach(ctx); // cold job
            p.pr_tx_s = timed(&mut || {
                let v = build_view(&eng, &apps);
                pr_tx = pagerank(&eng, &v, 10, 0.85);
            });
        }
        let eng_srv = db.attach(ctx); // one serving attach for both jobs
        let mut pr_scan = Vec::new();
        p.pr_scan_s = timed(&mut || {
            let v = eng_srv.olap_view(); // first call: builds the mirror
            pr_scan = pagerank(&eng_srv, &v, 10, 0.85);
        });
        if pr_tx != pr_scan {
            p.divergence += 1;
        }
        // a second job against the cached mirror (one epoch
        // revalidation, zero sweep work — the server reuse path)
        let mut pr_reuse = Vec::new();
        p.pr_reuse_s = timed(&mut || {
            let v = eng_srv.olap_view();
            pr_reuse = pagerank(&eng_srv, &v, 10, 0.85);
        });
        if pr_tx != pr_reuse {
            p.divergence += 1;
        }
        // the other kernels on the cached mirror vs the tx view: same
        // dense numbering, same halo, so the answers are identical
        let mirror = eng_srv.olap_view();
        let root = gdi_bench::bfs_root(&spec);
        if wcc_converged(&eng, &tx_view) != wcc_converged(&eng_srv, &mirror) {
            p.divergence += 1;
        }
        if bfs(&eng, &tx_view, root) != bfs(&eng_srv, &mirror, root) {
            p.divergence += 1;
        }

        // ---- neighbors_matching: blocking vs pipelined ---------------
        // the K highest-degree local vertices give the fetch-heavy case
        let mut by_deg: Vec<usize> = (0..sc_view.len()).collect();
        by_deg.sort_by_key(|&i| std::cmp::Reverse(sc_view.any(i).len()));
        let probes: Vec<gda::DPtr> = by_deg
            .into_iter()
            .take(16)
            .filter(|&i| !sc_view.any(i).is_empty())
            .map(|i| sc_view.vids[i])
            .collect();
        let all = Constraint::any();
        p.nm_seq_s = timed(&mut || {
            // the pre-batching behaviour: one blocking chain walk per
            // distinct candidate (fresh transaction per probe, which
            // keeps nothing: repeats are skipped here as in the batch)
            for &v in &probes {
                let tx = eng.begin(AccessMode::ReadOnly);
                let mut seen = std::collections::HashSet::from([v]);
                for nbr in tx.neighbors(v, EdgeOrientation::Any, None).unwrap() {
                    if seen.insert(nbr) {
                        tx.associate_vertex(nbr).unwrap();
                    }
                }
                tx.commit().unwrap();
            }
        });
        p.nm_batch_s = timed(&mut || {
            for &v in &probes {
                let tx = eng.begin(AccessMode::ReadOnly);
                tx.neighbors_matching(v, EdgeOrientation::Any, None, &all)
                    .unwrap();
                tx.commit().unwrap();
            }
        });

        let stats = ctx.stats_snapshot();
        p.scan_reuses = stats.scan_reuses;
        p.scan_builds = stats.scan_builds;
        p
    });
    // aggregate: max over ranks for times, sums for counters
    let mut agg = PointOut {
        nranks,
        scale,
        vertices: outs[0].vertices,
        ..PointOut::default()
    };
    for o in outs {
        agg.tx_build_s = agg.tx_build_s.max(o.tx_build_s);
        agg.ix_build_s = agg.ix_build_s.max(o.ix_build_s);
        agg.scan_build_s = agg.scan_build_s.max(o.scan_build_s);
        agg.pr_tx_s = agg.pr_tx_s.max(o.pr_tx_s);
        agg.pr_scan_s = agg.pr_scan_s.max(o.pr_scan_s);
        agg.pr_reuse_s = agg.pr_reuse_s.max(o.pr_reuse_s);
        agg.nm_seq_s = agg.nm_seq_s.max(o.nm_seq_s);
        agg.nm_batch_s = agg.nm_batch_s.max(o.nm_batch_s);
        agg.divergence += o.divergence;
        agg.scan_reuses += o.scan_reuses;
        agg.scan_builds += o.scan_builds;
    }
    agg
}

fn main() {
    // `--backend sim|wall|both`: wall runs land under
    // `olap_scan_sweep_wall`; the correctness guards (zero divergence,
    // view reuse) gate on both backends, the modeled-speedup floors only
    // on the simulated one
    for_backends(&backend_selection(), run_on);
}

fn run_on(backend: BackendKind) {
    let bench = match backend {
        BackendKind::Sim => "olap_scan_sweep",
        BackendKind::Wall => "olap_scan_sweep_wall",
    };
    let smoke = std::env::args().any(|a| a == "--smoke");
    let params = RunParams::from_env();
    let points: Vec<(usize, u32)> = if smoke {
        vec![(2, 8)]
    } else {
        params
            .ranks
            .iter()
            .map(|&pr| (pr, params.weak_scale(pr)))
            .collect()
    };

    let mut results = Vec::new();
    for &(nranks, scale) in &points {
        eprintln!("  [olap_scan_sweep] P={nranks} s={scale} ...");
        let r = run_point(nranks, scale);
        eprintln!(
            "  [olap_scan_sweep] P={nranks} s={scale}: build tx {:.3} / ix {:.3} / scan {:.3} \
             sim ms ({:.2}x vs tx), PR e2e {:.3} -> {:.3} sim ms ({:.2}x), reuse {:.3} ms, \
             nm {:.3} -> {:.3} ms, divergence {}",
            r.tx_build_s * 1e3,
            r.ix_build_s * 1e3,
            r.scan_build_s * 1e3,
            r.tx_build_s / r.scan_build_s,
            r.pr_tx_s * 1e3,
            r.pr_scan_s * 1e3,
            r.pr_tx_s / r.pr_scan_s,
            r.pr_reuse_s * 1e3,
            r.nm_seq_s * 1e3,
            r.nm_batch_s * 1e3,
            r.divergence,
        );
        results.push(r);
    }

    let mut out =
        String::from("### olap_scan_sweep — zero-transaction CSR scan vs tx-based view build\n");
    out.push_str(&format!(
        "{:<6} {:>6} {:>9} {:>11} {:>11} {:>11} {:>8} {:>10} {:>10} {:>10} {:>8} {:>9} {:>9} {:>6}\n",
        "ranks",
        "scale",
        "vertices",
        "tx ms",
        "ix ms",
        "scan ms",
        "speedup",
        "PRtx ms",
        "PRscan ms",
        "reuse ms",
        "PR x",
        "nm seq",
        "nm batch",
        "div"
    ));
    for r in &results {
        out.push_str(&format!(
            "{:<6} {:>6} {:>9} {:>11.3} {:>11.3} {:>11.3} {:>7.2}x {:>10.3} {:>10.3} {:>10.3} {:>7.2}x {:>9.3} {:>9.3} {:>6}\n",
            r.nranks,
            r.scale,
            r.vertices,
            r.tx_build_s * 1e3,
            r.ix_build_s * 1e3,
            r.scan_build_s * 1e3,
            r.tx_build_s / r.scan_build_s,
            r.pr_tx_s * 1e3,
            r.pr_scan_s * 1e3,
            r.pr_reuse_s * 1e3,
            r.pr_tx_s / r.pr_scan_s,
            r.nm_seq_s * 1e3,
            r.nm_batch_s * 1e3,
            r.divergence
        ));
    }
    emit(bench, &out);

    let mut json = format!(
        "{{\"bench\":\"{bench}\",\"backend\":\"{}\",\"points\":[",
        backend.label()
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"nranks\":{},\"scale\":{},\"vertices\":{},\"tx_build_s\":{:.9},\
             \"ix_build_s\":{:.9},\"scan_build_s\":{:.9},\"build_speedup\":{:.3},\
             \"pr_tx_s\":{:.9},\"pr_scan_s\":{:.9},\"pr_reuse_s\":{:.9},\
             \"pr_speedup\":{:.3},\"nm_seq_s\":{:.9},\"nm_batch_s\":{:.9},\
             \"divergence\":{},\"scan_builds\":{},\"scan_reuses\":{}}}",
            r.nranks,
            r.scale,
            r.vertices,
            r.tx_build_s,
            r.ix_build_s,
            r.scan_build_s,
            r.tx_build_s / r.scan_build_s,
            r.pr_tx_s,
            r.pr_scan_s,
            r.pr_reuse_s,
            r.pr_tx_s / r.pr_scan_s,
            r.nm_seq_s,
            r.nm_batch_s,
            r.divergence,
            r.scan_builds,
            r.scan_reuses
        ));
    }
    json.push_str("]}");
    emit_json_unless_smoke(bench, &json, smoke);

    // ---- guards ---------------------------------------------------------
    // correctness holds on every backend; the timing floors are LogGP
    // relations and gate only the simulated run
    for r in &results {
        assert_eq!(
            r.divergence, 0,
            "scan view diverged from the tx oracle at P={}",
            r.nranks
        );
        assert!(
            r.scan_reuses > 0,
            "no view reuse observed at P={}",
            r.nranks
        );
        if backend == BackendKind::Sim {
            assert!(
                r.nm_batch_s <= r.nm_seq_s * 1.001,
                "batched neighbors_matching regressed at P={}: {:.6} > {:.6}",
                r.nranks,
                r.nm_batch_s,
                r.nm_seq_s
            );
            assert!(
                r.pr_reuse_s < r.pr_scan_s,
                "cached mirror reuse not cheaper than first build at P={}",
                r.nranks
            );
        }
    }
    let last = results.last().unwrap();
    if backend == BackendKind::Sim {
        let floor = if smoke { 1.5 } else { 3.0 };
        assert!(
            last.tx_build_s / last.scan_build_s >= floor,
            "view-build speedup {:.2}x below the {floor}x target at P={}",
            last.tx_build_s / last.scan_build_s,
            last.nranks
        );
        if !smoke {
            assert!(
                last.pr_tx_s / last.pr_scan_s >= 1.5,
                "end-to-end PageRank speedup {:.2}x below the 1.5x target at P={}",
                last.pr_tx_s / last.pr_scan_s,
                last.nranks
            );
        }
    }
    println!(
        "olap_scan_sweep: all points verified (scan ≡ tx oracle, \
         view-build {:.2}x, PageRank {:.2}x at P={})",
        last.tx_build_s / last.scan_build_s,
        last.pr_tx_s / last.pr_scan_s,
        last.nranks
    );
}
