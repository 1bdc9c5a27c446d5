//! Figure 6c/6d: GNN (graph convolution) training runtimes for feature
//! dimensions k ∈ {4, 16, 64, 256, 500}, weak and strong scaling.
//!
//! Defaults shrink the dimension sweep on small hosts; set
//! `GDI_BENCH_GNN_KS=4,16,64,256,500` for the paper's full set.

use gdi_bench::{
    args_without_backend, backend_selection, emit, emit_series_json, for_backends, gda_olap,
    label_series, render_series, spec_for, OlapAlgo, Point, RunParams, Series, ViewMode,
};
use graphgen::LpgConfig;

fn ks_from_env() -> Vec<usize> {
    std::env::var("GDI_BENCH_GNN_KS")
        .ok()
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![4, 16, 64])
}

fn main() {
    let mode = args_without_backend()
        .into_iter()
        .next()
        .unwrap_or_else(|| "all".into());
    let backends = backend_selection();
    let params = RunParams::from_env();
    // the paper's GNN weak-scaling series uses a smaller per-server graph
    let base = params.base_scale.saturating_sub(1).max(5);
    let layers = 2;

    for (weak, label, file) in [
        (true, "Fig. 6c — GNN weak scaling", "fig6c_gnn_weak"),
        (false, "Fig. 6d — GNN strong scaling", "fig6d_gnn_strong"),
    ] {
        if mode != "all" && ((weak && mode != "weak") || (!weak && mode != "strong")) {
            continue;
        }
        let mut series = Vec::new();
        for_backends(&backends, |b| {
            for k in ks_from_env() {
                // before/after: tx-based view build vs the scan layer (the
                // GNN's feature updates never retire a scan view, so the
                // mirror survives all layers)
                for (tag, view) in [("GDA", ViewMode::Tx), ("GDA-scan", ViewMode::Scan)] {
                    let mut points = Vec::new();
                    for &nranks in &params.ranks {
                        let scale = if weak {
                            base + rma::cost::log2_ceil(nranks)
                        } else {
                            base
                        };
                        let spec = spec_for(scale, params.seed, LpgConfig::bare());
                        let secs = gda_olap(b, nranks, &spec, OlapAlgo::Gnn { layers, k }, view);
                        points.push(Point {
                            nranks,
                            scale,
                            value: secs,
                            fail_frac: 0.0,
                        });
                        eprintln!("  [GNN/{tag} k={k}] P={nranks} s={scale}: {secs:.4}s");
                    }
                    series.push(label_series(
                        Series {
                            name: format!("{tag} k={k}"),
                            points,
                        },
                        b,
                    ));
                }
            }
        });
        emit(file, &render_series(label, "runtime_s", &series));
        emit_series_json(file, &series);
    }
}
