//! Figure 6e/6f: BFS and k-hop runtimes — GDA vs the Graph500 reference
//! BFS and the Neo4j baseline.
//!
//! The key relationship to reproduce (§6.5): GDA's transactional LPG BFS
//! lands within a small factor (paper: 2–4×, sometimes parity) of the
//! bare-metal Graph500 kernel, while Neo4j is orders of magnitude slower.

use gdi_bench::{
    args_without_backend, backend_selection, emit, emit_series_json, for_backends, gda_olap,
    graph500_bfs, label_series, neo4j_olap, render_series, sweep_runtime, OlapAlgo, RunParams,
    ViewMode,
};
use graphgen::LpgConfig;

/// Figure-local adapter: every series in this binary uses the default
/// LPG configuration.
fn sweep(
    name: &str,
    params: &RunParams,
    weak: bool,
    runner: impl Fn(usize, &graphgen::GraphSpec) -> f64,
) -> gdi_bench::Series {
    sweep_runtime(name, params, weak, LpgConfig::default(), runner)
}

fn main() {
    let mode = args_without_backend()
        .into_iter()
        .next()
        .unwrap_or_else(|| "all".into());
    let backends = backend_selection();
    let params = RunParams::from_env();

    for (weak, label, file) in [
        (
            true,
            "Fig. 6e — BFS & k-hop weak scaling",
            "fig6e_traversal_weak",
        ),
        (
            false,
            "Fig. 6f — BFS & k-hop strong scaling",
            "fig6f_traversal_strong",
        ),
    ] {
        if mode != "all" && ((weak && mode != "weak") || (!weak && mode != "strong")) {
            continue;
        }
        let mut series = Vec::new();
        for_backends(&backends, |b| {
            for k in [2u32, 3, 4] {
                series.push(label_series(
                    sweep(&format!("{k}-Hop/GDA"), &params, weak, |p, s| {
                        gda_olap(b, p, s, OlapAlgo::Khop(k), ViewMode::Tx)
                    }),
                    b,
                ));
                series.push(label_series(
                    sweep(&format!("{k}-Hop/GDA-scan"), &params, weak, |p, s| {
                        gda_olap(b, p, s, OlapAlgo::Khop(k), ViewMode::Scan)
                    }),
                    b,
                ));
            }
            series.push(label_series(
                sweep("BFS/GDA", &params, weak, |p, s| {
                    gda_olap(b, p, s, OlapAlgo::Bfs, ViewMode::Tx)
                }),
                b,
            ));
            series.push(label_series(
                sweep("BFS/GDA-scan", &params, weak, |p, s| {
                    gda_olap(b, p, s, OlapAlgo::Bfs, ViewMode::Scan)
                }),
                b,
            ));
            series.push(label_series(
                sweep("BFS/Graph500", &params, weak, |p, s| graph500_bfs(b, p, s)),
                b,
            ));
            series.push(label_series(
                sweep("BFS/Neo4j", &params, weak, |p, s| {
                    neo4j_olap(b, p, s, OlapAlgo::Bfs)
                }),
                b,
            ));
            series.push(label_series(
                sweep("4-Hop/Neo4j", &params, weak, |p, s| {
                    neo4j_olap(b, p, s, OlapAlgo::Khop(4))
                }),
                b,
            ));
        });
        let mut out = render_series(label, "runtime_s", &series);
        // headline ratio: GDA BFS vs Graph500 at the largest point (the
        // simulated pair; absent on a wall-only run)
        let gda = series.iter().find(|s| s.name == "BFS/GDA");
        let g500 = series.iter().find(|s| s.name == "BFS/Graph500");
        if let (Some(a), Some(b)) = (
            gda.and_then(|s| s.points.last()),
            g500.and_then(|s| s.points.last()),
        ) {
            out.push_str(&format!(
                "\nGDA/Graph500 BFS ratio at P={}: {:.2}x (paper: 2-4x, sometimes parity)\n",
                a.nranks,
                a.value / b.value
            ));
        }
        emit(file, &out);
        emit_series_json(file, &series);
    }
}
