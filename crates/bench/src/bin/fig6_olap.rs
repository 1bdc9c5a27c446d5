//! Figure 6a/6b: OLAP/OLSP runtimes — PageRank, CDLP, WCC (weak scaling)
//! plus LCC and BI2 with the Neo4j baseline (strong scaling).
//!
//! `--backend sim|wall|both` selects the fabric execution backend;
//! `both` emits paired series (wall-clock names suffixed `/wall`,
//! nondeterministic).

use gdi_bench::{
    args_without_backend, backend_selection, emit, emit_series_json, for_backends, gda_olap,
    label_series, neo4j_olap, render_series, rich_lpg, sweep_runtime as sweep, OlapAlgo, RunParams,
    Series, ViewMode,
};
use graphgen::LpgConfig;

fn main() {
    let mode = args_without_backend()
        .into_iter()
        .next()
        .unwrap_or_else(|| "all".into());
    let backends = backend_selection();
    let params = RunParams::from_env();

    if mode == "weak" || mode == "all" {
        let algos = [OlapAlgo::Wcc, OlapAlgo::Cdlp, OlapAlgo::Pagerank];
        let mut series: Vec<Series> = Vec::new();
        for_backends(&backends, |b| {
            for a in algos {
                // before/after: the tx-based view build vs the scan layer
                series.push(label_series(
                    sweep(
                        &format!("{}/GDA", a.name()),
                        &params,
                        true,
                        LpgConfig::default(),
                        |p, s| gda_olap(b, p, s, a, ViewMode::Tx),
                    ),
                    b,
                ));
                series.push(label_series(
                    sweep(
                        &format!("{}/GDA-scan", a.name()),
                        &params,
                        true,
                        LpgConfig::default(),
                        |p, s| gda_olap(b, p, s, a, ViewMode::Scan),
                    ),
                    b,
                ));
            }
        });
        emit(
            "fig6a_olap_weak",
            &render_series("Fig. 6a — PR/CDLP/WCC weak scaling", "runtime_s", &series),
        );
        emit_series_json("fig6a_olap_weak", &series);
    }
    if mode == "strong" || mode == "all" {
        let mut series: Vec<Series> = Vec::new();
        for_backends(&backends, |b| {
            for a in [
                OlapAlgo::Wcc,
                OlapAlgo::Cdlp,
                OlapAlgo::Pagerank,
                OlapAlgo::Lcc,
            ] {
                series.push(label_series(
                    sweep(
                        &format!("{}/GDA", a.name()),
                        &params,
                        false,
                        LpgConfig::default(),
                        |p, s| gda_olap(b, p, s, a, ViewMode::Tx),
                    ),
                    b,
                ));
                series.push(label_series(
                    sweep(
                        &format!("{}/GDA-scan", a.name()),
                        &params,
                        false,
                        LpgConfig::default(),
                        |p, s| gda_olap(b, p, s, a, ViewMode::Scan),
                    ),
                    b,
                ));
            }
            // BI2 runs on the rich LPG configuration; Neo4j comparison included
            series.push(label_series(
                sweep("BI2/GDA", &params, false, rich_lpg(), |p, s| {
                    gda_olap(b, p, s, OlapAlgo::Bi2, ViewMode::Tx)
                }),
                b,
            ));
            series.push(label_series(
                sweep("BI2/Neo4j", &params, false, rich_lpg(), |p, s| {
                    neo4j_olap(b, p, s, OlapAlgo::Bi2)
                }),
                b,
            ));
        });
        emit(
            "fig6b_olap_strong",
            &render_series(
                "Fig. 6b — PR/CDLP/WCC/LCC/BI2 strong scaling",
                "runtime_s",
                &series,
            ),
        );
        emit_series_json("fig6b_olap_strong", &series);
    }
}
