//! Figure 4: OLTP throughput, weak and strong scaling.
//!
//! * `weak` — Fig. 4a: Read Mostly & Read Intensive, dataset grows with
//!   the rank count.
//! * `strong` — Fig. 4b: same mixes, fixed dataset.
//! * `weak-write` — Fig. 4c: LinkBench & Write Intensive (+ JanusGraph
//!   LinkBench baseline), with failed-transaction percentages.
//! * `strong-write` — Fig. 4d: same, fixed dataset.
//! * `all` — everything (default).
//!
//! `--backend sim|wall|both` selects the fabric execution backend;
//! `both` emits paired series (simulated names unchanged — the
//! committed baseline — wall-clock ones suffixed `/wall`,
//! nondeterministic).

use gdi_bench::{
    args_without_backend, backend_selection, emit, emit_series_json, for_backends, gda_oltp,
    janus_oltp, label_series, render_series, sweep, RunParams, Series,
};
use graphgen::LpgConfig;
use workloads::oltp::Mix;

fn main() {
    let mode = args_without_backend()
        .into_iter()
        .next()
        .unwrap_or_else(|| "all".into());
    let backends = backend_selection();
    let params = RunParams::from_env();
    let ops = params.ops_per_rank;

    let read_mixes = [Mix::READ_MOSTLY, Mix::READ_INTENSIVE];
    let write_mixes = [Mix::LINKBENCH, Mix::WRITE_INTENSIVE];

    if mode == "weak" || mode == "all" {
        let mut series: Vec<Series> = Vec::new();
        for_backends(&backends, |b| {
            series.extend(read_mixes.iter().map(|m| {
                label_series(
                    sweep(
                        &format!("{}/GDA", m.name),
                        &params,
                        true,
                        LpgConfig::default(),
                        |p, s| gda_oltp(b, p, s, m, ops),
                    ),
                    b,
                )
            }));
        });
        emit(
            "fig4a_oltp_weak",
            &render_series("Fig. 4a — RI/RM weak scaling", "MQ/s", &series),
        );
        emit_series_json("fig4a_oltp_weak", &series);
    }
    if mode == "strong" || mode == "all" {
        let mut series: Vec<Series> = Vec::new();
        for_backends(&backends, |b| {
            series.extend(read_mixes.iter().map(|m| {
                label_series(
                    sweep(
                        &format!("{}/GDA", m.name),
                        &params,
                        false,
                        LpgConfig::default(),
                        |p, s| gda_oltp(b, p, s, m, ops),
                    ),
                    b,
                )
            }));
        });
        emit(
            "fig4b_oltp_strong",
            &render_series("Fig. 4b — RI/RM strong scaling", "MQ/s", &series),
        );
        emit_series_json("fig4b_oltp_strong", &series);
    }
    if mode == "weak-write" || mode == "all" {
        let mut series: Vec<Series> = Vec::new();
        for_backends(&backends, |b| {
            series.extend(write_mixes.iter().map(|m| {
                label_series(
                    sweep(
                        &format!("{}/GDA", m.name),
                        &params,
                        true,
                        LpgConfig::default(),
                        |p, s| gda_oltp(b, p, s, m, ops),
                    ),
                    b,
                )
            }));
            series.push(label_series(
                sweep(
                    "LinkBench/JanusGraph",
                    &params,
                    true,
                    LpgConfig::default(),
                    |p, s| janus_oltp(b, p, s, &Mix::LINKBENCH, ops),
                ),
                b,
            ));
        });
        emit(
            "fig4c_oltp_weak_write",
            &render_series("Fig. 4c — LinkBench/WI weak scaling", "MQ/s", &series),
        );
        emit_series_json("fig4c_oltp_weak_write", &series);
    }
    if mode == "strong-write" || mode == "all" {
        let mut series: Vec<Series> = Vec::new();
        for_backends(&backends, |b| {
            series.extend(write_mixes.iter().map(|m| {
                label_series(
                    sweep(
                        &format!("{}/GDA", m.name),
                        &params,
                        false,
                        LpgConfig::default(),
                        |p, s| gda_oltp(b, p, s, m, ops),
                    ),
                    b,
                )
            }));
            series.push(label_series(
                sweep(
                    "LinkBench/JanusGraph",
                    &params,
                    false,
                    LpgConfig::default(),
                    |p, s| janus_oltp(b, p, s, &Mix::LINKBENCH, ops),
                ),
                b,
            ));
        });
        emit(
            "fig4d_oltp_strong_write",
            &render_series("Fig. 4d — LinkBench/WI strong scaling", "MQ/s", &series),
        );
        emit_series_json("fig4d_oltp_strong_write", &series);
    }
}
