//! Figure 5: per-operation latency histograms of the LinkBench workload
//! on GDA, JanusGraph-like and Neo4j-like, for 1–8 servers.
//!
//! The paper's observations to reproduce: GDA's operations sit at
//! microsecond scale (sub-µs local at 1 server, 10–100 µs distributed);
//! JanusGraph needs at least ~200 µs with deletions from ~2000 µs; Neo4j
//! is millisecond-scale with outliers.

use gdi_bench::{
    backend_selection, emit, emit_json, for_backends, gda_oltp_detailed, janus_oltp_detailed,
    neo4j_oltp_detailed, spec_for, BackendKind, RunParams,
};
use graphgen::LpgConfig;
use workloads::latency::Histogram;
use workloads::oltp::{Mix, OltpResult, OpKind};

fn merged(results: &[OltpResult], kind: OpKind) -> Histogram {
    let mut h = Histogram::new();
    for r in results {
        if let Some((_, st)) = r.per_op.iter().find(|(k, _)| *k == kind) {
            h.merge(&st.latency);
        }
    }
    h
}

fn main() {
    // `--backend sim|wall|both`: wall runs land under `fig5_latency_wall`
    for_backends(&backend_selection(), run_on);
}

fn run_on(backend: BackendKind) {
    let bench = match backend {
        BackendKind::Sim => "fig5_latency",
        BackendKind::Wall => "fig5_latency_wall",
    };
    let params = RunParams::from_env();
    let ops = params.ops_per_rank;
    let mut out = String::from("### Fig. 5 — LinkBench per-operation latency\n");
    if backend == BackendKind::Wall {
        out.push_str("### (wall-clock backend: latencies are hardware-dependent)\n");
    }
    let mut json_rows: Vec<String> = Vec::new();
    out.push_str(&format!(
        "{:<10} {:<7} {:<17} {:>8} {:>12} {:>12} {:>12}\n",
        "system", "servers", "operation", "count", "mean_us", "p50_us", "p99_us"
    ));

    for &nranks in &params.ranks {
        if nranks > 8 {
            continue; // the paper plots S1..S8
        }
        let spec = spec_for(params.base_scale, params.seed, LpgConfig::default());
        let systems: Vec<(&str, Vec<OltpResult>)> = vec![
            (
                "GDA",
                gda_oltp_detailed(backend, nranks, &spec, &Mix::LINKBENCH, ops),
            ),
            (
                "Janus",
                janus_oltp_detailed(nranks, &spec, &Mix::LINKBENCH, ops),
            ),
            (
                "Neo4j",
                neo4j_oltp_detailed(nranks, &spec, &Mix::LINKBENCH, ops),
            ),
        ];
        for (sys, results) in &systems {
            for kind in OpKind::ALL {
                let h = merged(results, kind);
                if h.count() == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{:<10} {:<7} {:<17} {:>8} {:>12.2} {:>12.2} {:>12.2}\n",
                    sys,
                    format!("S{nranks}"),
                    kind.name(),
                    h.count(),
                    h.mean_ns() / 1e3,
                    h.percentile_ns(50.0) / 1e3,
                    h.percentile_ns(99.0) / 1e3,
                ));
                json_rows.push(format!(
                    "{{\"system\":\"{sys}\",\"servers\":{nranks},\"op\":\"{}\",\
                     \"count\":{},\"mean_us\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3}}}",
                    kind.name(),
                    h.count(),
                    h.mean_ns() / 1e3,
                    h.percentile_ns(50.0) / 1e3,
                    h.percentile_ns(99.0) / 1e3,
                ));
            }
        }
        eprintln!("  [fig5] S{nranks} done");
    }
    // histogram series (bucket, count) for plotting, GDA S-max
    out.push_str(
        "\n# log2-bucket histograms (lower edge in us : count), LinkBench 'retrieve vertex'\n",
    );
    let last = *params.ranks.iter().filter(|&&r| r <= 8).max().unwrap_or(&1);
    let spec = spec_for(params.base_scale, params.seed, LpgConfig::default());
    for (sys, results) in [
        (
            "GDA",
            gda_oltp_detailed(backend, last, &spec, &Mix::LINKBENCH, ops),
        ),
        (
            "Janus",
            janus_oltp_detailed(last, &spec, &Mix::LINKBENCH, ops),
        ),
        (
            "Neo4j",
            neo4j_oltp_detailed(last, &spec, &Mix::LINKBENCH, ops),
        ),
    ] {
        let h = merged(&results, OpKind::GetVertexProps);
        out.push_str(&format!("{sys} S{last}: "));
        for (edge, c) in h.series() {
            out.push_str(&format!("{:.1}:{c} ", edge / 1e3));
        }
        out.push('\n');
    }
    emit(bench, &out);
    emit_json(
        bench,
        &format!(
            "{{\"bench\":\"{bench}\",\"backend\":\"{}\",\"points\":[{}]}}",
            backend.label(),
            json_rows.join(",")
        ),
    );
}
