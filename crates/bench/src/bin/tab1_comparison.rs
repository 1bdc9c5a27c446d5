//! Table 1: comparison of graph databases.
//!
//! The literature rows are reproduced from the paper; the "This work" row
//! is filled from this reproduction's largest verified (simulated)
//! configuration, so re-running after bigger experiments updates it.

use gdi_bench::{
    backend_selection, emit, emit_json, for_backends, gda_oltp, spec_for, BackendKind, RunParams,
};
use graphgen::LpgConfig;
use workloads::oltp::Mix;

struct Row {
    system: &'static str,
    rdma: &'static str,
    prog: &'static str,
    port: &'static str,
    workloads: &'static str,
    scale: String,
}

fn main() {
    // `--backend sim|wall|both`: wall runs land under `tab1_comparison_wall`
    for_backends(&backend_selection(), run_on);
}

fn run_on(backend: BackendKind) {
    let bench = match backend {
        BackendKind::Sim => "tab1_comparison",
        BackendKind::Wall => "tab1_comparison_wall",
    };
    let params = RunParams::from_env();
    // measure our largest point so the row reports verified numbers
    let nranks = *params.ranks.iter().max().unwrap_or(&4);
    let scale = params.weak_scale(nranks);
    let spec = spec_for(scale, params.seed, LpgConfig::default());
    let (mqps, _) = gda_oltp(
        backend,
        nranks,
        &spec,
        &Mix::READ_MOSTLY,
        params.ops_per_rank,
    );

    let rows = vec![
        Row {
            system: "A1",
            rdma: "yes",
            prog: "no",
            port: "no",
            workloads: "OLTP",
            scale: "245 srv / 2,940 cores / 3.2 TB".into(),
        },
        Row {
            system: "GAIA",
            rdma: "no",
            prog: "no",
            port: "no",
            workloads: "OLAP",
            scale: "16 srv / 384 cores / 1.96 TB".into(),
        },
        Row {
            system: "G-Tran",
            rdma: "yes",
            prog: "no",
            port: "no",
            workloads: "OLTP",
            scale: "10 srv / 160 cores / 1.28 TB".into(),
        },
        Row {
            system: "Neo4j",
            rdma: "no",
            prog: "partial",
            port: "no",
            workloads: "OLTP+OLAP",
            scale: "1 srv / 128 cores / 6.9 TB".into(),
        },
        Row {
            system: "TigerGraph",
            rdma: "no",
            prog: "no",
            port: "no",
            workloads: "OLTP+OLAP",
            scale: "40 srv / 1,600 cores / 17.7 TB".into(),
        },
        Row {
            system: "JanusGraph",
            rdma: "no",
            prog: "partial",
            port: "no",
            workloads: "OLTP+OLAP",
            scale: "N/A".into(),
        },
        Row {
            system: "Weaver",
            rdma: "no",
            prog: "no",
            port: "no",
            workloads: "OLTP",
            scale: "44 srv / 352 cores / 0.976 TB".into(),
        },
        Row {
            system: "Wukong",
            rdma: "yes",
            prog: "no",
            port: "no",
            workloads: "OLTP(RDF)",
            scale: "6 srv / 120 cores / 0.384 TB".into(),
        },
        Row {
            system: "ByteGraph",
            rdma: "no",
            prog: "partial",
            port: "no",
            workloads: "OLTP+OLAP+OLSP",
            scale: "130 srv / 113 TB (OLAP)".into(),
        },
        Row {
            system: "This work (paper)",
            rdma: "yes",
            prog: "yes",
            port: "yes (wR+bR)",
            workloads: "OLTP+OLAP+OLSP+BULK",
            scale: "7,142 srv / 121,680 cores / 77.3 TB / 549.8B edges".into(),
        },
        Row {
            system: "This repro (measured)",
            rdma: match backend {
                BackendKind::Sim => "simulated",
                BackendKind::Wall => "shared-mem (wall)",
            },
            prog: "yes",
            port: "yes",
            workloads: "OLTP+OLAP+OLSP+BULK",
            scale: format!(
                "{nranks} ranks / 2^{scale} vertices / {} edges / {mqps:.3} MQ/s RM",
                spec.n_edges()
            ),
        },
    ];

    let mut out = String::from("### Table 1 — comparison of graph databases\n");
    out.push_str(&format!(
        "{:<22} {:<10} {:<8} {:<12} {:<22} {}\n",
        "system", "RDMA?", "Prog.?", "Port.?", "workloads", "achieved scale"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:<10} {:<8} {:<12} {:<22} {}\n",
            r.system, r.rdma, r.prog, r.port, r.workloads, r.scale
        ));
    }
    out.push_str("\nTheoretical performance analysis (Th.? column): see gda::analysis --\n");
    out.push_str(&gda::analysis::render_markdown());
    emit(bench, &out);
    emit_json(
        bench,
        &format!(
            "{{\"bench\":\"{bench}\",\"backend\":\"{}\",\"measured\":{{\"nranks\":{nranks},\
             \"scale\":{scale},\"edges\":{},\"read_mostly_mqps\":{mqps:.6}}}}}",
            backend.label(),
            spec.n_edges()
        ),
    );
}
