//! §6.6 — varying labels, properties and edge factors.
//!
//! The paper: "graphs with very few [labels/properties] … are mostly
//! dominated by irregular single-block reads and writes. With more labels
//! and properties … reads and writes may access many blocks. GDA's
//! advantages are preserved in all these cases." We sweep the label count,
//! the property count and the edge factor, reporting OLTP Read-Mostly
//! throughput and the per-vertex holder footprint.

use gdi_bench::{
    backend_selection, emit, emit_json, for_backends, gda_oltp, BackendKind, RunParams,
};
use graphgen::{GraphSpec, LpgConfig};
use workloads::oltp::Mix;

fn run(backend: BackendKind, spec: &GraphSpec, nranks: usize, ops: usize) -> (f64, f64) {
    gda_oltp(backend, nranks, spec, &Mix::READ_MOSTLY, ops)
}

fn main() {
    // `--backend sim|wall|both`: wall runs land under `ablation_lp_wall`
    for_backends(&backend_selection(), run_on);
}

fn run_on(backend: BackendKind) {
    let bench = match backend {
        BackendKind::Sim => "ablation_lp",
        BackendKind::Wall => "ablation_lp_wall",
    };
    let params = RunParams::from_env();
    let nranks = *params.ranks.iter().max().unwrap_or(&4);
    let scale = params.base_scale.min(12);
    let ops = params.ops_per_rank;
    let mut out =
        String::from("### §6.6 — varying labels, properties, edge factor (Read Mostly)\n");
    let mut json_rows: Vec<String> = Vec::new();
    out.push_str(&format!(
        "{:<34} {:>8} {:>10} {:>14}\n",
        "configuration", "ranks", "MQ/s", "bytes/vertex"
    ));

    // label sweep
    for labels in [0usize, 5, 20, 40] {
        let lpg = LpgConfig {
            num_labels: labels,
            labels_per_vertex: if labels == 0 { 0 } else { 2 },
            ..LpgConfig::default()
        };
        let spec = GraphSpec {
            scale,
            edge_factor: 16,
            seed: params.seed,
            lpg,
        };
        let (mqps, _) = run(backend, &spec, nranks, ops);
        out.push_str(&format!(
            "{:<34} {:>8} {:>10.4} {:>14}\n",
            format!("labels={labels}"),
            nranks,
            mqps,
            lpg.bytes_per_vertex()
        ));
        eprintln!("  labels={labels}: {mqps:.4} MQ/s");
        json_rows.push(format!(
            "{{\"axis\":\"labels\",\"value\":{labels},\"mqps\":{mqps:.6}}}"
        ));
    }

    // property sweep
    for ptypes in [0usize, 13, 26] {
        let lpg = LpgConfig {
            num_ptypes: ptypes,
            props_per_vertex: if ptypes == 0 { 0 } else { ptypes.min(6) },
            ..LpgConfig::default()
        };
        let spec = GraphSpec {
            scale,
            edge_factor: 16,
            seed: params.seed,
            lpg,
        };
        let (mqps, _) = run(backend, &spec, nranks, ops);
        out.push_str(&format!(
            "{:<34} {:>8} {:>10.4} {:>14}\n",
            format!("ptypes={ptypes}"),
            nranks,
            mqps,
            lpg.bytes_per_vertex()
        ));
        eprintln!("  ptypes={ptypes}: {mqps:.4} MQ/s");
        json_rows.push(format!(
            "{{\"axis\":\"ptypes\",\"value\":{ptypes},\"mqps\":{mqps:.6}}}"
        ));
    }

    // edge-factor sweep (paper default e=16)
    for ef in [8u32, 16, 32] {
        let spec = GraphSpec {
            scale,
            edge_factor: ef,
            seed: params.seed,
            lpg: LpgConfig::default(),
        };
        let (mqps, _) = run(backend, &spec, nranks, ops);
        out.push_str(&format!(
            "{:<34} {:>8} {:>10.4} {:>14}\n",
            format!("edge_factor={ef}"),
            nranks,
            mqps,
            LpgConfig::default().bytes_per_vertex()
        ));
        eprintln!("  e={ef}: {mqps:.4} MQ/s");
        json_rows.push(format!(
            "{{\"axis\":\"edge_factor\",\"value\":{ef},\"mqps\":{mqps:.6}}}"
        ));
    }

    // block-size ablation (the BGDL tunable of §5.5): communication vs
    // storage tradeoff — this is the design-choice ablation the paper
    // calls out
    out.push_str("\nblock-size ablation (BGDL tradeoff, §5.5):\n");
    for bs in [128usize, 256, 512, 1024, 2048] {
        let spec = GraphSpec {
            scale,
            edge_factor: 16,
            seed: params.seed,
            lpg: LpgConfig::default(),
        };
        let mut cfg = gdi_bench::oltp_sized_config(&spec, nranks, ops);
        let scale_factor = (cfg.block_size.max(bs) / cfg.block_size.min(bs)).max(1);
        if bs < cfg.block_size {
            cfg.blocks_per_rank *= scale_factor;
        }
        cfg.block_size = bs;
        let (db, fabric) = gda::GdaDb::with_fabric("abl", cfg, nranks, rma::CostModel::default());
        let results = fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let (meta, _) = graphgen::load_into(&eng, &spec);
            ctx.barrier();
            workloads::oltp::run_oltp(
                &eng,
                &spec,
                &meta,
                &Mix::READ_MOSTLY,
                &workloads::oltp::OltpConfig {
                    ops_per_rank: ops,
                    seed: spec.seed,
                },
            )
        });
        let (mqps, _) = gdi_bench::summarize_oltp(&results);
        let mem = cfg.data_bytes() as f64 / 1e6;
        out.push_str(&format!(
            "  block_size={bs:<5} -> {mqps:.4} MQ/s, {mem:.1} MB data window/rank\n"
        ));
        eprintln!("  bs={bs}: {mqps:.4} MQ/s");
        json_rows.push(format!(
            "{{\"axis\":\"block_size\",\"value\":{bs},\"mqps\":{mqps:.6}}}"
        ));
    }

    // distribution ablation (§5.4: "we tried other distribution schemes,
    // they only negligibly impact our performance"). The engine places
    // vertex `app` on rank `app mod P`; we realize other placements by
    // bijectively relabeling app ids before loading:
    //   round-robin : identity (hash-scrambled ids are already spread)
    //   blocked     : rank r owns the contiguous id block [r·n/P, (r+1)·n/P)
    out.push_str("\ndistribution ablation (§5.4, Read Mostly):\n");
    {
        let spec = GraphSpec {
            scale,
            edge_factor: 16,
            seed: params.seed,
            lpg: LpgConfig::default(),
        };
        let n = spec.n_vertices();
        let p = nranks as u64;
        let chunk = n / p;
        // bijection mapping the blocked placement onto the engine's mod-P
        // owner function
        let blocked = move |v: u64| (v % chunk) * p + (v / chunk).min(p - 1);
        let identity = move |v: u64| v;
        for (name, relabel) in [
            (
                "round-robin",
                Box::new(identity) as Box<dyn Fn(u64) -> u64 + Sync>,
            ),
            ("blocked", Box::new(blocked)),
        ] {
            let cfg = gdi_bench::oltp_sized_config(&spec, nranks, ops);
            let (db, fabric) =
                gda::GdaDb::with_fabric("dist", cfg, nranks, rma::CostModel::default());
            let results = fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let meta = graphgen::install_metadata(&eng, &spec.lpg);
                let vs: Vec<gda::VertexSpec> = spec
                    .vertices_for_rank(ctx.rank(), ctx.nranks())
                    .into_iter()
                    .map(|v| {
                        let mut s = graphgen::load::vertex_spec(&spec, &meta, v);
                        s.app = gdi::AppVertexId(relabel(v));
                        s
                    })
                    .collect();
                let es: Vec<gda::EdgeSpec> = spec
                    .edges_for_rank(ctx.rank(), ctx.nranks())
                    .into_iter()
                    .map(|(u, v)| {
                        let mut e = graphgen::load::edge_spec(&spec, &meta, u, v);
                        e.from = gdi::AppVertexId(relabel(u));
                        e.to = gdi::AppVertexId(relabel(v));
                        e
                    })
                    .collect();
                eng.bulk_load(vs, es).unwrap();
                ctx.barrier();
                workloads::oltp::run_oltp(
                    &eng,
                    &spec,
                    &meta,
                    &Mix::READ_MOSTLY,
                    &workloads::oltp::OltpConfig {
                        ops_per_rank: ops,
                        seed: spec.seed,
                    },
                )
            });
            let (mqps, _) = gdi_bench::summarize_oltp(&results);
            out.push_str(&format!("  {name:<12} -> {mqps:.4} MQ/s\n"));
            eprintln!("  dist={name}: {mqps:.4} MQ/s");
            json_rows.push(format!(
                "{{\"axis\":\"distribution\",\"value\":\"{name}\",\"mqps\":{mqps:.6}}}"
            ));
        }
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
