//! §6.8 — extreme scales.
//!
//! The paper's largest runs use 7,142 servers / 121,680 cores. The host
//! here cannot run that many rank threads, so this harness does what the
//! paper's own scaling argument does: measure the weak-scaling behaviour
//! over the feasible range, fit the per-rank simulated time to the
//! `a + b·log2(P)` law the collective-based design implies, and report the
//! modeled throughput at the paper's configurations — clearly marked as
//! modeled. It also verifies the paper's headline check: moving 275 B →
//! 550 B edges (2× data, 3.49× servers) increased OLTP throughput ≈3×;
//! we check the analogous doubling at our scale.

use gdi_bench::{
    backend_selection, emit, emit_json, for_backends, gda_oltp, spec_for, BackendKind, RunParams,
};
use graphgen::LpgConfig;
use workloads::oltp::Mix;

fn main() {
    // `--backend sim|wall|both`: wall runs are clearly separated under
    // `extreme_scale_wall` (nondeterministic; the extrapolation fit is
    // only meaningful on the simulated LogGP clock)
    for_backends(&backend_selection(), run);
}

fn run(backend: BackendKind) {
    let bench = match backend {
        BackendKind::Sim => "extreme_scale",
        BackendKind::Wall => "extreme_scale_wall",
    };
    let params = RunParams::from_env();
    let ops = params.ops_per_rank;
    let mut out =
        String::from("### §6.8 — extreme-scale extrapolation (Read Mostly, weak scaling)\n");
    if backend == BackendKind::Wall {
        out.push_str("### (wall-clock backend: timings are hardware-dependent)\n");
    }
    out.push_str(&format!(
        "{:<10} {:>7} {:>14} {:>16}\n",
        "kind", "ranks", "scale", "MQ/s"
    ));

    // measured points
    let mut meas: Vec<(usize, f64)> = Vec::new();
    for &nranks in &params.ranks {
        let scale = params.weak_scale(nranks);
        let spec = spec_for(scale, params.seed, LpgConfig::default());
        let (mqps, _) = gda_oltp(backend, nranks, &spec, &Mix::READ_MOSTLY, ops);
        out.push_str(&format!(
            "{:<10} {:>7} {:>14} {:>16.4}\n",
            "measured", nranks, scale, mqps
        ));
        meas.push((nranks, mqps));
        eprintln!("  measured P={nranks}: {mqps:.4} MQ/s");
    }

    // per-rank throughput model: t_op(P) = a + b*log2(P) (DHT/lock hops
    // are O(1) messages; only the remote fraction and collective terms
    // grow logarithmically). Fit on per-rank MQ/s:
    let pts: Vec<(f64, f64)> = meas
        .iter()
        .map(|&(p, mqps)| {
            let per_rank = mqps / p as f64;
            ((p as f64).log2(), 1.0 / per_rank) // time per op in µs-ish units
        })
        .collect();
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    let (a, b) = if denom.abs() < 1e-12 {
        (sy / n, 0.0)
    } else {
        let b = (n * sxy - sx * sy) / denom;
        let a = (sy - b * sx) / n;
        (a, b)
    };

    for p in [64usize, 512, 2048, 7142] {
        let t = a + b * (p as f64).log2();
        let mqps = p as f64 / t.max(1e-9);
        out.push_str(&format!(
            "{:<10} {:>7} {:>14} {:>16.2}\n",
            "modeled",
            p,
            params.base_scale + rma::cost::log2_ceil(p),
            mqps
        ));
    }

    // the paper's 2x-data / 3.49x-servers => ~3x throughput sanity check,
    // transposed to our measured endpoints
    if meas.len() >= 2 {
        let (p0, m0) = meas[meas.len() - 2];
        let (p1, m1) = meas[meas.len() - 1];
        out.push_str(&format!(
            "\nscaling check: P {p0} -> {p1} ({:.2}x servers) gives {:.2}x throughput\n\
             (paper: 3.49x servers gave ~3x; sub-linear but near-proportional)\n",
            p1 as f64 / p0 as f64,
            m1 / m0
        ));
    }
    out.push_str(
        "\nNOTE: 'modeled' rows extrapolate the measured weak-scaling law to the\n\
         paper's machine sizes; they are not measurements.\n",
    );
    emit(bench, &out);
    let measured: Vec<String> = meas
        .iter()
        .map(|&(pr, mqps)| format!("{{\"nranks\":{pr},\"mqps\":{mqps:.6}}}"))
        .collect();
    emit_json(
        bench,
        &format!(
            "{{\"bench\":\"{bench}\",\"backend\":\"{}\",\"measured\":[{}],\
             \"fit\":{{\"a\":{a:.9},\"b\":{b:.9}}}}}",
            backend.label(),
            measured.join(",")
        ),
    );
}
