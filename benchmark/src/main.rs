//! `gdi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the six
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Every repetition runs in a child process of its own.
//! Exits non-zero on a correctness mismatch or a harness failure.

use std::process::{Command, ExitCode, Stdio};

use gdi_benchmark::boot::P;
use gdi_benchmark::oltp::SESSIONS;
use gdi_benchmark::report::{self, REPS};
use gdi_benchmark::workload::{run_rep, RepConfig, RepResult, Workload};
use gdi_benchmark::{host, stats};

const USAGE: &str =
    "usage: gdi-benchmark --workload <oltp_read_mostly|oltp_write_durable|olap_analytics> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] | --describe";

struct Args {
    cfg: RepConfig,
    child: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke, mut child) =
        (42u64, report::RUN_SECONDS as f64, false, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--child" => child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        cfg: RepConfig {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
        },
        child,
    })
}

/// One repetition in a fresh process (so `VmHWM` is that repetition's).
fn spawn_rep(cfg: &RepConfig) -> Result<RepResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end
    let out = cmd.output().map_err(|e| format!("spawn repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition failed: {}", out.status));
    }
    report::decode_rep(&String::from_utf8_lossy(&out.stdout))
}

fn run(args: &Args) -> Result<bool, String> {
    let cfg = &args.cfg;
    host::guard()?;
    std::fs::create_dir_all(host::out_dir()).map_err(|e| format!("create benchmark/out: {e}"))?;
    // a traced run is one repetition: a third of the seconds on the
    // workload, the rest on the per-layer probes
    let reps = if cfg.trace || cfg.smoke { 1 } else { REPS };
    let rep_cfg = RepConfig {
        seconds: cfg.seconds / REPS as f64,
        ..*cfg
    };
    // every repetition gets a request stream of its own, derived from
    // the run's seed: a run averages over three streams, not one
    let mut results = Vec::with_capacity(reps);
    for rep in 0..reps as u64 {
        let seed = cfg.seed.wrapping_mul(REPS as u64).wrapping_add(rep);
        results.push(spawn_rep(&RepConfig { seed, ..rep_cfg })?);
    }
    let run = if cfg.trace {
        report::reduce_traced(&results[0])
    } else {
        report::reduce(&results)
    };

    let w = cfg.workload;
    let slices: usize = results.iter().map(|r| r.slices.len()).sum();
    let provenance = format!(
        "{{\"benchmark\": \"gdi-benchmark\", \"workload\": \"{}\", {}, \"seed\": {}, \"seconds\": {}, \
\"trace\": {}, \"smoke\": {}, \"ranks\": {P}, \"sessions\": {SESSIONS}, \"backend\": \"wall\", \
\"scale\": {}, \"edge_factor\": 16, \"slice_ops\": {}, \"repetitions\": {reps}, \"slices\": {slices}, \
\"ops_generated\": {}, \"op_hash\": {}, \"checks\": {}, \
\"flush_policy\": \"no fsync: durable against a process crash, not a power loss\", \
\"loop\": \"closed, 1 generator thread, {SESSIONS} requests in flight\", \"claim\": null}}",
        w.name(),
        host::provenance_json(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.smoke,
        w.scale(cfg.smoke),
        w.slice_ops(cfg.smoke),
        results[0].ops_generated,
        results[0].op_hash,
        results.iter().map(|r| r.checks).sum::<u64>(),
    );
    println!("{provenance}");
    for (i, r) in results.iter().enumerate() {
        let rates: Vec<f64> = r.slices.iter().map(|s| s.ops_per_s).collect();
        println!(
            "# repetition {i}: {} slices, slice rate median {:.1}/s, first third {:.1}/s, last third {:.1}/s, \
set-up {:.3} s, peak RSS {:.0} MiB, {} B written, {} checks",
            r.slices.len(),
            stats::median(&rates),
            r.thirds.0,
            r.thirds.1,
            r.setup_s,
            r.peak_rss_mb,
            r.disk_bytes,
            r.checks,
        );
        for m in &r.mismatches {
            println!("# MISMATCH (repetition {i}): {m}");
        }
    }
    for (name, value, unit) in &run.metrics {
        println!("# {name} = {value} {unit}");
    }
    let json = run.to_json();
    let copy = host::out_dir().join(format!(
        "result-{}{}.json",
        w.name(),
        if cfg.trace { "-trace" } else { "" }
    ));
    std::fs::write(
        &copy,
        format!("{{\"provenance\": {provenance}, \"result\": {json}}}\n"),
    )
    .map_err(|e| format!("write {}: {e}", copy.display()))?;
    println!("{json}");
    Ok(run.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--describe") {
        print!("{}", report::describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        print!("{}", report::encode_rep(&run_rep(&args.cfg)));
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("gdi-benchmark: output checks failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("gdi-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
