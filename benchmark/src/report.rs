//! The metric catalogue, the line protocol between a repetition's child
//! process and the parent, and the parent's reduction to one result.

use std::fmt::Write as _;

use crate::layers;
use crate::stats::{median, SliceStats};
use crate::workload::{RepResult, Workload};

/// Repetitions per untraced run: fresh process, database, fabric and
/// server each.
pub const REPS: usize = 3;

/// Seconds one run measures; `BENCHMARK.json` carries it.
pub const RUN_SECONDS: u32 = 21;

/// End-to-end metrics: name, unit, direction, and the share of the
/// parent's median by which the metric may worsen before a change counts
/// as a regression.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("p50_us", "us", "lower", 0.25),
    ("p95_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.20),
    ("disk_bytes_per_write", "B", "lower", 0.15),
];

const WHY: [(Workload, &str); 3] = [
    (
        Workload::ReadMostly,
        "Table-3 Read Mostly, hot keys, session-affine: server batching, snapshot reads, translation cache and remote RMA gets do the work; persist and scan almost none",
    ),
    (
        Workload::WriteDurable,
        "steady write-heavy mix, uniform keys, a checkpoint per slice, crash recovery verified: write locks, MVCC archiving, redo and delta checkpoints dominate; remote RMA and the cache do little",
    ),
    (
        Workload::Olap,
        "collective jobs behind write bursts: scan-view refresh, PageRank, BFS, WCC, k-hop and 25 planned queries per cycle; RMA collectives, kernels and the query executor work, batching almost none",
    ),
];

/// The contents of `BENCHMARK.json`.
pub fn describe() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (w, why)) in WHY.iter().enumerate() {
        let comma = if i + 1 == WHY.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{why}\"}}{comma}",
            w.name()
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{comma}"
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in layers::METRICS.iter().enumerate() {
        let comma = if i + 1 == layers::METRICS.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// What a child prints: one `key value...` line per field.
pub fn encode_rep(r: &RepResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "rep.setup_s {}", r.setup_s);
    let _ = writeln!(s, "rep.peak_rss_mb {}", r.peak_rss_mb);
    let ratios: Vec<String> = r.disk_ratios.iter().map(f64::to_string).collect();
    let _ = writeln!(s, "rep.disk_ratios {}", ratios.join(" "));
    let _ = writeln!(s, "rep.disk_bytes {}", r.disk_bytes);
    let _ = writeln!(s, "rep.attempted {}", r.attempted);
    let _ = writeln!(s, "rep.failed {}", r.failed);
    let _ = writeln!(s, "rep.checks {}", r.checks);
    let _ = writeln!(s, "rep.op_hash {}", r.op_hash);
    let _ = writeln!(s, "rep.ops_generated {}", r.ops_generated);
    let _ = writeln!(s, "rep.thirds {} {}", r.thirds.0, r.thirds.1);
    for sl in &r.slices {
        let _ = writeln!(s, "rep.slice {} {} {}", sl.ops_per_s, sl.p50_us, sl.p95_us);
    }
    for m in &r.mismatches {
        let _ = writeln!(s, "rep.mismatch {}", m.replace('\n', " "));
    }
    for (name, v) in &r.layers {
        let _ = writeln!(s, "rep.layer {name} {v}");
    }
    s
}

/// Parse a child's output back. Unknown lines are ignored (the engine
/// may print to stdout); a missing or malformed field is an error.
pub fn decode_rep(text: &str) -> Result<RepResult, String> {
    let mut r = RepResult::default();
    let mut seen = 0;
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(' ') else {
            continue;
        };
        let nums = || -> Result<Vec<f64>, String> {
            rest.split(' ')
                .map(|t| t.parse::<f64>().map_err(|e| format!("{line}: {e}")))
                .collect()
        };
        let int = || rest.parse::<u64>().map_err(|e| format!("{line}: {e}"));
        match key {
            "rep.setup_s" => r.setup_s = nums()?[0],
            "rep.peak_rss_mb" => r.peak_rss_mb = nums()?[0],
            "rep.disk_ratios" => r.disk_ratios = nums()?,
            "rep.disk_bytes" => r.disk_bytes = int()?,
            "rep.attempted" => r.attempted = int()?,
            "rep.failed" => r.failed = int()?,
            "rep.checks" => r.checks = int()?,
            "rep.op_hash" => r.op_hash = int()?,
            "rep.ops_generated" => r.ops_generated = int()?,
            "rep.thirds" => {
                let v = nums()?;
                r.thirds = (v[0], *v.get(1).ok_or("thirds needs two values")?);
            }
            "rep.slice" => {
                let v = nums()?;
                if v.len() != 3 {
                    return Err(format!("{line}: a slice has three values"));
                }
                r.slices.push(SliceStats {
                    ops_per_s: v[0],
                    p50_us: v[1],
                    p95_us: v[2],
                });
                continue;
            }
            "rep.mismatch" => {
                r.mismatches.push(rest.to_string());
                continue;
            }
            "rep.layer" => {
                let (name, v) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("{line}: no value"))?;
                let known = layers::METRICS
                    .iter()
                    .find(|m| m.0 == name)
                    .ok_or_else(|| format!("{line}: unknown metric"))?;
                r.layers
                    .push((known.0, v.parse().map_err(|e| format!("{line}: {e}"))?));
                continue;
            }
            _ => continue,
        }
        seen += 1;
    }
    // the ten scalar fields above, each exactly once
    if seen != 10 || r.slices.is_empty() {
        return Err(format!(
            "incomplete repetition output ({seen} fields, {} slices)",
            r.slices.len()
        ));
    }
    Ok(r)
}

/// One run's result: what the last stdout line carries.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Reduce the repetitions of an untraced run: medians over all slices of
/// all repetitions for rates, latencies and the disk ratio, medians over
/// repetitions for set-up and memory.
pub fn reduce(reps: &[RepResult]) -> RunResult {
    let slices: Vec<&SliceStats> = reps.iter().flat_map(|r| &r.slices).collect();
    let over_slices =
        |f: fn(&SliceStats) -> f64| median(&slices.iter().map(|s| f(s)).collect::<Vec<_>>());
    let over_reps = |f: fn(&RepResult) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let values = [
        over_reps(|r| r.setup_s),
        over_slices(|s| s.ops_per_s),
        over_slices(|s| s.p50_us),
        over_slices(|s| s.p95_us),
        over_reps(|r| r.peak_rss_mb),
        median(
            &reps
                .iter()
                .flat_map(|r| r.disk_ratios.iter().copied())
                .collect::<Vec<_>>(),
        ),
    ];
    RunResult {
        correct: reps.iter().all(|r| r.mismatches.is_empty() && r.checks > 0),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _, _), v)| (*name, v, *unit))
            .collect(),
    }
}

/// The traced run: the per-layer metrics of its one repetition.
pub fn reduce_traced(rep: &RepResult) -> RunResult {
    RunResult {
        correct: rep.mismatches.is_empty() && rep.checks > 0,
        attempted: rep.attempted,
        failed: rep.failed,
        metrics: layers::METRICS
            .iter()
            .zip(&rep.layers)
            .map(|((name, unit, _), (got, v))| {
                assert_eq!(name, got, "per-layer metrics arrive in catalogue order");
                (*name, *v, *unit)
            })
            .collect(),
    }
}

impl RunResult {
    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "{name} is not a number: {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(rate: f64, setup: f64) -> RepResult {
        RepResult {
            setup_s: setup,
            peak_rss_mb: 100.0 + setup,
            slices: vec![
                SliceStats {
                    ops_per_s: rate,
                    p50_us: 10.0,
                    p95_us: 20.0,
                },
                SliceStats {
                    ops_per_s: rate * 2.0,
                    p50_us: 11.0,
                    p95_us: 21.0,
                },
            ],
            disk_ratios: vec![5.0 * setup, 5.0 * setup + 1.0],
            disk_bytes: 1000,
            attempted: 10,
            failed: 1,
            checks: 3,
            mismatches: Vec::new(),
            op_hash: u64::MAX - 5,
            ops_generated: 12,
            thirds: (1.0, 2.0),
            layers: Vec::new(),
        }
    }

    #[test]
    fn the_line_protocol_round_trips() {
        let mut a = rep(1234.5678901234, 0.25);
        a.mismatches.push("edges of 7: got 3\nwant 4".into());
        a.layers.push((layers::METRICS[0].0, 0.1 + 0.2));
        let b = decode_rep(&format!("engine chatter\n{}", encode_rep(&a))).unwrap();
        assert_eq!(b.slices, a.slices);
        assert_eq!(
            (b.setup_s, b.op_hash, b.thirds),
            (a.setup_s, a.op_hash, a.thirds)
        );
        assert_eq!(b.disk_ratios, a.disk_ratios);
        assert_eq!(b.mismatches, vec!["edges of 7: got 3 want 4".to_string()]);
        assert_eq!(b.layers, a.layers);
        assert!(decode_rep("rep.setup_s 1\n").is_err());
        assert!(decode_rep(&encode_rep(&a).replace("rep.failed 1", "rep.failed x")).is_err());
    }

    #[test]
    fn reduction_takes_medians_over_slices_and_repetitions() {
        let reps = [rep(100.0, 1.0), rep(300.0, 3.0), rep(200.0, 2.0)];
        let run = reduce(&reps);
        let get = |n: &str| run.metrics.iter().find(|m| m.0 == n).unwrap().1;
        // slice rates 100 200 200 400 300 600 → median 250
        assert_eq!(get("ops_per_s"), 250.0);
        assert_eq!(get("p50_us"), 10.5);
        assert_eq!(get("setup_s"), 2.0);
        assert_eq!(get("peak_rss_mb"), 102.0);
        // ratios 5 6 15 16 10 11 → median 10.5
        assert_eq!(get("disk_bytes_per_write"), 10.5);
        assert_eq!((run.attempted, run.failed, run.correct), (30, 3, true));
        let json = run.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 30, \"failed\": 3, \"metrics\": {\"setup_s\": {\"value\": 2, \"unit\": \"s\"}"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn a_mismatch_or_a_run_without_checks_is_incorrect() {
        let mut bad = rep(1.0, 1.0);
        bad.mismatches.push("x".into());
        assert!(!reduce(&[rep(1.0, 1.0), bad]).correct);
        let mut unchecked = rep(1.0, 1.0);
        unchecked.checks = 0;
        assert!(!reduce(&[unchecked]).correct);
    }

    #[test]
    fn the_catalogue_fits_the_contract() {
        let ok = |n: &str, max: usize, extra: &str| {
            !n.is_empty()
                && n.len() <= max
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(layers::METRICS.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| ok(n, 64, "_.-")), "{names:?}");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used once");
        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(layers::METRICS.iter().map(|m| m.1));
        for u in units {
            assert!(ok(u, 16, "_/%.-"), "{u}");
        }
        assert!(layers::METRICS.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(WHY
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(describe().len() < 64 * 1024);
    }
}
