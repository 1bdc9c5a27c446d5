//! The same seed gives the same inputs and the same exact counts; another
//! seed gives another stream. Drives the real binary in `--smoke` mode
//! (scale 12, one repetition), which runs every output check too.

use std::process::Command;

use gdi_benchmark::report::{decode_rep, describe};
use gdi_benchmark::workload::RepResult;

fn smoke_rep(workload: &str, seed: u64) -> RepResult {
    let out = Command::new(env!("CARGO_BIN_EXE_gdi-benchmark"))
        .args(["--child", "--smoke", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{workload} --smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    decode_rep(&String::from_utf8_lossy(&out.stdout)).expect("repetition output parses")
}

#[test]
fn same_seed_same_stream_and_counts_other_seed_other_stream() {
    let (a, b, c) = (
        smoke_rep("oltp_read_mostly", 7),
        smoke_rep("oltp_read_mostly", 7),
        smoke_rep("oltp_read_mostly", 8),
    );
    for r in [&a, &b, &c] {
        assert!(r.mismatches.is_empty(), "{:?}", r.mismatches);
        assert!(r.checks > 100, "only {} output checks", r.checks);
        assert_eq!(r.failed, 0);
    }
    assert_eq!(a.op_hash, b.op_hash, "same seed, same op stream");
    assert_eq!(a.ops_generated, b.ops_generated);
    assert_eq!(a.attempted, b.attempted);
    assert_eq!(a.slices.len(), b.slices.len());
    // The numerator of disk_bytes_per_write, every redo byte of the
    // window: the same writes both times, but which of them share a group
    // commit (one redo frame, one copy of a holder two of them touched)
    // depends on timing, so the bytes agree closely, not exactly.
    assert!(a.disk_bytes > 0);
    let gap = a.disk_bytes.abs_diff(b.disk_bytes) as f64 / a.disk_bytes as f64;
    assert!(
        gap < 0.05,
        "same seed, {} B against {} B written",
        a.disk_bytes,
        b.disk_bytes
    );
    assert_ne!(a.op_hash, c.op_hash, "another seed, another op stream");
}

#[test]
fn the_durable_workload_recovers_every_sampled_write() {
    let r = smoke_rep("oltp_write_durable", 3);
    assert!(r.mismatches.is_empty(), "{:?}", r.mismatches);
    assert_eq!(r.failed, 0);
    // one whole rebase cycle, a checkpoint closing every slice
    assert_eq!(r.slices.len(), 8);
    assert_eq!(r.disk_ratios.len(), 1, "one ratio: the rebase cycle's");
    assert!(r.disk_ratios[0] > 0.0);
}

#[test]
fn the_analytics_cycle_matches_its_oracles() {
    let r = smoke_rep("olap_analytics", 5);
    assert!(r.mismatches.is_empty(), "{:?}", r.mismatches);
    assert_eq!(r.slices.len(), 2);
    assert!(r.checks >= 2 * 33, "only {} output checks", r.checks);
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        describe(),
        "regenerate with `gdi-benchmark --describe`"
    );
}
