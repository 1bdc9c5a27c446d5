#!/usr/bin/env bash
# Two sets of five full runs of one binary, per workload, every run with
# another seed. Prints, for every end-to-end metric, each set's median,
# min, max, (max - min) / median and quartile spread, and writes the
# table to STABILITY.md.
#
# Fails on what the driver rejects a benchmark for: a set whose quartile
# spread (`statistics.quantiles(values, n=4)`, third minus first quartile,
# over the median) exceeds the metric's bound (`setup_s` excepted), or a
# second set whose median is worse than the first's by more than the
# bound. A range above half the bound is flagged `wide`, not failed: on
# this host the write workload's ranges reach the bound itself.
# About 25 minutes on a 2-core host.
#
#   benchmark/stability.sh [workload ...]
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/gdi-benchmark"
exec python3 - "$bin" "$@" <<'PY'
import json, statistics, subprocess, sys

binary, workloads = sys.argv[1], sys.argv[2:]
spec = json.loads(subprocess.run([binary, "--describe"], capture_output=True, text=True, check=True).stdout)
workloads = workloads or [w["name"] for w in spec["workloads"]]
failures, rows = [], []

def one_run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}

for workload in workloads:
    # set A: seeds 1..5, set B: seeds 6..10
    sets = [[one_run(workload, s) for s in range(1 + 5 * k, 6 + 5 * k)] for k in range(2)]
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        stats = []
        for runs in sets:
            vals = [r[name] for r in runs]
            med, q = statistics.median(vals), statistics.quantiles(vals, n=4)
            stats.append((med, min(vals), max(vals), (max(vals) - min(vals)) / med, (q[2] - q[0]) / med))
        a, b = stats[0][0], stats[1][0]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok"
        if max(s[3] for s in stats) > bound / 2:
            verdict = "wide"
        if name != "setup_s" and max(s[4] for s in stats) > bound:
            verdict = "SPREAD"
        if worse > bound:
            verdict = "MEDIANS"
        if verdict.isupper():
            failures.append(f"{workload}/{name}: {verdict}")
        rows.append((workload, name, m["unit"], bound, stats, worse, verdict))
        sets_txt = "  ".join(
            f"{k} {s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}] range {s[3]:.1%} spread {s[4]:.1%}"
            for k, s in zip("AB", stats))
        print(f"{workload:20s} {name:22s} {sets_txt}  B worse by {worse:+.1%}  bound {bound:.0%}  {verdict}",
              flush=True)

with open("STABILITY.md", "w") as f:
    f.write("# Run-to-run stability\n\n"
            "Written by `benchmark/stability.sh`: two sets (A, B) of five full runs of one binary, every\n"
            "run with another seed. `range` is (max - min) / median within a set, `spread` the distance\n"
            "between its first and third quartile over its median. The script fails, as the driver\n"
            "does, when a spread exceeds the metric's bound (`setup_s` excepted) or B's median is\n"
            "worse than A's by more than the bound; a range above half the bound is marked `wide`.\n\n"
            "| workload | metric | unit | bound | A median [min, max] | A range | A spread | B median [min, max] | B range | B spread | B worse by | |\n"
            "|---|---|---|---|---|---|---|---|---|---|---|---|\n")
    for workload, name, unit, bound, stats, worse, verdict in rows:
        cells = [f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}] | {s[3]:.1%} | {s[4]:.1%}" for s in stats]
        f.write(f"| {workload} | {name} | {unit} | {bound:.0%} | {cells[0]} | {cells[1]} | {worse:+.1%} | {verdict} |\n")

if failures:
    sys.exit("unstable: " + ", ".join(failures))
print("stable: every spread within its bound, every pair of medians within the bound")
PY
