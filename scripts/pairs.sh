#!/usr/bin/env bash
# The pair protocol every perf PR has re-implemented by hand: build the
# parent and the change in clean checkouts, run the BENCHMARK.json
# command on both for each seed, alternating which side goes first, and
# write every run plus the per-metric summary a claim is judged by.
#
#   scripts/pairs.sh [--dry-run] [--out <file>] <parent-rev> <workload> [seeds…]
#
#   scripts/pairs.sh fb7a42f olap_analytics                 # seeds 101–110
#   scripts/pairs.sh --out results/BENCH_pr22_pairs.json HEAD~1 oltp_read_mostly 101 102 9001
#   scripts/pairs.sh --dry-run HEAD~1 olap_analytics        # print the plan, build nothing
#
# The change side is the working tree as git sees it (`git stash create`:
# index + tracked files; `git add` new files first), or HEAD when the
# tree is clean. Nobody can look that dangling commit up later, so the
# results also name the `crates/` and `shims/` trees it held: compare
# with `git rev-parse <commit>:crates`. Both sides are `git archive`d
# into ${PAIRS_SCRATCH:-$TMPDIR/gdi-pairs}/<side> and built once up
# front, so no measured run compiles. Results are appended to the
# `--out` file (default results/BENCH_pairs.json): the pairs of earlier
# invocations (other workloads, other seeds) are kept, the summary is
# recomputed over everything in the file.
#
# Env: PAIRS_SECONDS (default: BENCHMARK.json's run_seconds), PAIRS_TRACE
# (default 0; 1 adds every per-layer metric to each run), PAIRS_SCRATCH.
set -eu
cd "$(dirname "$0")/.."

dry=0
out=results/BENCH_pairs.json
while :; do
    case "${1:-}" in
    --dry-run) dry=1 && shift ;;
    --out) out=$2 && shift 2 ;;
    *) break ;;
    esac
done
if [ $# -lt 2 ]; then
    sed -n '2,26p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent_rev=$1
workload=$2
shift 2
seeds=${*:-101 102 103 104 105 106 107 108 109 110}

scratch=${PAIRS_SCRATCH:-${TMPDIR:-/tmp}/gdi-pairs}
trace=${PAIRS_TRACE:-0}
seconds=${PAIRS_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
# the BENCHMARK.json command, relative to a checkout's root
mapfile -t bench_cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
python3 - "$workload" <<'EOF'
import json, sys
names = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
if sys.argv[1] not in names:
    sys.exit(f"pairs.sh: unknown workload {sys.argv[1]!r} (BENCHMARK.json has {names})")
EOF

parent_sha=$(git rev-parse --short "$parent_rev^{commit}")
change_rev=HEAD
if [ "$dry" -eq 0 ]; then
    # a dangling commit of index + tracked files; empty when the tree is clean
    change_rev=$(git stash create "pairs.sh change side")
    change_rev=${change_rev:-HEAD}
fi
change_sha=$(git rev-parse --short "$change_rev^{commit}")
change_trees="crates/ $(git rev-parse --short "$change_rev:crates"), shims/ $(git rev-parse --short "$change_rev:shims")"
git diff --quiet HEAD || [ "$dry" -eq 0 ] || change_sha="$change_sha + working tree"

echo "pairs.sh: parent $parent_sha vs change $change_sha, workload $workload, ${seconds} s, trace $trace"
echo "  checkouts under $scratch/{parent,change}, results -> $out"
echo "  command: ${bench_cmd[*]} --workload $workload --seed <seed> --seconds $seconds --trace $trace"
i=0
for seed in $seeds; do
    if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    echo "  pair $((i + 1)): seed $seed, $order"
    i=$((i + 1))
done
if [ "$dry" -eq 1 ]; then
    echo "pairs.sh: dry run, nothing built"
    exit 0
fi

checkout() { # <side> <rev>
    rm -rf "${scratch:?}/$1"
    mkdir -p "$scratch/$1"
    git archive "$2" | tar -x -C "$scratch/$1"
    # build once, so no run pays (or races) a compile
    (cd "$scratch/$1" && "${bench_cmd[@]}" --describe >/dev/null)
}
checkout parent "$parent_rev"
checkout change "$change_rev"

run() { # <side> <seed>: the last stdout line is the result
    (cd "$scratch/$1" && "${bench_cmd[@]}" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace "$trace" | tail -n 1)
}

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
i=0
for seed in $seeds; do
    if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pairs.sh: seed $seed $side ..." >&2
        printf '%s\t%s\t%s\t%s\n' "$seed" "${order%% *}" "$side" "$(run "$side" "$seed")" >>"$runs"
    done
    i=$((i + 1))
done

python3 - "$runs" "$out" "$workload" "$parent_sha" "$change_sha ($change_trees)" "$seconds" <<'EOF'
import json, os, statistics, sys

runs, out, workload, parent_sha, change_sha, seconds = sys.argv[1:]
catalogue = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in catalogue["end_to_end"] + catalogue["per_layer"]}

bench = os.path.splitext(os.path.basename(out))[0].removeprefix("BENCH_")
doc = {"bench": bench, "what": "", "pairs": []}
if os.path.exists(out):
    doc = json.load(open(out))
doc["what"] = (
    f"benchmark/ metrics, parent {parent_sha} vs change {change_sha}, built in clean "
    f"checkouts by scripts/pairs.sh, {seconds} s, alternating order ('first'); "
    "summary = per workload and metric: median [q1, q3] of each side, pairs the "
    "change won / lost (ties count for neither)"
)
pairs = {}
for line in open(runs):
    seed, first, side, result = line.rstrip("\n").split("\t")
    r = json.loads(result)
    flat = {k: v["value"] for k, v in r["metrics"].items()}
    flat.update(correct=r["correct"], attempted=r["attempted"], failed=r["failed"])
    pairs.setdefault(seed, {"workload": workload, "seed": int(seed), "first": first})[side] = flat
doc["pairs"] = [
    p for p in doc["pairs"] if (p["workload"], str(p["seed"])) not in {(workload, s) for s in pairs}
] + list(pairs.values())

def spread(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return [xs[0]] * 3
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [med, q1, q3]

summary = {}
for w in sorted({p["workload"] for p in doc["pairs"]}):
    ps = [p for p in doc["pairs"] if p["workload"] == w]
    rows = {}
    for m in ps[0]["parent"]:
        if m not in better:
            continue
        a = [p["parent"][m] for p in ps]
        b = [p["change"][m] for p in ps]
        sign = 1 if better[m] == "higher" else -1
        rows[m] = {
            "parent": spread(a),
            "change": spread(b),
            "won": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
            "lost": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
        }
    summary[w] = {
        "pairs": len(ps),
        "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0 for p in ps for s in ("parent", "change")),
        "metrics": rows,
    }
doc["summary"] = summary

os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
with open(out, "w") as f:
    head = {k: v for k, v in doc.items() if k not in ("pairs", "summary")}
    f.write(json.dumps(head)[:-1] + ',"pairs":[\n')
    f.write(",\n".join(json.dumps(p, separators=(",", ":")) for p in doc["pairs"]))
    f.write('\n],"summary":' + json.dumps(summary, separators=(",", ":")) + "}\n")

s = summary[workload]
print(f"{workload}: {s['pairs']} pairs, all correct: {s['all_correct']}")
for m, r in s["metrics"].items():
    if m in {e["name"] for e in catalogue["end_to_end"]}:
        fmt = lambda t: f"{t[0]:.6g} [{t[1]:.6g}, {t[2]:.6g}]"
        print(f"  {m:22} {fmt(r['parent'])} -> {fmt(r['change'])}  won {r['won']} lost {r['lost']}")
EOF
