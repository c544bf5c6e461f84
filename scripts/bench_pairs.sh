#!/usr/bin/env bash
# Paired benchmark comparison of the working tree against a parent revision.
#
# Usage: scripts/bench_pairs.sh PARENT_REV PAIRS [WORKLOAD...]
#
# `git archive`s PARENT_REV into a scratch directory, builds the benchmark
# of both trees with separate CARGO_TARGET_DIRs, then runs the command
# BENCHMARK.json declares once per side and pair for every workload (all
# of them when none is named), at its `run_seconds`. Sides alternate,
# never overlap, and the parent goes first on odd pairs. For every
# workload and end-to-end metric it prints both medians, the parent's
# interquartile range, the change's relative shift against the metric's
# bound, how many pairs the change won, and the runs' failed checks.
#
# BENCH_PAIRS_DIR names the scratch directory (default: a fresh mktemp
# directory); it keeps the parent tree, both target directories and one
# output file per run, so a second invocation reuses the builds.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 PARENT_REV PAIRS [WORKLOAD...]" >&2
    exit 2
fi
parent_rev=$1
pairs=$2
shift 2

root=$(git rev-parse --show-toplevel)
work=${BENCH_PAIRS_DIR:-$(mktemp -d)}
mkdir -p "$work"
echo "bench_pairs: scratch directory $work" >&2

# The declared command, run seconds and workloads, from BENCHMARK.json.
read_json() {
    python3 -c "import json, sys; b = json.load(open('$root/BENCHMARK.json')); $1"
}
mapfile -t command < <(read_json "print('\n'.join(b['command']))")
seconds=$(read_json "print(b['run_seconds'])")
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(read_json "print('\n'.join(w['name'] for w in b['workloads']))")
fi

rm -rf "$work/parent"
mkdir -p "$work/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$work/parent"

build() {
    local tree=$1 target=$2
    (cd "$tree" && CARGO_TARGET_DIR="$target" cargo build --release --quiet --offline \
        --manifest-path benchmark/Cargo.toml --bin benchmark)
}
echo "bench_pairs: building parent $parent_rev" >&2
build "$work/parent" "$work/parent-target"
echo "bench_pairs: building the working tree" >&2
build "$root" "$work/change-target"

run() {
    local side=$1 workload=$2 pair=$3 tree target
    if [ "$side" = parent ]; then
        tree=$work/parent target=$work/parent-target
    else
        tree=$root target=$work/change-target
    fi
    (cd "$tree" && CARGO_TARGET_DIR="$target" "${command[@]}" \
        --workload "$workload" --seconds "$seconds") \
        >"$work/$side-$workload-$pair.txt" 2>&1 || true
}

for pair in $(seq 1 "$pairs"); do
    for workload in "${workloads[@]}"; do
        if [ $((pair % 2)) -eq 1 ]; then
            order=(parent change)
        else
            order=(change parent)
        fi
        for side in "${order[@]}"; do
            echo "bench_pairs: pair $pair/$pairs $workload $side" >&2
            run "$side" "$workload" "$pair"
        done
    done
done

python3 - "$root/BENCHMARK.json" "$work" "$pairs" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys

bench = json.load(open(sys.argv[1]))
work, pairs, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]


def result(side, workload, pair):
    """The run's JSON line and its failed-check lines."""
    try:
        lines = open(f"{work}/{side}-{workload}-{pair}.txt").read().splitlines()
    except OSError:
        return None, ["no output"]
    failed = [l for l in lines if " check failed: " in l or l.startswith("benchmark: ")]
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line), failed
    return None, failed or ["no result line"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


for workload in workloads:
    runs = {side: [result(side, workload, p) for p in range(1, pairs + 1)]
            for side in ("parent", "change")}
    for side, rs in runs.items():
        bad = sum(1 for r, f in rs if r is None or not r["correct"] or f)
        if bad:
            notes = sorted({m for _, f in rs for m in f})
            print(f"{workload} {side}: {bad}/{pairs} runs with failed checks: {notes}")
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs_ok = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                    for (p, _), (c, _) in zip(runs["parent"], runs["change"])
                    if p is not None and c is not None]
        if not pairs_ok:
            print(f"{workload} {name}: no complete pair")
            continue
        par = [p for p, _ in pairs_ok]
        chg = [c for _, c in pairs_ok]
        mp, mc = statistics.median(par), statistics.median(chg)
        q1, q3 = quartiles(par)
        wins = sum(1 for p, c in pairs_ok if (c < p if lower else c > p))
        shift = (mc - mp) / mp if mp else 0.0
        worse = shift if lower else -shift
        verdict = "WORSE THAN BOUND" if worse > metric["bound"] else "within bound"
        if q3 - q1 > metric["bound"] * abs(mp):
            verdict += ", parent spread exceeds bound"
        print(f"{workload} {name}: parent median {mp:.4g} (IQR {q3 - q1:.3g}) "
              f"change median {mc:.4g} ({shift:+.1%}, bound {metric['bound']:.0%}, {verdict}) "
              f"change won {wins}/{len(pairs_ok)}")
EOF
