#!/usr/bin/env bash
# Paired parent/change runs of the repository benchmark (BENCHMARK.json).
#
#   scripts/bench_pairs.sh --workload W --pairs N --seed S [--parent REV]
#
# The change is the working tree this script sits in; the parent is REV
# (default HEAD~1), checked out into a temporary git worktree and built
# into its own CARGO_TARGET_DIR. The change side builds into
# $CARGO_TARGET_DIR, or perfbench's default .bench_build.
#
# Each pair runs `python3 perfbench/run.py --workload W --seed S
# --seconds <run_seconds from BENCHMARK.json> --trace 0` once per side,
# each side from its own tree. Odd pairs run the parent first and even
# pairs the change first, so slow drift in machine load falls on both
# sides alike. Every result line is echoed as it arrives. At the end the
# script prints, for every end-to-end metric in BENCHMARK.json, each
# side's median and Q1-Q3, the change/parent ratio of the medians,
# whether the medians differ by more than the parent's IQR, and in how
# many pairs the change was better by the metric's `better` direction
# (ties count for neither side).
#
# The worktree and the parent's build are removed on exit. Nothing under
# perfbench/ is modified. Run from anywhere inside the repository.
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0"
}

workload="" pairs="" seed="" parent="HEAD~1"
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
        --pairs) pairs="${2:?--pairs needs a value}"; shift 2 ;;
        --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
        --parent) parent="${2:?--parent needs a value}"; shift 2 ;;
        -h|--help) usage; exit 0 ;;
        *) echo "bench_pairs: unknown argument '$1' (see --help)" >&2; exit 2 ;;
    esac
done
if [ -z "$workload" ] || [ -z "$pairs" ] || [ -z "$seed" ]; then
    echo "bench_pairs: --workload, --pairs and --seed are required (see --help)" >&2
    exit 2
fi
case "$pairs" in
    ''|*[!0-9]*|0) echo "bench_pairs: --pairs must be a positive integer" >&2; exit 2 ;;
esac

root=$(git rev-parse --show-toplevel)
cd "$root"
parent_rev=$(git rev-parse --verify --quiet "${parent}^{commit}") || {
    echo "bench_pairs: '$parent' is not a commit" >&2
    exit 2
}
run_seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)

work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
cleanup() {
    git -C "$root" worktree remove --force "$work/parent" >/dev/null 2>&1 || true
    git -C "$root" worktree prune >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git worktree add --detach --quiet "$work/parent" "$parent_rev"
change_target=$(realpath -m "${CARGO_TARGET_DIR:-$root/.bench_build}")
parent_target="$work/target"

# run SIDE: one benchmark run of that side; appends its result line to
# $work/SIDE.jsonl and echoes it.
run() {
    local side=$1 dir target line
    if [ "$side" = parent ]; then
        dir="$work/parent" target="$parent_target"
    else
        dir="$root" target="$change_target"
    fi
    if ! line=$(cd "$dir" && CARGO_TARGET_DIR="$target" python3 perfbench/run.py \
        --workload "$workload" --seed "$seed" --seconds "$run_seconds" --trace 0 \
        2>"$work/$side.err" | tail -n 1) || [ -z "$line" ]; then
        echo "bench_pairs: $side run failed; its stderr ends with:" >&2
        tail -n 20 "$work/$side.err" >&2
        exit 1
    fi
    echo "$line" >>"$work/$side.jsonl"
    echo "# pair $pair $side: $line"
}

echo "# bench_pairs: workload=$workload seed=$seed pairs=$pairs seconds=$run_seconds"
echo "# parent $(git rev-parse --short "$parent_rev"), change = working tree at $(git rev-parse --short HEAD)"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent
        run change
    else
        run change
        run parent
    fi
done

python3 - BENCHMARK.json "$work/parent.jsonl" "$work/change.jsonl" <<'EOF'
import json
import sys

bench = json.load(open(sys.argv[1]))
sides = [[json.loads(l) for l in open(p) if l.strip()] for p in sys.argv[2:4]]


def quantile(sorted_values, q):
    # Linear interpolation between closest ranks.
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summary(values):
    s = sorted(values)
    return quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)


parent, change = sides
print(f"# correct runs: parent {sum(r['correct'] for r in parent)}/{len(parent)}, "
      f"change {sum(r['correct'] for r in change)}/{len(change)}")
print(f"{'metric':<22} {'parent median [Q1-Q3]':<34} {'change median [Q1-Q3]':<34} "
      f"{'ratio':>7} {'>IQR':>5} {'change wins':>11}")
for metric in bench["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    p = [r["metrics"].get(name, {}).get("value") for r in parent]
    c = [r["metrics"].get(name, {}).get("value") for r in change]
    if any(v is None for v in p + c):
        continue
    pm, pq1, pq3 = summary(p)
    cm, cq1, cq3 = summary(c)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ratio = cm / pm if pm else float("nan")
    beyond = "yes" if abs(cm - pm) > (pq3 - pq1) else "no"
    print(f"{name:<22} {f'{pm:.6g} [{pq1:.6g}-{pq3:.6g}]':<34} "
          f"{f'{cm:.6g} [{cq1:.6g}-{cq3:.6g}]':<34} {ratio:>7.3f} {beyond:>5} "
          f"{f'{wins}/{len(p)}':>11}")
EOF
