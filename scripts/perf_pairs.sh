#!/usr/bin/env bash
# Alternating pairs of the repository's benchmark in two checkouts — the
# procedure a change that claims a gain is judged by (choosing-metrics §8):
# every pair runs parent and change back to back, which side goes first
# flips every pair, and the claim rests on medians, quartiles and pairs won.
#
#   scripts/perf_pairs.sh <parent-dir> <change-dir> [N=10] [workload…]
#
# Each run is the command `BENCHMARK.json` declares (read from the change's
# copy; `bench/` is frozen, so both sides build the same benchmark) with
# `--workload W --seed $SEED --seconds <run_seconds> --trace 0`, executed in
# its own checkout so that `bench/` measures that checkout's `crates/`.
# Without workload arguments all of `BENCHMARK.json`'s are run.
#
#   SEED=7 scripts/perf_pairs.sh ../parent . 3 vmag_128   # the other-seed check
#   OUT=dir …                                             # keep the raw results there
#
# Prints, per workload and end-to-end metric: both medians, both quartile
# pairs, change ÷ parent, how many pairs the change won (ties count for
# neither side) and whether the medians are further apart than the parent's
# interquartile distance; then `perf compare` on the two sets of medians,
# which holds every metric against its bound. Every run made is listed.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,22p' "$0" >&2; exit 2; }
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd)
pairs=${3:-10}
shift $(($# < 3 ? $# : 3))
seed=${SEED:-20120101}
out=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")}
mkdir -p "$out"

contract=$change/BENCHMARK.json
mapfile -t cmd < <(python3 -c 'import json, sys
print(*json.load(open(sys.argv[1]))["command"], sep="\n")' "$contract")
seconds=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$contract")
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json, sys
print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]], sep="\n")' "$contract")
fi

# Build both sides before the first timed run (and fail here, not in pair 1).
for dir in "$parent" "$change"; do
    (cd "$dir" && "${cmd[@]}" contract >/dev/null)
done

run() { # side dir pair workload: the last stdout line is the result document
    local side=$1 dir=$2 pair=$3 workload=$4
    (cd "$dir" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null || true) |
        tail -n 1 >"$out/$side.$workload.$pair.json"
}

for pair in $(seq 1 "$pairs"); do
    for workload in "${workloads[@]}"; do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$parent" "$pair" "$workload"
            run change "$change" "$pair" "$workload"
        else
            run change "$change" "$pair" "$workload"
            run parent "$parent" "$pair" "$workload"
        fi
        echo "pair $pair/$pairs $workload done" >&2
    done
done

python3 - "$contract" "$out" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

contract, out, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
workloads = sys.argv[4:]
metrics = [m["name"] for m in contract["end_to_end"]]

def load(side, workload, pair):
    try:
        doc = json.loads(open(f"{out}/{side}.{workload}.{pair}.json").read())
        return doc if "metrics" in doc else None
    except (OSError, ValueError):
        return None

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

medians = {"parent": {}, "change": {}}
print(f"{'workload':<14} {'metric':<13} {'parent med':>11} {'[p25, p75]':>21} "
      f"{'change med':>11} {'[p25, p75]':>21} {'chg/par':>8} {'won':>6}  apart > parent IQR")
for workload in workloads:
    runs = [(load("parent", workload, p), load("change", workload, p))
            for p in range(1, pairs + 1)]
    failed = {side: sum(1 for r in runs if r[i] is None or not r[i]["correct"] or r[i]["failed"])
              for i, side in enumerate(("parent", "change"))}
    good = [(a, b) for a, b in runs if a and b]
    for metric in metrics:
        a = [r[0]["metrics"][metric]["value"] for r in good]
        b = [r[1]["metrics"][metric]["value"] for r in good]
        if not a:
            print(f"{workload:<14} {metric:<13} no pair completed")
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        (a25, a75), (b25, b75) = quartiles(a), quartiles(b)
        won = sum(1 for x, y in zip(a, b) if y < x)
        lost = sum(1 for x, y in zip(a, b) if y > x)
        apart = "yes" if abs(ma - mb) > a75 - a25 else "no"
        medians["parent"].setdefault(workload, {})[metric] = ma
        medians["change"].setdefault(workload, {})[metric] = mb
        print(f"{workload:<14} {metric:<13} {ma:>11.4f} {f'[{a25:.4f}, {a75:.4f}]':>21} "
              f"{mb:>11.4f} {f'[{b25:.4f}, {b75:.4f}]':>21} {mb / ma:>8.4f} "
              f"{f'{won}/{won + lost}':>6}  {apart}")
        print(f"{'':<14} {'  every run':<13} parent {' '.join(f'{x:.4g}' for x in a)}")
        print(f"{'':<14} {'':<13} change {' '.join(f'{x:.4g}' for x in b)}")
    print(f"{workload:<14} runs with a failed op or no result: "
          f"parent {failed['parent']}/{pairs}, change {failed['change']}/{pairs}")

for side, by_workload in medians.items():
    doc = {"runs": [{"workload": w, "trace": 0,
                     "result": {"metrics": {m: {"value": v} for m, v in ms.items()}}}
                    for w, ms in by_workload.items()]}
    json.dump(doc, open(f"{out}/{side}.medians.json", "w"))
EOF

echo
echo "raw results: $out"
echo "perf compare on the medians (parent = A, change = B):"
cd "$change" && exec "${cmd[@]}" compare "$out/parent.medians.json" "$out/change.medians.json"
