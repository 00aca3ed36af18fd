#!/usr/bin/env bash
# Runs the whole benchmark twice on one build and fails if `perf compare`
# finds the second run worse than the first by more than the bounds in
# BENCHMARK.json: the benchmark checking that it repeats. Extra arguments
# go to both runs (`--trace 0` for the timed runs alone, `--quick`, …).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --config "$here/.cargo/config.toml" --manifest-path "$here/Cargo.toml"
perf="${CARGO_TARGET_DIR:-$here/target}/release/perf"
mkdir -p "$here/out"
for run in a b; do
    "$perf" --out "$here/out/selfcheck-$run.json" "$@" | grep -v '^{' || {
        echo "selfcheck: run $run failed its own correctness gate" >&2
        exit 1
    }
done
"$perf" compare "$here/out/selfcheck-a.json" "$here/out/selfcheck-b.json"
