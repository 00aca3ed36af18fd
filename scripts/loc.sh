#!/bin/sh
# Lines of Rust per crate: total, and non-test (everything except `tests/`
# directories, `tests.rs` files and the part of a file from its first
# top-level `#[cfg(test)]` on — in this repo always the trailing test
# modules). Markdown table on stdout; run from anywhere inside the repo.
#
#   scripts/loc.sh            # the working tree
#   scripts/loc.sh <dir>      # another checkout of this repo
set -eu
cd "${1:-$(dirname "$0")/..}"

count() { # stdin: file names → "total non-test"
    xargs awk '
        FNR == 1 { in_test = (FILENAME ~ /\/tests\// || FILENAME ~ /\/tests\.rs$/) }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        { total++; if (!in_test) code++ }
        END { print total + 0, code + 0 }'
}

echo "| crate | total | non-test |"
echo "|---|---|---|"
sum_total=0 sum_code=0
for crate in crates/*/; do
    set -- $(find "$crate" -name '*.rs' | sort | count)
    echo "| $(basename "$crate") | $1 | $2 |"
    sum_total=$((sum_total + $1)) sum_code=$((sum_code + $2))
done
echo "| **crates/** | $sum_total | $sum_code |"
