#!/bin/sh
# The `unsafe` budget of `crates/` and `vendor/`. Lists every `unsafe` in
# Rust code (not in comments) as file:line, then fails if one is anywhere but
# the three places allowed to hold it:
#
#   crates/dfg-exec/src/lib.rs   one: the pool's `transmute` of a borrow it
#                                waits out before returning
#   crates/dfg-ocl/src/lanes.rs  at most three: the slice cast, the
#                                initialized read and the `set_len` of
#                                outputs written once (DESIGN.md D11)
#   vendor/rayon/src/lib.rs      at most fourteen: the `IndexedSource` trait
#                                and its impls, the `Send`/`Sync` impls and
#                                the raw-pointer chunking of `par_chunks_mut`
#                                (every primitive launch and mesh build runs
#                                through them)
#
# Every other shim under `vendor/` holds none.
#
#   scripts/unsafe.sh            # the working tree
#   scripts/unsafe.sh <dir>      # another checkout of this repo
set -eu
cd "${1:-$(dirname "$0")/..}"

hits=$(grep -rnw --include='*.rs' unsafe crates/ vendor/ | awk '{
    code = $0
    sub(/^[^:]*:[^:]*:/, "", code)
    sub(/\/\/.*/, "", code)
    if (code ~ /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/) {
        split($0, at, ":")
        print at[1] ":" at[2]
    }
}')
echo "$hits"
awk -v hits="$hits" 'BEGIN {
    budget["crates/dfg-exec/src/lib.rs"] = 1
    budget["crates/dfg-ocl/src/lanes.rs"] = 3
    budget["vendor/rayon/src/lib.rs"] = 14
    n = split(hits, lines, "\n")
    for (i = 1; i <= n; i++) {
        if (lines[i] == "") continue
        split(lines[i], at, ":")
        used[at[1]]++
    }
    bad = 0
    for (file in used) {
        if (!(file in budget)) {
            print "unsafe outside its budget: " file > "/dev/stderr"; bad = 1
        } else if (used[file] > budget[file]) {
            print file ": " used[file] " unsafe, budget " budget[file] > "/dev/stderr"; bad = 1
        }
    }
    exit bad
}'
