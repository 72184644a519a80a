#!/usr/bin/env bash
# Prints non-test Rust lines per workspace crate, then the total.
#
#   tools/loc.sh          # this checkout
#   tools/loc.sh DIR      # another checkout (e.g. a clone of the parent)
#
# A file's non-test lines are those before its first `#[cfg(test)]` (the
# whole file when it has none). `tests/` directories, `vendor/` and
# `benchmark/` (a package outside the workspace) are not counted; the
# root package counts `src/` and `examples/`.
set -euo pipefail
root=${1:-$(dirname "$0")/..}
cd "$root"

# count DIR... — non-test lines of every .rs file under DIR...
count() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -print0 2> /dev/null |
        xargs -0 -r awk '
            FNR == 1 { live = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
            live { n++ }
            END { print n + 0 }'
}

total=0
report() {
    local name=$1
    shift
    local n
    n=$(count "$@")
    printf '%-14s %7d\n' "$name" "$n"
    total=$((total + n))
}

report edm src examples
for dir in crates/*/; do
    report "$(basename "$dir")" "$dir"
done
printf '%-14s %7d\n' total "$total"
