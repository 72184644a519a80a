#!/usr/bin/env bash
# Runs one named pin in release: `cargo test -q --release ARGS -- FILTER...`,
# but first fails if a FILTER selects no test — or, with no FILTER, if
# the target holds none. A renamed or deleted pin would otherwise pass
# as "running 0 tests".
#
#   tools/pin.sh -p edm-topo --test prop_parallel -- lockstep_at
#   tools/pin.sh -p edm-approx
set -euo pipefail
cd "$(dirname "$0")/.."

args=()
filters=()
while (($#)); do
    if [[ $1 == -- ]]; then
        shift
        filters=("$@")
        break
    fi
    args+=("$1")
    shift
done

# Build errors surface here, not as an empty test list below.
cargo test -q --release --no-run "${args[@]}"

# listed FILTER — how many tests FILTER selects (all of them without one).
listed() {
    cargo test -q --release "${args[@]}" -- "$@" --list 2> /dev/null | grep -c ': test$' || true
}

if ((${#filters[@]} == 0)); then
    if (($(listed) == 0)); then
        echo "pin.sh: cargo test ${args[*]} selects no test" >&2
        exit 1
    fi
fi
for f in "${filters[@]}"; do
    if (($(listed "$f") == 0)); then
        echo "pin.sh: filter '$f' selects no test in cargo test ${args[*]}" >&2
        exit 1
    fi
done
cargo test -q --release "${args[@]}" -- "${filters[@]}"
