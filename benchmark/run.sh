#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Arguments go to the program unchanged:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--quick] [--selfcheck]
#
# Without --workload every workload of BENCHMARK.json runs, each in a
# process of its own; see benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
# Keep freed memory in the process: no heap trimming, and only blocks of
# 4 MiB or more come from mmap. glibc's adaptive thresholds otherwise make
# page-fault traffic, and with it host time, depend on the seed. The
# program refuses to start without these; src/main.rs (ALLOCATOR_ENV) and
# the README's "Sizing and noise" say why these values.
export MALLOC_TRIM_THRESHOLD_=1073741824 MALLOC_MMAP_THRESHOLD_=4194304
exec "$CARGO_TARGET_DIR/release/edm-benchmark" "$@"
