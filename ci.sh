#!/usr/bin/env bash
# Tier-1 gate for the EDM workspace. Mirrors what CI should run.
#
# Every step is timed; a per-step summary prints at the end. The
# property suites — the gate's dominant cost — are pre-built once and
# then run concurrently, one job per crate.
set -euo pipefail
cd "$(dirname "$0")"

STEP_NAMES=()
STEP_SECS=()

# step <name> <command...> — announce, run, and time one gate step.
step() {
    local name="$1"
    shift
    echo "==> $name"
    local t0=$SECONDS
    "$@"
    STEP_NAMES+=("$name")
    STEP_SECS+=($((SECONDS - t0)))
}

run_examples() {
    for ex in quickstart preemption remote_kv_store cluster_simulation; do
        cargo run -q --release --example "$ex" > /dev/null
    done
}

# Every experiment of the one harness binary, at the scale its committed
# artefact uses (all 16: ~16 s). One process each, so the 256 MB RSS
# ceiling the binary checks on exit is per experiment (the "peak RSS"
# lines are its stderr). The experiments assert their own envelopes;
# the three deterministic artefacts must then regenerate byte for byte.
run_experiments() {
    cargo build -q --release -p edm-bench
    local bin="${CARGO_TARGET_DIR:-target}/release/edm-bench" out name f
    out=$(mktemp -d)
    for name in $("$bin" list | cut -d' ' -f1); do
        "$bin" "$name" --out "$out" > /dev/null
    done
    for f in BENCH_app.json BENCH_faults.json BENCH_mem.json; do
        cmp "$out/$f" "$f" || {
            echo "$f is not what this tree produces. Regenerate the artefacts and commit them:" \
                "for n in million_flows chaos_sweep approx_sweep app_sweep;" \
                "do cargo run --release -p edm-bench -- \$n; done"
            return 1
        }
    done
}

PROP_CRATES=(edm-core edm-phy edm-sched edm-memory edm-sim edm-topo edm-workloads edm-approx)

# One cargo invocation builds every release test binary, then the
# per-crate suites run as concurrent background jobs (cargo only takes
# its lock for the no-op freshness check). Logs surface only on failure.
run_prop_suites() {
    local pkg_flags=()
    for crate in "${PROP_CRATES[@]}"; do
        pkg_flags+=(-p "$crate")
    done
    cargo test -q --release --no-run "${pkg_flags[@]}" > /dev/null
    local tmp
    tmp=$(mktemp -d)
    local pids=()
    for crate in "${PROP_CRATES[@]}"; do
        (
            t0=$SECONDS
            # The event-queue lockstep holds are not proptests but belong
            # with them: release is where the engines actually run.
            extra=""
            [[ $crate == edm-sim ]] && extra="--test hold_lockstep"
            if PROPTEST_CASES="$PROPTEST_CASES" \
                cargo test -q --release -p "$crate" --test "prop_*" $extra \
                > "$tmp/$crate.log" 2>&1; then
                echo "$((SECONDS - t0))" > "$tmp/$crate.ok"
            else
                echo "$((SECONDS - t0))" > "$tmp/$crate.fail"
            fi
        ) &
        pids+=($!)
    done
    for pid in "${pids[@]}"; do
        wait "$pid"
    done
    local failed=0
    for crate in "${PROP_CRATES[@]}"; do
        if [[ -f "$tmp/$crate.ok" ]]; then
            printf '    %-12s ok in %ss\n' "$crate" "$(cat "$tmp/$crate.ok")"
        else
            printf '    %-12s FAILED in %ss\n' "$crate" "$(cat "$tmp/$crate.fail")"
            cat "$tmp/$crate.log"
            failed=1
        fi
    done
    return $failed
}

rustdoc_gate() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

step "cargo fmt --check" cargo fmt --check
step "cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings
step "cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)" rustdoc_gate
step "cargo build --release" cargo build --release
step "cargo test -q" cargo test -q
step "cargo build --examples" cargo build --examples
step "examples run end-to-end" run_examples
step "edm-bench: all 16 experiments at full scale, RSS ceiling, 3 artefacts byte-identical" \
    run_experiments
# The repository benchmark at 1/20 scale through the A/B tool, this
# checkout on both sides (< 20 s once built): all seven workloads of
# BENCHMARK.json twice, every output check on — reps repeat the warm-up
# bit for bit, the 2-shard engine matches the sequential one — and the
# two runs of a workload must agree on every simulated metric. It builds
# into benchmark/target, apart from the workspace. Timing verdicts from
# one quick pair mean nothing and fail nothing.
step "tools/ab.sh . . --pairs 1 --quick: seven workloads twice, checks on, no difference" \
    tools/ab.sh . . --pairs 1 --quick
step "property suites at ${PROPTEST_CASES:=1024} cases (concurrent per crate)" \
    run_prop_suites

echo
echo "ci.sh step timing:"
for i in "${!STEP_NAMES[@]}"; do
    printf '  %4ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
done
echo "ci.sh: all green"
