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

run_harness_bins() {
    for bin in table1 fig5 sched_scaling; do
        cargo run -q --release -p edm-bench --bin "$bin" > /dev/null
    done
    EDM_FLOWS=500 cargo run -q --release -p edm-bench --bin topo_sweep > /dev/null
    # The sharded engine end-to-end (bit-identical results; exercises
    # the conservative window protocol outside the test harness).
    EDM_FLOWS=500 EDM_SHARDS=2 cargo run -q --release -p edm-bench --bin topo_sweep > /dev/null
}

# Reduced-scale streaming-lifecycle smoke: 100k flows through the
# 288-node leaf-spine must complete under a hard RSS ceiling (the full
# 1M run peaks near 10 MB; 256 MB is an order-of-magnitude leak guard).
# The second run replays the same scale through a mid-run spine flap, so
# the flatness and RSS gates also cover the fault path.
run_million_flows_smoke() {
    EDM_FLOWS=100000 EDM_RSS_CEILING_MB=256 \
        cargo run -q --release -p edm-bench --bin million_flows -- \
        --out "$(mktemp -d)" > /dev/null
    EDM_FLOWS=100000 EDM_FAULTS=1 EDM_RSS_CEILING_MB=256 \
        cargo run -q --release -p edm-bench --bin million_flows -- \
        --out "$(mktemp -d)" > /dev/null
}

# Approximate-estimator smoke: overlap validation at reduced flow count
# still asserts the p99 error envelope against the exact engine (the
# 10x speedup gate arms only at full scale, so the small grid is just
# an end-to-end wiring check of the delta path).
run_approx_smoke() {
    EDM_FLOWS=1000 EDM_GRID_FLOWS=2000 EDM_GRID_VARIANTS=4 \
        EDM_GRID_PASSES=1 EDM_REPS=1 \
        cargo run -q --release -p edm-bench --bin approx_sweep -- \
        --out "$(mktemp -d)" > /dev/null
}

# Chaos-campaign smoke: seeded fault/repair schedules across scenarios
# and loads at reduced scale, under the same leak-guard RSS ceiling.
run_chaos_smoke() {
    EDM_FLOWS=20000 EDM_RSS_CEILING_MB=256 \
        cargo run -q --release -p edm-bench --bin chaos_sweep -- \
        --out "$(mktemp -d)" > /dev/null
}

# Closed-loop application smoke: the reduced grid (3 MLPs x 2 splits,
# 2 shards) still asserts the acceptance envelope inside the bin —
# every op completes, residency stays inside the MLP windows, and EDM
# beats CXL-over-Ethernet on the identical fabric — under the same
# leak-guard RSS ceiling.
run_app_smoke() {
    EDM_APP_GRID=smoke EDM_APP_SHARDS=2 EDM_RSS_CEILING_MB=256 \
        cargo run -q --release -p edm-bench --bin app_sweep -- \
        --out "$(mktemp -d)" > /dev/null
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
step "fast harness bins run end-to-end (incl. 2-shard engine)" run_harness_bins
step "million_flows 100k-flow smoke under 256 MB RSS ceiling (incl. fault path)" \
    run_million_flows_smoke
step "approx_sweep smoke: error envelope vs exact on overlap sizes" \
    run_approx_smoke
step "chaos_sweep smoke: seeded fault/repair campaign under RSS ceiling" \
    run_chaos_smoke
step "app_sweep smoke: closed-loop YCSB, EDM vs CXL-oE envelope (2 shards)" \
    run_app_smoke
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
