#!/usr/bin/env bash
# Same-run A/B of the repository benchmark between two checkouts.
#
#   tools/ab.sh PARENT_DIR CHANGE_DIR [--pairs N] [--seed S]
#               [--workload W ...] [--quick]
#
# Each side builds and runs its own, unmodified benchmark/run.sh, one
# process per run, N alternating pairs per workload (odd pairs run the
# parent first, even pairs the change). Per workload and host-side metric
# it prints both medians with quartiles, the pairs the change won, and a
# verdict by the rule of the metrics guide (section 8):
#
#   gain               at least ten pairs, the change wins >= 9/10 of all
#                      of them (ties count for neither) and the medians
#                      differ by more than the parent's own inter-quartile
#                      range
#   worse than bound   change median worse than the parent's by more than
#                      the metric's bound in BENCHMARK.json
#   inside parent IQR  change median within the parent's [p25, p75]
#   unresolved         none of the above: a difference this many pairs do
#                      not settle
#
# Verdicts are for reading; what fails the script (exit 1) is a run that
# exits non-zero or reports "correct": false, or any simulated metric,
# attempted or failed count that differs between the sides or between
# runs: those are functions of the seed alone.
#
# Full-scale runs append one JSON line per (workload, side) to
# BENCH_history.jsonl at the root of this checkout: git rev (rev_of below
# says how a tree with uncommitted work is named), seed, pairs,
# every host-side metric's median and quartiles, every simulated one's
# value, and sim.events / sim.events_per_unit from one extra --trace 1
# run per side after the pairs (untimed, part of no verdict). --quick
# runs (1/20 scale, the ci.sh smoke) are not measurements and are not
# recorded.
#
# Needs bash, coreutils, awk and git; no jq, no python.
set -euo pipefail

die() {
    echo "ab.sh: $*" >&2
    exit 2
}

[[ $# -ge 2 ]] || die "usage: tools/ab.sh PARENT_DIR CHANGE_DIR [--pairs N] [--seed S] [--workload W ...] [--quick]"
parent=$(cd "$1" && pwd) || die "no such directory: $1"
change=$(cd "$2" && pwd) || die "no such directory: $2"
shift 2
pairs=10
seed=42
quick=0
workloads=()
while [[ $# -gt 0 ]]; do
    case "$1" in
    --pairs)
        pairs=${2:?--pairs needs a value}
        shift 2
        ;;
    --seed)
        seed=${2:?--seed needs a value}
        shift 2
        ;;
    --workload)
        shift
        while [[ $# -gt 0 && $1 != --* ]]; do
            workloads+=("$1")
            shift
        done
        ;;
    --quick)
        quick=1
        shift
        ;;
    *) die "unknown argument: $1" ;;
    esac
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || die "--pairs must be a positive integer"
[[ $seed =~ ^[0-9]+$ ]] || die "--seed must be a non-negative integer"
for dir in "$parent" "$change"; do
    [[ -f $dir/benchmark/run.sh && -f $dir/BENCHMARK.json ]] || die "$dir has no benchmark"
done
# A change that claims a gain may not edit the benchmark's index.
cmp -s "$parent/BENCHMARK.json" "$change/BENCHMARK.json" || die "BENCHMARK.json differs between the sides"
# Each side builds into its own benchmark/target (run.sh's default).
unset CARGO_TARGET_DIR

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# BENCHMARK.json -> "w NAME" per workload, "e NAME BOUND BETTER" per
# end-to-end metric. The file keeps one key per line.
awk '
    /"workloads": \[/ { sec = "w" }
    /"end_to_end": \[/ { sec = "e" }
    /"per_layer": \[/ { sec = "" }
    sec != "" && /"name":/ { split($0, q, "\""); name = q[4]; if (sec == "w") print "w", name }
    sec == "e" && /"better":/ { split($0, q, "\""); better = q[4] }
    sec == "e" && /"bound":/ { b = $0; gsub(/[^0-9.]/, "", b); print "e", name, b, better }
' "$parent/BENCHMARK.json" > "$tmp/spec"
if [[ ${#workloads[@]} -eq 0 ]]; then
    mapfile -t workloads < <(awk '$1 == "w" { print $2 }' "$tmp/spec")
fi
for w in "${workloads[@]}"; do
    grep -qx "w $w" "$tmp/spec" || die "BENCHMARK.json lists no workload $w"
done
mapfile -t metrics < <(awk '$1 == "e" { print $2 }' "$tmp/spec")
[[ ${#metrics[@]} -gt 0 ]] || die "BENCHMARK.json lists no end-to-end metric"

# rev_of DIR -> HEAD's short hash; for a tree with uncommitted work,
# HEAD+<8 hex of what the tree adds to it> (the tracked diff and the
# untracked .rs files; this script's own log aside), so two different
# trees measured on one parent never share a rev, and a recorded line can
# be matched to the commit that later contains that diff.
rev_of() {
    local rev added
    rev=$(git -C "$1" rev-parse --short HEAD 2> /dev/null) || {
        echo unknown
        return
    }
    added=$(
        cd "$1"
        git diff HEAD -- . ':(exclude)BENCH_history.jsonl'
        git ls-files -z --others --exclude-standard -- '*.rs' | xargs -0 -r sha1sum
    )
    [[ -z $added ]] || rev+="+$(sha1sum <<< "$added" | cut -c1-8)"
    echo "$rev"
}
parent_rev=$(rev_of "$parent")
change_rev=$(rev_of "$change")

# bench_line SIDE DIR WORKLOAD [ARG ...] -> the result line (the last of
# stdout) of one benchmark process at this seed, which must exit zero and
# report "correct": true.
bench_line() {
    local side=$1 dir=$2 w=$3 line
    shift 3
    if ! line=$(bash "$dir/benchmark/run.sh" --workload "$w" --seed "$seed" "$@" 2> "$tmp/stderr" | tail -n 1); then
        cat "$tmp/stderr" >&2
        echo "ab.sh: $side run of $w exited non-zero" >&2
        return 1
    fi
    if [[ $line != '{"correct": true,'* ]]; then
        cat "$tmp/stderr" >&2
        echo "ab.sh: $side run of $w is not correct: $line" >&2
        return 1
    fi
    echo "$line"
}

# value_of METRIC <<< LINE -> that metric's value in a result line.
value_of() {
    awk -v m="\"$1\": {\"value\": " '{
        i = index($0, m); if (!i) exit 1
        v = substr($0, i + length(m)); sub(/[,}].*/, "", v); print v
    }'
}

# run_side SIDE DIR WORKLOAD: one benchmark process; appends each metric's
# value to $tmp/WORKLOAD.SIDE.METRIC and the run's seed-determined part
# (counts and simulated metrics, verbatim) to $tmp/WORKLOAD.SIDE.sim.
run_side() {
    local side=$1 dir=$2 w=$3 line m
    local args=()
    [[ $quick -eq 1 ]] && args+=(--quick)
    line=$(bench_line "$side" "$dir" "$w" "${args[@]}") || exit 1
    for m in "${metrics[@]}"; do
        value_of "$m" <<< "$line" >> "$tmp/$w.$side.$m" || die "$side run of $w printed no $m"
    done
    {
        awk '{ match($0, /"attempted": [0-9]+, "failed": [0-9]+/); printf "%s", substr($0, RSTART, RLENGTH) }' <<< "$line"
        for m in "${metrics[@]}"; do
            [[ $m == sim_* ]] && printf ' %s=%s' "$m" "$(tail -n 1 "$tmp/$w.$side.$m")"
        done
        echo
    } >> "$tmp/$w.$side.sim"
}

# quartiles FILE -> "median p25 p75" (linear interpolation between ranks)
quartiles() {
    sort -g "$1" | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

differ=0
echo "parent $parent ($parent_rev)  change $change ($change_rev)  seed $seed  pairs $pairs$([[ $quick -eq 1 ]] && echo '  --quick')"
for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run_side parent "$parent" "$w"
            run_side change "$change" "$w"
        else
            run_side change "$change" "$w"
            run_side parent "$parent" "$w"
        fi
    done
    echo
    echo "$w"
    if [[ $(sort -u "$tmp/$w.parent.sim" "$tmp/$w.change.sim" | wc -l) -ne 1 ]]; then
        echo "  simulated metrics DIFFER (they are functions of the seed alone):"
        sort "$tmp/$w.parent.sim" | uniq -c | sed 's/^/    parent /'
        sort "$tmp/$w.change.sim" | uniq -c | sed 's/^/    change /'
        differ=1
    else
        echo "  identical on all $((2 * pairs)) runs: $(head -n 1 "$tmp/$w.parent.sim")"
    fi
    printf '  %-19s %-30s %-30s %8s %6s  %s\n' metric "parent median [p25, p75]" "change median [p25, p75]" "delta" "wins" verdict
    hist_p="" hist_c=""
    for m in "${metrics[@]}"; do
        if [[ $m == sim_* ]]; then
            # One value per seed, verbatim (checked identical above).
            hist_p+=", \"$m\": $(head -n 1 "$tmp/$w.parent.$m")"
            hist_c+=", \"$m\": $(head -n 1 "$tmp/$w.change.$m")"
            continue
        fi
        read -r pm p25 p75 < <(quartiles "$tmp/$w.parent.$m")
        read -r cm c25 c75 < <(quartiles "$tmp/$w.change.$m")
        hist_p+=", \"$m\": {\"median\": $pm, \"p25\": $p25, \"p75\": $p75}"
        hist_c+=", \"$m\": {\"median\": $cm, \"p25\": $c25, \"p75\": $c75}"
        read -r bound better < <(awk -v m="$m" '$1 == "e" && $2 == m { print $3, $4 }' "$tmp/spec")
        paste "$tmp/$w.parent.$m" "$tmp/$w.change.$m" | awk -v lower="$([[ $better == lower ]] && echo 1 || echo 0)" \
            -v pm="$pm" -v p25="$p25" -v p75="$p75" -v cm="$cm" -v bound="$bound" -v n="$pairs" '
            { if (lower ? $2 < $1 : $2 > $1) wins++ }
            END {
                worse = (lower ? cm - pm : pm - cm) / pm
                apart = (cm > pm ? cm - pm : pm - cm) > p75 - p25
                if (worse > bound) verdict = "worse than bound"
                else if (worse < 0 && n >= 10 && 10 * wins >= 9 * n && apart) verdict = "gain"
                else if (cm >= p25 && cm <= p75) verdict = "inside parent IQR"
                else verdict = "unresolved"
                printf "%+.1f%% %d/%d %s\n", 100 * (cm - pm) / pm, wins, n, verdict
            }' > "$tmp/verdict"
        read -r delta wins verdict < "$tmp/verdict"
        printf '  %-19s %-30s %-30s %8s %6s  %s\n' "$m" "$pm [$p25, $p75]" "$cm [$c25, $c75]" "$delta" "$wins" "$verdict"
    done
    if [[ $quick -eq 0 ]]; then
        # One untimed traced run per side: its event tally goes into the
        # history line, not into any verdict.
        bench_line parent "$parent" "$w" --trace 1 > "$tmp/$w.parent.traced" || exit 1
        bench_line change "$change" "$w" --trace 1 > "$tmp/$w.change.traced" || exit 1
        for m in sim.events sim.events_per_unit; do
            pv=$(value_of "$m" < "$tmp/$w.parent.traced") || die "traced parent run of $w printed no $m"
            cv=$(value_of "$m" < "$tmp/$w.change.traced") || die "traced change run of $w printed no $m"
            hist_p+=", \"$m\": $pv"
            hist_c+=", \"$m\": $cv"
            delta=$(awk -v p="$pv" -v c="$cv" 'BEGIN { if (p != 0) printf "%+.1f%%", 100 * (c - p) / p }')
            printf '  %-19s %-30s %-30s %8s %6s  %s\n' "$m" "$pv" "$cv" "$delta" "" "one traced run per side"
        done
        for side in parent change; do
            [[ $side == parent ]] && { rev=$parent_rev body=$hist_p; } || { rev=$change_rev body=$hist_c; }
            echo "{\"workload\": \"$w\", \"side\": \"$side\", \"rev\": \"$rev\", \"seed\": $seed, \"pairs\": $pairs$body}" >> "$root/BENCH_history.jsonl"
        done
    fi
done
exit $differ
