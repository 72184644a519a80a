#!/usr/bin/env bash
# Where one benchmark workload spends its CPU time, by sampling.
#
#   tools/profile.sh --workload NAME [--seconds S]
#
# Builds the benchmark (benchmark/, unmodified) with line tables into
# its own target dir (target/profile), runs NAME once under
# tools/sampler.c (LD_PRELOAD; SIGPROF on consumed CPU time records the
# interrupted instruction pointer), symbolizes every sample with
# `addr2line -a -f -C -i` and prints three tables: the top 25 innermost
# functions (inlined frames count as their own function), then the top
# 25 source files and source lines, each sample charged to its innermost
# frame in this repository (std code inlined into a crate counts toward
# that crate's line).
#
# Granularity: the sampler asks for 1 kHz, but ITIMER_PROF only fires on
# the kernel's tick — about 250 samples per CPU-second on a 250 Hz
# kernel — so a share below 1 % of a 10 s run rests on fewer than 25
# samples. Run 10 s or more (default 20) and read shares, not absolutes;
# the script prints the rate it saw. The benchmark's warm-up rep and its
# per-layer probes are sampled too. The run uses the benchmark's
# default seed, 42.
#
# Needs bash, cc, addr2line, readelf, awk, sort and uniq.
set -euo pipefail
cd "$(dirname "$0")/.."

die() {
    echo "profile.sh: $*" >&2
    exit 2
}

workload=
seconds=20
top=25
while [[ $# -gt 0 ]]; do
    case "$1" in
    --workload) workload=${2:?--workload needs a value} && shift 2 ;;
    --seconds) seconds=${2:?--seconds needs a value} && shift 2 ;;
    *) die "unknown argument: $1" ;;
    esac
done
[[ -n $workload ]] || die "usage: tools/profile.sh --workload NAME [--seconds S]"

target=target/profile
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cc -shared -fPIC -O2 -o "$work/sampler.so" tools/sampler.c
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=$target \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=$(cd "$target/release" && pwd)/edm-benchmark

# The allocator settings benchmark/run.sh exports (the program refuses
# to start without them).
start=$(date +%s.%N)
SAMPLER_OUT=$work/raw LD_PRELOAD=$work/sampler.so \
    MALLOC_TRIM_THRESHOLD_=1073741824 MALLOC_MMAP_THRESHOLD_=4194304 \
    "$bin" --workload "$workload" --seconds "$seconds" --seed 42 > /dev/null
end=$(date +%s.%N)
[[ -s $work/raw ]] || die "the run wrote no samples"

# Per sample: the mapped object it hit and its address within that
# object's ELF image, taking the object's offset-0 mapping as its load
# base (true of position-independent objects; the loop below refuses
# any other).
awk '
function hex(s,    v, i) {
    s = tolower(s); sub(/^0x/, "", s); v = 0
    for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return v
}
function tohex(v,    s) {
    s = ""
    do { s = substr("0123456789abcdef", v % 16 + 1, 1) s; v = int(v / 16) } while (v > 0)
    return "0x" s
}
$1 == "map" && $7 ~ /^\// {
    split($2, r, "-")
    if (hex($4) == 0 && !($7 in base)) base[$7] = hex(r[1])
    if ($3 ~ /x/) { n++; lo[n] = hex(r[1]); hi[n] = hex(r[2]); path[n] = $7 }
    next
}
$1 == "sample" {
    a = hex($2); obj = "?"
    for (i = 1; i <= n; i++) if (a >= lo[i] && a < hi[i]) { obj = path[i]; break }
    if (obj == "?") print "? 0x0"
    else print obj, tohex(a - base[obj])
}' "$work/raw" > "$work/mapped"

total=$(wc -l < "$work/mapped")
awk -v t="$total" -v s="$start" -v e="$end" 'BEGIN {
    printf "%d samples over %.1f s wall (%.0f per wall second)\n", t, e - s, t / (e - s)
}'

# Symbolize each object's distinct addresses in one addr2line call and
# emit "count<TAB>function<TAB>file:line": the innermost frame's
# function, and the innermost frame that lies in this repository (an
# inlined `Vec::push` counts toward the code that pushed), else the
# innermost frame's location.
repo=$(pwd)/
sort "$work/mapped" | uniq -c > "$work/counted"
: > "$work/frames"
for obj in $(awk '{print $2}' "$work/counted" | sort -u); do
    awk -v o="$obj" '$2 == o {print $1, $3}' "$work/counted" > "$work/obj"
    if [[ $obj == "?" ]] || ! [[ -r $obj ]]; then
        awk -v o="$obj" '{print $1 "\t[" o "]\t[" o "]"}' "$work/obj" >> "$work/frames"
        continue
    fi
    if readelf -h "$obj" 2> /dev/null | grep -q 'Type:.*EXEC'; then
        die "$obj is not position-independent; only PIE objects are symbolized"
    fi
    # Only the benchmark has line tables; elsewhere a name is the nearest
    # symbol the object exports (libc string routines show up under a
    # neighbour's), so those rows carry the object's name.
    name=${obj##*/}
    [[ $obj == "$bin" ]] && name=
    awk '{print $2}' "$work/obj" | addr2line -a -f -C -i -e "$obj" |
        awk -v counts="$work/obj" -v name="$name" -v repo="$repo" '
        function flush(    own, j) {
            if (a == "") return
            own = loc[0]
            for (j = 0; j < nf / 2; j++) if (index(loc[j], repo) == 1) { own = loc[j]; break }
            if (name != "") { fn[0] = (fn[0] == "??" ? "" : fn[0] " ") "[" name "]"; own = "[" name "]" }
            print c[a] "\t" fn[0] "\t" own
        }
        BEGIN { while ((getline l < counts) > 0) { split(l, f, " "); c[f[2]] = f[1] } }
        /^0x/ {
            flush()
            a = $0; sub(/^0x0*/, "0x", a); if (a == "0x") a = "0x0"
            nf = 0; next
        }
        {
            if (nf % 2 == 0) fn[nf / 2] = $0
            else { l = $0; sub(/ \(discriminator.*/, "", l); loc[(nf - 1) / 2] = l }
            nf++
        }
        END { flush() }' >> "$work/frames"
done

# Shorten paths: repository-relative, "std:" for the toolchain's sources.
awk -F'\t' -v repo="$repo" '{
    loc = $3
    if (index(loc, repo) == 1) loc = substr(loc, length(repo) + 1)
    sub(/^\/rustc\/[0-9a-f]+\/library\//, "std:", loc)
    print $1 "\t" $2 "\t" loc
}' "$work/frames" > "$work/short"

report() {
    local title=$1 key=$2
    echo
    echo "$title"
    awk -F'\t' -v t="$total" -v key="$key" '{
        if (key == "fn") k = $2
        else if (key == "file") { k = $3; sub(/:[0-9?]*$/, "", k) }
        else k = $3
        s[k] += $1
    } END { for (k in s) printf "%6.2f %%  %6d  %s\n", 100 * s[k] / t, s[k], k }' "$work/short" |
        sort -k1,1 -g -r | awk -v top="$top" 'NR <= top'
}
report "Innermost functions (share of samples):" fn
report "Source files (innermost frame in this repository):" file
report "Source lines (innermost frame in this repository):" line
