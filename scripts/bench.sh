#!/usr/bin/env bash
# The benchmark gates and the trajectory record. Each mode drives the
# command line of perfbench/, the benchmark BENCHMARK.json describes,
# from outside: it changes neither, and reads BENCHMARK.json only for
# the host_s_per_s bound and run_seconds.
#
#   scripts/bench.sh counters
#       Runs each workload at seeds 1-3 with --seconds 0 --trace 0,
#       requires "correct": true of every run, and diffs the nine
#       counter lines against BENCH_COUNTERS.txt byte for byte. The
#       file's "#" lines name the machine and are not compared.
#
#   scripts/bench.sh pairs PARENT [PAIRS]
#       PARENT is a checkout of the parent commit. Builds its
#       perfbench and this tree's, then runs PAIRS (default 6)
#       parent/child pairs of fleet, of hosts and of serve at seed 1
#       with --seconds 0 --trace 0, alternating which side runs first.
#       Fails if a run is not correct, or if a workload's median
#       child/parent host_s_per_s ratio is below 1 - bound, the bound
#       BENCHMARK.json gives host_s_per_s.
#
#   scripts/bench.sh record
#       Writes BENCH_<date>.json for the checked-out commit: one
#       untraced and one traced run of each workload at seeds 1-3,
#       each for BENCHMARK.json's run_seconds. Its "pairs" list starts
#       empty.
#
# Every run's output is kept under target/bench/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/target/bench"
mkdir -p "$out"

die() {
    echo "bench.sh: $*" >&2
    exit 1
}

build() {
    cargo build --release --offline -q --manifest-path "$1/perfbench/Cargo.toml" \
        --target-dir "$1/perfbench/target"
}

# run TREE FILE ARGS...: one perfbench run of TREE's build into FILE,
# which must end in a correct result line.
run() {
    local tree=$1 file=$2
    shift 2
    "$tree/perfbench/target/release/perfbench" "$@" >"$file"
    tail -n 1 "$file" | grep -q '"correct": true' || die "not correct: $* (see $file)"
}

# The counters line of a run, without its "counters " prefix.
counters_of() {
    tail -n 2 "$1" | head -n 1 | sed 's/^counters //'
}

# metric NAME FILE: the value of an end-to-end metric in a result line.
metric() {
    tail -n 1 "$2" | sed -n "s/.*\"$1\": {\"value\": \([0-9.]*\).*/\1/p"
}

# A BENCHMARK.json field, read from the one line that holds it.
manifest() {
    sed -n "$1" "$root/BENCHMARK.json"
}

machine() {
    local cpu
    cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
    echo "$cpu, $(nproc) vCPUs, $(getconf GNU_LIBC_VERSION)"
}

counters() {
    build "$root"
    local fresh="$out/BENCH_COUNTERS.txt" w s
    {
        echo "# perfbench's counter line of each --seconds 0 --trace 0 run, after"
        echo "# its workload and seed (scripts/bench.sh counters). A changed line"
        echo "# is a behaviour change. SimRng and the web-app draw through libm's"
        echo "# ln, exp and cos, so the lines are exact for the CPU and glibc they"
        echo "# were recorded on: $(machine)."
    } >"$fresh"
    for w in fleet hosts serve; do
        for s in 1 2 3; do
            run "$root" "$out/counters-$w-$s.out" --workload "$w" --seed "$s" --seconds 0 --trace 0
            echo "$w $s counters $(counters_of "$out/counters-$w-$s.out")" >>"$fresh"
        done
    done
    if grep -v '^#' "$root/BENCH_COUNTERS.txt" | diff - <(grep -v '^#' "$fresh"); then
        echo "counters: all 9 lines match BENCH_COUNTERS.txt"
    else
        echo "counters: the simulation's behaviour changed (< committed, > this tree)." >&2
        echo "Explain why, and re-record in a commit of its own:" >&2
        echo "  cp target/bench/BENCH_COUNTERS.txt BENCH_COUNTERS.txt" >&2
        exit 1
    fi
}

pairs() {
    local parent n=${2:-6} bound
    parent=$(cd "${1:?usage: bench.sh pairs PARENT [PAIRS]}" && pwd)
    bound=$(manifest 's/.*"name": "host_s_per_s".*"bound": \([0-9.]*\).*/\1/p')
    [ -n "$bound" ] || die "BENCHMARK.json gives host_s_per_s no bound"
    build "$parent"
    build "$root"
    local w i side failed=0
    for w in fleet hosts serve; do
        local ratios="$out/pairs-$w.txt"
        : >"$ratios"
        for i in $(seq 1 "$n"); do
            local order="parent child"
            [ $((i % 2)) -eq 0 ] && order="child parent"
            for side in $order; do
                local tree=$root
                [ "$side" = parent ] && tree=$parent
                run "$tree" "$out/pairs-$w-$i-$side.out" --workload "$w" --seed 1 --seconds 0 --trace 0
            done
            local p c
            p=$(metric host_s_per_s "$out/pairs-$w-$i-parent.out")
            c=$(metric host_s_per_s "$out/pairs-$w-$i-child.out")
            awk -v p="$p" -v c="$c" 'BEGIN { printf "%.4f\n", c / p }' >>"$ratios"
            printf '%s pair %d (%s first): parent %.0f, child %.0f host-s/s, ratio %s\n' \
                "$w" "$i" "${order%% *}" "$p" "$c" "$(tail -n 1 "$ratios")"
        done
        sort -g "$ratios" | awk -v w="$w" -v b="$bound" '
            { r[NR] = $1 }
            END {
                m = NR % 2 ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
                printf "%s: median child/parent host_s_per_s %.4f over %d pairs (%.4f-%.4f), floor %.2f\n",
                    w, m, NR, r[1], r[NR], 1 - b
                exit !(m >= 1 - b)
            }' || failed=1
    done
    [ "$failed" -eq 0 ] || die "host_s_per_s fell by more than the bound BENCHMARK.json allows"
}

record() {
    local secs
    secs=$(manifest 's/.*"run_seconds": \([0-9.]*\).*/\1/p')
    [ -n "$secs" ] || die "BENCHMARK.json gives no run_seconds"
    build "$root"
    # Traced runs write their spans under the working directory.
    cd "$root"
    local file sep="" w s t f
    file="BENCH_$(date -u +%Y-%m-%d).json"
    {
        printf '{"schema": "pas-repro-perfbench/v1", "commit": "%s", "created_utc": "%s", "machine": "%s",\n' \
            "$(git describe --always --dirty --abbrev=40 --exclude='*')" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(machine)"
        printf ' "run_seconds": %s, "runs": [' "$secs"
        for w in fleet hosts serve; do
            for s in 1 2 3; do
                for t in 0 1; do
                    f="$out/record-$w-$s-$t.out"
                    run "$root" "$f" --workload "$w" --seed "$s" --seconds "$secs" --trace "$t"
                    printf '%s\n  {"workload": "%s", "seed": %s, "trace": %s, "counters": %s, "result": %s}' \
                        "$sep" "$w" "$s" "$t" "$(counters_of "$f")" "$(tail -n 1 "$f")"
                    sep=","
                done
            done
        done
        printf '],\n "pairs": []}\n'
    } >"$out/$file"
    mv "$out/$file" "$file"
    echo "wrote $file"
}

case "${1:-}" in
counters) counters ;;
pairs) pairs "${@:2}" ;;
record) record ;;
*) die "usage: bench.sh counters | pairs PARENT [PAIRS] | record" ;;
esac
