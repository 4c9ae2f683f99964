#!/bin/sh
# Host-performance benchmark harness: runs the event-engine micro-benchmarks
# (value-typed 4-ary heap vs the boxed container/heap baseline), the unit
# models' TLB micro-benchmarks and one hardware mark phase
# (BenchmarkUnitMarkPhase), the per-cell image-construction comparison
# (cold build vs snapshot clone), and the end-to-end quick-suite benchmarks
# (serial vs parallel fleet), then appends one JSONL trajectory line to
# BENCH_host.json — keyed by git SHA and date — so host performance is a
# time series across commits, not a single snapshot.
#
#   scripts/bench.sh                # appends to ./BENCH_host.json
#   scripts/bench.sh /tmp/out.json  # appends elsewhere
#
# Each line is a self-contained JSON object:
#   {"git_sha": "...", "dirty": false, "date": "YYYY-MM-DD", "host": "...",
#    "cpus": N,
#    "benchmarks": [{"name": ..., "gomaxprocs": ..., "iters": ...,
#                    "ns_per_op": ..., "bytes_per_op": ...,
#                    "allocs_per_op": ...}, ...]}
# "dirty" is true when `git status --porcelain` lists any change besides
# the output file: the numbers were then measured on an uncommitted tree,
# not on the commit git_sha names.
# On a single-CPU host the parallel fleet benchmark is skipped (the
# serial-vs-parallel comparison is meaningless there) and the line carries
# "serial_vs_parallel": "skipped: single-cpu host".
# Diff two commits with e.g.:
#   jq -s '.[-2:]' BENCH_host.json
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_host.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
# Porcelain lines are "XY path"; the output file itself is expected to
# change, so it does not make the tree dirty.
out_rel="$(realpath --relative-to=. "$out" 2>/dev/null || echo "$out")"
if git status --porcelain 2>/dev/null |
    awk -v f="$out_rel" 'substr($0, 4) != f { found = 1 } END { exit !found }'; then
    dirty=true
else
    dirty=false
fi
date="$(date -u +%Y-%m-%d)"
ncpu="$(nproc 2>/dev/null || echo 1)"

echo "== engine micro-benchmarks (ns/op, allocs/op)"
go test -run '^$' -bench 'BenchmarkHostEngine' -benchmem -benchtime=200ms \
    ./internal/sim | tee -a "$raw"

echo "== unit models: TLB fill with eviction, TLB hit, one hardware mark phase"
go test -run '^$' -bench 'BenchmarkTLBInsertFull|BenchmarkTLBLookupHit' -benchmem \
    -benchtime=200ms ./internal/vmem | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkUnitMarkPhase$' -benchmem -benchtime=3x \
    . | tee -a "$raw"

echo "== per-cell image construction: cold build vs snapshot clone"
go test -run '^$' -bench 'BenchmarkHostColdBuild|BenchmarkHostSnapshotClone' \
    -benchmem -benchtime=200ms . | tee -a "$raw"

if [ "$ncpu" -gt 1 ]; then
    suite='BenchmarkHostFullSuite'
    par_note=""
    echo "== full experiment suite, serial vs parallel (host wall time)"
else
    suite='BenchmarkHostFullSuiteSerial$'
    par_note="skipped: single-cpu host"
    echo "== full experiment suite, serial only (single CPU: parallel comparison skipped)"
fi
go test -run '^$' -bench "$suite" -benchmem -benchtime=1x \
    . | tee -a "$raw"

awk -v host="$(uname -sm)" -v ncpu="$ncpu" -v dirty="$dirty" \
    -v sha="$sha" -v date="$date" -v par_note="$par_note" '
BEGIN { n = 0 }
/^Benchmark/ && /ns\/op/ {
    # The -N suffix on a benchmark name is the GOMAXPROCS it ran at.
    name = $1; gmp = "null"
    if (match(name, /-[0-9]+$/)) {
        gmp = substr(name, RSTART + 1, RLENGTH - 1)
        sub(/-[0-9]+$/, "", name)
    }
    iters = $2; ns = $3
    bytes = ""; allocs = ""
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    rows[n++] = sprintf("{\"name\": \"%s\", \"gomaxprocs\": %s, \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                        name, gmp, iters, ns, bytes == "" ? "null" : bytes,
                        allocs == "" ? "null" : allocs)
}
END {
    printf "{\"git_sha\": \"%s\", \"dirty\": %s, \"date\": \"%s\", \"host\": \"%s\", \"cpus\": %s, ", sha, dirty, date, host, ncpu
    if (par_note != "") printf "\"serial_vs_parallel\": \"%s\", ", par_note
    printf "\"benchmarks\": ["
    for (i = 0; i < n; i++) printf "%s%s", rows[i], (i < n - 1 ? ", " : "")
    printf "]}\n"
}
' "$raw" >> "$out"

echo "appended $(tail -1 "$out" | cut -c1-60)... to $out ($(wc -l < "$out") runs)"
