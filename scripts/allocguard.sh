#!/bin/sh
# Allocation-regression sentinel: runs the quick experiment suite, one
# hardware mark phase and the per-cell image-construction micro-benchmarks
# once (-benchtime=1x), and the zero-budget micro-benchmarks 10000 times
# (one stray allocation elsewhere in the process then rounds to 0 allocs/op,
# while a real per-operation allocation still reads >= 1), with -benchmem,
# and compares allocs/op against the checked-in budgets in
# scripts/alloc_budget.txt. A benchmark more than 15% over budget fails the
# gate — that is how the fleet's allocation discipline stays held after the
# 638M -> 16M allocs/op overhaul (see docs/PERFORMANCE.md).
#
#   scripts/allocguard.sh             # compare against the budget file
#   scripts/allocguard.sh -update     # rewrite the budget numbers from this run,
#                                     # keeping the file's comments and order
set -eu

cd "$(dirname "$0")/.."
budget="scripts/alloc_budget.txt"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "== allocation sentinel: quick suite, mark phase + image, cluster, service and telemetry benchmarks (1 iteration)"
go test -run '^$' \
    -bench 'BenchmarkHostFullSuiteSerial$|BenchmarkUnitMarkPhase$|BenchmarkHostColdBuild$|BenchmarkHostSnapshotClone$|BenchmarkClusterLoopbackDispatch$|BenchmarkServiceCacheHit$|BenchmarkTelemetryMetrics$' \
    -benchmem -benchtime=1x . ./internal/cluster/ ./internal/service/ ./internal/telemetry/ | tee "$raw"
echo "== allocation sentinel: zero-budget micro-benchmarks (10000 iterations)"
go test -run '^$' \
    -bench 'BenchmarkWallSpanOff$|BenchmarkTLBInsertFull$|BenchmarkTLBLookupHit$' \
    -benchmem -benchtime=10000x ./internal/telemetry/ ./internal/vmem/ | tee -a "$raw"

if [ "${1:-}" = "-update" ]; then
    # Only the numbers change: comment lines and the benchmark order stay;
    # a measured benchmark the file does not list yet is appended.
    awk -v budget="$budget" '
    /^Benchmark/ && /allocs\/op/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        for (i = 4; i <= NF; i++) if ($i == "allocs/op") got[name] = $(i - 1)
        if (!(name in seen)) { seen[name] = 1; order[++n] = name }
    }
    END {
        while ((getline line < budget) > 0) {
            split(line, f, " ")
            if (line !~ /^#/ && (f[1] in got)) {
                print f[1], got[f[1]]
                listed[f[1]] = 1
            } else {
                print line
            }
        }
        for (i = 1; i <= n; i++) if (!(order[i] in listed)) print order[i], got[order[i]]
    }' "$raw" > "$budget.tmp" && mv "$budget.tmp" "$budget"
    echo "rewrote $budget"
    exit 0
fi

awk -v budget="$budget" '
BEGIN {
    while ((getline line < budget) > 0) {
        if (line ~ /^#/ || line ~ /^[[:space:]]*$/) continue
        split(line, f, " ")
        want[f[1]] = f[2] + 0
    }
    close(budget)
    failed = 0
}
/^Benchmark/ && /allocs\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    allocs = ""
    for (i = 4; i <= NF; i++) if ($i == "allocs/op") allocs = $(i - 1) + 0
    if (allocs == "" || !(name in want)) next
    seen[name] = 1
    limit = want[name] * 1.15
    if (allocs > limit) {
        printf "FAIL %s: %d allocs/op exceeds budget %d by more than 15%% (limit %.0f)\n",
               name, allocs, want[name], limit
        failed = 1
    } else {
        printf "ok   %s: %d allocs/op (budget %d, limit %.0f)\n",
               name, allocs, want[name], limit
        if (allocs < want[name] * 0.5)
            printf "note %s: well under budget — consider ratcheting %s down\n", name, budget
    }
}
END {
    for (name in want) if (!(name in seen)) {
        printf "FAIL %s: budgeted benchmark did not run\n", name
        failed = 1
    }
    exit failed
}
' "$raw"

echo "allocation sentinel ok"
