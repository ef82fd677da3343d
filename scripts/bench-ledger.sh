#!/usr/bin/env bash
# bench-ledger.sh — record the ledger/ingest benchmark baseline.
#
# Runs the sharded-ledger accrual benchmarks and the /v3 ingest benchmarks
# in both wire formats (BenchmarkUsageStream* covers NDJSON and the binary
# frame fast path), and renders the results as JSON so successive PRs can
# diff a perf trajectory instead of eyeballing `go test -bench` text.
#
# Usage:
#   scripts/bench-ledger.sh [output.json]       (default: BENCH_ledger.json)
#   BENCHTIME=2000x scripts/bench-ledger.sh     (default: 1000x)
#   CPUS=1,2 scripts/bench-ledger.sh            (GOMAXPROCS list, default: 1)
#
# CPUS is passed to go test as -cpu, so every benchmark runs once per listed
# GOMAXPROCS and gets one JSON row per CPU count.
#
# Output shape:
#   {
#     "goos": "...", "goarch": "...", "cpu": "...", "maxprocs": N,
#     "cpus": "1,2", "benchtime": "...",
#     "benchmarks": [
#       {"name": "BenchmarkAccrueParallel/shards=8", "gomaxprocs": 2, "iterations": N,
#        "metrics": {"ns/op": ..., "accruals/s": ..., "B/op": ..., "allocs/op": ...}},
#       ...
#     ]
#   }
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_ledger.json}
benchtime=${BENCHTIME:-1000x}
cpus=${CPUS:-1}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkAccrueParallel|BenchmarkAccrueKeyed|BenchmarkTenantsPage' \
    -benchtime "$benchtime" -cpu "$cpus" ./internal/ledger/ | tee "$raw"
go test -run '^$' -bench 'BenchmarkUsageStream' \
    -benchtime "$benchtime" -cpu "$cpus" ./internal/api/ | tee -a "$raw"

maxprocs=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
awk -v benchtime="$benchtime" -v maxprocs="$maxprocs" -v cpus="$cpus" '
    /^goos: /   { goos = $2 }
    /^goarch: / { goarch = $2 }
    /^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
    /^Benchmark/ {
        # go test appends -N to the name when GOMAXPROCS is N != 1.
        name = $1; procs = 1;
        if (match(name, /-[0-9]+$/)) {
            procs = substr(name, RSTART + 1);
            name = substr(name, 1, RSTART - 1);
        }
        if (n++) entries = entries ",";
        entries = entries sprintf("\n    {\"name\": \"%s\", \"gomaxprocs\": %s, \"iterations\": %s, \"metrics\": {", name, procs, $2);
        # Remaining fields come in value-unit pairs: 123 ns/op 456 B/op ...
        sep = "";
        for (i = 3; i + 1 <= NF; i += 2) {
            entries = entries sprintf("%s\"%s\": %s", sep, $(i + 1), $i);
            sep = ", ";
        }
        entries = entries "}}";
    }
    END {
        printf "{\n";
        printf "  \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\",\n", goos, goarch, cpu;
        printf "  \"maxprocs\": %s, \"cpus\": \"%s\", \"benchtime\": \"%s\",\n", maxprocs, cpus, benchtime;
        printf "  \"benchmarks\": [%s\n  ]\n}\n", entries;
    }
' "$raw" > "$out"

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"
