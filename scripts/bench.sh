#!/usr/bin/env bash
# Measures the dominance-pruned sweep coordinator: a cold unpruned sweep
# (every design point fully evaluated) against the same cold sweep through
# the coordinator's bound pre-pass + streaming-front pruning, plus the
# pre-pass in isolation, and emits BENCH_PR9.json.
#
# Before any timing, the byte-identity acceptance tests run
# (TestCoordinatorFrontMatchesUnpruned: the pruned front == ParetoFront of
# the unpruned sweep by DesignPoint equality, on AlexNet and ResNet18;
# TestCoordinatorWorkerInvariance: identical fronts across worker widths)
# — the JSON records that they passed, so a pruned number can never be
# reported for a coordinator that changes results.
#
# All three numbers are measured live in the same run on the same space
# (AlexNet, 3 arch sizes x {parallel x1, serial x1} crypto, serial guided
# CryptOptSingle, caches dropped per iteration): BenchmarkSweepColdUnpruned
# is the evaluate-everything path, BenchmarkSweepColdPruned the coordinator
# with -prune, BenchmarkSweepBoundsPrepass the bound pre-pass alone.
#
# Every extracted metric is validated non-empty before the JSON is
# assembled: if a benchmark is renamed or deleted, the script fails with a
# non-zero exit naming the missing metric instead of emitting broken JSON.
#
# Earlier PR artifacts (BENCH_PR1/2/4/6/7.json) are historical records;
# this script now measures the PR9 surface.
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-BENCH_PR9.json}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "running pruned-front byte-identity tests..." >&2
go test ./internal/dse -run '^(TestCoordinatorFrontMatchesUnpruned|TestCoordinatorWorkerInvariance)$' -count=1 >&2

echo "running BenchmarkSweepColdUnpruned (3x, -benchmem)..." >&2
go test ./internal/dse -run '^$' -bench '^BenchmarkSweepColdUnpruned$' -benchtime 3x -benchmem | grep -E '^Benchmark' >>"$tmp"
echo "running BenchmarkSweepColdPruned (3x, -benchmem)..." >&2
go test ./internal/dse -run '^$' -bench '^BenchmarkSweepColdPruned$' -benchtime 3x -benchmem | grep -E '^Benchmark' >>"$tmp"
echo "running BenchmarkSweepBoundsPrepass (10x)..." >&2
go test ./internal/dse -run '^$' -bench '^BenchmarkSweepBoundsPrepass$' -benchtime 10x | grep -E '^Benchmark' >>"$tmp"

# metric NAME UNIT -> value of the column preceding UNIT on NAME's row.
metric() {
	awk -v n="$1" -v m="$2" '$1 ~ "^"n"(-[0-9]+)?$" {
		for (i = 2; i <= NF; i++) if ($i == m) print $(i-1)
	}' "$tmp"
}

# require NAME UNIT -> like metric, but fails the script when the metric is
# absent (renamed/deleted benchmark, missing -benchmem column).
require() {
	local v
	v="$(metric "$1" "$2")"
	if [ -z "$v" ]; then
		echo "bench.sh: benchmark metric not found: $1 $2 (renamed or deleted?)" >&2
		echo "bench.sh: raw output was:" >&2
		cat "$tmp" >&2
		exit 1
	fi
	printf '%s' "$v"
}

unpruned_ns="$(require BenchmarkSweepColdUnpruned ns/op)"
unpruned_bytes="$(require BenchmarkSweepColdUnpruned B/op)"
unpruned_allocs="$(require BenchmarkSweepColdUnpruned allocs/op)"
unpruned_evals="$(require BenchmarkSweepColdUnpruned full-evals/op)"
pruned_ns="$(require BenchmarkSweepColdPruned ns/op)"
pruned_bytes="$(require BenchmarkSweepColdPruned B/op)"
pruned_allocs="$(require BenchmarkSweepColdPruned allocs/op)"
pruned_evals="$(require BenchmarkSweepColdPruned full-evals/op)"
pruned_skipped="$(require BenchmarkSweepColdPruned pruned/op)"
prepass_ns="$(require BenchmarkSweepBoundsPrepass ns/op)"

speedup="$(awk -v a="$unpruned_ns" -v b="$pruned_ns" 'BEGIN { printf "%.2f", a / b }')"
prepass_pct="$(awk -v a="$prepass_ns" -v b="$unpruned_ns" 'BEGIN { printf "%.3f", 100 * a / b }')"

# The pruned sweep must beat the unpruned baseline on both wall time and
# full evaluations, and the pre-pass must stay under 5% of the cold sweep —
# the PR's acceptance criteria, enforced here so a regression can never
# silently ship a worse JSON.
awk -v a="$unpruned_ns" -v b="$pruned_ns" 'BEGIN { exit !(b < a) }' || {
	echo "bench.sh: pruned sweep (${pruned_ns} ns/op) not faster than unpruned (${unpruned_ns} ns/op)" >&2
	exit 1
}
awk -v a="$unpruned_evals" -v b="$pruned_evals" 'BEGIN { exit !(b < a) }' || {
	echo "bench.sh: pruned sweep (${pruned_evals} evals/op) not fewer than unpruned (${unpruned_evals})" >&2
	exit 1
}
awk -v p="$prepass_pct" 'BEGIN { exit !(p < 5) }' || {
	echo "bench.sh: bound pre-pass is ${prepass_pct}% of the cold sweep (>= 5%)" >&2
	exit 1
}

cat >"$OUT" <<EOF
{
  "pr": 9,
  "generated_by": "scripts/bench.sh",
  "protocol": "go test -bench -benchmem; -benchtime 3x (sweeps), 10x (pre-pass); serial guided CryptOptSingle sweep of AlexNet over 3 arch sizes x {parallel x1, serial x1} crypto engines, all in-memory caches dropped before every iteration (cold)",
  "note": "before = BenchmarkSweepColdUnpruned, the evaluate-every-point sweep. after = BenchmarkSweepColdPruned, the same cold sweep with dominance pruning (bound pre-pass + streaming Pareto front). BenchmarkSweepBoundsPrepass is the pre-pass alone; prepass_pct_of_cold_sweep divides it by the unpruned sweep. Byte-identity of the pruned front is asserted by TestCoordinatorFrontMatchesUnpruned (DesignPoint equality vs ParetoFront of the unpruned sweep, AlexNet and ResNet18) and TestCoordinatorWorkerInvariance (identical fronts across worker-pool widths), run before the benchmarks.",
  "pruned_front_byte_identical_to_unpruned": true,
  "benchmarks": {
    "BenchmarkSweepColdUnpruned": {
      "ns_per_op": ${unpruned_ns},
      "bytes_per_op": ${unpruned_bytes},
      "allocs_per_op": ${unpruned_allocs},
      "full_evals_per_op": ${unpruned_evals}
    },
    "BenchmarkSweepColdPruned": {
      "ns_per_op": ${pruned_ns},
      "bytes_per_op": ${pruned_bytes},
      "allocs_per_op": ${pruned_allocs},
      "full_evals_per_op": ${pruned_evals},
      "points_pruned_per_op": ${pruned_skipped},
      "speedup_vs_unpruned": ${speedup}
    },
    "BenchmarkSweepBoundsPrepass": {
      "ns_per_op": ${prepass_ns},
      "prepass_pct_of_cold_sweep": ${prepass_pct}
    }
  }
}
EOF
echo "wrote $OUT" >&2
