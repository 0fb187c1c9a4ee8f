#!/usr/bin/env bash
# Benchmark regression gate: run the scoring and summary-cache
# benchmarks, compare each ns/op against the recorded baseline in
# BENCH_core.json, and fail only on a gross slowdown (> FACTOR x the
# baseline, default 2.0 — CI runners are noisy, so the gate catches
# an accidentally quadratic hot path, not a 10% wobble).
#
# Environment:
#   FACTOR     slowdown multiple that fails the gate (default 2.0)
#   BENCH_OUT  file receiving the raw `go test -bench` output, kept as
#              a CI artifact (default bench_gate_output.txt)
set -euo pipefail

cd "$(dirname "$0")/.."

FACTOR="${FACTOR:-2.0}"
BENCH_OUT="${BENCH_OUT:-bench_gate_output.txt}"
BASELINE="BENCH_core.json"

# Under `set -e` a benchmark that dies mid-pipe exits silently; point
# at the partial output so the failure is diagnosable from CI logs
# (the gate's own FAIL lines exit through here too, already explained).
cleanup() {
  status=$?
  if [ "$status" -ne 0 ] && [ -s "$BENCH_OUT" ]; then
    echo "bench_gate: exited $status; raw benchmark output in $BENCH_OUT" >&2
  fi
  exit "$status"
}
trap cleanup EXIT

command -v jq >/dev/null || { echo "bench_gate: jq is required" >&2; exit 1; }

: >"$BENCH_OUT"
run_bench() { # $1 = -bench regexp, $2 = -benchtime, $3 = package
  echo "== go test -bench='$1' -benchtime=$2 $3" | tee -a "$BENCH_OUT"
  go test -run='^$' -bench="$1" -benchtime="$2" -benchmem "$3" | tee -a "$BENCH_OUT"
}

# Fixed iteration counts: the gate wants one honest sample per
# benchmark, not a publication-grade measurement (BENCH_core.json keeps
# those, from -benchtime=3s runs). The counts are sized so warmup —
# pool population, page faults, dataset generation — amortizes below
# the gate's noise budget; single-digit counts measured 2-3x high.
# -benchmem feeds the allocs/op gate below.
run_bench 'AggEval|EvalBlock|EvalRows' 20000x ./internal/provenance/
# One op of PlanProbe is a whole step's cohort (~250 probes), ~1 ms;
# one op of PlanProbeCarried is the next step's cohort, carried across
# one merge (each op also builds its fixture, untimed, ~3 ms).
run_bench 'PlanProbe$|PlanProbeCarried$' 500x ./internal/provenance/
# The step pair covers both plan kinds: MovieLens on the arena plan and
# DDP on its tropical block plan (SummarizeStepScoringDDP).
run_bench 'SummarizeStepScoring' 50x ./internal/distance/
run_bench 'SummarizeScoringDelta$' 5x .
run_bench 'SummarizeExtend(Cold|Warm)$' 10x .
# One op of StreamAppend is one ingest batch, ~30 µs, on a session
# opened untimed (~100 µs each).
run_bench 'StreamAppend$' 2000x ./internal/stream/
run_bench 'ServerSummarizeCache' 100x ./internal/server/

status=0
while IFS=$'\t' read -r name baseline; do
  # benchmark lines look like: BenchmarkFoo-8  5  123456 ns/op  512 B/op  9 allocs/op
  measured=$(awk -v b="$name" '$1 ~ "^"b"(-[0-9]+)?$" && $4 == "ns/op" { print $3; exit }' "$BENCH_OUT")
  if [ -z "$measured" ]; then
    echo "WARN  $name: in $BASELINE but not measured (renamed or not run?)"
    continue
  fi
  ratio=$(awk -v m="$measured" -v b="$baseline" 'BEGIN { printf "%.2f", m / b }')
  if awk -v m="$measured" -v b="$baseline" -v f="$FACTOR" 'BEGIN { exit !(m > b * f) }'; then
    echo "FAIL  $name: ${measured} ns/op vs baseline ${baseline} (${ratio}x > ${FACTOR}x)"
    status=1
  else
    echo "ok    $name: ${measured} ns/op vs baseline ${baseline} (${ratio}x)"
  fi
done < <(jq -r '.benchmarks[] | [.name, (.ns_per_op | tostring)] | @tsv' "$BASELINE")

# Allocation gate: benchmarks that record allocs_per_op must not grow
# past ALLOC_FACTOR x the baseline. Allocation counts are deterministic
# (no runner-noise excuse), so the factor is tighter than the ns gate —
# it catches a hot path silently losing its pooled/zero-alloc property.
ALLOC_FACTOR="${ALLOC_FACTOR:-1.5}"
while IFS=$'\t' read -r name baseline; do
  measured=$(awk -v b="$name" '$1 ~ "^"b"(-[0-9]+)?$" && $8 == "allocs/op" { print $7; exit }' "$BENCH_OUT")
  if [ -z "$measured" ]; then
    echo "WARN  $name: allocs_per_op in $BASELINE but not measured"
    continue
  fi
  if awk -v m="$measured" -v b="$baseline" -v f="$ALLOC_FACTOR" 'BEGIN { exit !(m > b * f) }'; then
    echo "FAIL  $name: ${measured} allocs/op vs baseline ${baseline} (> ${ALLOC_FACTOR}x)"
    status=1
  else
    echo "ok    $name: ${measured} allocs/op vs baseline ${baseline}"
  fi
done < <(jq -r '.benchmarks[] | select(.allocs_per_op != null) | [.name, (.allocs_per_op | tostring)] | @tsv' "$BASELINE")

if [ "$status" -ne 0 ]; then
  echo "bench_gate: regression beyond ${FACTOR}x baseline (raw output in $BENCH_OUT)" >&2
else
  echo "bench_gate: all benchmarks within ${FACTOR}x of $BASELINE"
fi
exit "$status"
