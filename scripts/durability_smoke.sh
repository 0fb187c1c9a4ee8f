#!/usr/bin/env bash
# Crash-recovery smoke test for the durable job engine: start
# prox-server with a data dir, submit a summarization job, kill the
# process hard (no drain, no compaction), restart it over the same
# directory, and assert the interrupted job resumes to completion and
# its session survives with a working summary. With -trace-dir the span
# journal survives the crash too, so the test also asserts the resumed
# run continues under the original request's trace ID: the restarted
# server logs it, GET /api/traces/{id} shows the resume spans, and
# /metrics carries it as a latency-histogram exemplar.
#
# A second crash round covers the streaming path: the session grows by
# an ingest batch, an identical re-summarize warm-starts from the
# version chain (Extend), the server dies mid-extend, and the restarted
# server must resume the seeded job and append the new version with the
# right parent pointer.
set -euo pipefail

cd "$(dirname "$0")/.."

DIR=$(mktemp -d)
PORT="${PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
BIN="$DIR/prox-server"
PID=""

cleanup() {
  status=$?
  # Under `set -e` any failing curl/jq exits silently; dump the server
  # logs so a CI failure is diagnosable from the job output alone.
  if [ "$status" -ne 0 ]; then
    echo "durability smoke FAILED (exit $status); server logs:" >&2
    for log in "$DIR"/run*.log; do
      [ -f "$log" ] || continue
      echo "--- $log ---" >&2
      cat "$log" >&2
    done
  fi
  if [ -n "$PID" ]; then kill "$PID" 2>/dev/null || true; fi
  rm -rf "$DIR"
  exit "$status"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/prox-server

start_server() { # $1 = log file
  "$BIN" -addr ":$PORT" -data-dir "$DIR/data" -checkpoint-every 1 \
         -trace-dir "$DIR/data/trace" -log-level info \
         -workers 1 -users 64 -movies 12 >"$1" 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do
    if curl -sf "$BASE/metrics" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "server did not come up; log:" >&2
  cat "$1" >&2
  exit 1
}

start_server "$DIR/run1.log"

SESSION=$(curl -sf -X POST "$BASE/api/select" -d '{}' | jq -r .sessionId)
SUBMIT=$(curl -sf -X POST "$BASE/api/jobs" -d "{
  \"sessionId\": \"$SESSION\", \"wDist\": 0.5, \"wSize\": 0.5,
  \"steps\": 60, \"valuationClass\": \"annotation\"
}")
JOB=$(echo "$SUBMIT" | jq -r .id)
TRACE=$(echo "$SUBMIT" | jq -r .trace)
echo "submitted job $JOB on session $SESSION (trace $TRACE)"

# Kill as soon as the worker picks the job up (the 60-step run takes a
# fraction of a second, so a fixed sleep lets it finish first): with
# -checkpoint-every 1 the merge loop journals from its first step.
for _ in $(seq 1 200); do
  case "$(curl -sf "$BASE/api/jobs/$JOB" | jq -r .state)" in
    running|done) break ;;
  esac
  sleep 0.02
done
kill -9 "$PID"       # simulated crash
wait "$PID" 2>/dev/null || true
PID=""
echo "killed server mid-run (state before crash: $(tail -1 "$DIR/run1.log"))"

start_server "$DIR/run2.log"
RESUMED=1
if REQUEUE=$(grep -o 'requeued interrupted job.*' "$DIR/run2.log"); then
  echo "$REQUEUE"
else
  echo "note: job had already finished before the crash"
  RESUMED=0
fi

STATE=""
for _ in $(seq 1 300); do
  STATE=$(curl -sf "$BASE/api/jobs/$JOB" | jq -r .state)
  case "$STATE" in
    done) break ;;
    failed|canceled)
      echo "job $JOB ended $STATE after restart; log:" >&2
      cat "$DIR/run2.log" >&2
      exit 1 ;;
  esac
  sleep 0.2
done
if [ "$STATE" != done ]; then
  echo "job $JOB stuck in state $STATE after restart; log:" >&2
  cat "$DIR/run2.log" >&2
  exit 1
fi
echo "job $JOB reached done after restart"

# Trace continuity across the crash: the resumed run must still be
# working under the pre-kill trace ID — visible in the restarted
# server's logs, in its trace store (with the resume span), and as a
# latency-histogram exemplar on /metrics.
if [ "$RESUMED" = 1 ]; then
  if ! grep -q "$TRACE" "$DIR/run2.log"; then
    echo "restarted server never logged pre-kill trace id $TRACE" >&2
    cat "$DIR/run2.log" >&2
    exit 1
  fi
  curl -sf "$BASE/api/traces/$TRACE" |
    jq -e 'tostring | test("job.resume") and test("merge-step")' >/dev/null
  # The exemplar lands when the terminal-transition hook runs, which is
  # a moment after the job state reads done (the hook journals the
  # record first) — poll briefly instead of racing it.
  EXEMPLAR=0
  for _ in $(seq 1 50); do
    if curl -sf "$BASE/metrics" | grep -q "trace_id=\"$TRACE\""; then
      EXEMPLAR=1
      break
    fi
    sleep 0.1
  done
  if [ "$EXEMPLAR" != 1 ]; then
    echo "no exemplar with trace_id=$TRACE on /metrics after resume" >&2
    exit 1
  fi
  echo "trace $TRACE contiguous across crash (logs, span tree, exemplar)"
fi

# the restored session must serve the evaluator over the resumed summary
curl -sf -X POST "$BASE/api/evaluate" \
  -d "{\"sessionId\": \"$SESSION\", \"target\": \"summary\"}" |
  jq -e .results >/dev/null

# --- Streaming: ingest, warm-started extend, crash mid-extend ---
V1=$(curl -sf "$BASE/api/sessions/$SESSION/versions" | jq '.versions | length')
if [ "$V1" -lt 1 ]; then
  echo "no summary version after the first job (got $V1)" >&2
  exit 1
fi

# A batch big enough that the warm-started extend has real merge work
# left (48 fresh users over four fresh movies), so the kill below can
# land mid-run.
EXPR=""
UNIVERSE=""
for i in $(seq 900 947); do
  EXPR="$EXPR (+) U$i (x) ($((i % 5 + 1)),1)@M90$((i % 4))"
  UNIVERSE="$UNIVERSE,{\"ann\": \"U$i\", \"table\": \"users\", \"attrs\": {\"gender\": \"F\", \"age\": \"9\"}}"
done
EXPR=${EXPR# (+) }
for m in M900 M901 M902 M903; do
  UNIVERSE="$UNIVERSE,{\"ann\": \"$m\", \"table\": \"movies\"}"
done
curl -sf -X POST "$BASE/api/ingest" -d "{
  \"sessionId\": \"$SESSION\",
  \"expression\": \"$EXPR\",
  \"universe\": [${UNIVERSE#,}]
}" | jq -e '.addedTensors == 48' >/dev/null
echo "ingested 48 tensors into session $SESSION"

# Same parameters as the first job: the grown expression misses the
# exact cache key, and the warm-start index turns the run into an
# Extend seeded from the version chain.
EXT_SUBMIT=$(curl -sf -X POST "$BASE/api/jobs" -d "{
  \"sessionId\": \"$SESSION\", \"wDist\": 0.5, \"wSize\": 0.5,
  \"steps\": 60, \"valuationClass\": \"annotation\"
}")
EXTJOB=$(echo "$EXT_SUBMIT" | jq -r .id)
echo "submitted extend job $EXTJOB"

# Kill as soon as the worker picks the job up: with -checkpoint-every 1
# the merge loop journals from its first step, so an immediate kill
# still leaves a resumable checkpoint.
for _ in $(seq 1 200); do
  case "$(curl -sf "$BASE/api/jobs/$EXTJOB" | jq -r .state)" in
    running|done) break ;;
  esac
  sleep 0.02
done
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""
echo "killed server mid-extend (state before crash: $(tail -1 "$DIR/run2.log"))"

start_server "$DIR/run3.log"
if REQUEUE=$(grep -o 'requeued interrupted job.*' "$DIR/run3.log"); then
  echo "$REQUEUE"
else
  echo "note: extend job had already finished before the crash"
fi

STATE=""
for _ in $(seq 1 300); do
  STATE=$(curl -sf "$BASE/api/jobs/$EXTJOB" | jq -r .state)
  case "$STATE" in
    done) break ;;
    failed|canceled)
      echo "extend job $EXTJOB ended $STATE after restart; log:" >&2
      cat "$DIR/run3.log" >&2
      exit 1 ;;
  esac
  sleep 0.2
done
if [ "$STATE" != done ]; then
  echo "extend job $EXTJOB stuck in state $STATE after restart; log:" >&2
  cat "$DIR/run3.log" >&2
  exit 1
fi
echo "extend job $EXTJOB reached done after restart"

# The version chain must have grown across the crash, and its tip must
# be a warm-started child of a prior version.
VERSIONS=$(curl -sf "$BASE/api/sessions/$SESSION/versions")
V2=$(echo "$VERSIONS" | jq '.versions | length')
if [ "$V2" -le "$V1" ]; then
  echo "version chain did not grow across the crash: $V1 -> $V2" >&2
  echo "$VERSIONS" | jq . >&2
  exit 1
fi
echo "$VERSIONS" | jq -e '.versions[-1] | (.parent >= 1) and (.extendedFrom >= 1)' >/dev/null || {
  echo "version-chain tip is not a warm-started child:" >&2
  echo "$VERSIONS" | jq '.versions[-1]' >&2
  exit 1
}
TIP=$(echo "$VERSIONS" | jq -r '.versions[-1] | "v\(.version) parent v\(.parent), \(.extendedFrom) of \(.steps) steps seeded"')
echo "version chain grew across crash: $V1 -> $V2 versions ($TIP)"

# The structural diff seed -> tip must resolve over the replayed chain.
A=$(echo "$VERSIONS" | jq -r '.versions[-1].parent')
B=$(echo "$VERSIONS" | jq -r '.versions[-1].version')
curl -sf "$BASE/api/versions/$SESSION.$A/diff/$SESSION.$B" |
  jq -e '.a and .b' >/dev/null
echo "structural diff v$A -> v$B OK"

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""
echo "durability smoke OK"
