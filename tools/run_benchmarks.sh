#!/usr/bin/env sh
# Runs the machine-readable benchmark suite and collects the JSON outputs.
#
#   tools/run_benchmarks.sh [BUILD_DIR] [OUT_DIR]
#   tools/run_benchmarks.sh --check [BUILD_DIR]
#
# BUILD_DIR defaults to ./build, OUT_DIR to the repo root. Produces:
#   OUT_DIR/BENCH_perf.json    engine comparison (micro_patterns --json-out):
#                              interpreter vs compiled-kernel ms + speedup
#                              per core pattern at equal thread count
#   OUT_DIR/BENCH_table2.json  generated C++ vs hand-written C++ per app
#                              (table2_sequential --json-out; with
#                              DMLL_BENCH_TUNE=1 also dmll-tuned records
#                              from the codegen autotuner, docs/TUNING.md)
#   OUT_DIR/BENCH_metrics.prom final Prometheus metrics snapshot of the
#                              table2 run (--metrics-out): compile/fallback
#                              counters and histograms, archived next to
#                              BENCH_history.jsonl per suite run
#                              (docs/TELEMETRY.md)
#   OUT_DIR/BENCH_serve.json   daemon serving metrics (docs/SERVICE.md):
#                              request p50/p99 from serve.request_ms,
#                              compiled-program cache hit rate, req/s —
#                              dmll-serve on an ephemeral port driven by
#                              dmll-loadgen
#
# Every fresh run is additionally appended to OUT_DIR/BENCH_history.jsonl —
# one line per document, {"ts": "<UTC ISO-8601>", "doc": {...}} — so the
# overwritten BENCH_*.json files keep a git-tracked time series. Diff the
# current run against the previous matching entry with
#   build/tools/dmll-prof --history BENCH_history.jsonl CURRENT.json
#
# --check is the perf-regression gate (the perf_smoke ctest): it reruns
# micro_patterns into a temp directory and diffs it against the committed
# BENCH_perf.json with tools/dmll-prof, failing when any pattern got more
# than DMLL_PROF_THRESHOLD (default 3.0) times slower. It then reruns
# table2_sequential and gates the per-app generated-C++-vs-hand-written
# speedups against the committed BENCH_table2.json (dmll-prof --speedup):
# an app whose speedup shrank by more than DMLL_TABLE2_THRESHOLD (default
# 2.0) fails the gate. Speedups are measured against a reference in the
# same run, so this second gate is insensitive to absolute machine load.
# Set DMLL_CHECK_TABLE2=0 to skip it. The committed reference files are
# not touched in this mode.
#
# The record format is documented in bench/bench_json.h; the engine design
# in docs/EXECUTION.md; the gate workflow in docs/TELEMETRY.md.

set -eu

CHECK=0
if [ "${1:-}" = "--check" ]; then
  CHECK=1
  shift
fi

ROOT=$(dirname "$0")/..
BUILD_DIR=${1:-build}
OUT_DIR=${2:-.}

if [ ! -x "$BUILD_DIR/bench/micro_patterns" ]; then
  echo "error: $BUILD_DIR/bench/micro_patterns not built" >&2
  echo "build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

if [ "$CHECK" = 1 ]; then
  if [ ! -x "$BUILD_DIR/tools/dmll-prof" ]; then
    echo "error: $BUILD_DIR/tools/dmll-prof not built" >&2
    exit 1
  fi
  THRESHOLD=${DMLL_PROF_THRESHOLD:-3.0}
  TMP_DIR=$(mktemp -d)
  trap 'rm -rf "$TMP_DIR"' EXIT
  echo "== perf check: micro_patterns vs committed BENCH_perf.json (threshold ${THRESHOLD}x) =="
  "$BUILD_DIR/bench/micro_patterns" --json-out "$TMP_DIR/BENCH_perf.json"
  "$BUILD_DIR/tools/dmll-prof" --threshold "$THRESHOLD" \
    "$ROOT/BENCH_perf.json" "$TMP_DIR/BENCH_perf.json"

  if [ "${DMLL_CHECK_TABLE2:-1}" = 1 ] && \
     [ -x "$BUILD_DIR/bench/table2_sequential" ] && \
     [ -f "$ROOT/BENCH_table2.json" ]; then
    T2_THRESHOLD=${DMLL_TABLE2_THRESHOLD:-2.0}
    echo "== table2 check: per-app speedup vs committed BENCH_table2.json (threshold ${T2_THRESHOLD}x) =="
    "$BUILD_DIR/bench/table2_sequential" --json-out "$TMP_DIR/BENCH_table2.json" > /dev/null
    "$BUILD_DIR/tools/dmll-prof" --speedup --threshold "$T2_THRESHOLD" \
      "$ROOT/BENCH_table2.json" "$TMP_DIR/BENCH_table2.json"
  fi
  exit 0
fi

# Appends one {"ts": ..., "doc": ...} line per benchmark document to the
# history file (the BENCH_*.json files themselves are overwritten per run).
append_history() {
  TS=$(date -u +%Y-%m-%dT%H:%M:%SZ)
  # Compact the document onto one line so the history stays one JSON
  # object per line (JSONL).
  DOC=$(tr -d '\n' < "$1")
  printf '{"ts":"%s","doc":%s}\n' "$TS" "$DOC" >> "$OUT_DIR/BENCH_history.jsonl"
}

echo "== engine comparison (interp vs kernel) =="
"$BUILD_DIR/bench/micro_patterns" --json-out "$OUT_DIR/BENCH_perf.json"
append_history "$OUT_DIR/BENCH_perf.json"

echo "== table 2 (generated C++ vs hand-written) =="
TUNE_FLAG=""
if [ "${DMLL_BENCH_TUNE:-0}" = 1 ]; then
  TUNE_FLAG="--tune"
fi
"$BUILD_DIR/bench/table2_sequential" $TUNE_FLAG --json-out "$OUT_DIR/BENCH_table2.json" \
  --metrics-out "$OUT_DIR/BENCH_metrics.prom"
append_history "$OUT_DIR/BENCH_table2.json"

if [ -x "$BUILD_DIR/tools/dmll-serve" ] && \
   [ -x "$BUILD_DIR/tools/dmll-loadgen" ]; then
  echo "== serve (daemon p50/p99, cache hit rate, req/s) =="
  SERVE_TMP=$(mktemp -d)
  "$BUILD_DIR/tools/dmll-serve" --port 0 --port-file "$SERVE_TMP/ports" \
    --threads 4 > "$SERVE_TMP/serve.out" 2> "$SERVE_TMP/serve.err" &
  SERVE_PID=$!
  # set -e must not leak the daemon: it inherits our stdout, so a
  # survivor holds the pipe open for whoever invoked this script.
  trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SERVE_TMP"' EXIT
  TRIES=0
  while [ ! -s "$SERVE_TMP/ports" ] && [ "$TRIES" -lt 100 ]; do
    TRIES=$((TRIES + 1)); sleep 0.1
  done
  if "$BUILD_DIR/tools/dmll-loadgen" --port-file "$SERVE_TMP/ports" \
       --clients 4 --requests 8 --scale 50 \
       --bench-out "$OUT_DIR/BENCH_serve.json" --shutdown; then
    wait "$SERVE_PID" || true
    append_history "$OUT_DIR/BENCH_serve.json"
    echo "wrote $OUT_DIR/BENCH_serve.json"
  else
    kill "$SERVE_PID" 2>/dev/null || true
    cat "$SERVE_TMP/serve.err" >&2
    echo "warning: serve benchmark failed; skipping BENCH_serve.json" >&2
  fi
  rm -rf "$SERVE_TMP"
fi

echo "wrote $OUT_DIR/BENCH_perf.json and $OUT_DIR/BENCH_table2.json"
echo "archived the run's metrics snapshot to $OUT_DIR/BENCH_metrics.prom"
echo "appended this run to $OUT_DIR/BENCH_history.jsonl"
