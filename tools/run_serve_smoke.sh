#!/usr/bin/env sh
# Serve smoke gate (the serve_smoke ctest): end-to-end check of the
# dmll-serve daemon (docs/SERVICE.md) under hostile clients.
#
#   tools/run_serve_smoke.sh [BUILD_DIR]
#
# What it does:
#   1. Starts dmll-serve on an ephemeral port (--port 0 --port-file) with
#      an ephemeral telemetry endpoint (--metrics-port 0), so parallel
#      ctest runs never race on a fixed port.
#   2. Drives it with dmll-loadgen: concurrent clients, a trapping tenant
#      mixed in every few requests (trapdiv must come back "trapped", not
#      kill the daemon), and clients that disconnect right after sending
#      (the daemon's response hits a dead socket — MSG_NOSIGNAL, not
#      SIGPIPE). --check asserts the daemon survives, the compiled-program
#      cache recorded hits, and repeated (app, scale) requests returned
#      bit-identical digests.
#   3. Validates the BENCH_serve.json document carries the serve.request_ms
#      p50/p99, a nonzero cache hit count and a nonzero wall_ms.
#   4. Format-checks the live telemetry endpoint with dmll-top --check
#      --port (the serve counters flow through the same exposition).
#   5. Sends the shutdown command and requires a clean daemon exit.
#
# Exit nonzero on any failure.

set -eu

BUILD_DIR=${1:-build}

for BIN in tools/dmll-serve tools/dmll-loadgen tools/dmll-top; do
  if [ ! -x "$BUILD_DIR/$BIN" ]; then
    echo "error: $BUILD_DIR/$BIN not built" >&2
    exit 1
  fi
done

TMP_DIR=$(mktemp -d)
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$TMP_DIR"
}
trap cleanup EXIT

echo "== starting dmll-serve (ephemeral ports) =="
"$BUILD_DIR/tools/dmll-serve" --port 0 --port-file "$TMP_DIR/ports" \
  --threads 4 --max-queue 16 --metrics-port 0 \
  > "$TMP_DIR/serve.out" 2> "$TMP_DIR/serve.err" &
SERVE_PID=$!

# Wait for the port file (the daemon writes it once bound).
TRIES=0
while [ ! -s "$TMP_DIR/ports" ]; do
  TRIES=$((TRIES + 1))
  if [ "$TRIES" -gt 100 ]; then
    echo "error: dmll-serve never wrote its port file" >&2
    cat "$TMP_DIR/serve.err" >&2
    exit 1
  fi
  sleep 0.1
done
SERVE_PORT=$(sed -n 1p "$TMP_DIR/ports")
METRICS_PORT=$(sed -n 2p "$TMP_DIR/ports")
echo "daemon on port $SERVE_PORT, metrics on port $METRICS_PORT"

echo "== loadgen: concurrent clients + trapping tenant + mid-response disconnects =="
"$BUILD_DIR/tools/dmll-loadgen" --port "$SERVE_PORT" \
  --clients 4 --requests 6 --scale 100 --trap-every 5 --abort-every 7 \
  --check --bench-out "$TMP_DIR/BENCH_serve.json"

echo "== BENCH_serve.json sanity =="
for KEY in p50_ms p99_ms cache_hits hit_rate rps; do
  if ! grep -q "\"$KEY\"" "$TMP_DIR/BENCH_serve.json"; then
    echo "error: BENCH_serve.json carries no $KEY" >&2
    cat "$TMP_DIR/BENCH_serve.json" >&2
    exit 1
  fi
done
if grep -q '"cache_hits":0[,}]' "$TMP_DIR/BENCH_serve.json"; then
  echo "error: compiled-program cache recorded no hits" >&2
  exit 1
fi
if grep -Eq '"wall_ms":0(\.0*)?[,}]' "$TMP_DIR/BENCH_serve.json"; then
  echo "error: BENCH_serve.json reports wall_ms 0" >&2
  exit 1
fi
head -c 400 "$TMP_DIR/BENCH_serve.json"; echo

echo "== live telemetry endpoint (dmll-top --check --port) =="
if [ "$METRICS_PORT" -gt 0 ]; then
  "$BUILD_DIR/tools/dmll-top" --check --port "$METRICS_PORT"
else
  echo "error: daemon reported no metrics port" >&2
  exit 1
fi

echo "== clean shutdown =="
"$BUILD_DIR/tools/dmll-loadgen" --port "$SERVE_PORT" \
  --clients 1 --requests 1 --scale 200 --shutdown
# The daemon ACKed the shutdown before loadgen returned, so this wait is
# bounded by its drain; a hang is caught by the ctest TIMEOUT.
wait "$SERVE_PID" || {
  echo "error: daemon exited nonzero" >&2
  cat "$TMP_DIR/serve.err" >&2
  exit 1
}
SERVE_PID=""
if ! grep -q "shut down cleanly" "$TMP_DIR/serve.err"; then
  echo "error: daemon log shows no clean shutdown" >&2
  cat "$TMP_DIR/serve.err" >&2
  exit 1
fi
echo "serve smoke: all checks passed"
