#!/usr/bin/env bash
# End-to-end smoke test for the serving subsystem: train a small bundle with
# clara_cli, run the pipe-mode daemon over a stream that mixes good requests
# with a malformed frame, check every request gets a structured answer, then
# exercise socket mode (including the stats/health/dump control plane, the
# SIGUSR1 flight dump, and request tracing) and a SIGTERM shutdown.
#
# Usage: serve_smoke.sh [build-dir]   (defaults to the current directory)
set -euo pipefail

BUILD_DIR="${1:-$(pwd)}"
CLI="$BUILD_DIR/tools/clara_cli"
SERVE="$BUILD_DIR/tools/clara_serve"
CLIENT="$BUILD_DIR/tools/clara_client"
CHECK_TRACE="$(dirname "$0")/../tools/check_trace.py"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Asserts that stdin is one well-formed JSON document.
assert_json() {
  python3 -c 'import json,sys; json.load(sys.stdin)' || {
    echo "serve_smoke: $1 is not valid JSON" >&2
    return 1
  }
}

echo "== train a small bundle =="
"$CLI" train --fast --model-dir="$WORK/models"
test -f "$WORK/models/clara_bundle.bin"

echo "== pipe daemon: 4 requests, one malformed =="
{
  "$CLIENT" --emit --element=aggcounter --count=2
  "$CLIENT" --emit-malformed
  "$CLIENT" --emit --element=heavyhitter
} > "$WORK/requests.bin"
"$SERVE" --pipe --model-dir="$WORK/models" --infer=f32 < "$WORK/requests.bin" \
  > "$WORK/responses.bin"

set +e
"$CLIENT" --decode < "$WORK/responses.bin" > "$WORK/decoded.txt"
decode_rc=$?
set -e
cat "$WORK/decoded.txt"
# The malformed frame must produce an error response (decode exits 1), but
# all four frames must still be answered -- the daemon never drops or dies.
test "$decode_rc" -eq 1
responses=$(grep -c '^\[' "$WORK/decoded.txt")
errors=$(grep -c 'ERROR' "$WORK/decoded.txt")
test "$responses" -eq 4
test "$errors" -eq 1

echo "== socket daemon: clients, control plane, tracing, SIGTERM shutdown =="
"$SERVE" --socket="$WORK/clara.sock" --model-dir="$WORK/models" \
  --infer=f32 --trace="$WORK/serve_trace.json" --slo-p99-us=1000000 \
  --metrics-jsonl="$WORK/metrics.jsonl" --metrics-interval=200 \
  2> "$WORK/serve.log" &
pid=$!
for _ in $(seq 1 100); do
  [ -S "$WORK/clara.sock" ] && break
  sleep 0.1
done
test -S "$WORK/clara.sock"
"$CLIENT" --socket="$WORK/clara.sock" --element=udpcount
"$CLIENT" --socket="$WORK/clara.sock" --element=udpcount --trace-id=7 --full \
  | tee "$WORK/traced.txt"
grep -q 'trace=7 cache-hit' "$WORK/traced.txt"

echo "== control plane: stats/health/dump return well-formed JSON =="
"$CLIENT" stats --socket="$WORK/clara.sock" | tee "$WORK/stats.json" \
  | assert_json stats
grep -q 'serve.requests' "$WORK/stats.json"
grep -q '"stats_version":2' "$WORK/stats.json"
grep -q '"infer":"f32"' "$WORK/stats.json"
# The epoll transport (socket mode's only transport) reports itself in the envelope.
grep -q '"transport":{"mode":"epoll"' "$WORK/stats.json"

echo "== pidfile: a second daemon on the same socket refuses to start =="
set +e
"$SERVE" --socket="$WORK/clara.sock" --model-dir="$WORK/models" \
  2> "$WORK/serve2.log"
second_rc=$?
set -e
test "$second_rc" -ne 0
grep -q 'refusing to start' "$WORK/serve2.log"
grep -q "pid $pid" "$WORK/serve2.log"
# The incumbent's socket must NOT have been unlinked by the loser.
test -S "$WORK/clara.sock"
"$CLIENT" --socket="$WORK/clara.sock" --element=udpcount > /dev/null
"$CLIENT" health --socket="$WORK/clara.sock" | tee "$WORK/health.json" \
  | assert_json health
grep -q '"status":"ok"' "$WORK/health.json"
grep -q '"artifact_version"' "$WORK/health.json"
grep -q '"infer":"f32"' "$WORK/health.json"
"$CLIENT" dump --socket="$WORK/clara.sock" | tee "$WORK/dump.json" \
  | assert_json dump
grep -q '"records"' "$WORK/dump.json"
grep -q 'udpcount' "$WORK/dump.json"

echo "== hot reload: control frame and SIGHUP both bump artifact_version =="
grep -q '"artifact_version":1' "$WORK/health.json"
"$CLIENT" reload --socket="$WORK/clara.sock" | tee "$WORK/reload.json" \
  | assert_json reload
grep -q '"reloaded":true' "$WORK/reload.json"
"$CLIENT" health --socket="$WORK/clara.sock" | tee "$WORK/health2.json" > /dev/null
grep -q '"artifact_version":2' "$WORK/health2.json"
# Requests keep answering across the swap (the response cache restarts cold).
"$CLIENT" --socket="$WORK/clara.sock" --element=udpcount > /dev/null
kill -HUP "$pid"
# SIGHUP reloads when the accept loop next wakes; poke it with health queries.
for _ in $(seq 1 50); do
  "$CLIENT" health --socket="$WORK/clara.sock" > "$WORK/health3.json"
  grep -q '"artifact_version":3' "$WORK/health3.json" && break
  sleep 0.1
done
grep -q '"artifact_version":3' "$WORK/health3.json"
grep -q 'reloaded' "$WORK/serve.log"

echo "== SIGUSR1 dumps the flight recorder to stderr =="
kill -USR1 "$pid"
# The dump is written when the accept loop next wakes; poke it with a query.
for _ in $(seq 1 50); do
  "$CLIENT" health --socket="$WORK/clara.sock" > /dev/null
  grep -q 'flight recorder dump' "$WORK/serve.log" && break
  sleep 0.1
done
grep -q 'flight recorder dump' "$WORK/serve.log"

kill -TERM "$pid"
wait "$pid"
grep -q 'shut down cleanly' "$WORK/serve.log"

echo "== emitted trace has nested per-request serve spans =="
python3 "$CHECK_TRACE" --serve-trace "$WORK/serve_trace.json"

echo "== periodic metrics export is JSONL time series =="
test -s "$WORK/metrics.jsonl"
python3 - "$WORK/metrics.jsonl" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "metrics.jsonl is empty"
for line in lines:
    doc = json.loads(line)
    assert "ts_ms" in doc and "seq" in doc and "metrics" in doc, doc.keys()
print(f"serve_smoke: {len(lines)} metrics sample(s)")
EOF

echo "serve_smoke: PASS"
