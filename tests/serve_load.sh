#!/usr/bin/env bash
# Sustained multi-client load against the epoll serving daemon, gated on
# byte-identity and tail latency:
#
#   1. Train a small bundle with clara_cli.
#   2. Start an epoll daemon from it.
#   3. Verify phase: clara_loadgen first asks the fresh daemon once per
#      element over one connection (cache misses), then drives 128
#      concurrent closed-loop connections at hit-ratio 1.0 — every cache
#      replay must be byte-identical to that single-connection answer.
#   4. Sustained phase: open-loop at a fixed target rate with a realistic
#      mix (0.5% cache misses, tracing, priorities) under a hard p99 SLO;
#      the JSON report and the machine-independent BENCH_serve_load.json
#      rows land in $CLARA_BENCH_JSON_DIR (or $WORK) for the CI bench gate.
#
# Usage: serve_load.sh [build-dir]   (defaults to the current directory)
#
# Knobs (env): CLARA_LOAD_CONNS (128), CLARA_LOAD_RATE (1200),
# CLARA_LOAD_DURATION_S (6), CLARA_LOAD_SLO_P99_US (50000).
set -euo pipefail

BUILD_DIR="${1:-$(pwd)}"
CLI="$BUILD_DIR/tools/clara_cli"
SERVE="$BUILD_DIR/tools/clara_serve"
LOADGEN="$BUILD_DIR/tools/clara_loadgen"
WORK="$(mktemp -d)"
OUT_DIR="${CLARA_BENCH_JSON_DIR:-$WORK}"

CONNS="${CLARA_LOAD_CONNS:-128}"
RATE="${CLARA_LOAD_RATE:-1200}"
DURATION_S="${CLARA_LOAD_DURATION_S:-6}"
SLO_P99_US="${CLARA_LOAD_SLO_P99_US:-50000}"

pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill -TERM "$pid" 2>/dev/null || true
  done
  for pid in "${pids[@]:-}"; do
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "serve_load: $1 never appeared" >&2
  return 1
}

echo "== train a small bundle =="
"$CLI" train --fast --model-dir="$WORK/models"
test -f "$WORK/models/clara_bundle.bin"

echo "== start the epoll daemon =="
"$SERVE" --socket="$WORK/epoll.sock" --model-dir="$WORK/models" \
  --profile-packets=200 --slo-p99-us="$SLO_P99_US" \
  2> "$WORK/epoll.log" &
pids+=($!)
wait_for_socket "$WORK/epoll.sock"

echo "== verify: $CONNS closed-loop connections, byte-compare vs single-connection misses =="
"$LOADGEN" --socket="$WORK/epoll.sock" \
  --mode=closed --connections="$CONNS" --duration-s=3 --hit-ratio=1.0 \
  --max-error-rate=0 --report="$WORK/verify_report.json"

echo "== sustained: open-loop at $RATE req/s with a p99 SLO gate =="
"$LOADGEN" --socket="$WORK/epoll.sock" \
  --mode=open --connections=64 --rate="$RATE" --duration-s="$DURATION_S" \
  --hit-ratio=0.995 --trace-pct=5 --priority-hi-pct=20 \
  --slo-p99-us="$SLO_P99_US" --max-error-rate=0.001 \
  --report="$OUT_DIR/serve_load_report.json" \
  --bench-json="$OUT_DIR/BENCH_serve_load.json"

echo "== reports are well-formed and the epoll daemon survived =="
python3 - "$OUT_DIR/serve_load_report.json" "$OUT_DIR/BENCH_serve_load.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
for key in ("achieved_rps", "latency_us", "sent", "ok", "verify", "gates"):
    assert key in report, f"report missing {key}"
assert report["verify"]["mismatches"] == 0, report
assert all(report["gates"][g] for g in
           ("slo_ok", "errors_ok", "verify_ok", "connections_ok")), report
rows = json.load(open(sys.argv[2]))
assert isinstance(rows, list) and rows, rows
for row in rows:
    assert row["phase"] == "sustained_load", row
    assert 1.0 <= row["p99_slo_latency_ratio"] <= 3.0, row
    assert 0.0 <= row["completed_fraction_of_target"] <= 1.0, row
print(f"serve_load: p99={report['latency_us']['p99']}us "
      f"achieved={report['achieved_rps']:.1f}rps ok={report['ok']}")
EOF
kill -0 "${pids[0]}"

echo "serve_load: PASS"
