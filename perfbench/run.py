#!/usr/bin/env python3
"""Insight-serving benchmark: one workload against the real clara_serve.

    python3 perfbench/run.py --workload cold_miss --seed 1 --seconds 10 --trace 0

Run from the root of a Clara checkout. It builds clara_cli, clara_serve and
the benchmark client into .bench_build/perfbench (Release), then runs
perfbench_client in .bench_build/perfbench/work-<workload>:

  --trace 0  the end-to-end run: set-up three times, one timed closed-loop
             window against the daemon, every answer checked against an
             in-process ServeEngine. Prints the end-to-end metrics.
  --trace 1  the traced run: trains in-process stage by stage, replays the
             workload's request sequence through each layer's public
             functions with one span per call, checks the answers and the
             bundle bytes, and replays over the socket for the daemon's
             latency breakdown. Prints the per-layer metrics and writes
             traced.trace.json (Chrome trace) into the work directory.

Every metric is printed as "metric <name> <value> <unit> n=<samples>"; the
last line of stdout is one JSON object with keys correct, attempted, failed
and metrics. The exit code is nonzero on a wrong answer or a failed step.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ["clara_cli", "clara_serve_bin", "perfbench_client"]
CORPUS = os.path.join(HERE, "corpus", "inline_nfs.txt")

# The class whose round trips the gated latency metrics summarise: cold_miss
# times misses; the other two time cache hits.
TIMED_CLASS = {"cold_miss": "miss", "hit_poll": "hit", "reload_churn": "hit"}


def declared(kind):
    """Metric names BENCHMARK.json declares under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def result(correct, attempted, failed, metrics, kind):
    """The last stdout line: the declared metrics only, every one of them."""
    names = declared(kind)
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("no value for " + ", ".join(missing))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {n: metrics[n] for n in names}}))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no Clara source tree at " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "-j4", "--target"] + TARGETS,
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def run_client(mode, args):
    work = os.path.join(BUILD, "work-" + args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, mode + ".txt")
    cmd = [os.path.join(BUILD, "perfbench_client"), mode,
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--bin=" + os.path.join(BUILD, "clara", "tools"),
           "--corpus=" + CORPUS, "--out=" + out]
    # The client and the clara_cli / clara_serve it starts share a new
    # process group, so nothing outlives this script: not on a timeout, and
    # not when this script is interrupted or terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=work, start_new_session=True)
    rc = None
    try:
        rc = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        pass
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc is None:
        fail("perfbench_client timed out")
    if not os.path.isfile(out):
        fail("perfbench_client %s exited with %d and wrote no results" % (mode, rc))
    with open(out) as f:
        lines = f.readlines()
    return rc, lines


def put(metrics, name, value, unit, n):
    """Prints one metric line and keeps the value; a percentile without
    enough samples beyond it (value None) is printed as omitted."""
    if value is None:
        print("metric %s omitted %s n=%d (fewer than %d samples beyond it)"
              % (name, unit, n, stats.MIN_BEYOND))
        return
    print("metric %s %.9g %s n=%d" % (name, value, unit, n))
    metrics[name] = {"value": value, "unit": unit}


def end_to_end(args):
    rc, lines = run_client("e2e", args)
    summary, records = stats.parse_samples(lines)
    hits, misses = stats.split_by_cache(records)
    reloads = [r for r in records if r.kind == "R"]
    failed, sent = stats.failed_share(records)
    window_s = float(summary["window_s"][0])
    ok = sum(1 for r in records if r.kind == "I" and r.ok)
    setups = [float(v) for v in summary["setup_s"]]
    pairs = [tuple(float(x) for x in v.split()[1:]) for v in summary.get("oracle", [])]

    metrics = {}
    put(metrics, "setup_s", statistics.median(setups), "s", len(setups))
    put(metrics, "throughput_rps", ok / window_s, "req/s", ok)
    timed = misses if TIMED_CLASS[args.workload] == "miss" else hits
    ms = [us / 1000.0 for us in timed]
    put(metrics, "latency_p50_ms", stats.percentile(ms, 0.50), "ms", len(ms))
    put(metrics, "latency_p99_ms", stats.percentile(ms, 0.99), "ms", len(ms))
    put(metrics, "peak_rss_mb", int(summary["peak_rss_kb"][0]) / 1024.0, "MB", 1)
    put(metrics, "predict_wmape", stats.wmape(pairs), "ratio", len(pairs))
    # The per-class metrics, where the workload has the class.
    for cls, values in (("miss", misses), ("hit", hits)):
        if values:
            ms = [us / 1000.0 for us in values]
            put(metrics, cls + "_p50_ms", stats.percentile(ms, 0.50), "ms", len(ms))
            put(metrics, cls + "_p99_ms", stats.percentile(ms, 0.99), "ms", len(ms))
    if reloads:
        ms = [r.rtt_us / 1000.0 for r in reloads]
        put(metrics, "reload_p50_ms", stats.percentile(ms, 0.50), "ms", len(ms))
    put(metrics, "failed_share", failed / sent if sent else 0.0, "ratio", sent)

    mismatches = int(summary["mismatches"][0])
    if mismatches:
        print("first mismatch: " + summary["first_mismatch"][0])
    correct = rc == 0 and mismatches == 0
    failed_reloads = sum(1 for r in reloads if not r.ok)
    result(correct, sent + len(reloads), failed + failed_reloads, metrics, "end_to_end")
    return 0 if correct else 1


def traced(args):
    rc, lines = run_client("traced", args)
    found, attempted, failed, mismatch = stats.traced_metrics(lines)
    metrics = {}
    for name, value, unit, n in found:
        put(metrics, name, value, unit, n)
    if mismatch is not None:
        print("first mismatch: " + mismatch)
    correct = rc == 0 and mismatch is None
    result(correct, attempted, failed, metrics, "per_layer")
    return 0 if correct else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(TIMED_CLASS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    build()
    sys.exit(traced(args) if args.trace else end_to_end(args))


if __name__ == "__main__":
    main()
