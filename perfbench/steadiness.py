#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Runs perfbench/run.py (end-to-end, --trace 0) for two sets of --runs runs
of every workload in BENCHMARK.json at its run_seconds, one set after the
other, each run with its own seed and the workloads alternating within a
set. Then prints, per workload and end-to-end metric, each set's median and
quartiles, the quartile spread as a share of the median, and whether the
sets agree within the metric's bound from BENCHMARK.json:
  * each set's spread is within the bound, and
  * the two sets' medians differ by no more than the bound, in either
    direction. The verdict shows how much worse set 2's median is than
    set 1's, as a share of it (negative: better).
Exits 1 when any pair disagrees or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]

    values = {}  # (set, workload) -> list of metric dicts
    ok = True
    seed = args.first_seed
    for s in range(2):
        for i in range(args.runs):
            for w in workloads:
                m = run_once(w, seed, bench["run_seconds"])
                print("set %d run %d %s seed %d: %s" % (s + 1, i + 1, w, seed,
                      "FAILED" if m is None else
                      " ".join("%s=%.6g" % kv for kv in sorted(m.items()))), flush=True)
                seed += 1
                if m is None:
                    ok = False
                else:
                    values.setdefault((s, w), []).append(m)

    print("\n%-13s %-15s %-5s %12s %12s %12s %7s %7s  %s" % (
        "workload", "metric", "set", "q1", "median", "q3", "spread", "bound", "verdict"))
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(2):
                xs = [m[name] for m in values.get((s, w), [])]
                if len(xs) < 2:
                    print("%-13s %-15s %-5d too few runs" % (w, name, s + 1))
                    ok = False
                    continue
                q1, med, q3, spread = stats.quartile_spread(xs)
                medians.append(med)
                steady = spread <= bound
                verdict = "ok" if steady else "SPREAD"
                if s == 1 and len(medians) == 2:
                    drift = worse_by(medians[0], medians[1], metric["better"])
                    if abs(drift) > bound:
                        verdict += " DRIFT %+.3f" % drift
                        ok = False
                    else:
                        verdict += " agree (%+.3f)" % drift
                ok = ok and steady
                print("%-13s %-15s %-5d %12.6g %12.6g %12.6g %7.3f %7.3f  %s" % (
                    w, name, s + 1, q1, med, q3, spread, bound, verdict))
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
