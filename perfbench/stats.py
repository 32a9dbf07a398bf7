"""Metric arithmetic of the insight-serving benchmark.

Pure functions over the per-request records that perfbench_client writes, so
that perfbench/test_stats.py can check them on tiny synthetic samples.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-quantile of `values`, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


class Record:
    """One line of the client's sample file."""

    __slots__ = ("kind", "conn", "cls", "t_s", "rtt_us", "outcome", "code", "hit")

    def __init__(self, kind, conn, cls, t_s, rtt_us, outcome, code, hit):
        self.kind = kind
        self.conn = conn
        self.cls = cls
        self.t_s = t_s
        self.rtt_us = rtt_us
        self.outcome = outcome
        self.code = code
        self.hit = hit

    @property
    def ok(self):
        """An insight answer that arrived whole with error code kOk, or a
        reload the daemon accepted."""
        if self.kind == "R":
            return self.outcome == "ok" and self.code == 1
        return self.outcome == "ok" and self.code == 0


def parse_samples(lines):
    """Splits a sample file into (summary dict of lists, records)."""
    summary = {}
    records = []
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("# "):
            key, _, rest = line[2:].partition(" ")
            summary.setdefault(key, []).append(rest)
            continue
        f = line.split(" ")
        records.append(Record(f[0], int(f[1]), int(f[2]), float(f[3]), float(f[4]),
                              f[5], int(f[6]), f[7] == "1"))
    return summary, records


def split_by_cache(records):
    """Round trips (µs) of OK insight answers, split by the breakdown's
    cache_hit flag: (hits, misses). Errors belong to neither class."""
    hits, misses = [], []
    for r in records:
        if r.kind == "I" and r.ok:
            (hits if r.hit else misses).append(r.rtt_us)
    return hits, misses


def failed_share(records):
    """(non-OK answers + torn + unanswered frames + dropped connections) /
    requests sent, over insight requests. Returns (failed, sent)."""
    sent = failed = 0
    for r in records:
        if r.kind != "I":
            continue
        sent += 1
        if not r.ok:
            failed += 1
    return failed, sent


def wmape(pairs):
    """Σ|predicted − oracle| / Σ oracle over (predicted, oracle) pairs."""
    total = sum(o for _, o in pairs)
    if total <= 0:
        return None
    return sum(abs(p - o) for p, o in pairs) / total


def traced_metrics(lines):
    """The traced run's output file as (metrics, attempted, failed, first
    mismatch or None). `metrics` is a list of (name, value, unit, n), value
    None where a percentile is omitted. "metric" lines pass through. Each
    "samples <name> <unit> <stats> <values...>" line yields the statistics
    it lists: pNN as <name>.pNN by percentile(), median as <name>. The
    medians of the traced and untraced replay wall times give
    trace.overhead."""
    metrics = []
    medians = {}  # name -> (median, number of values)
    attempted = failed = 0
    mismatch = None
    for line in lines:
        f = line.split()
        if not f:
            continue
        if f[0] == "metric":
            metrics.append((f[1], float(f[2]), f[3], int(f[4])))
        elif f[0] == "samples":
            name, unit, wanted = f[1], f[2], f[3].split(",")
            values = [float(x) for x in f[4:]]
            for stat in wanted:
                if stat == "median":
                    medians[name] = (statistics.median(values) if values else None, len(values))
                    metrics.append((name, medians[name][0], unit, len(values)))
                else:
                    metrics.append((name + "." + stat, percentile(values, int(stat[1:]) / 100),
                                    unit, len(values)))
        elif f[0] == "attempted":
            attempted, failed = int(f[1]), int(f[2])
        elif f[0] == "mismatch" and mismatch is None:
            mismatch = line.split(" ", 1)[1].strip()
    traced, n_traced = medians.get("trace.traced_replay_s", (None, 0))
    untraced, n_untraced = medians.get("trace.untraced_replay_s", (None, 0))
    if traced and untraced:
        metrics.append(("trace.overhead", traced / untraced - 1, "ratio", n_traced + n_untraced))
    return metrics, attempted, failed, mismatch


def quartile_spread(values):
    """(q1, median, q3, (q3 − q1) / median) as the steadiness check takes
    them: statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")
