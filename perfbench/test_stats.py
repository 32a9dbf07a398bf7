#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic, on tiny synthetic samples.

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def insight(rtt_us=100.0, outcome="ok", code=0, hit=False):
    return stats.Record("I", 0, 0, 0.0, rtt_us, outcome, code, hit)


class PercentileRule(unittest.TestCase):
    def test_median_needs_ten_beyond(self):
        self.assertIsNone(stats.percentile(list(range(19)), 0.50))
        self.assertEqual(stats.percentile(list(range(20)), 0.50), 9)

    def test_p99_needs_a_thousand(self):
        self.assertIsNone(stats.percentile(list(range(999)), 0.99))
        self.assertEqual(stats.percentile(list(range(1000)), 0.99), 989)
        # 1012 samples: rank ceil(1001.88) = 1002, ten beyond it.
        self.assertEqual(stats.percentile(list(range(1012)), 0.99), 1001)

    def test_unsorted_input_and_empty(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
        self.assertEqual(stats.percentile(values, 0.50), 3.0)
        self.assertIsNone(stats.percentile([], 0.50))


class CacheSplit(unittest.TestCase):
    def test_split_by_breakdown_flag(self):
        records = [insight(10, hit=True), insight(20, hit=False), insight(30, hit=True),
                   # errors belong to neither class
                   insight(40, code=3, hit=False), insight(50, outcome="torn"),
                   # reloads are not insight answers
                   stats.Record("R", 0, 0, 0.0, 60, "ok", 1, False)]
        hits, misses = stats.split_by_cache(records)
        self.assertEqual(hits, [10, 30])
        self.assertEqual(misses, [20])


class FailedShare(unittest.TestCase):
    def test_counts_every_kind_of_failure(self):
        records = [insight(), insight(),
                   insight(code=3),                 # non-OK answer (check failed)
                   insight(outcome="torn"),         # frame did not parse
                   insight(outcome="unanswered"),   # timed out
                   insight(outcome="dropped"),      # connection lost
                   stats.Record("R", 0, 0, 0.0, 1, "ok", 0, False)]  # not a request
        self.assertEqual(stats.failed_share(records), (4, 6))

    def test_all_ok(self):
        self.assertEqual(stats.failed_share([insight()] * 3), (0, 3))


class Wmape(unittest.TestCase):
    def test_weighted_by_oracle(self):
        # |12-10| + |15-20| = 7 over 30.
        self.assertAlmostEqual(stats.wmape([(12, 10), (15, 20)]), 7 / 30)

    def test_exact_and_empty(self):
        self.assertEqual(stats.wmape([(5, 5)]), 0)
        self.assertIsNone(stats.wmape([]))


class SampleFile(unittest.TestCase):
    def test_parse(self):
        summary, records = stats.parse_samples([
            "# setup_s 1.5\n", "# setup_s 1.7\n", "# oracle aggcounter 24.5 20\n",
            "I 2 7 0.125 118.5 ok 0 1\n", "R 0 0 5.0 6100.0 ok 1 0\n"])
        self.assertEqual(summary["setup_s"], ["1.5", "1.7"])
        self.assertEqual(summary["oracle"], ["aggcounter 24.5 20"])
        self.assertEqual([r.kind for r in records], ["I", "R"])
        self.assertTrue(records[0].hit and records[0].ok)
        self.assertEqual(records[0].conn, 2)
        self.assertTrue(records[1].ok)


class TracedOutput(unittest.TestCase):
    def test_metrics_samples_and_overhead(self):
        twenty = " ".join(str(x) for x in range(20, 0, -1))
        metrics, attempted, failed, mismatch = stats.traced_metrics([
            "metric workload.packets 2000 count 46\n",
            "samples serve.queue_us us p50,p99 %s\n" % twenty,
            "samples serve.canary_ms ms median 3 1 2 5\n",
            "samples trace.traced_replay_s s median 1.1\n",
            "samples trace.untraced_replay_s s median 1.0\n",
            "self_us request 5.0\n",
            "attempted 46 3\n",
            "mismatch request 7 aggcounter/small: differs\n"])
        got = {name: (value, unit, n) for name, value, unit, n in metrics}
        self.assertEqual(got["workload.packets"], (2000, "count", 46))
        # 20 samples: the median has 10 beyond it, the p99 none.
        self.assertEqual(got["serve.queue_us.p50"], (10, "us", 20))
        self.assertEqual(got["serve.queue_us.p99"], (None, "us", 20))
        self.assertEqual(got["serve.canary_ms"], (2.5, "ms", 4))
        self.assertAlmostEqual(got["trace.overhead"][0], 0.1)
        self.assertEqual((attempted, failed), (46, 3))
        self.assertEqual(mismatch, "request 7 aggcounter/small: differs")

    def test_no_mismatch(self):
        _, _, _, mismatch = stats.traced_metrics(["attempted 1 0\n"])
        self.assertIsNone(mismatch)


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        q1, med, q3, spread = stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(spread, (q3 - q1) / med)


if __name__ == "__main__":
    unittest.main()
