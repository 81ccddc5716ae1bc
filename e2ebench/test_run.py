#!/usr/bin/env python3
"""Checks of run.py's compare verdicts: python3 e2ebench/test_run.py"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class Verdict(unittest.TestCase):
    # Ten runs with a quartile spread of about 30% of the median.
    A = [7.0, 8.0, 9.0, 9.5, 10.0, 10.0, 10.5, 11.0, 12.0, 13.0]

    def test_median_regression_past_the_bound_is_worse(self):
        # 40% slower at the median, yet the two sets overlap.
        b = [x * 1.4 for x in self.A]
        self.assertLess(min(b), max(self.A))
        self.assertEqual(run.verdict(self.A, b, "lower", 0.1), "worse")
        throughput = [1 / x for x in self.A]
        self.assertEqual(run.verdict(throughput, [1 / x for x in b],
                                     "higher", 0.1), "worse")

    def test_wide_spread_within_the_bound_is_unresolved(self):
        b = [x * 1.05 for x in self.A]
        self.assertEqual(run.verdict(self.A, b, "lower", 0.1), "unresolved")

    def test_narrow_spread_within_the_bound_is_unchanged(self):
        a = [1.0 + 0.001 * k for k in range(10)]
        b = [x * 1.03 for x in a]
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "unchanged")

    def test_consistent_win_beyond_the_spread_is_better(self):
        a = [1.0 + 0.01 * k for k in range(10)]
        b = [x * 0.8 for x in a]
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "better")

    def test_every_run_better_under_wide_spread_is_better(self):
        # The medians differ by less than A's quartile spread, but every B
        # run beats every A run.
        a = [10.0] * 5 + [20.0] * 5
        b = [9.9] * 10
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "better")

    def test_per_layer_metrics_get_no_verdict(self):
        self.assertEqual(run.verdict(self.A, self.A, "lower", None), "-")


if __name__ == "__main__":
    unittest.main()
