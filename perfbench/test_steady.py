"""Tests of the steadiness check's arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import steady  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_spread_is_the_quartile_distance_over_the_median(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, med, q3, spread = steady.spread(values)
        # statistics.quantiles(n=4) uses the exclusive method:
        # q1 at position 0.25 * 11 = 2.75, q3 at 8.25 (1-based).
        self.assertAlmostEqual(q1, 11.75)
        self.assertAlmostEqual(q3, 17.25)
        self.assertAlmostEqual(med, 14.5)
        self.assertAlmostEqual(spread, 5.5 / 14.5)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(steady.spread([3.0] * 10)[3], 0.0)


class DifferByTest(unittest.TestCase):
    def test_base_is_the_smaller_median(self):
        # 80 and 100 are 25% apart against 80, not 20% against 100.
        self.assertAlmostEqual(steady.differ_by(80, 100), 0.25)

    def test_order_does_not_matter(self):
        # A second set that is better counts like one that is worse.
        self.assertEqual(steady.differ_by(100, 130), steady.differ_by(130, 100))
        self.assertEqual(steady.differ_by(5, 5), 0.0)


class CheckTest(unittest.TestCase):
    SPEC = {"end_to_end": [
        {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]}

    @staticmethod
    def results(p50s, setups):
        return [{"metrics": {"p50_us": {"value": p}, "setup_s": {"value": s}}}
                for p, s in zip(p50s, setups)]

    def test_steady_sets_pass(self):
        a = self.results([100, 101, 99, 100, 102], [1.0, 1.1, 1.0, 1.05, 1.0])
        b = self.results([101, 100, 100, 99, 101], [1.0, 1.1, 1.0, 1.0, 1.05])
        self.assertEqual(steady.check(self.SPEC, [a, b]), [])

    def test_wide_spread_and_drift_are_reported(self):
        a = self.results([100, 150, 60, 100, 100], [1, 1, 1, 1, 1])
        b = self.results([130, 131, 129, 130, 130], [1, 1, 1, 1, 1])
        problems = steady.check(self.SPEC, [a, b])
        self.assertTrue(any("p50_us: set 0 spread" in p for p in problems), problems)
        self.assertTrue(any("p50_us: set medians differ" in p for p in problems), problems)

    def test_a_better_second_set_is_drift_too(self):
        a = self.results([130] * 5, [1] * 5)
        b = self.results([100] * 5, [1] * 5)
        problems = steady.check(self.SPEC, [a, b])
        self.assertEqual(len(problems), 1)
        self.assertIn("p50_us: set medians differ by 0.300", problems[0])

    def test_setup_spread_is_checked_like_any_other(self):
        a = self.results([100] * 5, [1, 3, 1, 3, 2])
        problems = steady.check(self.SPEC, [a, a])
        self.assertEqual(len(problems), 2)
        self.assertTrue(all("setup_s: set" in p and "spread" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
