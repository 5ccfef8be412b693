"""Tests of the timing summary rule in stats.py.

Run from the repository root: python3 -m unittest perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)

    def test_small_and_unsorted(self):
        self.assertEqual(stats.percentile([3.0], 99), 3.0)
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 0), 1)

    def test_decimal_percentile_is_exact(self):
        # 99.9 * 1000 / 100 must be rank 999 exactly, not 1000.
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, "99.9"), 999)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class SummarizeTest(unittest.TestCase):
    def test_ten_samples_report_only_the_median(self):
        s = stats.summarize(list(range(1, 11)))
        self.assertEqual(s["n"], 10)
        self.assertEqual(s["median"], 5.5)
        self.assertIsNone(s["tail_p"])
        self.assertIsNone(s["tail"])

    def test_eleven_samples_report_only_the_median(self):
        s = stats.summarize(list(range(1, 12)))
        self.assertEqual(s["n"], 11)
        self.assertEqual(s["median"], 6)
        self.assertIsNone(s["tail_p"])

    def test_twenty_samples_reach_the_median_percentile(self):
        s = stats.summarize(list(range(1, 21)))
        self.assertEqual(s["tail_p"], "50")
        self.assertEqual(s["tail"], 10)

    def test_hundred_samples_give_p90(self):
        s = stats.summarize(list(range(1, 101)))
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["median"], 50.5)
        self.assertEqual(s["tail_p"], "90")
        self.assertEqual(s["tail"], 90)

    def test_ninety_nine_samples_stay_below_p90(self):
        # p90 is rank 90 of 99: only 9 samples beyond it.
        s = stats.summarize(list(range(1, 100)))
        self.assertEqual(s["tail_p"], "75")

    def test_thousand_samples_give_p99(self):
        s = stats.summarize(list(range(1000, 0, -1)))
        self.assertEqual(s["tail_p"], "99")
        self.assertEqual(s["tail"], 990)

    def test_single_sample(self):
        s = stats.summarize([0.25])
        self.assertEqual((s["median"], s["n"], s["tail_p"]), (0.25, 1, None))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.summarize([])

    def test_describe_names_the_percentile_and_count(self):
        line = stats.describe(list(range(1, 101)), "ms")
        self.assertIn("median 50.5 ms", line)
        self.assertIn("p90 90 ms", line)
        self.assertIn("n=100", line)
        self.assertIn("no percentile", stats.describe([1, 2, 3], "s"))


if __name__ == "__main__":
    unittest.main()
