"""Tests of the benchmark's Python-side statistics.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchstats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.median([])


class SpreadTest(unittest.TestCase):
    def test_interquartile_range_over_median(self):
        # quantiles(1..10, n=4) = [2.75, 5.5, 8.25]; median 5.5.
        self.assertAlmostEqual(benchstats.spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertAlmostEqual(benchstats.spread([10, 10, 10, 10]), 0.0)
        # quantiles([1, 2, 4, 8, 16], n=4) = [1.5, 4.0, 12.0]: exclusive method.
        self.assertAlmostEqual(benchstats.spread([16, 1, 8, 2, 4]), 10.5 / 4)

    def test_scale_free(self):
        xs = [0.9, 1.0, 1.05, 1.1, 1.2]
        self.assertAlmostEqual(benchstats.spread(xs),
                               benchstats.spread([1000 * x for x in xs]))

    def test_rejects_degenerate_input(self):
        with self.assertRaises(ValueError):
            benchstats.spread([1.0])
        with self.assertRaises(ValueError):
            benchstats.spread([0.0, 0.0, 0.0])


if __name__ == "__main__":
    unittest.main()
