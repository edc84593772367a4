"""Self-tests for the benchmark's statistics, on synthetic samples.

Needs no build:  python3 perfbench/test_stats.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertAlmostEqual(stats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(xs, 95), 95.05)

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(xs, 50), 3.0)

    def test_ten_samples_beyond(self):
        # p95 of n samples leaves n - 1 - floor(0.95 (n - 1)) beyond.
        self.assertFalse(stats.percentile_supported(180, 95))
        self.assertTrue(stats.percentile_supported(200, 95))
        self.assertEqual(stats.samples_beyond(200, 95), 10)
        for n in range(2, 2000):
            for q in (50, 90, 95, 99):
                beyond = sum(1 for i in range(n)
                             if i > (n - 1) * q / 100.0)
                self.assertEqual(stats.samples_beyond(n, q), beyond)

    def test_empty_rejected(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class FastestHalf(unittest.TestCase):
    def test_keeps_the_faster_half(self):
        times = [1.3, 1.0, 2.5, 1.1, 1.05]
        self.assertEqual(stats.fastest_half(times), [1, 4, 3])

    def test_interference_is_dropped(self):
        # Additive noise on some repetitions leaves the kept mean at
        # the undisturbed cost.
        clean = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
        noisy = clean[:3] + [1.6, 1.4, 2.0]
        kept = [noisy[i] for i in stats.fastest_half(noisy)]
        self.assertAlmostEqual(statistics.mean(kept), 1.0)

    def test_single_repetition_is_kept(self):
        self.assertEqual(stats.fastest_half([4.2]), [0])


class GaugeSpeed(unittest.TestCase):
    def test_uniform_slowdown_cancels(self):
        times = [2.0, 2.0, 2.0]
        gauges = [1.0, 1.5, 0.8]  # the host ran 1x, 1.5x, 0.8x as slow
        slowed = [t * g for t, g in zip(times, gauges)]
        self.assertEqual(stats.at_gauge_speed(slowed, gauges, 1.0), times)

    def test_reference_sets_the_scale(self):
        self.assertEqual(stats.at_gauge_speed([3.0], [1.0], 2.0), [6.0])


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.quartile_spread(xs), (q3 - q1) / med)

    def test_constant_samples_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([3.0] * 10), 0.0)

    def test_scale_invariant(self):
        xs = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98, 1.01]
        self.assertAlmostEqual(stats.quartile_spread(xs),
                               stats.quartile_spread([1000 * x for x in xs]))


class PairedWinRule(unittest.TestCase):
    PARENT = [100.0, 102.0, 98.0, 101.0, 99.0,
              100.5, 99.5, 101.5, 98.5, 100.0]

    def test_clear_gain(self):
        change = [x - 10 for x in self.PARENT]
        r = stats.paired_gain(self.PARENT, change, "lower")
        self.assertEqual((r["wins"], r["pairs"]), (10, 10))
        self.assertTrue(r["gain"])

    def test_nine_of_ten_is_enough(self):
        change = [x - 10 for x in self.PARENT]
        change[3] = self.PARENT[3] + 1  # one loss
        r = stats.paired_gain(self.PARENT, change, "lower")
        self.assertEqual(r["wins"], 9)
        self.assertTrue(r["gain"])

    def test_eight_of_ten_is_not(self):
        change = [x - 10 for x in self.PARENT]
        change[3] = self.PARENT[3] + 1
        change[7] = self.PARENT[7]  # a tie counts for neither side
        r = stats.paired_gain(self.PARENT, change, "lower")
        self.assertEqual(r["wins"], 8)
        self.assertFalse(r["gain"])

    def test_median_gap_must_exceed_parent_spread(self):
        # Every pair won, but by less than the parent's own spread.
        change = [x - 0.1 for x in self.PARENT]
        r = stats.paired_gain(self.PARENT, change, "lower")
        self.assertEqual(r["wins"], 10)
        self.assertFalse(r["gain"])

    def test_higher_is_better(self):
        change = [x + 10 for x in self.PARENT]
        higher = stats.paired_gain(self.PARENT, change, "higher")
        lower = stats.paired_gain(self.PARENT, change, "lower")
        self.assertTrue(higher["gain"])
        self.assertFalse(lower["gain"])

    def test_unpaired_rejected(self):
        with self.assertRaises(ValueError):
            stats.paired_gain([1.0, 2.0], [1.0], "lower")


class DirectionNormalisedRegression(unittest.TestCase):
    def test_sign_follows_direction(self):
        self.assertAlmostEqual(stats.worsening(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(stats.worsening(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(stats.worsening(100, 90, "higher"), 0.10)

    def test_bound(self):
        self.assertFalse(stats.is_regression(100, 109, "lower", 0.10))
        self.assertTrue(stats.is_regression(100, 111, "lower", 0.10))
        self.assertTrue(stats.is_regression(100, 89, "higher", 0.10))
        self.assertFalse(stats.is_regression(100, 150, "higher", 0.10))

    def test_zero_parent_rejected(self):
        with self.assertRaises(ValueError):
            stats.worsening(0, 1, "lower")


if __name__ == "__main__":
    unittest.main()
