"""Tests for LDP histogram / distribution estimation."""

import numpy as np
import pytest

from repro.data.synthetic import power_law_matrix, truncated_gaussian_matrix
from repro.frequency.histogram import (
    HistogramEstimate,
    LDPHistogram,
    true_histogram,
)


def _collect(hist, values, rng):
    """User-side privatize, then the aggregator's estimate."""
    return hist.estimate(hist.privatize(values, rng))


class TestBucketize:
    def test_endpoints(self):
        hist = LDPHistogram(1.0, bins=4)
        idx = hist.bucketize([-1.0, -0.51, 0.0, 0.49, 1.0])
        assert idx.tolist() == [0, 0, 2, 2, 3]

    def test_all_bins_reachable(self, rng):
        hist = LDPHistogram(1.0, bins=8)
        idx = hist.bucketize(rng.uniform(-1, 1, 10_000))
        assert set(idx.tolist()) == set(range(8))

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            LDPHistogram(1.0).bucketize([1.5])

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            LDPHistogram(1.0, bins=1)


class TestEstimation:
    def test_histogram_is_probability_vector(self, rng):
        hist = LDPHistogram(1.0, bins=8)
        est = _collect(hist, rng.uniform(-1, 1, 20_000), rng)
        assert est.histogram.sum() == pytest.approx(1.0)
        assert np.all(est.histogram >= 0.0)

    def test_uniform_data_recovered(self, rng):
        hist = LDPHistogram(2.0, bins=8)
        est = _collect(hist, rng.uniform(-1, 1, 60_000), rng)
        assert np.all(np.abs(est.histogram - 1.0 / 8.0) < 0.03)

    def test_skewed_data_recovered(self, rng):
        values = power_law_matrix(60_000, 1, rng=rng).ravel()
        hist = LDPHistogram(2.0, bins=8)
        est = _collect(hist, values, rng)
        truth = true_histogram(values, bins=8)
        assert est.total_variation(truth) < 0.05
        # The dominant (first) bucket is identified.
        assert np.argmax(est.histogram) == np.argmax(truth)

    @pytest.mark.parametrize("oracle", ["grr", "sue", "oue", "olh"])
    def test_any_oracle(self, oracle, rng):
        hist = LDPHistogram(2.0, bins=6, oracle=oracle)
        est = _collect(hist, rng.uniform(-1, 1, 30_000), rng)
        assert est.total_variation(np.full(6, 1 / 6)) < 0.1

    def test_accuracy_improves_with_epsilon(self, rng):
        values = truncated_gaussian_matrix(40_000, 1, 0.0, rng=rng).ravel()
        truth = true_histogram(values, bins=8)
        tv = {}
        for eps in (0.25, 4.0):
            est = _collect(LDPHistogram(eps, bins=8), values, rng)
            tv[eps] = est.total_variation(truth)
        assert tv[4.0] < tv[0.25]

    def test_projection_handles_all_noise(self):
        est = HistogramEstimate(
            histogram=LDPHistogram._project(np.array([-0.1, -0.2, -0.3])),
            raw=np.array([-0.1, -0.2, -0.3]),
            edges=np.linspace(-1, 1, 4),
        )
        assert np.allclose(est.histogram, 1.0 / 3.0)


class TestQueries:
    def _uniform_estimate(self, bins=4):
        return HistogramEstimate(
            histogram=np.full(bins, 1.0 / bins),
            raw=np.full(bins, 1.0 / bins),
            edges=np.linspace(-1, 1, bins + 1),
        )

    def test_cdf_endpoints(self):
        est = self._uniform_estimate()
        assert est.cdf(-1.0) == pytest.approx(0.0)
        assert est.cdf(1.0) == pytest.approx(1.0)

    def test_cdf_midpoint(self):
        est = self._uniform_estimate()
        assert est.cdf(0.0) == pytest.approx(0.5)

    def test_quantile_inverts_cdf(self):
        est = self._uniform_estimate()
        for q in (0.1, 0.25, 0.5, 0.9):
            assert est.cdf(est.quantile(q)) == pytest.approx(q, abs=1e-9)

    def test_quantile_bad_q(self):
        with pytest.raises(ValueError):
            self._uniform_estimate().quantile(1.5)

    def test_mean_of_uniform_is_zero(self):
        assert self._uniform_estimate().mean() == pytest.approx(0.0)

    def test_mean_cross_checks_pm(self, rng):
        """Distribution-based mean vs the paper's direct mean estimation:
        both should land near the truth (histogram adds discretization
        bias of at most one bin width)."""
        from repro.core import PiecewiseMechanism

        values = truncated_gaussian_matrix(60_000, 1, 0.4, rng=rng).ravel()
        hist_mean = _collect(LDPHistogram(2.0, bins=16), values, rng).mean()
        pm = PiecewiseMechanism(2.0)
        direct_mean = pm.estimate_mean(pm.privatize(values, rng))
        assert abs(hist_mean - values.mean()) < 0.1
        assert abs(direct_mean - values.mean()) < 0.05

    def test_total_variation_shape_mismatch(self):
        est = self._uniform_estimate()
        with pytest.raises(ValueError):
            est.total_variation(np.ones(7))

    def test_true_histogram_empty(self):
        with pytest.raises(ValueError):
            true_histogram([], bins=4)
