"""Tests for the concrete Lemma 2 / Lemma 5 error-bound helpers."""

import numpy as np
import pytest

from repro.multidim import MultidimNumericCollector
from repro.theory.bounds import (
    asymptotic_md_error,
    mean_error_bound_1d,
    mean_error_bound_md,
)
from repro.utils.rng import spawn_rngs


class TestShapes:
    def test_1d_decays_with_n(self):
        assert mean_error_bound_1d(1.0, 10_000) < mean_error_bound_1d(1.0, 100)

    def test_1d_decays_with_epsilon(self):
        assert mean_error_bound_1d(4.0, 1000) < mean_error_bound_1d(0.5, 1000)

    def test_md_grows_with_d(self):
        assert mean_error_bound_md(1.0, 20, 1000) > mean_error_bound_md(
            1.0, 5, 1000
        )

    def test_md_pm_vs_hm(self):
        # HM's worst-case variance is smaller, so its bound is tighter.
        assert mean_error_bound_md(1.0, 10, 1000, mechanism="hm") <= (
            mean_error_bound_md(1.0, 10, 1000, mechanism="pm")
        )

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            mean_error_bound_1d(1.0, 100, mechanism="laplace")
        with pytest.raises(ValueError):
            mean_error_bound_md(1.0, 5, 100, mechanism="laplace")

    def test_asymptotic_rate_monotonicities(self):
        base = asymptotic_md_error(1.0, 10, 10_000)
        assert asymptotic_md_error(2.0, 10, 10_000) < base
        assert asymptotic_md_error(1.0, 20, 10_000) > base
        assert asymptotic_md_error(1.0, 10, 40_000) == pytest.approx(base / 2)

    def test_asymptotic_rate_bad_n(self):
        with pytest.raises(ValueError):
            asymptotic_md_error(1.0, 10, 0)


class TestBoundHolds:
    """The Lemma 5 radius is an actual high-probability envelope: run the
    collector many times and check the max-attribute error stays inside
    the beta = 0.05 radius in >= 95%-ish of trials."""

    def test_lemma5_envelope(self):
        eps, d, n, trials = 1.0, 6, 4_000, 40
        matrix = np.zeros((n, d))  # worst case inputs for HM are moot: use 0
        collector = MultidimNumericCollector(eps, d, "hm")
        radius = mean_error_bound_md(eps, d, n, beta=0.05, mechanism="hm")
        inside = 0
        for child in spawn_rngs(123, trials):
            estimates = collector.estimate_means(
                collector.privatize(matrix, child)
            )
            if float(np.abs(estimates).max()) <= radius:
                inside += 1
        assert inside >= int(0.9 * trials)
