"""Tests for Algorithm 4 and the Section IV-C mixed collector."""

import numpy as np
import pytest

from repro.data import make_br_like
from repro.data.schema import (
    CategoricalAttribute,
    Dataset,
    NumericAttribute,
    Schema,
)
from repro.multidim import (
    MixedMultidimCollector,
    MultidimNumericCollector,
    sample_attribute_matrix,
)
from repro.theory.constants import optimal_k


def _aggregate(collector, dataset, rng):
    """User-side privatize, then the aggregator's estimates."""
    return collector.aggregate(collector.privatize(dataset, rng))


class TestSampleAttributeMatrix:
    def test_shape(self, rng):
        assert sample_attribute_matrix(100, 10, 3, rng).shape == (100, 3)

    def test_indices_in_range(self, rng):
        idx = sample_attribute_matrix(200, 7, 4, rng)
        assert idx.min() >= 0 and idx.max() < 7

    def test_no_replacement_within_row(self, rng):
        idx = sample_attribute_matrix(500, 8, 5, rng)
        for row in idx:
            assert len(set(row.tolist())) == 5

    def test_marginal_uniformity(self, rng):
        """Each attribute is sampled by ~ nk/d users."""
        n, d, k = 60_000, 10, 3
        idx = sample_attribute_matrix(n, d, k, rng)
        counts = np.bincount(idx.ravel(), minlength=d) / n
        assert np.allclose(counts, k / d, atol=0.01)

    def test_k_equals_d_is_permutation(self, rng):
        idx = sample_attribute_matrix(50, 4, 4, rng)
        for row in idx:
            assert sorted(row.tolist()) == [0, 1, 2, 3]

    @pytest.mark.parametrize("bad_k", [0, 11])
    def test_bad_k_rejected(self, bad_k, rng):
        with pytest.raises(ValueError):
            sample_attribute_matrix(10, 10, bad_k, rng)

    def test_negative_n_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_attribute_matrix(-1, 5, 2, rng)

    def test_zero_n_yields_empty_matrix(self, rng):
        # n = 0 is the uniform empty-batch no-op, not an error.
        out = sample_attribute_matrix(0, 5, 2, rng)
        assert out.shape == (0, 2)
        assert out.dtype == np.int64


class TestMultidimNumericCollector:
    def test_default_k_matches_eq12(self):
        for eps, d in ((1.0, 10), (4.0, 10), (8.0, 10), (30.0, 10)):
            assert MultidimNumericCollector(eps, d).k == optimal_k(eps, d)

    def test_k_override(self):
        assert MultidimNumericCollector(1.0, 10, k=4).k == 4

    @pytest.mark.parametrize("bad_k", [0, 11])
    def test_bad_k_rejected(self, bad_k):
        with pytest.raises(ValueError):
            MultidimNumericCollector(1.0, 10, k=bad_k)

    def test_per_user_budget_is_eps_over_k(self):
        collector = MultidimNumericCollector(6.0, 10, "pm")
        assert collector.mechanism.epsilon == pytest.approx(
            6.0 / collector.k
        )

    def test_report_sparsity(self, rng):
        collector = MultidimNumericCollector(1.0, 10, "pm")  # k = 1
        t = rng.uniform(-1, 1, (500, 10))
        reports = collector.privatize(t, rng)
        nonzero_per_row = np.count_nonzero(reports, axis=1)
        assert np.all(nonzero_per_row == 1)

    def test_report_scale_bounded(self, rng):
        collector = MultidimNumericCollector(1.0, 10, "pm")
        t = rng.uniform(-1, 1, (500, 10))
        reports = collector.privatize(t, rng)
        bound = (10 / collector.k) * collector.mechanism.c
        assert np.abs(reports).max() <= bound + 1e-9

    @pytest.mark.parametrize("mech", ["pm", "hm", "duchi", "laplace"])
    def test_unbiased_means(self, mech, rng):
        d, n = 6, 120_000
        collector = MultidimNumericCollector(2.0, d, mech)
        t = np.tile(np.linspace(-0.6, 0.6, d), (n, 1))
        estimates = collector.estimate_means(collector.privatize(t, rng))
        sem = np.sqrt(collector.worst_case_variance() / n)
        assert np.all(np.abs(estimates - t[0]) < 6.0 * sem)

    @pytest.mark.parametrize("mech", ["pm", "hm"])
    def test_empirical_variance_matches_eq14_15(self, mech, rng):
        d, n = 6, 150_000
        collector = MultidimNumericCollector(2.0, d, mech)
        values = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 0.25])
        t = np.tile(values, (n, 1))
        reports = collector.privatize(t, rng)
        for j in range(d):
            want = float(collector.per_coordinate_variance(values[j]))
            got = float(np.var(reports[:, j]))
            assert got == pytest.approx(want, rel=0.08)

    def test_estimate_means_validates(self):
        collector = MultidimNumericCollector(1.0, 5)
        with pytest.raises(ValueError):
            collector.estimate_means(np.zeros((0, 5)))
        with pytest.raises(ValueError):
            collector.estimate_means(np.zeros((3, 4)))

    def test_wrong_width_rejected(self, rng):
        collector = MultidimNumericCollector(1.0, 5)
        with pytest.raises(ValueError):
            collector.privatize(np.zeros((10, 4)), rng)

    def test_worst_case_variance_positive(self):
        assert MultidimNumericCollector(1.0, 5).worst_case_variance() > 0


def _tiny_mixed_dataset(n, rng):
    schema = Schema(
        [
            NumericAttribute("x", -1.0, 1.0),
            CategoricalAttribute("c", 4),
            NumericAttribute("y", 0.0, 10.0),
            CategoricalAttribute("b", 2),
        ]
    )
    return Dataset(
        schema=schema,
        columns={
            "x": rng.uniform(-1, 1, n),
            "c": rng.choice(4, size=n, p=[0.4, 0.3, 0.2, 0.1]),
            "y": rng.uniform(0, 10, n),
            "b": rng.choice(2, size=n, p=[0.7, 0.3]),
        },
    )


class TestMixedMultidimCollector:
    def test_k_default(self, rng):
        ds = _tiny_mixed_dataset(100, rng)
        assert MixedMultidimCollector(ds.schema, 1.0).k == 1
        assert MixedMultidimCollector(ds.schema, 10.0).k == 4

    def test_schema_mismatch_rejected(self, rng):
        ds = _tiny_mixed_dataset(100, rng)
        other = ds.select_attributes(["x", "c"])
        collector = MixedMultidimCollector(ds.schema, 1.0)
        with pytest.raises(ValueError):
            collector.privatize(other, rng)

    def test_estimates_cover_all_attributes(self, rng):
        ds = _tiny_mixed_dataset(2_000, rng)
        est = _aggregate(MixedMultidimCollector(ds.schema, 2.0), ds, rng)
        assert set(est.means) == {"x", "y"}
        assert set(est.frequencies) == {"c", "b"}
        assert est.frequencies["c"].shape == (4,)

    def test_unbiased_means_and_frequencies(self, rng):
        ds = _tiny_mixed_dataset(150_000, rng)
        collector = MixedMultidimCollector(ds.schema, 2.0)
        est = _aggregate(collector, ds, rng)
        truth_means = ds.true_numeric_means()
        truth_freqs = ds.true_categorical_frequencies()
        for name, value in est.means.items():
            assert value == pytest.approx(truth_means[name], abs=0.06)
        for name, freqs in est.frequencies.items():
            assert np.all(np.abs(freqs - truth_freqs[name]) < 0.06)

    @pytest.mark.parametrize("oracle", ["grr", "sue", "oue", "olh"])
    def test_any_oracle_plugs_in(self, oracle, rng):
        ds = _tiny_mixed_dataset(30_000, rng)
        collector = MixedMultidimCollector(ds.schema, 2.0, oracle=oracle)
        est = _aggregate(collector, ds, rng)
        truth = ds.true_categorical_frequencies()
        for name, freqs in est.frequencies.items():
            assert np.all(np.abs(freqs - truth[name]) < 0.15)

    def test_numeric_budget_is_eps_over_k(self, rng):
        ds = _tiny_mixed_dataset(10, rng)
        collector = MixedMultidimCollector(ds.schema, 6.0)
        assert collector.numeric_mechanism.epsilon == pytest.approx(
            6.0 / collector.k
        )
        for oracle in collector.oracles.values():
            assert oracle.epsilon == pytest.approx(6.0 / collector.k)

    def test_real_dataset_roundtrip(self, rng):
        ds = make_br_like(20_000, rng=rng)
        est = _aggregate(MixedMultidimCollector(ds.schema, 4.0), ds, rng)
        assert est.mean_mse(ds.true_numeric_means()) < 0.01
        assert est.frequency_mse(ds.true_categorical_frequencies()) < 0.01


class TestMixedCollectorVariance:
    def test_worst_case_variance_matches_numeric_collector(self, rng):
        """The mixed collector's numeric variance formula agrees with the
        pure Algorithm 4 collector at the same (eps, d, k)."""
        ds = _tiny_mixed_dataset(10, rng)
        mixed = MixedMultidimCollector(ds.schema, 2.0, "hm")
        numeric = MultidimNumericCollector(2.0, ds.schema.d, "hm", k=mixed.k)
        assert mixed.worst_case_variance() == pytest.approx(
            numeric.worst_case_variance()
        )

    def test_per_coordinate_variance_positive(self, rng):
        ds = _tiny_mixed_dataset(10, rng)
        mixed = MixedMultidimCollector(ds.schema, 1.0, "pm")
        grid = np.linspace(-1, 1, 11)
        assert np.all(mixed.per_coordinate_variance(grid) > 0)

    def test_generic_mechanism_fallback(self, rng):
        ds = _tiny_mixed_dataset(10, rng)
        mixed = MixedMultidimCollector(ds.schema, 1.0, "laplace")
        assert mixed.worst_case_variance() > 0
