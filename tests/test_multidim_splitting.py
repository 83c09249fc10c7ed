"""Tests for the Section VI-A composition baseline and MixedEstimates."""

import numpy as np
import pytest

from repro.data.schema import (
    CategoricalAttribute,
    Dataset,
    NumericAttribute,
    Schema,
)
from repro.multidim import (
    MixedEstimates,
    MixedMultidimCollector,
    SplitCompositionBaseline,
)
from repro.utils.rng import spawn_rngs


def _aggregate(collector, dataset, rng):
    """User-side privatize, then the aggregator's estimates."""
    return collector.aggregate(collector.privatize(dataset, rng))


def _dataset(n, rng):
    schema = Schema(
        [
            NumericAttribute("a"),
            NumericAttribute("b"),
            CategoricalAttribute("c", 3),
            CategoricalAttribute("d", 5),
        ]
    )
    return Dataset(
        schema=schema,
        columns={
            "a": rng.uniform(-1, 1, n),
            "b": rng.uniform(-0.5, 0.5, n),
            "c": rng.choice(3, size=n, p=[0.5, 0.3, 0.2]),
            "d": rng.choice(5, size=n),
        },
    )


class TestSplitCompositionBaseline:
    def test_budget_split(self, rng):
        ds = _dataset(10, rng)
        base = SplitCompositionBaseline(ds.schema, 4.0, "laplace")
        assert base.per_attribute_budget == pytest.approx(1.0)
        assert base.numeric_budget == pytest.approx(2.0)

    def test_duchi_uses_joint_numeric_budget(self, rng):
        ds = _dataset(10, rng)
        base = SplitCompositionBaseline(ds.schema, 4.0, "duchi")
        assert base._duchi_md is not None
        assert base._duchi_md.epsilon == pytest.approx(2.0)
        assert base._duchi_md.d == 2

    @pytest.mark.parametrize(
        "method", ["laplace", "scdf", "staircase", "duchi", "pm", "hm"]
    )
    def test_unbiased(self, method, rng):
        ds = _dataset(80_000, rng)
        base = SplitCompositionBaseline(ds.schema, 4.0, method)
        est = base.collect(ds, rng)
        truth_means = ds.true_numeric_means()
        truth_freqs = ds.true_categorical_frequencies()
        for name, value in est.means.items():
            assert value == pytest.approx(truth_means[name], abs=0.1)
        for name, freqs in est.frequencies.items():
            assert np.all(np.abs(freqs - truth_freqs[name]) < 0.1)

    def test_schema_mismatch_rejected(self, rng):
        ds = _dataset(100, rng)
        base = SplitCompositionBaseline(ds.schema, 1.0)
        with pytest.raises(ValueError):
            base.collect(ds.select_attributes(["a", "c"]), rng)

    def test_proposed_beats_baseline_on_average(self, rng):
        """The paper's headline empirical claim, in miniature: over
        several runs, the Section IV-C collector's numeric MSE is below
        the Laplace-composition baseline's."""
        ds = _dataset(30_000, rng)
        truth = ds.true_numeric_means()
        eps = 1.0
        ours, theirs = [], []
        for child in spawn_rngs(7, 6):
            ours.append(
                _aggregate(MixedMultidimCollector(ds.schema, eps), ds, child)
                .mean_mse(truth)
            )
            theirs.append(
                SplitCompositionBaseline(ds.schema, eps, "laplace")
                .collect(ds, child)
                .mean_mse(truth)
            )
        assert np.mean(ours) < np.mean(theirs)


class TestMixedEstimates:
    def test_mean_mse(self):
        est = MixedEstimates(means={"a": 0.1, "b": -0.1})
        truth = {"a": 0.0, "b": 0.0}
        assert est.mean_mse(truth) == pytest.approx(0.01)

    def test_frequency_mse(self):
        est = MixedEstimates(
            frequencies={"c": np.array([0.5, 0.5]), "d": np.array([1.0, 0.0])}
        )
        truth = {"c": np.array([0.6, 0.4]), "d": np.array([1.0, 0.0])}
        assert est.frequency_mse(truth) == pytest.approx(
            (0.01 + 0.01 + 0 + 0) / 4
        )

    def test_max_mean_error(self):
        est = MixedEstimates(means={"a": 0.3, "b": -0.1})
        truth = {"a": 0.0, "b": 0.0}
        assert est.max_mean_error(truth) == pytest.approx(0.3)

    def test_missing_truth_raises(self):
        est = MixedEstimates(means={"a": 0.0})
        with pytest.raises(KeyError):
            est.mean_mse({"b": 0.0})

    def test_empty_estimates_raise(self):
        est = MixedEstimates()
        with pytest.raises(ValueError):
            est.mean_mse({})
        with pytest.raises(ValueError):
            est.frequency_mse({})
        with pytest.raises(ValueError):
            est.max_mean_error({})

    def test_frequency_shape_mismatch(self):
        est = MixedEstimates(frequencies={"c": np.array([0.5, 0.5])})
        with pytest.raises(ValueError):
            est.frequency_mse({"c": np.array([0.5, 0.3, 0.2])})

    def test_frequency_missing_attr(self):
        est = MixedEstimates(frequencies={"c": np.array([0.5, 0.5])})
        with pytest.raises(KeyError):
            est.frequency_mse({"x": np.array([0.5, 0.5])})
