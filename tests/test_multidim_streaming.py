"""Batch-by-batch aggregation of the multidim collectors' output.

The protocol accumulators are the streaming aggregators: they fold
report batches as they arrive with O(d) state and estimate at any
point.
"""

import numpy as np
import pytest

from repro.data.schema import (
    CategoricalAttribute,
    Dataset,
    NumericAttribute,
    Schema,
)
from repro.frequency import OptimizedUnaryEncoding
from repro.multidim import MixedMultidimCollector
from repro.protocol import (
    FrequencyAccumulator,
    MixedAccumulator,
    MultidimMeanAccumulator,
    Protocol,
    SampledNumericReports,
)


def _full_rows(values):
    """Every attribute 'sampled': an (n, d) matrix as compact reports."""
    values = np.atleast_2d(values)
    n, d = values.shape
    cols = np.tile(np.arange(d), (n, 1))
    return SampledNumericReports(d=d, k=d, cols=cols, values=values)


class TestStreamingMean:
    def test_matches_batch_exactly(self, rng):
        protocol = Protocol.multidim(2.0, d=5, mechanism="hm")
        t = rng.uniform(-1, 1, (12_000, 5))
        reports = protocol.client().encode_batch(t, rng)
        batch_estimate = reports.to_dense().mean(axis=0)

        stream = MultidimMeanAccumulator(5)
        for chunk in reports.split(7):
            stream.absorb(chunk)
        assert np.allclose(stream.estimate(), batch_estimate)
        assert stream.count == 12_000

    def test_single_row_update(self):
        stream = MultidimMeanAccumulator(3)
        stream.absorb(_full_rows([1.0, 2.0, 3.0]))
        assert np.allclose(stream.estimate(), [1.0, 2.0, 3.0])

    def test_no_reports_raises(self):
        with pytest.raises(ValueError):
            MultidimMeanAccumulator(3).estimate()

    def test_wrong_width_rejected(self):
        stream = MultidimMeanAccumulator(3)
        with pytest.raises(ValueError):
            stream.absorb(_full_rows(np.zeros((5, 4))))

    def test_bad_d(self):
        with pytest.raises(ValueError):
            MultidimMeanAccumulator(0)

    def test_merge_equals_combined(self, rng):
        a_data = rng.normal(0, 1, (100, 4))
        b_data = rng.normal(0, 1, (50, 4))
        merged = (
            MultidimMeanAccumulator(4)
            .absorb(_full_rows(a_data))
            .merge(MultidimMeanAccumulator(4).absorb(_full_rows(b_data)))
        )
        combined = MultidimMeanAccumulator(4).absorb(
            _full_rows(np.vstack([a_data, b_data]))
        )
        assert np.allclose(merged.estimate(), combined.estimate())

    def test_merge_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MultidimMeanAccumulator(3).merge(MultidimMeanAccumulator(4))


class TestStreamingFrequency:
    def test_matches_batch_exactly(self, rng):
        oracle = OptimizedUnaryEncoding(1.0, 4)
        values = rng.integers(0, 4, 8_000)
        reports = oracle.privatize(values, rng)
        batch = oracle.estimate_frequencies(reports)

        stream = FrequencyAccumulator(oracle)
        for chunk in np.array_split(reports, 5):
            stream.absorb(chunk)
        assert np.allclose(stream.estimate(), batch)

    def test_no_reports_raises(self):
        oracle = OptimizedUnaryEncoding(1.0, 4)
        with pytest.raises(ValueError):
            FrequencyAccumulator(oracle).estimate()

    def test_merge(self, rng):
        oracle = OptimizedUnaryEncoding(1.0, 4)
        values = rng.integers(0, 4, 6_000)
        reports = oracle.privatize(values, rng)
        half = len(values) // 2
        merged = (
            FrequencyAccumulator(oracle)
            .absorb(reports[:half])
            .merge(
                FrequencyAccumulator(oracle).absorb(reports[half:])
            )
        )
        assert np.allclose(
            merged.estimate(), oracle.estimate_frequencies(reports)
        )

    def test_merge_domain_mismatch(self):
        a = FrequencyAccumulator(OptimizedUnaryEncoding(1.0, 4))
        b = FrequencyAccumulator(OptimizedUnaryEncoding(1.0, 5))
        with pytest.raises(ValueError):
            a.merge(b)


def _dataset(n, rng):
    schema = Schema(
        [
            NumericAttribute("x"),
            CategoricalAttribute("c", 4),
        ]
    )
    return Dataset(
        schema=schema,
        columns={
            "x": rng.uniform(-1, 1, n),
            "c": rng.integers(0, 4, n),
        },
    )


class TestStreamingMixed:
    def test_matches_batch_path(self, rng):
        ds = _dataset(20_000, rng)
        collector = MixedMultidimCollector(ds.schema, 2.0)
        stream = MixedAccumulator.for_collector(collector)

        batches = [ds.subset(idx) for idx in np.array_split(np.arange(ds.n), 4)]
        all_reports = []
        for batch in batches:
            reports = collector.privatize(batch, rng)
            all_reports.append(reports)
            stream.absorb(reports)

        streamed = stream.estimate()
        assert stream.count == ds.n
        # Mean estimates: averaging per-batch sums equals global average.
        combined_numeric = np.vstack([r.numeric for r in all_reports])
        assert streamed.means["x"] == pytest.approx(
            float(combined_numeric.mean(axis=0)[0])
        )
        assert streamed.frequencies["c"].shape == (4,)

    def test_estimates_close_to_truth(self, rng):
        ds = _dataset(60_000, rng)
        collector = MixedMultidimCollector(ds.schema, 2.0)
        stream = MixedAccumulator.for_collector(collector)
        for idx in np.array_split(np.arange(ds.n), 6):
            stream.absorb(collector.privatize(ds.subset(idx), rng))
        estimates = stream.estimate()
        assert estimates.mean_mse(ds.true_numeric_means()) < 0.01
        assert estimates.frequency_mse(ds.true_categorical_frequencies()) < 0.01

    def test_no_reports_raises(self, rng):
        ds = _dataset(10, rng)
        stream = MixedAccumulator.for_collector(
            MixedMultidimCollector(ds.schema, 1.0)
        )
        with pytest.raises(ValueError):
            stream.estimate()
