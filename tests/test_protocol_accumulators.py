"""Unit tests for the mergeable server accumulators."""

import numpy as np
import pytest

from repro.frequency import OLHReports, OptimizedUnaryEncoding
from repro.protocol import (
    FrequencyAccumulator,
    HistogramAccumulator,
    MeanAccumulator,
    MultidimMeanAccumulator,
    Protocol,
    SampledNumericReports,
)


class TestMeanAccumulator:
    def test_absorb_and_estimate(self):
        acc = MeanAccumulator()
        acc.absorb([1.0, 2.0, 3.0]).absorb([4.0])
        assert acc.estimate() == pytest.approx(2.5)
        assert acc.count == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            MeanAccumulator().estimate()

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            MeanAccumulator().absorb(np.zeros((3, 2)))

    def test_merge_type_checked(self):
        with pytest.raises(ValueError):
            MeanAccumulator().merge(MultidimMeanAccumulator(2))

    def test_merge_equals_combined(self, rng):
        a, b = rng.normal(size=100), rng.normal(size=77)
        merged = (
            MeanAccumulator().absorb(a).merge(MeanAccumulator().absorb(b))
        )
        combined = MeanAccumulator().absorb(np.concatenate([a, b]))
        assert merged.estimate() == pytest.approx(
            combined.estimate(), abs=1e-12
        )


class TestMultidimMeanAccumulator:
    def test_dense_and_sparse_agree(self, rng):
        protocol = Protocol.multidim(4.0, d=8, mechanism="pm")
        t = rng.uniform(-1, 1, (5_000, 8))
        reports = protocol.client().encode_batch(t, rng)

        sparse = MultidimMeanAccumulator(8).absorb(reports)
        dense = reports.to_dense()
        assert sparse.count == dense.shape[0] == 5_000
        assert np.allclose(
            sparse.estimate(), dense.mean(axis=0), atol=1e-12
        )

    def test_sparse_d_mismatch(self):
        reports = SampledNumericReports(
            d=4, k=1, cols=np.zeros((3, 1)), values=np.ones((3, 1))
        )
        with pytest.raises(ValueError):
            MultidimMeanAccumulator(5).absorb(reports)

    def test_bad_d(self):
        with pytest.raises(ValueError):
            MultidimMeanAccumulator(0)


class TestSampledNumericReports:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampledNumericReports(
                d=3, k=2, cols=np.zeros((4, 2)), values=np.zeros((4, 1))
            )
        with pytest.raises(ValueError):
            SampledNumericReports(
                d=3, k=2, cols=np.full((4, 2), 3), values=np.zeros((4, 2))
            )

    def test_to_dense_layout(self):
        reports = SampledNumericReports(
            d=4,
            k=2,
            cols=np.array([[0, 2], [3, 1]]),
            values=np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        dense = reports.to_dense()
        expected = np.array(
            [[1.0, 0.0, 2.0, 0.0], [0.0, 4.0, 0.0, 3.0]]
        )
        assert np.array_equal(dense, expected)

    def test_split_preserves_everything(self, rng):
        protocol = Protocol.multidim(4.0, d=6, mechanism="hm")
        t = rng.uniform(-1, 1, (1_000, 6))
        reports = protocol.client().encode_batch(t, rng)
        shards = reports.split(4)
        assert sum(s.n for s in shards) == reports.n
        assert np.array_equal(
            np.vstack([s.cols for s in shards]), reports.cols
        )
        assert np.array_equal(
            np.vstack([s.values for s in shards]), reports.values
        )


class TestFrequencyAccumulator:
    def test_merge_requires_matching_oracles(self):
        a = FrequencyAccumulator(OptimizedUnaryEncoding(1.0, 4))
        b = FrequencyAccumulator(OptimizedUnaryEncoding(1.0, 5))
        with pytest.raises(ValueError):
            a.merge(b)
        c = FrequencyAccumulator(OptimizedUnaryEncoding(2.0, 4))
        with pytest.raises(ValueError):
            a.merge(c)

    def test_merge_is_exact(self, rng):
        # Support counts are integral, so sharding can never change the
        # estimate, bitwise, regardless of order.
        oracle = OptimizedUnaryEncoding(1.0, 6)
        values = rng.integers(0, 6, 9_000)
        reports = oracle.privatize(values, rng)
        single = FrequencyAccumulator(oracle).absorb(reports)
        order = rng.permutation(9_000)
        shards = [
            FrequencyAccumulator(oracle).absorb(reports[idx])
            for idx in np.array_split(order, 5)
        ]
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        assert np.array_equal(merged.estimate(), single.estimate())


class TestOLHValidation:
    """A bucket outside [0, g) supports no value: if accepted, it would
    count in n but never in support and bias every estimate."""

    def _olh(self, rng):
        protocol = Protocol.frequency(1.0, domain=12, oracle="olh")
        reports = protocol.client().encode_batch(rng.integers(0, 12, 40), 3)
        return protocol.server(), reports

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s, b: (s, np.where(np.arange(b.size) == 5, 99, b)),
            lambda s, b: (s, np.where(np.arange(b.size) == 5, -1, b)),
            lambda s, b: (s, b + 0.5),
            lambda s, b: (s.astype(float) + 0.5, b),
            lambda s, b: (s.astype(float), b),
        ],
        ids=["bucket-99", "bucket-negative", "bucket-fraction",
             "seed-fraction", "seed-float"],
    )
    def test_malformed_batch_rejected_without_mutation(self, rng, corrupt):
        acc, reports = self._olh(rng)
        acc.absorb(reports)
        before = (acc.state_dict()["support"].tobytes(), acc.count)
        seeds, buckets = corrupt(reports.seeds, reports.buckets)
        bad = OLHReports(seeds=seeds, buckets=buckets)
        for batch in (bad, bad.to_block()):
            for check in (acc.validate, acc.absorb):
                with pytest.raises(ValueError):
                    check(batch)
        assert (acc.state_dict()["support"].tobytes(), acc.count) == before

    def test_integral_float_buckets_still_accepted(self, rng):
        acc, reports = self._olh(rng)
        as_float = OLHReports(reports.seeds, reports.buckets.astype(float))
        acc.validate(as_float)
        assert np.array_equal(
            acc.absorb(as_float).state_dict()["support"],
            self._olh(rng)[0].absorb(reports).state_dict()["support"],
        )

    def test_oracle_and_report_kinds_must_match(self, rng):
        olh, reports = self._olh(rng)
        oue = Protocol.frequency(1.0, domain=12, oracle="oue").server()
        with pytest.raises(ValueError, match="OLH reports sent"):
            oue.validate(reports)
        with pytest.raises(ValueError, match="needs OLH reports"):
            olh.validate(np.arange(12))


class TestHistogramAccumulator:
    def _acc(self, bins=8, postprocess="norm-sub"):
        protocol = Protocol.histogram(1.0, bins=bins, postprocess=postprocess)
        return protocol.server()

    def test_server_builds_histogram_accumulator(self):
        assert isinstance(self._acc(), HistogramAccumulator)

    def test_merge_rejects_different_bins(self):
        with pytest.raises(ValueError):
            self._acc(bins=8).merge(self._acc(bins=8, postprocess="cut"))

    def test_merge_rejects_plain_frequency_accumulator(self):
        # Same oracle shape (k=8, same eps) but a different protocol:
        # must not silently fold frequency state into a histogram.
        freq = Protocol.frequency(1.0, domain=8, oracle="oue").server()
        with pytest.raises(ValueError):
            self._acc(bins=8).merge(freq)

    def test_estimate_is_probability_vector(self, rng):
        protocol = Protocol.histogram(1.0, bins=8)
        values = rng.uniform(-1, 1, 20_000)
        est = protocol.run(values, rng)
        assert est.histogram.shape == (8,)
        assert est.histogram.min() >= 0.0
        assert est.histogram.sum() == pytest.approx(1.0)


class TestMixedAccumulatorSchemaChecks:
    def test_absorb_rejects_unknown_categorical_attribute(self, rng):
        from repro.data.schema import (
            CategoricalAttribute,
            Dataset,
            NumericAttribute,
            Schema,
        )
        from repro.multidim import MixedMultidimCollector

        schema_a = Schema([NumericAttribute("x"), CategoricalAttribute("c", 4)])
        schema_b = Schema([NumericAttribute("x"), CategoricalAttribute("z", 4)])
        ds_b = Dataset(
            schema=schema_b,
            columns={
                "x": rng.uniform(-1, 1, 200),
                "z": rng.integers(0, 4, 200),
            },
        )
        reports_b = MixedMultidimCollector(schema_b, 2.0).privatize(ds_b, rng)
        acc_a = Protocol.multidim(2.0, schema=schema_a).server()
        with pytest.raises(ValueError, match="not in this accumulator"):
            acc_a.absorb(reports_b)


class TestResolvedK:
    def test_multidim_exposes_resolved_k(self):
        protocol = Protocol.multidim(4.0, d=10, mechanism="hm")
        assert protocol.k == 1          # Eq. 12 at eps=4.0
        assert protocol.spec.k is None  # derived, not overridden
        assert Protocol.multidim(4.0, d=10, k=2).k == 2

    def test_non_multidim_kinds_have_no_k(self):
        assert Protocol.numeric_mean(1.0).k is None
        assert Protocol.frequency(1.0, domain=4).k is None


class TestMergeLaws:
    """merge() associativity / commutativity across random shard splits."""

    def _shards(self, rng, parts=4):
        protocol = Protocol.multidim(4.0, d=5, mechanism="hm")
        t = rng.uniform(-1, 1, (8_000, 5))
        reports = protocol.client().encode_batch(t, rng)
        order = rng.permutation(reports.n)
        shards = []
        for idx in np.array_split(order, parts):
            shard = SampledNumericReports(
                d=reports.d,
                k=reports.k,
                cols=reports.cols[idx],
                values=reports.values[idx],
            )
            shards.append(protocol.server().absorb(shard))
        return protocol, shards

    def test_commutative(self, rng):
        protocol, shards = self._shards(rng, parts=2)
        a, b = shards
        ab = protocol.server().merge(a).merge(b).estimate()
        ba = protocol.server().merge(b).merge(a).estimate()
        assert np.allclose(ab, ba, atol=1e-12)

    def test_associative(self, rng):
        protocol, shards = self._shards(rng, parts=3)
        a, b, c = shards

        def fresh(acc):
            clone = protocol.server()
            return clone.merge(acc)

        left = fresh(a).merge(b).merge(c).estimate()
        right_inner = fresh(b).merge(c)
        right = fresh(a).merge(right_inner).estimate()
        assert np.allclose(left, right, atol=1e-12)
