"""Acceptance tests for the protocol layer.

Two guarantees, for every protocol kind:

1. *Adapter equivalence* — with the same rng seed, the protocol path
   (encode_batch + absorb + estimate) reproduces the collectors'
   own privatize + estimate path (estimate_means / aggregate /
   estimate / estimate_frequencies / estimate_mean) to 1e-12.
2. *Shard-merge exactness* — absorbing n reports as 4+ batches into one
   accumulator and absorbing the same batches into 4+ accumulators then
   merging (in batch order) yield bitwise-identical estimates.
"""

import numpy as np
import pytest

from repro.core.mechanism import get_mechanism
from repro.data.schema import (
    CategoricalAttribute,
    Dataset,
    NumericAttribute,
    Schema,
)
from repro.frequency import LDPHistogram, get_oracle
from repro.multidim import MixedMultidimCollector, MultidimNumericCollector
from repro.protocol import Protocol

SEED = 20190408
SHARDS = 4


def _mixed_dataset(n, rng):
    schema = Schema(
        [
            NumericAttribute("x"),
            CategoricalAttribute("c", 4),
            NumericAttribute("y"),
        ]
    )
    return Dataset(
        schema=schema,
        columns={
            "x": rng.uniform(-1, 1, n),
            "c": rng.integers(0, 4, n),
            "y": rng.uniform(-1, 1, n),
        },
    )


def _sharded_vs_single(protocol, report_batches):
    """(single-accumulator estimate, merged-shards estimate)."""
    single = protocol.server()
    for batch in report_batches:
        single.absorb(batch)
    shards = [protocol.server().absorb(batch) for batch in report_batches]
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    assert len(shards) >= SHARDS
    return single.estimate(), merged.estimate()


class TestNumericMeanProtocol:
    def test_seed_matched_legacy_equivalence(self, rng, epsilon):
        values = rng.uniform(-1, 1, 10_000)
        mech = get_mechanism("hm", epsilon)
        legacy = mech.estimate_mean(
            mech.privatize(values, np.random.default_rng(SEED))
        )
        protocol = Protocol.numeric_mean(epsilon, "hm")
        reports = protocol.client().encode_batch(
            values, np.random.default_rng(SEED)
        )
        est = protocol.server().absorb(reports).estimate()
        assert est == pytest.approx(legacy, abs=1e-12)

    def test_sharded_merge_bitwise(self, rng):
        protocol = Protocol.numeric_mean(1.0, "pm")
        reports = protocol.client().encode_batch(
            rng.uniform(-1, 1, 10_000), rng
        )
        single, merged = _sharded_vs_single(
            protocol, np.array_split(reports, SHARDS)
        )
        assert merged == single  # bitwise


class TestFrequencyProtocol:
    @pytest.mark.parametrize("oracle_name", ["grr", "sue", "oue"])
    def test_seed_matched_legacy_equivalence(self, rng, oracle_name):
        values = rng.integers(0, 6, 12_000)
        oracle = get_oracle(oracle_name, 1.0, 6)
        legacy = oracle.estimate_frequencies(
            oracle.privatize(values, np.random.default_rng(SEED))
        )
        protocol = Protocol.frequency(1.0, domain=6, oracle=oracle_name)
        reports = protocol.client().encode_batch(
            values, np.random.default_rng(SEED)
        )
        est = protocol.server().absorb(reports).estimate()
        assert np.allclose(est, legacy, atol=1e-12)

    def test_sharded_merge_bitwise(self, rng):
        protocol = Protocol.frequency(1.0, domain=6, oracle="oue")
        reports = protocol.client().encode_batch(
            rng.integers(0, 6, 12_000), rng
        )
        single, merged = _sharded_vs_single(
            protocol, np.array_split(reports, SHARDS)
        )
        assert np.array_equal(merged, single)  # bitwise


class TestHistogramProtocol:
    def test_seed_matched_legacy_equivalence(self, rng):
        values = rng.uniform(-1, 1, 15_000)
        hist = LDPHistogram(1.0, bins=8)
        legacy = hist.estimate(
            hist.privatize(values, np.random.default_rng(SEED))
        )
        protocol = Protocol.histogram(1.0, bins=8)
        reports = protocol.client().encode_batch(
            values, np.random.default_rng(SEED)
        )
        est = protocol.server().absorb(reports).estimate()
        assert np.allclose(est.raw, legacy.raw, atol=1e-12)
        assert np.allclose(est.histogram, legacy.histogram, atol=1e-12)

    def test_sharded_merge_bitwise(self, rng):
        protocol = Protocol.histogram(1.0, bins=8)
        reports = protocol.client().encode_batch(
            rng.uniform(-1, 1, 15_000), rng
        )
        single, merged = _sharded_vs_single(
            protocol, np.array_split(reports, SHARDS)
        )
        assert np.array_equal(merged.raw, single.raw)  # bitwise
        assert np.array_equal(merged.histogram, single.histogram)


class TestMultidimNumericProtocol:
    def test_seed_matched_legacy_equivalence(self, rng, epsilon):
        t = rng.uniform(-1, 1, (8_000, 10))
        collector = MultidimNumericCollector(epsilon, 10, "hm")
        legacy = collector.estimate_means(
            collector.privatize(t, np.random.default_rng(SEED))
        )
        protocol = Protocol.multidim(epsilon, d=10, mechanism="hm")
        reports = protocol.client().encode_batch(
            t, np.random.default_rng(SEED)
        )
        est = protocol.server().absorb(reports).estimate()
        assert np.allclose(est, legacy, atol=1e-12)

    def test_compact_reports_match_legacy_dense(self, rng):
        t = rng.uniform(-1, 1, (3_000, 6))
        collector = MultidimNumericCollector(4.0, 6, "pm")
        dense_legacy = collector.privatize(t, np.random.default_rng(SEED))
        protocol = Protocol.multidim(4.0, d=6, mechanism="pm")
        reports = protocol.client().encode_batch(
            t, np.random.default_rng(SEED)
        )
        assert np.array_equal(reports.to_dense(), dense_legacy)  # bitwise

    def test_sharded_merge_bitwise(self, rng):
        protocol = Protocol.multidim(4.0, d=10, mechanism="hm")
        reports = protocol.client().encode_batch(
            rng.uniform(-1, 1, (8_000, 10)), rng
        )
        single, merged = _sharded_vs_single(protocol, reports.split(SHARDS))
        assert np.array_equal(merged, single)  # bitwise


class TestMultidimMixedProtocol:
    def test_seed_matched_legacy_equivalence(self, rng, epsilon):
        ds = _mixed_dataset(10_000, rng)
        collector = MixedMultidimCollector(ds.schema, epsilon)
        legacy = collector.aggregate(
            collector.privatize(ds, np.random.default_rng(SEED))
        )
        protocol = Protocol.multidim(epsilon, schema=ds.schema)
        reports = protocol.client().encode_batch(
            ds, np.random.default_rng(SEED)
        )
        est = protocol.server().absorb(reports).estimate()
        assert set(est.means) == set(legacy.means)
        for name in est.means:
            assert est.means[name] == pytest.approx(
                legacy.means[name], abs=1e-12
            )
        assert set(est.frequencies) == set(legacy.frequencies)
        for name in est.frequencies:
            assert np.allclose(
                est.frequencies[name], legacy.frequencies[name], atol=1e-12
            )

    def test_sharded_merge_bitwise(self, rng):
        ds = _mixed_dataset(12_000, rng)
        protocol = Protocol.multidim(2.0, schema=ds.schema)
        client = protocol.client()
        batches = [
            client.encode_batch(ds.subset(idx), rng)
            for idx in np.array_split(np.arange(ds.n), SHARDS)
        ]
        single, merged = _sharded_vs_single(protocol, batches)
        for name in single.means:
            assert merged.means[name] == single.means[name]  # bitwise
        for name in single.frequencies:
            assert np.array_equal(
                merged.frequencies[name], single.frequencies[name]
            )
