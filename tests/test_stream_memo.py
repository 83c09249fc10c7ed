"""Unit tests for repro.stream.memo — longitudinal memoization."""

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.stream import MemoizedEncoder


def users(n):
    return [f"user-{i}" for i in range(n)]


def assert_same_block(a, b):
    """Same kind, ``n`` and meta, and every column's dtype and bytes."""
    assert (a.kind, a.n, a.meta) == (b.kind, b.n, b.meta)
    assert list(a.columns) == list(b.columns)
    for name, arr in a.columns.items():
        assert arr.dtype == b.columns[name].dtype, name
        assert np.array_equal(arr, b.columns[name]), name


class TestMemoizedEncoderBasics:
    def test_round_two_is_byte_identical_and_all_cached(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        values = np.random.default_rng(0).integers(0, 8, size=30)
        r1, fresh1 = memo.encode_users(values, users(30), np.random.default_rng(1))
        r2, fresh2 = memo.encode_users(values, users(30), np.random.default_rng(2))
        assert all(fresh1) and not any(fresh2)
        assert_same_block(r1, r2)
        assert memo.hits == 30 and memo.misses == 30

    def test_changed_values_are_fresh_only_where_changed(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        v1 = np.array([0, 1, 2, 3])
        r1, _ = memo.encode_users(v1, users(4), np.random.default_rng(1))
        v2 = np.array([0, 5, 2, 6])  # users 1 and 3 changed
        r2, fresh2 = memo.encode_users(v2, users(4), np.random.default_rng(2))
        assert fresh2 == [False, True, False, True]
        a1, a2 = r1.column("array"), r2.column("array")
        assert a2[0] == a1[0] and a2[2] == a1[2]

    def test_switching_back_reuses_original_report(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        r1, _ = memo.encode_users([3], ["u"], np.random.default_rng(1))
        memo.encode_users([5], ["u"], np.random.default_rng(2))
        r3, fresh3 = memo.encode_users([3], ["u"], np.random.default_rng(3))
        assert fresh3 == [False]
        assert_same_block(r1, r3)
        assert memo.cache_size == 2

    def test_all_cached_round_never_touches_rng(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        values = np.arange(8)
        memo.encode_users(values, users(8), np.random.default_rng(1))

        class ExplodingRng:
            def __getattr__(self, name):
                raise AssertionError("rng touched on an all-cached round")

        reports, fresh = memo.encode_users(values, users(8), ExplodingRng())
        assert not any(fresh)
        assert reports.n == 8 and reports.column("array").shape == (8,)

    def test_same_value_different_users_cached_separately(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        _, fresh = memo.encode_users([4, 4], ["a", "b"], np.random.default_rng(1))
        assert fresh == [True, True]
        assert memo.cache_size == 2

    def test_repeat_in_one_batch_is_perturbed_once(self):
        # One report for both entries, the first entry's draw, charged
        # once: the second entry is a replay.
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="olh")
        memo = MemoizedEncoder(proto.client())
        block, fresh = memo.encode_users(
            [3, 3], ["a", "a"], np.random.default_rng(1)
        )
        assert fresh == [True, False]
        assert (memo.misses, memo.hits, memo.cache_size) == (1, 1, 1)
        first = proto.client().encode_batch([3], np.random.default_rng(1))
        for name, column in first.to_block().columns.items():
            assert block.column(name).tolist() == 2 * column.tolist()
        again, fresh = memo.encode_users([3], ["a"], np.random.default_rng(2))
        assert fresh == [False]
        assert again.column("seeds")[0] == block.column("seeds")[0]

    def test_empty_batch_is_noop(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        reports, fresh = memo.encode_users([], [], np.random.default_rng(1))
        assert fresh == []
        assert reports.n == 0 and reports.column("array").shape == (0,)

    def test_mismatched_lengths_rejected(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        with pytest.raises(ValueError):
            memo.encode_users([1, 2], ["only-one"], np.random.default_rng(1))

    def test_refuses_double_wrap(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        with pytest.raises(ValueError):
            MemoizedEncoder(MemoizedEncoder(proto.client()))

    def test_forget_recharges_user(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        memo.encode_users([1, 2], ["a", "b"], np.random.default_rng(1))
        assert memo.forget("a") == 1
        _, fresh = memo.encode_users([1, 2], ["a", "b"], np.random.default_rng(2))
        assert fresh == [True, False]
        assert memo.forget() == 2
        assert memo.cache_size == 0

    def test_plain_encode_batch_delegates(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        direct = proto.client().encode_batch(
            np.arange(8), np.random.default_rng(9)
        )
        wrapped = memo.encode_batch(np.arange(8), np.random.default_rng(9))
        assert np.array_equal(direct, wrapped)
        assert memo.cache_size == 0


class TestMemoizedEncoderContainers:
    """Every supported report container round-trips through the cache."""

    def test_mean_float_reports(self):
        proto = Protocol.numeric_mean(epsilon=1.0, mechanism="pm")
        memo = MemoizedEncoder(proto.client())
        values = np.random.default_rng(0).uniform(-1, 1, 12)
        r1, _ = memo.encode_users(values, users(12), np.random.default_rng(1))
        r2, fresh = memo.encode_users(values, users(12), np.random.default_rng(2))
        assert not any(fresh)
        assert r1.column("array").dtype == float
        assert_same_block(r1, r2)
        acc = proto.server().absorb(r2)
        assert acc.count == 12

    def test_unary_bit_matrix(self):
        proto = Protocol.frequency(epsilon=1.0, domain=6, oracle="oue")
        memo = MemoizedEncoder(proto.client())
        values = np.random.default_rng(0).integers(0, 6, size=10)
        r1, _ = memo.encode_users(values, users(10), np.random.default_rng(1))
        r2, fresh = memo.encode_users(values, users(10), np.random.default_rng(2))
        assert not any(fresh)
        assert r1.column("array").shape == (10, 6)
        assert_same_block(r1, r2)
        proto.server().absorb(r2).estimate()

    def test_olh_reports(self):
        proto = Protocol.frequency(epsilon=1.0, domain=16, oracle="olh")
        memo = MemoizedEncoder(proto.client())
        values = np.random.default_rng(0).integers(0, 16, size=10)
        r1, _ = memo.encode_users(values, users(10), np.random.default_rng(1))
        r2, fresh = memo.encode_users(values, users(10), np.random.default_rng(2))
        assert not any(fresh)
        assert r1.kind == "olh" and r1.column("seeds").dtype == np.uint64
        assert_same_block(r1, r2)
        proto.server().absorb(r2).estimate()

    def test_sampled_numeric_reports(self):
        proto = Protocol.multidim(epsilon=1.0, d=5, k=2)
        memo = MemoizedEncoder(proto.client())
        values = np.random.default_rng(0).uniform(-1, 1, size=(8, 5))
        r1, _ = memo.encode_users(values, users(8), np.random.default_rng(1))
        r2, fresh = memo.encode_users(values, users(8), np.random.default_rng(2))
        assert not any(fresh)
        assert r1.meta == {"d": 5, "k": 2}
        assert_same_block(r1, r2)
        proto.server().absorb(r2).estimate()

    def test_partial_cache_mixes_rows_in_batch_order(self):
        proto = Protocol.multidim(epsilon=1.0, d=4, k=2)
        memo = MemoizedEncoder(proto.client())
        base = np.random.default_rng(0).uniform(-1, 1, size=(4, 4))
        r1, _ = memo.encode_users(base, users(4), np.random.default_rng(1))
        changed = base.copy()
        changed[2] = -changed[2]
        r2, fresh = memo.encode_users(changed, users(4), np.random.default_rng(2))
        assert fresh == [False, False, True, False]
        assert r2.meta == {"d": 4, "k": 2}
        for name in ("cols", "values"):
            for i in (0, 1, 3):
                assert np.array_equal(r1.column(name)[i], r2.column(name)[i])

    def test_mixed_tuples_rejected(self):
        from repro.data.schema import (
            CategoricalAttribute,
            NumericAttribute,
            Schema,
        )

        proto = Protocol.multidim(
            epsilon=1.0,
            schema=Schema([
                NumericAttribute("num", low=-1.0, high=1.0),
                CategoricalAttribute("cat", 4),
            ]),
        )
        with pytest.raises(TypeError):
            MemoizedEncoder(proto.client())
