"""Tests for ShardPlan: determinism, partitioning, spec round-trip."""

import numpy as np
import pytest

from repro.runtime import ShardPlan


class TestShardPartitioning:
    def test_shards_partition_the_user_range(self):
        plan = ShardPlan(n=103, num_shards=8, seed=7)
        shards = plan.shards()
        assert len(shards) == 8
        assert shards[0].start == 0
        assert shards[-1].stop == 103
        for prev, cur in zip(shards, shards[1:]):
            assert prev.stop == cur.start
        # Sizes differ by at most one, larger shards first.
        sizes = [s.size for s in shards]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_indices_are_merge_order(self):
        shards = ShardPlan(n=10, num_shards=3, seed=0).shards()
        assert [s.index for s in shards] == [0, 1, 2]

    def test_more_shards_than_users_gives_empty_shards(self):
        shards = ShardPlan(n=2, num_shards=5, seed=1).shards()
        assert [s.size for s in shards] == [1, 1, 0, 0, 0]

    def test_zero_users_allowed(self):
        shards = ShardPlan(n=0, num_shards=3, seed=1).shards()
        assert all(s.size == 0 for s in shards)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlan(n=-1, num_shards=1, seed=0)
        with pytest.raises(ValueError):
            ShardPlan(n=10, num_shards=0, seed=0)
        with pytest.raises(ValueError):
            ShardPlan(n=10, num_shards=2, seed=0, batch_size=0)


class TestShardStreams:
    def test_streams_are_deterministic(self):
        a = ShardPlan(n=100, num_shards=4, seed=42).shards()
        b = ShardPlan(n=100, num_shards=4, seed=42).shards()
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.rng().random(5), sb.rng().random(5))

    def test_streams_are_independent_across_shards(self):
        shards = ShardPlan(n=100, num_shards=4, seed=42).shards()
        draws = [s.rng().random(5) for s in shards]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_different_seed_different_streams(self):
        a = ShardPlan(n=10, num_shards=2, seed=1).shards()[0]
        b = ShardPlan(n=10, num_shards=2, seed=2).shards()[0]
        assert not np.array_equal(a.rng().random(5), b.rng().random(5))

    def test_shard_stream_does_not_depend_on_worker_count(self):
        """The plan owns the randomness; executing with any number of
        workers replays the same per-shard streams (asserted end-to-end
        in test_runtime_runner.py)."""
        plan = ShardPlan(n=100, num_shards=4, seed=9)
        first = plan.shards()[2]
        again = plan.shards()[2]
        assert np.array_equal(first.rng().random(3), again.rng().random(3))


class TestSpecRoundTrip:
    @pytest.mark.parametrize("batch_size", [None, 1000])
    def test_round_trip(self, batch_size):
        plan = ShardPlan(n=1_000_000, num_shards=16, seed=2019,
                         batch_size=batch_size)
        assert ShardPlan(**plan.to_dict()) == plan

    def test_round_trip_through_json(self):
        import json

        plan = ShardPlan(n=50, num_shards=3, seed=11, batch_size=7)
        payload = json.loads(json.dumps(plan.to_dict()))
        restored = ShardPlan(**payload)
        assert restored == plan
        # The restored plan replays identical shard streams.
        for a, b in zip(plan.shards(), restored.shards()):
            assert (a.start, a.stop) == (b.start, b.stop)
            assert np.array_equal(a.rng().random(4), b.rng().random(4))

    def test_from_rng_is_reproducible(self):
        a = ShardPlan.from_rng(100, 4, rng=5)
        b = ShardPlan.from_rng(100, 4, rng=5)
        assert a == b
        assert a.n == 100 and a.num_shards == 4
