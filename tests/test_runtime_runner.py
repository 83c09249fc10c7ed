"""Shard-equivalence suite for the parallel runtime.

The runtime's contract: the result of a planned run depends only on the
plan — executor choice and worker count never change a single bit.
Count-based accumulators (frequency, histogram) must agree *bitwise*;
float-sum accumulators are also bitwise here because merge order is
fixed by shard index, with <= 1e-12 as the documented fallback bound.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data.schema import (
    CategoricalAttribute,
    Dataset,
    NumericAttribute,
    Schema,
)
from repro.experiments.runner import mixed_dataset_mse, numeric_matrix_mse
from repro.protocol import Protocol
from repro.runtime import (
    EXECUTORS,
    ParallelRunner,
    ShardPlan,
    run_auto,
    run_inline,
    run_sharded,
)
from repro.sgd.trainer import LDPSGDTrainer

N = 3_000
SEED = 2019


def _schema():
    return Schema(
        [
            NumericAttribute("age"),
            CategoricalAttribute("region", 6),
            NumericAttribute("income"),
        ]
    )


def _dataset(n=N):
    rng = np.random.default_rng(1)
    return Dataset(
        _schema(),
        {
            "age": rng.uniform(-1, 1, n),
            "region": rng.integers(0, 6, n),
            "income": rng.uniform(-1, 1, n),
        },
    )


def _workloads():
    rng = np.random.default_rng(0)
    return {
        "mean": (
            Protocol.numeric_mean(1.0, "hm"),
            rng.uniform(-1, 1, N),
        ),
        "frequency": (
            Protocol.frequency(1.0, domain=12, oracle="oue"),
            rng.integers(0, 12, N),
        ),
        "frequency-olh": (
            Protocol.frequency(1.0, domain=12, oracle="olh"),
            rng.integers(0, 12, N),
        ),
        "histogram": (
            Protocol.histogram(1.0, bins=8),
            rng.uniform(-1, 1, N),
        ),
        "multidim": (
            Protocol.multidim(4.0, d=5, mechanism="hm"),
            rng.uniform(-1, 1, (N, 5)),
        ),
        "mixed": (Protocol.multidim(4.0, schema=_schema()), _dataset()),
    }


def _estimate_arrays(estimate):
    """Flatten any protocol kind's estimate into comparable arrays."""
    if hasattr(estimate, "histogram"):
        return [estimate.histogram, estimate.raw]
    if hasattr(estimate, "means"):
        return [
            np.array([estimate.means[k] for k in sorted(estimate.means)]),
            *[estimate.frequencies[k] for k in sorted(estimate.frequencies)],
        ]
    return [np.atleast_1d(np.asarray(estimate, dtype=float))]


def _assert_same_estimates(a, b, bitwise=True):
    arrays_a, arrays_b = _estimate_arrays(a), _estimate_arrays(b)
    assert len(arrays_a) == len(arrays_b)
    for x, y in zip(arrays_a, arrays_b):
        if bitwise:
            assert np.array_equal(x, y)
        else:
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)


@pytest.fixture(params=list(_workloads()))
def kind(request):
    return request.param


class TestExecutorEquivalence:
    """Same plan => same bits, whatever executes it."""

    def test_thread_workers_1_2_4_8_match_serial(self, kind):
        protocol, values = _workloads()[kind]
        plan = ShardPlan(n=N, num_shards=8, seed=SEED)
        reference = ParallelRunner("serial").run(protocol, values, plan)
        for workers in (1, 2, 4, 8):
            acc = ParallelRunner("thread", max_workers=workers).run(
                protocol, values, plan
            )
            assert acc.count == reference.count == N
            _assert_same_estimates(acc.estimate(), reference.estimate())

    def test_sharded_matches_manual_shard_loop(self, kind):
        """The runner is exactly: encode each shard with its spawned
        stream, merge in shard order."""
        protocol, values = _workloads()[kind]
        plan = ShardPlan(n=N, num_shards=5, seed=SEED)
        encoder = protocol.client()
        manual = protocol.server()
        for shard in plan.shards():
            chunk = (
                values.subset(np.arange(shard.start, shard.stop))
                if hasattr(values, "subset")
                else values[shard.start : shard.stop]
            )
            manual.absorb(encoder.encode_batch(chunk, shard.rng()))
        runner_acc = ParallelRunner("serial").run(protocol, values, plan)
        _assert_same_estimates(runner_acc.estimate(), manual.estimate())

    def test_batch_size_bounds_memory_not_results_for_counts(self):
        """For OUE (one random matrix per batch, filled row-major) the
        encode stream is batching-invariant, so even different
        batch_size values agree bitwise."""
        protocol, values = _workloads()["frequency"]
        a = ShardPlan(n=N, num_shards=4, seed=SEED, batch_size=None)
        b = ShardPlan(n=N, num_shards=4, seed=SEED, batch_size=97)
        acc_a = ParallelRunner("serial").run(protocol, values, a)
        acc_b = ParallelRunner("thread", max_workers=4).run(
            protocol, values, b
        )
        _assert_same_estimates(acc_a.estimate(), acc_b.estimate())


class TestRunnerSurface:
    def test_bad_executor_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner("mpi")
        with pytest.raises(ValueError):
            ParallelRunner("thread", max_workers=0)

    def test_process_executor_is_gone(self):
        assert EXECUTORS == ("serial", "thread")
        protocol, values = _workloads()["mean"]
        calls = [
            lambda: ParallelRunner("process"),
            lambda: run_sharded(
                protocol, values, num_shards=4, seed=1, executor="process"
            ),
            lambda: run_auto(protocol, values, 1, executor="process"),
            lambda: LDPSGDTrainer("linear", epsilon=1.0, executor="process"),
        ]
        for call in calls:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert "('serial', 'thread')" in str(excinfo.value)

    def test_run_sharded_requires_plan_or_num_shards(self):
        protocol, values = _workloads()["mean"]
        with pytest.raises(ValueError):
            run_sharded(protocol, values)

    def test_run_sharded_rejects_conflicting_shards(self):
        protocol, values = _workloads()["mean"]
        plan = ShardPlan(n=N, num_shards=4, seed=1)
        with pytest.raises(ValueError):
            run_sharded(protocol, values, plan=plan, num_shards=8)

    def test_run_sharded_rejects_conflicting_batch_size(self):
        protocol, values = _workloads()["mean"]
        plan = ShardPlan(n=N, num_shards=4, seed=1, batch_size=None)
        with pytest.raises(ValueError):
            run_sharded(protocol, values, plan=plan, batch_size=500)

    def test_run_sharded_rejects_seed_or_rng_with_plan(self):
        """An explicit plan owns all randomness — a seed/rng passed
        alongside it would be silently ignored, so it is an error."""
        protocol, values = _workloads()["mean"]
        plan = ShardPlan(n=N, num_shards=4, seed=1)
        with pytest.raises(ValueError, match="fixes all randomness"):
            run_sharded(protocol, values, plan=plan, seed=2)
        with pytest.raises(ValueError, match="fixes all randomness"):
            run_sharded(protocol, values, plan=plan, rng=2)

    def test_run_rejects_workload_plan_size_mismatch(self):
        protocol, values = _workloads()["mean"]
        plan = ShardPlan(n=N + 1, num_shards=4, seed=1)
        with pytest.raises(ValueError, match="plan covers"):
            ParallelRunner("serial").run(protocol, values, plan)

    def test_loader_callable_workload(self):
        """A loader callable (no __len__) serves chunks on demand."""
        protocol, values = _workloads()["mean"]

        def loader(start, stop):
            return values[start:stop]

        plan = ShardPlan(n=N, num_shards=4, seed=SEED)
        from_loader = ParallelRunner("thread", max_workers=2).run(
            protocol, loader, plan
        )
        from_array = ParallelRunner("serial").run(protocol, values, plan)
        _assert_same_estimates(
            from_loader.estimate(), from_array.estimate()
        )

    def test_run_sharded_with_seed_is_reproducible(self):
        protocol, values = _workloads()["frequency"]
        a = run_sharded(protocol, values, num_shards=4, seed=3)
        b = run_sharded(
            protocol, values, num_shards=4, seed=3, executor="thread",
            max_workers=4,
        )
        _assert_same_estimates(a.estimate(), b.estimate())

    def test_run_inline_matches_protocol_run(self, kind):
        """The inline path is bitwise-compatible with Protocol.run."""
        protocol, values = _workloads()[kind]
        inline = run_inline(protocol, values, rng=123).estimate()
        direct = protocol.run(values, rng=123)
        _assert_same_estimates(inline, direct)

    def test_run_auto_default_is_inline(self):
        """One serial shard consumes the rng exactly like run_inline."""
        protocol, values = _workloads()["multidim"]
        auto = run_auto(protocol, values, 123).estimate()
        inline = run_inline(protocol, values, rng=123).estimate()
        _assert_same_estimates(auto, inline)

    def test_run_auto_sharded_path_is_reproducible(self):
        protocol, values = _workloads()["frequency"]
        a = run_auto(protocol, values, 9, num_shards=4).estimate()
        b = run_auto(protocol, values, 9, num_shards=4,
                     executor="thread", max_workers=2).estimate()
        _assert_same_estimates(a, b)

    def test_empty_shards_are_noops(self):
        protocol, values = _workloads()["mean"]
        plan = ShardPlan(n=N, num_shards=N + 50, seed=SEED)
        acc = ParallelRunner("thread", max_workers=4).run(
            protocol, values, plan
        )
        assert acc.count == N

    def test_accumulator_count_is_total_users(self, kind):
        protocol, values = _workloads()[kind]
        acc = run_sharded(protocol, values, num_shards=3, seed=SEED)
        assert acc.count == N


class TestExecutorNeverChangesResults:
    """One shard runs inline on either executor, and more shards run
    one plan to the same bits on both: the executor is never part of
    a result, at any shard count."""

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_run_auto(self, kind, num_shards):
        protocol, values = _workloads()[kind]
        serial, thread = (
            run_auto(
                protocol, values, 9, num_shards=num_shards,
                executor=executor, max_workers=2,
            ).estimate()
            for executor in ("serial", "thread")
        )
        _assert_same_estimates(serial, thread)
        if num_shards == 1:
            _assert_same_estimates(
                serial, run_inline(protocol, values, rng=9).estimate()
            )

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_ldp_sgd_fit(self, num_shards):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (1_200, 4))
        y = np.clip(x @ np.array([0.5, -0.3, 0.2, 0.0]), -1, 1)
        serial, thread = (
            LDPSGDTrainer(
                "linear", epsilon=4.0, method="hm", group_size=300,
                num_shards=num_shards, executor=executor, max_workers=2,
            ).fit(x, y, rng=11)
            for executor in ("serial", "thread")
        )
        assert np.array_equal(serial, thread)

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_numeric_matrix_mse(self, num_shards):
        matrix = np.random.default_rng(5).uniform(-1, 1, (N, 5))
        serial, thread = (
            numeric_matrix_mse(
                matrix, 4.0, "hm", rng=12, num_shards=num_shards,
                executor=executor, max_workers=2,
            )
            for executor in ("serial", "thread")
        )
        assert np.array_equal(serial, thread)

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_mixed_dataset_mse(self, num_shards):
        serial, thread = (
            mixed_dataset_mse(
                _dataset(), 4.0, "pm", rng=13, num_shards=num_shards,
                executor=executor, max_workers=2,
            )
            for executor in ("serial", "thread")
        )
        assert np.array_equal(serial, thread)


def test_batched_inline_run_never_holds_the_dense_matrix():
    """Batched encode/absorb holds one batch of compact reports at a
    time, never the dense (n, d) matrix of privatized tuples."""
    n, d = 20_000, 16
    tuples = np.random.default_rng(0).uniform(-1, 1, (n, d))
    protocol = Protocol.multidim(4.0, d=d, mechanism="hm")
    tracemalloc.start()
    try:
        run_inline(protocol, tuples, np.random.default_rng(1),
                   batch_size=2_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = n * d * np.dtype(np.float64).itemsize  # 2.56 MB
    assert peak < dense_bytes, f"peak {peak} B >= dense {dense_bytes} B"
