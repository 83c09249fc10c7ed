"""Equivalence tests for the vectorized hot paths.

Two per-value Python loops were vectorized in this change set; each is
pinned against a reference re-implementation of the loop it replaced:

* OLH support counting (repro/frequency/olh.py) — deterministic given
  the reports, so the vectorized blocks must agree *bitwise* with the
  per-value loop, including across internal block boundaries and
  whether one thread counts all blocks or a helper counts half.
* The per-column composition baseline in experiments/runner.py —
  Laplace draws one variate per value, so the single transposed
  privatize call consumes the rng stream exactly as the per-column
  loop did (bitwise agreement); the piecewise-constant mechanisms
  regroup their data-dependent draws, so they are checked
  statistically (both paths estimate the same truth to the same
  accuracy).
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.frequency.olh as olh_module
from repro.core.mechanism import get_mechanism
from repro.experiments.runner import numeric_matrix_mse
from repro.frequency.olh import OptimizedLocalHashing
from repro.utils.stats import empirical_mse


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x):
    """SplitMix64 finalizer, verbatim from the per-value implementation."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _loop_hash(g, seeds, values):
    """The ``%``-based (seed, value) -> bucket hash, verbatim."""
    with np.errstate(over="ignore"):
        mixed = _splitmix64(
            seeds.astype(np.uint64)
            + (values.astype(np.uint64) + np.uint64(1)) * _GOLDEN
        )
    return (mixed % np.uint64(g)).astype(np.int64)


def _loop_support_counts(oracle, reports):
    """The pre-vectorization per-value loop, verbatim."""
    counts = np.empty(oracle.k)
    for v in range(oracle.k):
        hashed_v = _loop_hash(
            oracle.g, reports.seeds, np.full(len(reports), v, dtype=np.int64)
        )
        counts[v] = float(np.count_nonzero(hashed_v == reports.buckets))
    return counts


#: (n, k, g) shapes across the kernel's block edges.
_BLOCK_SHAPES = [
    # Explicit g that is not a power of two (the default g is 4 at
    # eps=1 and 8 at eps=2).
    (400, 23, 5),
    (2_000, 96, 7),
    # k not a multiple of the block's rows (49 rows at n=1000).
    (1_000, 100, None),
    # n above the block budget: one domain value per block.
    (olh_module._SUPPORT_BLOCK_ELEMENTS + 5, 3, 3),
    (olh_module._SUPPORT_BLOCK_ELEMENTS + 5, 3, 8),
    # A power-of-two g reduces by a mask, its odd neighbour by division;
    # each over several blocks and a partial last one (49 rows at
    # n=1000, 24 at n=2000, 70 at n=700, 16 at n=3000).
    (1_000, 100, 2),
    (1_000, 100, 3),
    (2_000, 40, 8),
    (2_000, 40, 9),
    (700, 75, 16),
    (700, 75, 17),
    (3_000, 31, 1024),
]

#: Shapes of the two-CPU split: an odd block count whose last block is
#: partial (43 blocks of 24 rows, the last of 16, at the served 2,000 x
#: 1,024), an even one (42 blocks, the last of 16), exactly two blocks,
#: and one block, which starts no helper.
_SPLIT_SHAPES = [
    (2_000, 1_024, None),
    (2_000, 1_000, None),
    (olh_module._SUPPORT_BLOCK_ELEMENTS + 5, 2, None),
    (2_000, 24, None),
]


@pytest.fixture
def helpers(monkeypatch):
    """Every helper thread ``support_counts`` starts, in start order."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(olh_module, "Thread", Recording)
    return started


def _patch_cpus(monkeypatch, cpus):
    """The CPUs ``support_counts`` sees, whatever the host has."""
    monkeypatch.setattr(
        olh_module.os, "sched_getaffinity", lambda pid: set(range(cpus))
    )


class TestOLHSupportCounts:
    @pytest.mark.parametrize("n,k", [(1, 2), (500, 64), (3_000, 17)])
    def test_bitwise_equal_to_loop(self, n, k):
        oracle = OptimizedLocalHashing(1.0, k=k)
        rng = np.random.default_rng(k)
        reports = oracle.privatize(rng.integers(0, k, n), rng)
        assert np.array_equal(
            oracle.support_counts(reports),
            _loop_support_counts(oracle, reports),
        )

    @pytest.mark.parametrize("n,k,g", _BLOCK_SHAPES)
    def test_bitwise_equal_to_loop_for_g_and_block_shapes(self, n, k, g):
        oracle = OptimizedLocalHashing(1.0, k=k, g=g)
        rng = np.random.default_rng(k)
        reports = oracle.privatize(rng.integers(0, k, n), rng)
        assert np.array_equal(
            oracle.support_counts(reports),
            _loop_support_counts(oracle, reports),
        )

    @pytest.mark.parametrize("n,k,g", _BLOCK_SHAPES + _SPLIT_SHAPES)
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_split_and_inline_bitwise_equal_to_loop(
        self, n, k, g, cpus, monkeypatch, helpers
    ):
        """One helper counts the upper half of the blocks when two CPUs
        are usable and the domain spans two blocks; the caller counts
        all of them otherwise.  Either way the counts are the loop's."""
        _patch_cpus(monkeypatch, cpus)
        oracle = OptimizedLocalHashing(1.0, k=k, g=g)
        rng = np.random.default_rng(k)
        reports = oracle.privatize(rng.integers(0, k, n), rng)
        assert np.array_equal(
            oracle.support_counts(reports),
            _loop_support_counts(oracle, reports),
        )
        rows = max(1, olh_module._SUPPORT_BLOCK_ELEMENTS // n)
        blocks = -(-k // rows)
        assert len(helpers) == (cpus >= 2 and blocks >= 2)

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        """An exception on the helper's (upper) range is raised by
        ``support_counts`` once the caller's range is counted."""
        _patch_cpus(monkeypatch, 2)
        count_range = olh_module._count_range
        ranges = []

        def failing_upper(seeds, targets, g, rows, first, counts):
            ranges.append((first, threading.current_thread()))
            if first:
                raise RuntimeError("upper range failed")
            count_range(seeds, targets, g, rows, first, counts)

        monkeypatch.setattr(olh_module, "_count_range", failing_upper)
        oracle = OptimizedLocalHashing(1.0, k=100)
        rng = np.random.default_rng(4)
        reports = oracle.privatize(rng.integers(0, 100, 2_000), rng)
        with pytest.raises(RuntimeError, match="upper range failed"):
            oracle.support_counts(reports)
        # 5 blocks of 24 rows: the caller counts 2, the helper 3.
        caller = threading.current_thread()
        assert sorted(
            (first, thread is caller) for first, thread in ranges
        ) == [(0, True), (48, False)]

    def test_counts_on_a_thread_that_outlives_the_main_thread(self):
        """A non-daemon thread may count after the main thread returns,
        while the interpreter shuts down; its helper must start then
        too (a concurrent.futures pool refuses new work by then)."""
        script = textwrap.dedent(
            """
            import json, os, threading
            import numpy as np
            from repro.frequency.olh import OptimizedLocalHashing

            os.sched_getaffinity = lambda pid: {0, 1}
            oracle = OptimizedLocalHashing(1.0, k=100)
            rng = np.random.default_rng(4)
            reports = oracle.privatize(rng.integers(0, 100, 2_000), rng)

            def count():
                threading.main_thread().join()
                print(json.dumps(oracle.support_counts(reports).tolist()))

            threading.Thread(target=count).start()
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert not done.stderr
        oracle = OptimizedLocalHashing(1.0, k=100)
        rng = np.random.default_rng(4)
        reports = oracle.privatize(rng.integers(0, 100, 2_000), rng)
        assert json.loads(done.stdout) == (
            _loop_support_counts(oracle, reports).tolist()
        )

    def test_concurrent_callers_each_get_their_loop_counts(self, monkeypatch):
        """Eight threads, more than the cores, count at once (as the
        sharded runtime's thread workers do), each starting its own
        helper; no count leaks between calls."""
        _patch_cpus(monkeypatch, 2)
        cases = []
        for i in range(8):
            oracle = OptimizedLocalHashing(1.0, k=150 + i, g=4 + i)
            rng = np.random.default_rng(100 + i)
            reports = oracle.privatize(rng.integers(0, 150 + i, 1_500), rng)
            cases.append(
                (oracle, reports, _loop_support_counts(oracle, reports))
            )
        results = [None] * len(cases)

        def count(i):
            oracle, reports, _ = cases[i]
            for _ in range(5):
                results[i] = oracle.support_counts(reports)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=count, args=(i,))
                for i in range(len(cases))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (_, _, expected), got in zip(cases, results):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "convert",
        [
            lambda b, g: b.astype(np.int32),
            lambda b, g: b.astype(np.uint64),
            lambda b, g: b.astype(float),
            lambda b, g: b + 0.5,
            lambda b, g: b - g,
            lambda b, g: b + g,
            lambda b, g: np.where(b % 2 == 0, b, -b - 1),
        ],
        ids=["int32", "uint64", "float", "half", "negative", "ge-g", "mixed"],
    )
    # g = 8 reduces hashes by a mask, g = 6 by division; neither may
    # reduce the targets (bucket 9 would then match hash 1 at g = 8).
    @pytest.mark.parametrize("g", [6, 8])
    def test_bucket_dtypes_and_out_of_range_match_loop(self, convert, g):
        """Library callers may pass any bucket array: values that are
        not an integer in [0, g) support nothing, as in the loop."""
        from repro.frequency.olh import OLHReports

        oracle = OptimizedLocalHashing(1.0, k=40, g=g)
        rng = np.random.default_rng(8)
        honest = oracle.privatize(rng.integers(0, 40, 700), rng)
        reports = OLHReports(
            seeds=honest.seeds, buckets=convert(honest.buckets, oracle.g)
        )
        assert np.array_equal(
            oracle.support_counts(reports),
            _loop_support_counts(oracle, reports),
        )

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16 + 1])
    def test_counts_exact_when_every_user_supports_one_value(self, n):
        """A row's hit count can reach n; it must not wrap at 2**16."""
        from repro.frequency.olh import OLHReports

        oracle = OptimizedLocalHashing(1.0, k=2)
        seeds = np.random.default_rng(2).integers(
            0, 2**63 - 1, n, dtype=np.int64
        ).astype(np.uint64)
        buckets = _loop_hash(oracle.g, seeds, np.zeros(n, dtype=np.int64))
        counts = oracle.support_counts(OLHReports(seeds, buckets))
        assert counts[0] == n
        assert np.array_equal(
            counts, _loop_support_counts(oracle, OLHReports(seeds, buckets))
        )

    @pytest.mark.parametrize("g", [2, 4, 5, 8, 16, 56, 2**20])
    def test_client_hash_equal_to_modulo_hash(self, g):
        oracle = OptimizedLocalHashing(1.0, k=1000, g=g)
        rng = np.random.default_rng(g)
        seeds = rng.integers(0, 2**63 - 1, 5_000).astype(np.uint64)
        values = rng.integers(0, 1000, 5_000)
        assert np.array_equal(
            oracle._hash(seeds, values), _loop_hash(g, seeds, values)
        )

    def test_bitwise_equal_across_block_boundaries(self, monkeypatch):
        """Force tiny blocks so several block edges are exercised."""
        monkeypatch.setattr(olh_module, "_SUPPORT_BLOCK_ELEMENTS", 130)
        oracle = OptimizedLocalHashing(2.0, k=23)
        rng = np.random.default_rng(3)
        reports = oracle.privatize(rng.integers(0, 23, 400), rng)
        assert np.array_equal(
            oracle.support_counts(reports),
            _loop_support_counts(oracle, reports),
        )

    def test_empty_reports_give_zero_counts(self):
        oracle = OptimizedLocalHashing(1.0, k=9)
        reports = oracle.privatize(
            np.zeros(0, dtype=np.int64), np.random.default_rng(0)
        )
        assert np.array_equal(oracle.support_counts(reports), np.zeros(9))

    def test_frequencies_still_debias(self):
        oracle = OptimizedLocalHashing(4.0, k=4)
        rng = np.random.default_rng(7)
        truth = rng.choice(4, size=60_000, p=[0.5, 0.3, 0.15, 0.05])
        reports = oracle.privatize(truth, rng)
        estimates = oracle.estimate_frequencies(reports)
        assert np.allclose(estimates, [0.5, 0.3, 0.15, 0.05], atol=0.03)


def _loop_column_estimates(matrix, epsilon, method, gen):
    """The pre-vectorization per-column baseline, verbatim."""
    d = matrix.shape[1]
    one_d = get_mechanism(method, epsilon / d)
    return np.array(
        [one_d.privatize(matrix[:, j], gen).mean() for j in range(d)]
    )


class TestVectorizedColumnBaseline:
    def test_laplace_bitwise_equal_to_loop(self):
        """Laplace consumes one variate per value in order, so the
        transposed one-call path replays the loop's stream exactly."""
        rng = np.random.default_rng(11)
        matrix = rng.uniform(-1, 1, (2_000, 6))
        epsilon, d = 2.0, matrix.shape[1]

        loop = _loop_column_estimates(
            matrix, epsilon, "laplace", np.random.default_rng(42)
        )
        one_d = get_mechanism("laplace", epsilon / d)
        vectorized = one_d.privatize(
            matrix.T, np.random.default_rng(42)
        ).mean(axis=1)
        assert np.array_equal(loop, vectorized)

    @pytest.mark.parametrize("method", ["laplace", "scdf", "staircase"])
    def test_estimates_match_truth_like_the_loop(self, method):
        """Both paths are unbiased estimators of the column means with
        the same per-estimate variance; at large n and generous epsilon
        both land within the same tight band around the truth."""
        rng = np.random.default_rng(5)
        matrix = rng.uniform(-1, 1, (40_000, 4))
        truth = matrix.mean(axis=0)
        epsilon, d = 8.0, matrix.shape[1]

        loop = _loop_column_estimates(
            matrix, epsilon, method, np.random.default_rng(9)
        )
        one_d = get_mechanism(method, epsilon / d)
        vectorized = one_d.privatize(
            matrix.T, np.random.default_rng(9)
        ).mean(axis=1)

        assert empirical_mse(loop, truth) < 1e-3
        assert empirical_mse(vectorized, truth) < 1e-3

    @pytest.mark.parametrize("method", ["laplace", "scdf", "staircase"])
    def test_numeric_matrix_mse_end_to_end(self, method):
        """The harness entry point stays a small-MSE unbiased sweep."""
        rng = np.random.default_rng(1)
        matrix = rng.uniform(-1, 1, (20_000, 3))
        mse = numeric_matrix_mse(matrix, 8.0, method, rng=3)
        assert np.isfinite(mse)
        assert mse < 1e-2
