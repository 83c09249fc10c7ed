"""Optimized Local Hashing (OLH), Wang et al. USENIX'17.

Each user draws a random hash seed, hashes her value into a small domain
of size g = round(e^eps) + 1, and reports the seed together with a
GRR-perturbed hash bucket.  Communication is O(1) instead of OUE's O(k),
with (asymptotically) the same estimator variance.  Included as an
ablation alternative to OUE inside the Section IV-C collector.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from threading import Thread
from typing import Tuple

import numpy as np

from repro.frequency.oracle import FrequencyOracle, register_oracle
from repro.utils.rng import RngLike, ensure_rng

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_ONE = np.uint64(1)

#: Working-set bound for vectorized support counting: domain values are
#: processed in blocks of ~this many (user, value) hash evaluations.
#: Sized so a block's three uint64 buffers (~1.2 MB) stay L2-resident —
#: far larger blocks go DRAM-bound — and so each ufunc call runs long
#: enough that two threads, which overlap only inside the calls that
#: release the GIL, gain from the split (see ``support_counts``).
_SUPPORT_BLOCK_ELEMENTS = 49_152


def _splitmix64_mod(
    x: np.ndarray, out: np.ndarray, tmp: np.ndarray, g: np.uint64
) -> np.ndarray:
    """SplitMix64 finalizer of uint64 ``x`` reduced mod ``g``, into ``out``.

    Every step is an ``out=`` ufunc on the caller's buffers, so a hot
    loop allocates nothing.  ``out`` may be ``x``; ``tmp`` is a third
    buffer of the same shape.  ``x mod g`` is the mask ``x & (g - 1)``
    for a power-of-two g (4 at eps=1, 8 at eps=2), one pass, and
    ``x - (x // g) * g`` otherwise, three passes that numpy runs
    through libdivide, several times faster than its ``remainder``.
    Both equal ``%`` on unsigned integers.
    """
    s30, s27, s31 = _SHIFTS
    np.right_shift(x, s30, out=tmp)
    np.bitwise_xor(x, tmp, out=out)
    np.multiply(out, _MIX1, out=out)
    np.right_shift(out, s27, out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    np.multiply(out, _MIX2, out=out)
    np.right_shift(out, s31, out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    if g & (g - _ONE) == 0:
        np.bitwise_and(out, g - _ONE, out=out)
    else:
        np.floor_divide(out, g, out=tmp)
        np.multiply(tmp, g, out=tmp)
        np.subtract(out, tmp, out=out)
    return out


def _bucket_targets(buckets: np.ndarray, g: int) -> np.ndarray:
    """Buckets as uint64 compare targets; values that are not an
    integer in [0, g) become ``g``, which no hash mod g equals.  The
    targets are never reduced mod g: an integer >= g (or a negative
    one, which wraps) stays as it is and matches nothing."""
    buckets = np.asarray(buckets)
    if buckets.dtype.kind in "biu":
        # Negative signed values wrap to >= 2**63, above any g.
        return buckets.astype(np.uint64)
    valid = (buckets >= 0) & (buckets < g) & (buckets == np.floor(buckets))
    return np.where(valid, buckets, g).astype(np.uint64)


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, which a pinned
    process (``taskset``, a cpuset) narrows, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_range(
    seeds: np.ndarray,
    targets: np.ndarray,
    g: np.uint64,
    rows: int,
    first: int,
    counts: np.ndarray,
) -> None:
    """Support of the domain values ``first, first + 1, ...`` into
    ``counts``, one value per element, ``rows`` values per block.

    A block hashes its values against all n users in three uint64
    buffers of this call's own, so calls over disjoint ranges can run
    at once.  The pre-hash keys ``seed + (v + 1) * golden`` of the next
    block are the current ones plus ``rows * golden``, one scalar add
    where a broadcast add of the per-value keys costs about three times
    as much.  Hits are a uint64 compare against the ``targets`` (see
    :func:`_bucket_targets`), summed per row.
    """
    n, size = seeds.shape[0], counts.shape[0]
    rows = min(rows, size)
    keys = np.empty((rows, n), dtype=np.uint64)
    out = np.empty_like(keys)
    tmp = np.empty_like(keys)
    hits = np.empty((rows, n), dtype=bool)
    ranks = np.arange(first + 1, first + rows + 1, dtype=np.uint64)
    np.add(seeds, (ranks * _GOLDEN)[:, None], out=keys)
    with np.errstate(over="ignore"):
        step = np.uint64(rows) * _GOLDEN
    # Per-row hit counts fit uint16 while n < 2**16, and summing the
    # compare's bytes into uint16 is several times faster than
    # count_nonzero(axis=1).
    count_dtype = np.uint16 if n < 1 << 16 else np.int64
    for start in range(0, size, rows):
        m = min(rows, size - start)
        if start:
            np.add(keys, step, out=keys)
        _splitmix64_mod(keys[:m], out[:m], tmp[:m], g)
        np.equal(out[:m], targets, out=hits[:m])
        counts[start : start + m] = np.add.reduce(
            hits[:m].view(np.uint8), axis=1, dtype=count_dtype
        )


@dataclass
class OLHReports:
    """Per-user OLH reports: a hash seed and a perturbed hash bucket."""

    seeds: np.ndarray
    buckets: np.ndarray

    def __post_init__(self):
        if self.seeds.shape != self.buckets.shape:
            raise ValueError("seeds and buckets must have the same shape")

    def __len__(self) -> int:
        return int(self.seeds.shape[0])

    def to_block(self):
        """Canonical columnar form: the two per-user vectors by name
        (see :func:`repro.protocol.reports.to_block`)."""
        from repro.protocol.reports import ColumnBlock

        return ColumnBlock(
            kind="olh",
            n=len(self),
            columns={"seeds": self.seeds, "buckets": self.buckets},
        )


@register_oracle
class OptimizedLocalHashing(FrequencyOracle):
    """OLH frequency oracle with the variance-optimal g = e^eps + 1."""

    name = "olh"

    def __init__(self, epsilon: float, k: int, g: int = None):
        super().__init__(epsilon, k)
        if g is None:
            g = int(round(math.exp(self.epsilon))) + 1
        if g < 2:
            raise ValueError(f"hash range g must be >= 2, got {g}")
        self.g = g

    @property
    def support_probabilities(self) -> Tuple[float, float]:
        e = math.exp(self.epsilon)
        p = e / (e + self.g - 1.0)
        # For a non-true value, the (random) hash collides with the
        # reported bucket with probability exactly 1/g.
        return p, 1.0 / self.g

    def _hash(self, seeds: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Hash (seed, value) pairs into buckets [0, g)."""
        with np.errstate(over="ignore"):
            x = seeds.astype(np.uint64) + (
                values.astype(np.uint64) + np.uint64(1)
            ) * _GOLDEN
        _splitmix64_mod(x, x, np.empty_like(x), np.uint64(self.g))
        return x.astype(np.int64)

    def privatize(self, values, rng: RngLike = None) -> OLHReports:
        gen = ensure_rng(rng)
        truth = self._check_values(values)
        n = truth.shape[0]
        seeds = gen.integers(0, 2**63 - 1, size=n, dtype=np.int64).astype(
            np.uint64
        )
        hashed = self._hash(seeds, truth)
        # GRR over the hash domain [0, g).
        e = math.exp(self.epsilon)
        keep = gen.random(n) < e / (e + self.g - 1.0)
        others = gen.integers(0, self.g - 1, size=n)
        others = np.where(others >= hashed, others + 1, others)
        buckets = np.where(keep, hashed, others)
        return OLHReports(seeds=seeds, buckets=buckets)

    def support_counts(self, reports: OLHReports) -> np.ndarray:
        """Support counting over cache-sized blocks of domain values.

        Each block hashes ``rows`` domain values against all n users
        (~``_SUPPORT_BLOCK_ELEMENTS`` pairs; see :func:`_count_range`).
        When the process may run on two CPUs or more and the domain
        spans two blocks or more, one helper thread started for the
        call counts the upper half of the blocks while this thread
        counts the lower half.  Each value's count is written by one
        range only, so the counts are bitwise those of hashing one
        domain value at a time, however the blocks are split.
        """
        if not isinstance(reports, OLHReports):
            raise TypeError("OLH expects OLHReports from privatize()")
        n = len(reports)
        counts = np.zeros(self.k)
        if n == 0:
            return counts
        rows = max(1, _SUPPORT_BLOCK_ELEMENTS // n)
        blocks = -(-self.k // rows)
        args = (
            reports.seeds.astype(np.uint64),
            _bucket_targets(reports.buckets, self.g),
            np.uint64(self.g),
            rows,
        )
        if blocks < 2 or _cpus() < 2:
            _count_range(*args, 0, counts)
            return counts
        split = blocks // 2 * rows
        failed = []

        def count_upper() -> None:
            try:
                _count_range(*args, split, counts[split:])
            except BaseException as exc:  # raised again by the caller
                failed.append(exc)

        # A plain thread, not a concurrent.futures pool: pools refuse
        # work once the interpreter starts to shut down, while a
        # non-daemon thread may still be counting.
        helper = Thread(target=count_upper, name="olh-support-upper")
        helper.start()
        try:
            _count_range(*args, 0, counts[:split])
        finally:
            helper.join()
        if failed:
            raise failed[0]
        return counts
