"""Optimized Local Hashing (OLH), Wang et al. USENIX'17.

Each user draws a random hash seed, hashes her value into a small domain
of size g = round(e^eps) + 1, and reports the seed together with a
GRR-perturbed hash bucket.  Communication is O(1) instead of OUE's O(k),
with (asymptotically) the same estimator variance.  Included as an
ablation alternative to OUE inside the Section IV-C collector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
#: Sized so a block's three uint64 buffers (~800 KB) stay L2-resident —
#: larger blocks go DRAM-bound and run slower than the per-value loop
#: they replace.
_SUPPORT_BLOCK_ELEMENTS = 32_768


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
        (~``_SUPPORT_BLOCK_ELEMENTS`` pairs) in three preallocated
        uint64 buffers.  The pre-hash keys ``seed + (v + 1) * golden``
        of the next block are the current ones plus ``rows * golden``,
        one scalar add where a broadcast add of the per-value keys
        costs about three times as much.  Hits are a uint64 compare
        against the buckets, summed per row.  Bitwise-identical to
        hashing one domain value at a time.
        """
        if not isinstance(reports, OLHReports):
            raise TypeError("OLH expects OLHReports from privatize()")
        n = len(reports)
        counts = np.zeros(self.k)
        if n == 0:
            return counts
        g = np.uint64(self.g)
        rows = min(max(1, _SUPPORT_BLOCK_ELEMENTS // n), self.k)
        targets = _bucket_targets(reports.buckets, self.g)
        keys = np.empty((rows, n), dtype=np.uint64)
        out = np.empty_like(keys)
        tmp = np.empty_like(keys)
        hits = np.empty((rows, n), dtype=bool)
        np.add(
            reports.seeds.astype(np.uint64),
            (np.arange(1, rows + 1, dtype=np.uint64) * _GOLDEN)[:, None],
            out=keys,
        )
        with np.errstate(over="ignore"):
            step = np.uint64(rows) * _GOLDEN
        # Per-row hit counts fit uint16 while n < 2**16, and summing the
        # compare's bytes into uint16 is several times faster than
        # count_nonzero(axis=1).
        count_dtype = np.uint16 if n < 1 << 16 else np.int64
        for start in range(0, self.k, rows):
            m = min(rows, self.k - start)
            if start:
                np.add(keys, step, out=keys)
            _splitmix64_mod(keys[:m], out[:m], tmp[:m], g)
            np.equal(out[:m], targets, out=hits[:m])
            counts[start : start + m] = np.add.reduce(
                hits[:m].view(np.uint8), axis=1, dtype=count_dtype
            )
        return counts
