"""Distribution (histogram) estimation for numeric attributes under LDP.

The paper estimates a numeric attribute's *mean*; a natural companion
task (and the backbone of the related work it cites, e.g. RAPPOR and
Duchi et al.'s probability estimation) is the attribute's *distribution*.
This module bucketizes [-1, 1] into B equal-width bins, treats the bin
index as a categorical value, runs any registered frequency oracle, and
post-processes the estimate into a valid histogram:

* clip negatives and renormalize to a probability vector,
* expose CDF and quantile queries, and
* a mean-from-histogram estimate (a sanity cross-check against PM/HM).
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import check_epsilon, check_unit_interval
from repro.frequency.oracle import get_oracle
from repro.utils.rng import RngLike, ensure_rng


class LDPHistogram:
    """Equal-width histogram over [-1, 1] estimated under eps-LDP.

    Parameters
    ----------
    epsilon:
        Privacy budget per user.
    bins:
        Number of equal-width buckets over [-1, 1].
    oracle:
        Registered frequency oracle name ("oue" by default).
    """

    def __init__(
        self,
        epsilon: float,
        bins: int = 16,
        oracle: str = "oue",
        postprocess: str = "norm-sub",
    ):
        self.epsilon = check_epsilon(epsilon)
        bins = int(bins)
        if bins < 2:
            raise ValueError(f"bins must be >= 2, got {bins}")
        self.bins = bins
        self.oracle_name = oracle
        self.oracle = get_oracle(oracle, self.epsilon, bins)
        from repro.frequency.postprocess import METHODS

        if postprocess not in METHODS:
            raise ValueError(
                f"unknown postprocess {postprocess!r}; "
                f"choose from {tuple(METHODS)}"
            )
        self.postprocess = postprocess
        self.edges = np.linspace(-1.0, 1.0, bins + 1)
        self.centers = (self.edges[:-1] + self.edges[1:]) / 2.0

    # ------------------------------------------------------------------
    def bucketize(self, values) -> np.ndarray:
        """Map values in [-1, 1] to bin indices in {0, ..., bins-1}."""
        arr = np.atleast_1d(check_unit_interval(values))
        idx = np.floor((arr + 1.0) / 2.0 * self.bins).astype(np.int64)
        return np.clip(idx, 0, self.bins - 1)

    def privatize(self, values, rng: RngLike = None):
        """User side: bucketize then perturb the bucket index."""
        return self.oracle.privatize(self.bucketize(values), ensure_rng(rng))

    # ------------------------------------------------------------------
    def estimate(self, reports) -> "HistogramEstimate":
        """Aggregator side: debiased, projected histogram estimate.

        Thin wrapper over the mergeable protocol-layer state; see
        :class:`repro.protocol.accumulators.HistogramAccumulator` for
        the sharded / streaming version.
        """
        from repro.protocol.accumulators import HistogramAccumulator

        return (
            HistogramAccumulator(self.oracle, self.edges, self.postprocess)
            .absorb(reports)
            .estimate()
        )

    @staticmethod
    def _project(raw: np.ndarray) -> np.ndarray:
        """Legacy clip+rescale projection (kept as the 'none' fallback
        so estimates are always valid histograms)."""
        clipped = np.clip(raw, 0.0, None)
        total = clipped.sum()
        if total <= 0.0:
            # Degenerate all-noise case: fall back to uniform.
            return np.full_like(raw, 1.0 / raw.shape[0])
        return clipped / total


class HistogramEstimate:
    """A projected histogram with CDF / quantile / mean queries."""

    def __init__(self, histogram: np.ndarray, raw: np.ndarray,
                 edges: np.ndarray):
        self.histogram = np.asarray(histogram, dtype=float)
        self.raw = np.asarray(raw, dtype=float)
        self.edges = np.asarray(edges, dtype=float)
        self.centers = (self.edges[:-1] + self.edges[1:]) / 2.0

    def cdf(self, x: float) -> float:
        """P[value <= x] under the estimated histogram (piecewise linear
        within bins)."""
        x = float(np.clip(x, -1.0, 1.0))
        total = 0.0
        for i, mass in enumerate(self.histogram):
            lo, hi = self.edges[i], self.edges[i + 1]
            if x >= hi:
                total += mass
            elif x > lo:
                total += mass * (x - lo) / (hi - lo)
        return float(min(max(total, 0.0), 1.0))

    def quantile(self, q: float) -> float:
        """Inverse CDF by accumulating bin masses."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        cumulative = 0.0
        for i, mass in enumerate(self.histogram):
            if cumulative + mass >= q:
                lo, hi = self.edges[i], self.edges[i + 1]
                if mass == 0.0:
                    return float(lo)
                return float(lo + (q - cumulative) / mass * (hi - lo))
            cumulative += mass
        return float(self.edges[-1])

    def mean(self) -> float:
        """Mean of the histogram (bin centers weighted by masses)."""
        return float(self.histogram @ self.centers)

    def total_variation(self, other_histogram) -> float:
        """TV distance to another probability vector over the same bins."""
        other = np.asarray(other_histogram, dtype=float)
        if other.shape != self.histogram.shape:
            raise ValueError(
                f"shape mismatch: {other.shape} vs {self.histogram.shape}"
            )
        return float(0.5 * np.abs(self.histogram - other).sum())


def true_histogram(values, bins: int = 16) -> np.ndarray:
    """Exact equal-width histogram of values in [-1, 1] (ground truth)."""
    arr = np.atleast_1d(check_unit_interval(values))
    if arr.size == 0:
        raise ValueError("cannot histogram an empty array")
    idx = np.clip(
        np.floor((arr + 1.0) / 2.0 * bins).astype(np.int64), 0, bins - 1
    )
    return np.bincount(idx, minlength=bins).astype(float) / arr.shape[0]
