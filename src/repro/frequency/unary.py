"""Unary-encoding frequency oracles: SUE (basic RAPPOR) and OUE.

Both encode the true value v as a length-k one-hot bit vector and flip
each bit independently:

* **SUE** (symmetric, basic RAPPOR): Pr[1 -> 1] = p = e^{eps/2}/(e^{eps/2}+1),
  Pr[0 -> 1] = q = 1 - p.  The per-bit flip is symmetric, so the privacy
  cost of the whole vector is eps (one bit differs... two bits differ
  between two one-hot inputs, each contributing eps/2).
* **OUE** (optimized unary encoding, Wang et al. USENIX'17): p = 1/2 and
  q = 1/(e^eps + 1), which minimizes the estimator variance
  (4 e^eps / (n (e^eps - 1)^2) at f -> 0).  OUE is the oracle the paper
  plugs into its Section IV-C mixed-attribute collector.

Support for value v is "bit v of the report is 1".
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.frequency.oracle import FrequencyOracle, register_oracle
from repro.utils.rng import RngLike, ensure_rng


class UnaryEncodingOracle(FrequencyOracle):
    """Shared machinery for SUE and OUE; subclasses define (p, q)."""

    def privatize(self, values, rng: RngLike = None) -> np.ndarray:
        """Return an (n, k) 0/1 matrix of perturbed one-hot encodings."""
        gen = ensure_rng(rng)
        truth = self._check_values(values)
        n = truth.shape[0]
        p, q = self.support_probabilities
        u = gen.random((n, k_ := self.k))
        is_true_bit = np.zeros((n, k_), dtype=bool)
        is_true_bit[np.arange(n), truth] = True
        threshold = np.where(is_true_bit, p, q)
        return (u < threshold).astype(np.uint8)

    def support_counts(self, reports) -> np.ndarray:
        reports = np.asarray(reports)
        if reports.ndim != 2 or reports.shape[1] != self.k:
            raise ValueError(
                f"reports must be an (n, {self.k}) bit matrix, "
                f"got shape {reports.shape}"
            )
        return reports.sum(axis=0).astype(float)


@register_oracle
class SymmetricUnaryEncoding(UnaryEncodingOracle):
    """SUE / basic one-time RAPPOR: symmetric per-bit perturbation."""

    name = "sue"

    @property
    def support_probabilities(self) -> Tuple[float, float]:
        e_half = math.exp(self.epsilon / 2.0)
        return e_half / (e_half + 1.0), 1.0 / (e_half + 1.0)


@register_oracle
class OptimizedUnaryEncoding(UnaryEncodingOracle):
    """OUE (Wang et al. 2017): p = 1/2, q = 1/(e^eps + 1).

    The state-of-the-art single-attribute oracle the paper adopts for
    categorical attributes (Section IV-C, Section VI-A).
    """

    name = "oue"

    @property
    def support_probabilities(self) -> Tuple[float, float]:
        return 0.5, 1.0 / (math.exp(self.epsilon) + 1.0)

    def worst_case_estimator_variance(self, n: int) -> float:
        """The paper-quoted OUE variance 4 e^eps / (n (e^eps - 1)^2)."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        e = math.exp(self.epsilon)
        return 4.0 * e / (n * (e - 1.0) ** 2)
