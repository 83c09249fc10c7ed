"""Shared sweep machinery for the Section VI experiment reproductions.

Two workload families cover Figs. 4-8:

* numeric-only matrices (synthetic Gaussian / uniform / power-law data,
  Figs. 5-6, and the numeric halves of Figs. 7-8), measured by
  :func:`numeric_matrix_mse`;
* mixed numeric+categorical datasets (BR/MX-like, Fig. 4 and the
  categorical halves of Figs. 7-8), measured by :func:`mixed_dataset_mse`.

Every point is averaged over ``repeats`` independent runs (the paper
averages 100 runs; the default here is laptop-sized and configurable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.duchi import DuchiMultidimMechanism
from repro.core.mechanism import get_mechanism
from repro.data.schema import Dataset
from repro.multidim.splitting import SplitCompositionBaseline
from repro.protocol import Protocol
from repro.runtime import run_inline
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs
from repro.utils.stats import empirical_mse

#: Method labels used across the estimation experiments.  "pm"/"hm" are
#: the proposed Algorithm 4 / Section IV-C collectors; the rest are the
#: Section VI-A best-effort baselines.
ESTIMATION_METHODS = ("laplace", "scdf", "staircase", "duchi", "pm", "hm")


@dataclass
class EstimationConfig:
    """Knobs shared by the Figs. 4-8 harnesses."""

    n: int = 50_000
    repeats: int = 5
    epsilons: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    seed: int = 2019


def numeric_matrix_mse(
    matrix: np.ndarray,
    epsilon: float,
    method: str,
    rng: RngLike = None,
) -> float:
    """One run: MSE of estimated vs true attribute means, numeric data.

    * "pm"/"hm": Algorithm 4 at full budget, through the protocol layer;
    * "duchi":   Algorithm 3 at full budget;
    * "laplace"/"scdf"/"staircase": per-attribute 1-D mechanism at eps/d
      (the composition baseline).
    """
    gen = ensure_rng(rng)
    matrix = np.asarray(matrix, dtype=float)
    d = matrix.shape[1]
    truth = matrix.mean(axis=0)
    if method in ("pm", "hm"):
        estimates = run_inline(
            Protocol.multidim(epsilon, d=d, mechanism=method), matrix, gen
        ).estimate()
    elif method == "duchi":
        mech = DuchiMultidimMechanism(epsilon, d)
        estimates = mech.privatize(matrix, gen).mean(axis=0)
    elif method in ("laplace", "scdf", "staircase"):
        one_d = get_mechanism(method, epsilon / d)
        # One vectorized privatize over the transposed matrix replaces
        # the former per-column loop; row j of matrix.T is column j of
        # the data, and the row means are the per-attribute estimates.
        # Mechanisms drawing one variate per value (Laplace) consume
        # the rng stream exactly as the loop did; the piecewise-constant
        # mechanisms regroup their data-dependent draws across columns
        # (same distribution, different variates).
        estimates = one_d.privatize(matrix.T, gen).mean(axis=1)
    else:
        raise ValueError(
            f"method must be one of {ESTIMATION_METHODS}, got {method!r}"
        )
    return empirical_mse(estimates, truth)


def averaged_numeric_mse(
    matrix: np.ndarray,
    epsilon: float,
    method: str,
    repeats: int,
    rng: RngLike = None,
) -> float:
    """Mean over ``repeats`` independent runs of :func:`numeric_matrix_mse`."""
    rngs = spawn_rngs(rng, repeats)
    return float(
        np.mean(
            [numeric_matrix_mse(matrix, epsilon, method, r) for r in rngs]
        )
    )


def mixed_dataset_mse(
    dataset: Dataset,
    epsilon: float,
    method: str,
    rng: RngLike = None,
    truth_means: Optional[Dict[str, float]] = None,
    truth_freqs: Optional[Dict[str, np.ndarray]] = None,
) -> Tuple[float, float]:
    """One run: (numeric-mean MSE, frequency MSE) on a mixed dataset.

    "pm"/"hm" run the proposed Section IV-C collector (OUE inside)
    through the protocol layer; the baselines run the Section VI-A
    composition combination with the given numeric method and
    per-attribute OUE.
    """
    gen = ensure_rng(rng)
    if truth_means is None:
        truth_means = dataset.true_numeric_means()
    if truth_freqs is None:
        truth_freqs = dataset.true_categorical_frequencies()
    if method in ("pm", "hm"):
        estimates = run_inline(
            Protocol.multidim(epsilon, schema=dataset.schema,
                              mechanism=method),
            dataset, gen,
        ).estimate()
    elif method in ("laplace", "scdf", "staircase", "duchi"):
        baseline = SplitCompositionBaseline(
            dataset.schema, epsilon, numeric_method=method
        )
        estimates = baseline.collect(dataset, gen)
    else:
        raise ValueError(
            f"method must be one of {ESTIMATION_METHODS}, got {method!r}"
        )
    mean_mse = estimates.mean_mse(truth_means) if estimates.means else float("nan")
    freq_mse = (
        estimates.frequency_mse(truth_freqs)
        if estimates.frequencies
        else float("nan")
    )
    return mean_mse, freq_mse


def averaged_mixed_mse(
    dataset: Dataset,
    epsilon: float,
    method: str,
    repeats: int,
    rng: RngLike = None,
) -> Tuple[float, float]:
    """Mean over repeats of :func:`mixed_dataset_mse` (both metrics)."""
    truth_means = dataset.true_numeric_means()
    truth_freqs = dataset.true_categorical_frequencies()
    pairs = [
        mixed_dataset_mse(dataset, epsilon, method, r, truth_means, truth_freqs)
        for r in spawn_rngs(rng, repeats)
    ]
    arr = np.asarray(pairs, dtype=float)
    return float(arr[:, 0].mean()), float(arr[:, 1].mean())
