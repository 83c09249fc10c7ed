"""Ablation — HM's mixing weight alpha (Eq. 7 / Lemma 3).

Sweeps alpha over a grid and confirms the closed-form optimum
alpha = 1 - e^{-eps/2} minimizes the worst-case variance, analytically
and empirically.
"""

import numpy as np
import pytest
from _common import record, run_once

from repro.core import HybridMechanism
from repro.experiments.results import Row, format_table
from repro.theory.constants import hybrid_alpha
from repro.utils.rng import spawn_rngs

EPSILONS = (1.0, 2.0, 4.0)
ALPHAS = tuple(np.round(np.linspace(0.0, 1.0, 11), 2))
N = 40_000


def _sweep():
    rows = []
    for eps in EPSILONS:
        for alpha in ALPHAS:
            hm = HybridMechanism(eps, alpha=float(alpha))
            grid = np.linspace(-1, 1, 201)
            worst = float(np.max(hm.variance(grid)))
            rows.append(Row("ablation_alpha", f"eps={eps:g}", float(alpha), worst))
    return rows


def test_ablation_alpha():
    rows = run_once(_sweep)
    by_eps = {}
    for row in rows:
        by_eps.setdefault(row.series, {})[row.x] = row.value

    for eps in EPSILONS:
        curve = by_eps[f"eps={eps:g}"]
        optimal = HybridMechanism(eps).worst_case_variance()
        # No grid alpha does better than the Eq. 7 optimum.
        assert min(curve.values()) >= optimal - 1e-9
        # The grid point closest to the closed-form alpha is the argmin.
        best_alpha = min(curve, key=curve.get)
        assert abs(best_alpha - hybrid_alpha(eps)) <= 0.15

    record(
        "ablation_alpha",
        format_table(
            rows,
            title="Ablation: HM worst-case variance vs mixing weight alpha",
            x_label="alpha",
            value_format="{:.4f}",
        ),
    )


def test_ablation_alpha_empirical():
    """Empirical check at one eps: the optimal alpha's sampled variance
    at the worst-case input matches Eq. 8 and beats alpha in {0, 1}."""
    eps = 2.0

    def measure():
        out = {}
        for alpha in (0.0, None, 1.0):  # None -> optimal
            hm = HybridMechanism(eps, alpha=alpha)
            worst_t = 0.0 if alpha in (0.0, None) else 1.0
            samples = [
                float(np.var(hm.privatize(np.full(N, worst_t), c)))
                for c in spawn_rngs(3, 2)
            ]
            key = "optimal" if alpha is None else f"alpha={alpha:g}"
            out[key] = float(np.mean(samples))
        return out

    measured = run_once(measure)
    hm_opt = HybridMechanism(eps)
    assert measured["optimal"] == pytest.approx(
        hm_opt.worst_case_variance(), rel=0.1
    )
    assert measured["optimal"] < measured["alpha=0"]
