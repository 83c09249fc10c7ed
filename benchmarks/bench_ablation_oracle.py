"""Ablation — frequency oracle choice inside the Section IV-C collector.

The paper adopts OUE; this ablation swaps in GRR, SUE and OLH and
compares frequency-estimation MSE on the BR-like dataset.
"""

import numpy as np
from _common import record, run_once

from repro.data import make_br_like
from repro.experiments.results import Row, format_table
from repro.multidim import MixedMultidimCollector
from repro.utils.rng import spawn_rngs

ORACLES = ("oue", "sue", "grr", "olh")
EPSILONS = (0.5, 1.0, 2.0, 4.0)
N = 15_000
REPEATS = 3


def _sweep():
    dataset = make_br_like(N, rng=13)
    truth = dataset.true_categorical_frequencies()
    rows = []
    for oracle in ORACLES:
        for eps in EPSILONS:
            scores = []
            for child in spawn_rngs(29, REPEATS):
                collector = MixedMultidimCollector(
                    dataset.schema, eps, oracle=oracle
                )
                estimates = collector.aggregate(
                    collector.privatize(dataset, child)
                )
                scores.append(estimates.frequency_mse(truth))
            rows.append(
                Row("ablation_oracle", oracle, eps, float(np.mean(scores)))
            )
    return rows


def test_ablation_oracle():
    rows = run_once(_sweep)
    data = {}
    for row in rows:
        data.setdefault(row.series, {})[row.x] = row.value

    # A subtlety this ablation surfaces: OUE minimizes the f -> 0
    # estimator variance (the worst case Wang et al. optimize), but its
    # variance grows with the true frequency f, whereas SUE's is exactly
    # f-independent (1 - p - q = 0).  On skewed marginals with dominant
    # values, SUE/GRR can therefore beat OUE at large eps.  We assert
    # the robust facts rather than a blanket OUE win:
    for eps in EPSILONS:
        # All oracles are in the same ballpark at every eps...
        best = min(d[eps] for d in data.values())
        assert data["oue"][eps] <= 5.0 * best
        # ...and OUE's *worst-case* (f -> 0) variance advantage over SUE
        # holds in closed form at this eps.
        from repro.frequency import OptimizedUnaryEncoding, SymmetricUnaryEncoding

        assert (
            OptimizedUnaryEncoding(eps, 8).estimator_variance(1000)
            < SymmetricUnaryEncoding(eps, 8).estimator_variance(1000)
        )
    for oracle in ORACLES:
        # Accuracy improves with the privacy budget for every oracle.
        assert data[oracle][4.0] < data[oracle][0.5]

    record(
        "ablation_oracle",
        format_table(
            rows,
            title=(
                "Ablation: frequency MSE by oracle inside the mixed "
                f"collector (BR-like, n={N})"
            ),
        ),
    )
