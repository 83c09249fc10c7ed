"""Ablation — post-processing of frequency estimates.

Compares raw debiased OUE estimates against the three simplex
projections at several budgets.  Expected: projections never hurt, and
the exact projections (norm-sub / least-squares) help substantially at
small eps where negative cells are common.
"""

import numpy as np
from _common import record, run_once

from repro.experiments.results import Row, format_table
from repro.frequency import OptimizedUnaryEncoding, true_frequencies
from repro.frequency.postprocess import postprocess
from repro.utils.rng import spawn_rngs

K = 16
N = 8_000
EPSILONS = (0.25, 0.5, 1.0, 2.0, 4.0)
METHODS = ("none", "clip", "norm-sub", "least-squares")
REPEATS = 5


def _sweep():
    gen = np.random.default_rng(31)
    probs = np.arange(K, 0, -1, dtype=float) ** 2
    probs /= probs.sum()
    values = gen.choice(K, size=N, p=probs)
    truth = true_frequencies(values, K)

    rows = []
    for eps in EPSILONS:
        oracle = OptimizedUnaryEncoding(eps, K)
        per_method = {m: [] for m in METHODS}
        for child in spawn_rngs(37, REPEATS):
            raw = oracle.estimate_frequencies(oracle.privatize(values, child))
            for method in METHODS:
                estimate = postprocess(raw, method)
                per_method[method].append(
                    float(np.mean((estimate - truth) ** 2))
                )
        for method in METHODS:
            rows.append(
                Row("postprocess", method, eps,
                    float(np.mean(per_method[method])))
            )
    return rows


def test_ablation_postprocess():
    rows = run_once(_sweep)
    data = {}
    for row in rows:
        data.setdefault(row.series, {})[row.x] = row.value

    for eps in EPSILONS:
        raw = data["none"][eps]
        # Exact projections never hurt (projection onto a convex set
        # containing the truth) — allow a float whisker.
        assert data["norm-sub"][eps] <= raw * 1.001
        assert data["least-squares"][eps] <= raw * 1.001

    # At the smallest budget the projections cut MSE by a large factor.
    assert data["least-squares"][0.25] < 0.6 * data["none"][0.25]
    assert data["norm-sub"][0.25] < 0.6 * data["none"][0.25]

    record(
        "ablation_postprocess",
        format_table(
            rows,
            title=(
                f"Ablation: frequency-estimate MSE by post-processing "
                f"(OUE, k={K}, n={N})"
            ),
        ),
    )
