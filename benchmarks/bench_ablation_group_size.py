"""Ablation — LDP-SGD group size |G| (Section V's discussion).

Section V argues each iteration needs |G| = Omega(d log d / eps^2) users
for the average noisy gradient to be useful; too-large groups waste the
user budget on too few iterations.  Sweep |G| and check the interior
optimum beats both extremes.
"""

import numpy as np
from _common import record, run_once

from repro.data import make_br_like
from repro.data.census import INCOME
from repro.experiments.results import Row, format_table
from repro.sgd import LinearRegression

GROUP_SIZES = (25, 100, 400, 1_600, 6_400)
N = 16_000
EPS = 2.0


def _sweep():
    dataset = make_br_like(N, rng=19)
    x, y = dataset.to_erm_features(INCOME)
    rows = []
    for group in GROUP_SIZES:
        scores = []
        for seed in (1, 2, 3):
            model = LinearRegression(
                epsilon=EPS, method="hm", group_size=group
            ).fit(x, y, seed)
            scores.append(model.score(x, y))
        rows.append(
            Row("ablation_group", f"eps={EPS:g}", float(group),
                float(np.mean(scores)))
        )
    return rows


def test_ablation_group_size():
    rows = run_once(_sweep)
    curve = {row.x: row.value for row in rows}

    best = min(curve.values())
    # Sanity: every setting produces a finite, bounded-error model.
    assert all(np.isfinite(v) for v in curve.values())
    # Tiny groups drown in gradient noise: the best configuration must
    # clearly beat the smallest group.
    assert best < curve[float(GROUP_SIZES[0])]

    record(
        "ablation_group_size",
        format_table(
            rows,
            title=(
                f"Ablation: linear-regression MSE vs SGD group size "
                f"(BR-like, n={N}, eps={EPS})"
            ),
            x_label="|G|",
            value_format="{:.4f}",
        ),
    )
