"""Fig. 3 — worst-case variance of PM/HM relative to Duchi's, d > 1."""

import numpy as np
from _common import record_rows, run_once, series

from repro.experiments import fig03

DIMENSIONS = (5, 10, 20, 40)
EPSILONS = tuple(np.round(np.linspace(0.25, 8.0, 16), 3))


def test_fig03():
    rows = run_once(
        lambda: fig03.run(dimensions=DIMENSIONS, epsilons=EPSILONS)
    )
    data = series(rows)

    for d in DIMENSIONS:
        for eps in EPSILONS:
            pm_ratio = data[f"PM d={d}"][eps]
            hm_ratio = data[f"HM d={d}"][eps]
            # Corollary 2: both proposed mechanisms beat Duchi everywhere.
            assert hm_ratio < pm_ratio < 1.0
        # The paper: HM's ratio is at most ~0.77 for these dimensions.
        assert max(data[f"HM d={d}"].values()) <= 0.77

    record_rows(
        "fig03",
        rows,
        "Fig. 3: MaxVar(PM|HM) / MaxVar(Duchi), multidimensional",
        value_format="{:.4f}",
    )
