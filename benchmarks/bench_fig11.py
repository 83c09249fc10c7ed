"""Fig. 11 — linear regression MSE vs eps."""

from _common import record_rows, run_once, series

from repro.experiments import fig11
from repro.experiments.erm import ERMConfig

CONFIG = ERMConfig(
    n=20_000, folds=3, repeats=1, epsilons=(0.5, 1.0, 2.0, 4.0), seed=2019
)


def test_fig11():
    rows = run_once(lambda: fig11.run(CONFIG))
    data = series(rows)

    for ds in ("BR", "MX"):
        non_private = data[f"{ds}/non-private"][4.0]
        hm_curve = [data[f"{ds}/hm"][e] for e in CONFIG.epsilons]
        pm_curve = [data[f"{ds}/pm"][e] for e in CONFIG.epsilons]
        # MSE decreases with the privacy budget for the proposed methods.
        assert hm_curve[-1] < hm_curve[0]
        assert pm_curve[-1] < pm_curve[0]
        # Proposed methods approach the non-private MSE at eps = 4...
        assert hm_curve[-1] < 3.0 * max(non_private, 1e-3)
        # ...and beat the Laplace baseline (paper omits it: off the chart).
        for eps in CONFIG.epsilons:
            assert data[f"{ds}/hm"][eps] < data[f"{ds}/laplace"][eps]

    record_rows(
        "fig11",
        rows,
        f"Fig. 11: linear regression MSE (n={CONFIG.n}, "
        f"{CONFIG.folds}-fold CV)",
        value_format="{:.4f}",
    )
