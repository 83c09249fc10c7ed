"""Fig. 10 — SVM misclassification rate vs eps."""

from _common import record_rows, run_once, series

from repro.experiments import fig10
from repro.experiments.erm import ERMConfig

CONFIG = ERMConfig(
    n=20_000, folds=3, repeats=1, epsilons=(0.5, 1.0, 2.0, 4.0), seed=2019
)


def test_fig10():
    rows = run_once(lambda: fig10.run(CONFIG))
    data = series(rows)

    for ds in ("BR", "MX"):
        non_private = data[f"{ds}/non-private"][4.0]
        hm_curve = [data[f"{ds}/hm"][e] for e in CONFIG.epsilons]
        # Error decreases with eps (allowing SGD stochasticity slack)...
        assert hm_curve[-1] <= hm_curve[0] + 0.03
        # ...and approaches the non-private line at eps = 4 (paper: "in
        # some settings such as SVM with eps >= 2 on BR, the accuracy of
        # PM and HM approaches that of the non-private method").  At this
        # laptop-scale n (the paper trains on ~3.6M users per fold, we
        # use ~13k) the residual gradient noise leaves a wider gap.
        assert hm_curve[-1] <= non_private + 0.2
        # Better than chance at every eps >= 1.
        for eps in (1.0, 2.0, 4.0):
            assert data[f"{ds}/hm"][eps] < 0.5

    record_rows(
        "fig10",
        rows,
        f"Fig. 10: SVM misclassification (n={CONFIG.n}, "
        f"{CONFIG.folds}-fold CV)",
        value_format="{:.4f}",
    )
