"""Fig. 9 — logistic regression misclassification rate vs eps."""

from _common import record_rows, run_once, series

from repro.experiments import fig09
from repro.experiments.erm import ERMConfig

CONFIG = ERMConfig(
    n=20_000, folds=3, repeats=1, epsilons=(0.5, 1.0, 2.0, 4.0), seed=2019
)


def test_fig09():
    rows = run_once(lambda: fig09.run(CONFIG))
    data = series(rows)

    for ds in ("BR", "MX"):
        non_private = data[f"{ds}/non-private"][4.0]
        # The non-private reference is the best achievable.
        for method in ("laplace", "duchi", "pm", "hm"):
            for eps in CONFIG.epsilons:
                assert data[f"{ds}/{method}"][eps] >= non_private - 0.02
        # At the largest eps the proposed methods are competitive with
        # Duchi and clearly below 50% (informative classifiers).
        hm4 = data[f"{ds}/hm"][4.0]
        assert hm4 < 0.5
        assert hm4 <= data[f"{ds}/duchi"][4.0] + 0.05
        # Laplace splitting trails the proposed methods at eps = 4.
        assert hm4 <= data[f"{ds}/laplace"][4.0] + 0.02

    record_rows(
        "fig09",
        rows,
        f"Fig. 9: logistic regression misclassification (n={CONFIG.n}, "
        f"{CONFIG.folds}-fold CV)",
        value_format="{:.4f}",
    )
