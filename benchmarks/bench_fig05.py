"""Fig. 5 — 16-dim truncated Gaussian data, mu in {0, 1/3, 2/3, 1}."""

from _common import record_rows, run_once, series

from repro.experiments import fig05
from repro.experiments.runner import EstimationConfig

CONFIG = EstimationConfig(
    n=20_000, repeats=3, epsilons=(0.5, 1.0, 2.0, 4.0), seed=2019
)


def test_fig05():
    rows = run_once(lambda: fig05.run(CONFIG))
    data = series(rows)

    for mu in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
        prefix = f"mu={mu:.2f}"
        for eps in CONFIG.epsilons:
            pm = data[f"{prefix}/pm"][eps]
            hm = data[f"{prefix}/hm"][eps]
            duchi = data[f"{prefix}/duchi"][eps]
            laplace = data[f"{prefix}/laplace"][eps]
            # PM and HM beat Duchi in all settings (paper, Fig. 5), and
            # everything beats eps/d Laplace splitting.
            assert max(pm, hm) < duchi < laplace

    record_rows(
        "fig05",
        rows,
        f"Fig. 5: MSE on 16-dim truncated Gaussians (n={CONFIG.n})",
    )
