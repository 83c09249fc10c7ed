"""Fig. 6 — uniform and power-law distributed numeric data."""

from _common import record_rows, run_once, series

from repro.experiments import fig06
from repro.experiments.runner import EstimationConfig

CONFIG = EstimationConfig(
    n=20_000, repeats=3, epsilons=(0.5, 1.0, 2.0, 4.0), seed=2019
)


def test_fig06():
    rows = run_once(lambda: fig06.run(CONFIG))
    data = series(rows)

    for dist in ("uniform", "powerlaw"):
        for eps in CONFIG.epsilons:
            pm = data[f"{dist}/pm"][eps]
            hm = data[f"{dist}/hm"][eps]
            duchi = data[f"{dist}/duchi"][eps]
            laplace = data[f"{dist}/laplace"][eps]
            scdf = data[f"{dist}/scdf"][eps]
            # Same conclusions as Fig. 5 on both distributions.
            assert max(pm, hm) < duchi
            assert duchi < min(laplace, scdf)

    record_rows("fig06", rows, f"Fig. 6: MSE, uniform & power-law (n={CONFIG.n})")
