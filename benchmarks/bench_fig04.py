"""Fig. 4 — mean + frequency estimation on BR/MX-like mixed data."""

from _common import record_rows, run_once, series

from repro.experiments import fig04
from repro.experiments.runner import EstimationConfig

CONFIG = EstimationConfig(
    n=20_000, repeats=3, epsilons=(0.5, 1.0, 2.0, 4.0), seed=2019
)


def test_fig04():
    rows = run_once(lambda: fig04.run(CONFIG))
    data = series(rows)

    for ds in ("BR", "MX"):
        for eps in CONFIG.epsilons:
            numeric = {
                m: data[f"{ds}-numeric/{m}"][eps]
                for m in ("laplace", "scdf", "staircase", "duchi", "pm", "hm")
            }
            # Panels (a)/(b): the proposed collectors beat every baseline.
            assert max(numeric["pm"], numeric["hm"]) < min(
                numeric["laplace"], numeric["scdf"],
                numeric["staircase"], numeric["duchi"],
            )
            # Panels (c)/(d): proposed beats per-attribute OUE splitting.
            assert (
                data[f"{ds}-categorical/hm"][eps]
                < data[f"{ds}-categorical/oue-split"][eps]
            )
        # MSE decreases with eps for the proposed solution.
        hm_curve = [data[f"{ds}-numeric/hm"][e] for e in CONFIG.epsilons]
        assert hm_curve[-1] < hm_curve[0]

    record_rows(
        "fig04",
        rows,
        f"Fig. 4: estimation MSE on BR/MX-like data (n={CONFIG.n}, "
        f"{CONFIG.repeats} repeats)",
    )
