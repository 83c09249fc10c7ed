"""Fig. 1 — worst-case noise variance vs eps (1-D mechanisms)."""

import numpy as np
from _common import record_rows, run_once, series

from repro.experiments import fig01
from repro.theory.constants import EPSILON_SHARP

EPSILONS = tuple(np.round(np.linspace(0.25, 8.0, 32), 3))


def test_fig01():
    rows = run_once(lambda: fig01.run(epsilons=EPSILONS))
    data = series(rows)

    for eps in EPSILONS:
        values = {name: data[name][eps] for name in data}
        # Corollary 1: HM is the lower envelope of the paper's Fig. 1
        # set {Laplace, Duchi, PM}.  (SCDF/Staircase — absent from the
        # paper's figure — can dip marginally below HM at large eps.)
        assert values["HM"] <= min(
            values["Laplace"], values["Duchi"], values["PM"]
        ) + 1e-12
        # Duchi's variance never drops below 1; Laplace's does for eps > ~2.8.
        assert values["Duchi"] > 1.0 or eps > 20
        # SCDF/Staircase behave like Laplace in the small-eps regime.
        if eps <= 2.0:
            assert values["SCDF"] > values["HM"]
            assert values["Staircase"] > values["HM"]

    # PM/Duchi crossover falls at eps# ~= 1.29: PM loses below, wins above.
    assert data["PM"][0.25] > data["Duchi"][0.25]
    assert data["PM"][8.0] < data["Duchi"][8.0]
    crossings = [
        eps
        for lo, eps in zip(EPSILONS, EPSILONS[1:])
        if (data["PM"][lo] - data["Duchi"][lo])
        * (data["PM"][eps] - data["Duchi"][eps])
        <= 0
    ]
    assert any(abs(c - EPSILON_SHARP) < 0.3 for c in crossings)

    # Laplace/Duchi crossover near eps ~= 2 (paper's Fig. 1 discussion).
    assert data["Laplace"][1.0] > data["Duchi"][1.0]
    assert data["Laplace"][4.0] < data["Duchi"][4.0]

    record_rows(
        "fig01",
        rows,
        "Fig. 1: worst-case noise variance (1-D) vs eps",
        value_format="{:.4f}",
    )
