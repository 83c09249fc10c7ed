"""Fig. 2 — PM output density shape for t in {0, 0.5, 1}."""

import numpy as np
from _common import record, run_once

from repro.core import PiecewiseMechanism
from repro.experiments import fig02
from repro.experiments.results import format_table


def test_fig02():
    epsilon = 1.0
    rows = run_once(lambda: fig02.run(epsilon, grid_size=13))
    pm = PiecewiseMechanism(epsilon)

    # Shape assertions mirroring the paper's three panels:
    # (a) t = 0: symmetric density, plateau centered at 0.
    assert float(pm.left(0.0)) == -float(pm.right(0.0))
    # (b) t = 0.5: plateau strictly inside, both wings present.
    assert -pm.c < float(pm.left(0.5)) < float(pm.right(0.5)) < pm.c
    # (c) t = 1: right wing vanished — plateau ends exactly at C.
    assert float(pm.right(1.0)) == pm.c

    # Every sampled density is one of the two levels (or 0 outside).
    levels = {round(pm.p, 12), round(pm.p / np.exp(epsilon), 12), 0.0}
    for row in rows:
        assert round(row.value, 12) in levels

    record(
        "fig02",
        f"Fig. 2: PM pdf at eps={epsilon} (C={pm.c:.4f}, p={pm.p:.4f})\n"
        + format_table(rows, x_label="x", value_format="{:.4f}"),
    )


def test_fig02_sampling_histogram():
    """Empirical histogram of PM samples reproduces the step shape."""
    pm = PiecewiseMechanism(1.0)
    t = 0.5

    def sample():
        return pm.privatize(np.full(200_000, t), 42)

    out = run_once(sample)
    hist, edges = np.histogram(
        out, bins=np.linspace(-pm.c, pm.c, 41), density=True
    )
    centers = (edges[:-1] + edges[1:]) / 2.0
    want = pm.pdf(centers, t)
    keep = (np.abs(centers - float(pm.left(t))) > 0.2) & (
        np.abs(centers - float(pm.right(t))) > 0.2
    )
    assert np.allclose(hist[keep], want[keep], atol=0.02)
