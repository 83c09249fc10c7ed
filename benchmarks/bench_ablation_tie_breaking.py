"""Ablation — Algorithm 3's boundary-tie handling for even d.

Compares the paper-literal "shared" variant (boundary corners in both
halfspaces; worst-case ratio e^eps + 1) against Duchi et al.'s original
"split" variant (exact eps-LDP; different unbiasedness constant).  Both
must be unbiased under their own constants; the split variant pays a
slightly larger output magnitude B and hence variance — the price of
exact eps-LDP at even d.
"""

import numpy as np
from _common import record, run_once

from repro.core import DuchiMultidimMechanism
from repro.experiments.results import Row, format_table
from repro.theory.constants import duchi_cd
from repro.utils.rng import spawn_rngs

EPS = 1.0
N = 60_000
DIMENSIONS = (2, 3, 4, 8)


def _sweep():
    rows = []
    for d in DIMENSIONS:
        t = np.tile(np.linspace(-0.6, 0.6, d), (N, 1))
        for variant in ("shared", "split"):
            mech = DuchiMultidimMechanism(EPS, d, tie_breaking=variant)
            bias, var = [], []
            for child in spawn_rngs(23, 2):
                out = mech.privatize(t, child)
                bias.append(float(np.abs(out.mean(axis=0) - t[0]).max()))
                var.append(float(np.var(out[:, 0])))
            rows.append(
                Row("tie", f"{variant}/max-bias", float(d),
                    float(np.mean(bias)))
            )
            rows.append(
                Row("tie", f"{variant}/variance", float(d),
                    float(np.mean(var)))
            )
    return rows


def test_ablation_tie_breaking():
    rows = run_once(_sweep)
    data = {}
    for row in rows:
        data.setdefault(row.series, {})[row.x] = row.value

    for d in (float(x) for x in DIMENSIONS):
        shared = DuchiMultidimMechanism(EPS, int(d), "shared")
        split = DuchiMultidimMechanism(EPS, int(d), "split")
        sem = shared.b / np.sqrt(N / 2)
        # Both variants are unbiased under their own constants.
        assert data["shared/max-bias"][d] < 6 * sem
        assert data["split/max-bias"][d] < 6 * sem
        if int(d) % 2 == 1:
            # Odd d: the variants are literally the same mechanism.
            assert shared.b == split.b
        else:
            # Even d: exact eps-LDP costs a larger B (split > shared...
            # no — split's C_d is *smaller*; check the actual relation).
            assert duchi_cd(int(d), "split") < duchi_cd(int(d), "shared")
            assert data["split/variance"][d] < data["shared/variance"][d]

    record(
        "ablation_tie_breaking",
        format_table(
            rows,
            title=(
                "Ablation: Algorithm 3 tie handling (shared = paper "
                f"pseudo-code, split = exactly eps-LDP), eps={EPS}, n={N}"
            ),
            x_label="d",
        ),
    )
