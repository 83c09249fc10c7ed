"""Fig. 7 — estimation accuracy vs number of users (MX-like data)."""

from _common import record_rows, run_once, series

from repro.experiments import fig07
from repro.experiments.runner import EstimationConfig

CONFIG = EstimationConfig(n=0, repeats=3, seed=2019)  # n set per point
USER_COUNTS = (6_250, 12_500, 25_000, 50_000, 100_000)


def test_fig07():
    rows = run_once(
        lambda: fig07.run(CONFIG, user_counts=USER_COUNTS, epsilon=1.0),
    )
    data = series(rows)

    smallest, largest = float(USER_COUNTS[0]), float(USER_COUNTS[-1])
    for name, curve in data.items():
        # More users -> lower MSE, for every method and both metrics.
        assert curve[largest] < curve[smallest], name

    for n in (float(c) for c in USER_COUNTS):
        # Proposed beats baselines at every n.
        assert data["numeric/hm"][n] < data["numeric/laplace"][n]
        assert data["numeric/hm"][n] < data["numeric/duchi"][n]
        assert data["categorical/hm"][n] < data["categorical/oue-split"][n]

    # Rough 1/n scaling (Lemma 5): 16x the users cuts MSE by ~16x;
    # accept a generous 4x..64x window.
    ratio = data["numeric/hm"][smallest] / data["numeric/hm"][largest]
    assert 4.0 < ratio < 64.0

    record_rows(
        "fig07",
        rows,
        "Fig. 7: MSE vs number of users (MX-like, eps=1)",
        x_label="n",
    )
