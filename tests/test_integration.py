"""End-to-end integration tests across subsystem boundaries.

Each test runs a full pipeline the way a downstream user would: generate
data -> collect under LDP -> aggregate -> compare against ground truth /
baselines, asserting the paper's qualitative claims.
"""

import numpy as np
import pytest

from repro.data import (
    make_br_like,
    make_mx_like,
    truncated_gaussian_matrix,
)
from repro.data.census import INCOME
from repro.multidim import (
    MixedMultidimCollector,
    MultidimNumericCollector,
    SplitCompositionBaseline,
)
from repro.sgd import LinearRegression, LogisticRegression, SupportVectorMachine
from repro.utils.rng import spawn_rngs
from repro.utils.stats import empirical_mse


class TestEstimationPipeline:
    def test_proposed_beats_all_baselines_on_br(self):
        """Fig. 4's headline on a laptop-scale BR-like dataset."""
        dataset = make_br_like(30_000, rng=1)
        truth_means = dataset.true_numeric_means()
        truth_freqs = dataset.true_categorical_frequencies()
        eps, repeats = 1.0, 4

        def avg_mse(factory):
            mean_scores, freq_scores = [], []
            for child in spawn_rngs(11, repeats):
                collector = factory()
                if isinstance(collector, MixedMultidimCollector):
                    est = collector.aggregate(
                        collector.privatize(dataset, child)
                    )
                else:
                    est = collector.collect(dataset, child)
                mean_scores.append(est.mean_mse(truth_means))
                freq_scores.append(est.frequency_mse(truth_freqs))
            return float(np.mean(mean_scores)), float(np.mean(freq_scores))

        ours_mean, ours_freq = avg_mse(
            lambda: MixedMultidimCollector(dataset.schema, eps, "hm")
        )
        for method in ("laplace", "duchi"):
            base_mean, base_freq = avg_mse(
                lambda m=method: SplitCompositionBaseline(
                    dataset.schema, eps, m
                )
            )
            assert ours_mean < base_mean
            assert ours_freq < base_freq

    def test_pm_advantage_grows_with_small_inputs(self):
        """Fig. 5's mu = 0 vs mu = 1 effect: PM's MSE advantage over
        Duchi is larger when inputs cluster near zero."""
        n, d, eps, repeats = 20_000, 16, 2.0, 4

        def avg_ratio(mu):
            small = truncated_gaussian_matrix(n, d, mu, rng=3)
            truth = small.mean(axis=0)
            pm_scores, du_scores = [], []
            for child in spawn_rngs(4, repeats):
                pm = MultidimNumericCollector(eps, d, "pm")
                pm_est = pm.estimate_means(pm.privatize(small, child))
                pm_scores.append(empirical_mse(pm_est, truth))
                from repro.core import DuchiMultidimMechanism

                du_est = (
                    DuchiMultidimMechanism(eps, d)
                    .privatize(small, child)
                    .mean(axis=0)
                )
                du_scores.append(empirical_mse(du_est, truth))
            return float(np.mean(pm_scores) / np.mean(du_scores))

        assert avg_ratio(0.0) < 1.0  # PM wins on small-magnitude data

    def test_error_scales_inversely_with_n(self):
        """Lemma 5: quadrupling n roughly quarters the MSE."""
        d, eps = 8, 1.0
        matrix_small = truncated_gaussian_matrix(5_000, d, 0.2, rng=5)
        matrix_large = truncated_gaussian_matrix(80_000, d, 0.2, rng=5)
        collector = MultidimNumericCollector(eps, d, "hm")

        def avg_mse(matrix):
            truth = matrix.mean(axis=0)
            return float(
                np.mean(
                    [
                        empirical_mse(
                            collector.estimate_means(
                                collector.privatize(matrix, c)
                            ),
                            truth,
                        )
                        for c in spawn_rngs(9, 5)
                    ]
                )
            )

        ratio = avg_mse(matrix_small) / avg_mse(matrix_large)
        assert 4.0 < ratio < 64.0  # 16x users -> ~16x smaller MSE


class TestERMPipeline:
    @pytest.fixture(scope="class")
    def mx_task(self):
        dataset = make_mx_like(25_000, rng=2)
        x, y = dataset.to_erm_features(INCOME)
        y_bin = np.where(y > y.mean(), 1.0, -1.0)
        return x, y, y_bin

    def test_linear_regression_eps_trend(self, mx_task):
        x, y, _ = mx_task
        mse_tight = LinearRegression(epsilon=0.5).fit(x, y, 1).score(x, y)
        mse_loose = LinearRegression(epsilon=4.0).fit(x, y, 1).score(x, y)
        mse_np = LinearRegression().fit(x, y, 1).score(x, y)
        assert mse_np <= mse_loose <= mse_tight

    def test_classifiers_beat_chance_at_eps4(self, mx_task):
        x, _, y_bin = mx_task
        majority = min(np.mean(y_bin == 1.0), np.mean(y_bin == -1.0))
        for cls in (LogisticRegression, SupportVectorMachine):
            score = cls(epsilon=4.0, method="hm").fit(x, y_bin, 1).score(
                x, y_bin
            )
            assert score <= majority + 0.05

    def test_laplace_is_worst_gradient_method(self, mx_task):
        """Figs. 9-11: per-coordinate Laplace at eps/d trails Algorithm 4."""
        x, y, _ = mx_task
        hm = LinearRegression(epsilon=1.0, method="hm").fit(x, y, 3).score(x, y)
        laplace = LinearRegression(epsilon=1.0, method="laplace").fit(
            x, y, 3
        ).score(x, y)
        assert hm < laplace


class TestPublicApi:
    def test_star_imports_work(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_snippet(self):
        """The README quickstart must actually run."""
        import numpy as np

        from repro import HybridMechanism

        values = np.random.default_rng(0).uniform(-1, 1, 10_000)
        hm = HybridMechanism(epsilon=1.0)
        noisy = hm.privatize(values, rng=0)
        estimate = hm.estimate_mean(noisy)
        assert abs(estimate - values.mean()) < 0.1
