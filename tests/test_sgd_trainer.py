"""Tests for the (LDP-)SGD trainers, schedules and helpers."""

import numpy as np
import pytest

from repro.sgd.schedules import constant, inverse_sqrt, inverse_time
from repro.sgd.trainer import (
    LDPSGDTrainer,
    NonPrivateSGDTrainer,
    clip_gradients,
    default_group_size,
)


def _linear_data(rng, n=6_000, p=4, noise=0.05):
    x = rng.uniform(-1, 1, (n, p))
    beta_true = np.array([0.5, -0.3, 0.2, 0.0])
    y = np.clip(x @ beta_true + rng.normal(0, noise, n), -1, 1)
    return x, y, beta_true


def _separable_data(rng, n=6_000, p=4):
    x = rng.uniform(-1, 1, (n, p))
    w = np.array([1.0, -1.0, 0.5, 0.0])
    y = np.where(x @ w > 0, 1.0, -1.0)
    return x, y


class TestSchedules:
    def test_inverse_sqrt_decay(self):
        schedule = inverse_sqrt(1.0)
        assert schedule(1) == 1.0
        assert schedule(4) == pytest.approx(0.5)

    def test_constant(self):
        schedule = constant(0.2)
        assert schedule(1) == schedule(100) == 0.2

    def test_inverse_time(self):
        schedule = inverse_time(1.0, 1.0)
        assert schedule(1) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "factory", [inverse_sqrt, constant, inverse_time]
    )
    def test_t_starts_at_one(self, factory):
        with pytest.raises(ValueError):
            factory()(0)

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            inverse_sqrt(0.0)
        with pytest.raises(ValueError):
            constant(-1.0)
        with pytest.raises(ValueError):
            inverse_time(1.0, 0.0)


class TestHelpers:
    def test_clip_gradients(self):
        out = clip_gradients(np.array([-3.0, 0.5, 2.0]), 1.0)
        assert np.array_equal(out, [-1.0, 0.5, 1.0])

    def test_clip_bound_validated(self):
        with pytest.raises(ValueError):
            clip_gradients(np.zeros(3), 0.0)

    def test_default_group_size_monotone_in_d(self):
        # Small n so the d log d / eps^2 term dominates the n/50 floor.
        assert default_group_size(50, 1.0, 1_000) > default_group_size(
            5, 1.0, 1_000
        )

    def test_default_group_size_shrinks_with_eps(self):
        assert default_group_size(20, 4.0, 1_000) < default_group_size(
            20, 0.5, 1_000
        )

    def test_default_group_size_floor_at_scale(self):
        # At large n the n/50 floor keeps iteration noise manageable.
        assert default_group_size(5, 4.0, 10**6) == 20_000

    def test_default_group_size_capped_at_n(self):
        assert default_group_size(100, 0.1, 500) == 500


class TestNonPrivateTrainer:
    def test_recovers_linear_signal(self, rng):
        x, y, beta_true = _linear_data(rng)
        trainer = NonPrivateSGDTrainer("linear", regularization=0.0,
                                       schedule=inverse_sqrt(0.3))
        beta = trainer.fit(x, y, rng)
        assert np.allclose(beta, beta_true, atol=0.1)

    def test_separable_classification(self, rng):
        x, y = _separable_data(rng)
        trainer = NonPrivateSGDTrainer("svm", schedule=inverse_sqrt(1.0))
        beta = trainer.fit(x, y, rng)
        accuracy = np.mean(np.where(x @ beta >= 0, 1.0, -1.0) == y)
        assert accuracy > 0.95

    def test_binary_labels_validated(self, rng):
        trainer = NonPrivateSGDTrainer("logistic")
        with pytest.raises(ValueError, match="labels"):
            trainer.fit(np.zeros((10, 2)), np.linspace(0, 1, 10), rng)

    def test_history_recorded(self, rng):
        x, y, _ = _linear_data(rng, n=640)
        trainer = NonPrivateSGDTrainer(
            "linear", group_size=64, record_history=True
        )
        trainer.fit(x, y, rng)
        assert trainer.history.iterations == 10
        assert len(trainer.history.betas) == 10
        assert trainer.history.learning_rates[0] > (
            trainer.history.learning_rates[-1]
        )

    def test_empty_x_rejected(self, rng):
        trainer = NonPrivateSGDTrainer("linear")
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((0, 3)), np.zeros(0), rng)

    def test_bad_group_size(self):
        with pytest.raises(ValueError):
            NonPrivateSGDTrainer("linear", group_size=0)

    def test_negative_regularization_rejected(self):
        with pytest.raises(ValueError):
            NonPrivateSGDTrainer("linear", regularization=-0.1)


class TestLDPTrainer:
    @pytest.mark.parametrize("method", ["pm", "hm", "duchi", "laplace"])
    def test_all_methods_run(self, method, rng):
        x, y, _ = _linear_data(rng, n=2_000)
        trainer = LDPSGDTrainer("linear", epsilon=4.0, method=method,
                                group_size=200)
        beta = trainer.fit(x, y, rng)
        assert beta.shape == (4,)
        assert np.all(np.isfinite(beta))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            LDPSGDTrainer("linear", epsilon=1.0, method="exponential")

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            LDPSGDTrainer("linear", epsilon=-1.0)

    def test_bad_clip_bound_rejected(self):
        with pytest.raises(ValueError):
            LDPSGDTrainer("linear", epsilon=1.0, clip_bound=0.0)

    def test_learns_signal_at_large_eps(self, rng):
        x, y, beta_true = _linear_data(rng, n=40_000)
        trainer = LDPSGDTrainer(
            "linear", epsilon=8.0, method="hm", schedule=inverse_sqrt(0.3)
        )
        beta = trainer.fit(x, y, rng)
        # Direction of the solution should align with the truth.
        cosine = beta @ beta_true / (
            np.linalg.norm(beta) * np.linalg.norm(beta_true)
        )
        assert cosine > 0.8

    def test_noisier_at_smaller_eps(self, rng):
        """Final-model quality degrades monotonically-ish with eps; test
        the two extremes to avoid flakiness."""
        x, y, beta_true = _linear_data(rng, n=30_000)

        def error(eps):
            trainer = LDPSGDTrainer("linear", epsilon=eps, method="hm")
            beta = trainer.fit(x, y, np.random.default_rng(5))
            return float(np.linalg.norm(beta - beta_true))

        assert error(8.0) < error(0.2)

    def test_each_user_participates_once(self, rng):
        """n // group iterations exactly — users are never reused."""
        x, y, _ = _linear_data(rng, n=1_000)
        trainer = LDPSGDTrainer(
            "linear",
            epsilon=1.0,
            group_size=300,
            record_history=True,
        )
        trainer.fit(x, y, rng)
        assert trainer.history.iterations == 3  # 1000 // 300

    def test_group_size_default_used(self, rng):
        x, y, _ = _linear_data(rng, n=5_000)
        trainer = LDPSGDTrainer("linear", epsilon=1.0, record_history=True)
        trainer.fit(x, y, rng)
        expected = 5_000 // default_group_size(4, 1.0, 5_000)
        assert trainer.history.iterations == expected

    @pytest.mark.parametrize("method", ["pm", "hm", "duchi", "laplace"])
    def test_refit_with_different_dimension(self, method, rng):
        """Regression: the perturber was cached across fits, so a refit
        on data with a different p crashed pm/hm with a shape error and
        silently kept laplace's old epsilon/p per-coordinate budget."""
        trainer = LDPSGDTrainer(
            "linear", epsilon=4.0, method=method, group_size=200
        )
        x1, y1, _ = _linear_data(rng, n=1_000, p=4)
        assert trainer.fit(x1, y1, rng).shape == (4,)

        x2 = rng.uniform(-1, 1, (1_000, 2))
        y2 = np.clip(x2 @ np.array([0.4, -0.2]), -1, 1)
        beta2 = trainer.fit(x2, y2, rng)
        assert beta2.shape == (2,)
        assert np.all(np.isfinite(beta2))

    def test_refit_rebuilds_laplace_budget(self, rng):
        """The per-coordinate Laplace budget must be epsilon/p for the
        *current* p — keeping the stale value is a privacy-accounting
        bug (refit to smaller p would keep a too-small budget; larger p
        would overspend epsilon)."""
        trainer = LDPSGDTrainer(
            "linear", epsilon=2.0, method="laplace", group_size=200
        )
        x1, y1, _ = _linear_data(rng, n=600, p=4)
        trainer.fit(x1, y1, rng)
        assert trainer._collector.epsilon == pytest.approx(2.0 / 4)

        x2 = rng.uniform(-1, 1, (600, 2))
        y2 = np.clip(x2 @ np.array([0.4, -0.2]), -1, 1)
        trainer.fit(x2, y2, rng)
        assert trainer._collector.epsilon == pytest.approx(2.0 / 2)

    @pytest.mark.parametrize("method", ["pm", "hm"])
    def test_refit_rebuilds_collector_dimension(self, method, rng):
        trainer = LDPSGDTrainer(
            "linear", epsilon=4.0, method=method, group_size=200
        )
        x1, y1, _ = _linear_data(rng, n=600, p=4)
        trainer.fit(x1, y1, rng)
        assert trainer._collector.collector.d == 4

        x2 = rng.uniform(-1, 1, (600, 3))
        y2 = np.clip(x2 @ np.array([0.4, -0.2, 0.1]), -1, 1)
        trainer.fit(x2, y2, rng)
        assert trainer._collector.collector.d == 3

    def test_refit_rebuilds_duchi_dimension(self, rng):
        trainer = LDPSGDTrainer(
            "linear", epsilon=4.0, method="duchi", group_size=200
        )
        x1, y1, _ = _linear_data(rng, n=600, p=4)
        trainer.fit(x1, y1, rng)
        assert trainer._collector.d == 4

        x2 = rng.uniform(-1, 1, (600, 2))
        y2 = np.clip(x2 @ np.array([0.4, -0.2]), -1, 1)
        trainer.fit(x2, y2, rng)
        assert trainer._collector.d == 2

    def test_default_inline_path_matches_pre_runtime_reference(self):
        """With the default knobs the trainer consumes the rng exactly
        as the pre-runtime implementation did, so seeded fits are
        reproducible across versions.  The reference below is the old
        _mean_gradient body verbatim (encode_batch + a fresh
        MultidimMeanAccumulator per iteration)."""
        from repro.protocol.accumulators import MultidimMeanAccumulator
        from repro.sgd.trainer import clip_gradients

        class PreRuntimeTrainer(LDPSGDTrainer):
            def _mean_gradient(self, beta, x, y, gen):
                grads = self._regularized_gradients(beta, x, y)
                clipped = (
                    clip_gradients(grads, self.clip_bound) / self.clip_bound
                )
                p = clipped.shape[1]
                if self._collector is None:
                    self._collector = self._build_perturber(p)
                reports = self._collector.encode_batch(clipped, gen)
                noisy_mean = (
                    MultidimMeanAccumulator(p).absorb(reports).estimate()
                )
                return self.clip_bound * noisy_mean

        rng = np.random.default_rng(8)
        x, y, _ = _linear_data(rng, n=1_000)
        new = LDPSGDTrainer(
            "linear", epsilon=4.0, method="hm", group_size=250
        ).fit(x, y, np.random.default_rng(77))
        reference = PreRuntimeTrainer(
            "linear", epsilon=4.0, method="hm", group_size=250
        ).fit(x, y, np.random.default_rng(77))
        assert np.array_equal(new, reference)

    def test_gradient_clipping_applied(self, rng):
        """With a huge initial residual the raw gradient exceeds 1; the
        perturbed mean gradient must stay bounded by the mechanism's
        output range times d/k."""
        x = np.ones((500, 2))
        y = -np.ones(500)
        trainer = LDPSGDTrainer(
            "linear", epsilon=1.0, method="pm", group_size=500
        )
        beta = trainer.fit(x, y, rng)
        assert np.all(np.isfinite(beta))
