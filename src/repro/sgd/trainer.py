"""LDP-compliant stochastic gradient descent (the paper's Section V).

Training loop:

1. Shuffle the n users; partition them into disjoint groups of size |G|
   (each user participates in at most one iteration — Section V proves
   that splitting a user's budget over m > 1 iterations only hurts).
2. At iteration t, every user in group G computes her gradient of
   l'(beta_t) = l(beta_t) + lambda/2 ||beta_t||^2, clips each entry to
   [-1, 1] ("gradient clipping"), and perturbs the d-dimensional gradient
   with Algorithm 4 (PM or HM inside) — or with a baseline perturbation
   (Duchi et al.'s Algorithm 3, or per-coordinate Laplace at eps/d).
3. The aggregator averages the noisy gradients and takes the step
   beta_{t+1} = beta_t - gamma_t * mean_gradient.

The non-private trainer runs the same loop without perturbation, which
is the "Non-private" line of Figs. 9-11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.duchi import DuchiMultidimMechanism
from repro.core.mechanism import get_mechanism
from repro.core.validation import check_epsilon
from repro.multidim.collector import MultidimNumericCollector
from repro.protocol.encoders import MultidimNumericEncoder
from repro.runtime import run_inline
from repro.sgd.losses import Loss, get_loss
from repro.sgd.schedules import Schedule, inverse_sqrt
from repro.utils.rng import RngLike, ensure_rng

#: Perturbation strategies accepted by LDPSGDTrainer.
GRADIENT_METHODS = ("pm", "hm", "duchi", "laplace")


def clip_gradients(gradients: np.ndarray, bound: float = 1.0) -> np.ndarray:
    """Entry-wise clipping to [-bound, bound] (the paper's choice)."""
    if bound <= 0:
        raise ValueError(f"clip bound must be positive, got {bound}")
    return np.clip(gradients, -bound, bound)


def default_group_size(d: int, epsilon: float, n: int) -> int:
    """The paper's guidance |G| = Omega(d log d / eps^2), capped to n.

    At the paper's scale (millions of users) the d log d / eps^2 term
    dominates; at laptop scale we additionally floor the group at n/50
    so that per-iteration gradient noise stays manageable.
    """
    raw = 1.2 * d * math.log(max(d, 2)) / epsilon**2
    return max(1, min(max(int(math.ceil(raw)), n // 50), n))


@dataclass
class TrainingHistory:
    """Per-iteration diagnostics recorded during a fit."""

    learning_rates: list = field(default_factory=list)
    gradient_norms: list = field(default_factory=list)
    betas: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.learning_rates)


class BaseSGDTrainer:
    """Shared loop for private and non-private SGD."""

    def __init__(
        self,
        loss,
        regularization: float = 1e-4,
        schedule: Optional[Schedule] = None,
        record_history: bool = False,
    ):
        self.loss: Loss = get_loss(loss) if isinstance(loss, str) else loss
        if regularization < 0:
            raise ValueError(
                f"regularization must be non-negative, got {regularization}"
            )
        self.regularization = float(regularization)
        self.schedule = schedule if schedule is not None else inverse_sqrt()
        self.record_history = record_history
        self.history: Optional[TrainingHistory] = None

    # ------------------------------------------------------------------
    def _check_xy(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("x must be a non-empty (n, p) matrix")
        if y.shape != (x.shape[0],):
            raise ValueError(f"y shape {y.shape} incompatible with x {x.shape}")
        if self.loss.binary_labels and not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError(
                f"{self.loss.name} loss requires labels in {{-1, +1}}"
            )
        return x, y

    def _regularized_gradients(self, beta, x, y) -> np.ndarray:
        grads = self.loss.gradient(beta, x, y)
        if self.regularization:
            grads = grads + self.regularization * beta[None, :]
        return grads

    def _mean_gradient(self, beta, x, y, gen) -> np.ndarray:
        raise NotImplementedError

    def _group_size(self, n: int, p: int) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def fit(self, x, y, rng: RngLike = None) -> np.ndarray:
        """Run the group-partitioned SGD loop; returns the final beta."""
        gen = ensure_rng(rng)
        x, y = self._check_xy(x, y)
        n, p = x.shape
        group = self._group_size(n, self.loss.parameter_dim(p))
        order = gen.permutation(n)
        beta = self.loss.initial_parameters(p, gen)
        self.history = TrainingHistory() if self.record_history else None

        iterations = n // group
        for t in range(1, iterations + 1):
            members = order[(t - 1) * group : t * group]
            mean_grad = self._mean_gradient(beta, x[members], y[members], gen)
            gamma = self.schedule(t)
            beta = beta - gamma * mean_grad
            if self.history is not None:
                self.history.learning_rates.append(gamma)
                self.history.gradient_norms.append(
                    float(np.linalg.norm(mean_grad))
                )
                self.history.betas.append(beta.copy())
        return beta


class NonPrivateSGDTrainer(BaseSGDTrainer):
    """The non-private reference line of Figs. 9-11."""

    def __init__(
        self,
        loss,
        regularization: float = 1e-4,
        schedule: Optional[Schedule] = None,
        group_size: int = 64,
        record_history: bool = False,
    ):
        super().__init__(loss, regularization, schedule, record_history)
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.group_size = int(group_size)

    def _group_size(self, n: int, p: int) -> int:
        return min(self.group_size, n)

    def _mean_gradient(self, beta, x, y, gen) -> np.ndarray:
        return self._regularized_gradients(beta, x, y).mean(axis=0)


class LDPSGDTrainer(BaseSGDTrainer):
    """SGD where each iteration's gradients are collected under eps-LDP.

    The per-iteration gradient collection is itself a client/server
    protocol: the "pm"/"hm" methods run through the protocol layer
    (:class:`repro.protocol.encoders.MultidimNumericEncoder` on the
    client side, :class:`repro.protocol.accumulators.MultidimMeanAccumulator`
    on the server side), so gradient reports travel in the compact
    sampled wire format rather than dense d-vectors.

    Parameters
    ----------
    loss:
        Loss name ('linear', 'logistic', 'svm') or a Loss instance.
    epsilon:
        Per-user privacy budget; consumed entirely in the single
        iteration the user participates in.
    method:
        'pm' / 'hm' perturb with Algorithm 4; 'duchi' with Algorithm 3;
        'laplace' with per-coordinate Laplace at eps/p.
    group_size:
        Users per iteration; defaults to the Section V guidance.
    clip_bound:
        Entry-wise gradient clipping bound (the paper clips to [-1, 1]).
    """

    def __init__(
        self,
        loss,
        epsilon: float,
        method: str = "hm",
        group_size: Optional[int] = None,
        regularization: float = 1e-4,
        schedule: Optional[Schedule] = None,
        clip_bound: float = 1.0,
        record_history: bool = False,
    ):
        super().__init__(loss, regularization, schedule, record_history)
        self.epsilon = check_epsilon(epsilon)
        if method not in GRADIENT_METHODS:
            raise ValueError(
                f"method must be one of {GRADIENT_METHODS}, got {method!r}"
            )
        self.method = method
        self.group_size = group_size
        if clip_bound <= 0:
            raise ValueError(f"clip_bound must be positive, got {clip_bound}")
        self.clip_bound = float(clip_bound)
        self._collector = None  # built lazily once p is known

    def _group_size(self, n: int, p: int) -> int:
        if self.group_size is not None:
            return min(int(self.group_size), n)
        return default_group_size(p, self.epsilon, n)

    def _build_perturber(self, p: int):
        if self.method in ("pm", "hm"):
            return MultidimNumericEncoder(
                MultidimNumericCollector(self.epsilon, p, self.method)
            )
        if self.method == "duchi":
            return DuchiMultidimMechanism(self.epsilon, p)
        return get_mechanism("laplace", self.epsilon / p)

    def fit(self, x, y, rng: RngLike = None) -> np.ndarray:
        # Rebuild the perturber for every fit: a cached one is sized for
        # the previous feature dimension p, so refitting on different
        # data would crash pm/hm with a shape error and — worse —
        # silently keep laplace's per-coordinate epsilon/p budget (a
        # privacy-accounting bug).
        self._collector = None
        return super().fit(x, y, rng)

    def _mean_gradient(self, beta, x, y, gen) -> np.ndarray:
        grads = self._regularized_gradients(beta, x, y)
        # Gradient clipping: every entry must lie in [-1, 1] before the
        # mechanisms see it (their domain requirement).
        clipped = clip_gradients(grads, self.clip_bound) / self.clip_bound
        p = clipped.shape[1]
        if self._collector is None:
            self._collector = self._build_perturber(p)
        if self.method in ("pm", "hm"):
            # The per-iteration collection is itself a protocol run.
            acc = run_inline(self._collector, clipped, gen)
            return self.clip_bound * acc.estimate()
        if self.method == "duchi":
            noisy = self._collector.privatize(clipped, gen)
        else:  # per-coordinate Laplace at eps/p
            noisy = self._collector.privatize(clipped.ravel(), gen).reshape(
                clipped.shape
            )
        return self.clip_bound * noisy.mean(axis=0)
