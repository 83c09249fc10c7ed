"""Live heavy-hitter tracking over the frequency oracles.

:class:`HeavyHitterTracker` turns a stream of per-round frequency
estimates (the debiased vectors the frequency/histogram accumulators
already produce) into a top-k view with *churn detection*: which
categories entered and which dropped out of the top-k between
consecutive observed rounds.  It holds no raw reports — only category
indices and their estimated frequencies — so it lives on the
aggregator inside the QA201 server tier, importing accumulator output
shapes only.

Determinism: ties break by category index (stable argsort on the
negated frequencies), so two servers observing the same estimate
vector produce the same top-k, and the tracker's ``to_dict`` /
``from_dict`` round-trip restores churn state bitwise across
kill-and-resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np


@dataclass(frozen=True)
class HeavyHitters:
    """One round's top-k view plus churn against the previous round.

    Attributes
    ----------
    round:
        The round this view describes (``None`` when the source
        accumulator carries no round, e.g. an all-time estimate).
    k:
        Requested list length; ``indices`` may be shorter when fewer
        than ``k`` categories have positive estimated frequency.
    indices / frequencies:
        Top categories, most frequent first, with their estimates.
    entered / exited:
        Categories that joined, respectively left, the top-k since the
        previously observed round (ascending index order).  Both empty
        on the first observation.
    """

    round: Optional[int]
    k: int
    indices: List[int] = field(default_factory=list)
    frequencies: List[float] = field(default_factory=list)
    entered: List[int] = field(default_factory=list)
    exited: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "round": self.round,
            "k": self.k,
            "indices": list(self.indices),
            "frequencies": [float(f) for f in self.frequencies],
            "entered": list(self.entered),
            "exited": list(self.exited),
        }


def top_k(frequencies: Any, k: int) -> List[int]:
    """Indices of the ``k`` largest positive frequencies, descending.

    Stable argsort on the negated vector: equal frequencies rank by
    ascending category index, deterministically.  Non-positive
    estimates are never heavy hitters (debiasing can push absent
    categories below zero), so the result may be shorter than ``k``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    freqs = np.asarray(frequencies, dtype=float).ravel()
    order = np.argsort(-freqs, kind="stable")[: int(k)]
    return [int(i) for i in order if freqs[i] > 0.0]


class HeavyHitterTracker:
    """Top-k with churn detection between consecutive observations.

    Feed it one frequency-estimate vector per round via
    :meth:`update`; it remembers the previous round's top-k so each
    call reports which categories entered and exited.  Re-observing
    the *same* round (e.g. a second poll before new data arrives)
    refreshes the current view without shifting the churn baseline.
    """

    def __init__(self, k: int = 10) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self._round: Optional[int] = None
        self._current: List[int] = []
        self._previous: List[int] = []
        self._observed = False

    def update(
        self,
        frequencies: Any,
        round_: Optional[int] = None,
        k: Optional[int] = None,
    ) -> HeavyHitters:
        """Observe one round's frequency estimate; return the view.

        Rounds must be observed in non-decreasing order; an older round
        raises (the baseline has already moved past it).  ``k``
        overrides the tracker default for this call only — churn is
        still computed against the stored baseline list.
        """
        want = self.k if k is None else int(k)
        top = top_k(frequencies, want)
        if round_ is not None and self._round is not None:
            if round_ < self._round:
                raise ValueError(
                    f"round {round_} is older than the last observed "
                    f"round {self._round}"
                )
        advanced = (
            round_ is None
            or self._round is None
            or round_ > self._round
        )
        first = not self._observed
        if advanced and not first:
            self._previous = self._current
        baseline = set(self._previous)
        entered = [] if first else sorted(set(top) - baseline)
        exited = [] if first else sorted(baseline - set(top))
        self._current = top
        self._observed = True
        if round_ is not None:
            self._round = int(round_)
        return HeavyHitters(
            round=self._round,
            k=want,
            indices=top,
            frequencies=[
                float(np.asarray(frequencies, dtype=float).ravel()[i])
                for i in top
            ],
            entered=entered,
            exited=exited,
        )

    # ------------------------------------------------------------------
    # Snapshots (persisted in the campaign manifest)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "k": self.k,
            "round": self._round,
            "current": list(self._current),
            "previous": list(self._previous),
            "observed": self._observed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HeavyHitterTracker":
        tracker = cls(k=int(payload.get("k", 10)))
        round_ = payload.get("round")
        tracker._round = int(round_) if round_ is not None else None
        tracker._current = [int(i) for i in payload.get("current", [])]
        tracker._previous = [int(i) for i in payload.get("previous", [])]
        tracker._observed = bool(payload.get("observed", tracker._round is not None or bool(tracker._current)))
        return tracker

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeavyHitterTracker(k={self.k}, round={self._round}, "
            f"current={self._current})"
        )
