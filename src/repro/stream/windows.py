"""Sliding-window accumulation: ring-buffer panes over ``merge()``.

A :class:`WindowedAccumulator` time-buckets absorbs into *panes* — one
ordinary :class:`~repro.protocol.accumulators.ServerAccumulator` per
round — and keeps the most recent ``panes`` of them in a ring.  A
window query merges the in-window panes (ascending round order) into a
fresh accumulator with the bitwise-tested ``merge()``, so the windowed
estimate is exactly what recomputing from only those panes' reports
would produce.  Panes evicted off the ring are folded into one
``expired`` tail accumulator, so the all-time ``estimate()`` keeps the
classic semantics and v1 (window-unaware) clients see no change.

Rounds are explicit small integers carried on the wire envelope (the
deterministic, testable clock); :attr:`WindowConfig.pane_seconds` only
maps human duration strings (``"90s"``, ``"5m"``) onto a pane count at
query time.  Reports with no round land in the current (latest) round.

Determinism: pane membership is exact (integral round arithmetic), the
ring evicts and merges in ascending round order, and the pane merge
tree folds in fixed order — so snapshots (``state_dict`` holds every
pane plus the expired tail) resume bitwise, sharded or not.

The exponentially-decayed variant
(:class:`DecayedWindowedAccumulator`, or
:meth:`WindowedAccumulator.decayed_estimate`) reweights pane estimates
by ``decay ** age`` — supported for the protocol kinds whose estimate
is linear in the sufficient statistics (mean, multidim means,
frequency).

This module runs on the aggregator and is held to the QA201 privacy
boundary: it imports accumulators only, never encoders or mechanisms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.protocol.accumulators import ServerAccumulator
from repro.protocol.reports import ColumnBlock, to_block

#: Duration suffixes accepted by :func:`parse_duration`, in seconds.
_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([smhd]?)\s*$")


def parse_duration(text: str) -> float:
    """Seconds from a human duration string (``"90s"``, ``"5m"``,
    ``"2h"``, ``"1d"``; a bare number means seconds)."""
    match = _DURATION_RE.match(str(text))
    if match is None:
        raise ValueError(
            f"cannot parse duration {text!r}; use e.g. '90s', '5m', '2h'"
        )
    value = float(match.group(1))
    unit = match.group(2) or "s"
    return value * _DURATION_UNITS[unit]


@dataclass(frozen=True)
class WindowConfig:
    """Per-campaign window configuration.

    Parameters
    ----------
    panes:
        Ring size — how many most-recent rounds stay individually
        queryable.  Older panes fold into the expired tail (still
        counted by the all-time estimate).
    pane_seconds:
        Wall-clock width of one pane, used only to translate duration
        strings in ``GET /estimate?window=90s`` into a pane count.
        ``None`` restricts window queries to explicit pane counts.
    decay:
        When set, campaign accumulators are built as
        :class:`DecayedWindowedAccumulator` with this per-pane decay
        factor (their default ``estimate()`` is the decayed one).
    """

    panes: int
    pane_seconds: Optional[float] = None
    decay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.panes < 1:
            raise ValueError(f"panes must be >= 1, got {self.panes}")
        if self.pane_seconds is not None and self.pane_seconds <= 0:
            raise ValueError(
                f"pane_seconds must be > 0, got {self.pane_seconds}"
            )
        if self.decay is not None and not 0.0 < self.decay <= 1.0:
            raise ValueError(
                f"decay must lie in (0, 1], got {self.decay}"
            )

    # ------------------------------------------------------------------
    def build(
        self, factory: Callable[[], ServerAccumulator]
    ) -> "WindowedAccumulator":
        """A fresh windowed accumulator over ``factory``-built panes."""
        if self.decay is not None:
            return DecayedWindowedAccumulator(
                factory,
                panes=self.panes,
                pane_seconds=self.pane_seconds,
                decay=self.decay,
            )
        return WindowedAccumulator(
            factory, panes=self.panes, pane_seconds=self.pane_seconds
        )

    def resolve_panes(self, window: Optional[str]) -> int:
        """Pane count for one ``?window=`` query value.

        ``None`` (or empty) means the full ring; a bare integer is a
        pane count; anything with a duration suffix needs
        :attr:`pane_seconds` to convert.  The result is clamped to
        ``[1, panes]`` — the ring cannot answer further back.
        """
        if window is None or str(window).strip() == "":
            return self.panes
        text = str(window).strip()
        try:
            count = int(text)
        except ValueError:
            seconds = parse_duration(text)
            if self.pane_seconds is None:
                raise ValueError(
                    f"window {text!r} is a duration but this campaign "
                    f"has no pane_seconds configured; pass a pane count"
                ) from None
            count = max(1, math.ceil(seconds / self.pane_seconds))
        if count < 1:
            raise ValueError(f"window must cover >= 1 pane, got {count}")
        return min(count, self.panes)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "panes": self.panes,
            "pane_seconds": self.pane_seconds,
            "decay": self.decay,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WindowConfig":
        return cls(
            panes=int(payload["panes"]),
            pane_seconds=(
                float(payload["pane_seconds"])
                if payload.get("pane_seconds") is not None
                else None
            ),
            decay=(
                float(payload["decay"])
                if payload.get("decay") is not None
                else None
            ),
        )


class WindowedAccumulator(ServerAccumulator):
    """Ring-buffer of per-round pane accumulators plus an expired tail.

    Wraps any accumulator ``factory`` (typically
    ``protocol.server``) — panes, the expired tail, the merge scratch
    for window queries and the parsing template are all built from
    it, so the windowed accumulator inherits the wrapped protocol's
    parse, merge compatibility checks and estimate shape.

    Mutable state is exactly ``_ring`` (round -> pane accumulator),
    ``_latest`` (highest round seen) and ``_expired`` (tail
    accumulator, ``None`` until the first eviction); all three
    round-trip through :meth:`state_dict`/:meth:`load_state` bitwise.
    """

    def __init__(
        self,
        factory: Callable[[], ServerAccumulator],
        panes: int,
        pane_seconds: Optional[float] = None,
    ) -> None:
        if panes < 1:
            raise ValueError(f"panes must be >= 1, got {panes}")
        self.factory = factory
        self.panes = int(panes)
        self.pane_seconds = (
            float(pane_seconds) if pane_seconds is not None else None
        )
        # Immutable helper (never folds): parses every batch, so a
        # batch is checked before any pane is touched.
        self.template = factory()
        self._ring: Dict[int, ServerAccumulator] = {}
        self._latest: Optional[int] = None
        self._expired: Optional[ServerAccumulator] = None

    # ------------------------------------------------------------------
    # Round bookkeeping
    # ------------------------------------------------------------------
    @property
    def latest_round(self) -> Optional[int]:
        """Highest round absorbed so far (``None`` before any data)."""
        return self._latest

    @property
    def current_round(self) -> int:
        """Where a round-less absorb lands (latest seen, else 0)."""
        return self._latest if self._latest is not None else 0

    def live_rounds(self) -> List[int]:
        """Rounds currently held in the ring, ascending."""
        return sorted(self._ring)

    def pane_counts(self) -> Dict[int, int]:
        """Reports per live pane, by round (ascending insertion)."""
        return {r: int(self._ring[r].count) for r in sorted(self._ring)}

    def _expired_tail(self) -> ServerAccumulator:
        if self._expired is None:
            self._expired = self.factory()
        return self._expired

    def _advance(self, round_: int) -> None:
        """Move ``latest`` up to ``round_``; evict panes that fall off
        the ring into the expired tail, in ascending round order."""
        if self._latest is None or round_ > self._latest:
            self._latest = round_
        floor = self._latest - self.panes
        for r in sorted(self._ring):
            if r <= floor:
                self._expired_tail().merge(self._ring.pop(r))

    def _pane(self, round_: int) -> ServerAccumulator:
        pane = self._ring.get(round_)
        if pane is None:
            pane = self.factory()
            self._ring[round_] = pane
        return pane

    @staticmethod
    def _check_round(round_: Any) -> int:
        r = int(round_)
        if r < 0:
            raise ValueError(f"round must be >= 0, got {round_}")
        return r

    def _is_expired(self, round_: int) -> bool:
        return (
            self._latest is not None and round_ <= self._latest - self.panes
        )

    # ------------------------------------------------------------------
    # Absorption: the template parses, a pane (or the tail) folds
    # ------------------------------------------------------------------
    def _parse(self, block: ColumnBlock) -> Any:
        return self.template._parse(block)

    def _fold(self, parsed: Any) -> None:
        """Round-less absorb (v1 clients): lands in the current round."""
        self._fold_round(self.current_round, parsed)

    def absorb_round(self, round_: Any, batch: Any) -> "WindowedAccumulator":
        """Fold one batch into the pane for ``round_``.

        A round older than the ring floor is a *late arrival*: it folds
        into the expired tail (so the all-time estimate stays exact)
        and never appears in a window — the same answer recomputing the
        window from only in-window reports would give.
        """
        r = self._check_round(round_)
        self._fold_round(r, self._parse(to_block(batch)))
        return self

    def _fold_round(self, r: int, parsed: Any) -> None:
        if self._is_expired(r):
            self._expired_tail()._fold(parsed)
            return
        self._pane(r)._fold(parsed)
        self._advance(r)

    # ------------------------------------------------------------------
    # Merge (shard fan-in) and estimates
    # ------------------------------------------------------------------
    def merge(self, other: "ServerAccumulator") -> "WindowedAccumulator":
        """Fold another windowed accumulator in, aligning rounds.

        Expired tails merge first, then the other ring's panes in
        ascending round order — fixed order, so the sharded fan-in is
        deterministic (and exact for integral counts).
        """
        if not isinstance(other, WindowedAccumulator):
            raise ValueError(
                f"cannot merge {type(other).__name__} into "
                f"WindowedAccumulator"
            )
        if other.panes != self.panes:
            raise ValueError(
                f"cannot merge windows of different ring sizes "
                f"({other.panes} vs {self.panes})"
            )
        if other._expired is not None:
            self._expired_tail().merge(other._expired)
        for r in sorted(other._ring):
            pane = other._ring[r]
            if self._is_expired(r):
                self._expired_tail().merge(pane)
                continue
            self._pane(r).merge(pane)
            self._advance(r)
        return self

    @property
    def count(self) -> int:
        total = sum(int(p.count) for p in self._ring.values())
        if self._expired is not None:
            total += int(self._expired.count)
        return total

    def _window_rounds(self, n_panes: int) -> List[int]:
        if n_panes < 1:
            raise ValueError(f"window must cover >= 1 pane, got {n_panes}")
        if self._latest is None:
            return []
        floor = self._latest - min(int(n_panes), self.panes)
        return [r for r in sorted(self._ring) if r > floor]

    def window_count(self, n_panes: Optional[int] = None) -> int:
        """Reports inside the last ``n_panes`` rounds (default: ring)."""
        n = self.panes if n_panes is None else int(n_panes)
        return sum(int(self._ring[r].count) for r in self._window_rounds(n))

    def window_accumulator(
        self, n_panes: Optional[int] = None
    ) -> ServerAccumulator:
        """Fresh accumulator holding exactly the in-window panes.

        The pane merge tree: in-window panes fold into a
        ``factory()``-fresh accumulator in ascending round order —
        bitwise-equal to absorbing only those panes' reports into a
        fresh accumulator in the same per-pane order.
        """
        n = self.panes if n_panes is None else int(n_panes)
        merged = self.factory()
        for r in self._window_rounds(n):
            merged.merge(self._ring[r])
        return merged

    def window_estimate(self, n_panes: Optional[int] = None) -> Any:
        """Estimate over the last ``n_panes`` rounds only."""
        merged = self.window_accumulator(n_panes)
        if merged.count == 0:
            raise ValueError("no reports in window")
        return merged.estimate()

    def estimate(self) -> Any:
        """All-time estimate: expired tail plus every live pane."""
        merged = self.factory()
        if self._expired is not None:
            merged.merge(self._expired)
        for r in sorted(self._ring):
            merged.merge(self._ring[r])
        if merged.count == 0:
            raise ValueError("no reports received yet")
        return merged.estimate()

    def decayed_estimate(
        self, decay: float, n_panes: Optional[int] = None
    ) -> Any:
        """Exponentially-decayed estimate over the live panes.

        Pane ``r`` (age ``latest - r``) contributes with weight
        ``decay ** age * count_r`` — the convex combination of pane
        estimates that equals reweighting each pane's *sufficient
        statistics* by ``decay ** age``, for every protocol kind whose
        estimate is linear in them (mean, multidim means, frequency).
        Non-linear estimates (histogram projection, mixed tuples) are
        rejected with ``TypeError``.
        """
        if not 0.0 < float(decay) <= 1.0:
            raise ValueError(f"decay must lie in (0, 1], got {decay}")
        rounds = [
            r for r in self._window_rounds(
                self.panes if n_panes is None else n_panes
            )
            if self._ring[r].count > 0
        ]
        if not rounds:
            raise ValueError("no reports in window")
        assert self._latest is not None
        total = 0.0
        combined: Any = None
        for r in rounds:
            pane = self._ring[r]
            value = pane.estimate()
            if not isinstance(value, (int, float, np.floating, np.ndarray)):
                raise TypeError(
                    f"decayed estimates need a numeric estimate, got "
                    f"{type(value).__name__} — supported kinds: mean, "
                    f"multidim-numeric, frequency"
                )
            weight = float(decay) ** (self._latest - r) * float(pane.count)
            term = weight * np.asarray(value, dtype=float)
            combined = term if combined is None else combined + term
            total += weight
        result = combined / total
        return float(result) if np.ndim(result) == 0 else result

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        return {
            "ring": {
                str(r): self._ring[r].state_dict()
                for r in sorted(self._ring)
            },
            "latest": self._latest,
            "expired": (
                self._expired.state_dict()
                if self._expired is not None
                else None
            ),
        }

    def load_state(self, state: Dict) -> "WindowedAccumulator":
        ring: Dict[int, ServerAccumulator] = {}
        for key, pane_state in state["ring"].items():
            pane = self.factory()
            pane.load_state(pane_state)
            ring[int(key)] = pane
        latest = state["latest"]
        expired_state = state.get("expired")
        expired: Optional[ServerAccumulator] = None
        if expired_state is not None:
            expired = self.factory()
            expired.load_state(expired_state)
        self._ring = ring
        self._latest = int(latest) if latest is not None else None
        self._expired = expired
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(panes={self.panes}, "
            f"live={len(self._ring)}, latest={self._latest}, "
            f"count={self.count})"
        )


class DecayedWindowedAccumulator(WindowedAccumulator):
    """Windowed accumulator whose default estimate is the decayed one.

    Identical ring/pane state (snapshots interchange with the plain
    windowed class); only ``estimate()`` changes — it reweights live
    panes by ``decay ** age`` instead of the all-time merge.  Window
    and all-time queries remain available via
    :meth:`~WindowedAccumulator.window_estimate` and
    :meth:`all_time_estimate`.
    """

    def __init__(
        self,
        factory: Callable[[], ServerAccumulator],
        panes: int,
        pane_seconds: Optional[float] = None,
        decay: float = 0.9,
    ) -> None:
        super().__init__(factory, panes=panes, pane_seconds=pane_seconds)
        if not 0.0 < float(decay) <= 1.0:
            raise ValueError(f"decay must lie in (0, 1], got {decay}")
        self.decay = float(decay)

    def all_time_estimate(self) -> Any:
        """The undecayed all-time estimate (expired tail + panes)."""
        return super().estimate()

    def estimate(self) -> Any:
        return self.decayed_estimate(self.decay)
