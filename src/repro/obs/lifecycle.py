"""Graceful-drain lifecycle: the drain ladder and its receipt.

Production shutdown is a *sequence*, not an event: stop admitting new
work, finish what is in flight, persist state, then exit 0 so the
orchestrator knows the stop was clean.  This module holds the generic
half of that sequence — the service layer owns the specific steps
(answer ``POST /report`` with 503, write the final checkpoint), see
:meth:`repro.service.server.IngestionServer.drain`, and the entrypoint
owns the signals: ``python -m repro.service`` drains on SIGTERM and
SIGINT alike, through one loop-level handler.

The contract that makes drain *graceful* rather than merely polite:
the snapshot a drained server leaves behind is **bitwise-equal** to
the one an uninterrupted server would write after the same accepted
batches.  Drain adds no state of its own — it only stops admission and
runs the same checkpoint path early.

:class:`DrainState` is the three-step ladder (serving → draining →
drained; strictly forward) and :class:`DrainResult` is the receipt the
drain path returns (what was persisted, how long it took).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["DrainResult", "DrainState"]


class DrainState(enum.Enum):
    """Where a service is on the shutdown ladder (strictly forward)."""

    SERVING = "serving"
    DRAINING = "draining"
    DRAINED = "drained"


_ORDER = [DrainState.SERVING, DrainState.DRAINING, DrainState.DRAINED]


def advance(current: DrainState, target: DrainState) -> DrainState:
    """Move down the ladder; backwards moves raise (idempotent on
    same-state)."""
    if _ORDER.index(target) < _ORDER.index(current):
        raise ValueError(
            f"cannot move from {current.value} back to {target.value}"
        )
    return target


@dataclass(frozen=True)
class DrainResult:
    """Receipt for one completed drain.

    ``checkpoint_seq`` is ``None`` when the server runs without a
    snapshot store (nothing durable to write).
    """

    checkpoint_seq: Optional[int]
    batches_accepted: int
    seconds: float

