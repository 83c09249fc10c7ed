"""Deterministic shard planning for parallel protocol runs.

A :class:`ShardPlan` splits an n-user workload into ``num_shards``
contiguous user ranges and assigns each range an independent random
stream spawned from one root :class:`numpy.random.SeedSequence`.  The
plan — not the executor — owns all randomness, which yields the
runtime's central guarantee:

    **The result of a planned run depends only on the plan, never on
    how it is executed.**  Serial and thread-pool execution of the
    same plan produce identical reports, because shard i always
    encodes users ``[start_i, stop_i)`` with the generator seeded by
    spawn key i, and accumulators are merged in shard order.

Changing ``num_shards`` (or ``batch_size``, for protocols whose
encoders draw data-dependent numbers of variates) changes which random
variates each user receives — runs are comparable *statistically*, not
bitwise, across different plans.  Fix the plan, vary the workers.

Plans are plain data: :meth:`ShardPlan.to_dict` is a JSON-safe record
of one, from which ``ShardPlan(**payload)`` rebuilds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Shard:
    """One contiguous chunk of a planned workload.

    Attributes
    ----------
    index:
        Position of this shard in the plan; merge order follows it.
    start, stop:
        Half-open user range ``[start, stop)`` this shard covers.
    seed_sequence:
        The spawned child :class:`numpy.random.SeedSequence` owning this
        shard's random stream.
    """

    index: int
    start: int
    stop: int
    seed_sequence: np.random.SeedSequence

    @property
    def size(self) -> int:
        """Number of users in this shard (may be 0 when num_shards > n)."""
        return self.stop - self.start

    def rng(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this shard's stream."""
        return np.random.default_rng(self.seed_sequence)


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic split of an n-user workload into shards.

    Parameters
    ----------
    n:
        Total number of users in the workload.
    num_shards:
        Number of contiguous chunks; shard sizes differ by at most one
        (the first ``n % num_shards`` shards get the extra user).  More
        shards than users is allowed — trailing shards are empty, and
        empty batches are a protocol-layer no-op.
    seed:
        Entropy for the root :class:`numpy.random.SeedSequence`; the
        per-shard streams are ``SeedSequence(seed).spawn(num_shards)``.
    batch_size:
        Optional bound on how many users a shard encodes per
        ``encode_batch`` call, capping worker memory at
        O(batch_size * report size).  Part of the plan because encoders
        whose draw counts are data-dependent consume their stream
        differently under different batchings.
    """

    n: int
    num_shards: int
    seed: int
    batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if self.num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1 or None, got {self.batch_size}"
            )

    # ------------------------------------------------------------------
    def shards(self) -> Tuple[Shard, ...]:
        """The shards, in merge order, each with its spawned stream."""
        children = np.random.SeedSequence(self.seed).spawn(self.num_shards)
        base, extra = divmod(self.n, self.num_shards)
        shards = []
        start = 0
        for i, child in enumerate(children):
            stop = start + base + (1 if i < extra else 0)
            shards.append(
                Shard(index=i, start=start, stop=stop, seed_sequence=child)
            )
            start = stop
        return tuple(shards)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe description; ``ShardPlan(**plan.to_dict())`` is
        the same plan."""
        return {
            "n": self.n,
            "num_shards": self.num_shards,
            "seed": self.seed,
            "batch_size": self.batch_size,
        }
