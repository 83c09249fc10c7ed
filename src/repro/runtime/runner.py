"""Parallel execution of a planned protocol run.

The driver/worker split mirrors the protocol's client/server split:

* each **worker** runs the stateless client encoder over its shard's
  users (in bounded batches) and folds the reports into a private
  :class:`~repro.protocol.accumulators.ServerAccumulator` — it ships
  back only that accumulator's sufficient statistics, never a report;
* the **driver** merges the returned accumulators in shard order and
  estimates once.

Because encoders are stateless and every shard owns an independent
SeedSequence-spawned stream (see :mod:`repro.runtime.plan`), the two
executors — ``"serial"`` and ``"thread"`` — produce identical
accumulator state for the same plan.

    from repro.runtime import ShardPlan, run_sharded

    protocol = Protocol.frequency(epsilon=1.0, domain=64)
    acc = run_sharded(protocol, values, num_shards=8, seed=2019,
                      executor="thread", max_workers=4)
    frequencies = acc.estimate()
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, cast

import numpy as np

from repro.protocol.accumulators import ServerAccumulator
from repro.runtime.plan import Shard, ShardPlan
from repro.utils.rng import RngLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.encoders import ClientEncoder

#: Executor names accepted by :class:`ParallelRunner`.
EXECUTORS = ("serial", "thread")


def _resolve_encoder(protocol_or_encoder: Any) -> "ClientEncoder":
    """Accept either a Protocol facade or a bare ClientEncoder."""
    client = getattr(protocol_or_encoder, "client", None)
    if callable(client):
        return client()
    return protocol_or_encoder


def _slice_workload(values: Any, start: int, stop: int) -> Any:
    """Extract users [start, stop) from any supported workload form.

    Supported: numpy arrays / anything sliceable (row range), objects
    with a ``subset(indices)`` method (e.g. :class:`repro.data.schema.
    Dataset`), or a loader callable ``values(start, stop) -> chunk``
    for workloads too large to materialize.
    """
    subset = getattr(values, "subset", None)
    if callable(subset):
        return subset(np.arange(start, stop))
    if callable(values):
        return values(start, stop)
    return values[start:stop]


class ParallelRunner:
    """Executes a :class:`ShardPlan` and merges the shard accumulators.

    Parameters
    ----------
    executor:
        ``"serial"`` (in-process loop) or ``"thread"``
        (:class:`~concurrent.futures.ThreadPoolExecutor` — shares
        memory, parallel where numpy releases the GIL).
    max_workers:
        Pool size for the thread executor; defaults to the number of
        shards in the plan being run.  Never affects results — only the
        plan does.
    """

    def __init__(self, executor: str = "serial",
                 max_workers: Optional[int] = None) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.executor = executor
        self.max_workers = max_workers

    # ------------------------------------------------------------------
    def _shard_accumulators(
        self, encoder: "ClientEncoder", values: Any, shards: Sequence[Shard],
        batch_size: Optional[int],
    ) -> List[ServerAccumulator]:
        """One accumulator per shard, in shard order.

        Chunks are sliced on the driver one shard at a time; the thread
        executor keeps at most ``workers`` chunks sliced and in flight,
        so driver memory stays O(workers * shard size) even for
        loader-callable workloads.
        """
        if self.executor == "serial":
            return [
                run_inline(
                    encoder,
                    _slice_workload(values, shard.start, shard.stop),
                    shard.rng(),
                    batch_size,
                )
                for shard in shards
            ]
        workers = self.max_workers or len(shards)
        results: List[Optional[ServerAccumulator]] = [None] * len(shards)
        pending: Dict[Any, int] = {}
        queue = iter(shards)
        with ThreadPoolExecutor(max_workers=workers) as pool:

            def submit_next() -> None:
                shard = next(queue, None)
                if shard is None:
                    return
                future = pool.submit(
                    run_inline,
                    encoder,
                    _slice_workload(values, shard.start, shard.stop),
                    shard.rng(),
                    batch_size,
                )
                pending[future] = shard.index

            for _ in range(min(workers, len(shards))):
                submit_next()
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    results[pending.pop(future)] = future.result()
                    submit_next()
        return cast(List[ServerAccumulator], results)

    def run(
        self, protocol_or_encoder: Any, values: Any, plan: ShardPlan
    ) -> ServerAccumulator:
        """Execute the plan; returns the merged accumulator.

        ``values`` must cover exactly ``plan.n`` users (checked
        whenever the workload exposes a length).  Accumulators are
        merged in shard-index order, so the result is independent of
        executor choice and worker count.
        """
        encoder = _resolve_encoder(protocol_or_encoder)
        try:
            size: Optional[int] = len(values)
        except TypeError:
            size = None  # loader callables carry no length
        if size is not None and size != plan.n:
            raise ValueError(
                f"workload has {size} users but the plan covers {plan.n}"
            )
        accumulators = self._shard_accumulators(
            encoder, values, plan.shards(), plan.batch_size
        )
        merged = encoder.new_accumulator()
        for acc in accumulators:
            merged.merge(acc)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelRunner(executor={self.executor!r}, "
            f"max_workers={self.max_workers})"
        )


# ----------------------------------------------------------------------
# Conveniences
# ----------------------------------------------------------------------
def run_inline(
    protocol_or_encoder: Any,
    values: Any,
    rng: RngLike = None,
    batch_size: Optional[int] = None,
) -> ServerAccumulator:
    """One-shard, in-process run consuming the caller's rng directly.

    With ``batch_size=None`` this is bitwise-identical to
    ``protocol.server().absorb(client.encode_batch(values, rng))`` —
    the single-machine paths (experiments, the LDP-SGD trainer) route
    through here so every collection in the repo flows through the
    runtime layer without changing any seeded result.
    """
    encoder = _resolve_encoder(protocol_or_encoder)
    gen = ensure_rng(rng)
    acc = encoder.new_accumulator()
    size = len(values)
    if size == 0:
        return acc
    if batch_size is None:
        return acc.absorb(encoder.encode_batch(values, gen))
    for lo in range(0, size, batch_size):
        acc.absorb(
            encoder.encode_batch(
                _slice_workload(values, lo, min(lo + batch_size, size)), gen
            )
        )
    return acc


def run_sharded(
    protocol_or_encoder: Any,
    values: Any,
    *,
    plan: Optional[ShardPlan] = None,
    num_shards: Optional[int] = None,
    seed: Optional[int] = None,
    batch_size: Optional[int] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
) -> ServerAccumulator:
    """Plan (if needed) and execute a sharded run; returns the merged
    accumulator.

    Pass an explicit ``plan``, or ``num_shards`` and ``seed`` to make
    one: a sharded run is always reproducible from its arguments.
    """
    if plan is None:
        if num_shards is None or seed is None:
            raise ValueError("pass either plan= or num_shards= and seed=")
        plan = ShardPlan(n=len(values), num_shards=num_shards,
                         seed=int(seed), batch_size=batch_size)
    else:
        if num_shards is not None and num_shards != plan.num_shards:
            raise ValueError(
                f"plan has {plan.num_shards} shards but num_shards="
                f"{num_shards} was also given"
            )
        if batch_size is not None and batch_size != plan.batch_size:
            raise ValueError(
                f"plan has batch_size={plan.batch_size} but batch_size="
                f"{batch_size} was also given"
            )
        if seed is not None:
            raise ValueError(
                "an explicit plan fixes all randomness; do not also "
                "pass seed="
            )
    runner = ParallelRunner(executor=executor, max_workers=max_workers)
    return runner.run(protocol_or_encoder, values, plan)
