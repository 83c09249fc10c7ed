"""Sharded and parallel execution of LDP protocols.

PR 1 made every protocol's server state mergeable; this package is the
engine that exploits it at scale:

* :class:`~repro.runtime.plan.ShardPlan` — deterministic split of an
  n-user workload into shards with independent SeedSequence-spawned
  random streams; ``to_dict`` records it as JSON.
* :class:`~repro.runtime.runner.ParallelRunner` /
  :func:`~repro.runtime.runner.run_sharded` — execute a plan serially
  or on a thread pool; workers return accumulator state, the driver
  merges in shard order.  Results depend only on the plan, never on
  the executor or worker count.
* :func:`~repro.runtime.runner.run_inline` — the one-shard in-process
  path (bitwise-compatible with ``Protocol.run``) that the experiment
  harnesses and the LDP-SGD trainer route through.

Reports that arrive over time go through the service
(``python -m repro.service --window ...``), not this package.  See
DESIGN.md ("The sharded runtime") for the determinism model.
"""

from repro.runtime.plan import Shard, ShardPlan
from repro.runtime.runner import (
    EXECUTORS,
    ParallelRunner,
    run_auto,
    run_inline,
    run_sharded,
)

__all__ = [
    "EXECUTORS",
    "ParallelRunner",
    "Shard",
    "ShardPlan",
    "run_auto",
    "run_inline",
    "run_sharded",
]
