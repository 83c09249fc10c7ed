"""Sharded encode+absorb throughput through the parallel runtime.

For each workload the same :class:`repro.runtime.ShardPlan` is executed

* serially (the 1-worker baseline), and
* on a 4-worker thread pool,

in turn within each timing repeat, and the script records
reports/second, the speedup over the serial baseline, and — the
runtime's core guarantee — that the threaded run reproduces the serial
run's estimates (bitwise for the count-based frequency protocol; float
sums are also bitwise because merge order is fixed by shard index).  A
second section times the OLH support-count hot path and a per-value
loop of the verbatim ``%`` hash in turn, and checks the counts bitwise
equal, at two shapes: one domain value per block (n = 300,000 x
k = 64; 30,000 x 64 under ``--smoke``) and the served batch
(n = 2,000 x k = 1,024, as on perfbench's ``olh-wide``).

Results land in a JSON whose committed baseline is
``benchmarks/results/sharded_throughput_baseline.json``, with the
``cpu_count`` and ``git_sha`` it was measured at; CI runs ``--smoke``
on every push and uploads the JSON as an artifact.

Run:  PYTHONPATH=src python benchmarks/bench_sharded_throughput.py
      PYTHONPATH=src python benchmarks/bench_sharded_throughput.py --smoke

Note: the ≥2x speedup target at 4 workers requires >= 2 physical CPUs;
on fewer the script still verifies bitwise equivalence, records the
actual numbers and flags the hardware limit instead of failing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.frequency.olh import OptimizedLocalHashing  # noqa: E402
from repro.protocol import Protocol  # noqa: E402
from repro.runtime import ParallelRunner, ShardPlan  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "sharded_throughput_baseline.json"

NUM_SHARDS = 8
WORKERS = 4
SEED = 2019
TARGET_SPEEDUP = 2.0

#: SplitMix64 constants of the OLH hash, written out here so the
#: reference shares no code with the kernel it checks.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _workloads(n: int):
    rng = np.random.default_rng(0)
    return {
        "frequency-oue": {
            "protocol": Protocol.frequency(1.0, domain=32),
            "values": rng.integers(0, 32, n),
            "count_based": True,
        },
        "multidim-hm": {
            "protocol": Protocol.multidim(4.0, d=8, mechanism="hm"),
            "values": rng.uniform(-1, 1, (n, 8)),
            "count_based": False,
        },
    }


def _estimate_array(estimate):
    return np.atleast_1d(np.asarray(estimate, dtype=float))


def _best_of_interleaved(fns, repeats: int):
    """Best-of-``repeats`` seconds and the last result of each of
    ``fns``.  Every repeat times each side once, in alternating order,
    so a change in host load between repeats reaches all sides alike
    instead of deciding their ratio."""
    best, results = [float("inf")] * len(fns), [None] * len(fns)
    for r in range(repeats):
        order = range(len(fns)) if r % 2 == 0 else reversed(range(len(fns)))
        for i in order:
            start = time.perf_counter()
            results[i] = fns[i]()
            best[i] = min(best[i], time.perf_counter() - start)
    return best, results


def bench_workloads(n: int, batch_size: int, repeats: int) -> dict:
    plan = ShardPlan(n=n, num_shards=NUM_SHARDS, seed=SEED,
                     batch_size=batch_size)
    out = {}
    for name, spec in _workloads(n).items():
        protocol, values = spec["protocol"], spec["values"]
        runners = (
            ParallelRunner("serial"),
            ParallelRunner("thread", max_workers=WORKERS),
        )
        (serial_s, seconds), accs = _best_of_interleaved(
            [partial(r.run, protocol, values, plan) for r in runners],
            repeats,
        )
        reference, estimate = (
            _estimate_array(acc.estimate()) for acc in accs
        )
        entry = {
            "count_based": spec["count_based"],
            "serial": {
                "seconds": serial_s,
                "reports_per_second": n / serial_s,
            },
        }
        bitwise = bool(np.array_equal(estimate, reference))
        entry[f"thread_{WORKERS}workers"] = {
            "seconds": seconds,
            "reports_per_second": n / seconds,
            "speedup_vs_serial": serial_s / seconds,
            "bitwise_equal_to_serial": bitwise,
        }
        if not bitwise:
            raise AssertionError(
                f"{name}/thread: parallel estimates diverged from the "
                "serial run of the same plan"
            )
        entry["speedup_at_4_workers"] = serial_s / seconds
        out[name] = entry
    return {"plan": plan.to_dict(), "workloads": out}


def _modulo_hash(g: int, seeds, values):
    """The ``%``-based (seed, value) -> bucket hash, verbatim."""
    with np.errstate(over="ignore"):
        x = seeds.astype(np.uint64) + (
            values.astype(np.uint64) + np.uint64(1)
        ) * _GOLDEN
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return (x % np.uint64(g)).astype(np.int64)


def bench_olh_hot_path(n: int, k: int, repeats: int) -> dict:
    """Vectorized support counting vs a per-value ``%`` loop."""
    oracle = OptimizedLocalHashing(1.0, k=k)
    rng = np.random.default_rng(1)
    reports = oracle.privatize(rng.integers(0, k, n), rng)

    def loop_counts():
        counts = np.empty(oracle.k)
        for v in range(oracle.k):
            hashed_v = _modulo_hash(
                oracle.g, reports.seeds, np.full(n, v, dtype=np.int64)
            )
            counts[v] = float(np.count_nonzero(hashed_v == reports.buckets))
        return counts

    (loop_s, vec_s), (loop_counts_out, vec_counts_out) = (
        _best_of_interleaved(
            [loop_counts, lambda: oracle.support_counts(reports)], repeats
        )
    )
    if not np.array_equal(loop_counts_out, vec_counts_out):
        raise AssertionError(
            f"vectorized OLH support counts diverged at n={n}, k={k}"
        )
    return {
        "n_reports": n,
        "domain": k,
        "g": oracle.g,
        "loop_seconds": loop_s,
        "vectorized_seconds": vec_s,
        "speedup": loop_s / vec_s,
        "bitwise_equal": True,
    }


def _git_sha():
    """``git rev-parse HEAD`` of this checkout, or ``None``."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1_200_000,
                        help="reports per workload (default 1.2M)")
    parser.add_argument("--batch-size", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repeats, each timing every side "
                        "once; best-of is recorded")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (n=60k, 1 repeat)")
    parser.add_argument("--out", type=Path, default=BASELINE_PATH)
    args = parser.parse_args(argv)

    n = 60_000 if args.smoke else args.n
    repeats = 1 if args.smoke else args.repeats
    cpus = os.cpu_count() or 1

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "n_reports": n,
        "num_shards": NUM_SHARDS,
        "workers": WORKERS,
        "cpu_count": cpus,
        "git_sha": _git_sha(),
        **bench_workloads(n, args.batch_size, repeats),
        "olh_support_hot_path": [
            bench_olh_hot_path(30_000 if args.smoke else 300_000, 64,
                               repeats),
            bench_olh_hot_path(2_000, 1_024, repeats),
        ],
    }

    speedups = {
        name: entry["speedup_at_4_workers"]
        for name, entry in payload["workloads"].items()
    }
    target_met = all(s >= TARGET_SPEEDUP for s in speedups.values())
    payload["target"] = {
        "required_speedup_at_4_workers": TARGET_SPEEDUP,
        "measured": speedups,
        "met": target_met,
        "note": (
            "met on this hardware"
            if target_met
            else (
                f"only {cpus} CPU(s) visible to this run; a 4-worker "
                "thread pool cannot exceed 1x on CPU-bound encoding — "
                "correctness (bitwise equality across executors) is "
                "verified above, throughput scaling requires >= "
                f"{int(TARGET_SPEEDUP)} cores"
                if cpus < 2
                else "not met — investigate scheduling overhead"
            )
        ),
    }

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload["target"], indent=2))
    print(f"wrote {args.out}")
    if not target_met and cpus >= 2 and not args.smoke:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
