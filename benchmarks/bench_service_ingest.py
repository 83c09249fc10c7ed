"""Sustained ingest throughput through the networked service path.

For each workload the script boots a real :class:`IngestionServer` on
localhost, pre-encodes report batches client-side, and times the full
submission path — wire encoding, HTTP, envelope validation, budget
charging, absorption — recording sustained reports/second.  Each
workload runs twice: without durability, and with a snapshot store
checkpointing every ``CHECKPOINT_EVERY`` batches, so the cost of
crash-safety is a number, not a guess.  Correctness is asserted along
the way: the served ``/estimate`` must be bitwise-equal to absorbing
the same reports locally.

Results land in a JSON whose committed baseline is
``benchmarks/results/service_ingest_baseline.json``; CI runs
``--smoke`` on every push and uploads the JSON as an artifact.

Run:  PYTHONPATH=src python benchmarks/bench_service_ingest.py
      PYTHONPATH=src python benchmarks/bench_service_ingest.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.protocol import Protocol  # noqa: E402
from repro.service import (  # noqa: E402
    IngestionServer,
    ServiceClient,
    SnapshotStore,
    wire,
)

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "service_ingest_baseline.json"

BATCH_SIZE = 2_000
CHECKPOINT_EVERY = 10
SEED = 2019


def _workloads(n: int):
    rng = np.random.default_rng(0)
    return {
        "frequency-oue": {
            "protocol": Protocol.frequency(1.0, domain=32),
            "values": rng.integers(0, 32, n),
        },
        "multidim-hm": {
            "protocol": Protocol.multidim(4.0, d=8, mechanism="hm"),
            "values": rng.uniform(-1, 1, (n, 8)),
        },
    }


def _estimate_array(estimate):
    return np.atleast_1d(np.asarray(estimate, dtype=float))


def _encode_batches(protocol, values, n):
    encoder = protocol.client()
    batches = []
    for i, lo in enumerate(range(0, n, BATCH_SIZE)):
        chunk = values[lo : lo + BATCH_SIZE]
        batches.append(
            (
                encoder.encode_batch(chunk, np.random.default_rng(SEED + i)),
                [f"u{lo + j}" for j in range(len(chunk))],
            )
        )
    return batches


def _run_ingest(
    protocol,
    batches,
    store=None,
    checkpoint_every=None,
    wire_version=None,
    instrument=True,
):
    server = IngestionServer(
        protocol,
        store=store,
        checkpoint_every=checkpoint_every,
        instrument=instrument,
    ).run_in_thread()
    try:
        client = ServiceClient(
            "127.0.0.1", server.port, wire_version=wire_version
        )
        client.fetch_spec()  # outside the timed window
        if wire_version is not None:
            assert client.negotiated_wire_version == wire_version
        start = time.perf_counter()
        for reports, users in batches:
            client.submit_reports(reports, users)
        elapsed = time.perf_counter() - start
        estimate = _estimate_array(client.estimate())
    finally:
        server.stop()
    return elapsed, estimate


def _check_estimate(name, run, estimate, reference):
    """Bitwise against the local reference absorb."""
    if not np.array_equal(estimate, reference):
        raise AssertionError(
            f"{name}/{run}: served estimate diverged from the local "
            f"reference absorb"
        )


def _run_multi_campaign(workloads, store=None, checkpoint_every=None):
    """All workloads on ONE server as concurrent campaigns, one client
    thread per campaign, over one shared user population."""
    protocols = [spec["protocol"] for spec in workloads.values()]
    lifetime = sum(p.spec.epsilon for p in protocols)
    server = IngestionServer(
        protocols[0],
        lifetime_epsilon=lifetime,
        campaigns=[p.spec for p in protocols[1:]],
        store=store,
        checkpoint_every=checkpoint_every,
    ).run_in_thread()
    try:
        base = ServiceClient("127.0.0.1", server.port)
        clients = {
            name: base.for_campaign(spec["protocol"].spec)
            for name, spec in workloads.items()
        }
        for client in clients.values():
            client.fetch_spec()  # outside the timed window
        errors = []

        def _pump(name):
            try:
                for reports, users in workloads[name]["batches"]:
                    clients[name].submit_reports(reports, users)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((name, exc))

        threads = [
            threading.Thread(target=_pump, args=(name,))
            for name in workloads
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise AssertionError(f"multi-campaign ingest failed: {errors}")
        estimates = {
            name: _estimate_array(client.estimate())
            for name, client in clients.items()
        }
    finally:
        server.stop()
    return elapsed, estimates


def bench_multi_campaign(workloads, n: int) -> dict:
    """Concurrent campaigns sharing one server and one global ledger."""
    references = {}
    for name, spec in workloads.items():
        reference = spec["protocol"].server()
        for reports, _ in spec["batches"]:
            reference.absorb(reports)
        references[name] = _estimate_array(reference.estimate())

    plain_s, plain_estimates = _run_multi_campaign(workloads)
    with tempfile.TemporaryDirectory() as tmp:
        durable_s, durable_estimates = _run_multi_campaign(
            workloads,
            store=SnapshotStore(tmp),
            checkpoint_every=CHECKPOINT_EVERY,
        )

    for name, reference in references.items():
        if not (
            np.array_equal(plain_estimates[name], reference)
            and np.array_equal(durable_estimates[name], reference)
        ):
            raise AssertionError(
                f"multi-campaign: campaign {name!r} diverged from its "
                f"single-campaign reference absorb"
            )

    total = n * len(workloads)
    print(
        f"{'multi-campaign':>16}: {total / plain_s:>10.0f} reports/s plain, "
        f"{total / durable_s:>10.0f} reports/s with checkpoints "
        f"every {CHECKPOINT_EVERY} batches "
        f"[{len(workloads)} campaigns, bitwise ok]"
    )
    return {
        "campaigns": sorted(workloads),
        # Clients negotiate: the whole multi-campaign fleet now rides v2.
        "wire_version": wire.WIRE_VERSION_COLUMNAR,
        "n_per_campaign": n,
        "total_reports": total,
        "batch_size": BATCH_SIZE,
        "bitwise_equal_to_local": True,
        "ingest": {
            "seconds": plain_s,
            "reports_per_second": total / plain_s,
        },
        "ingest_with_checkpoints": {
            "seconds": durable_s,
            "reports_per_second": total / durable_s,
            "checkpoint_every_batches": CHECKPOINT_EVERY,
            "overhead_vs_plain": durable_s / plain_s,
        },
    }


def bench_workloads(workloads, n: int) -> dict:
    out = {}
    for name, spec in workloads.items():
        protocol, batches = spec["protocol"], spec["batches"]

        reference = protocol.server()
        for reports, _ in batches:
            reference.absorb(reports)
        reference_estimate = _estimate_array(reference.estimate())

        plain_s, plain_estimate = _run_ingest(
            protocol, batches, wire_version=wire.WIRE_VERSION
        )
        with tempfile.TemporaryDirectory() as tmp:
            durable_s, durable_estimate = _run_ingest(
                protocol,
                batches,
                store=SnapshotStore(tmp),
                checkpoint_every=CHECKPOINT_EVERY,
                wire_version=wire.WIRE_VERSION,
            )
        v2_s, v2_estimate = _run_ingest(
            protocol, batches, wire_version=wire.WIRE_VERSION_COLUMNAR
        )
        bare_s, bare_estimate = _run_ingest(
            protocol,
            batches,
            wire_version=wire.WIRE_VERSION_COLUMNAR,
            instrument=False,
        )

        _check_estimate(name, "ingest", plain_estimate, reference_estimate)
        _check_estimate(
            name, "checkpoints", durable_estimate, reference_estimate
        )
        _check_estimate(
            name, "wire_v2", v2_estimate, reference_estimate
        )
        _check_estimate(
            name, "wire_v2_bare", bare_estimate, reference_estimate
        )
        out[name] = {
            "n": n,
            "batch_size": BATCH_SIZE,
            "batches": len(batches),
            "bitwise_equal_to_local": True,
            "ingest": {
                "seconds": plain_s,
                "reports_per_second": n / plain_s,
            },
            "ingest_with_checkpoints": {
                "seconds": durable_s,
                "reports_per_second": n / durable_s,
                "checkpoint_every_batches": CHECKPOINT_EVERY,
                "overhead_vs_plain": durable_s / plain_s,
            },
            "ingest_wire_v2": {
                "seconds": v2_s,
                "reports_per_second": n / v2_s,
                "speedup_vs_v1": plain_s / v2_s,
            },
            # The observability budget: identical v2 run with the
            # request-path instruments nulled out (instrument=False).
            # The ratio is what repro.obs costs on the hot path; the
            # contract is <= 1.05 on a full (non-smoke) run.
            "ingest_wire_v2_uninstrumented": {
                "seconds": bare_s,
                "reports_per_second": n / bare_s,
                "metrics_overhead_vs_uninstrumented": v2_s / bare_s,
            },
        }
        print(
            f"{name:>16}: {n / plain_s:>10.0f} reports/s v1, "
            f"{n / durable_s:>10.0f} reports/s v1+checkpoints, "
            f"{n / v2_s:>10.0f} reports/s v2 "
            f"[{plain_s / v2_s:.2f}x v2 speedup, "
            f"{(v2_s / bare_s - 1) * 100:+.1f}% metrics overhead]"
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small n for CI (correctness + trajectory, not peak rate)",
    )
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--out", type=Path, default=BASELINE_PATH)
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (10_000 if args.smoke else 100_000)
    workloads = _workloads(n)
    for spec in workloads.values():
        spec["batches"] = _encode_batches(spec["protocol"], spec["values"], n)
    results = {
        "benchmark": "service_ingest",
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "batch_size": BATCH_SIZE,
        "workloads": bench_workloads(workloads, n),
        "multi_campaign": bench_multi_campaign(workloads, n),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
