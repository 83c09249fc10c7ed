"""Layered benchmark of the LDP collection service.

    python3 perfbench/run.py --workload oue-bulk --seed 1 --seconds 10 \
        --trace 0

Run from the repository root.  The server is its own process (see
``launcher.py``); this process generates every input from ``--seed``
and drives the server over HTTP through the public ``ServiceClient``.
``--seconds`` sizes the timed ingest phase: 10 is the size
``BENCHMARK.json`` asks for, and smaller values scale every workload
down in proportion.

Every run: boot, timed ingest, correctness checks against a local
``Protocol`` reference, SIGTERM drain (the final cut), restart on that
cut, and checks that the restarted server serves the same estimates and
writes a byte-identical manifest.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
ingest phase once untraced and once traced (layer spans on both sides,
see ``launcher.LAYER_CALLS``) and prints the per-layer metrics: ``_ms``
ingest-path layers are self time per batch, the checkpoint, store and
estimate ones are time per call.  A line of provenance precedes the
result, which is the last line of standard output.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oue-bulk", "olh-wide", "hm-devices", "durable-rounds")
#: Traced runs alternate this many untraced and traced episodes.
TRACED_EPISODES = 2


def _require_source() -> None:
    if not (ROOT / "src" / "repro" / "service" / "__main__.py").is_file():
        sys.stderr.write(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from "
            f"a checkout of the repository\n"
        )
        sys.exit(2)


def build(name: str, seed: int, seconds: float, workdir: Path):
    from workloads import DurableRounds, FrequencyBulk, HmDevices

    scale = seconds / 10.0
    if name == "oue-bulk":
        return FrequencyBulk(seed, scale, workdir, name=name, oracle="oue",
                             domain=32, batches=100)
    if name == "olh-wide":
        return FrequencyBulk(seed, scale, workdir, name=name, oracle="olh",
                             domain=1024, batches=60)
    if name == "hm-devices":
        return HmDevices(seed, scale, workdir)
    return DurableRounds(seed, scale, workdir)


def episode(wl, workdir: Path, tag: str, checks, *, traced: bool = False,
            tail: bool = True) -> Dict[str, Any]:
    """One server lifetime: boot, timed ingest and, with ``tail``,
    checks, SIGTERM drain, restart on the final cut and checks again."""
    from harness import Server, cut_bytes, newest_cut

    out: Dict[str, Any] = {}
    snapshots = workdir / f"{tag}-snapshots"
    server = Server(wl.flags(snapshots), workdir, f"{tag}-server",
                    spans=traced)
    try:
        out["setup"] = server.start(wl.campaigns())
        out["phase"] = wl.ingest(server, checks)
        out["rss_mb"] = server.peak_rss_mb()
        if not tail:
            return out
        served = wl.verify(server, checks)
        server.drain()
        out["server_spans"] = server.spans()
    finally:
        server.kill()
    cut = newest_cut(snapshots)
    out["snapshot_mb"] = cut_bytes(cut) / 1e6
    if traced:
        out["counts"] = cut_counts(cut)
    digest = hashlib.sha256(cut["manifest_path"].read_bytes()).hexdigest()
    wl.verify_cut(cut["manifest_path"], checks)
    resumed = Server(wl.flags(snapshots), workdir, f"{tag}-resume",
                     spans=traced)
    try:
        out["resume"] = resumed.start(wl.campaigns())
        wl.verify_resumed(resumed, served, checks)
        resumed.client().checkpoint()
        again = newest_cut(snapshots)["manifest_path"]
        checks.check(
            again.name == cut["manifest_path"].name
            and hashlib.sha256(again.read_bytes()).hexdigest() == digest,
            "manifest rewritten after restart differs: ledger or counters "
            "did not survive the restart",
        )
        resumed.stop()
        out["resume_spans"] = resumed.spans()
    finally:
        resumed.kill()
    shutil.rmtree(snapshots, ignore_errors=True)
    return out


def end_to_end(wl, workdir: Path, checks) -> Dict[str, Any]:
    """Throughput, latency and restart time come from the run's best
    episode: load from neighbours on a shared host only ever slows an
    episode down.  Boot time and state sizes are episode medians."""
    from harness import median, percentile

    wl.prepare()
    runs = [episode(wl, workdir, f"e{k}", checks)
            for k in range(wl.episodes)]
    phases = [ep["phase"] for ep in runs]
    return {
        "ingest_rps": (max(p.accepted_reports / p.wall for p in phases),
                       "reports/s"),
        "batch_p50_ms": (min(median(p.latencies) for p in phases) * 1e3,
                         "ms"),
        "batch_p99_ms": (min(percentile(p.latencies, 99) for p in phases)
                         * 1e3, "ms"),
        "resume_s": (min(ep["resume"] for ep in runs), "s"),
        "snapshot_mb": (median([ep["snapshot_mb"] for ep in runs]), "MB"),
        "setup_s": (median([ep["setup"] for ep in runs]), "s"),
        "server_rss_mb": (median([ep["rss_mb"] for ep in runs]), "MB"),
    }


def per_layer(wl, workdir: Path, checks) -> Dict[str, Any]:
    """Untraced and traced episodes in turn; layer figures pool the
    traced ones, ``trace.overhead`` compares the two kinds."""
    import launcher
    import spans as S
    from harness import percentile

    prepared = S.SpanRecorder()
    uninstall = S.install(prepared, launcher.table("client"))
    try:
        wl.prepare()
    finally:
        uninstall()
    plain, traced = [], []
    for k in range(TRACED_EPISODES):
        plain.append(episode(wl, workdir, f"p{k}", checks, tail=False))
        recorder = S.SpanRecorder()
        uninstall = S.install(recorder, launcher.table("client"))
        try:
            ep = episode(wl, workdir, f"t{k}", checks, traced=True)
        finally:
            uninstall()
        ep["client_spans"] = recorder.spans
        traced.append(ep)

    totals: Dict[str, float] = {}
    trace_file: Dict[str, Any] = {"workload": wl.name, "seed": wl.seed,
                                  "fields": ["name", "start", "end",
                                             "parent", "key", "bytes"],
                                  "episodes": []}
    batches = 0
    request_s = 0.0
    frame_bytes = 0
    encode = [s[S.END] - s[S.START] for s in prepared.spans
              if s[S.NAME] == "protocol.encoders.encode"]
    for ep in traced:
        phase = ep["phase"]
        merged = S.join(ep["client_spans"], ep["server_spans"],
                        launcher.REQUEST_LAYERS)
        trace_file["episodes"].append({"intervals": phase.intervals,
                                       "spans": merged})
        for layer, total in S.layer_self_totals(merged,
                                                phase.intervals).items():
            totals[layer] = totals.get(layer, 0.0) + total
        for span in merged:
            if span[S.NAME] == "protocol.encoders.encode":
                encode.append(span[S.END] - span[S.START])
            if not S.in_intervals(span[S.START], phase.intervals):
                continue
            if span[S.NAME] == "service.client.request":
                batches += 1
                request_s += span[S.END] - span[S.START]
            elif span[S.NAME] == "service.wire.pack":
                request_s -= span[S.END] - span[S.START]
                frame_bytes += span[S.BYTES] or 0
    n = max(1, batches)

    def per_batch(layer: str) -> float:
        return 1e3 * totals.get(layer, 0.0) / n

    def per_call(layer: str, loaded_only: bool = False) -> float:
        spans = [s for ep in traced for key in
                 ("client_spans", "server_spans", "resume_spans")
                 for s in ep[key] if s[S.NAME] == layer
                 and (not loaded_only or s[S.BYTES] == 1)]
        return 1e3 * sum(s[S.END] - s[S.START] for s in spans) \
            / max(1, len(spans))

    # The joined spans stay behind for inspection, next to the runs.
    traces = HERE / ".work" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{wl.name}-seed{wl.seed}.json").write_text(
        json.dumps(trace_file))

    # The parts: every layer's self time in the phase, the HTTP
    # remainder and the client's own time, against the traced total.
    busy = sum(ep["phase"].busy for ep in traced)
    unattributed = (busy - sum(totals.values())) / busy
    checks.check(abs(unattributed) <= 0.10,
                 f"layer parts leave {unattributed:.1%} of the traced "
                 f"ingest time unattributed")
    metrics = {
        "campaigns.ledger.multiplicity_ms":
            per_batch("campaigns.ledger.multiplicity"),
        "campaigns.ledger.admit_ms": per_batch("campaigns.ledger.admit"),
        "campaigns.ledger.charge_ms": per_batch("campaigns.ledger.charge"),
        "campaigns.registry.validate_ms":
            per_batch("campaigns.registry.validate"),
        "campaigns.registry.absorb_ms":
            per_batch("campaigns.registry.absorb"),
        "service.wire.pack_ms": per_batch("service.wire.pack"),
        "service.wire.unpack_ms": per_batch("service.wire.unpack"),
        "protocol.encoders.encode_ms": 1e3 * sum(encode) / max(1, len(encode)),
        "service.client.request_ms": 1e3 * request_s / n,
        "service.server.http_other_ms": per_batch("service.client.request"),
        "service.server.checkpoint_ms": per_call("service.server.checkpoint"),
        "service.store.save_ms": per_call("service.store.save"),
        "service.store.load_ms": per_call("service.store.load",
                                          loaded_only=True),
        "service.server.estimate_ms": per_call("service.server.estimate"),
        "service.wire.bytes_per_report": frame_bytes / sum(
            ep["phase"].sent_reports for ep in traced),
        **traced[-1]["counts"],
        "generator.late_ms_p99": percentile(
            [x for ep in traced for x in ep["phase"].lateness], 99) * 1e3,
        "trace.overhead": busy / sum(ep["phase"].busy for ep in plain),
        "trace.unattributed_share": unattributed,
    }
    return {name: (value, UNITS[name]) for name, value in metrics.items()}


def cut_counts(cut: Dict[str, Any]) -> Dict[str, float]:
    """State sizes read from the newest cut on disk."""
    manifest = json.loads(cut["manifest_path"].read_text())
    ledger = manifest["ledger"]
    keys = accumulators = key_bytes = 0
    for path in cut["payloads"]:
        payload = json.loads(path.read_text())
        ids = payload.get("idempotency_keys", [])
        keys += len(ids)
        key_bytes += len(json.dumps(ids))
        state = payload.get("accumulator", payload.get("shard_accumulators"))
        accumulators += len(json.dumps(state))
    return {
        "campaigns.ledger.users": len(ledger["spent"]),
        "campaigns.ledger.log_entries": len(ledger["ledger"]),
        "campaigns.registry.idempotency_keys": keys,
        "service.store.bytes.ledger": len(json.dumps(ledger)),
        "service.store.bytes.accumulators": accumulators,
        "service.store.bytes.keys": key_bytes,
    }


UNITS = {
    "campaigns.ledger.multiplicity_ms": "ms",
    "campaigns.ledger.admit_ms": "ms",
    "campaigns.ledger.charge_ms": "ms",
    "campaigns.registry.validate_ms": "ms",
    "campaigns.registry.absorb_ms": "ms",
    "service.wire.pack_ms": "ms",
    "service.wire.unpack_ms": "ms",
    "protocol.encoders.encode_ms": "ms",
    "service.client.request_ms": "ms",
    "service.server.http_other_ms": "ms",
    "service.server.checkpoint_ms": "ms",
    "service.store.save_ms": "ms",
    "service.store.load_ms": "ms",
    "service.server.estimate_ms": "ms",
    "service.wire.bytes_per_report": "bytes/report",
    "campaigns.ledger.users": "count",
    "campaigns.ledger.log_entries": "count",
    "campaigns.registry.idempotency_keys": "count",
    "service.store.bytes.ledger": "bytes",
    "service.store.bytes.accumulators": "bytes",
    "service.store.bytes.keys": "bytes",
    "generator.late_ms_p99": "ms",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "fraction",
}


def provenance(wl, args) -> Dict[str, Any]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    why = None
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        for entry in json.loads(bench.read_text()).get("workloads", []):
            if entry.get("name") == wl.name:
                why = entry.get("why")
    return {
        "workload": wl.name, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "params": wl.params(), "cpu_count": os.cpu_count(),
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_source()
    sys.path.insert(0, str(ROOT / "src"))
    from harness import Checks

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    checks = Checks()
    metrics: Dict[str, Any] = {}
    try:
        wl = build(args.workload, args.seed, args.seconds, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(wl, workdir, checks)
        print(json.dumps({"provenance": provenance(wl, args)}))
    except Exception:  # noqa: BLE001 - any crash fails the run, loudly
        traceback.print_exc()
        checks.check(False, "benchmark crashed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in checks.failures:
        sys.stderr.write(f"perfbench: {failure}\n")
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminated run still stops its servers (the finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
