"""Server processes, timing helpers and run bookkeeping.

Every server is its own process, ``perfbench/launcher.py`` around
``python -m repro.service --port 0`` plus the workload's flags, so the
load generator never shares an interpreter lock with it.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.service import ServiceClient

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launcher.py"

_BANNER = re.compile(r"on http://[^:\s]+:(\d+)")

#: Seconds a server may take to boot, drain or resume before the run
#: is declared failed.
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 90.0


class BenchError(RuntimeError):
    """A server misbehaved (failed boot, bad exit)."""


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class Checks:
    """Counts requests and correctness checks; failures fail the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def request(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def check(self, ok: bool, what: str) -> bool:
        return self.request(bool(ok), f"check failed: {what}")


class Server:
    """One ``repro.service`` process."""

    def __init__(
        self,
        flags: Sequence[str],
        workdir: Path,
        name: str,
        spans: bool = False,
    ) -> None:
        self.flags = list(flags)
        self.workdir = workdir
        self.name = name
        self.spans_path: Optional[Path] = (
            workdir / f"{name}.spans.json" if spans else None
        )
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self, campaigns: Sequence[Optional[str]] = (None,)) -> float:
        """Spawn, wait for the banner, then one good ``/spec`` per
        campaign; returns the seconds from spawn to the last of them."""
        argv = [sys.executable, str(LAUNCHER)]
        if self.spans_path is not None:
            argv += ["--spans", str(self.spans_path)]
        argv += ["--", "--port", "0"] + self.flags
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        log = open(self.workdir / f"{self.name}.log", "wb")
        started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        finally:
            log.close()
        line = self.proc.stdout.readline()
        match = _BANNER.search(line)
        if match is None:
            self.kill()
            raise BenchError(f"{self.name}: no banner, got {line!r}")
        self.port = int(match.group(1))
        for campaign in campaigns:
            client = ServiceClient("127.0.0.1", self.port, campaign=campaign,
                                   timeout=BOOT_TIMEOUT)
            client.fetch_spec()
        return time.perf_counter() - started

    def client(self, campaign: Optional[str] = None) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, campaign=campaign,
                             timeout=STOP_TIMEOUT)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB (10^6 bytes)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
        raise BenchError("no VmHWM in /proc status")

    def drain(self) -> None:
        """SIGTERM: the service drains, writes its final cut, exits 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"{self.name}: drain timed out") from None
        if self.proc.returncode != 0:
            raise BenchError(
                f"{self.name}: drain exited {self.proc.returncode}"
            )

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        if self.proc is not None:
            self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()

    def stop(self) -> None:
        """Graceful when spans must be written, otherwise a kill."""
        if self.spans_path is not None:
            self.drain()
        else:
            self.kill()

    def spans(self) -> List[List[Any]]:
        if self.spans_path is None or not self.spans_path.exists():
            return []
        return json.loads(self.spans_path.read_text())


def newest_cut(snapshot_dir: Path) -> Dict[str, Any]:
    """The newest complete cut: its manifest, and per campaign the
    newest payload at or below the manifest's sequence (the one it
    references; payloads are only written by checkpoints)."""
    manifests = sorted(snapshot_dir.glob("snapshot-*.json"))
    if not manifests:
        raise BenchError(f"no manifest in {snapshot_dir}")
    manifest_path = manifests[-1]
    seq = int(manifest_path.stem.split("-")[1])
    payloads = []
    for namespace in sorted(p for p in snapshot_dir.iterdir() if p.is_dir()):
        saved = [
            p for p in sorted(namespace.glob("snapshot-*.json"))
            if int(p.stem.split("-")[1]) <= seq
        ]
        if saved:
            payloads.append(saved[-1])
    return {"manifest_path": manifest_path, "payloads": payloads}


def cut_bytes(cut: Dict[str, Any]) -> int:
    return cut["manifest_path"].stat().st_size + sum(
        p.stat().st_size for p in cut["payloads"]
    )
