"""The four workloads: inputs from a seed, the timed phase, the checks.

Each workload makes all of its inputs from ``seed``; the server only
ever receives perturbed reports.  ``scale`` multiplies the size of the
timed phase (1.0 is the size a 10-second run uses).  The correctness
checks compare what the server serves with a local
:class:`~repro.protocol.Protocol` reference that absorbs exactly the
batches the server accepted, in the order it accepted them.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from harness import Checks, Server
from repro.protocol import Protocol
from repro.service import wire
from repro.service.client import OverBudgetError, ServiceError

#: What a request may raise when the service misbehaves.
REQUEST_ERRORS = (ServiceError, OSError, ValueError)


def same_bits(a: Any, b: Any) -> bool:
    """Bitwise equality of two estimates (arrays or scalars)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@dataclass
class Phase:
    """What the timed phase measured."""

    #: Seconds per ``POST /report`` as the client saw it; open loop
    #: times it from the batch's due time.
    latencies: List[float] = field(default_factory=list)
    #: Open loop: send time minus due time.  Closed loop: the gap
    #: between one reply and the next send.
    lateness: List[float] = field(default_factory=list)
    #: Monotonic (start, end) of the timed ingest intervals.
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: Seconds the system worked on the phase's batches: the intervals
    #: for a closed loop, the summed send-to-reply times for an open one.
    busy: float = 0.0
    accepted_reports: int = 0
    sent_reports: int = 0

    @property
    def wall(self) -> float:
        return sum(end - start for start, end in self.intervals)


class Workload:
    """One traffic mix against one server configuration."""

    name = ""
    #: Server lifetimes per untraced run (see ``run.end_to_end``).
    episodes = 1

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = int(seed)
        self.scale = float(scale)
        self.workdir = workdir

    def _write_spec(self, protocol: Protocol, stem: str) -> str:
        path = self.workdir / f"{stem}.json"
        path.write_text(json.dumps(protocol.spec.to_dict()))
        return str(path)

    # Interface -------------------------------------------------------
    def params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Make the inputs (outside any timed phase)."""
        raise NotImplementedError

    def flags(self, snapshot_dir: Path) -> List[str]:
        raise NotImplementedError

    def campaigns(self) -> List[Optional[str]]:
        """Campaign ids whose ``/spec`` marks the server ready."""
        return [None]

    def ingest(self, server: Server, checks: Checks) -> Phase:
        raise NotImplementedError

    def verify(self, server: Server, checks: Checks) -> Dict[str, Any]:
        """Check what the server serves; return it for the resume check."""
        raise NotImplementedError

    def verify_cut(self, manifest_path: Path, checks: Checks) -> None:
        """Check the final cut on disk (workloads with a ledger model)."""

    def verify_resumed(
        self, server: Server, served: Dict[str, Any], checks: Checks
    ) -> None:
        """A resumed server serves what the stopped one served."""
        for campaign in self.campaigns():
            client = server.client(campaign)
            for window in self.windows():
                key = (campaign, window)
                try:
                    now = client.estimate(window=window)
                except REQUEST_ERRORS:
                    checks.request(False, f"resumed estimate {key}")
                    continue
                checks.check(
                    same_bits(now, served[key]),
                    f"resumed estimate {key} differs from before restart",
                )

    def windows(self) -> List[Optional[int]]:
        return [None]


# ----------------------------------------------------------------------
class FrequencyBulk(Workload):
    """Closed loop, one connection, 2,000-report batches, every user
    new: a batching gateway forwarding already-perturbed reports."""

    BATCH = 2_000
    POOL = 32
    episodes = 8

    def __init__(self, seed, scale, workdir, *, name, oracle, domain,
                 batches):
        super().__init__(seed, scale, workdir)
        self.name = name
        self.oracle = oracle
        self.domain = int(domain)
        self.n_batches = max(2, round(batches * self.scale))
        self.protocol = Protocol.frequency(1.0, domain=self.domain,
                                           oracle=self.oracle)
        self.accepted: List[int] = []
        self.partial: Optional[List[Any]] = None

    def params(self):
        return {"kind": "frequency", "oracle": self.oracle,
                "domain": self.domain, "epsilon": 1.0, "wire": 2,
                "batch_reports": self.BATCH, "batches": self.n_batches,
                "distinct_report_batches": min(self.POOL, self.n_batches),
                "loop": "closed, 1 connection", "store": "final cut only"}

    def prepare(self):
        self.spec_path = self._write_spec(self.protocol, "spec")
        rng = np.random.default_rng([self.seed, 0])
        encoder = self.protocol.client()
        # Zipf-skewed categories, as in a real frequency collection.
        weights = 1.0 / np.arange(1, self.domain + 1)
        weights /= weights.sum()
        # A pool of distinct batches is cycled; users never repeat, so
        # every batch is new to the ledger and to idempotency.
        self.pool = [
            encoder.encode_batch(
                rng.choice(self.domain, self.BATCH, p=weights),
                np.random.default_rng([self.seed, 1, j]),
            )
            for j in range(min(self.POOL, self.n_batches))
        ]
        prefix = f"s{self.seed}-u"
        self.users = [
            [f"{prefix}{b * self.BATCH + i}" for i in range(self.BATCH)]
            for b in range(self.n_batches)
        ]

    def flags(self, snapshot_dir):
        # The cadence lies beyond the run: the only cut is the drain's.
        return ["--spec", self.spec_path, "--snapshot-dir",
                str(snapshot_dir), "--checkpoint-every", str(10 ** 9)]

    def ingest(self, server, checks):
        client = server.client()
        client.fetch_spec()
        phase = Phase()
        self.accepted = []
        replied: Optional[float] = None
        start = time.monotonic()
        for b in range(self.n_batches):
            sent = time.perf_counter()
            if replied is not None:
                phase.lateness.append(sent - replied)
            try:
                reply = client.submit_reports(
                    self.pool[b % len(self.pool)], self.users[b]
                )
                ok = reply.get("status") == "accepted" \
                    and reply.get("accepted") == self.BATCH
            except REQUEST_ERRORS:
                ok = False
            replied = time.perf_counter()
            phase.latencies.append(replied - sent)
            if checks.request(ok, f"batch {b} not accepted"):
                self.accepted.append(b)
        phase.intervals.append((start, time.monotonic()))
        phase.busy = phase.wall
        phase.accepted_reports = self.BATCH * len(self.accepted)
        phase.sent_reports = self.BATCH * self.n_batches
        return phase

    def verify(self, server, checks):
        client = server.client()
        # Support counts are integral, so merging one pool batch's
        # counts per accepted batch equals absorbing it again, bitwise.
        if self.partial is None:
            self.partial = [self.protocol.server().absorb(r)
                            for r in self.pool]
        partial = self.partial
        reference = self.protocol.server()
        for b in self.accepted:
            reference.merge(partial[b % len(partial)])
        served: Dict[Any, Any] = {}
        try:
            served[(None, None)] = client.estimate()
            health = client.healthz()
        except REQUEST_ERRORS:
            checks.request(False, "estimate/healthz")
            return served
        checks.check(
            same_bits(served[(None, None)], reference.estimate()),
            "served estimate != local Protocol reference",
        )
        reports = self.BATCH * len(self.accepted)
        checks.check(health["reports"] == reports, "healthz reports")
        checks.check(health["users_charged"] == reports,
                     "healthz users_charged")
        return served


# ----------------------------------------------------------------------
class HmDevices(Workload):
    """Open loop at a fixed offered rate: independent devices perturb
    their own 32-report batches inside the timed path."""

    name = "hm-devices"
    BATCH = 32
    D = 8
    EPSILON = 4.0
    #: Offered batches/s: about half the closed-loop saturation rate
    #: (~560 batches/s with two senders on a 2-CPU box).
    RATE = 280.0
    SENDERS = 2
    #: Seconds of offered load per episode.
    EPISODE_SECONDS = 1.5
    episodes = 8

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.n_batches = max(self.SENDERS, round(
            self.RATE * self.EPISODE_SECONDS * self.scale))
        self.protocol = Protocol.multidim(self.EPSILON, d=self.D,
                                          mechanism="hm")
        self.order: List[int] = []

    def params(self):
        return {"kind": "multidim-numeric", "mechanism": "hm", "d": self.D,
                "epsilon": self.EPSILON, "wire": 2,
                "batch_reports": self.BATCH, "batches": self.n_batches,
                "loop": f"open, {self.RATE:g} batches/s offered",
                "senders": self.SENDERS, "store": "final cut only"}

    def prepare(self):
        self.spec_path = self._write_spec(self.protocol, "spec")
        rng = np.random.default_rng([self.seed, 0])
        self.values = rng.uniform(-1.0, 1.0,
                                  (self.n_batches, self.BATCH, self.D))
        self.device_seeds = [int(s) for s in
                             rng.integers(0, 2 ** 62, self.n_batches)]
        prefix = f"s{self.seed}-d"
        self.users = [
            [f"{prefix}{b * self.BATCH + i}" for i in range(self.BATCH)]
            for b in range(self.n_batches)
        ]

    def flags(self, snapshot_dir):
        return ["--spec", self.spec_path, "--snapshot-dir",
                str(snapshot_dir), "--checkpoint-every", str(10 ** 9)]

    def ingest(self, server, checks):
        n = self.n_batches
        clients = [server.client() for _ in range(self.SENDERS)]
        for client in clients:
            client.fetch_spec()
        late = [0.0] * n
        latency = [0.0] * n
        busy = [0.0] * n
        total: List[Optional[int]] = [None] * n
        origin = time.perf_counter() + 0.01

        def send(k: int) -> None:
            client = clients[k]
            for b in range(k, n, self.SENDERS):
                due = origin + b / self.RATE
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    reply = client.submit(self.values[b], self.users[b],
                                          rng=self.device_seeds[b])
                    if reply.get("status") == "accepted" \
                            and reply.get("accepted") == self.BATCH:
                        total[b] = int(reply["total_reports"])
                except REQUEST_ERRORS:
                    pass
                done = time.perf_counter()
                late[b], latency[b], busy[b] = sent - due, done - due, \
                    done - sent

        threads = [threading.Thread(target=send, args=(k,))
                   for k in range(self.SENDERS)]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase = Phase(latencies=latency, lateness=late, busy=sum(busy))
        phase.intervals.append((start, time.monotonic()))
        for b in range(n):
            checks.request(total[b] is not None, f"batch {b} not accepted")
        # The server absorbs one batch at a time; its running total
        # after each batch gives the order it absorbed them in.
        self.order = sorted((b for b in range(n) if total[b] is not None),
                            key=lambda b: total[b])
        phase.accepted_reports = self.BATCH * len(self.order)
        phase.sent_reports = self.BATCH * n
        return phase

    def verify(self, server, checks):
        client = server.client()
        encoder = self.protocol.client()
        reference = self.protocol.server()
        for b in self.order:
            reference.absorb(
                encoder.encode_batch(self.values[b], self.device_seeds[b])
            )
        served: Dict[Any, Any] = {}
        try:
            served[(None, None)] = client.estimate()
            health = client.healthz()
        except REQUEST_ERRORS:
            checks.request(False, "estimate/healthz")
            return served
        checks.check(
            same_bits(served[(None, None)], reference.estimate()),
            "served estimate != local Protocol reference",
        )
        reports = self.BATCH * len(self.order)
        checks.check(health["reports"] == reports, "healthz reports")
        checks.check(health["users_charged"] == reports,
                     "healthz users_charged")
        return served


# ----------------------------------------------------------------------
class DurableRounds(Workload):
    """Two windowed campaigns, a fixed population reporting every
    round, periodic checkpoints, reads between rounds, and duplicate and
    over-budget resubmissions in the last round."""

    name = "durable-rounds"
    episodes = 4
    ROUNDS = 6
    BATCH = 100
    PANES = 4
    CHECKPOINTS = 20
    #: Every this-many-th batch of the last round is resubmitted twice.
    RESUBMIT_EVERY = 20
    #: Windowed reads per campaign between rounds.
    READS = 10

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.protocols = {
            "oue": Protocol.frequency(1.0, domain=32, oracle="oue"),
            "hm": Protocol.multidim(4.0, d=8, mechanism="hm"),
        }
        self.fps = {name: wire.spec_fingerprint(p.spec)
                    for name, p in self.protocols.items()}
        self.n_users = self.BATCH * max(1, round(100 * self.scale))
        self.per_round = self.n_users // self.BATCH
        total = 2 * self.ROUNDS * self.per_round
        self.checkpoint_every = max(1, round(total / self.CHECKPOINTS))
        self.lifetime = sum(p.spec.epsilon for p in self.protocols.values()) \
            * self.ROUNDS

    def params(self):
        return {"campaigns": {n: p.spec.to_dict()
                              for n, p in self.protocols.items()},
                "window_panes": self.PANES, "users": self.n_users,
                "rounds": self.ROUNDS, "batch_reports": self.BATCH,
                "checkpoint_every": self.checkpoint_every,
                "lifetime_epsilon": self.lifetime,
                "resubmit_every": self.RESUBMIT_EVERY,
                "reads_per_round": self.READS, "wire": 2,
                "loop": "closed, 1 connection"}

    def prepare(self):
        self.spec_paths = [self._write_spec(self.protocols[name], name)
                           for name in ("oue", "hm")]
        rng = np.random.default_rng([self.seed, 0])
        users = [f"s{self.seed}-p{i}" for i in range(self.n_users)]
        self.users = [users[b * self.BATCH:(b + 1) * self.BATCH]
                      for b in range(self.per_round)]
        # Each user's category drifts a little per round.
        category = rng.integers(0, 32, self.n_users)
        self.reports: Dict[Tuple[str, int, int], Any] = {}
        for r in range(self.ROUNDS):
            drift = rng.random(self.n_users) < 0.2
            category = np.where(drift, rng.integers(0, 32, self.n_users),
                                category)
            numeric = rng.uniform(-1.0, 1.0, (self.n_users, 8))
            for b in range(self.per_round):
                rows = slice(b * self.BATCH, (b + 1) * self.BATCH)
                for name, values in (("oue", category[rows]),
                                     ("hm", numeric[rows])):
                    self.reports[(name, r, b)] = \
                        self.protocols[name].client().encode_batch(
                            values, np.random.default_rng(
                                [self.seed, 1, r, b, int(name == "hm")]))

    def flags(self, snapshot_dir):
        return ["--campaigns", *self.spec_paths,
                "--window", str(self.PANES),
                "--lifetime-epsilon", repr(self.lifetime),
                "--snapshot-dir", str(snapshot_dir),
                "--checkpoint-every", str(self.checkpoint_every)]

    def campaigns(self):
        return [self.fps["oue"], self.fps["hm"]]

    def windows(self):
        return [None, self.PANES]

    # Reference -------------------------------------------------------
    def _window_reference(self, name: str, latest: int):
        """The pane merge a window query over the last PANES rounds is
        defined as: in-window panes folded in ascending round order."""
        merged = self.protocols[name].server()
        for r in range(max(0, latest - self.PANES + 1), latest + 1):
            merged.merge(self.panes[name][r])
        return merged.estimate()

    def _all_time_reference(self, name: str, latest: int):
        """Evicted panes fold into a tail in round order; the all-time
        estimate merges the tail, then the live panes."""
        protocol = self.protocols[name]
        floor = latest - self.PANES
        tail = protocol.server()
        for r in range(0, floor + 1):
            tail.merge(self.panes[name][r])
        merged = protocol.server()
        if floor >= 0:
            merged.merge(tail)
        for r in range(max(0, floor + 1), latest + 1):
            merged.merge(self.panes[name][r])
        return merged.estimate()

    # Phase -----------------------------------------------------------
    def _post(self, phase, checks, client, reports, users, r, expect,
              key=None):
        sent = time.perf_counter()
        if self._replied is not None:
            phase.lateness.append(sent - self._replied)
        try:
            reply = client.submit_reports(reports, users,
                                          idempotency_key=key, round=r)
            outcome = reply.get("status")
        except OverBudgetError as exc:
            outcome = "over_budget" if exc.payload.get("error") == \
                "budget_exceeded" and set(exc.rejected_users) == \
                set(users) else "bad_429"
        except REQUEST_ERRORS:
            outcome = "error"
        self._replied = time.perf_counter()
        phase.latencies.append(self._replied - sent)
        phase.sent_reports += len(users)
        return checks.request(outcome == expect,
                              f"round {r}: {outcome}, expected {expect}")

    def ingest(self, server, checks):
        clients = {name: server.client(fp) for name, fp in self.fps.items()}
        for client in clients.values():
            client.fetch_spec()
        phase = Phase()
        self.panes = {name: [] for name in self.protocols}
        self.accepted = 0
        self.duplicates = 0
        last = self.ROUNDS - 1
        for r in range(self.ROUNDS):
            accepted = []
            self._replied: Optional[float] = None
            start = time.monotonic()
            for b in range(self.per_round):
                for name in ("oue", "hm"):
                    if self._post(phase, checks, clients[name],
                                  self.reports[(name, r, b)],
                                  self.users[b], r, "accepted"):
                        accepted.append((name, b))
            if r == last:
                # Same key: a duplicate.  New key: every user has spent
                # the lifetime budget, so 429 and nothing charged.
                for b in range(0, self.per_round, self.RESUBMIT_EVERY):
                    for name in ("oue", "hm"):
                        args = (clients[name], self.reports[(name, r, b)],
                                self.users[b], r)
                        if self._post(phase, checks, *args, "duplicate"):
                            self.duplicates += 1
                        self._post(phase, checks, *args, "over_budget",
                                   key=f"s{self.seed}-again-{name}-{b}")
            phase.intervals.append((start, time.monotonic()))
            self.accepted += len(accepted)
            for name in self.protocols:
                self.panes[name].append(self.protocols[name].server())
            for name, b in accepted:
                self.panes[name][r].absorb(self.reports[(name, r, b)])
            self._reads(clients, r, checks)
        phase.busy = phase.wall
        phase.accepted_reports = self.BATCH * self.accepted
        return phase

    def _reads(self, clients, r, checks):
        """A burst of windowed reads between rounds (not ingest time)."""
        for name, client in clients.items():
            expected = self._window_reference(name, r)
            first = None
            for _ in range(self.READS):
                try:
                    got = client.estimate(window=self.PANES)
                except REQUEST_ERRORS:
                    checks.request(False, f"round {r}: {name} window read")
                    continue
                if first is None:
                    first = got
                    checks.check(same_bits(got, expected),
                                 f"round {r}: {name} window estimate != "
                                 f"recompute from in-window rounds")
                else:
                    checks.check(same_bits(got, first),
                                 f"round {r}: {name} window reads differ")

    def verify(self, server, checks):
        served: Dict[Any, Any] = {}
        last = self.ROUNDS - 1
        for name, fp in self.fps.items():
            client = server.client(fp)
            try:
                served[(fp, None)] = client.estimate()
                served[(fp, self.PANES)] = client.estimate(window=self.PANES)
            except REQUEST_ERRORS:
                checks.request(False, f"{name} estimates")
                continue
            checks.check(
                same_bits(served[(fp, None)],
                          self._all_time_reference(name, last)),
                f"{name} all-time estimate != local Protocol reference",
            )
            checks.check(
                same_bits(served[(fp, self.PANES)],
                          self._window_reference(name, last)),
                f"{name} window estimate != recompute",
            )
        try:
            health = server.client().healthz()
        except REQUEST_ERRORS:
            checks.request(False, "healthz")
            return served
        checks.check(health["reports"] == self.BATCH * self.accepted,
                     "healthz reports")
        checks.check(health["duplicates"] == self.duplicates,
                     "healthz duplicates")
        return served

    def verify_cut(self, manifest_path, checks):
        """The ledger in the final cut is exactly what the accepted
        batches charge: the 429s and duplicates charged nothing."""
        ledger = json.loads(manifest_path.read_text())["ledger"]
        spent = ledger["spent"]
        checks.check(len(spent) == self.n_users, "ledger users")
        checks.check(
            all(v == self.lifetime for v in spent.values()),
            "ledger spend differs from the accepted batches' charges",
        )
        checks.check(
            len(ledger["ledger"]) == 2 * self.n_users * self.ROUNDS,
            "ledger log length",
        )
