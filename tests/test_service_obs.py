"""Observability tests against a live service: /metrics scrapes,
healthz-as-registry-view consistency, drain semantics, and the
SIGTERM/SIGINT graceful-drain e2e with its bitwise-equal checkpoint
guarantee."""

import contextvars
import http.client
import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.service import (
    IngestionServer,
    ServiceClient,
    ServiceError,
    SnapshotStore,
    wire,
)
from repro.service.http import Request
from repro.obs.lifecycle import DrainResult, DrainState
from repro.obs.logging import JsonFormatter
from repro.obs.metrics import CONTENT_TYPE_LATEST

SEED = 77
N = 40


@pytest.fixture
def serve():
    running = []

    def _boot(*args, **kwargs):
        server = IngestionServer(*args, **kwargs).run_in_thread()
        running.append(server)
        return server

    yield _boot
    for server in running:
        server.stop()


def _users(n, prefix="u"):
    return [f"{prefix}{i}" for i in range(n)]


def _protocol():
    return Protocol.frequency(1.0, domain=10, oracle="oue")


def _scrape_raw(port):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestMetricsEndpoint:
    def test_scrape_exposes_core_series(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(
            np.arange(N) % 10, users=_users(N), rng=SEED
        )
        text = client.server_metrics_text()
        assert "# TYPE repro_batches_accepted_total counter" in text
        fp = server.registry.default.fingerprint
        assert (
            f'repro_batches_accepted_total{{campaign="{fp}"}} 1' in text
        )
        assert 'repro_ingest_batches_total{wire_version="2"} 1' in text
        # Pre-seeded zero for the legacy wire version — explicit, not absent.
        assert 'repro_ingest_batches_total{wire_version="1"} 0' in text
        assert "repro_uptime_seconds" in text
        assert "repro_draining 0" in text
        assert "repro_shard_" not in text
        # Instrument-gated request-path series are on by default.
        assert "repro_request_seconds_bucket" in text
        assert 'repro_http_responses_total{endpoint="/report",status="200"} 1' in text
        assert "repro_user_budget_spent_epsilon_count" in text

    def test_content_type_is_prometheus_v0_0_4(self, serve):
        server = serve(_protocol())
        status, headers, body = _scrape_raw(server.port)
        assert status == 200
        assert headers["Content-Type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        assert body.decode("utf-8").endswith("\n")

    def test_unknown_paths_collapse_to_other_label(self, serve):
        server = serve(_protocol())
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=5
        )
        try:
            connection.request("GET", "/no/such/page")
            connection.getresponse().read()
        finally:
            connection.close()
        text = ServiceClient("127.0.0.1", server.port).server_metrics_text()
        assert 'endpoint="other"' in text
        assert "/no/such/page" not in text

    def test_only_the_seal_route_is_labelled_as_a_campaign_path(
        self, serve
    ):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        client.seal_campaign()
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=5
        )
        try:
            for method, path in [
                ("POST", "/campaigns/abc/unseal"),
                ("GET", "/campaigns/abc"),
                ("GET", "/campaigns/abc/seal"),
            ]:
                connection.request(method, path)
                response = connection.getresponse()
                response.read()
                assert response.status in (404, 405), path
        finally:
            connection.close()
        responses = server.metrics.registry.get("repro_http_responses_total")
        labels = {labels for labels, _ in responses.children()}
        assert ("/campaigns/seal", "200") in labels
        assert ("/campaigns/seal", "405") in labels
        assert ("other", "404") in labels
        assert ("/campaigns/seal", "404") not in labels

    def test_healthz_is_a_view_over_the_registry(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        # Both wire versions are pre-seeded: explicit zeros, not absent.
        assert client.healthz()["wire_versions"] == {"1": 0, "2": 0}
        client.submit(np.arange(N) % 10, users=_users(N), rng=SEED)
        client.submit(
            np.arange(N) % 10, users=_users(N, prefix="v"), rng=SEED + 1
        )
        health = client.healthz()
        registry = server.metrics.registry
        assert health["status"] == "ok"
        assert health["batches_accepted"] == 2
        # The counter is labelled per campaign now; healthz reports the
        # sum over campaigns.
        assert health["batches_accepted"] == registry.sample(
            "repro_batches_accepted_total",
            {"campaign": server.registry.default.fingerprint},
        )
        assert health["duplicates"] == registry.sample(
            "repro_duplicate_batches_total"
        )
        assert health["wire_versions"]["2"] == registry.sample(
            "repro_ingest_batches_total", {"wire_version": "2"}
        )
        assert health["users_charged"] == 2 * N

    def test_uninstrumented_server_keeps_state_metrics(self, serve):
        server = serve(_protocol(), instrument=False)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(np.arange(N) % 10, users=_users(N), rng=SEED)
        text = client.server_metrics_text()
        # Durable state counters survive instrument=False...
        fp = server.registry.default.fingerprint
        assert (
            f'repro_batches_accepted_total{{campaign="{fp}"}} 1' in text
        )
        assert 'repro_ingest_batches_total{wire_version="2"} 1' in text
        assert f"repro_user_budget_spent_epsilon_count {N}" in text
        # ...but request-path observation is nulled out.
        assert "repro_request_seconds_bucket" not in text
        assert "repro_ingest_reports_total" not in text
        assert client.healthz()["batches_accepted"] == 1

    def test_spend_series_reads_the_ledger(self, serve):
        """``repro_user_budget_spent_epsilon`` is the ledger's balances
        when scraped: one sample per user, whatever the number of
        batches or campaigns that charged them, and no campaign label
        (the budget is global)."""
        other = Protocol.frequency(0.5, domain=4, oracle="grr")
        server = serve(
            _protocol(), campaigns=[other.spec], lifetime_epsilon=4.0
        )
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(np.arange(5), users=_users(5), rng=1)
        client.submit(np.arange(5), users=_users(5), rng=2)
        client.for_campaign(other.spec).submit(
            np.arange(3), users=_users(3), rng=3
        )
        client.submit(np.arange(2), users=_users(2, "v"), rng=4)
        text = client.server_metrics_text()
        spend = {
            line.split(" ")[0]: float(line.split(" ")[1])
            for line in text.splitlines()
            if line.startswith("repro_user_budget_spent_epsilon_")
        }
        assert not any("campaign" in name for name in spend)
        name = "repro_user_budget_spent_epsilon"
        users = server.metrics.registry.sample("repro_users_charged")
        assert spend[f"{name}_count"] == users == 7
        assert spend[f"{name}_sum"] == server.ledger.total_spent()
        assert spend[f"{name}_sum"] == 3 * 2.5 + 2 * 2.0 + 2 * 1.0
        # u0-u2 spent 2.5, u3-u4 2.0, v0-v1 1.0.
        assert [
            spend[f'{name}_bucket{{le="{le}"}}']
            for le in ("0.5", "1", "1.5", "2", "3", "+Inf")
        ] == [0, 2, 2, 4, 7, 7]

    @pytest.mark.parametrize("instrument", [True, False])
    def test_state_series_survive_a_restart(self, serve, tmp_path, instrument):
        """No series holds state: after a drain and a restart, the
        counts ``/metrics`` and ``/healthz`` show are read from the
        resumed campaigns and ledger, equal to what they were before
        the stop."""
        other = Protocol.frequency(1.0, domain=4, oracle="grr")
        kwargs = dict(
            campaigns=[other.spec],
            lifetime_epsilon=2.0,
            checkpoint_every=2,
            instrument=instrument,
        )
        server = serve(_protocol(), store=SnapshotStore(tmp_path), **kwargs)
        client = ServiceClient("127.0.0.1", server.port)
        for _ in range(2):
            client.submit(
                np.arange(N) % 10, users=_users(N), rng=1,
                idempotency_key="k1",
            )
        client.for_campaign(other.spec).submit(
            np.arange(N) % 4, users=_users(N, "b"), rng=2
        )
        client.submit(np.arange(N) % 10, users=_users(N, "c"), rng=3)

        def state(port):
            client = ServiceClient("127.0.0.1", port)
            lines = [
                line
                for line in client.server_metrics_text().splitlines()
                if line.startswith((
                    "repro_batches_accepted_total{",
                    "repro_duplicate_batches_total ",
                    "repro_campaign_reports{",
                    "repro_users_charged ",
                    "repro_user_budget_spent_epsilon_",
                ))
            ]
            health = client.healthz()
            counts = [
                health[k]
                for k in (
                    "batches_accepted", "duplicates", "reports",
                    "users_charged", "campaigns",
                )
            ]
            return lines, counts

        before = state(server.port)
        # Six count lines, then 12 spend buckets, _sum and _count.
        assert len(before[0]) == 6 + 14
        assert before[0][-2:] == [
            f"repro_user_budget_spent_epsilon_sum {3 * N}",
            f"repro_user_budget_spent_epsilon_count {3 * N}",
        ]
        assert before[1][:4] == [3, 1, 3 * N, 3 * N]
        server.drain()
        server.stop()
        resumed = serve(_protocol(), store=SnapshotStore(tmp_path), **kwargs)
        assert state(resumed.port) == before

    def test_duplicate_batches_counted(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        values = np.arange(N) % 10
        client.submit(
            values, users=_users(N), rng=SEED, idempotency_key="same-batch"
        )
        client.submit(
            values, users=_users(N), rng=SEED, idempotency_key="same-batch"
        )
        assert server.metrics.registry.sample(
            "repro_duplicate_batches_total"
        ) == 1

    def test_checkpoint_series_count_cuts_and_bytes_written(
        self, serve, tmp_path
    ):
        """After k checkpoints: k in the counter and the histogram, and
        the gauge holds the newest cut's manifest plus the payloads
        that cut wrote (only campaigns dirty since the last cut)."""
        other = Protocol.frequency(1.0, domain=4, oracle="grr")
        server = serve(
            _protocol(),
            campaigns=[other.spec],
            store=SnapshotStore(tmp_path),
            checkpoint_every=2,
        )
        client = ServiceClient("127.0.0.1", server.port)
        bound = client.for_campaign(other.spec)
        # Cuts at seq 2 (both campaigns dirty) and 4 (the default only).
        client.submit(np.arange(N) % 10, users=_users(N, "a"), rng=1)
        bound.submit(np.arange(N) % 4, users=_users(N, "b"), rng=2)
        client.submit(np.arange(N) % 10, users=_users(N, "c"), rng=3)
        client.submit(np.arange(N) % 10, users=_users(N, "d"), rng=4)
        samples = dict(
            line.rsplit(" ", 1)
            for line in client.server_metrics_text().splitlines()
            if line and not line.startswith("#")
        )
        assert samples["repro_checkpoints_total"] == "2"
        assert samples["repro_checkpoint_seconds_count"] == "2"
        store = SnapshotStore(tmp_path)
        assert store.latest_sequence() == 4
        payloads = sorted(tmp_path.glob("*/snapshot-0000000004.json"))
        assert [p.parent.name for p in payloads] == [
            server.registry.default.fingerprint
        ]
        written = store.path(4).stat().st_size + sum(
            p.stat().st_size for p in payloads
        )
        assert samples["repro_checkpoint_last_bytes"] == str(written)


class TestClientMetrics:
    def test_client_tracks_its_own_requests(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(np.arange(N) % 10, users=_users(N), rng=SEED)
        client.healthz()
        text = client.metrics_text()
        assert 'repro_client_responses_total{endpoint="/report",status="200"} 1' in text
        assert 'repro_client_responses_total{endpoint="/healthz",status="200"} 1' in text
        assert "repro_client_request_seconds_bucket" in text

    def test_connection_retries_counted(self):
        client = ServiceClient(
            "127.0.0.1", 1, retries=2, retry_delay=0.0, retry_max_delay=0.0
        )
        with pytest.raises(ConnectionError):
            client.healthz()
        assert (
            'repro_client_retries_total{reason="connection_error"} 2'
            in client.metrics_text()
        )


class TestRequestLogs:
    def test_refusal_logs_name_only_their_own_campaign(self, caplog):
        """A request's campaign binding ends with the request: a batch
        for an unknown campaign, refused before it is routed, logs no
        campaign, where it once logged the one an earlier request on
        the same keep-alive connection had bound.  The requests run in
        one context of their own, as a connection's task does."""
        protocol = _protocol()
        fp = wire.spec_fingerprint(protocol.spec)
        server = IngestionServer(protocol)
        reports = wire.encode_reports(protocol.client().encode_batch(
            np.arange(4), np.random.default_rng(SEED)
        ))
        rejected = []
        connection = contextvars.Context()

        class Rejections(logging.Handler):
            def emit(self, record):
                entry = json.loads(JsonFormatter().format(record))
                if entry["event"] == "batch rejected":
                    rejected.append(entry)

        def post(key, campaign=None):
            envelope = wire.pack(
                {"users": _users(4), "idempotency_key": key,
                 "reports": reports},
                fp,
                campaign=campaign,
            )
            rejected.clear()
            status, _ = connection.run(server._handle_request, Request(
                "POST", "/report", {}, "application/json",
                json.dumps(envelope).encode(),
            ))
            return status, [
                (entry["status"], entry["reason"], entry.get("campaign"))
                for entry in rejected
            ]

        logger = logging.getLogger("repro.service.server")
        caplog.set_level(logging.INFO, logger=logger.name)
        handler = Rejections()
        logger.addHandler(handler)
        try:
            assert post("first") == (200, [])
            assert post("again") == (
                429, [(429, "budget_exceeded", fp)]
            )
            assert post("elsewhere", campaign="0" * 64) == (
                404, [(404, "unknown_campaign", None)]
            )
        finally:
            logger.removeHandler(handler)


class TestDrainSemantics:
    def test_draining_server_refuses_new_batches_but_serves_reads(
        self, serve
    ):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port, retries=0)
        client.submit(np.arange(N) % 10, users=_users(N), rng=SEED)
        server.begin_drain()
        assert server.drain_state is DrainState.DRAINING
        with pytest.raises(ServiceError) as excinfo:
            client.submit(
                np.arange(N) % 10, users=_users(N, prefix="v"), rng=SEED
            )
        assert excinfo.value.status == 503
        assert excinfo.value.payload["error"] == "draining"
        # Reads still work: scrape, health, estimate.
        assert client.healthz()["status"] == "draining"
        assert "repro_draining 1" in client.server_metrics_text()
        assert client.estimate() is not None

    def test_drain_flushes_and_checkpoints(self, serve, tmp_path):
        server = serve(
            _protocol(),
            store=SnapshotStore(tmp_path),
            checkpoint_every=1000,
        )
        client = ServiceClient("127.0.0.1", server.port)
        for i in range(3):
            client.submit(
                np.arange(N) % 10,
                users=_users(N, prefix=f"b{i}-"),
                rng=SEED + i,
            )
        result = server.drain()
        assert isinstance(result, DrainResult)
        assert result.checkpoint_seq == 3
        assert result.batches_accepted == 3
        assert server.drain_state is DrainState.DRAINED
        assert SnapshotStore(tmp_path).latest_sequence() == 3
        assert client.healthz()["status"] == "drained"

    def test_drain_without_store_reports_no_checkpoint(self, serve):
        server = serve(_protocol())
        result = server.drain()
        assert result.checkpoint_seq is None

    def test_drain_is_idempotent(self, serve, tmp_path):
        server = serve(
            _protocol(), store=SnapshotStore(tmp_path), checkpoint_every=1000
        )
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(np.arange(N) % 10, users=_users(N), rng=SEED)
        first = server.drain()
        second = server.drain()
        assert first.checkpoint_seq == second.checkpoint_seq == 1
        assert second.batches_accepted == 1


def _boot_cli(tmp_path, tag, extra_args):
    spec_path = tmp_path / "spec.json"
    if not spec_path.exists():
        spec_path.write_text(
            json.dumps(Protocol.frequency(1.0, domain=6).spec.to_dict())
        )
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = (
        f"{root / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.service",
            "--spec", str(spec_path),
            "--port", "0",
            "--snapshot-dir", str(tmp_path / tag),
            "--log-format", "json",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    banner = proc.stdout.readline()
    assert "repro.service:" in banner, banner
    port = int(banner.split("http://127.0.0.1:")[1].split()[0])
    return proc, port


def _submit_twin_batches(port):
    """Three deterministic batches — identical across twin runs."""
    client = ServiceClient("127.0.0.1", port, retries=5)
    for i in range(3):
        client.submit(
            np.array([1, 2, 3, 1, 5, 0]),
            users=_users(6, prefix=f"b{i}-"),
            rng=i,
        )


def _snapshot_files(directory, seq):
    """(relative-name, bytes) for every seq-`seq` file, root + namespaces."""
    directory = Path(directory)
    name = f"snapshot-{seq:010d}.json"
    out = {name: (directory / name).read_bytes()}
    for child in sorted(p for p in directory.iterdir() if p.is_dir()):
        out[f"{child.name}/{name}"] = (child / name).read_bytes()
    return out


# SIGTERM and SIGINT (Ctrl-C) stop the CLI through one handler: both
# drain.
@pytest.mark.parametrize(
    "signum", [signal.SIGTERM, signal.SIGINT], ids=lambda s: s.name
)
class TestSigtermDrain:
    def test_signal_drains_flushes_and_exits_zero(self, tmp_path, signum):
        proc, port = _boot_cli(
            tmp_path, "drained", ["--checkpoint-every", "1000"]
        )
        try:
            _submit_twin_batches(port)
            status, headers, body = _scrape_raw(port)
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=15)
        except BaseException:
            proc.kill()
            raise
        # The CLI serves /metrics: the core series, request-path ones
        # included, and no shard series.
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE_LATEST
        text = body.decode("utf-8")
        for series in (
            "repro_batches_accepted_total{campaign=",
            'repro_ingest_batches_total{wire_version="2"} 3',
            "repro_request_seconds_bucket",
            "repro_uptime_seconds",
            "repro_draining 0",
            "repro_checkpoints_total 0",
            "repro_user_budget_spent_epsilon_count 18",
        ):
            assert series in text, series
        assert "repro_shard_" not in text
        assert proc.returncode == 0, out + err
        assert f"draining ({signum.name})" in out
        assert "final checkpoint 3" in out
        assert "repro.service: stopped" in out
        # Structured stderr: every line is one JSON object, and the
        # drain lifecycle events are present.
        events = [json.loads(line)["event"] for line in err.splitlines()]
        assert "drain started" in events
        assert "checkpoint written" in events
        assert "drain complete" in events
        assert SnapshotStore(tmp_path / "drained").latest_sequence() == 3

    def test_drain_checkpoint_bitwise_equals_uninterrupted_twin(
        self, tmp_path, signum
    ):
        # Twin A: never checkpoints on its own (interval 1000); the only
        # snapshot it writes is the final one from the signal's drain.
        proc_a, port_a = _boot_cli(
            tmp_path, "a", ["--checkpoint-every", "1000"]
        )
        try:
            _submit_twin_batches(port_a)
            proc_a.send_signal(signum)
            out_a, err_a = proc_a.communicate(timeout=15)
        except BaseException:
            proc_a.kill()
            raise
        assert proc_a.returncode == 0, out_a + err_a

        # Twin B: checkpoints after every batch — snapshot seq 3 is
        # written by the ordinary uninterrupted request path.  The
        # process is then killed abruptly so no shutdown code runs.
        proc_b, port_b = _boot_cli(
            tmp_path, "b", ["--checkpoint-every", "1"]
        )
        try:
            _submit_twin_batches(port_b)
            twin = _snapshot_files(tmp_path / "b", 3)
        finally:
            proc_b.kill()
            proc_b.communicate(timeout=15)

        drained = _snapshot_files(tmp_path / "a", 3)
        assert set(drained) == set(twin)
        for name in drained:
            assert drained[name] == twin[name], (
                f"snapshot file {name} differs between drained and "
                "uninterrupted runs"
            )

    def test_signal_with_idle_keepalive_connection_exits_zero(
        self, tmp_path, signum
    ):
        """The SDK's kept-alive connection must not hold the drain open
        (``Server.wait_closed()`` waits for open connections on
        Python >= 3.12.1)."""
        proc, port = _boot_cli(
            tmp_path, "kept", ["--checkpoint-every", "1000"]
        )
        client = ServiceClient("127.0.0.1", port, retries=5)
        try:
            client.submit(np.arange(N) % 6, users=_users(N), rng=SEED)
            assert client.healthz()["batches_accepted"] == 1
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=15)
        except BaseException:
            proc.kill()
            raise
        finally:
            client.close()
        assert proc.returncode == 0, out + err
        assert "final checkpoint 1" in out
        assert "repro.service: stopped" in out
        assert SnapshotStore(tmp_path / "kept").latest_sequence() == 1

    def test_signal_before_any_traffic_exits_zero(self, tmp_path, signum):
        proc, port = _boot_cli(
            tmp_path, "idle", ["--checkpoint-every", "1000"]
        )
        try:
            # Server is up (banner parsed); drain immediately.
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=15)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0, out + err
        assert f"draining ({signum.name})" in out
