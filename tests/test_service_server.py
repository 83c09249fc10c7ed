"""End-to-end service tests against a live local server.

Each test boots a real :class:`IngestionServer` on an ephemeral
localhost port (asyncio loop in a daemon thread) and drives it through
the :class:`ServiceClient` SDK — the full client → wire → HTTP →
accountant → accumulator → estimate path, including kill-and-resume
from the latest snapshot.
"""

import json
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_br_like
from repro.frequency import OLHReports
from repro.protocol import Protocol
from repro.service import (
    CampaignClosedError,
    IngestionServer,
    OverBudgetError,
    ServiceClient,
    ServiceError,
    SnapshotCorruptError,
    SnapshotStore,
    wire,
)
from repro.analysis.accountant import PrivacyAccountant
from repro.campaigns import Campaign
from repro.stream import WindowConfig
from wire_v1 import post_v1

SEED = 77
N = 200


def _cases():
    rng = np.random.default_rng(4)
    dataset = make_br_like(N, rng=np.random.default_rng(5))
    return {
        "mean": (Protocol.numeric_mean(1.0, "hm"), rng.uniform(-1, 1, N)),
        "frequency": (
            Protocol.frequency(1.0, domain=10, oracle="oue"),
            rng.integers(0, 10, N),
        ),
        "frequency-olh": (
            Protocol.frequency(1.0, domain=10, oracle="olh"),
            rng.integers(0, 10, N),
        ),
        "histogram": (
            Protocol.histogram(2.0, bins=8),
            rng.uniform(-1, 1, N),
        ),
        "multidim-numeric": (
            Protocol.multidim(4.0, d=4, mechanism="hm"),
            rng.uniform(-1, 1, (N, 4)),
        ),
        "multidim-mixed": (
            Protocol.multidim(4.0, schema=dataset.schema, mechanism="pm"),
            dataset,
        ),
    }


def _assert_estimates_bitwise_equal(a, b):
    if hasattr(a, "histogram"):
        np.testing.assert_array_equal(a.histogram, b.histogram)
        np.testing.assert_array_equal(a.raw, b.raw)
        return
    if hasattr(a, "frequencies"):
        assert a.means == b.means
        for key in a.frequencies:
            np.testing.assert_array_equal(
                a.frequencies[key], b.frequencies[key]
            )
        return
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


@pytest.fixture
def serve():
    """Factory fixture: boot servers in threads, stop them at teardown."""
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


def _raw_request(port, data):
    """Send raw bytes, half-close, and parse the status + JSON body."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestEndToEnd:
    @pytest.mark.parametrize("name", sorted(_cases()))
    def test_estimate_matches_protocol_run_bitwise(self, serve, name):
        protocol, values = _cases()[name]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values, users=_users(N), rng=SEED)
        _assert_estimates_bitwise_equal(
            client.estimate(), protocol.run(values, rng=SEED)
        )

    def test_multiple_batches_fold_in_arrival_order(self, serve):
        protocol, values = _cases()["multidim-numeric"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        reference = protocol.server()
        encoder = protocol.client()
        for i in range(4):
            chunk = values[i * 50 : (i + 1) * 50]
            reports = encoder.encode_batch(chunk, np.random.default_rng(i))
            reference.absorb(reports)
            client.submit_reports(
                reports, users=_users(50, prefix=f"b{i}-")
            )
        _assert_estimates_bitwise_equal(
            client.estimate(), reference.estimate()
        )
        assert client.healthz()["reports"] == N

    def test_spec_endpoint_rebuilds_identical_protocol(self, serve):
        protocol, _ = _cases()["frequency"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        assert client.protocol.spec == protocol.spec
        assert client.fingerprint == server.fingerprint


class TestBudgetEnforcement:
    def test_over_budget_users_rejected_with_429(self, serve):
        protocol, values = _cases()["mean"]
        server = serve(protocol)  # lifetime defaults to spec epsilon
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values[:50], users=_users(50), rng=0)
        with pytest.raises(OverBudgetError) as excinfo:
            client.submit(values[:50], users=_users(50), rng=1)
        assert excinfo.value.status == 429
        assert set(excinfo.value.rejected_users) == set(_users(50))

    def test_rejection_is_atomic(self, serve):
        """One exhausted user poisons the whole batch: nothing absorbed,
        nobody charged."""
        protocol, values = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values[:1], users=["veteran"], rng=0)
        before = client.healthz()
        with pytest.raises(OverBudgetError) as excinfo:
            client.submit(
                values[:3], users=["fresh-a", "veteran", "fresh-b"], rng=1
            )
        assert excinfo.value.rejected_users == ["veteran"]
        after = client.healthz()
        assert after["reports"] == before["reports"]
        assert after["users_charged"] == before["users_charged"]
        # The fresh users still have full budget: resubmitting without
        # the exhausted user succeeds.
        client.submit(values[:2], users=["fresh-a", "fresh-b"], rng=2)

    def test_duplicate_user_in_batch_charged_at_multiplicity(self, serve):
        """A user appearing twice in one batch must afford 2x epsilon —
        checked up front, so the batch is rejected cleanly (no partial
        charge, no 500) when they cannot."""
        protocol, values = _cases()["mean"]
        server = serve(protocol)  # lifetime == epsilon: 2x never fits
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(OverBudgetError) as excinfo:
            client.submit(values[:2], users=["dup", "dup"], rng=0)
        assert excinfo.value.rejected_users == ["dup"]
        health = client.healthz()
        assert health["reports"] == 0
        assert health["users_charged"] == 0
        # With room for both reports the batch is accepted and the user
        # is charged for each.
        roomy = serve(protocol, lifetime_epsilon=2.0)
        client2 = ServiceClient("127.0.0.1", roomy.port)
        client2.submit(values[:2], users=["dup", "dup"], rng=0)
        with pytest.raises(OverBudgetError):
            client2.submit(values[:1], users=["dup"], rng=1)

    def test_failed_absorb_does_not_consume_budget(self, serve):
        """Reports that decode but violate the protocol shape must not
        charge anyone: the corrected resubmission still has budget."""
        protocol, _ = _cases()["multidim-numeric"]  # expects (n, 4)
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.submit_reports(np.zeros((3, 2)), users=_users(3))
        assert excinfo.value.status == 400
        assert client.healthz()["users_charged"] == 0
        # Same users, well-formed reports: accepted.
        good = client.encode(np.zeros((3, 4)), rng=0)
        assert client.submit_reports(good, _users(3))["status"] == "accepted"

    def test_higher_lifetime_allows_repeat_reports(self, serve):
        protocol, values = _cases()["mean"]
        server = serve(protocol, lifetime_epsilon=2.0)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values[:10], users=_users(10), rng=0)
        client.submit(values[:10], users=_users(10), rng=1)  # 2nd eps=1.0
        with pytest.raises(OverBudgetError):
            client.submit(values[:10], users=_users(10), rng=2)


class TestIdempotency:
    def test_duplicate_key_not_double_counted(self, serve):
        protocol, values = _cases()["frequency"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        reports = client.encode(values[:40], rng=3)
        first = client.submit_reports(reports, users=_users(40))
        est = client.estimate()
        # Same content -> same derived key -> duplicate, even from a
        # fresh SDK instance (e.g. a crashed-and-rerun client script).
        retry_client = ServiceClient("127.0.0.1", server.port)
        second = retry_client.submit_reports(reports, users=_users(40))
        assert first["status"] == "accepted"
        assert second["status"] == "duplicate"
        _assert_estimates_bitwise_equal(client.estimate(), est)
        assert client.healthz()["reports"] == 40

    def test_explicit_key(self, serve):
        protocol, values = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values[:5], users=_users(5), rng=0,
                      idempotency_key="batch-0")
        dup = client.submit(
            values[5:10], users=_users(5, "other"), rng=1,
            idempotency_key="batch-0",
        )
        assert dup["status"] == "duplicate"


class TestRejections:
    def test_mismatched_fingerprint_rejected(self, serve):
        protocol, values = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        envelope = wire.pack(
            {
                "users": ["u0"],
                "idempotency_key": None,
                "reports": wire.encode_reports(np.zeros(1)),
            },
            "0" * 64,
        )
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/report", envelope)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"] == "spec_mismatch"
        assert client.healthz()["reports"] == 0

    def test_unknown_wire_version_rejected(self, serve):
        protocol, _ = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        envelope = wire.pack({"users": ["u0"]}, server.fingerprint)
        envelope["wire_version"] = 99
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/report", envelope)
        assert excinfo.value.status == 400

    def test_user_report_count_mismatch_rejected(self, serve):
        protocol, values = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(values[:5], users=_users(3), rng=0)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("wire_version", [1, 2])
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s, b: (s, np.where(np.arange(b.size) == 3, 99, b)),
            lambda s, b: (s, b + 0.5),
            lambda s, b: (s.astype(float) + 0.5, b),
        ],
        ids=["bucket-99", "bucket-fraction", "seed-fraction"],
    )
    def test_malformed_olh_batch_charges_nothing(
        self, serve, wire_version, corrupt
    ):
        """Buckets outside [0, g) or non-integer buckets or seeds get
        400 bad_reports before any budget is charged: the ledger and
        the accumulator stay byte-identical."""
        protocol, values = _cases()["frequency-olh"]
        server = serve(protocol, lifetime_epsilon=3.0)
        client = ServiceClient("127.0.0.1", server.port)
        send = client.submit_reports
        if wire_version == 1:
            send = partial(post_v1, client)
        good = client.encode(values[:50], rng=0)
        send(good, _users(50))
        accumulator = server.registry.default.accumulator

        def state():
            support = accumulator.state_dict()["support"].tobytes()
            return json.dumps(server.ledger.to_dict()), support, \
                accumulator.count

        before = state()
        seeds, buckets = corrupt(good.seeds, good.buckets)
        with pytest.raises(ServiceError) as excinfo:
            send(OLHReports(seeds=seeds, buckets=buckets), _users(50))
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "bad_reports"
        assert state() == before

    @pytest.mark.parametrize(
        "content_type", ["application/json", wire.COLUMNAR_CONTENT_TYPE]
    )
    @pytest.mark.parametrize(
        "length, body, error",
        [(100, b"hello", "truncated_body"), (-5, b"", "bad_content_length")],
        ids=["truncated", "negative"],
    )
    def test_bad_content_length_is_400_and_changes_nothing(
        self, serve, content_type, length, body, error
    ):
        protocol, values = _cases()["frequency"]
        server = serve(protocol, lifetime_epsilon=3.0)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values[:20], users=_users(20), rng=0)
        accumulator = server.registry.default.accumulator

        def state():
            return json.dumps(server.ledger.to_dict()), json.dumps(
                wire.encode_accumulator_state(accumulator)
            )

        before = state()
        head = (
            f"POST /report HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("ascii")
        status, payload = _raw_request(server.port, head + body)
        assert status == 400
        assert payload["error"] == error
        assert state() == before
        assert client.healthz()["batches_accepted"] == 1

    @pytest.mark.parametrize(
        "path, field, value, error",
        [
            ("/report", None, [1, 2], "bad_request"),
            ("/report", None, "report", "bad_request"),
            ("/campaigns", None, [1, 2], "bad_request"),
            ("/report", "reports", [1, 2], "bad_reports"),
            ("/report", "n", {}, "bad_reports"),
            ("/report", "categorical", [], "bad_reports"),
        ],
        ids=[
            "report-array", "report-string", "campaigns-array",
            "reports-array", "mixed-n-object", "mixed-categorical-list",
        ],
    )
    def test_malformed_body_is_400_and_changes_nothing(
        self, serve, path, field, value, error
    ):
        """A body the handlers cannot read gets 400, not 500 internal:
        a whole body that is not a JSON object, or a v1 ``reports``
        field that ``decode_reports`` cannot read.  The ledger, the
        accumulator and the campaign list stay byte-identical."""
        protocol, values = _cases()["multidim-mixed"]
        server = serve(protocol, lifetime_epsilon=8.0)
        client = ServiceClient("127.0.0.1", server.port, retries=0)
        client.submit(values.subset(np.arange(20)), users=_users(20), rng=0)
        reports = wire.encode_reports(
            client.encode(values.subset(np.arange(20, 40)), rng=1)
        )
        envelope = wire.pack(
            {
                "users": _users(20, "x"),
                "idempotency_key": "forged",
                "reports": reports,
            },
            server.fingerprint,
        )
        if field == "reports":
            envelope["payload"]["reports"] = value
        elif field is not None:
            reports[field] = value
        accumulator = server.registry.default.accumulator

        def state():
            return (
                json.dumps(server.ledger.to_dict()),
                json.dumps(wire.encode_accumulator_state(accumulator)),
                json.dumps(server.registry.describe()),
            )

        before = state()
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", path, envelope if field is not None else value
            )
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == error
        assert state() == before

    @pytest.mark.parametrize("wire_version", [1, 2])
    @pytest.mark.parametrize(
        "key", [7, ["k"], {"k": 1}], ids=["int", "list", "object"]
    )
    def test_non_string_idempotency_key_is_400_and_later_cuts_succeed(
        self, serve, tmp_path, wire_version, key
    ):
        """Keys are checkpointed sorted next to the SDK's string keys.
        An accepted int key broke every later checkpoint and drain, and
        a restart then resumed a cut without the charges since."""
        protocol, values = _cases()["frequency"]
        kwargs = dict(lifetime_epsilon=3.0, store=SnapshotStore(tmp_path))
        server = serve(protocol, **kwargs)
        client = ServiceClient("127.0.0.1", server.port, retries=0)
        client.submit(values[:20], users=_users(20), rng=0)
        reports = client.encode(values[20:40], rng=1)
        if wire_version == 1:
            request = {
                "body": wire.pack(
                    {
                        "users": _users(20, "x"),
                        "idempotency_key": key,
                        "reports": wire.encode_reports(reports),
                    },
                    server.fingerprint,
                )
            }
        else:
            # The SDK sends string keys; a hand-made frame's JSON
            # header can carry any type.
            frame = wire.pack_columns(
                wire.reports_to_columns(reports),
                server.fingerprint,
                users=_users(20, "x"),
            )
            (head_len,) = struct.unpack("<I", frame[4:8])
            header = json.loads(frame[8:8 + head_len])
            header["idempotency_key"] = key
            head = json.dumps(header).encode("utf-8")
            request = {
                "raw_body": frame[:4] + struct.pack("<I", len(head)) + head
                + frame[8 + head_len:],
                "content_type": wire.COLUMNAR_CONTENT_TYPE,
            }
        accumulator = server.registry.default.accumulator

        def state():
            return json.dumps(server.ledger.to_dict()), json.dumps(
                wire.encode_accumulator_state(accumulator)
            )

        before = state()
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/report", **request)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "bad_request"
        assert state() == before
        client.submit(values[40:60], users=_users(20, "y"), rng=2)
        assert client.checkpoint() == 2
        assert server.drain().checkpoint_seq == 2
        server.stop()
        resumed = serve(protocol, **kwargs)
        health = ServiceClient("127.0.0.1", resumed.port).healthz()
        assert health["batches_accepted"] == 2
        assert health["reports"] == 40
        assert health["users_charged"] == 40

    def test_estimate_before_any_report_is_409(self, serve):
        protocol, _ = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.estimate()
        assert excinfo.value.status == 409

    def test_unknown_path_404_and_wrong_method_405(self, serve):
        protocol, _ = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/report")
        assert excinfo.value.status == 405


class TestCrashResume:
    def test_kill_and_resume_is_bitwise_equal(self, serve, tmp_path):
        protocol, values = _cases()["multidim-numeric"]
        encoder = protocol.client()
        batches = [
            (
                encoder.encode_batch(
                    values[i * 40 : (i + 1) * 40], np.random.default_rng(i)
                ),
                _users(40, prefix=f"b{i}-"),
            )
            for i in range(5)
        ]
        uninterrupted = protocol.server()
        for reports, _ in batches:
            uninterrupted.absorb(reports)

        server = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client = ServiceClient("127.0.0.1", server.port)
        for reports, users in batches[:3]:
            client.submit_reports(reports, users)
        server.stop()  # abrupt: no final checkpoint, crash-equivalent

        resumed = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client2 = ServiceClient("127.0.0.1", resumed.port)
        health = client2.healthz()
        assert health["resumed_from_snapshot"] == 3
        assert health["reports"] == 120
        for reports, users in batches[3:]:
            client2.submit_reports(reports, users)
        _assert_estimates_bitwise_equal(
            client2.estimate(), uninterrupted.estimate()
        )

    def test_budgets_survive_restart(self, serve, tmp_path):
        protocol, values = _cases()["mean"]
        server = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values[:20], users=_users(20), rng=0)
        server.stop()

        resumed = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client2 = ServiceClient("127.0.0.1", resumed.port)
        with pytest.raises(OverBudgetError):
            client2.submit(values[:20], users=_users(20), rng=1)

    def test_idempotency_keys_survive_restart(self, serve, tmp_path):
        protocol, values = _cases()["mean"]
        server = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client = ServiceClient("127.0.0.1", server.port)
        reports = client.encode(values[:10], rng=0)
        client.submit_reports(reports, _users(10), idempotency_key="k1")
        server.stop()

        resumed = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client2 = ServiceClient("127.0.0.1", resumed.port)
        dup = client2.submit_reports(
            reports, _users(10, "new"), idempotency_key="k1"
        )
        assert dup["status"] == "duplicate"
        assert client2.healthz()["reports"] == 10

    def test_resume_refuses_foreign_snapshot(self, tmp_path):
        protocol, values = _cases()["mean"]
        server = IngestionServer(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        ).run_in_thread()
        try:
            client = ServiceClient("127.0.0.1", server.port)
            client.submit(values[:5], users=_users(5), rng=0)
        finally:
            server.stop()
        other = Protocol.numeric_mean(2.0, "pm")
        with pytest.raises(wire.SpecMismatchError):
            IngestionServer(other, store=SnapshotStore(tmp_path))

    def test_resume_refuses_another_lifetime_budget(self, tmp_path):
        """Every balance in a manifest was capped at its budget, so a
        resume under another one fails boot closed; none given keeps
        the manifest's, not the default campaign's epsilon."""
        protocol = Protocol.numeric_mean(0.5, "hm")
        IngestionServer(
            protocol, lifetime_epsilon=1.0, store=SnapshotStore(tmp_path)
        ).checkpoint_now()
        before = _tree_bytes(tmp_path)
        with pytest.raises(wire.SpecMismatchError, match="lifetime epsilon"):
            IngestionServer(
                protocol, lifetime_epsilon=3.0, store=SnapshotStore(tmp_path)
            )
        assert _tree_bytes(tmp_path) == before
        for configured in (None, 1.0):
            resumed = IngestionServer(
                protocol,
                lifetime_epsilon=configured,
                store=SnapshotStore(tmp_path),
            )
            assert resumed.ledger.lifetime_epsilon == 1.0

    def test_resume_without_campaigns_takes_the_manifest_budget(
        self, tmp_path
    ):
        """A server given no campaigns and no budget resumes both from
        the manifest; with nothing to resume it still needs a budget."""
        with pytest.raises(ValueError, match="explicit lifetime_epsilon"):
            IngestionServer(store=SnapshotStore(tmp_path))
        assert _tree_bytes(tmp_path) == {}
        protocol = Protocol.numeric_mean(0.5, "hm")
        first = IngestionServer(
            protocol, lifetime_epsilon=1.0, store=SnapshotStore(tmp_path)
        )
        first.checkpoint_now()
        resumed = IngestionServer(store=SnapshotStore(tmp_path))
        assert resumed.ledger.lifetime_epsilon == 1.0
        assert resumed.fingerprint == first.fingerprint
        assert [c.fingerprint for c in resumed.registry] == [
            first.fingerprint
        ]


def _cli_env():
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = (
        f"{root / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
    )
    return env


def _cli(*args):
    """The CLI serving on a free port: its process, banner and port."""
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.service", "--port", "0",
            *map(str, args),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=_cli_env(),
        text=True,
    )
    banner = proc.stdout.readline()
    if "http://127.0.0.1:" not in banner:
        proc.kill()
        pytest.fail(f"no banner: {banner}{proc.communicate()[0]}")
    return proc, banner, int(banner.split("http://127.0.0.1:")[1].split()[0])


def _stop(proc, signum):
    """Send ``signum`` and wait: the exit code and the output."""
    try:
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=15)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, out


def _tree_bytes(root):
    """Every path under ``root`` with its bytes (``None`` for dirs)."""
    return {
        str(path.relative_to(root)): (
            path.read_bytes() if path.is_file() else None
        )
        for path in sorted(root.rglob("*"))
    }


class TestCommandLine:
    def test_cli_serves_and_checkpoints_on_sigint(self, tmp_path):
        """The CLI answers a resent key as a duplicate, drains on SIGINT
        with a final checkpoint, and a CLI restart on the same snapshot
        directory serves the same counts and drains to the same
        ledger."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(Protocol.frequency(1.0, domain=6).spec.to_dict())
        )
        snaps = SnapshotStore(tmp_path / "snaps")
        running = []

        def boot():
            proc = subprocess.Popen(
                [
                    sys.executable, "-u", "-m", "repro.service",
                    "--spec", str(spec_path),
                    "--port", "0",
                    "--snapshot-dir", str(snaps.directory),
                    "--checkpoint-every", "1",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                env=_cli_env(),
                text=True,
            )
            running.append(proc)
            # A restart logs "resumed from snapshot" before the banner.
            banner = proc.stdout.readline()
            while "http://127.0.0.1:" not in banner:
                assert banner, "the server exited before its banner"
                banner = proc.stdout.readline()
            port = int(banner.split("http://127.0.0.1:")[1].split()[0])
            return proc, ServiceClient("127.0.0.1", port, retries=5)

        def drain(proc):
            """SIGINT; the ledger of the manifest the drain wrote."""
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=10)
            assert proc.returncode == 0, out
            assert "draining (SIGINT)" in out, out
            assert "final checkpoint" in out, out
            assert snaps.latest_sequence() == 1
            return snaps.load_latest()[1]["ledger"]

        def counts(client):
            """The batch-count series, which read the campaigns'
            counts."""
            return [
                line
                for line in client.server_metrics_text().splitlines()
                if line.startswith((
                    "repro_batches_accepted_total{campaign=",
                    "repro_duplicate_batches_total ",
                ))
            ]

        try:
            proc, client = boot()
            for status in ("accepted", "duplicate"):
                answer = client.submit(
                    np.array([1, 2, 3, 1]), users=_users(4), rng=0,
                    idempotency_key="k1",
                )
                assert answer["status"] == status, answer
            assert client.healthz()["reports"] == 4
            served = counts(client)
            assert [line.split()[-1] for line in served] == ["1", "1"]
            ledger = drain(proc)

            proc, client = boot()
            assert client.healthz()["reports"] == 4
            assert counts(client) == served
            assert drain(proc) == ledger
        finally:
            for proc in running:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()

    def test_cli_exits_2_naming_a_corrupt_manifest(self, tmp_path):
        """A newest snapshot that is cut short, is not a campaign
        manifest, has a value of the wrong shape or none where a cut
        writes one, names a campaign payload that is not on disk or
        whose idempotency keys are not a list of strings, counts a
        campaign's batches or duplicates with anything but a
        non-negative ``int``, or holds ledger values that would
        under-charge a user or cannot be written back as JSON, fails
        boot closed: no fallback to the older cut, no write, and the
        CLI exits 2 with one line naming the file.  The charge log is
        checked in all three forms, each case against a manifest in
        its form: rows of ``spent`` with ``runs``, ``[user, epsilon,
        label index]`` arrays into ``labels`` without ``runs``, and the
        ``{user, epsilon, label}`` objects of a manifest with
        neither."""
        protocol = Protocol.frequency(1.0, domain=6)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(protocol.spec.to_dict()))
        snaps = tmp_path / "snaps"
        server = IngestionServer(protocol, store=SnapshotStore(snaps))
        older = snaps / "snapshot-0000000000.json"
        assert server.checkpoint_now() == 0
        # The single-protocol layout written before campaigns existed.
        pre_campaign = {
            "seq": 1,
            "fingerprint": server.fingerprint,
            "accumulator": wire.encode_accumulator_state(protocol.server()),
            "accountant": server.ledger.to_dict(),
            "idempotency_keys": ["k1"],
            "batches_accepted": 1,
        }
        manifest = json.loads(older.read_bytes())
        fp = server.fingerprint
        campaign = manifest["campaigns"][fp]

        def newest_with(**fields):
            """The manifest as snapshot 1, with these top-level fields
            (``None`` drops one)."""
            body = {**manifest, "seq": 1, **fields}
            return json.dumps(
                {k: v for k, v in body.items() if v is not None}
            ).encode()

        def with_ledger(**fields):
            """``newest_with`` these ledger fields; ``labels=None`` makes
            the charge log verbose."""
            ledger = {**manifest["ledger"], **fields}
            return newest_with(
                ledger={k: v for k, v in ledger.items() if v is not None}
            )

        def with_log(*entries, labels=("a",)):
            """An array log (``labels=None``: an object log)."""
            return with_ledger(
                spent={"u": 1.0},
                labels=None if labels is None else list(labels),
                runs=None,
                ledger=list(entries),
            )

        def with_rows(*rows, runs=((1, 1.0, 0),), labels=("a",)):
            """A log of ``rows`` of a two-user ``spent`` map with
            ``runs`` (tuples are written as JSON lists)."""
            return with_ledger(
                spent={"u": 1.0, "v": 1.0},
                labels=labels,
                runs=runs,
                ledger=list(rows),
            )

        # Campaign payloads 5 and 6 hold idempotency keys no cut
        # writes: an int among them, and a string, which ``set`` would
        # split into its characters.
        payload = json.loads(
            (snaps / fp / "snapshot-0000000000.json").read_bytes()
        )
        for seq, keys in ((5, [1, "k0"]), (6, "abc")):
            (snaps / fp / f"snapshot-{seq:010d}.json").write_text(
                json.dumps({**payload, "idempotency_keys": keys})
            )
        not_keys = "idempotency_keys is not a list of strings"

        def counted(batches=campaign["batches_accepted"], duplicates=0):
            """The campaign entry with these counters, and the reason
            boot names for them."""
            entry = {
                **campaign,
                "batches_accepted": batches,
                "duplicates": duplicates,
            }
            return newest_with(campaigns={fp: entry}), (
                f"batches_accepted {batches!r} and duplicates "
                f"{duplicates!r} must be non-negative integers"
            )

        verbose = "is not a {user, epsilon, label} object"
        compact = "is not [user, epsilon, label index]"
        bad_run = "run 0 is not [count > 0, finite epsilon > 0, label index"
        bodies = {
            "truncated": (older.read_bytes()[:-1], "is corrupt"),
            "pre-campaign": (
                json.dumps(pre_campaign).encode(),
                "is not a campaign manifest",
            ),
            "list": (b"[]", "is not a campaign manifest"),
            "no campaigns": (b'{"seq": 0}', "is not a campaign manifest"),
            # Lifetime 1.0: -100.0 spent would leave 101 of room.
            "negative spend": (
                with_ledger(spent={"u": -100.0}),
                "user 'u': spent -100.0",
            ),
            "infinite cost": (
                with_log(["u", float("inf"), 0]), "user 'u': charge inf"
            ),
            "infinite cost, verbose": (
                with_log(
                    {"user": "u", "epsilon": float("inf"), "label": ""},
                    labels=None,
                ),
                "user 'u': charge inf",
            ),
            "entry without user": (
                with_log({"epsilon": 1.0, "label": ""}, labels=None),
                f"log entry 0 {verbose}",
            ),
            "verbose entry is a list": (
                with_log(["u", 1.0, ""], labels=None),
                f"log entry 0 {verbose}",
            ),
            "spent is a list": (with_ledger(spent=[]), "spent is not an"),
            "no lifetime_epsilon": (
                with_ledger(lifetime_epsilon=None), "lifetime_epsilon"
            ),
            "log is a string": (
                with_ledger(ledger="u"), "the charge log is not a list"
            ),
            "entry of 2": (with_log(["u", 1.0]), f"log entry 0 {compact}"),
            "entry of 4": (
                with_log(["u", 1.0, 0, 0]), f"log entry 0 {compact}"
            ),
            "entry is an object": (
                with_log({"user": "u", "epsilon": 1.0, "label": "a"}),
                f"log entry 0 {compact}",
            ),
            "negative label index": (
                with_log(["u", 1.0, -1]), "label index -1 is not"
            ),
            "label index out of range": (
                with_log(["u", 0.5, 0], ["u", 0.5, 1]),
                "log entry 1: label index 1 is not",
            ),
            "bool label index": (
                with_log(["u", 1.0, False]), "label index False is not"
            ),
            "float label index": (
                with_log(["u", 1.0, 0.0]), "label index 0.0 is not"
            ),
            "campaign is a list": (
                newest_with(campaigns={fp: []}), "has no spec"
            ),
            "campaign without spec": (
                newest_with(
                    campaigns={
                        fp: {k: v for k, v in campaign.items() if k != "spec"}
                    }
                ),
                "has no spec",
            ),
            "campaign seq is a string": (
                newest_with(campaigns={fp: {**campaign, "seq": "0"}}),
                "has seq '0', not a snapshot number",
            ),
            "campaign payload missing": (
                newest_with(campaigns={fp: {**campaign, "seq": 7}}),
                f"{Path(fp, 'snapshot-0000000007.json')} is missing",
            ),
            "a key is an int": (
                newest_with(campaigns={fp: {**campaign, "seq": 5}}),
                not_keys,
            ),
            "keys are a string": (
                newest_with(campaigns={fp: {**campaign, "seq": 6}}),
                not_keys,
            ),
            # A negative count made every later cut fail; the others
            # were read through int() as 7, 2 and 1.
            "negative batches_accepted": counted(-3),
            "string batches_accepted": counted("7"),
            "float batches_accepted": counted(2.5),
            "bool batches_accepted": counted(True),
            "negative duplicates": counted(duplicates=-4),
            "logged user without spend": (
                with_log(["u", 0.5, 0], ["v", 0.5, 0]),
                "log entry 1: user 'v' has no spent entry",
            ),
            "no batches_accepted": (
                newest_with(batches_accepted=None),
                "missing 'batches_accepted'",
            ),
            "row is a string": (with_rows("0"), "log entry 0: '0' is not"),
            "row is a float": (with_rows(0.0), "log entry 0: 0.0 is not"),
            "row is a bool": (with_rows(True), "log entry 0: True is not"),
            "negative row": (with_rows(-1), "log entry 0: -1 is not a row"),
            "row past spent": (
                with_rows(2), "log entry 0: 2 is not a row in [0, 2)"
            ),
            "row past intp": (
                with_rows(2**64), f"log entry 0: {2**64} is not a row"
            ),
            "runs is an object": (
                with_rows(0, runs={"1": [1.0, 0]}), "runs is not a list"
            ),
            "runs without labels": (
                with_rows(0, labels=None), "labels is not a list"
            ),
            "run of 2": (with_rows(0, runs=([1, 1.0],)), bad_run),
            "run of 4": (with_rows(0, runs=([1, 1.0, 0, 0],)), bad_run),
            "zero count": (
                with_rows(0, runs=([0, 1.0, 0], [1, 1.0, 0])), bad_run
            ),
            "negative count": (
                with_rows(0, runs=([-1, 1.0, 0], [2, 1.0, 0])), bad_run
            ),
            "bool count": (with_rows(0, runs=([True, 1.0, 0],)), bad_run),
            "counts one over": (
                with_rows(0, runs=([2, 1.0, 0],)),
                "2 charges in runs, 1 in the log",
            ),
            "counts one under": (
                with_rows(0, 1, runs=([1, 1.0, 0],)),
                "1 charges in runs, 2 in the log",
            ),
            "zero epsilon": (with_rows(0, runs=([1, 0.0, 0],)), bad_run),
            "negative epsilon": (with_rows(0, runs=([1, -1.0, 0],)), bad_run),
            "infinite epsilon": (
                with_rows(0, runs=([1, float("inf"), 0],)), bad_run
            ),
            "string epsilon": (with_rows(0, runs=([1, "1.0", 0],)), bad_run),
            "negative run label index": (
                with_rows(0, runs=([1, 1.0, -1],)), "[0, 1)]: [1, 1.0, -1]"
            ),
            "run label index past labels": (
                with_rows(0, runs=([1, 1.0, 1],)), "[0, 1)]: [1, 1.0, 1]"
            ),
        }
        # The row-form cases each break one field of a manifest that
        # boots.
        valid = shutil.copytree(snaps, tmp_path / "valid-rows")
        (valid / "snapshot-0000000001.json").write_bytes(
            with_rows(0, 1, runs=([2, 1.0, 0],))
        )
        resumed = IngestionServer(protocol, store=SnapshotStore(valid))
        assert [c.user for c in resumed.ledger.ledger] == ["u", "v"]
        boots = {}
        for n, (name, (body, reason)) in enumerate(bodies.items()):
            copy = shutil.copytree(snaps, tmp_path / f"case-{n}")
            newest = copy / "snapshot-0000000001.json"
            newest.write_bytes(body)
            before = _tree_bytes(copy)
            with pytest.raises(SnapshotCorruptError) as excinfo:
                IngestionServer(protocol, store=SnapshotStore(copy))
            message = str(excinfo.value)
            assert str(newest) in message and reason in message, name
            assert _tree_bytes(copy) == before, name
            boots[name] = (copy, newest, before)

        def cli(copy):
            return subprocess.run(
                [
                    sys.executable, "-m", "repro.service",
                    "--spec", str(spec_path),
                    "--port", "0",
                    "--snapshot-dir", str(copy),
                ],
                capture_output=True,
                env=_cli_env(),
                text=True,
                timeout=60,
            )

        # A failed boot is mostly interpreter start-up: run a few at once.
        with ThreadPoolExecutor(max_workers=3) as pool:
            runs = pool.map(cli, [copy for copy, _, _ in boots.values()])
        for (name, (copy, newest, before)), done in zip(boots.items(), runs):
            assert done.returncode == 2, (name, done.stdout + done.stderr)
            assert done.stdout == "", name
            lines = done.stderr.splitlines()
            assert len(lines) == 1 and str(newest) in lines[0], (
                name, done.stderr,
            )
            assert _tree_bytes(copy) == before, name

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--window", "0"], "panes must be >= 1, got 0"),
            (["--window", "2", "--decay", "2"], "decay must lie in (0, 1]"),
            (
                ["--window", "2", "--pane-seconds", "nan"],
                "pane_seconds must be finite and > 0, got nan",
            ),
            (["--lifetime-epsilon", "-1"], "epsilon must be positive"),
            (["--checkpoint-every", "0"], "checkpoint_every must be >= 1"),
        ],
        ids=["window", "decay", "pane-seconds", "lifetime", "checkpoint"],
    )
    def test_cli_exits_2_on_a_flag_value_the_server_refuses(
        self, tmp_path, flags, reason
    ):
        """A flag value the server rejects is a usage error naming the
        reason (exit 2), not a traceback with exit 1."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(Protocol.frequency(1.0, domain=6).spec.to_dict())
        )
        done = subprocess.run(
            [
                sys.executable, "-m", "repro.service",
                "--spec", str(spec_path),
                "--port", "0",
                "--snapshot-dir", str(tmp_path / "snaps"),
                *flags,
            ],
            capture_output=True,
            env=_cli_env(),
            text=True,
            timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert "Traceback" not in done.stderr, done.stderr
        last = done.stderr.splitlines()[-1]
        assert last.startswith("python -m repro.service: error: "), last
        assert reason in last, last

    @pytest.mark.parametrize(
        "saved, configured",
        [(None, 3), (3, None), (3, 4)],
        ids=["unwindowed-snapshot", "windowed-snapshot", "other-ring"],
    )
    def test_resume_refuses_a_contradicting_window(
        self, serve, tmp_path, saved, configured
    ):
        """A campaign configured at boot resumes only under the window
        its snapshot was written with.  Otherwise the constructor raises
        ``SpecMismatchError`` naming the campaign and both windows, the
        CLI exits 2 with one line on stderr, and nothing is written."""
        protocol = Protocol.frequency(1.0, domain=6)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(protocol.spec.to_dict()))
        snaps = tmp_path / "snaps"

        def window(panes):
            return None if panes is None else WindowConfig(panes=panes)

        server = serve(
            protocol,
            store=SnapshotStore(snaps),
            checkpoint_every=1,
            window=window(saved),
        )
        client = ServiceClient("127.0.0.1", server.port)
        for r in range(5):
            client.submit(
                np.arange(8) % 6, users=_users(8, f"r{r}-"), rng=r, round=r
            )
        server.stop()
        fp = server.fingerprint[:12]
        before = _tree_bytes(snaps)
        with pytest.raises(wire.SpecMismatchError) as excinfo:
            IngestionServer(
                protocol, store=SnapshotStore(snaps), window=window(configured)
            )
        message = str(excinfo.value)
        assert fp in message, message
        assert f"window={window(saved)}" in message, message
        assert f"window={window(configured)}" in message, message
        assert _tree_bytes(snaps) == before
        flags = [] if configured is None else ["--window", str(configured)]
        done = subprocess.run(
            [
                sys.executable, "-m", "repro.service",
                "--spec", str(spec_path),
                "--port", "0",
                "--snapshot-dir", str(snaps),
                *flags,
            ],
            capture_output=True,
            env=_cli_env(),
            text=True,
            timeout=60,
        )
        assert done.returncode == 2, done.stdout + done.stderr
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and fp in lines[0], done.stderr
        assert _tree_bytes(snaps) == before

    def test_interrupt_inside_a_handler_writes_no_uncharged_cut(
        self, tmp_path
    ):
        """A ``KeyboardInterrupt`` raised between a batch's absorb and
        its charge must not be checkpointed: the cut would hold reports
        that no user was charged for.  The one way to stop is the
        loop-level signal handler, which never interrupts a handler."""
        protocol = Protocol.frequency(1.0, domain=6)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(protocol.spec.to_dict()))
        snaps = tmp_path / "snaps"
        # Charge the first batch, raise inside the second one's charge.
        launcher = (
            "import runpy\n"
            "from repro.analysis.accountant import PrivacyAccountant\n"
            "charge = PrivacyAccountant.charge_batch\n"
            "calls = []\n"
            "def interrupted(self, *args, **kwargs):\n"
            "    calls.append(1)\n"
            "    if len(calls) == 2:\n"
            "        raise KeyboardInterrupt\n"
            "    return charge(self, *args, **kwargs)\n"
            "PrivacyAccountant.charge_batch = interrupted\n"
            "runpy.run_module('repro.service', run_name='__main__', "
            "alter_sys=True)\n"
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-c", launcher,
                "--spec", str(spec_path),
                "--port", "0",
                "--snapshot-dir", str(snaps),
                "--checkpoint-every", "1000",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_cli_env(),
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            port = int(banner.split("http://127.0.0.1:")[1].split()[0])
            client = ServiceClient("127.0.0.1", port, retries=0)
            assert client.checkpoint() == 0
            client.submit(np.array([1, 2, 3, 1]), users=_users(4), rng=0)
            with pytest.raises(ConnectionError):
                client.submit(
                    np.array([0, 5, 4, 2]), users=_users(4, "v"), rng=1
                )
            out, _ = proc.communicate(timeout=15)
        except BaseException:
            proc.kill()
            raise
        store = SnapshotStore(snaps)
        assert store.sequences(), out
        for seq in store.sequences():
            manifest = store.load(seq)
            charged = PrivacyAccountant.from_dict(manifest["ledger"])
            ((fp, entry),) = manifest["campaigns"].items()
            campaign = Campaign(protocol).restore(
                entry, store.namespace(fp).load(entry["seq"])
            )
            # Epsilon 1.0 a report against a lifetime of 1.0: one user
            # charged per absorbed report.
            assert campaign.reports == charged.user_count(), (seq, out)
        assert proc.returncode != 0, out
        assert "final checkpoint" not in out, out

    def test_cli_serves_campaigns_without_a_default(self, tmp_path):
        """``--campaigns`` without ``--spec``: the banner says there is
        no default, a third campaign registers over HTTP, one population
        reports to two campaigns under one budget, a sealed campaign
        answers final estimates and refuses reports, and SIGINT
        drains."""
        freq = Protocol.frequency(1.0, domain=8)
        mean = Protocol.numeric_mean(1.0, "hm")
        paths = []
        for name, protocol in [("freq", freq), ("mean", mean)]:
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(protocol.spec.to_dict()))
        proc, banner, port = _cli(
            "--campaigns", *paths, "--lifetime-epsilon", "2.0",
            "--snapshot-dir", tmp_path / "snaps", "--checkpoint-every", "1",
        )
        try:
            assert "2 campaigns, no default" in banner, banner
            base = ServiceClient("127.0.0.1", port, retries=5)
            third = Protocol.frequency(0.5, domain=4).spec
            assert base.register_campaign(third)["created"] is True
            assert len(base.campaigns()) == 3
            rng = np.random.default_rng(0)
            clients = [base.for_campaign(p.spec) for p in (freq, mean)]
            clients[0].submit(rng.integers(0, 8, N), users=_users(N), rng=1)
            clients[1].submit(rng.uniform(-1, 1, N), users=_users(N), rng=2)
            health = base.healthz()
            assert (health["reports"], health["users_charged"]) == (2 * N, N)
            for client in clients:
                client.seal_campaign()
                info = client.estimate_info()
                assert (info["final"], info["state"], info["reports"]) == (
                    True, "estimated", N,
                ), info
            with pytest.raises(CampaignClosedError):
                clients[0].submit([1] * 5, users=["late"] * 5, rng=3)
        finally:
            returncode, out = _stop(proc, signal.SIGINT)
        assert returncode == 0, out
        assert "final checkpoint" in out, out

    def test_cli_serves_a_windowed_campaign(self, tmp_path):
        """``--window 4 --pane-seconds 60``: the banner names the
        window; a memoizing SDK's unchanged second round is absorbed
        and charges nothing; window, duration and heavy-hitter reads
        answer; SIGTERM drains."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(Protocol.frequency(4.0, domain=8).spec.to_dict())
        )
        proc, banner, port = _cli(
            "--spec", spec_path, "--window", "4", "--pane-seconds", "60",
            "--lifetime-epsilon", "16",
            "--snapshot-dir", tmp_path / "snaps", "--checkpoint-every", "1",
        )
        try:
            assert "window: 4 panes x 60s" in banner, banner
            client = ServiceClient("127.0.0.1", port, retries=5, memoize=True)
            values = np.random.default_rng(0).integers(0, 8, N)
            client.submit(values, users=_users(N), rng=1, round=0)
            client.submit(values, users=_users(N), rng=2, round=1)
            assert client.healthz()["reports"] == 2 * N
            assert (
                f"repro_user_budget_spent_epsilon_sum {4 * N}"
                in client.server_metrics_text()
            )
            windowed = client.estimate_info(window=2)
            assert windowed["reports"] == 2 * N
            assert windowed["window"]["latest_round"] == 1
            assert len(windowed["estimate"]) == 8
            assert client.estimate_info(window="1m")["window"]["panes"] == 1
            hot = client.heavy_hitters(k=3, window=2)
            assert (hot["round"], len(hot["indices"])) == (1, 3), hot
            assert hot["entered"] == [] and hot["exited"] == [], hot
        finally:
            returncode, out = _stop(proc, signal.SIGTERM)
        assert returncode == 0, out
        assert "draining (SIGTERM)" in out, out

    def test_cli_requires_spec_or_campaigns(self):
        from repro.service.__main__ import main

        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flag", ["--shards", "--shard-queue-depth"])
    def test_removed_shard_flags_are_rejected(self, flag, capsys):
        from repro.service.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--spec", "spec.json", flag, "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
