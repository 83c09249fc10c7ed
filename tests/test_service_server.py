"""End-to-end service tests against a live local server.

Each test boots a real :class:`IngestionServer` on an ephemeral
localhost port (asyncio loop in a daemon thread) and drives it through
the :class:`ServiceClient` SDK — the full client → wire → HTTP →
accountant → accumulator → estimate path, including kill-and-resume
from the latest snapshot.
"""

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_br_like
from repro.frequency import OLHReports
from repro.protocol import Protocol
from repro.service import (
    IngestionServer,
    OverBudgetError,
    ServiceClient,
    ServiceError,
    SnapshotCorruptError,
    SnapshotStore,
    wire,
)

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
        client = ServiceClient(
            "127.0.0.1", server.port, wire_version=wire_version
        )
        good = client.encode(values[:50], rng=0)
        client.submit_reports(good, _users(50))
        accumulator = server.registry.default.accumulator

        def state():
            support = accumulator.state_dict()["support"].tobytes()
            return json.dumps(server.ledger.to_dict()), support, \
                accumulator.count

        before = state()
        seeds, buckets = corrupt(good.seeds, good.buckets)
        with pytest.raises(ServiceError) as excinfo:
            client.submit_reports(
                OLHReports(seeds=seeds, buckets=buckets), _users(50)
            )
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


def _cli_env():
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = (
        f"{root / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
    )
    return env


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
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(Protocol.frequency(1.0, domain=6).spec.to_dict())
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.service",
                "--spec", str(spec_path),
                "--port", "0",
                "--snapshot-dir", str(tmp_path / "snaps"),
                "--checkpoint-every", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_cli_env(),
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "repro.service:" in banner
            port = int(banner.split("http://127.0.0.1:")[1].split()[0])
            client = ServiceClient("127.0.0.1", port, retries=5)
            client.submit(
                np.array([1, 2, 3, 1]), users=_users(4), rng=0
            )
            assert client.healthz()["reports"] == 4
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                out, _ = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
        assert proc.returncode == 0, out
        assert "final checkpoint" in out
        assert SnapshotStore(tmp_path / "snaps").latest_sequence() == 1

    def test_cli_exits_2_naming_a_corrupt_manifest(self, tmp_path):
        """A newest snapshot that is cut short, is not a campaign
        manifest, or holds ledger values that would under-charge a user
        or cannot be written back as JSON, fails boot closed: no
        fallback to the older cut, no write, and the CLI exits 2 with
        one line naming the file."""
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

        def with_ledger(spent, log):
            ledger = {**manifest["ledger"], "spent": spent, "ledger": log}
            return json.dumps({**manifest, "seq": 1, "ledger": ledger})

        newest = snaps / "snapshot-0000000001.json"
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
                with_ledger({"u": -100.0}, []).encode(),
                "user 'u': spent -100.0",
            ),
            "infinite cost": (
                with_ledger(
                    {"u": 1.0},
                    [{"user": "u", "epsilon": float("inf"), "label": ""}],
                ).encode(),
                "user 'u': charge inf",
            ),
        }
        for name, (body, reason) in bodies.items():
            newest.write_bytes(body)
            before = _tree_bytes(snaps)
            with pytest.raises(SnapshotCorruptError) as excinfo:
                IngestionServer(protocol, store=SnapshotStore(snaps))
            message = str(excinfo.value)
            assert str(newest) in message and reason in message, name
            assert _tree_bytes(snaps) == before, name
            done = subprocess.run(
                [
                    sys.executable, "-m", "repro.service",
                    "--spec", str(spec_path),
                    "--port", "0",
                    "--snapshot-dir", str(snaps),
                ],
                capture_output=True,
                env=_cli_env(),
                text=True,
                timeout=60,
            )
            assert done.returncode == 2, (name, done.stdout + done.stderr)
            assert done.stdout == "", name
            lines = done.stderr.splitlines()
            assert len(lines) == 1 and str(newest) in lines[0], (
                name, done.stderr,
            )
            assert _tree_bytes(snaps) == before, name

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
