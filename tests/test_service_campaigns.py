"""End-to-end multi-campaign service tests against live servers.

The deployment story of the paper — many concurrent collections over
one user population — exercised through the real client → wire → HTTP
→ registry → ledger → accumulator path: concurrent threaded ingest
into multiple campaigns, the cross-campaign budget cap, lifecycle
(open → sealed → estimated) over HTTP, and mid-run kill-and-resume
restoring every campaign plus the ledger bitwise.
"""

import json
import random
import re
import threading

import numpy as np
import pytest

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

SEED = 90
N = 200


def _freq_protocol(eps=1.0, domain=12):
    return Protocol.frequency(eps, domain=domain)


def _mean_protocol(eps=1.0):
    return Protocol.numeric_mean(eps, "hm")


def _users(n, prefix="u"):
    return [f"{prefix}{i}" for i in range(n)]


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


class TestRegistrationAndRouting:
    def test_register_list_and_route(self, serve):
        server = serve(_mean_protocol(), lifetime_epsilon=4.0)
        client = ServiceClient("127.0.0.1", server.port)
        spec = _freq_protocol().spec
        response = client.register_campaign(spec)
        assert response["created"] is True
        assert response["state"] == "open"
        assert response["campaign"] == wire.spec_fingerprint(spec)
        # Idempotent by fingerprint.
        assert client.register_campaign(spec)["created"] is False

        listing = client.campaigns()
        assert len(listing) == 2
        assert listing[0]["default"] is True  # the constructor's mean
        assert {entry["kind"] for entry in listing} == {
            "mean",
            "frequency",
        }

        bound = client.for_campaign(response["campaign"])
        rng = np.random.default_rng(1)
        bound.submit(rng.integers(0, 12, 50), users=_users(50), rng=2)
        assert bound.estimate_info()["reports"] == 50

    def test_for_campaign_of_a_registered_spec_dict(self, serve):
        """A spec dict without ``spec_version`` addresses the campaign
        ``register_campaign`` made from it: the SDK fingerprints the
        spec as the server does, after ``ProtocolSpec`` stamps it."""
        server = serve(_freq_protocol(), lifetime_epsilon=4.0)
        client = ServiceClient("127.0.0.1", server.port)
        spec = {"kind": "mean", "epsilon": 1.0, "mechanism": "hm"}
        registered = client.register_campaign(spec)
        bound = client.for_campaign(spec)
        assert bound.campaign == registered["campaign"]
        bound.submit(np.zeros(5), users=_users(5), rng=0)
        assert bound.estimate_info()["reports"] == 5

    def test_campaign_estimates_match_protocol_run_bitwise(self, serve):
        """Two concurrent campaigns over one population: each one's
        served estimate is bitwise what a single-campaign Protocol.run
        produces."""
        freq, mean = _freq_protocol(), _mean_protocol(2.0)
        rng = np.random.default_rng(7)
        freq_values = rng.integers(0, 12, N)
        mean_values = rng.uniform(-1, 1, N)
        server = serve(
            mean, lifetime_epsilon=4.0, campaigns=[freq.spec]
        )
        client = ServiceClient("127.0.0.1", server.port)
        freq_client = client.for_campaign(freq.spec)
        client.submit(mean_values, users=_users(N), rng=SEED)
        freq_client.submit(freq_values, users=_users(N), rng=SEED)
        np.testing.assert_array_equal(
            np.asarray(client.estimate()),
            np.asarray(mean.run(mean_values, rng=SEED)),
        )
        np.testing.assert_array_equal(
            np.asarray(freq_client.estimate()),
            np.asarray(freq.run(freq_values, rng=SEED)),
        )

    def test_v1_envelope_routes_to_default_campaign(self, serve):
        protocol = _mean_protocol()
        server = serve(protocol, lifetime_epsilon=2.0)
        client = ServiceClient("127.0.0.1", server.port)
        # Hand-build a campaign-less envelope (what a PR-3 SDK sends).
        reports = protocol.client().encode_batch(
            np.zeros(3), np.random.default_rng(0)
        )
        envelope = wire.pack(
            {
                "users": _users(3),
                "idempotency_key": "v1-batch",
                "reports": wire.encode_reports(reports),
            },
            server.fingerprint,
        )
        assert "campaign" not in envelope
        response = client._request("POST", "/report", envelope)
        assert response["status"] == "accepted"
        assert response["campaign"] == server.fingerprint

    def test_no_default_campaign_rejects_anonymous_requests(self, serve):
        freq = _freq_protocol()
        server = serve(
            None, lifetime_epsilon=1.0, campaigns=[freq.spec]
        )
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.fetch_spec()
        assert excinfo.value.status == 404
        assert excinfo.value.payload["error"] == "unknown_campaign"
        # Addressing the campaign explicitly works.
        bound = client.for_campaign(freq.spec)
        rng = np.random.default_rng(1)
        bound.submit(rng.integers(0, 12, 10), users=_users(10), rng=0)

    def test_fingerprint_checked_against_addressed_campaign(self, serve):
        """Naming campaign A while carrying campaign B's fingerprint is
        a 409 — the check runs against the *addressed* campaign."""
        mean, freq = _mean_protocol(), _freq_protocol()
        server = serve(
            mean, lifetime_epsilon=4.0, campaigns=[freq.spec]
        )
        client = ServiceClient("127.0.0.1", server.port)
        freq_fp = wire.spec_fingerprint(freq.spec)
        reports = freq.client().encode_batch(
            np.zeros(2, dtype=int), np.random.default_rng(0)
        )
        envelope = wire.pack(
            {
                "users": _users(2),
                "idempotency_key": None,
                "reports": wire.encode_reports(reports),
            },
            server.fingerprint,  # mean's fingerprint...
            campaign=freq_fp,  # ...addressed at the frequency campaign
        )
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/report", envelope)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"] == "spec_mismatch"
        assert client.healthz()["reports"] == 0

    def test_unknown_campaign_is_404(self, serve):
        server = serve(_mean_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        bound = client.for_campaign("e" * 64)
        with pytest.raises(ServiceError) as excinfo:
            bound.submit(np.zeros(1), users=_users(1), rng=0)
        assert excinfo.value.status == 404
        assert excinfo.value.payload["error"] == "unknown_campaign"

    def test_bad_spec_registration_is_400(self, serve):
        server = serve(_mean_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.register_campaign({"kind": "nope", "epsilon": 1.0})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "bad_spec"
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/campaigns", {"not_spec": 1})
        assert excinfo.value.status == 400


class TestLifecycleOverHttp:
    def test_seal_then_report_is_409(self, serve):
        freq = _freq_protocol()
        server = serve(_mean_protocol(), lifetime_epsilon=4.0,
                       campaigns=[freq.spec])
        client = ServiceClient("127.0.0.1", server.port)
        bound = client.for_campaign(freq.spec)
        rng = np.random.default_rng(0)
        bound.submit(rng.integers(0, 12, 20), users=_users(20), rng=1)
        sealed = bound.seal_campaign()
        assert sealed["state"] == "sealed"
        with pytest.raises(CampaignClosedError) as excinfo:
            bound.submit(rng.integers(0, 12, 5),
                         users=_users(5, "late"), rng=2)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"] == "campaign_sealed"
        # Nothing absorbed, nobody charged.
        health = client.healthz()
        assert health["reports"] == 20
        assert health["users_charged"] == 20

    def test_estimate_finality_walks_lifecycle(self, serve):
        freq = _freq_protocol()
        server = serve(None, lifetime_epsilon=1.0,
                       campaigns=[freq.spec])
        bound = ServiceClient("127.0.0.1", server.port).for_campaign(
            freq.spec
        )
        rng = np.random.default_rng(0)
        bound.submit(rng.integers(0, 12, 30), users=_users(30), rng=1)
        # Open campaign: estimates allowed but explicitly non-final.
        interim = bound.estimate_info()
        assert interim["state"] == "open"
        assert interim["final"] is False
        bound.seal_campaign()
        # First estimate from a sealed campaign finalizes it.
        final = bound.estimate_info()
        assert final["final"] is True
        assert final["state"] == "estimated"
        np.testing.assert_array_equal(
            np.asarray(final["estimate"]), np.asarray(interim["estimate"])
        )
        assert [c["state"] for c in bound.campaigns()] == ["estimated"]
        # Sealing is idempotent even once estimated.
        assert bound.seal_campaign()["state"] == "estimated"

    def test_sealed_default_campaign_still_blocks_v1_clients(self, serve):
        protocol = _mean_protocol()
        server = serve(protocol, lifetime_epsilon=2.0)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(np.zeros(5), users=_users(5), rng=0)
        client.seal_campaign()  # resolves to the default campaign
        with pytest.raises(CampaignClosedError):
            client.submit(np.zeros(5), users=_users(5, "late"), rng=1)


class TestCrossCampaignBudget:
    def test_over_budget_on_second_campaign_is_atomic_429(self, serve):
        """A user whose combined epsilon across campaigns would exceed
        the global budget poisons the whole second-campaign batch:
        nothing absorbed, nobody charged."""
        mean = _mean_protocol(1.0)
        freq = _freq_protocol(1.0)
        server = serve(
            mean, lifetime_epsilon=1.5, campaigns=[freq.spec]
        )
        client = ServiceClient("127.0.0.1", server.port)
        freq_client = client.for_campaign(freq.spec)
        # "veteran" spends 1.0 of their 1.5 global budget in campaign A.
        client.submit(np.zeros(1), users=["veteran"], rng=0)
        before = client.healthz()
        # Campaign B charges 1.0/report: veteran only has 0.5 left
        # GLOBALLY even though they never reported to B.
        rng = np.random.default_rng(1)
        with pytest.raises(OverBudgetError) as excinfo:
            freq_client.submit(
                rng.integers(0, 12, 3),
                users=["fresh-a", "veteran", "fresh-b"],
                rng=2,
            )
        assert excinfo.value.status == 429
        assert excinfo.value.rejected_users == ["veteran"]
        after = client.healthz()
        assert after["reports"] == before["reports"]
        assert after["users_charged"] == before["users_charged"]
        # The fresh users still have full budget.
        freq_client.submit(
            rng.integers(0, 12, 2), users=["fresh-a", "fresh-b"], rng=3
        )
        # Per-campaign breakdown on the server ledger: labels are
        # campaign fingerprints.
        breakdown = server.ledger.spent_by_label("fresh-a")
        assert breakdown == {
            wire.spec_fingerprint(freq.spec): pytest.approx(1.0)
        }

    def test_budget_spans_many_campaigns(self, serve):
        specs = [
            Protocol.numeric_mean(0.5, "hm").spec,
            Protocol.numeric_mean(0.5, "pm").spec,
            Protocol.frequency(0.5, domain=4).spec,
        ]
        server = serve(None, lifetime_epsilon=1.0, campaigns=specs)
        base = ServiceClient("127.0.0.1", server.port)
        rng = np.random.default_rng(5)
        # Two campaigns at 0.5 each exhaust the 1.0 global budget...
        base.for_campaign(specs[0]).submit(
            rng.uniform(-1, 1, 4), users=_users(4), rng=0
        )
        base.for_campaign(specs[1]).submit(
            rng.uniform(-1, 1, 4), users=_users(4), rng=1
        )
        # ...so the third campaign rejects every one of these users.
        with pytest.raises(OverBudgetError) as excinfo:
            base.for_campaign(specs[2]).submit(
                rng.integers(0, 4, 4), users=_users(4), rng=2
            )
        assert set(excinfo.value.rejected_users) == set(_users(4))
        for user in _users(4):
            assert server.ledger.remaining(user) == pytest.approx(0.0)


class TestConcurrentIngest:
    def test_threaded_clients_into_two_campaigns_bitwise(self, serve):
        """Interleaved ingestion from concurrent threads: each
        campaign's aggregate is bitwise what absorbing its batches
        in its own submission order produces."""
        freq = _freq_protocol(1.0, domain=16)
        mean = _mean_protocol(1.0)
        server = serve(
            mean, lifetime_epsilon=2.0, campaigns=[freq.spec]
        )
        rng = np.random.default_rng(13)
        workloads = {
            "mean": (mean, rng.uniform(-1, 1, N), "m"),
            "freq": (freq, rng.integers(0, 16, N), "f"),
        }
        batches = {}
        for name, (protocol, values, prefix) in workloads.items():
            encoder = protocol.client()
            batches[name] = [
                (
                    encoder.encode_batch(
                        values[i * 25 : (i + 1) * 25],
                        np.random.default_rng(1000 + i),
                    ),
                    _users(25, prefix=f"{prefix}{i}-"),
                )
                for i in range(N // 25)
            ]

        errors = []

        def _pump(name, client):
            try:
                for reports, users in batches[name]:
                    client.submit_reports(reports, users)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((name, exc))

        base = ServiceClient("127.0.0.1", server.port)
        threads = [
            threading.Thread(
                target=_pump, args=("mean", ServiceClient(
                    "127.0.0.1", server.port))
            ),
            threading.Thread(
                target=_pump,
                args=("freq", base.for_campaign(freq.spec)),
            ),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors

        for name, (protocol, _, _) in workloads.items():
            reference = protocol.server()
            for reports, _ in batches[name]:
                reference.absorb(reports)
            client = (
                base
                if name == "mean"
                else base.for_campaign(freq.spec)
            )
            np.testing.assert_array_equal(
                np.asarray(client.estimate()),
                np.asarray(reference.estimate()),
            )
        health = base.healthz()
        assert health["reports"] == 2 * N
        assert health["users_charged"] == 2 * N


def _manifests(directory):
    return sorted(directory.glob("snapshot-*.json"))


def _check_manifests(directory, server):
    """Every manifest on disk is byte for byte the compact
    ``json.dumps`` of its own parse, and the newest one carries the
    server's live ledger.  Called after every checkpoint, this checks
    each manifest written."""
    manifests = _manifests(directory)
    assert manifests
    for path in manifests:
        raw = path.read_bytes()
        assert json.dumps(json.loads(raw), separators=(",", ":")).encode() == (
            raw
        )
    newest = json.loads(manifests[-1].read_bytes())
    assert newest["ledger"] == {
        "type": "cross-campaign-ledger", **server.ledger.to_dict()
    }


class TestKillAndResume:
    def _two_campaign_batches(self):
        freq = _freq_protocol(1.0, domain=8)
        mean = _mean_protocol(1.0)
        rng = np.random.default_rng(21)
        mean_batches = [
            (
                mean.client().encode_batch(
                    rng.uniform(-1, 1, 30), np.random.default_rng(i)
                ),
                _users(30, prefix=f"m{i}-"),
            )
            for i in range(4)
        ]
        freq_batches = [
            (
                freq.client().encode_batch(
                    rng.integers(0, 8, 30),
                    np.random.default_rng(100 + i),
                ),
                _users(30, prefix=f"f{i}-"),
            )
            for i in range(4)
        ]
        return mean, freq, mean_batches, freq_batches

    def test_mid_run_kill_restores_all_campaigns_bitwise(
        self, serve, tmp_path
    ):
        mean, freq, mean_batches, freq_batches = (
            self._two_campaign_batches()
        )

        # Uninterrupted references, absorbed in submission order; the
        # frequency campaign seals after three batches, so its fourth
        # batch never lands anywhere.
        reference = {"mean": mean.server(), "freq": freq.server()}
        for reports, _ in mean_batches:
            reference["mean"].absorb(reports)
        for reports, _ in freq_batches[:3]:
            reference["freq"].absorb(reports)

        server = serve(
            mean,
            lifetime_epsilon=2.0,
            campaigns=[freq.spec],
            store=SnapshotStore(tmp_path),
            checkpoint_every=1,
        )
        base = ServiceClient("127.0.0.1", server.port)
        freq_client = base.for_campaign(freq.spec)
        for reports, users in mean_batches[:2]:
            base.submit_reports(reports, users)
            _check_manifests(tmp_path, server)
        for reports, users in freq_batches[:3]:
            freq_client.submit_reports(reports, users)
            _check_manifests(tmp_path, server)
        freq_client.seal_campaign()
        _check_manifests(tmp_path, server)
        ledger_before = server.ledger.to_dict()
        server.stop()  # abrupt: no final checkpoint, crash-equivalent

        resumed = serve(
            mean,
            lifetime_epsilon=2.0,
            campaigns=[freq.spec],
            store=SnapshotStore(tmp_path),
            checkpoint_every=1,
        )
        # Ledger survives kill-and-resume bitwise.
        assert resumed.ledger.to_dict() == ledger_before
        _check_manifests(tmp_path, resumed)
        base2 = ServiceClient("127.0.0.1", resumed.port)
        health = base2.healthz()
        assert health["reports"] == 150
        campaigns = {
            c["campaign"]: c for c in base2.campaigns()
        }
        freq_fp = wire.spec_fingerprint(freq.spec)
        assert campaigns[freq_fp]["state"] == "sealed"
        assert campaigns[resumed.fingerprint]["state"] == "open"

        # The sealed campaign still refuses reports after resume.
        freq_client2 = base2.for_campaign(freq.spec)
        with pytest.raises(CampaignClosedError):
            freq_client2.submit_reports(*freq_batches[3])

        # Finish the open campaign; both estimates are bitwise equal
        # to the uninterrupted run.
        for reports, users in mean_batches[2:]:
            base2.submit_reports(reports, users)
            _check_manifests(tmp_path, resumed)
        np.testing.assert_array_equal(
            np.asarray(base2.estimate()),
            np.asarray(reference["mean"].estimate()),
        )
        freq_final = freq_client2.estimate_info()
        np.testing.assert_array_equal(
            np.asarray(freq_final["estimate"]),
            np.asarray(reference["freq"].estimate()),
        )
        assert freq_final["final"] is True
        assert freq_final["state"] == "estimated"

    def test_truncated_newest_manifest_fails_boot_naming_it(
        self, serve, tmp_path
    ):
        """An older cut would forget charges already made: boot must
        stop, not fall back to it."""
        mean = _mean_protocol(1.0)
        server = serve(
            mean,
            lifetime_epsilon=2.0,
            store=SnapshotStore(tmp_path),
            checkpoint_every=1,
        )
        client = ServiceClient("127.0.0.1", server.port)
        rng = np.random.default_rng(3)
        for i in range(2):
            client.submit(
                rng.uniform(-1, 1, 10), users=_users(10, f"b{i}-"), rng=i
            )
        server.stop()
        older, newest = _manifests(tmp_path)[-2:]
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotCorruptError, match=re.escape(str(newest))):
            IngestionServer(
                mean,
                lifetime_epsilon=2.0,
                store=SnapshotStore(tmp_path),
                checkpoint_every=1,
            )
        assert older.exists()

    def test_estimated_state_survives_restart(self, serve, tmp_path):
        freq = _freq_protocol()
        server = serve(
            None,
            lifetime_epsilon=1.0,
            campaigns=[freq.spec],
            store=SnapshotStore(tmp_path),
            checkpoint_every=1,
        )
        bound = ServiceClient("127.0.0.1", server.port).for_campaign(
            freq.spec
        )
        rng = np.random.default_rng(0)
        bound.submit(rng.integers(0, 12, 20), users=_users(20), rng=1)
        bound.seal_campaign()
        final = bound.estimate_info()
        assert final["state"] == "estimated"
        server.stop()

        resumed = serve(
            None,
            lifetime_epsilon=1.0,
            store=SnapshotStore(tmp_path),
            checkpoint_every=1,
        )
        bound2 = ServiceClient(
            "127.0.0.1", resumed.port
        ).for_campaign(freq.spec)
        after = bound2.estimate_info()
        assert after["state"] == "estimated"
        np.testing.assert_array_equal(
            np.asarray(after["estimate"]),
            np.asarray(final["estimate"]),
        )

    def test_budgets_enforced_across_campaigns_after_resume(
        self, serve, tmp_path
    ):
        mean = _mean_protocol(1.0)
        freq = _freq_protocol(1.0)
        server = serve(
            mean,
            lifetime_epsilon=1.5,
            campaigns=[freq.spec],
            store=SnapshotStore(tmp_path),
            checkpoint_every=1,
        )
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(np.zeros(10), users=_users(10), rng=0)
        server.stop()

        resumed = serve(
            mean,
            lifetime_epsilon=1.5,
            campaigns=[freq.spec],
            store=SnapshotStore(tmp_path),
            checkpoint_every=1,
        )
        freq_client = ServiceClient(
            "127.0.0.1", resumed.port
        ).for_campaign(freq.spec)
        rng = np.random.default_rng(1)
        with pytest.raises(OverBudgetError) as excinfo:
            freq_client.submit(
                rng.integers(0, 12, 10), users=_users(10), rng=2
            )
        assert set(excinfo.value.rejected_users) == set(_users(10))

    def test_resume_refuses_foreign_default(self, tmp_path):
        mean = _mean_protocol(1.0)
        server = IngestionServer(
            mean, store=SnapshotStore(tmp_path), checkpoint_every=1
        ).run_in_thread()
        try:
            client = ServiceClient("127.0.0.1", server.port)
            client.submit(np.zeros(3), users=_users(3), rng=0)
        finally:
            server.stop()
        with pytest.raises(wire.SpecMismatchError):
            IngestionServer(
                _mean_protocol(2.0), store=SnapshotStore(tmp_path)
            )


class TestHealthz:
    def test_enriched_healthz(self, serve, tmp_path):
        freq = _freq_protocol()
        server = serve(
            _mean_protocol(),
            lifetime_epsilon=2.0,
            campaigns=[freq.spec],
            store=SnapshotStore(tmp_path),
            checkpoint_every=1,
        )
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(np.zeros(5), users=_users(5), rng=0)
        health = client.healthz()
        assert health["uptime_seconds"] >= 0.0
        assert health["lifetime_epsilon"] == 2.0
        assert health["snapshot"]["latest_seq"] == 1
        assert health["snapshot"]["age_seconds"] >= 0.0
        per_campaign = health["campaigns"]
        assert len(per_campaign) == 2
        default_entry = per_campaign[server.fingerprint]
        assert default_entry["reports"] == 5
        assert default_entry["batches_accepted"] == 1
        assert default_entry["default"] is True
        freq_entry = per_campaign[wire.spec_fingerprint(freq.spec)]
        assert freq_entry["reports"] == 0
        assert freq_entry["state"] == "open"

    def test_storeless_healthz_has_null_snapshot(self, serve):
        server = serve(_mean_protocol())
        health = ServiceClient("127.0.0.1", server.port).healthz()
        assert health["snapshot"] is None


class TestClientRetry:
    def test_connection_errors_backed_off_with_attempt_count(
        self, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", sleeps.append
        )
        client = ServiceClient(
            "127.0.0.1", 1, retries=3, retry_delay=0.1,
            retry_max_delay=0.25, timeout=0.2,
        )
        with pytest.raises(ConnectionError) as excinfo:
            client.healthz()
        assert "4 attempts" in str(excinfo.value)
        assert len(sleeps) == 3
        # Bounded exponential with jitter in [0.5, 1] per attempt.
        for delay, base in zip(sleeps, [0.1, 0.2, 0.25]):
            assert 0.5 * base <= delay <= base

    def test_5xx_retried_then_succeeds(self, serve, monkeypatch):
        server = serve(_mean_protocol())
        original = server._handle_healthz
        failures = {"left": 2}

        def flaky(query, body):
            if failures["left"] > 0:
                failures["left"] -= 1
                return 500, {"error": "internal", "detail": "injected"}
            return original(query, body)

        monkeypatch.setattr(server, "_handle_healthz", flaky)
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda _s: None
        )
        client = ServiceClient("127.0.0.1", server.port, retries=3)
        assert client.healthz()["status"] == "ok"
        assert failures["left"] == 0

    def test_5xx_exhaustion_surfaces_attempts(self, serve, monkeypatch):
        server = serve(_mean_protocol())

        def always_500(query, body):
            return 500, {"error": "internal", "detail": "injected"}

        monkeypatch.setattr(server, "_handle_healthz", always_500)
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda _s: None
        )
        client = ServiceClient("127.0.0.1", server.port, retries=2)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 500
        assert excinfo.value.attempts == 3
        assert "3 attempts" in str(excinfo.value)

    def test_4xx_not_retried(self, serve):
        server = serve(_mean_protocol())
        client = ServiceClient("127.0.0.1", server.port, retries=3)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.attempts == 1


class TestBackoffJitter:
    """The jitter rng is injected (QA101): seedable, never global."""

    def test_seeded_backoff_is_deterministic(self):
        def run():
            client = ServiceClient(
                "127.0.0.1", 1, retry_delay=0.1, retry_max_delay=2.0,
                backoff_rng=random.Random(7),
            )
            return [client._backoff(k) for k in (1, 2, 3)]

        delays = [run(), run()]
        assert delays[0] == delays[1]
        # Matches the documented formula against an identically
        # seeded reference stream.
        reference = random.Random(7)
        for k, delay in zip((1, 2, 3), delays[0]):
            base = min(0.1 * 2.0 ** (k - 1), 2.0)
            assert delay == base * (0.5 + 0.5 * reference.random())

    def test_backoff_never_touches_module_global_rng(self):
        random.seed(1234)
        state = random.getstate()
        client = ServiceClient("127.0.0.1", 1)
        for attempt in (1, 2, 3):
            client._backoff(attempt)
        assert random.getstate() == state

    def test_for_campaign_sibling_shares_backoff_rng(self):
        rng = random.Random(3)
        client = ServiceClient("127.0.0.1", 1, backoff_rng=rng)
        assert client.for_campaign("f" * 64).backoff_rng is rng

    def test_connection_retry_sleeps_reproducible(self, monkeypatch):
        def run(seed):
            sleeps = []
            monkeypatch.setattr(
                "repro.service.client.time.sleep", sleeps.append
            )
            client = ServiceClient(
                "127.0.0.1", 1, retries=3, retry_delay=0.1,
                retry_max_delay=0.25, timeout=0.2,
                backoff_rng=random.Random(seed),
            )
            with pytest.raises(ConnectionError):
                client.healthz()
            return sleeps

        first, second = run(11), run(11)
        assert first == second
        for delay, base in zip(first, [0.1, 0.2, 0.25]):
            assert 0.5 * base <= delay <= base
