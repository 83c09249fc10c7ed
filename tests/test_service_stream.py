"""End-to-end streaming tests over the live HTTP service: windowed
campaigns (sliding-window estimates bitwise-equal to recomputation,
also across kill-and-resume), memoized zero-cost
re-reports against the cross-campaign ledger, the /heavy-hitters
endpoint, v1 / window-unaware compatibility, and refused estimate
queries, which change nothing."""

import json

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.service import (
    IngestionServer,
    ServiceClient,
    ServiceError,
    SnapshotStore,
    http,
    wire,
)
from repro.stream import MemoizedEncoder, WindowConfig
from wire_v1 import post_v1

SEED = 99


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


def _frequency():
    return Protocol.frequency(1.0, domain=10, oracle="oue")


def _call(server, method, path, body=None, **query):
    """One request in-process, through the entry point HTTP calls."""
    raw = b"" if body is None else json.dumps(body).encode()
    request = http.Request(method, path, query, "application/json", raw)
    return server._handle_request(request)


def _submit(server, values, users, round_=0):
    protocol = server.registry.default.protocol
    rng = np.random.default_rng(SEED)
    reports = protocol.client().encode_batch(values, rng)
    fp = server.fingerprint
    envelope = wire.pack(
        {
            "users": users,
            "idempotency_key": f"{users[0]}@{round_}",
            "round": round_,
            "reports": wire.encode_reports(reports),
        },
        fp,
        campaign=fp,
    )
    status, answer = _call(server, "POST", "/report", envelope)
    assert status == 200 and answer["status"] == "accepted", answer


def _send(client, wire_version, values, users, rng, round=None):
    """A memoizing client's ``submit`` as a v2 frame, or its encoder's
    reports and fresh flags in a hand-built v1 envelope."""
    if wire_version == 2:
        return client.submit(values, users=users, rng=rng, round=round)
    reports, fresh = client.encoder.encode_users(values, users, rng)
    return post_v1(client, reports, users, round=round, fresh=fresh)


def _tree(root):
    """Every file under ``root``: relative path -> bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _round_batches(protocol, rounds, n=40, domain=10):
    """Pre-encoded (reports, users) per round, deterministic."""
    encoder = protocol.client()
    batches = []
    for r in range(rounds):
        values = np.random.default_rng(r).integers(0, domain, n)
        reports = encoder.encode_batch(values, np.random.default_rng(100 + r))
        batches.append((reports, _users(n, prefix=f"r{r}-")))
    return batches


class TestWindowedEstimates:
    def test_window_estimate_bitwise(self, serve):
        protocol = _frequency()
        server = serve(protocol, window={"panes": 3})
        client = ServiceClient("127.0.0.1", server.port)
        batches = _round_batches(protocol, rounds=5)
        for r, (reports, users) in enumerate(batches):
            client.submit_reports(reports, users, round=r)

        # The window view must be bitwise-equal to a fresh accumulator
        # absorbing ONLY the in-window rounds' reports (rounds 2..4 for
        # a 3-pane window whose latest round is 4).
        fresh = protocol.server()
        for reports, _ in batches[2:]:
            fresh.absorb(reports)
        windowed = client.estimate_info(window=3)
        np.testing.assert_array_equal(
            np.asarray(windowed["estimate"]), np.asarray(fresh.estimate())
        )
        assert windowed["reports"] == 3 * 40
        assert windowed["final"] is False
        assert windowed["window"]["panes"] == 3
        assert windowed["window"]["latest_round"] == 4

        # A narrower window, same contract.
        narrow = protocol.server()
        narrow.absorb(batches[4][0])
        np.testing.assert_array_equal(
            np.asarray(client.estimate(window=1)),
            np.asarray(narrow.estimate()),
        )

        # The all-time estimate still covers every report, including
        # the rounds whose panes were evicted from the ring.
        all_time = protocol.server()
        for reports, _ in batches:
            all_time.absorb(reports)
        np.testing.assert_array_equal(
            np.asarray(client.estimate()), np.asarray(all_time.estimate())
        )

    def test_kill_and_resume_windowed_bitwise(self, serve, tmp_path):
        protocol = _frequency()
        batches = _round_batches(protocol, rounds=5)
        boot = dict(window={"panes": 3}, checkpoint_every=1)
        server = serve(protocol, store=SnapshotStore(tmp_path), **boot)
        client = ServiceClient("127.0.0.1", server.port)
        for r, (reports, users) in enumerate(batches[:3]):
            client.submit_reports(reports, users, round=r)
        server.stop()  # crash-equivalent: no drain, resume from disk

        resumed = serve(protocol, store=SnapshotStore(tmp_path), **boot)
        client2 = ServiceClient("127.0.0.1", resumed.port)
        for r, (reports, users) in enumerate(batches[3:], start=3):
            client2.submit_reports(reports, users, round=r)

        fresh = protocol.server()
        for reports, _ in batches[2:]:
            fresh.absorb(reports)
        np.testing.assert_array_equal(
            np.asarray(client2.estimate(window=3)),
            np.asarray(fresh.estimate()),
        )
        all_time = protocol.server()
        for reports, _ in batches:
            all_time.absorb(reports)
        np.testing.assert_array_equal(
            np.asarray(client2.estimate()),
            np.asarray(all_time.estimate()),
        )

    def test_duration_window_resolves_via_pane_seconds(self, serve):
        protocol = _frequency()
        server = serve(
            protocol, window={"panes": 4, "pane_seconds": 60.0}
        )
        client = ServiceClient("127.0.0.1", server.port)
        batches = _round_batches(protocol, rounds=4)
        for r, (reports, users) in enumerate(batches):
            client.submit_reports(reports, users, round=r)
        fresh = protocol.server()
        for reports, _ in batches[2:]:  # "2m" / 60s panes -> 2 panes
            fresh.absorb(reports)
        np.testing.assert_array_equal(
            np.asarray(client.estimate(window="2m")),
            np.asarray(fresh.estimate()),
        )

    def test_decayed_estimate_over_http(self, serve):
        protocol = Protocol.numeric_mean(2.0, mechanism="pm")
        server = serve(protocol, window={"panes": 4})
        client = ServiceClient("127.0.0.1", server.port)
        encoder = protocol.client()
        rng = np.random.default_rng(3)
        for r in range(2):
            reports = encoder.encode_batch(
                rng.uniform(-1, 1, 50), np.random.default_rng(200 + r)
            )
            client.submit_reports(reports, _users(50, f"r{r}-"), round=r)
        decayed = client.estimate_info(window=4, decay=0.5)
        assert decayed["window"]["decay"] == 0.5
        # decay=1.0 degenerates to the plain window merge.
        np.testing.assert_allclose(
            client.estimate(window=4, decay=1.0),
            client.estimate(window=4),
        )

    def test_plain_campaign_rejects_window_query(self, serve):
        server = serve(_frequency())
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(
            np.arange(40) % 10, users=_users(40), rng=SEED
        )
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(window=2)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"] == "not_windowed"

    def test_bad_window_values_are_400(self, serve):
        server = serve(_frequency(), window={"panes": 3})
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(
            np.arange(40) % 10, users=_users(40), rng=SEED, round=0
        )
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(window="bogus")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            # Duration windows need pane_seconds on the campaign.
            client.estimate(window="5m")
        assert excinfo.value.status == 400

    def test_empty_window_is_409_no_reports(self, serve):
        server = serve(_frequency(), window={"panes": 2})
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(
            np.arange(40) % 10, users=_users(40), rng=SEED, round=0
        )
        client.submit(
            np.arange(40) % 10, users=_users(40, "v"), rng=SEED + 1, round=5
        )
        # Rounds 0..4 fell out of the 2-pane ring; round 5 is live —
        # but a 1-pane window over round 5 only is fine, whereas the
        # all-time estimate still covers everything.
        info = client.estimate_info()
        assert info["reports"] == 80

    def test_window_gauges_exposed(self, serve):
        server = serve(_frequency(), window={"panes": 3})
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(
            np.arange(40) % 10, users=_users(40), rng=SEED, round=7
        )
        fp = server.registry.default.fingerprint
        text = client.server_metrics_text()
        assert (
            f'repro_campaign_window_latest_round{{campaign="{fp}"}} 7'
            in text
        )
        assert (
            f'repro_campaign_window_live_panes{{campaign="{fp}"}} 1'
            in text
        )
        assert (
            f'repro_campaign_window_reports{{campaign="{fp}"}} 40' in text
        )


class TestRefusedEstimates:
    """An estimate query the server refuses changes no state, and a
    query the client got wrong is a 400, never a campaign-state 409."""

    def test_bad_estimate_does_not_finalize_a_sealed_campaign(
        self, tmp_path
    ):
        """A decayed histogram has no linear estimate: the 400 serves
        nothing, so the campaign stays sealed and no cut is written."""
        server = IngestionServer(
            Protocol.histogram(1.0, bins=8),
            window={"panes": 2, "decay": 0.9},
            store=SnapshotStore(tmp_path),
        )
        values = np.random.default_rng(SEED).uniform(-1, 1, 20)
        _submit(server, values, _users(20))
        status, _ = _call(
            server, "POST", f"/campaigns/{server.fingerprint}/seal"
        )
        assert status == 200
        before = _tree(tmp_path)
        status, answer = _call(server, "GET", "/estimate")
        assert (status, answer["error"]) == (400, "bad_estimate")
        status, listing = _call(server, "GET", "/campaigns")
        assert [c["state"] for c in listing["campaigns"]] == ["sealed"]
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize(
        "query",
        [
            {"decay": "2"},
            {"decay": "0"},
            {"decay": "-1"},
            {"decay": "nan"},
            {"decay": "inf"},
            {"window": "2", "decay": "1.5"},
        ],
    )
    def test_out_of_range_decay_is_400_bad_window(self, query):
        server = IngestionServer(_frequency(), window={"panes": 3})
        _submit(server, np.arange(40) % 10, _users(40))
        status, answer = _call(server, "GET", "/estimate", **query)
        assert (status, answer["error"]) == (400, "bad_window"), answer
        assert "decay must lie in (0, 1]" in answer["detail"]


class TestMemoizedSubmission:
    @pytest.mark.parametrize("wire_version", [1, 2])
    def test_unchanged_resubmission_charges_zero_epsilon(
        self, serve, wire_version
    ):
        protocol = _frequency()
        server = serve(protocol, window={"panes": 4})
        client = ServiceClient("127.0.0.1", server.port, memoize=True)
        values = np.arange(30) % 10
        users = _users(30)
        _send(client, wire_version, values, users, SEED, round=0)
        spent_after_round_1 = {u: server.ledger.spent(u) for u in users}
        assert all(v == 1.0 for v in spent_after_round_1.values())

        # Round 2, same values: the cached reports replay, every user
        # is marked not-fresh, and the ledger does not move at all.
        response = _send(
            client, wire_version, values, users, SEED + 1, round=1
        )
        assert response["accepted"] == 30
        for u in users:
            assert server.ledger.spent(u) == spent_after_round_1[u]
        # The SDK's encoder perturbed each user once, then replayed.
        assert (client.encoder.misses, client.encoder.hits) == (30, 30)

        # ...but the reports DID land: both panes hold the batch.
        info = client.estimate_info(window=4)
        assert info["reports"] == 60

    def test_only_changed_users_are_charged(self, serve):
        protocol = _frequency()
        server = serve(protocol, window={"panes": 4}, lifetime_epsilon=4.0)
        client = ServiceClient("127.0.0.1", server.port, memoize=True)
        users = _users(4)
        client.submit([0, 1, 2, 3], users=users, rng=SEED, round=0)
        client.submit([0, 9, 2, 8], users=users, rng=SEED + 1, round=1)
        assert server.ledger.spent("u0") == 1.0
        assert server.ledger.spent("u2") == 1.0
        assert server.ledger.spent("u1") == 2.0
        assert server.ledger.spent("u3") == 2.0

    def test_memoized_rounds_keep_estimates_valid(self, serve):
        protocol = _frequency()
        server = serve(protocol, window={"panes": 2})
        client = ServiceClient("127.0.0.1", server.port, memoize=True)
        values = np.random.default_rng(5).integers(0, 10, 60)
        users = _users(60)
        client.submit(values, users=users, rng=SEED, round=0)
        round_one = np.asarray(client.estimate(window=1))
        client.submit(values, users=users, rng=SEED + 1, round=1)
        # The replayed pane is byte-identical, so the 1-pane estimate
        # is unchanged from round 0's.
        np.testing.assert_array_equal(
            np.asarray(client.estimate(window=1)), round_one
        )

    @pytest.mark.parametrize("wire_version", [1, 2])
    def test_repeat_in_one_batch_charges_once(self, serve, wire_version):
        server = serve(_frequency(), lifetime_epsilon=4.0)
        client = ServiceClient("127.0.0.1", server.port, memoize=True)
        response = _send(
            client, wire_version, [3, 3, 4], ["a", "a", "b"], SEED
        )
        assert response["accepted"] == 3
        assert server.ledger.spent("a") == 1.0
        assert server.ledger.spent("b") == 1.0

    @pytest.mark.parametrize(
        "protocol, draw",
        [
            (
                Protocol.frequency(1.0, domain=10, oracle="grr"),
                lambda rng: rng.integers(0, 10, 40),
            ),
            (_frequency(), lambda rng: rng.integers(0, 10, 40)),
            (
                Protocol.frequency(1.0, domain=10, oracle="olh"),
                lambda rng: rng.integers(0, 10, 40),
            ),
            (
                Protocol.numeric_mean(1.0, mechanism="pm"),
                lambda rng: rng.uniform(-1, 1, 40),
            ),
            (
                Protocol.multidim(1.0, d=4, k=2),
                lambda rng: rng.uniform(-1, 1, (40, 4)),
            ),
        ],
        ids=["grr", "oue", "olh", "mean", "sampled-numeric"],
    )
    def test_memoized_v1_and_v2_land_bitwise_equal_estimates(
        self, serve, protocol, draw
    ):
        """Two memoized rounds, the second changing a quarter of the
        values, so it replays cached rows between fresh ones; both land
        what a local accumulator folds from the same encoder."""
        first = draw(np.random.default_rng(3))
        second = first.copy()
        second[::4] = draw(np.random.default_rng(4))[::4]
        changed = int((second != first).reshape(40, -1).any(axis=1).sum())
        assert changed
        memo, local = MemoizedEncoder(protocol.client()), protocol.server()
        for values, rng in ((first, SEED), (second, SEED + 1)):
            local.absorb(memo.encode_users(values, _users(40), rng)[0])
        estimates = [np.asarray(local.estimate())]
        for wire_version in (1, 2):
            server = serve(protocol, lifetime_epsilon=4.0)
            client = ServiceClient("127.0.0.1", server.port, memoize=True)
            _send(client, wire_version, first, _users(40), SEED)
            _send(client, wire_version, second, _users(40), SEED + 1)
            assert client.encoder.misses == 40 + changed
            assert client.encoder.hits == 40 - changed
            estimates.append(np.asarray(client.estimate()))
        assert len({e.tobytes() for e in estimates}) == 1

    def test_budget_rejection_ignores_replayed_users(self, serve):
        protocol = Protocol.frequency(1.0, domain=10, oracle="oue")
        server = serve(
            protocol, window={"panes": 8}, lifetime_epsilon=1.5
        )
        client = ServiceClient("127.0.0.1", server.port, memoize=True)
        users = _users(10)
        values = np.arange(10)
        client.submit(values, users=users, rng=SEED, round=0)
        # Every user has spent 1.0 of 1.5: a FRESH batch would be
        # rejected, an all-replayed batch sails through free.
        response = client.submit(values, users=users, rng=SEED + 1, round=1)
        assert response["accepted"] == 10


class TestHeavyHitters:
    def test_churn_between_rounds_over_http(self, serve):
        protocol = Protocol.frequency(8.0, domain=6, oracle="grr")
        server = serve(protocol, window={"panes": 2})
        client = ServiceClient("127.0.0.1", server.port)
        encoder = protocol.client()

        hot = np.array([0, 1] * 100)
        reports = encoder.encode_batch(hot, np.random.default_rng(1))
        client.submit_reports(reports, _users(200, "a"), round=0)
        first = client.heavy_hitters(k=2, window=1)
        assert sorted(first["indices"]) == [0, 1]
        assert first["entered"] == [] and first["exited"] == []
        assert first["round"] == 0

        shifted = np.array([4, 5] * 100)
        reports = encoder.encode_batch(shifted, np.random.default_rng(2))
        client.submit_reports(reports, _users(200, "b"), round=1)
        second = client.heavy_hitters(k=2, window=1)
        assert second["round"] == 1
        assert sorted(second["indices"]) == [4, 5]
        assert sorted(second["entered"]) == [4, 5]
        assert sorted(second["exited"]) == [0, 1]

    def test_plain_campaign_ranks_all_time(self, serve):
        server = serve(Protocol.frequency(8.0, domain=6, oracle="grr"))
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(
            np.array([3] * 120 + [5] * 60), users=_users(180), rng=SEED
        )
        top = client.heavy_hitters(k=2)
        assert top["indices"][0] == 3
        assert top["round"] is None
        with pytest.raises(ServiceError) as excinfo:
            client.heavy_hitters(k=2, window=1)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"] == "not_windowed"

    def test_non_frequency_campaign_is_409(self, serve):
        server = serve(
            Protocol.numeric_mean(1.0, mechanism="pm"),
            window={"panes": 2},
        )
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(
            np.random.default_rng(0).uniform(-1, 1, 40),
            users=_users(40),
            rng=SEED,
            round=0,
        )
        with pytest.raises(ServiceError) as excinfo:
            client.heavy_hitters(k=3)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"] == "not_frequency"

    def test_no_reports_is_409(self, serve):
        server = serve(_frequency(), window={"panes": 2})
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.heavy_hitters()
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"] == "no_reports"

    def test_bad_k_is_400(self, serve):
        server = serve(_frequency(), window={"panes": 2})
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.heavy_hitters(k=0)
        assert excinfo.value.status == 400


class TestCompatibility:
    def test_window_unaware_client_on_windowed_server(self, serve):
        """A pre-streaming submission (no round, no fresh) lands in the
        current pane and every all-time query works unchanged."""
        protocol = _frequency()
        server = serve(protocol, window={"panes": 3})
        client = ServiceClient("127.0.0.1", server.port)
        values = np.arange(40) % 10
        client.submit(values, users=_users(40), rng=SEED)
        info = client.estimate_info()
        assert info["reports"] == 40
        assert info["final"] is False

    def test_roundless_idempotency_key_is_unchanged(self):
        """The streaming keys must not perturb a round-less batch's key
        — old and new SDKs agree on duplicate detection — and a round
        or fresh flags make a key of its own."""
        block = wire.reports_to_columns(np.array([1, 2, 3]))
        users = ["a", "b", "c"]
        derive = ServiceClient._derive_columnar_key
        base = derive(block, users)
        assert derive(block, users, None, None) == base
        assert derive(block, users, 0, None) != base
        assert derive(block, users, None, [True] * 3) != base

    def test_duplicate_detection_still_works_with_rounds(self, serve):
        protocol = _frequency()
        server = serve(protocol, window={"panes": 3}, lifetime_epsilon=4.0)
        client = ServiceClient("127.0.0.1", server.port)
        encoder = protocol.client()
        reports = encoder.encode_batch(
            np.arange(40) % 10, np.random.default_rng(0)
        )
        users = _users(40)
        first = client.submit_reports(reports, users, round=2)
        again = client.submit_reports(reports, users, round=2)
        assert first["status"] == "accepted"
        assert again["status"] == "duplicate"
        # The same bytes into a DIFFERENT round are a new pane's worth
        # of evidence, not a duplicate.
        other = client.submit_reports(reports, users, round=3)
        assert other["status"] == "accepted"

    def test_bad_round_and_fresh_are_400(self, serve):
        protocol = _frequency()
        server = serve(protocol, window={"panes": 3})
        client = ServiceClient("127.0.0.1", server.port)
        encoder = protocol.client()
        reports = encoder.encode_batch(
            np.arange(10) % 10, np.random.default_rng(0)
        )
        with pytest.raises(ServiceError) as excinfo:
            client.submit_reports(reports, _users(10), round=-1)
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit_reports(
                reports, _users(10), fresh=[True] * 9
            )
        assert excinfo.value.status == 400

    def test_window_conflict_on_reregister_is_409(self, serve):
        protocol = _frequency()
        server = serve(protocol, window={"panes": 3})
        client = ServiceClient("127.0.0.1", server.port)
        spec = protocol.spec.to_dict()
        # Window-unaware re-register keeps the existing window.
        same = client.register_campaign(spec)
        assert same["created"] is False
        # Agreeing window: still idempotent.
        agree = client.register_campaign(
            spec, window={"panes": 3, "pane_seconds": None, "decay": None}
        )
        assert agree["created"] is False
        with pytest.raises(ServiceError) as excinfo:
            client.register_campaign(spec, window={"panes": 5})
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"] == "window_conflict"

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_pane_seconds_is_400_bad_spec(self, serve, seconds):
        """JSON bodies may carry bare ``NaN`` and ``Infinity``.  A NaN
        pane width was registered, and /campaigns and /spec answered
        with a token that is not JSON from then on."""
        server = serve(_frequency())
        client = ServiceClient("127.0.0.1", server.port)
        spec = Protocol.frequency(2.0, domain=4, oracle="grr").spec
        with pytest.raises(ServiceError) as excinfo:
            client.register_campaign(
                spec, window={"panes": 2, "pane_seconds": seconds}
            )
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "bad_spec"
        assert "pane_seconds must be finite" in str(excinfo.value)
        assert len(client.campaigns()) == 1

    def test_registered_windowed_campaign_round_trip(self, serve):
        """POST /campaigns with a window, then stream into it."""
        server = serve(_frequency(), lifetime_epsilon=4.0)
        client = ServiceClient("127.0.0.1", server.port)
        spec = Protocol.frequency(2.0, domain=4, oracle="grr").spec
        registered = client.register_campaign(
            spec, window={"panes": 2}
        )
        bound = client.for_campaign(registered["campaign"])
        assert bound.fetch_spec()["window"]["panes"] == 2
        bound.submit(
            np.arange(20) % 4, users=_users(20), rng=SEED, round=0
        )
        assert bound.estimate_info(window=1)["reports"] == 20
