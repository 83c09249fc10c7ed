"""Wire format v2 end-to-end: the SDK's one format and a mixed fleet.

These tests drive the v2 (columnar) wire format through a live server:
the SDK sends it to any server whose ``/spec`` offers it and refuses
one that does not, columnar batches get the same
duplicate/validation/fingerprint checks as v1 JSON envelopes, and
hand-built v1 envelopes and SDK v2 frames ingesting concurrently into
the same campaign land in the same aggregate, bitwise.
"""

import re
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.service import IngestionServer, ServiceClient, ServiceError, wire
from wire_v1 import post_v1

SEED = 77
N = 400
DOMAIN = 32


def _protocol():
    return Protocol.frequency(1.0, domain=DOMAIN, oracle="oue")


def _values():
    return np.random.default_rng(4).integers(0, DOMAIN, N)


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


class TestOneFormat:
    def test_spec_offers_both_versions(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        spec = client.fetch_spec()
        # "wire_version": 1 stays for older clients that equality-check
        # it; the server still decodes their v1 envelopes.
        assert spec["wire_version"] == wire.WIRE_VERSION
        assert spec["wire_versions"] == list(wire.SUPPORTED_WIRE_VERSIONS)

    def test_sdk_sends_columnar_frames(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(_values()[:10], users=_users(10), rng=SEED)
        assert client.healthz()["wire_versions"] == {"1": 0, "2": 1}

    @pytest.mark.parametrize(
        "offer", [None, [1], "2"], ids=["no-list", "v1-only", "not-a-list"]
    )
    def test_sdk_refuses_a_server_without_v2(
        self, serve, monkeypatch, offer
    ):
        """A ``/spec`` that does not list 2 (a server that predates the
        list offers only its ``wire_version``, 1) is a WireFormatError
        naming the offer, raised before any report is sent."""
        server = serve(_protocol())
        real_request = ServiceClient._request
        paths = []

        def offering(self, method, path, **kwargs):
            paths.append(path)
            response = real_request(self, method, path, **kwargs)
            if path.startswith("/spec"):
                del response["wire_versions"]
                if offer is not None:
                    response["wire_versions"] = offer
            return response

        monkeypatch.setattr(ServiceClient, "_request", offering)
        client = ServiceClient("127.0.0.1", server.port)
        shown = repr([1] if offer is None else offer)
        with pytest.raises(wire.WireFormatError, match=re.escape(shown)):
            client.submit(_values()[:10], users=_users(10), rng=SEED)
        assert paths == ["/spec"]
        assert server.registry.default.reports == 0


class TestMixedFleet:
    def test_v1_and_v2_clients_concurrently_bitwise_equal(self, serve):
        """The headline invariant: a mixed v1/v2 fleet (hand-built v1
        envelopes beside the SDK's v2 frames) ingesting
        concurrently into one campaign reproduces a single local
        ``Protocol.run`` bitwise (frequency counts are integral, so
        arrival order cannot perturb them)."""
        protocol = _protocol()
        values = _values()
        # Encode the whole cohort ONCE with the run seed, then slice
        # the report matrix — absorbing the slices in any order sums
        # to exactly what Protocol.run computes.
        reports = protocol.client().encode_batch(
            values, np.random.default_rng(SEED)
        )
        chunks = np.array_split(np.asarray(reports), 8)
        users = _users(N)
        user_chunks, start = [], 0
        for chunk in chunks:
            user_chunks.append(users[start : start + len(chunk)])
            start += len(chunk)

        server = serve(protocol)
        v1 = ServiceClient("127.0.0.1", server.port)
        v2 = ServiceClient("127.0.0.1", server.port)

        def drain(send, indices):
            for i in indices:
                send(chunks[i], users=user_chunks[i])

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(drain, partial(post_v1, v1), range(0, 8, 2)),
                pool.submit(drain, v2.submit_reports, range(1, 8, 2)),
            ]
            for future in futures:
                future.result()

        estimate = v2.estimate()
        np.testing.assert_array_equal(
            np.asarray(estimate),
            np.asarray(protocol.run(values, rng=SEED)),
        )

        health = v2.healthz()
        assert health["reports"] == N
        assert health["wire_versions"] == {"1": 4, "2": 4}

    def test_columnar_duplicate_detection(self, serve):
        protocol = _protocol()
        server = serve(protocol, lifetime_epsilon=10.0)
        client = ServiceClient("127.0.0.1", server.port)
        reports = protocol.client().encode_batch(
            _values()[:20], np.random.default_rng(SEED)
        )
        first = client.submit_reports(reports, users=_users(20))
        again = client.submit_reports(reports, users=_users(20))
        assert first["accepted"] == 20
        assert again["status"] == "duplicate"
        assert client.healthz()["reports"] == 20

    def test_columnar_invalid_batch_charges_nothing(self, serve):
        # A 1-D frequency batch with an out-of-domain value fails
        # validation BEFORE the ledger charge.
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError):
            client.submit_reports(
                np.array([DOMAIN + 7]), users=["x1"]
            )
        assert client.healthz()["users_charged"] == 0

    def test_columnar_fingerprint_mismatch_409(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        block = wire.reports_to_columns(np.zeros((2, DOMAIN), dtype=int))
        frame = wire.pack_columns(
            block, "0" * 64, users=["a", "b"], idempotency_key="k"
        )
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                "/report",
                raw_body=frame,
                content_type=wire.COLUMNAR_CONTENT_TYPE,
            )
        assert excinfo.value.status == 409
