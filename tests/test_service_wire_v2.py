"""Wire format v2 end-to-end: negotiation and a mixed v1/v2 fleet.

These tests drive the v2 (columnar) wire format through a live server:
the SDK negotiates it from ``/spec``, columnar batches get the same
duplicate/validation/fingerprint checks as v1 JSON envelopes, and a v1
JSON client and a v2 columnar client ingesting concurrently into the
same campaign land in the same aggregate, bitwise.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.service import IngestionServer, ServiceClient, ServiceError, wire

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


class TestNegotiation:
    def test_spec_offers_both_versions(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        spec = client.fetch_spec()
        # "wire_version": 1 stays for pre-negotiation clients that
        # equality-check it; the offer list is the new field.
        assert spec["wire_version"] == wire.WIRE_VERSION
        assert spec["wire_versions"] == list(wire.SUPPORTED_WIRE_VERSIONS)

    def test_sdk_negotiates_columnar_by_default(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        assert (
            client.negotiated_wire_version == wire.WIRE_VERSION_COLUMNAR
        )

    def test_forced_v1_sticks_and_submits_json(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port, wire_version=1)
        assert client.negotiated_wire_version == wire.WIRE_VERSION
        client.submit(_values()[:10], users=_users(10), rng=SEED)
        counts = client.healthz()["wire_versions"]
        assert counts == {"1": 1, "2": 0}

    def test_unsupported_forced_version_rejected_locally(self):
        with pytest.raises(ValueError):
            ServiceClient("127.0.0.1", 1, wire_version=3)

    def test_v1_only_server_falls_back(self, serve, monkeypatch):
        # Simulate a pre-negotiation server by stripping the offer
        # list from its /spec response: the SDK must fall back to the
        # single advertised version instead of assuming v2.
        server = serve(_protocol())
        real_request = ServiceClient._request

        def stripped(self, method, path, **kwargs):
            response = real_request(self, method, path, **kwargs)
            if path.startswith("/spec") and isinstance(response, dict):
                response = {
                    k: v
                    for k, v in response.items()
                    if k != "wire_versions"
                }
            return response

        monkeypatch.setattr(ServiceClient, "_request", stripped)
        client = ServiceClient("127.0.0.1", server.port)
        assert client.negotiated_wire_version == wire.WIRE_VERSION
        with pytest.raises(wire.WireFormatError):
            ServiceClient(
                "127.0.0.1",
                server.port,
                wire_version=wire.WIRE_VERSION_COLUMNAR,
            ).fetch_spec()


class TestMixedFleet:
    def test_v1_and_v2_clients_concurrently_bitwise_equal(self, serve):
        """The headline invariant: a mixed v1/v2 fleet ingesting
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
        v1 = ServiceClient("127.0.0.1", server.port, wire_version=1)
        v2 = ServiceClient("127.0.0.1", server.port)
        assert v2.negotiated_wire_version == wire.WIRE_VERSION_COLUMNAR

        def drain(client, indices):
            for i in indices:
                client.submit_reports(chunks[i], users=user_chunks[i])

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(drain, v1, range(0, 8, 2)),
                pool.submit(drain, v2, range(1, 8, 2)),
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
        assert (
            client.negotiated_wire_version == wire.WIRE_VERSION_COLUMNAR
        )
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
