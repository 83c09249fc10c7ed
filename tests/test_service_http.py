"""HTTP connection handling of the ingestion service.

Raw-socket clients drive :mod:`repro.service.http` through its close
rules and limits (each limit monkeypatched small), and the SDK's one
kept-alive connection per thread is checked from both ends.  Every
test that sends a bad or cut-off request checks that the ledger, the
accumulator state and the idempotency keys did not move and that
``/healthz`` still answers.
"""

import gc
import json
import logging
import socket
import threading
import time

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.service import IngestionServer, ServiceClient, http, wire

SEED = 5
N = 30


@pytest.fixture
def serve():
    running = []

    def _boot(**kwargs):
        server = IngestionServer(
            Protocol.frequency(1.0, domain=6, oracle="oue"),
            lifetime_epsilon=10.0,
            **kwargs,
        ).run_in_thread()
        running.append(server)
        return server

    yield _boot
    for server in running:
        server.stop()


def _users(n, prefix="u"):
    return [f"{prefix}{i}" for i in range(n)]


def _values(seed):
    return np.random.default_rng(seed).integers(0, 6, N)


def _primed(serve, **kwargs):
    """A server holding one accepted batch, and the client that sent it."""
    server = serve(**kwargs)
    client = ServiceClient("127.0.0.1", server.port, retries=0)
    client.submit(_values(0), users=_users(N), rng=SEED)
    return server, client


def _state(server):
    campaign = server.registry.default
    return (
        json.dumps(server.ledger.to_dict(), sort_keys=True),
        json.dumps(wire.encode_accumulator_state(campaign.accumulator)),
        sorted(campaign.seen_keys),
    )


def _report_request(client, seed, prefix, key):
    """Raw bytes of a v1 ``POST /report`` for N fresh users."""
    envelope = wire.pack(
        {
            "users": _users(N, prefix),
            "idempotency_key": key,
            "reports": wire.encode_reports(client.encode(_values(seed), seed)),
        },
        client.fingerprint,
    )
    body = json.dumps(envelope).encode("utf-8")
    return (
        b"POST /report HTTP/1.1\r\nHost: t\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
        + body
    )


def _connect(server):
    return socket.create_connection(("127.0.0.1", server.port), timeout=5)


def _read_response(reader):
    """(status, headers, JSON-or-text body) of one response."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    if headers["content-type"] == "application/json":
        body = json.loads(body)
    return int(status_line.split()[1]), headers, body


def _rest(reader):
    """Everything the server sends until it closes the connection."""
    try:
        return reader.read()
    except ConnectionResetError:
        return b""


def _exchange(sock, data):
    """Send raw bytes and read exactly one response."""
    sock.sendall(data)
    return _read_response(sock.makefile("rb"))


def _closed(server, reason):
    return server.metrics.registry.sample(
        "repro_connections_closed_total", {"reason": reason}
    )


def _open(server):
    return server.metrics.registry.sample("repro_connections_open")


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.01)


def _assert_unharmed(server, client, before):
    assert _state(server) == before
    assert client.healthz()["batches_accepted"] == 1


class TestKeepAlive:
    def test_pipelined_requests_are_answered_in_order(self, serve):
        server, client = _primed(serve)
        with _connect(server) as sock:
            sock.sendall(
                _report_request(client, 1, "p", "pipelined")
                + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                + b"GET /spec HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            reader = sock.makefile("rb")
            first, second, third = (_read_response(reader) for _ in range(3))
        assert first[0] == 200 and first[2]["status"] == "accepted"
        assert second[0] == 200 and second[2]["batches_accepted"] == 2
        assert third[0] == 200 and third[2]["fingerprint"] == client.fingerprint
        for response in (first, second, third):
            assert response[1]["connection"] == "keep-alive"

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_client_asking_to_close_gets_close(self, serve, request_head):
        server = serve()
        with _connect(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(request_head)
            status, headers, _ = _read_response(reader)
            assert (status, headers["connection"]) == (200, "close")
            assert _rest(reader) == b""

    def test_http_1_0_keep_alive_is_honoured(self, serve):
        server = serve()
        head = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with _connect(server) as sock:
            reader = sock.makefile("rb")
            for _ in range(2):
                sock.sendall(head)
                status, headers, _ = _read_response(reader)
                assert (status, headers["connection"]) == (200, "keep-alive")

    def test_clean_eof_between_requests_gets_no_bytes(self, serve):
        server = serve()
        with _connect(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_response(reader)[0] == 200
            sock.shutdown(socket.SHUT_WR)
            assert _rest(reader) == b""

    def test_draining_server_closes_after_each_response(self, serve):
        server = serve()
        with _connect(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_response(reader)[1]["connection"] == "keep-alive"
            server.begin_drain()
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            status, headers, body = _read_response(reader)
            assert (status, headers["connection"]) == (200, "close")
            assert body["status"] == "draining"
            assert _rest(reader) == b""


class TestFraming:
    """Requests answered before they were read in full close the
    connection, and nothing behind them is parsed."""

    def test_transfer_encoding_is_501_and_closes(self, serve):
        server, client = _primed(serve)
        before = _state(server)
        with _connect(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                b"POST /report HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                b"Content-Type: application/json\r\n\r\n"
                b"16\r\nGET /healthz HTTP/1.1\r\n\r\n0\r\n\r\n"
            )
            status, headers, body = _read_response(reader)
            assert (status, headers["connection"]) == (501, "close")
            assert body["error"] == "unsupported_transfer_encoding"
            assert _rest(reader) == b""
        _assert_unharmed(server, client, before)

    def test_conflicting_content_lengths_are_400_and_close(self, serve):
        server, client = _primed(serve)
        before = _state(server)
        with _connect(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                b"POST /report HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 26\r\n\r\n"
                b"{}GET /healthz HTTP/1.1\r\n\r\n"
            )
            status, headers, body = _read_response(reader)
            assert (status, headers["connection"]) == (400, "close")
            assert body["error"] == "bad_content_length"
            assert _rest(reader) == b""
        _assert_unharmed(server, client, before)

    def test_413_does_not_parse_the_body_as_a_request(
        self, serve, monkeypatch
    ):
        server, client = _primed(serve)
        before = _state(server)
        monkeypatch.setattr(http, "MAX_BODY_BYTES", 64)
        smuggled = _report_request(client, 2, "s", "smuggled")
        with _connect(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                b"POST /report HTTP/1.1\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(smuggled)}\r\n\r\n".encode("ascii")
                + smuggled
            )
            status, headers, body = _read_response(reader)
            assert (status, headers["connection"]) == (413, "close")
            assert body["error"] == "payload_too_large"
            assert _rest(reader) == b""
        _assert_unharmed(server, client, before)

    def test_client_closing_mid_body_changes_nothing(self, serve):
        server, client = _primed(serve)
        before = _state(server)
        request = _report_request(client, 3, "m", "mid-body")
        with _connect(server) as sock:
            sock.sendall(request[: len(request) - 40])
        _wait_for(lambda: _closed(server, "bad_request") == 1)
        _assert_unharmed(server, client, before)
        responses = server.metrics.registry.get("repro_http_responses_total")
        assert all(labels[1] != "500" for labels, _ in responses.children())


class TestLimits:
    def test_idle_connection_is_closed_silently(self, serve, monkeypatch):
        server, client = _primed(serve)
        before = _state(server)
        monkeypatch.setattr(http, "IDLE_TIMEOUT_S", 0.2)
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            reader = sock.makefile("rb")
            assert _read_response(reader)[0] == 200
            assert _rest(reader) == b""
        _assert_unharmed(server, client, before)

    def test_slow_head_is_408_and_closes(self, serve, monkeypatch):
        server, client = _primed(serve)
        before = _state(server)
        monkeypatch.setattr(http, "HEADER_TIMEOUT_S", 0.2)
        with _connect(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"POST /report HTTP/1.1\r\nContent-Le")
            started = time.monotonic()
            status, headers, body = _read_response(reader)
            assert time.monotonic() - started < 5
            assert (status, headers["connection"]) == (408, "close")
            assert body["error"] == "header_timeout"
            assert _rest(reader) == b""
        _assert_unharmed(server, client, before)

    @pytest.mark.parametrize(
        "limit, header",
        [(None, b"X-Big: " + b"a" * 70_000), (512, b"X-Big: " + b"a" * 600)],
        ids=["default-70KiB-line", "patched-512"],
    )
    def test_oversized_head_is_431_not_500(
        self, serve, monkeypatch, limit, header
    ):
        if limit is not None:
            monkeypatch.setattr(http, "MAX_HEADER_BYTES", limit)
        server, client = _primed(serve)
        before = _state(server)
        with _connect(server) as sock:
            reader = sock.makefile("rb")
            try:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n" + header + b"\r\n\r\n")
            except (BrokenPipeError, ConnectionResetError):
                pass  # the server answered before the head was all sent
            status, headers, body = _read_response(reader)
            assert (status, headers["connection"]) == (431, "close")
            assert body["error"] == "header_too_large"
        _assert_unharmed(server, client, before)

    def test_too_many_headers_is_431(self, serve, monkeypatch):
        server, client = _primed(serve)
        before = _state(server)
        monkeypatch.setattr(http, "MAX_HEADERS", 4)
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(5))
        with _connect(server) as sock:
            status, response_headers, body = _exchange(
                sock, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
            )
        assert (status, response_headers["connection"]) == (431, "close")
        assert body["error"] == "too_many_headers"
        _assert_unharmed(server, client, before)

    def test_connections_over_the_cap_get_503(self, serve, monkeypatch):
        server, client = _primed(serve)  # the client holds connection 1
        before = _state(server)
        monkeypatch.setattr(http, "MAX_CONNECTIONS", 2)
        with _connect(server) as second:
            assert _exchange(second, b"GET /healthz HTTP/1.1\r\n\r\n")[0] == 200
            with _connect(server) as third:
                reader = third.makefile("rb")
                status, headers, body = _read_response(reader)
                assert (status, headers["connection"]) == (503, "close")
                assert body["error"] == "too_many_connections"
                assert _rest(reader) == b""
        _assert_unharmed(server, client, before)


def _trigger_client(server, monkeypatch):
    with _connect(server) as sock:
        assert _exchange(sock, b"GET /healthz HTTP/1.1\r\n\r\n")[0] == 200


def _trigger_idle(server, monkeypatch):
    monkeypatch.setattr(http, "IDLE_TIMEOUT_S", 0.1)
    with _connect(server) as sock:
        assert _rest(sock.makefile("rb")) == b""


def _trigger_header_timeout(server, monkeypatch):
    monkeypatch.setattr(http, "HEADER_TIMEOUT_S", 0.1)
    with _connect(server) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n")
        assert _read_response(sock.makefile("rb"))[0] == 408


def _trigger_bad_request(server, monkeypatch):
    with _connect(server) as sock:
        assert _exchange(sock, b"NONSENSE\r\n\r\n")[0] == 400


def _trigger_over_cap(server, monkeypatch):
    monkeypatch.setattr(http, "MAX_CONNECTIONS", 0)
    with _connect(server) as refused:
        assert _read_response(refused.makefile("rb"))[0] == 503


def _trigger_shutdown(server, monkeypatch):
    with _connect(server) as sock:
        assert _exchange(sock, b"GET /healthz HTTP/1.1\r\n\r\n")[0] == 200
        server.stop()


class TestConnectionMetrics:
    def test_reasons_are_pre_seeded_at_zero(self, serve):
        text = ServiceClient("127.0.0.1", serve().port).server_metrics_text()
        for reason in http.CLOSE_REASONS:
            assert (
                f'repro_connections_closed_total{{reason="{reason}"}} 0'
                in text
            )
        assert "repro_connections_open 1" in text

    @pytest.mark.parametrize(
        "reason, trigger",
        [
            ("client", _trigger_client),
            ("idle", _trigger_idle),
            ("header_timeout", _trigger_header_timeout),
            ("bad_request", _trigger_bad_request),
            ("over_cap", _trigger_over_cap),
            ("shutdown", _trigger_shutdown),
        ],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_each_close_path_counts_its_reason(
        self, serve, monkeypatch, reason, trigger
    ):
        server = serve(instrument=False)
        trigger(server, monkeypatch)
        _wait_for(lambda: _closed(server, reason) == 1)
        for other in http.CLOSE_REASONS:
            if other != reason:
                assert _closed(server, other) == 0, other
        assert _open(server) == 0

    def test_many_sdk_requests_on_one_thread_use_one_connection(self, serve):
        server = serve()
        with ServiceClient("127.0.0.1", server.port) as client:
            for i in range(5):
                client.submit(_values(i), users=_users(N, f"b{i}-"), rng=i)
                client.healthz()
            client.estimate()
            assert _open(server) == 1
            assert sum(_closed(server, r) for r in http.CLOSE_REASONS) == 0
        _wait_for(lambda: _open(server) == 0)
        assert _closed(server, "client") == 1


class TestSdkConnection:
    def test_one_thread_reuses_one_socket(self, serve):
        server = serve()
        client = ServiceClient("127.0.0.1", server.port)
        ends = set()
        for call in (
            lambda: client.submit(_values(1), users=_users(N), rng=1),
            client.estimate,
            client.healthz,
            client.server_metrics_text,
        ):
            call()
            ends.add(client._connection().sock.getsockname())
        assert len(ends) == 1
        assert _open(server) == 1
        client.close()

    def test_two_threads_get_two_connections(self, serve):
        server = serve()
        client = ServiceClient("127.0.0.1", server.port)
        barrier = threading.Barrier(2, timeout=5)
        ends = []

        def work():
            client.healthz()
            ends.append(client._connection().sock.getsockname())
            barrier.wait()  # both connections open at once

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(set(ends)) == 2
        assert _open(server) == 2
        client.close()
        _wait_for(lambda: _open(server) == 0)

    def test_stale_connection_reconnects_once(self, serve, monkeypatch):
        monkeypatch.setattr(http, "IDLE_TIMEOUT_S", 0.2)
        server = serve()
        client = ServiceClient("127.0.0.1", server.port, retries=0)
        client.submit(_values(1), users=_users(N), rng=1)
        _wait_for(lambda: _closed(server, "idle") == 1)
        reports = client.encode(_values(2), 2)
        reply = client.submit_reports(reports, _users(N, "v"), "stale-key")
        assert reply["status"] == "accepted"
        retries = client.metrics_registry.get("repro_client_retries_total")
        assert dict(retries.children()).keys() == {("stale_connection",)}
        assert retries.labels(reason="stale_connection").value == 1
        spent = [server.ledger.spent(u) for u in _users(N) + _users(N, "v")]
        again = client.submit_reports(reports, _users(N, "v"), "stale-key")
        assert again["status"] == "duplicate"
        assert [
            server.ledger.spent(u) for u in _users(N) + _users(N, "v")
        ] == spent
        client.close()

    def test_close_and_with_leave_no_open_socket(self, serve):
        server = serve()
        client = ServiceClient("127.0.0.1", server.port)
        worker = threading.Thread(target=client.healthz)
        worker.start()
        worker.join(timeout=10)
        client.healthz()
        assert len(client._opened) == 2
        client.close()
        assert all(c.sock is None for c in client._opened)
        with ServiceClient("127.0.0.1", server.port) as scoped:
            scoped.healthz()
        assert all(c.sock is None for c in scoped._opened)
        _wait_for(lambda: _open(server) == 0)


def test_stop_with_open_connections_leaves_no_pending_task():
    """``stop()`` ends idle keep-alive and half-sent connections alike:
    the loop thread joins, and asyncio logs no error (a task destroyed
    while pending, or a cancelled connection task)."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    asyncio_log = logging.getLogger("asyncio")
    asyncio_log.addHandler(handler)
    try:
        server = IngestionServer(
            Protocol.frequency(1.0, domain=6)
        ).run_in_thread()
        client = ServiceClient("127.0.0.1", server.port)
        client.healthz()
        partial = [_connect(server) for _ in range(3)]
        for sock in partial:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost:")
        _wait_for(lambda: _open(server) == 4)
        thread = server._thread
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 10
        assert not thread.is_alive()
        assert _closed(server, "shutdown") == 4
        gc.collect()
        for sock in partial:
            sock.close()
        client.close()
    finally:
        asyncio_log.removeHandler(handler)
    assert not [r.getMessage() for r in records if r.levelno >= logging.ERROR]
