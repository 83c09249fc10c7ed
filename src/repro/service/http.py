"""HTTP/1.1 framing and the per-connection request loop.

The ingestion server (:mod:`repro.service.server`) routes and answers
requests; this module owns how they arrive and leave, on both ends of
the connection.  :class:`HttpServer` reads one request at a time
(request line, headers, body), writes one response, and serves each
connection in a loop until it closes:

* the client closes it, sends ``Connection: close``, or speaks
  HTTP/1.0 without ``Connection: keep-alive``;
* no byte of a next request arrives within :data:`IDLE_TIMEOUT_S`
  (closed silently);
* a request's head is not complete :data:`HEADER_TIMEOUT_S` after its
  first byte (408);
* the server is draining: every response then says
  ``Connection: close``.

Every response states ``Connection: keep-alive`` or
``Connection: close``, and the header is always true.  A response sent
before the whole request was read (a bad request line, a bad or
conflicting ``Content-Length``, any ``Transfer-Encoding``, a head over
:data:`MAX_HEADER_BYTES` or :data:`MAX_HEADERS`, a body over
:data:`MAX_BODY_BYTES`, a truncated body) closes the connection, so the
framing of a reused connection can never desync.  Past
:data:`MAX_CONNECTIONS` open connections a new one is answered 503
``too_many_connections`` and closed.

A request whose body has been read in full is always answered: the
handler runs synchronously, and closing a connection flushes what was
written to it.  Shutdown (:meth:`HttpServer.aclose`) can only cut off
a request that was partly read, which is safe to resend under its
idempotency key.

Timeouts cost one ``loop.call_later`` per request (:class:`_HeadTimer`);
``asyncio.wait_for`` around each header line would cost a task and a
timer per line.

:class:`ClientConnection` is the SDK's end: one kept-alive connection
that writes each request in a single send and reads each response by
its ``Content-Length``.
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import urllib.parse
from typing import (
    Any,
    BinaryIO,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.obs.logging import get_logger
from repro.obs.metrics import CONTENT_TYPE_LATEST

_log = get_logger("repro.service.http")

#: Upper bound on accepted request bodies (64 MiB of JSON).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a kept-alive connection may wait for the first byte of its
#: next request before it is closed silently.
IDLE_TIMEOUT_S = 30.0

#: Seconds from a request's first byte to the end of its head; past
#: them the request is answered 408 and the connection closed.
HEADER_TIMEOUT_S = 10.0

#: Bytes in a request head (request line plus headers); over it, 431.
#: Read when the server starts: it is the stream reader's limit.
MAX_HEADER_BYTES = 16 * 1024

#: Header lines in one request; over it, 431.
MAX_HEADERS = 64

#: Open connections; one more is answered 503 and closed.
MAX_CONNECTIONS = 256

#: Label values of ``repro_connections_closed_total{reason}``.
CLOSE_REASONS = (
    "client",
    "idle",
    "header_timeout",
    "bad_request",
    "over_cap",
    "shutdown",
)

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class Request(NamedTuple):
    """One fully read request, as the handler sees it."""

    method: str
    path: str
    query: Dict[str, str]
    content_type: str
    body: bytes


#: Answers a fully read request: ``(status, payload)``, where a ``str``
#: payload is Prometheus text and anything else is sent as JSON.
Handler = Callable[[Request], Tuple[int, Any]]


class Refusal(Exception):
    """Answer a request with ``status`` and ``{"error": error, **fields}``.

    Raised here for a request refused before it was read in full (its
    connection then closes), and by the handlers of
    :mod:`repro.service.server`.
    """

    def __init__(self, status: int, error: str, **fields: Any) -> None:
        super().__init__(error)
        self.status = status
        self.payload = {"error": error, **fields}


def _response(status: int, payload: Any, keep_alive: bool) -> bytes:
    if isinstance(payload, str):
        # /metrics: pre-rendered text exposition, not JSON.
        body = payload.encode("utf-8")
        content_type = CONTENT_TYPE_LATEST
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    extra = ""
    if isinstance(payload, dict) and "retry_after" in payload:
        extra = f"Retry-After: {int(payload['retry_after'])}\r\n"
    return (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    ).encode("ascii") + body


def _parse_head(head: bytes) -> Tuple[Request, int, bool]:
    """Parse a request head ending in a blank line.

    Returns the request (empty body), its ``Content-Length`` and whether
    the client keeps the connection alive; raises :class:`Refusal`.
    """
    lines = head.decode("latin-1").split("\r\n")[:-2]
    parts = lines[0].split()
    if len(parts) != 3:
        raise Refusal(400, "bad_request_line")
    if len(lines) - 1 > MAX_HEADERS:
        raise Refusal(
            431, "too_many_headers", detail=f"more than {MAX_HEADERS} headers"
        )
    method, target, version = parts
    lengths: Set[str] = set()
    tokens: Set[str] = set()
    content_type = "application/json"
    for line in lines[1:]:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "content-length":
            lengths.update(v.strip() for v in value.split(","))
        elif name == "content-type":
            content_type = value.strip().lower()
        elif name == "connection":
            tokens.update(t.strip().lower() for t in value.split(","))
        elif name == "transfer-encoding":
            raise Refusal(
                501,
                "unsupported_transfer_encoding",
                detail="request bodies must be framed by Content-Length",
            )
    content_length = 0
    if lengths:
        value = lengths.pop()
        if lengths or not (value.isascii() and value.isdigit()):
            raise Refusal(400, "bad_content_length")
        content_length = int(value)
    if version == "HTTP/1.0":
        keep_alive = "keep-alive" in tokens
    else:
        keep_alive = "close" not in tokens
    path, _, raw_query = target.partition("?")
    query = {
        name: values[-1]
        for name, values in urllib.parse.parse_qs(raw_query).items()
    }
    return (
        Request(method.upper(), path, query, content_type, b""),
        content_length,
        keep_alive,
    )


class _HeadTimer:
    """The one timer a request costs.

    Armed when the connection starts waiting for a request.  Until the
    request's first byte it enforces :data:`IDLE_TIMEOUT_S` (close
    silently), from then on :data:`HEADER_TIMEOUT_S` (answer 408).  It
    first fires after the shorter of the two and re-arms itself for
    the remainder, so only a slow or idle connection pays a second
    timer.  Expiry closes the writer, which ends the pending read.
    """

    __slots__ = ("_loop", "_writer", "_since", "_first", "_handle", "expired")

    def __init__(
        self, loop: asyncio.AbstractEventLoop, writer: asyncio.StreamWriter
    ) -> None:
        self._loop = loop
        self._writer = writer
        self._since = 0.0
        self._first: Optional[float] = None
        self._handle: Optional[asyncio.TimerHandle] = None
        #: Why the timer closed the connection (a close reason).
        self.expired: Optional[str] = None

    def arm(self) -> None:
        self._since = self._loop.time()
        self._first = None
        self._handle = self._loop.call_later(
            min(IDLE_TIMEOUT_S, HEADER_TIMEOUT_S), self._fire
        )

    def first_byte(self) -> None:
        self._first = self._loop.time()

    def disarm(self) -> None:
        self._handle.cancel()

    def _fire(self) -> None:
        now = self._loop.time()
        if self._first is None:
            due, reason = self._since + IDLE_TIMEOUT_S, "idle"
        else:
            due, reason = self._first + HEADER_TIMEOUT_S, "header_timeout"
        if now < due:
            self._handle = self._loop.call_later(due - now, self._fire)
            return
        self.expired = reason
        if reason == "header_timeout":
            self._writer.write(
                _response(408, {"error": "header_timeout"}, keep_alive=False)
            )
        self._writer.close()


class HttpServer:
    """The listening socket and every connection it accepted.

    Parameters
    ----------
    handle:
        Answers each fully read request (synchronously, on the loop).
    closing:
        True while the server drains: responses then close their
        connection.
    connections_open / connections_closed:
        The ``repro_connections_open`` gauge (made to read the live
        count) and the ``repro_connections_closed_total{reason}``
        counter.
    """

    def __init__(
        self,
        handle: Handler,
        closing: Callable[[], bool],
        connections_open: Any,
        connections_closed: Any,
    ) -> None:
        self._handle = handle
        self._closing = closing
        self._closed_total = connections_closed
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._shutdown = False
        self._server: Optional[asyncio.AbstractServer] = None
        connections_open.set_function(lambda: len(self._tasks))

    async def start(self, host: str, port: int) -> int:
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.start_server(
            self._serve, host=host, port=port, limit=MAX_HEADER_BYTES
        )
        return self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop accepting, end every connection, wait until all closed.

        Every connection task is cancelled and awaited before
        ``wait_closed()``, which on Python >= 3.12.1 waits for every
        open connection: an idle keep-alive client would otherwise
        hold shutdown open until its idle timeout.
        """
        self._shutdown = True
        self._server.close()
        while self._tasks:
            tasks = list(self._tasks)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        await self._server.wait_closed()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection from accept to close.

        Cancellation by :meth:`aclose` ends the task normally: the
        ``start_server`` of Python 3.11 and 3.12.1 logs a cancelled
        connection task as an unhandled error.
        """
        if self._shutdown:
            # Accepted just before aclose(): no request is served.
            writer.close()
            return
        task = asyncio.current_task()
        self._tasks.add(task)
        reason = "shutdown"  # unless the loop below returns
        try:
            if len(self._tasks) > MAX_CONNECTIONS:
                reason = "over_cap"
                writer.write(_response(
                    503,
                    {
                        "error": "too_many_connections",
                        "detail": f"{MAX_CONNECTIONS} connections open",
                    },
                    keep_alive=False,
                ))
            else:
                reason = await self._requests(reader, writer)
        except ConnectionError:
            reason = "client"
        except asyncio.CancelledError:
            pass  # aclose()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
            finally:
                # Last: aclose() must await the task to here.  Counted
                # closed only once it has left the open set, so the two
                # series never show one connection both open and closed.
                self._tasks.discard(task)
                self._closed_total.labels(reason=reason).inc()

    async def _requests(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> str:
        """Serve requests in order until the connection closes; returns
        the close reason."""
        timer = _HeadTimer(asyncio.get_running_loop(), writer)
        while True:
            timer.arm()
            try:
                first = await reader.read(1)
                if first:
                    timer.first_byte()
                    head = first + await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                first = b""  # EOF inside a head: nothing to answer
            except asyncio.LimitOverrunError:
                head = b""
            finally:
                timer.disarm()
            if timer.expired is not None:
                return timer.expired
            if not first:
                return "client"
            try:
                if not head:
                    raise Refusal(
                        431,
                        "header_too_large",
                        detail=f"request head over {MAX_HEADER_BYTES} bytes",
                    )
                request, length, keep_alive = _parse_head(head)
                if length > MAX_BODY_BYTES:
                    raise Refusal(413, "payload_too_large")
                if length:
                    try:
                        body = await reader.readexactly(length)
                    except asyncio.IncompleteReadError as exc:
                        raise Refusal(
                            400,
                            "truncated_body",
                            detail=f"Content-Length {length}, body ended "
                            f"after {len(exc.partial)} bytes",
                        ) from None
                    request = request._replace(body=body)
            except Refusal as exc:
                writer.write(_response(exc.status, exc.payload, False))
                return "bad_request"
            try:
                status, payload = self._handle(request)
            except Exception as exc:  # noqa: BLE001 - answer, keep serving
                _log.error("request failed", exc_info=True)
                status, payload = 500, {
                    "error": "internal",
                    "detail": f"{type(exc).__name__}: {exc}",
                }
            draining = self._closing()
            keep_alive = keep_alive and not draining
            writer.write(_response(status, payload, keep_alive))
            await writer.drain()
            if not keep_alive:
                return "shutdown" if draining else "client"


#: Bytes a request target may not contain: they would end or split the
#: request line.
_UNSAFE_TARGET = re.compile(r"[\x00-\x20\x7f]")


class ClientConnection:
    """One kept-alive HTTP/1.1 connection from the SDK to a server.

    A request goes out in one ``sendall``, head and body together, so
    the server wakes once for it; ``http.client`` sends them apart and
    parses every response head with the ``email`` package.  The socket
    opens on the first request, and again after :meth:`close` or a
    ``Connection: close`` answer; :attr:`sock` is ``None`` while
    closed.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self._reader: Optional[BinaryIO] = None

    def close(self) -> None:
        """Close the socket; safe from any thread, and twice."""
        sock, reader = self.sock, self._reader
        self.sock = self._reader = None
        if sock is not None:
            reader.close()
            sock.close()

    def exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
    ) -> Tuple[int, bytes]:
        """Send one request; returns the response's status and body.

        A server that closes the connection before answering raises
        ``ConnectionResetError``; a malformed or cut-off response
        raises ``ConnectionError``.  Either way the caller closes the
        connection.
        """
        if _UNSAFE_TARGET.search(path):
            raise ValueError(f"unsafe request target {path!r}")
        if self.sock is None:
            self.sock = socket.create_connection(
                (self.host, self.port), self.timeout
            )
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader = self.sock.makefile("rb")
        # Locals: a close() from another thread fails this exchange
        # with an OSError, not with a missing attribute.
        sock, reader = self.sock, self._reader
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        if body is not None:
            head += (
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        sock.sendall(head.encode("latin-1") + b"\r\n" + (body or b""))
        status_line = reader.readline(MAX_HEADER_BYTES)
        if not status_line:
            raise ConnectionResetError(
                "server closed the connection before responding"
            )
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line {status_line!r}")
        length: Optional[int] = None
        keep_alive = True
        for _ in range(MAX_HEADERS + 1):  # the server's own limits
            line = reader.readline(MAX_HEADER_BYTES)
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length" and value.strip().isdigit():
                length = int(value)
            elif name == b"connection":
                keep_alive = b"close" not in value.lower()
        else:
            raise ConnectionError("response head over the header limits")
        if length is None:
            raise ConnectionError("response without a valid Content-Length")
        data = reader.read(length)
        if len(data) != length:
            raise ConnectionError(
                f"response ended after {len(data)} of {length} bytes"
            )
        if not keep_alive:
            self.close()
        return int(parts[1]), data
