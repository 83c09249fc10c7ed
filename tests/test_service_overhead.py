"""Cost bounds of the ingest path, measured in-process.

Two servers take the same pre-packed v2 frames (OUE over 32 values,
2,000 new users a frame) through ``IngestionServer._handle_request``,
the one entry point the HTTP layer calls, so no socket or thread adds
noise.  Each frame goes to both servers back to back, the first of
them alternating frame by frame, so a drift or a burst of load on the
machine hits both alike; each bound is on the median, over every
frame, of the ratio of the two servers' times on it.  A pair of
servers can run a few percent apart for its whole life, even two
alike, so the frames run through several fresh pairs:

* request-path metrics (``instrument=True``, the default) cost at most
  5% over ``instrument=False``;
* a windowed campaign (``WindowConfig(panes=4)``) costs at most 15%
  over a plain one, on frames that carry ``round``.

Both servers of a pair must also end bitwise equal to absorbing the
same reports locally, so the cheaper one is not cheaper by being wrong.
"""

import statistics
import time

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.service import IngestionServer, http, wire
from repro.stream import WindowConfig

PROTOCOL = Protocol.frequency(1.0, domain=32, oracle="oue")
USERS = 2_000
FRAMES = 16
#: Fresh pairs of servers the frames run through.
TRIALS = 15
#: Frames per streaming round: 8 rounds, so a 4-pane ring evicts.
ROUND_FRAMES = 2


@pytest.fixture(scope="module")
def batches():
    """``(reports, frame)`` per batch; every frame carries its round."""
    encoder = PROTOCOL.client()
    fingerprint = wire.spec_fingerprint(PROTOCOL.spec)
    out = []
    for i in range(FRAMES):
        rng = np.random.default_rng(i)
        reports = encoder.encode_batch(rng.integers(0, 32, USERS), rng)
        frame = wire.pack_columns(
            wire.reports_to_columns(reports),
            fingerprint,
            users=[f"b{i}-u{j}" for j in range(USERS)],
            round=i // ROUND_FRAMES,
        )
        out.append((reports, frame))
    return out


def _ratio(candidate, baseline, batches):
    """The median, over every frame of :data:`TRIALS` fresh pairs of
    servers made by ``candidate()`` and ``baseline()``, of the
    candidate's time on the frame over the baseline's; and the last
    pair."""
    ratios = []
    for _ in range(TRIALS):
        pair = candidate(), baseline()
        for i, (_, frame) in enumerate(batches):
            request = http.Request(
                "POST", "/report", {}, wire.COLUMNAR_CONTENT_TYPE, frame
            )
            seconds = [0.0, 0.0]
            for side in (0, 1) if i % 2 else (1, 0):
                started = time.perf_counter()
                status, answer = pair[side]._handle_request(request)
                seconds[side] = time.perf_counter() - started
                assert status == 200, answer
            ratios.append(seconds[0] / seconds[1])
    return statistics.median(ratios), pair


def _estimate(server, **query):
    request = http.Request("GET", "/estimate", query, "", b"")
    status, answer = server._handle_request(request)
    assert status == 200, answer
    return answer["payload"]["estimate"]


def _local(batches):
    accumulator = PROTOCOL.server()
    for reports, _ in batches:
        accumulator.absorb(reports)
    return wire.encode_estimate(accumulator.estimate())


def test_request_path_metrics_cost_at_most_5_percent(batches):
    ratio, (instrumented, bare) = _ratio(
        lambda: IngestionServer(PROTOCOL),
        lambda: IngestionServer(PROTOCOL, instrument=False),
        batches,
    )
    expected = _local(batches)
    assert _estimate(instrumented) == _estimate(bare) == expected
    assert ratio <= 1.05, f"instrumented/bare = {ratio:.3f}"


def test_windowed_ingest_costs_at_most_15_percent(batches):
    ratio, (windowed, plain) = _ratio(
        lambda: IngestionServer(PROTOCOL, window=WindowConfig(panes=4)),
        lambda: IngestionServer(PROTOCOL),
        batches,
    )
    # All time, both hold every report; the window only the last
    # four rounds'.
    assert _estimate(windowed) == _estimate(plain) == _local(batches)
    assert _estimate(windowed, window="4") == _local(
        batches[-4 * ROUND_FRAMES :]
    )
    assert ratio <= 1.15, f"windowed/plain = {ratio:.3f}"
