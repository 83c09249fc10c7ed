"""A batch the server cannot fold exactly is refused before admission.

Two malformed batches used to be folded in full while the ledger
charged far less than they carried:

* a header that declares one user over 2,000 report rows (a v2 frame of
  any kind, or a v1 or v2 mixed batch);
* unary-encoding "bits" that are not 0 or 1 (a 4-row OUE batch of 5s
  added 20 to every support count).

Both must get 400 ``bad_reports`` with the ledger and the accumulator
state byte-identical, on both wire versions.
"""

import json

import numpy as np
import pytest

from repro.data.census import make_br_like
from repro.multidim.collector import MixedReports
from repro.protocol import Protocol
from repro.protocol.reports import ColumnBlock, to_block
from repro.service import IngestionServer, ServiceClient, ServiceError, wire

ROWS = 2_000


def _kinds():
    dataset = make_br_like(ROWS, rng=np.random.default_rng(3))
    return {
        "array-grr": (
            Protocol.frequency(1.0, domain=8, oracle="grr"),
            np.arange(ROWS) % 8,
        ),
        "array-oue": (
            Protocol.frequency(1.0, domain=8, oracle="oue"),
            np.arange(ROWS) % 8,
        ),
        "array-mean": (
            Protocol.numeric_mean(1.0, "hm"),
            np.linspace(-1, 1, ROWS),
        ),
        "olh": (
            Protocol.frequency(1.0, domain=32, oracle="olh"),
            np.arange(ROWS) % 32,
        ),
        "sampled-numeric": (
            Protocol.multidim(4.0, d=6, mechanism="hm"),
            np.random.default_rng(4).uniform(-1, 1, (ROWS, 6)),
        ),
        "mixed": (
            Protocol.multidim(4.0, schema=dataset.schema, oracle="olh"),
            dataset,
        ),
    }


@pytest.fixture
def serve():
    running = []

    def _boot(protocol):
        server = IngestionServer(protocol, lifetime_epsilon=4.0)
        running.append(server.run_in_thread())
        return server

    yield _boot
    for server in running:
        server.stop()


def _post(client, wire_version, reports, block, users):
    """POST one batch, bypassing the SDK's own encoding."""
    if wire_version == 1:
        envelope = wire.pack(
            {
                "users": users,
                "idempotency_key": "forged",
                "reports": wire.encode_reports(reports),
            },
            client.fingerprint,
        )
        return client._request("POST", "/report", envelope)
    frame = wire.pack_columns(
        block, client.fingerprint, users=users, idempotency_key="forged"
    )
    return client._request(
        "POST",
        "/report",
        raw_body=frame,
        content_type=wire.COLUMNAR_CONTENT_TYPE,
    )


def _state(server):
    accumulator = server.registry.default.accumulator
    return json.dumps(server.ledger.to_dict()), json.dumps(
        wire.encode_accumulator_state(accumulator), sort_keys=True
    )


def _refused(server, client, wire_version, reports, block, users):
    before = _state(server)
    with pytest.raises(ServiceError) as excinfo:
        _post(client, wire_version, reports, block, users)
    assert excinfo.value.status == 400
    assert _state(server) == before
    assert client.healthz()["batches_accepted"] == 1
    return excinfo.value.payload


@pytest.mark.parametrize("wire_version", [1, 2])
@pytest.mark.parametrize("kind", sorted(_kinds()))
def test_one_user_over_many_rows_is_refused(serve, kind, wire_version):
    protocol, values = _kinds()[kind]
    server = serve(protocol)
    client = ServiceClient("127.0.0.1", server.port, retries=0)
    first = (
        values.subset(np.arange(20)) if kind == "mixed" else values[:20]
    )
    client.submit(first, users=[f"u{i}" for i in range(20)], rng=0)
    reports = protocol.client().encode_batch(values, 1)
    block = to_block(reports)
    assert block.n == ROWS
    forged = ColumnBlock(block.kind, 1, block.meta, block.columns)
    if isinstance(reports, MixedReports):
        reports = MixedReports(1, reports.numeric, reports.categorical)
    payload = _refused(
        server, client, wire_version, reports, forged, ["attacker"]
    )
    if wire_version == 2 or kind == "mixed":
        # The header's n matches the one user, so only the parse's
        # row-count check stands between the batch and the ledger.
        assert payload["error"] == "bad_reports"
        assert "rows" in payload["detail"]


@pytest.mark.parametrize("wire_version", [1, 2])
@pytest.mark.parametrize("oracle", ["oue", "sue"])
@pytest.mark.parametrize("entry", [5, 0.5, -1], ids=["5", "half", "-1"])
def test_unary_reports_must_be_bits(serve, oracle, entry, wire_version):
    protocol = Protocol.frequency(1.0, domain=8, oracle=oracle)
    server = serve(protocol)
    client = ServiceClient("127.0.0.1", server.port, retries=0)
    client.submit(np.arange(20) % 8, users=[f"u{i}" for i in range(20)])
    bits = np.full((4, 8), entry)
    payload = _refused(
        server, client, wire_version, bits, to_block(bits),
        [f"x{i}" for i in range(4)],
    )
    assert payload["error"] == "bad_reports"
    assert "bits" in payload["detail"]
