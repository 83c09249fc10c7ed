"""The ingest steps of ``POST /report``, driven with no server.

:mod:`repro.service.ingest` turns a request body into a checked batch
(``decode``, ``route``, ``check``), tests it against the budget
(``admit``) and folds it in (``commit``).  Here the steps run on their
own against the registry and ledger of an :class:`IngestionServer`
that only holds the state and takes cuts; no request goes through it.

* Every refusal ``decode``, ``route``, ``check`` and ``admit`` raise
  has a row in :data:`REFUSALS`: a valid v1 envelope or v2 frame with
  one field broken.  Each row asserts the status and ``error``, and
  that the next cut is byte for byte the cut taken before.
* A v1 envelope and a v2 frame of the same reports check to bitwise
  equal blocks, for every protocol kind.
* Hypothesis feeds the steps truncated and bit-flipped v2 frames, v2
  headers with one field replaced, and arbitrary v1 JSON: each raises
  nothing but a 4xx :class:`~repro.service.ingest.Refusal`, and the cut
  does not change.
"""

import ast
import contextvars
import inspect
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaigns.ledger import batch_multiplicity
from repro.obs.logging import campaign_var
from repro.protocol import Protocol
from repro.service import IngestionServer, SnapshotStore, http, ingest, wire
from repro.stream import WindowConfig

JSON = "application/json"
COLUMNAR = wire.COLUMNAR_CONTENT_TYPE
N = 12
OUE = Protocol.frequency(1.0, domain=8, oracle="oue")
HM = Protocol.numeric_mean(1.0, "hm")
#: Registered, then sealed.
GRR = Protocol.frequency(1.0, domain=8, oracle="grr")
MD = Protocol.multidim(4.0, d=3, mechanism="hm")
FP = {p: wire.spec_fingerprint(p.spec) for p in (OUE, HM, GRR, MD)}
#: How to draw ``n`` raw values for each protocol.
VALUES = {
    OUE: lambda rng, n: rng.integers(0, 8, n),
    GRR: lambda rng, n: rng.integers(0, 8, n),
    HM: lambda rng, n: rng.uniform(-1, 1, n),
    MD: lambda rng, n: rng.uniform(-1, 1, (n, 3)),
}
#: Users who have spent their whole lifetime epsilon, and new ones.
SPENT = [f"spent-{i}" for i in range(N)]
NEW = [f"new-{i}" for i in range(N)]
#: Stands for "leave this header field out".
DROP = object()


def _reports(protocol, n=N, seed=3):
    rng = np.random.default_rng(seed)
    return protocol.client().encode_batch(VALUES[protocol](rng, n), rng)


def _envelope(protocol=OUE, users=NEW, key="new", seed=3):
    return wire.pack(
        {
            "users": users,
            "idempotency_key": key,
            "round": 1,
            "reports": wire.encode_reports(
                _reports(protocol, len(users), seed)
            ),
        },
        FP[protocol],
        campaign=FP[protocol],
    )


def _v1(mutate=None, **kwargs):
    """A v1 request body; ``mutate`` breaks the envelope in place."""
    envelope = _envelope(**kwargs)
    if mutate is not None:
        mutate(envelope)
    return JSON, json.dumps(envelope).encode()


def _frame(protocol=OUE, users=NEW, key="new", seed=3):
    return wire.pack_columns(
        wire.reports_to_columns(_reports(protocol, len(users), seed)),
        FP[protocol],
        users=users,
        idempotency_key=key,
        round=1,
        campaign=FP[protocol],
    )


def _header(frame):
    (length,) = struct.unpack("<I", frame[4:8])
    return json.loads(frame[8:8 + length]), frame[8 + length:]


def _reframe(header, body):
    head = json.dumps(header).encode()
    return wire.COLUMNAR_MAGIC + struct.pack("<I", len(head)) + head + body


def _v2(protocol=OUE, column=None, **fields):
    """A v2 request body with header ``fields`` replaced (or dropped),
    and those of the first column-table entry in ``column``."""
    header, body = _header(_frame(protocol))
    for name, value in fields.items():
        if value is DROP:
            del header[name]
        else:
            header[name] = value
    header["columns"][0].update(column or {})
    return COLUMNAR, _reframe(header, body)


def _check(registry, envelope):
    """``route`` then ``check``, as the server runs them."""
    return ingest.check(ingest.route(registry, envelope), envelope)


def _owner(directory):
    """A server holding four campaigns (the default OUE one, a
    windowed HM one, a sealed GRR one, a multidimensional one) and two
    committed batches that spend all of :data:`SPENT`'s budget; every
    campaign is dirty."""
    server = IngestionServer(
        OUE, lifetime_epsilon=2.0, store=SnapshotStore(directory)
    )
    server.registry.register(HM.spec, window=WindowConfig(panes=2))
    server.registry.register(GRR.spec)[0].seal()
    server.registry.register(MD.spec)
    for protocol in (OUE, HM):
        envelope = _envelope(protocol, SPENT, f"spent-{protocol.spec.kind}")
        batch = _check(server.registry, envelope)
        multiplicity = batch_multiplicity(batch.charged)
        ingest.admit(server.ledger, batch, multiplicity)
        ingest.commit(server.ledger, batch, multiplicity)
    return server


@pytest.fixture
def owner(tmp_path):
    return _owner(tmp_path)


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """One owner for the fuzz tests, which never change its state."""
    return _owner(tmp_path_factory.mktemp("ingest"))


def _cut(server):
    return [
        (str(path), b"".join(parts))
        for path, parts in server.take_cut().files
    ]


def _until_admit(server, content_type, body):
    """``decode``, ``route``, ``check`` and (unless a duplicate)
    ``admit``."""
    batch = _check(server.registry, ingest.decode(content_type, body))
    if not batch.duplicate:
        ingest.admit(server.ledger, batch, batch_multiplicity(batch.charged))
    return batch


def _set(*path, **fields):
    """Set ``fields`` on the object at ``path`` inside an envelope."""

    def mutate(envelope):
        for key in path:
            envelope = envelope[key]
        envelope.update(fields)

    return mutate


#: (id, request body, status, error): one row per refusal.
REFUSALS = [
    # decode
    ("v2-bad-magic", lambda: (COLUMNAR, b"JSON" + _frame()[4:]),
     400, "bad_envelope"),
    ("v2-truncated", lambda: (COLUMNAR, _frame()[:-3]), 400, "bad_envelope"),
    ("v1-not-json", lambda: (JSON, _v1()[1][:-1]), 400, "bad_json"),
    # route
    ("v1-not-an-object", lambda: (JSON, b"[]"), 400, "bad_request"),
    ("v1-campaign-not-a-string", lambda: _v1(_set(campaign=7)),
     400, "bad_envelope"),
    ("v2-campaign-unknown", lambda: _v2(campaign="0" * 64),
     404, "unknown_campaign"),
    # check
    ("v2-fingerprint-of-another-spec", lambda: _v2(fingerprint=FP[HM]),
     409, "spec_mismatch"),
    ("v1-wire-version-unknown", lambda: _v1(_set(wire_version=3)),
     400, "bad_envelope"),
    ("v1-payload-not-an-object", lambda: _v1(_set(payload=[])),
     400, "bad_envelope"),
    ("v1-campaign-sealed", lambda: _v1(protocol=GRR),
     409, "campaign_sealed"),
    ("v2-key-not-a-string", lambda: _v2(idempotency_key=7),
     400, "bad_request"),
    ("v1-users-empty", lambda: _v1(_set("payload", users=[])),
     400, "bad_request"),
    ("v2-users-missing", lambda: _v2(users=DROP), 400, "bad_request"),
    ("v2-round-negative", lambda: _v2(round=-1), 400, "bad_request"),
    ("v1-round-a-bool", lambda: _v1(_set("payload", round=True)),
     400, "bad_request"),
    ("v2-fresh-one-short", lambda: _v2(fresh=[True] * (N - 1)),
     400, "bad_request"),
    ("v1-fresh-not-booleans", lambda: _v1(_set("payload", fresh=[1] * N)),
     400, "bad_request"),
    ("v1-reports-missing", lambda: _v1(lambda e: e["payload"].pop("reports")),
     400, "bad_reports"),
    ("v1-reports-unknown-type",
     lambda: _v1(_set("payload", reports={"type": "sketch"})),
     400, "bad_reports"),
    ("v2-users-one-more-than-reports",
     lambda: _v2(users=NEW + ["extra"]), 400, "bad_request"),
    ("v1-reports-bits-not-0-or-1",
     lambda: _v1(_set("payload", reports=wire.encode_reports(
         np.full((N, 8), 5, dtype=np.int8)))),
     400, "bad_reports"),
    ("v2-kind-not-the-campaigns", lambda: _v2(kind="olh"),
     400, "bad_reports"),
    # admit
    ("v1-users-out-of-budget", lambda: _v1(users=SPENT),
     429, "budget_exceeded"),
]


#: Malformed bodies that got past every refusal to a 500 ``internal``
#: (the fuzz tests below found the first, probes like it the rest).
FOUND = [
    ("v2-dtype-empty-record", lambda: _v2(column={"dtype": []}),
     400, "bad_envelope"),
    ("v2-dtype-object", lambda: _v2(column={"dtype": "O"}),
     400, "bad_envelope"),
    ("v2-nbytes-a-partial-item",
     lambda: _v2(column={"dtype": "<f8", "shape": [4], "nbytes": 31}),
     400, "bad_envelope"),
    ("v2-shape-negative", lambda: _v2(column={"shape": [-N, -8]}),
     400, "bad_envelope"),
    ("v2-shape-past-int64", lambda: _v2(column={"shape": [2**64, 0]}),
     400, "bad_envelope"),
    ("v2-offset-infinite", lambda: _v2(column={"offset": float("inf")}),
     400, "bad_envelope"),
    ("v2-n-infinite", lambda: _v2(n=float("inf")), 400, "bad_envelope"),
    ("v2-meta-d-infinite",
     lambda: _v2(MD, meta={"d": float("inf"), "k": 1}),
     400, "bad_reports"),
    ("v1-shape-past-int64",
     lambda: _v1(_set("payload", "reports", "array", shape=[10**30])),
     400, "bad_reports"),
    ("v1-d-infinite",
     lambda: _v1(_set("payload", "reports", d=float("inf")), protocol=MD),
     400, "bad_reports"),
]


@pytest.mark.parametrize(
    "build, status, error",
    [row[1:] for row in REFUSALS + FOUND],
    ids=[row[0] for row in REFUSALS + FOUND],
)
def test_refusal_changes_no_state(owner, build, status, error):
    before = _cut(owner)
    with pytest.raises(ingest.Refusal) as refused:
        _until_admit(owner, *build())
    assert refused.value.status == status
    assert refused.value.payload["error"] == error
    assert _cut(owner) == before


def test_every_refusal_of_the_steps_has_a_row():
    """The (status, error) pairs the module raises are the table's."""
    raised = set()
    for node in ast.walk(ast.parse(inspect.getsource(ingest))):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "Refusal"
        ):
            status, error = node.args[:2]
            raised.add((status.value, error.value))
    assert raised == {(status, error) for _, _, status, error in REFUSALS}


def test_budget_refusal_names_every_user_without_room(owner):
    with pytest.raises(ingest.Refusal) as refused:
        _until_admit(owner, *_v1(users=SPENT[:3] + NEW[:3]))
    assert refused.value.payload["rejected_users"] == SPENT[:3]
    assert refused.value.payload["lifetime_epsilon"] == 2.0


def test_duplicate_is_answered_before_the_rest_is_read(owner):
    before = _cut(owner)
    envelope = _envelope(HM, SPENT, key=f"spent-{HM.spec.kind}")
    envelope["payload"].update(users=[], reports=None)
    batch = _check(owner.registry, envelope)
    assert batch.duplicate
    assert ingest.answer(batch) == {
        "status": "duplicate",
        "accepted": 0,
        "campaign": FP[HM],
        "total_reports": N,
    }
    assert _cut(owner) == before


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_commit_folds_in_charges_and_keys_the_batch(owner, version):
    before = _cut(owner)
    body = _v1() if version == "v1" else _v2()
    batch = _until_admit(owner, *body)
    assert _cut(owner) == before
    ingest.commit(owner.ledger, batch, batch_multiplicity(batch.charged))
    campaign = owner.registry.get(FP[OUE])
    assert ingest.answer(batch) == {
        "status": "accepted",
        "accepted": N,
        "campaign": FP[OUE],
        "total_reports": 2 * N,
    }
    assert (campaign.batches_accepted, campaign.dirty) == (2, True)
    assert "new" in campaign.seen_keys
    assert [owner.ledger.spent(u) for u in NEW] == [1.0] * N
    assert batch.wire_version == (1 if version == "v1" else 2)
    assert _cut(owner) != before


@pytest.mark.parametrize(
    "window", [None, WindowConfig(panes=2)], ids=["plain", "windowed"]
)
def test_each_accepted_batch_is_parsed_once(monkeypatch, window):
    """``commit`` folds the parse ``check`` validated: the campaign's
    accumulator runs one ``_parse`` per accepted batch, v1 or v2, and a
    windowed one folds it into the pane the batch's round names."""
    server = IngestionServer(OUE, lifetime_epsilon=2.0, window=window)
    kind = type(OUE.server())
    parse, parsed = kind._parse, []

    def counted(self, block):
        parsed.append(block.n)
        return parse(self, block)

    monkeypatch.setattr(kind, "_parse", counted)
    for content_type, body in (_v1(), _v2(idempotency_key="v2")):
        parsed.clear()
        status, answer = server._handle_request(
            http.Request("POST", "/report", {}, content_type, body)
        )
        assert (status, answer["status"]) == (200, "accepted")
        assert parsed == [N], content_type
    campaign = server.registry.default
    assert campaign.reports == 2 * N
    if window is not None:
        assert campaign.accumulator.pane_counts() == {1: 2 * N}


def test_json_columns_are_not_a_block(owner):
    """Only a v2 frame carries a block; a v1 payload's ``columns`` is an
    unknown field, ignored (it once escaped as a 500)."""
    batch = _until_admit(owner, *_v1(_set("payload", columns={"n": 1})))
    assert batch.wire_version == 1
    assert batch.block.kind == "array" and batch.block.n == N


def test_memoized_replays_are_not_charged(owner):
    fresh = [i % 3 == 0 for i in range(N)]
    batch = _until_admit(owner, *_v2(fresh=fresh))
    assert list(batch.charged) == [u for u, f in zip(NEW, fresh) if f]


# ----------------------------------------------------------------------
# v1 and v2 reach the campaign as the same block
# ----------------------------------------------------------------------
def _kinds():
    rng = np.random.default_rng(5)
    from repro.data import make_br_like

    dataset = make_br_like(N, rng=np.random.default_rng(2))
    return {
        "mean": (HM, rng.uniform(-1, 1, N)),
        "frequency-oue": (OUE, rng.integers(0, 8, N)),
        "frequency-grr": (
            Protocol.frequency(1.0, domain=8, oracle="grr"),
            rng.integers(0, 8, N),
        ),
        "frequency-olh": (
            Protocol.frequency(1.0, domain=8, oracle="olh"),
            rng.integers(0, 8, N),
        ),
        "histogram": (
            Protocol.histogram(2.0, bins=8, oracle="sue"),
            rng.uniform(-1, 1, N),
        ),
        "multidim-numeric": (
            Protocol.multidim(4.0, d=6, mechanism="hm"),
            rng.uniform(-1, 1, (N, 6)),
        ),
        "multidim-mixed": (
            Protocol.multidim(4.0, schema=dataset.schema, mechanism="pm"),
            dataset,
        ),
    }


@pytest.mark.parametrize(
    "body,outcome",
    [
        (lambda: _v1(key="fresh"), "accepted"),
        (lambda: _v1(protocol=HM, users=SPENT, key=f"spent-{HM.spec.kind}"),
         "duplicate"),
        (lambda: _v2(fingerprint=FP[HM]), 409),
    ],
    ids=["accepted", "duplicate", "spec-mismatch"],
)
def test_steps_leave_the_log_campaign_as_they_found_it(shared, body, outcome):
    """The server binds the routed campaign to its request's log
    lines; a direct ``route`` and ``check`` bind nothing."""

    def steps():
        campaign_var.set("caller's")
        try:
            batch = _until_admit(shared, *body())
            seen = "duplicate" if batch.duplicate else "accepted"
        except ingest.Refusal as refusal:
            seen = refusal.status
        return seen, campaign_var.get()

    assert contextvars.Context().run(steps) == (outcome, "caller's")


@pytest.mark.parametrize("name", sorted(_kinds()))
def test_v1_and_v2_check_to_bitwise_equal_blocks(name, tmp_path):
    protocol, values = _kinds()[name]
    fingerprint = wire.spec_fingerprint(protocol.spec)
    server = IngestionServer(protocol, store=SnapshotStore(tmp_path))
    reports = protocol.client().encode_batch(values, np.random.default_rng(9))
    envelope = wire.pack(
        {"users": NEW, "reports": wire.encode_reports(reports)}, fingerprint
    )
    frame = wire.pack_columns(
        wire.reports_to_columns(reports), fingerprint, users=NEW
    )
    v1 = _check(
        server.registry, ingest.decode(JSON, json.dumps(envelope).encode())
    ).block
    v2 = _check(server.registry, ingest.decode(COLUMNAR, frame)).block
    assert (v1.kind, v1.n, v1.meta) == (v2.kind, v2.n, v2.meta)
    assert sorted(v1.columns) == sorted(v2.columns)
    for column, array in v1.columns.items():
        other = v2.columns[column]
        assert (array.dtype, array.shape) == (other.dtype, other.shape)
        assert array.tobytes() == other.tobytes(), column


# ----------------------------------------------------------------------
# Fuzzing: malformed input is a 4xx refusal and changes nothing
# ----------------------------------------------------------------------
FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Arbitrary JSON values.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

#: Valid frames to break, for fresh users of the owner's open
#: campaigns.
FRAMES = [_frame(OUE), _frame(HM), _frame(MD)]


def _refuses_or_passes(server, content_type, body):
    """Run the steps up to admit: a 4xx refusal or a checked batch, and
    the cut unchanged either way."""
    before = _cut(server)
    try:
        _until_admit(server, content_type, body)
    except ingest.Refusal as refusal:
        assert 400 <= refusal.status < 500, refusal.payload
    assert _cut(server) == before


@FUZZ
@given(frame=st.sampled_from(FRAMES), data=st.data())
def test_fuzzed_truncated_frames(shared, frame, data):
    cut = data.draw(st.integers(0, len(frame) - 1), label="cut at")
    _refuses_or_passes(shared, COLUMNAR, frame[:cut])


@FUZZ
@given(frame=st.sampled_from(FRAMES), data=st.data())
def test_fuzzed_bit_flipped_frames(shared, frame, data):
    flips = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(frame) - 1), st.integers(0, 7)),
            min_size=1,
            max_size=3,
        ),
        label="flips",
    )
    damaged = bytearray(frame)
    for index, bit in flips:
        damaged[index] ^= 1 << bit
    _refuses_or_passes(shared, COLUMNAR, bytes(damaged))


@FUZZ
@given(frame=st.sampled_from(FRAMES), data=st.data())
def test_fuzzed_frame_header_fields(shared, frame, data):
    """One header field, or one field of one column-table entry,
    replaced by arbitrary JSON."""
    header, body = _header(frame)
    value = data.draw(JSON_VALUES, label="value")
    if data.draw(st.booleans(), label="in the column table"):
        entry = data.draw(st.sampled_from(header["columns"]), label="entry")
        entry[data.draw(st.sampled_from(sorted(entry)), label="field")] = value
    else:
        header[data.draw(st.sampled_from(sorted(header)), label="field")] = (
            value
        )
    _refuses_or_passes(shared, COLUMNAR, _reframe(header, body))


@FUZZ
@given(body=JSON_VALUES)
def test_fuzzed_v1_bodies(shared, body):
    _refuses_or_passes(shared, JSON, json.dumps(body).encode())


#: Every field name an envelope or its payload may carry.
FIELDS = {
    "campaign", "fingerprint", "wire_version", "payload", "users",
    "idempotency_key", "round", "fresh", "reports", "columns",
}


def _objects(obj):
    """``obj`` and every object nested in it."""
    yield obj
    for value in obj.values():
        if isinstance(value, dict):
            yield from _objects(value)


@FUZZ
@given(protocol=st.sampled_from([OUE, HM, MD]), data=st.data())
def test_fuzzed_v1_envelope_fields(shared, protocol, data):
    """One field of a valid envelope, or of any object in it (payload,
    reports, encoded arrays), replaced by arbitrary JSON."""
    envelope = _envelope(protocol)
    target = data.draw(
        st.sampled_from(list(_objects(envelope))), label="object"
    )
    field = data.draw(
        st.sampled_from(sorted(set(target) | FIELDS)) | st.text(max_size=8),
        label="field",
    )
    target[field] = data.draw(JSON_VALUES, label="value")
    _refuses_or_passes(shared, JSON, json.dumps(envelope).encode())


# ----------------------------------------------------------------------
# perfbench's per-layer spans still see every step
# ----------------------------------------------------------------------
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: The server rows of perfbench's ``LAYER_CALLS`` that a batch runs
#: through, and how many times per batch: v2 frames are unpacked twice
#: (the frame, then its envelope).
INGEST_CALLS = {
    "repro.service.wire:unpack_columns": (0, 1),
    "repro.service.wire:unpack": (1, 1),
    "repro.campaigns.registry:Campaign.validate_batch": (1, 1),
    "repro.service.server:batch_multiplicity": (1, 1),
    "repro.campaigns.ledger:CrossCampaignLedger.rejected_users": (1, 1),
    "repro.campaigns.registry:Campaign.absorb_shard": (1, 1),
    "repro.campaigns.ledger:CrossCampaignLedger.charge_batch": (1, 1),
}


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``launcher`` and ``spans`` modules, as its scripts
    import them (read only)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import launcher
    import spans

    return launcher, spans


def test_every_ingest_layer_records_one_span_per_batch(perfbench):
    launcher, spans = perfbench
    rows = launcher.table("server")
    calls = {call: layer for call, layer, _ in rows}
    assert set(INGEST_CALLS) <= set(calls)
    benchmark = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in benchmark["per_layer"]}
    assert {f"{calls[call]}_ms" for call in INGEST_CALLS} <= declared
    recorder = spans.SpanRecorder()
    # Each row under its own name, so a span counts per call.
    uninstall = spans.install(
        recorder, [(call, call, hook) for call, _, hook in rows]
    )
    try:
        server = IngestionServer(OUE, lifetime_epsilon=2.0)
        batches = (_v1(), _v2(idempotency_key="v2"))
        for version, (content_type, body) in enumerate(batches):
            first = len(recorder.spans)
            status, answer = server._handle_request(
                http.Request("POST", "/report", {}, content_type, body)
            )
            assert (status, answer["status"]) == (200, "accepted")
            names = [s[spans.NAME] for s in recorder.spans[first:]]
            counts = {call: names.count(call) for call in INGEST_CALLS}
            assert counts == {
                call: per_version[version]
                for call, per_version in INGEST_CALLS.items()
            }, f"v{version + 1}"
    finally:
        uninstall()
