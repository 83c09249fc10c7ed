"""One absorb path: ``validate`` raises exactly when ``absorb`` would.

Every accumulator derives both calls from the same ``_parse``, so for
any batch — a report container, a plain array, or a
:class:`ColumnBlock` off the v2 wire — they give the same ``ValueError``
(or both pass), and an ``absorb`` that raises leaves ``state_dict``
unchanged.  The malformed batches below are the ones the object and
columnar paths used to disagree on, plus the row-count and unary-bit
defects the ledger paid for.
"""

import json

import numpy as np
import pytest

from repro.data.census import make_br_like
from repro.frequency.olh import OLHReports
from repro.multidim.collector import MixedReports
from repro.protocol import Protocol, SampledNumericReports
from repro.protocol.reports import ColumnBlock, to_block
from repro.service import wire
from repro.stream.windows import WindowConfig

K = 6
N = 40


def _rows(batch, n):
    """The same columns under a header that declares ``n`` users."""
    block = to_block(batch)
    return ColumnBlock(block.kind, n, block.meta, block.columns)


def _frequency(oracle):
    protocol = Protocol.frequency(1.0, domain=K, oracle=oracle)
    good = protocol.client().encode_batch(np.arange(N) % K, 1)
    return protocol, good


def _unary_cases(oracle):
    protocol, good = _frequency(oracle)
    return protocol, good, {
        "int-vector": np.arange(N) % K,
        "entries-5": np.full((4, K), 5),
        "entries-half": np.full((4, K), 0.5),
        "entries-negative": -np.ones((4, K), dtype=np.int64),
        "wrong-width": np.zeros((4, K + 1), dtype=np.uint8),
        "olh-reports": _frequency("olh")[1],
        "rows-over-n": _rows(good, 1),
    }


def _grr_cases():
    protocol, good = _frequency("grr")
    return protocol, good, {
        "matrix": np.zeros((4, K), dtype=np.int64),
        "fractional": np.array([1.5, 2.0, 0.0]),
        "out-of-domain": np.array([0, K]),
        "olh-reports": _frequency("olh")[1],
        "strings": np.array(["1", "2"]),
        "rows-over-n": _rows(good, 1),
        "rows-under-n": _rows(good, N + 1),
    }


def _olh_cases():
    protocol, good = _frequency("olh")
    seeds, buckets = good.seeds, good.buckets
    return protocol, good, {
        "plain-array": np.arange(N) % K,
        "bit-matrix": np.zeros((N, K), dtype=np.uint8),
        "bucket-out-of-range": OLHReports(seeds, buckets + 99),
        "float-seeds": OLHReports(seeds.astype(float), buckets),
        "rows-over-n": _rows(good, 1),
    }


def _mean_cases():
    protocol = Protocol.numeric_mean(1.0, "hm")
    good = protocol.client().encode_batch(np.linspace(-1, 1, N), 1)
    return protocol, good, {
        "matrix": np.zeros((3, 2)),
        "olh-block": to_block(_frequency("olh")[1]),
        "rows-over-n": _rows(good, 1),
    }


def _histogram_cases():
    protocol = Protocol.histogram(1.0, bins=K)
    good = protocol.client().encode_batch(np.linspace(-1, 1, N), 1)
    return protocol, good, {
        "int-vector": np.arange(N) % K,
        "entries-5": np.full((4, K), 5),
        "rows-over-n": _rows(good, 1),
    }


def _multidim_cases():
    protocol = Protocol.multidim(4.0, d=5, mechanism="hm")
    good = protocol.client().encode_batch(
        np.random.default_rng(0).uniform(-1, 1, (N, 5)), 1
    )
    wider = SampledNumericReports(
        d=6, k=good.k, cols=good.cols, values=good.values
    )
    fractional = to_block(good)
    fractional = ColumnBlock(
        fractional.kind, fractional.n, fractional.meta,
        {"cols": good.cols + 0.5, "values": good.values},
    )
    return protocol, good, {
        "dense-matrix": good.to_dense(),
        "d-mismatch": wider,
        "fractional-cols": fractional,
        "rows-over-n": _rows(good, 1),
    }


def _mixed_cases():
    dataset = make_br_like(N, rng=np.random.default_rng(5))
    protocol = Protocol.multidim(4.0, schema=dataset.schema, oracle="olh")
    good = protocol.client().encode_batch(dataset, 1)
    name, sub = max(good.categorical.items(), key=lambda kv: len(kv[1]))
    assert len(sub) > 1
    return protocol, good, {
        "numeric-rows-over-n": MixedReports(1, good.numeric, good.categorical),
        "sub-rows-over-n": MixedReports(
            1, good.numeric[:1], {name: sub}
        ),
        "numeric-width": MixedReports(
            N, good.numeric[:, :1], good.categorical
        ),
        "unknown-attribute": MixedReports(
            N, good.numeric, {"nope": np.zeros(2, dtype=np.int64)}
        ),
        "plain-array": np.zeros(N),
    }


def _windowed_cases():
    protocol, good, malformed = _grr_cases()
    windowed = WindowConfig(panes=2).build(protocol.server)
    return windowed, good, malformed


CASES = {
    "mean": _mean_cases,
    "grr": _grr_cases,
    "oue": lambda: _unary_cases("oue"),
    "sue": lambda: _unary_cases("sue"),
    "olh": _olh_cases,
    "histogram": _histogram_cases,
    "multidim": _multidim_cases,
    "mixed": _mixed_cases,
    "windowed": _windowed_cases,
}

PARAMS = [
    (kind, label)
    for kind, build in CASES.items()
    for label in ["good"] + sorted(build()[2])
]


def _accumulator(protocol_or_acc, good):
    acc = (
        protocol_or_acc.server()
        if isinstance(protocol_or_acc, Protocol)
        else protocol_or_acc
    )
    return acc.absorb(good)


def _outcome(call, batch):
    try:
        call(batch)
    except ValueError as exc:
        return str(exc)
    return None


def _state(acc):
    return json.dumps(wire.encode_accumulator_state(acc), sort_keys=True)


@pytest.mark.parametrize("kind, label", PARAMS)
def test_validate_raises_iff_absorb_raises(kind, label):
    protocol, good, malformed = CASES[kind]()
    batch = good if label == "good" else malformed[label]
    acc = _accumulator(protocol, good)
    before = _state(acc)
    validated = _outcome(acc.validate, batch)
    absorbed = _outcome(acc.absorb, batch)
    assert validated == absorbed
    if label == "good":
        assert absorbed is None
    else:
        assert absorbed is not None, f"{kind} accepted {label}"
        assert _state(acc) == before
