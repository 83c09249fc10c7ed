"""Columnar report form: ``to_block`` and container-vs-block parity.

Every report container must (a) convert to a :class:`ColumnBlock` over
its own buffers, (b) produce the bitwise-identical accumulator state
whether absorbed as an object or as its block, whichever wire version
carried it, and (c) survive the v2 binary framing
(:func:`wire.pack_columns` / :func:`wire.unpack_columns`) untouched.
"""

import json

import numpy as np
import pytest

from repro.data.census import make_br_like
from repro.frequency.olh import OLHReports
from repro.multidim.collector import MixedReports
from repro.protocol import Protocol, SampledNumericReports
from repro.protocol.reports import ColumnBlock
from repro.service import wire

N = 300


def _protocol_cases():
    dataset = make_br_like(N, rng=np.random.default_rng(5))
    return {
        "mean": (Protocol.numeric_mean(1.0, "hm"), None),
        "frequency-oue": (
            Protocol.frequency(1.0, domain=12, oracle="oue"),
            lambda rng: rng.integers(0, 12, N),
        ),
        "frequency-grr": (
            Protocol.frequency(1.0, domain=12, oracle="grr"),
            lambda rng: rng.integers(0, 12, N),
        ),
        "frequency-olh": (
            Protocol.frequency(1.0, domain=12, oracle="olh"),
            lambda rng: rng.integers(0, 12, N),
        ),
        "histogram": (
            Protocol.histogram(2.0, bins=8),
            lambda rng: rng.uniform(-1, 1, N),
        ),
        "multidim-numeric": (
            Protocol.multidim(4.0, d=5, mechanism="hm"),
            lambda rng: rng.uniform(-1, 1, (N, 5)),
        ),
        "multidim-mixed": (
            Protocol.multidim(4.0, schema=dataset.schema, mechanism="pm"),
            lambda rng: dataset,
        ),
    }


def _encode(protocol, values_fn):
    rng = np.random.default_rng(2019)
    if values_fn is None:
        values = rng.uniform(-1, 1, N)
    else:
        values = values_fn(rng)
    return protocol.client().encode_batch(values, np.random.default_rng(7))


def _assert_estimates_bitwise_equal(a, b):
    if hasattr(a, "histogram"):
        np.testing.assert_array_equal(a.histogram, b.histogram)
        np.testing.assert_array_equal(a.raw, b.raw)
        return
    if hasattr(a, "frequencies"):
        assert a.means == b.means
        for key in a.frequencies:
            np.testing.assert_array_equal(
                a.frequencies[key], b.frequencies[key]
            )
        return
    np.testing.assert_array_equal(
        np.atleast_1d(np.asarray(a)), np.atleast_1d(np.asarray(b))
    )


@pytest.mark.parametrize("name", sorted(_protocol_cases()))
class TestColumnarParity:
    def test_round_trip_bitwise(self, name):
        # The v1 JSON route and the v2 frame route land the same state.
        protocol, values_fn = _protocol_cases()[name]
        reports = _encode(protocol, values_fn)
        v1 = wire.decode_reports(
            json.loads(json.dumps(wire.encode_reports(reports)))
        )
        frame = wire.pack_columns(wire.reports_to_columns(reports), "fp")
        v2 = wire.unpack_columns(frame)["payload"]["columns"]
        acc_a, acc_b = protocol.server(), protocol.server()
        acc_a.absorb(v1)
        acc_b.absorb(v2)
        _assert_estimates_bitwise_equal(acc_a.estimate(), acc_b.estimate())

    def test_absorb_columns_matches_object_path(self, name):
        protocol, values_fn = _protocol_cases()[name]
        reports = _encode(protocol, values_fn)
        block = wire.reports_to_columns(reports)
        acc_obj, acc_col = protocol.server(), protocol.server()
        acc_obj.absorb(reports)
        acc_col.absorb(block)
        assert acc_col.count == acc_obj.count
        _assert_estimates_bitwise_equal(
            acc_obj.estimate(), acc_col.estimate()
        )

    def test_validate_columns_accepts_good_block(self, name):
        protocol, values_fn = _protocol_cases()[name]
        block = wire.reports_to_columns(_encode(protocol, values_fn))
        acc = protocol.server()
        acc.validate(block)  # must not raise
        assert acc.count == 0  # and must not mutate

    def test_frame_round_trip_bitwise(self, name):
        protocol, values_fn = _protocol_cases()[name]
        reports = _encode(protocol, values_fn)
        block = wire.reports_to_columns(reports)
        frame = wire.pack_columns(
            block, "fp", users=["u1", "u2"], idempotency_key="key-1"
        )
        envelope = wire.unpack_columns(frame)
        assert envelope["wire_version"] == wire.WIRE_VERSION_COLUMNAR
        assert envelope["fingerprint"] == "fp"
        payload = envelope["payload"]
        assert payload["users"] == ["u1", "u2"]
        assert payload["idempotency_key"] == "key-1"
        rebuilt = payload["columns"]
        assert rebuilt.kind == block.kind
        assert rebuilt.n == block.n
        assert sorted(rebuilt.columns) == sorted(block.columns)
        for key in block.columns:
            original = np.asarray(block.columns[key])
            assert rebuilt.columns[key].dtype == original.dtype
            np.testing.assert_array_equal(rebuilt.columns[key], original)


class TestContainerColumns:
    def test_sampled_numeric_round_trip(self):
        reports = SampledNumericReports(
            d=5,
            k=2,
            cols=np.array([[0, 3], [1, 4]]),
            values=np.array([[0.5, -0.5], [1.5, 2.5]]),
        )
        block = reports.to_block()
        assert (block.kind, block.n, block.meta) == (
            "sampled-numeric", 2, {"d": 5, "k": 2}
        )
        # The block's columns are the container's own buffers.
        assert block.columns["cols"] is reports.cols
        assert block.columns["values"] is reports.values

    def test_olh_round_trip(self):
        reports = OLHReports(
            seeds=np.array([1, 2, 3], dtype=np.uint64),
            buckets=np.array([0, 1, 0]),
        )
        block = reports.to_block()
        assert (block.kind, block.n, block.meta) == ("olh", 3, {})
        assert block.columns["seeds"] is reports.seeds
        assert block.columns["buckets"] is reports.buckets

    def test_mixed_flattens_with_cat_prefix(self):
        reports = MixedReports(
            n=3,
            numeric=np.zeros((3, 1)),
            categorical={"color": np.array([0, 1, 2])},
        )
        block = reports.to_block()
        assert set(block.columns) == {"numeric", "cat.color.array"}
        assert block.meta == {"categorical": {"color": "array"}}
        np.testing.assert_array_equal(
            block.sub_block("color", "array").column("array"),
            reports.categorical["color"],
        )

    def test_mixed_rejects_dotted_attribute_names(self):
        reports = MixedReports(
            n=1,
            numeric=np.zeros((1, 1)),
            categorical={"a.b": np.array([0])},
        )
        with pytest.raises(ValueError, match=r"\."):
            reports.to_block()


class TestColumnBlock:
    def test_missing_column_is_value_error(self):
        block = ColumnBlock(kind="array", n=1, columns={})
        with pytest.raises(ValueError, match="missing column"):
            block.column("array")

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            ColumnBlock(kind="array", n=-1)

    def test_sub_block_strips_prefix(self):
        block = ColumnBlock(
            kind="mixed",
            n=2,
            columns={
                "numeric": np.zeros((2, 1)),
                "cat.color.array": np.array([0, 1]),
            },
        )
        sub = block.sub_block("color", "array")
        assert (sub.kind, sub.n) == ("array", 2)
        assert set(sub.columns) == {"array"}


class TestFrameErrors:
    def _frame(self):
        block = ColumnBlock(
            kind="array", n=3, columns={"array": np.arange(3.0)}
        )
        return wire.pack_columns(block, "fp", users=["u"])

    def test_bad_magic_rejected(self):
        with pytest.raises(wire.WireFormatError, match="magic"):
            wire.unpack_columns(b"JSON" + self._frame()[4:])

    def test_plain_json_rejected(self):
        with pytest.raises(wire.WireFormatError, match="magic"):
            wire.unpack_columns(b'{"wire_version": 1}')

    def test_truncated_header_rejected(self):
        frame = self._frame()
        with pytest.raises(wire.WireFormatError, match="truncated"):
            wire.unpack_columns(frame[:10])

    def test_truncated_payload_rejected(self):
        frame = self._frame()
        with pytest.raises(wire.WireFormatError, match="payload holds"):
            wire.unpack_columns(frame[:-8])

    def test_unknown_kind_rejected_on_decode(self):
        block = ColumnBlock(kind="mystery", n=1, columns={})
        for protocol, _ in _protocol_cases().values():
            with pytest.raises(ValueError, match="mystery"):
                protocol.server().absorb(block)

    def test_decoded_columns_are_writable(self):
        envelope = wire.unpack_columns(self._frame())
        arr = envelope["payload"]["columns"].column("array")
        arr += 1.0  # a read-only frombuffer view would raise here
