"""Wire-codec tests: bitwise round-trips for every protocol kind.

Every report batch's block, accumulator snapshot and estimate must
survive ``encode -> json -> decode`` bitwise — the service's
correctness proof reduces to "the wire changes nothing".
"""

import json

import numpy as np
import pytest

from repro.protocol import PROTOCOL_KINDS, Protocol
from repro.protocol.reports import ColumnBlock
from repro.service import wire

SEED = 20190412
N = 300


def _mixed_case():
    from repro.data import make_br_like

    dataset = make_br_like(N, rng=np.random.default_rng(2))
    return (
        Protocol.multidim(4.0, schema=dataset.schema, mechanism="pm"),
        dataset,
    )


def _protocols():
    """One protocol + workload per kind (plus oracle report variants)."""
    rng = np.random.default_rng(1)
    return {
        "mean": (Protocol.numeric_mean(1.0, "hm"), rng.uniform(-1, 1, N)),
        "frequency": (
            Protocol.frequency(1.0, domain=12, oracle="oue"),
            rng.integers(0, 12, N),
        ),
        "frequency-grr": (
            Protocol.frequency(1.0, domain=12, oracle="grr"),
            rng.integers(0, 12, N),
        ),
        "frequency-olh": (
            Protocol.frequency(1.0, domain=12, oracle="olh"),
            rng.integers(0, 12, N),
        ),
        "histogram": (
            Protocol.histogram(2.0, bins=8, oracle="sue"),
            rng.uniform(-1, 1, N),
        ),
        "multidim-numeric": (
            Protocol.multidim(4.0, d=6, mechanism="hm"),
            rng.uniform(-1, 1, (N, 6)),
        ),
        "multidim-mixed": _mixed_case(),
    }


def _workload(name, protocol, values):
    return values


def _json_round_trip(obj):
    return json.loads(json.dumps(obj))


def _assert_blocks_bitwise_equal(a, b):
    """Same kind, ``n`` and meta, and every column's dtype, shape and
    bytes."""
    assert (a.kind, a.n, a.meta) == (b.kind, b.n, b.meta)
    assert sorted(a.columns) == sorted(b.columns)
    for name, arr in a.columns.items():
        other = b.columns[name]
        assert (arr.dtype, arr.shape) == (other.dtype, other.shape), name
        assert arr.tobytes() == other.tobytes(), name


def _across_both_wires(reports):
    """The batch's block, as v1 JSON and as a v2 frame decode it."""
    v1 = wire.decode_reports(_json_round_trip(wire.encode_reports(reports)))
    frame = wire.pack_columns(wire.reports_to_columns(reports), "fp")
    return v1, wire.unpack_columns(frame)["payload"]["columns"]


def _assert_estimates_bitwise_equal(a, b):
    if hasattr(a, "histogram"):  # HistogramEstimate
        np.testing.assert_array_equal(a.histogram, b.histogram)
        np.testing.assert_array_equal(a.raw, b.raw)
        np.testing.assert_array_equal(a.edges, b.edges)
        return
    if hasattr(a, "frequencies"):  # MixedEstimates
        assert a.means == b.means
        assert set(a.frequencies) == set(b.frequencies)
        for key in a.frequencies:
            np.testing.assert_array_equal(
                a.frequencies[key], b.frequencies[key]
            )
        return
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


class TestArrayCodec:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.array([1.5, np.nan, np.inf, -np.inf, -0.0]),
            np.array([[1, 0, 1]], dtype=np.uint8),
            np.array([2**63, 1], dtype=np.uint64),
            np.zeros((0, 5)),
            np.array(3.25),
        ],
    )
    def test_bitwise_round_trip(self, arr):
        decoded = wire.decode_array(_json_round_trip(wire.encode_array(arr)))
        assert decoded.dtype == arr.dtype
        assert decoded.shape == arr.shape
        np.testing.assert_array_equal(decoded, arr)

    def test_nan_payloads_survive_bitwise(self):
        arr = np.array([np.nan])
        decoded = wire.decode_array(wire.encode_array(arr))
        assert np.isnan(decoded[0])

    def test_decoded_array_is_writable(self):
        decoded = wire.decode_array(wire.encode_array(np.arange(3.0)))
        decoded += 1.0  # absorb paths use in-place accumulation

    def test_malformed_payload_rejected(self):
        with pytest.raises(wire.WireFormatError):
            wire.decode_array({"dtype": "f8", "shape": [2]})
        with pytest.raises(wire.WireFormatError):
            wire.decode_array(
                {"dtype": "f8", "shape": [3], "data": "AAAAAAAAAAA="}
            )


class TestReportCodec:
    @pytest.mark.parametrize("name", sorted(_protocols()))
    def test_bitwise_round_trip_per_kind(self, name):
        protocol, values = _protocols()[name]
        workload = _workload(name, protocol, values)
        reports = protocol.client().encode_batch(
            workload, np.random.default_rng(SEED)
        )
        block = wire.reports_to_columns(reports)
        assert wire.encode_reports(block) == wire.encode_reports(reports)
        decoded, framed = _across_both_wires(reports)
        _assert_blocks_bitwise_equal(block, decoded)
        _assert_blocks_bitwise_equal(block, framed)
        # Absorbing the decoded block yields the bitwise-same estimate.
        _assert_estimates_bitwise_equal(
            protocol.server().absorb(reports).estimate(),
            protocol.server().absorb(decoded).estimate(),
        )

    def test_every_protocol_kind_is_covered(self):
        covered = {
            name.split("-", 1)[0] if name.startswith("frequency") else name
            for name in _protocols()
        }
        assert set(PROTOCOL_KINDS) <= covered

    def test_report_count(self):
        # The server counts a batch's users from its block header.
        protocol, values = _protocols()["multidim-numeric"]
        reports = protocol.client().encode_batch(values, 0)
        assert wire.reports_to_columns(reports).n == N
        mixed_protocol, dataset = _protocols()["multidim-mixed"]
        mixed = mixed_protocol.client().encode_batch(dataset, 0)
        assert wire.reports_to_columns(mixed).n == N

    def test_unknown_payload_type_rejected(self):
        with pytest.raises(wire.WireFormatError):
            wire.decode_reports({"type": "carrier-pigeon"})

    def test_container_with_only_to_block_crosses_both_wires(self):
        # The codec names no container: a to_block() is all it needs.
        class PairReports:
            def __init__(self, left, right):
                self.left, self.right = left, right

            def to_block(self):
                return ColumnBlock(
                    kind="pairs",
                    n=len(self.left),
                    meta={"width": 2},
                    columns={"left": self.left, "right": self.right},
                )

        reports = PairReports(
            np.arange(5, dtype=np.int32), np.linspace(-1.0, 1.0, 5)
        )
        v1, v2 = _across_both_wires(reports)
        _assert_blocks_bitwise_equal(reports.to_block(), v1)
        _assert_blocks_bitwise_equal(v1, v2)


class TestAccumulatorStateCodec:
    @pytest.mark.parametrize("name", sorted(_protocols()))
    def test_snapshot_round_trip_bitwise(self, name):
        protocol, values = _protocols()[name]
        workload = _workload(name, protocol, values)
        acc = protocol.server().absorb(
            protocol.client().encode_batch(workload, np.random.default_rng(7))
        )
        encoded = _json_round_trip(wire.encode_accumulator_state(acc))
        restored = wire.decode_accumulator_state(protocol.server(), encoded)
        assert restored.count == acc.count
        _assert_estimates_bitwise_equal(restored.estimate(), acc.estimate())

    def test_restored_accumulator_keeps_absorbing(self):
        protocol, values = _protocols()["mean"]
        encoder = protocol.client()
        first = encoder.encode_batch(values[:100], np.random.default_rng(0))
        second = encoder.encode_batch(values[100:], np.random.default_rng(1))

        uninterrupted = protocol.server().absorb(first).absorb(second)
        restored = wire.decode_accumulator_state(
            protocol.server(),
            wire.encode_accumulator_state(protocol.server().absorb(first)),
        ).absorb(second)
        assert restored.estimate() == uninterrupted.estimate()


class TestEstimateCodec:
    @pytest.mark.parametrize("name", sorted(_protocols()))
    def test_round_trip(self, name):
        protocol, values = _protocols()[name]
        workload = _workload(name, protocol, values)
        estimate = protocol.run(workload, rng=SEED)
        decoded = wire.decode_estimate(
            _json_round_trip(wire.encode_estimate(estimate))
        )
        _assert_estimates_bitwise_equal(estimate, decoded)


class TestEnvelope:
    def test_pack_unpack(self):
        fingerprint = wire.spec_fingerprint(
            Protocol.numeric_mean(1.0).spec
        )
        payload = wire.unpack(
            _json_round_trip(wire.pack({"x": 1}, fingerprint)), fingerprint
        )
        assert payload == {"x": 1}

    def test_unknown_wire_version_rejected(self):
        envelope = wire.pack({}, "f" * 64)
        envelope["wire_version"] = 99
        with pytest.raises(wire.WireFormatError, match="wire_version"):
            wire.unpack(envelope, "f" * 64)

    def test_fingerprint_mismatch_rejected(self):
        spec_a = Protocol.numeric_mean(1.0, "hm").spec
        spec_b = Protocol.numeric_mean(1.0, "pm").spec
        envelope = wire.pack({}, wire.spec_fingerprint(spec_a))
        with pytest.raises(wire.SpecMismatchError):
            wire.unpack(envelope, wire.spec_fingerprint(spec_b))

    def test_fingerprint_is_deterministic_and_discriminating(self):
        spec = Protocol.frequency(1.0, domain=8).spec
        assert wire.spec_fingerprint(spec) == wire.spec_fingerprint(spec)
        assert wire.spec_fingerprint(spec) != wire.spec_fingerprint(
            Protocol.frequency(1.1, domain=8).spec
        )
        # Dict payloads fingerprint identically to the spec object.
        assert wire.spec_fingerprint(spec.to_dict()) == (
            wire.spec_fingerprint(spec)
        )
