"""Versioned wire codec for reports, estimates and accumulator state.

Everything that crosses the service's network or disk boundary goes
through this module.  Three layers:

* **Arrays** — :func:`encode_array` / :func:`decode_array` carry any
  numpy array as ``{dtype, shape, base64(raw bytes)}``; the round-trip
  is bitwise because the raw buffer is transported untouched.
* **Payloads** — :func:`encode_reports` writes the v1 JSON of any
  batch's :class:`~repro.protocol.reports.ColumnBlock` (a container
  converts through its own ``to_block()``, so the codec names none but
  the nested mixed form) and :func:`decode_reports` reads it back into
  that block, the form v2 frames carry and accumulators fold;
  :func:`encode_accumulator_state` / :func:`decode_accumulator_state`
  do the same for ``ServerAccumulator.state_dict`` snapshots, and
  :func:`encode_estimate` / :func:`decode_estimate` for every estimate
  shape the accumulators produce.
* **Envelopes** — :func:`pack` wraps a payload with the wire version
  and the protocol *fingerprint* (a SHA-256 over the canonical spec
  dict); :func:`unpack` rejects unknown wire versions
  (:class:`WireFormatError`) and mismatched fingerprints
  (:class:`SpecMismatchError`) so a stale or misconfigured client is
  turned away instead of silently mis-aggregated.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import operator
import struct
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.multidim.collector import MixedReports
from repro.protocol.reports import ColumnBlock, to_block
from repro.protocol.spec import ProtocolSpec

#: Version of the envelope + payload encoding itself (independent of
#: the ProtocolSpec schema version).  Version 1 is the JSON envelope
#: codec below; version 2 is the binary columnar framing
#: (:func:`pack_columns` / :func:`unpack_columns`).
WIRE_VERSION = 1

#: The binary columnar wire format: one JSON header + packed
#: little-endian arrays.
WIRE_VERSION_COLUMNAR = 2

#: Every wire version this codec can decode.  Servers advertise this
#: tuple from ``/spec`` (as ``wire_versions``); the SDK sends v2 and
#: refuses a server whose list lacks it.
SUPPORTED_WIRE_VERSIONS = (1, 2)

#: Content type of v2 report frames on the HTTP boundary; v1 JSON
#: envelopes travel as ``application/json``.
COLUMNAR_CONTENT_TYPE = "application/x-repro-columnar"

#: Leading magic of every v2 frame — rejects stray JSON (or anything
#: else) posted to the columnar path with a clean 400.
COLUMNAR_MAGIC = b"RPC2"


class WireFormatError(ValueError):
    """Malformed or wrong-version wire data."""


class SpecMismatchError(WireFormatError):
    """The sender's protocol fingerprint differs from the receiver's."""


# ----------------------------------------------------------------------
# Arrays
# ----------------------------------------------------------------------
def encode_array(arr: np.ndarray) -> Dict[str, Any]:
    """Bitwise-exact JSON-friendly encoding of any numpy array."""
    arr = np.asarray(arr)
    # Shape first: ascontiguousarray promotes 0-d arrays to shape (1,).
    shape = list(arr.shape)
    contiguous = np.ascontiguousarray(arr)
    return {
        "dtype": contiguous.dtype.str,
        "shape": shape,
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def decode_array(obj: Dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    try:
        dtype = np.dtype(obj["dtype"])
        shape = tuple(operator.index(s) for s in obj["shape"])
        raw = base64.b64decode(obj["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed array payload: {exc}") from exc
    return _from_buffer(raw, dtype, shape, "array payload")


def _from_buffer(
    raw: bytes, dtype: np.dtype, shape: Tuple[int, ...], what: str
) -> np.ndarray:
    """``raw`` as a writable array of ``dtype`` and ``shape``; raises
    :class:`WireFormatError` unless it holds exactly that array."""
    # numpy's limits, which also keep the product small.
    if len(shape) > 64 or not all(0 <= s < 2**63 for s in shape):
        raise WireFormatError(f"{what} cannot have shape {shape}")
    try:
        arr = np.frombuffer(raw, dtype=dtype)
    except ValueError as exc:  # an empty or object dtype, a partial item
        raise WireFormatError(f"{what} is no {dtype} buffer: {exc}") from exc
    if arr.size != math.prod(shape):
        raise WireFormatError(
            f"{what} carries {arr.size} elements, shape {shape} needs "
            f"{math.prod(shape)}"
        )
    return arr.reshape(shape).copy()  # frombuffer's views are read-only


# ----------------------------------------------------------------------
# Report containers
# ----------------------------------------------------------------------
def encode_reports(reports) -> Dict[str, Any]:
    """The v1 JSON of ``to_block(reports)``; takes a block too.

    ``type`` is the block's kind, then come its meta and each column as
    an :func:`encode_array` object.  A mixed block writes its ``n`` and
    ``numeric`` column and nests each attribute's sub-block under
    ``categorical``.  Raises ``ValueError`` for a batch ``to_block``
    cannot convert, as the v2 path does.
    """
    block = to_block(reports)
    if block.kind == "mixed":
        return {
            "type": "mixed",
            "n": block.n,
            "numeric": encode_array(block.column("numeric")),
            "categorical": {
                name: encode_reports(block.sub_block(name, kind))
                for name, kind in block.meta["categorical"].items()
            },
        }
    columns = {name: encode_array(arr) for name, arr in block.columns.items()}
    return {"type": block.kind, **block.meta, **columns}


def decode_reports(obj: Dict[str, Any]) -> ColumnBlock:
    """Inverse of :func:`encode_reports`: the batch's ``ColumnBlock``.

    Object fields are columns and the rest meta; ``n`` is the first
    column's row count.  A mixed payload rebuilds its sub-blocks and
    flattens them through ``MixedReports.to_block``.  Raises
    :class:`WireFormatError` for any field it cannot read; the
    accumulator's parse checks the block's kind, meta and shapes.
    """
    if not isinstance(obj, dict):
        raise WireFormatError(
            f"report payload must be an object, got {type(obj).__name__}"
        )
    kind = obj.get("type")
    if not isinstance(kind, str):
        raise WireFormatError(f"unknown report payload type {kind!r}")
    try:
        if kind == "mixed":
            return MixedReports(
                n=int(obj["n"]),
                numeric=decode_array(obj["numeric"]),
                categorical={
                    name: decode_reports(sub)
                    for name, sub in obj["categorical"].items()
                },
            ).to_block()
        columns, meta = {}, {}
        for name, value in obj.items():
            if isinstance(value, dict):
                columns[name] = decode_array(value)
            elif name != "type":
                meta[name] = value
        first = next(iter(columns.values()), np.empty(()))
        if not first.ndim:
            raise WireFormatError(f"{kind!r} report payload has no rows")
        return ColumnBlock(kind, first.shape[0], meta, columns)
    except WireFormatError:
        raise
    except (
        AttributeError, KeyError, OverflowError, TypeError, ValueError
    ) as exc:
        raise WireFormatError(
            f"malformed {kind!r} report payload: {exc!r}"
        ) from exc


# ----------------------------------------------------------------------
# Columnar report form (wire v2)
# ----------------------------------------------------------------------
#: Canonical columnar form of any report container: the v2 client
#: frames its output with :func:`pack_columns`.  It is the protocol
#: layer's one container -> block conversion
#: (:func:`repro.protocol.reports.to_block`) under its wire name; the
#: block's arrays are the container's own buffers, nothing is copied
#: until :func:`pack_columns` frames them.
reports_to_columns = to_block


def _little_endian(arr: np.ndarray) -> np.ndarray:
    """C-contiguous little-endian view/copy of ``arr`` for framing."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    return arr


def pack_columns(
    block: ColumnBlock,
    fingerprint: str,
    *,
    users: Optional[List[str]] = None,
    idempotency_key: Optional[str] = None,
    campaign: Optional[str] = None,
    round: Optional[int] = None,
    fresh: Optional[List[bool]] = None,
) -> bytes:
    """Frame a columnar batch as one v2 binary message.

    Layout: ``RPC2`` magic, a little-endian uint32 header length, a
    UTF-8 JSON header (wire version, fingerprint, campaign address,
    block kind/n/meta, users, idempotency key, and a column table of
    name/dtype/shape/offset/nbytes), then the packed little-endian
    array payloads back to back.  The array bytes are transported
    untouched, so the round-trip through :func:`unpack_columns` is
    bitwise.
    """
    names = sorted(block.columns)
    table = []
    payloads = []
    offset = 0
    for name in names:
        arr = _little_endian(block.columns[name])
        raw = arr.tobytes()
        table.append({
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        payloads.append(raw)
        offset += len(raw)
    header: Dict[str, Any] = {
        "wire_version": WIRE_VERSION_COLUMNAR,
        "fingerprint": str(fingerprint),
        "kind": block.kind,
        "n": int(block.n),
        "meta": block.meta,
        "columns": table,
    }
    if users is not None:
        header["users"] = [str(u) for u in users]
    if idempotency_key is not None:
        header["idempotency_key"] = str(idempotency_key)
    if campaign is not None:
        header["campaign"] = str(campaign)
    if round is not None:
        header["round"] = int(round)
    if fresh is not None:
        header["fresh"] = [bool(f) for f in fresh]
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [COLUMNAR_MAGIC, struct.pack("<I", len(head)), head] + payloads
    )


def unpack_columns(data: bytes) -> Dict[str, Any]:
    """Parse a v2 frame into an envelope-shaped dict.

    Returns ``{"wire_version": 2, "fingerprint": ..., "campaign": ...,
    "payload": {"users": ..., "idempotency_key": ..., "columns":
    ColumnBlock}}`` — the same envelope shape :func:`pack` produces, so
    the receiver routes (:func:`envelope_campaign`) and fingerprint-
    checks (:func:`unpack`) v1 and v2 traffic through one path.
    Structural damage (bad magic, truncated header or payload, column
    table out of bounds) raises :class:`WireFormatError`.
    """
    if len(data) < 8 or data[:4] != COLUMNAR_MAGIC:
        raise WireFormatError(
            "not a columnar v2 frame (bad magic); v1 clients must POST "
            "JSON envelopes"
        )
    (head_len,) = struct.unpack("<I", data[4:8])
    head_end = 8 + head_len
    if head_end > len(data):
        raise WireFormatError(
            f"truncated columnar frame: header claims {head_len} bytes, "
            f"{len(data) - 8} available"
        )
    try:
        header = json.loads(data[8:head_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(
            f"malformed columnar header: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise WireFormatError("columnar header must be a JSON object")
    body = data[head_end:]
    table = header.get("columns")
    if not isinstance(table, list):
        raise WireFormatError("columnar header carries no column table")
    columns: Dict[str, np.ndarray] = {}
    for entry in table:
        try:
            name = str(entry["name"])
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(s) for s in entry["shape"])
            start = int(entry["offset"])
            nbytes = int(entry["nbytes"])
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise WireFormatError(
                f"malformed column table entry: {exc}"
            ) from exc
        if start < 0 or nbytes < 0 or start + nbytes > len(body):
            raise WireFormatError(
                f"column {name!r} spans [{start}, {start + nbytes}) but "
                f"payload holds {len(body)} bytes"
            )
        columns[name] = _from_buffer(
            body[start:start + nbytes], dtype, shape, f"column {name!r}"
        )
    meta = header.get("meta")
    if meta is None:
        meta = {}
    if not isinstance(meta, dict):
        raise WireFormatError("columnar header 'meta' must be an object")
    try:
        block = ColumnBlock(
            kind=str(header.get("kind")),
            n=int(header.get("n", -1)),
            meta=meta,
            columns=columns,
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed columnar block: {exc}") from exc
    envelope: Dict[str, Any] = {
        "wire_version": header.get("wire_version"),
        "fingerprint": header.get("fingerprint"),
        "payload": {
            "users": header.get("users"),
            "idempotency_key": header.get("idempotency_key"),
            "columns": block,
        },
    }
    # Streaming keys ride in the payload dict, the same place the v1
    # JSON envelope carries them, so the server reads one shape.
    if header.get("round") is not None:
        envelope["payload"]["round"] = header["round"]
    if header.get("fresh") is not None:
        envelope["payload"]["fresh"] = header["fresh"]
    if header.get("campaign") is not None:
        envelope["campaign"] = header["campaign"]
    return envelope


# ----------------------------------------------------------------------
# Accumulator state + estimates
# ----------------------------------------------------------------------
def _encode_state_value(value):
    if isinstance(value, np.ndarray):
        return {"type": "array", "array": encode_array(value)}
    if isinstance(value, dict):
        return {
            "type": "dict",
            "items": {k: _encode_state_value(v) for k, v in value.items()},
        }
    if isinstance(value, (bool, int, float, str)) or value is None:
        return {"type": "scalar", "value": value}
    if isinstance(value, (np.integer, np.floating)):
        return {"type": "scalar", "value": value.item()}
    raise WireFormatError(
        f"cannot encode state value of type {type(value).__name__}"
    )


def _decode_state_value(obj):
    kind = obj.get("type")
    if kind == "array":
        return decode_array(obj["array"])
    if kind == "dict":
        return {k: _decode_state_value(v) for k, v in obj["items"].items()}
    if kind == "scalar":
        return obj["value"]
    raise WireFormatError(f"unknown state payload type {kind!r}")


def encode_accumulator_state(accumulator) -> Dict[str, Any]:
    """Encode ``accumulator.state_dict()`` for wire/disk transport."""
    return _encode_state_value(accumulator.state_dict())


def decode_accumulator_state(accumulator, obj: Dict[str, Any]):
    """Restore an encoded snapshot into a fresh same-protocol
    accumulator (bitwise); returns the accumulator."""
    return accumulator.load_state(_decode_state_value(obj))


def encode_estimate(estimate) -> Dict[str, Any]:
    """Type-tagged encoding of any accumulator's ``estimate()`` value."""
    from repro.frequency.histogram import HistogramEstimate
    from repro.multidim.aggregator import MixedEstimates

    if isinstance(estimate, HistogramEstimate):
        return {
            "type": "histogram",
            "histogram": encode_array(estimate.histogram),
            "raw": encode_array(estimate.raw),
            "edges": encode_array(estimate.edges),
        }
    if isinstance(estimate, MixedEstimates):
        return {
            "type": "mixed",
            "means": {k: float(v) for k, v in estimate.means.items()},
            "frequencies": {
                k: encode_array(np.asarray(v))
                for k, v in estimate.frequencies.items()
            },
        }
    if isinstance(estimate, np.ndarray):
        return {"type": "array", "array": encode_array(estimate)}
    return {"type": "scalar", "value": float(estimate)}


def decode_estimate(obj: Dict[str, Any]):
    """Inverse of :func:`encode_estimate`.

    Histogram estimates come back as full
    :class:`~repro.frequency.histogram.HistogramEstimate` objects (CDF
    and quantile queries work client-side), mixed estimates as
    :class:`~repro.multidim.aggregator.MixedEstimates`.
    """
    from repro.frequency.histogram import HistogramEstimate
    from repro.multidim.aggregator import MixedEstimates

    kind = obj.get("type")
    if kind == "scalar":
        return float(obj["value"])
    if kind == "array":
        return decode_array(obj["array"])
    if kind == "histogram":
        return HistogramEstimate(
            histogram=decode_array(obj["histogram"]),
            raw=decode_array(obj["raw"]),
            edges=decode_array(obj["edges"]),
        )
    if kind == "mixed":
        return MixedEstimates(
            means={k: float(v) for k, v in obj["means"].items()},
            frequencies={
                k: decode_array(v) for k, v in obj["frequencies"].items()
            },
        )
    raise WireFormatError(f"unknown estimate payload type {kind!r}")


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def spec_fingerprint(spec: Union[ProtocolSpec, Dict[str, Any]]) -> str:
    """SHA-256 over the canonical (sorted, compact) spec dict.

    Two endpoints agree on this hex digest iff they were built from the
    same ``ProtocolSpec`` — same kind, budget, primitives, dimensions.
    """
    payload = spec.to_dict() if isinstance(spec, ProtocolSpec) else spec
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def pack(
    payload: Dict[str, Any],
    fingerprint: str,
    campaign: Optional[str] = None,
) -> Dict[str, Any]:
    """Wrap a payload in the versioned, fingerprinted envelope.

    ``campaign`` addresses a specific campaign on a multi-tenant
    server; omitted, the receiver routes to its default campaign
    (which is how pre-campaign v1 envelopes keep working).  The
    fingerprint check then runs against the *addressed* campaign's
    spec, so naming campaign A while carrying campaign B's fingerprint
    is a :class:`SpecMismatchError`, never a silent mis-aggregation.
    """
    envelope = {
        "wire_version": WIRE_VERSION,
        "fingerprint": fingerprint,
        "payload": payload,
    }
    if campaign is not None:
        envelope["campaign"] = str(campaign)
    return envelope


def envelope_campaign(envelope: Dict[str, Any]) -> Optional[str]:
    """The campaign an envelope addresses, or ``None`` (default)."""
    campaign = envelope.get("campaign")
    if campaign is None:
        return None
    if not isinstance(campaign, str):
        raise WireFormatError(
            f"envelope 'campaign' must be a fingerprint string, got "
            f"{type(campaign).__name__}"
        )
    return campaign


def unpack(
    envelope: Dict[str, Any], expected_fingerprint: str
) -> Dict[str, Any]:
    """Validate an envelope and return its payload.

    Raises :class:`WireFormatError` on a missing/unknown wire version
    and :class:`SpecMismatchError` when the sender's protocol
    fingerprint differs from ``expected_fingerprint``.
    """
    version = envelope.get("wire_version")
    if version not in SUPPORTED_WIRE_VERSIONS:
        raise WireFormatError(
            f"unsupported wire_version {version!r}; this endpoint "
            f"speaks versions {list(SUPPORTED_WIRE_VERSIONS)}"
        )
    fingerprint = envelope.get("fingerprint")
    if fingerprint != expected_fingerprint:
        raise SpecMismatchError(
            f"protocol fingerprint mismatch: sender "
            f"{str(fingerprint)[:12]!r}... vs receiver "
            f"{expected_fingerprint[:12]!r}... — endpoints were built "
            f"from different ProtocolSpecs"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise WireFormatError("envelope carries no payload object")
    return payload
