"""Write the wire golden fixture next to this file.

``golden.json`` pins the bytes a client puts on the wire for one small
batch of every report container kind: a GRR array, OUE bits, OLH, a
sampled-numeric batch and a mixed batch with an OLH attribute.  For
each it records two pairs:

* the v1 JSON envelope bytes and the idempotency key SDKs derived for
  them before they sent only v2 frames (:func:`v1_key`, kept here);
* the v2 ``pack_columns`` frame and its
  ``ServiceClient._derive_columnar_key``.

``tests/test_wire_golden.py`` rebuilds the same batches with
:func:`wire_samples` and compares byte for byte, so a change to the
codecs or to a container's ``to_block()`` (column names, dtypes, the
order of ``meta``) fails there instead of splitting a deployed fleet's
duplicate detection.  The committed ``golden.json`` was written from
git commit 28f3370, before the container -> block conversion moved
into ``repro.protocol``:

    PYTHONPATH=src python tests/fixtures/wire_golden/make_fixture.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.data.census import make_br_like
from repro.protocol import Protocol
from repro.service import ServiceClient, wire

HERE = Path(__file__).resolve().parent
USERS = [f"u{i}" for i in range(6)]


def _cases():
    n = len(USERS)
    dataset = make_br_like(n, rng=np.random.default_rng(11))
    return {
        "grr-array": (
            Protocol.frequency(1.0, domain=8, oracle="grr"),
            np.arange(n) % 8,
        ),
        "oue-bits": (
            Protocol.frequency(1.0, domain=8, oracle="oue"),
            np.arange(n) % 8,
        ),
        "olh": (
            Protocol.frequency(1.0, domain=8, oracle="olh"),
            np.arange(n) % 8,
        ),
        "sampled-numeric": (
            Protocol.multidim(4.0, d=4, mechanism="hm"),
            np.linspace(-1, 1, 4 * n).reshape(n, 4),
        ),
        "mixed-olh": (
            Protocol.multidim(4.0, schema=dataset.schema, oracle="olh"),
            dataset,
        ),
    }


def v1_key(encoded, users):
    """The v1 idempotency key of a round-less batch: SHA-256 over the
    reports' sorted-key JSON, then the users' JSON."""
    digest = hashlib.sha256()
    digest.update(json.dumps(encoded, sort_keys=True).encode("utf-8"))
    digest.update(json.dumps([str(u) for u in users]).encode("utf-8"))
    return digest.hexdigest()


def wire_samples():
    """name -> {"v1", "v1_key", "v2", "v2_key"}; bytes as text/hex."""
    samples = {}
    for name, (protocol, values) in _cases().items():
        reports = protocol.client().encode_batch(
            values, np.random.default_rng(2019)
        )
        fingerprint = wire.spec_fingerprint(protocol.spec)
        encoded = wire.encode_reports(reports)
        key = v1_key(encoded, USERS)
        envelope = wire.pack(
            {"users": USERS, "idempotency_key": key, "reports": encoded},
            fingerprint,
        )
        block = wire.reports_to_columns(reports)
        v2_key = ServiceClient._derive_columnar_key(block, USERS)
        frame = wire.pack_columns(
            block, fingerprint, users=USERS, idempotency_key=v2_key
        )
        samples[name] = {
            "v1": json.dumps(envelope),
            "v1_key": key,
            "v2": frame.hex(),
            "v2_key": v2_key,
        }
    return samples


def main() -> None:
    (HERE / "golden.json").write_text(
        json.dumps(wire_samples(), indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
