"""Golden test: the bytes every report container puts on the wire.

``fixtures/wire_golden/golden.json`` holds, per container kind, the v1
JSON envelope and the v2 columnar frame a client sends for one fixed
batch, with their idempotency keys, as written before the container ->
block conversion moved into ``repro.protocol``.  Deployed servers
dedupe on those keys and old clients still send those bytes, so both
must stay byte-identical.
"""

import importlib.util
import json
from pathlib import Path

import pytest

FIXTURE = Path(__file__).parent / "fixtures" / "wire_golden"
GOLDEN = json.loads((FIXTURE / "golden.json").read_text())


def _make_fixture():
    spec = importlib.util.spec_from_file_location(
        "wire_golden_make_fixture", FIXTURE / "make_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLES = _make_fixture().wire_samples()


def test_every_container_kind_is_pinned():
    assert set(GOLDEN) == {
        "grr-array", "oue-bits", "olh", "sampled-numeric", "mixed-olh"
    }
    frame = bytes.fromhex(GOLDEN["mixed-olh"]["v2"])
    assert b'"olh"' in frame  # the mixed batch carries an OLH attribute


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("part", ["v1", "v1_key", "v2", "v2_key"])
def test_wire_bytes_unchanged(name, part):
    assert SAMPLES[name][part] == GOLDEN[name][part]
