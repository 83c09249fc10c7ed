"""Start ``python -m repro.service``, optionally with layer spans.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python perfbench/launcher.py [--spans FILE] -- <repro.service flags>

Without ``--spans`` this is exactly ``python -m repro.service <flags>``.
With it, the server-side rows of :data:`LAYER_CALLS` are wrapped before
the service boots, every call records a span in memory, and the spans
are written to ``FILE`` when the process exits through the service's
own shutdown path (SIGTERM drain).

:data:`LAYER_CALLS` is the one list of wrapped calls.  Its client rows
are installed by the load generator in its own process.
"""

from __future__ import annotations

import runpy
import sys
from typing import Any, List, Optional, Tuple

import spans as span_lib


def _pack_key(recorder, index, args, kwargs, result) -> None:
    """``pack_columns(block, fp, *, idempotency_key=...)`` -> bytes."""
    recorder.spans[index][span_lib.BYTES] = len(result)
    recorder.set_key(kwargs.get("idempotency_key"))


def _unpack_columns_key(recorder, index, args, kwargs, result) -> None:
    """The frame's key becomes the tag of the rest of the request."""
    key = (result.get("payload") or {}).get("idempotency_key")
    recorder.spans[index][span_lib.KEY] = key
    recorder.set_key(key)


def _loaded(recorder, index, args, kwargs, result) -> None:
    """Mark ``load_latest`` calls that found a snapshot."""
    recorder.spans[index][span_lib.BYTES] = 0 if result is None else 1


#: (call, layer, hook) for every wrapped call.  ``side`` says which
#: process installs the row.
LAYER_CALLS: List[Tuple[str, str, str, Any]] = [
    # side,    call,                                           layer
    ("client", "repro.service.client:ServiceClient.submit",
     "service.client.submit", None),
    ("client", "repro.service.client:ServiceClient.submit_reports",
     "service.client.request", None),
    ("client", "repro.service.client:ServiceClient.estimate_info",
     "service.server.estimate", None),
    ("client", "repro.protocol.encoders:FrequencyEncoder.encode_batch",
     "protocol.encoders.encode", None),
    ("client", "repro.protocol.encoders:MultidimNumericEncoder.encode_batch",
     "protocol.encoders.encode", None),
    ("client", "repro.service.wire:reports_to_columns",
     "service.wire.pack", None),
    ("client", "repro.service.wire:pack_columns",
     "service.wire.pack", _pack_key),
    ("server", "repro.service.wire:unpack_columns",
     "service.wire.unpack", _unpack_columns_key),
    ("server", "repro.service.wire:unpack",
     "service.wire.unpack", None),
    ("server", "repro.campaigns.registry:Campaign.validate_batch",
     "campaigns.registry.validate", None),
    ("server", "repro.service.server:batch_multiplicity",
     "campaigns.ledger.multiplicity", None),
    ("server", "repro.campaigns.ledger:CrossCampaignLedger.rejected_users",
     "campaigns.ledger.admit", None),
    ("server", "repro.campaigns.registry:Campaign.absorb_shard",
     "campaigns.registry.absorb", None),
    ("server", "repro.campaigns.ledger:CrossCampaignLedger.charge_batch",
     "campaigns.ledger.charge", None),
    ("server", "repro.service.server:IngestionServer.checkpoint_now",
     "service.server.checkpoint", None),
    ("server", "repro.service.store:SnapshotStore.save",
     "service.store.save", None),
    ("server", "repro.service.store:SnapshotStore.load_latest",
     "service.store.load", _loaded),
]

#: Client spans that are HTTP round trips; server spans join under them.
REQUEST_LAYERS = ("service.client.request", "service.server.estimate")


def table(side: str) -> List[Tuple[str, str, Any]]:
    return [(call, layer, hook)
            for s, call, layer, hook in LAYER_CALLS if s == side]


def main(argv: Optional[List[str]] = None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    spans_path: Optional[str] = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    recorder: Optional[span_lib.SpanRecorder] = None
    if spans_path is not None:
        recorder = span_lib.SpanRecorder()
        span_lib.install(recorder, table("server"))
    sys.argv = ["python -m repro.service"] + argv
    try:
        runpy.run_module("repro.service", run_name="__main__", alter_sys=True)
    finally:
        if recorder is not None:
            recorder.dump(spans_path)


if __name__ == "__main__":
    main()
