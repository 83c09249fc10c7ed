"""Networked LDP collection service.

The deployment layer the paper assumes: clients perturb locally and
submit over HTTP; a remote aggregator runs many concurrent collection
*campaigns*, enforces one global per-user privacy budget across all of
them at ingestion, folds reports through the mergeable accumulators,
and checkpoints durable state so a crash never loses the aggregate.

* :mod:`repro.service.wire` — versioned, fingerprinted codec for every
  report container, accumulator snapshot, and estimate; envelopes may
  address a campaign.
* :mod:`repro.service.store` — atomic snapshot files with namespaces
  and resume-from-latest recovery.
* :mod:`repro.service.ingest` — the three steps a report batch takes:
  check, admit against the ledger, commit.
* :mod:`repro.service.server` — stdlib asyncio HTTP ingestion server
  (``POST /report``, ``POST /campaigns``, ``GET /estimate``,
  ``GET /spec``, ``GET /campaigns``, ``GET /healthz``), routing
  through :mod:`repro.campaigns`.
* :mod:`repro.service.client` — SDK that encodes on-device, submits
  with retry-safe idempotency keys and bounded-backoff transport
  retries, and binds to campaigns via ``for_campaign``.

Serve deployment configs with ``python -m repro.service --spec
spec.json`` (single default campaign) or ``--campaigns specs/*.json``
(multi-tenant); see DESIGN.md ("The campaign layer") for lifecycle,
ledger invariants and wire/versioning notes.
"""

from repro.campaigns import (
    Campaign,
    CampaignRegistry,
    CampaignState,
    CrossCampaignLedger,
    UnknownCampaignError,
)
from repro.service.client import (
    CampaignClosedError,
    OverBudgetError,
    ServiceClient,
    ServiceError,
)
from repro.service.server import IngestionServer
from repro.service.store import SnapshotCorruptError, SnapshotStore
from repro.service.wire import (
    SUPPORTED_WIRE_VERSIONS,
    WIRE_VERSION,
    WIRE_VERSION_COLUMNAR,
    SpecMismatchError,
    WireFormatError,
    decode_estimate,
    decode_reports,
    encode_estimate,
    encode_reports,
    envelope_campaign,
    pack,
    pack_columns,
    reports_to_columns,
    spec_fingerprint,
    unpack,
    unpack_columns,
)

__all__ = [
    "SUPPORTED_WIRE_VERSIONS",
    "WIRE_VERSION",
    "WIRE_VERSION_COLUMNAR",
    "Campaign",
    "CampaignClosedError",
    "CampaignRegistry",
    "CampaignState",
    "CrossCampaignLedger",
    "IngestionServer",
    "OverBudgetError",
    "ServiceClient",
    "ServiceError",
    "SnapshotCorruptError",
    "SnapshotStore",
    "SpecMismatchError",
    "UnknownCampaignError",
    "WireFormatError",
    "decode_estimate",
    "decode_reports",
    "encode_estimate",
    "encode_reports",
    "envelope_campaign",
    "pack",
    "pack_columns",
    "reports_to_columns",
    "spec_fingerprint",
    "unpack",
    "unpack_columns",
]
