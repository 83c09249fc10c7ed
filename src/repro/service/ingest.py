"""The ingest path of ``POST /report``: route, check, admit, commit.

Plain functions of the state they read, so tests drive them with no
server (DESIGN.md "Budget enforcement" tabulates them):

* :func:`route` names the envelope's campaign (the default one when it
  names none), which the server binds to the request's log lines.
* :func:`check` checks the batch against that campaign; it changes no
  state.  v1 JSON envelopes and v2 columnar frames reach the campaign
  as one :class:`~repro.protocol.reports.ColumnBlock`; a key the
  campaign has already folded in ends the check at once, as a
  duplicate.
* :func:`admit` is the budget test against the server's one
  :class:`~repro.analysis.accountant.PrivacyAccountant`, which every
  campaign charges; it changes no state.
* :func:`commit` folds in the parse :func:`check` validated, charges,
  counts and records the key: the only step that changes state, and
  it cannot fail after the other two.

Each raises :class:`Refusal`, as every handler and the HTTP framing
layer do.  The server runs the steps in order and owns what surrounds
them: the drain gate, the duplicate count, metrics, logs (and their
campaign binding) and cuts.
This module imports no HTTP, asyncio or metrics code.
"""

from __future__ import annotations

import json
from typing import Any, Dict, NamedTuple, Optional, Sequence

from repro.analysis.accountant import PrivacyAccountant
from repro.campaigns.registry import (
    Campaign,
    CampaignRegistry,
    UnknownCampaignError,
)
from repro.protocol.reports import ColumnBlock
from repro.service import wire


class Refusal(Exception):
    """Answer a request with ``status`` and ``{"error": error, **fields}``."""

    def __init__(self, status: int, error: str, **fields: Any) -> None:
        super().__init__(error)
        self.status = status
        self.payload = {"error": error, **fields}


class Batch(NamedTuple):
    """A checked batch; a duplicate's fields past ``duplicate`` are unread."""

    campaign: Campaign
    key: Optional[str]
    duplicate: bool = False
    block: Optional[ColumnBlock] = None
    #: ``campaign.validate_batch(block)``, which commit folds in.
    parsed: Any = None
    #: The users charged, with repeats: those whose report is fresh.
    charged: Sequence[Any] = ()
    round_: Optional[int] = None
    wire_version: int = wire.WIRE_VERSION


def _bad_request(detail: str) -> Refusal:
    return Refusal(400, "bad_request", detail=detail)


def decode(content_type: str, body: bytes) -> Any:
    """A request body: ``None`` when empty, a v2 frame's envelope under
    the columnar content type, else JSON."""
    if not body:
        return None
    if content_type.startswith(wire.COLUMNAR_CONTENT_TYPE):
        try:
            return wire.unpack_columns(body)
        except wire.WireFormatError as exc:
            raise Refusal(400, "bad_envelope", detail=str(exc)) from None
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise Refusal(400, "bad_json", detail=str(exc)) from None


def as_envelope(body: Any) -> Dict[str, Any]:
    """``body``, which must be a JSON object, as every envelope is."""
    if not isinstance(body, dict):
        raise _bad_request("POST /report requires a JSON object body")
    return body


def resolve(registry: CampaignRegistry, fp: Optional[str]) -> Campaign:
    """The campaign ``fp`` names (the default one for ``None``)."""
    try:
        return registry.resolve(fp)
    except UnknownCampaignError as exc:  # a KeyError: str() quotes it
        raise Refusal(
            404, "unknown_campaign", campaign=fp, detail=exc.args[0]
        ) from None


def route(registry: CampaignRegistry, envelope: Any) -> Campaign:
    """The campaign ``envelope`` names (the default one for none)."""
    try:
        fp = wire.envelope_campaign(as_envelope(envelope))
    except wire.WireFormatError as exc:
        raise Refusal(400, "bad_envelope", detail=str(exc)) from None
    return resolve(registry, fp)


def check(campaign: Campaign, envelope: Dict[str, Any]) -> Batch:
    """Check the batch of an ``envelope`` routed to ``campaign``;
    changes no state."""
    try:
        payload = wire.unpack(envelope, campaign.fingerprint)
    except wire.SpecMismatchError as exc:
        raise Refusal(409, "spec_mismatch", detail=str(exc)) from None
    except wire.WireFormatError as exc:
        raise Refusal(400, "bad_envelope", detail=str(exc)) from None
    if not campaign.accepts_reports:
        raise Refusal(
            409,
            "campaign_sealed",
            campaign=campaign.fingerprint,
            state=campaign.state.value,
            detail="campaign no longer accepts reports",
        )
    key = payload.get("idempotency_key")
    if key is not None and not isinstance(key, str):
        # Keys are checkpointed sorted, next to the SDK's string keys.
        raise _bad_request(
            f"'idempotency_key' must be a string, got {type(key).__name__}"
        )
    if key is not None and key in campaign.seen_keys:
        return Batch(campaign, key, duplicate=True)
    users = payload.get("users")
    if not isinstance(users, list) or not users:
        raise _bad_request("payload must carry a non-empty 'users' list")
    round_, fresh = payload.get("round"), payload.get("fresh")
    if round_ is not None and (
        not isinstance(round_, int) or isinstance(round_, bool) or round_ < 0
    ):
        raise _bad_request(
            f"'round' must be a non-negative integer, got {round_!r}"
        )
    if fresh is not None and (
        not isinstance(fresh, list)
        or len(fresh) != len(users)
        or not all(isinstance(f, bool) for f in fresh)
    ):
        raise _bad_request("'fresh' must be a list of booleans, one per user")
    block = payload.get("columns")  # a v2 frame's, else ignored
    wire_version = wire.WIRE_VERSION_COLUMNAR
    if not isinstance(block, ColumnBlock):  # v1: the block's JSON
        wire_version = wire.WIRE_VERSION
        try:
            block = wire.decode_reports(payload["reports"])
        except (KeyError, wire.WireFormatError) as exc:
            raise Refusal(400, "bad_reports", detail=str(exc)) from None
    if block.n != len(users):
        raise _bad_request(
            f"batch carries {block.n} reports for {len(users)} users"
        )
    # Validate before charging: a bad batch must not consume budget.
    try:
        parsed = campaign.validate_batch(block)
    except ValueError as exc:
        raise Refusal(400, "bad_reports", detail=str(exc)) from None
    if fresh is not None:
        users = [u for u, f in zip(users, fresh) if f]
    return Batch(
        campaign, key, False, block, parsed, users, round_, wire_version
    )


def admit(
    ledger: PrivacyAccountant, batch: Batch, multiplicity: Dict[str, int]
) -> None:
    """429 unless every charged user can afford their ``multiplicity``
    reports on top of their spend in every campaign; changes no state."""
    campaign = batch.campaign
    rejected = ledger.rejected_users(multiplicity, campaign.spec.epsilon)
    if rejected:
        raise Refusal(
            429,
            "budget_exceeded",
            campaign=campaign.fingerprint,
            rejected_users=rejected,
            lifetime_epsilon=ledger.lifetime_epsilon,
        )


def commit(
    ledger: PrivacyAccountant, batch: Batch, multiplicity: Dict[str, int]
) -> None:
    """Fold in an admitted batch's parse, charge it under its campaign's
    fingerprint, count it, record its key.  Neither call fails after
    :func:`check` and :func:`admit`."""
    campaign = batch.campaign
    campaign.absorb_shard(batch.parsed, batch.round_)
    ledger.charge_batch(
        multiplicity, campaign.spec.epsilon, label=campaign.fingerprint
    )
    campaign.batches_accepted += 1
    campaign.dirty = True
    if batch.key is not None:
        campaign.seen_keys.add(batch.key)


def answer(batch: Batch) -> Dict[str, Any]:
    """The 200 answer: ``duplicate``, or ``accepted`` once committed."""
    return {
        "status": "duplicate" if batch.duplicate else "accepted",
        "accepted": 0 if batch.duplicate else batch.block.n,
        "campaign": batch.campaign.fingerprint,
        "total_reports": batch.campaign.reports,
    }
