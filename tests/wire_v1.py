"""Post a hand-built v1 JSON envelope through a ``ServiceClient``.

The SDK sends every batch as a v2 columnar frame; the server still
decodes the v1 envelopes older clients send.  Tests that check a v1
property build the envelope here, with ``wire.encode_reports`` and
``wire.pack``, and post it through the client's transport to the
client's campaign.
"""

import hashlib
import json

from repro.service import wire


def post_v1(client, reports, users, round=None, fresh=None):
    """POST ``reports`` for ``users`` as one v1 envelope; returns the
    answer.  The idempotency key is a SHA-256 of the payload, so a
    resent batch is a duplicate and any change to it is not."""
    payload = {
        "users": [str(u) for u in users],
        "reports": wire.encode_reports(reports),
    }
    if round is not None:
        payload["round"] = int(round)
    if fresh is not None:
        payload["fresh"] = [bool(f) for f in fresh]
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    payload["idempotency_key"] = hashlib.sha256(canonical).hexdigest()
    envelope = wire.pack(payload, client.fingerprint, campaign=client.campaign)
    return client._request("POST", "/report", envelope)
