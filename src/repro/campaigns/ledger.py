"""Cross-campaign privacy budget: one budget per user, many campaigns.

Sequential composition does not care *which* collection consumed a
user's budget — epsilon spent in campaign A and epsilon spent in
campaign B add up on the same person.  So a server charges every
campaign against one
:class:`~repro.analysis.accountant.PrivacyAccountant`: each accepted
report costs its campaign's ``spec.epsilon`` against the user's one
global ``lifetime_epsilon``, labelled with the campaign fingerprint.

Batch semantics mirror the single-campaign server: a batch is charged
atomically — either every user in it (at :func:`batch_multiplicity`)
has room and all are charged, or ``rejected_users`` is non-empty and
the caller rejects the whole batch (HTTP 429) without touching the
ledger.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable

from repro.analysis.accountant import PrivacyAccountant


def batch_multiplicity(users: Iterable[str]) -> Dict[str, int]:
    """How many reports each user contributes to one batch, keyed by
    ``str(user)`` in first-appearance order.

    Multiplicity matters for atomic budget checks: a user appearing
    twice must afford 2x the per-report epsilon.
    """
    return Counter(map(str, users))


#: perfbench's launcher times ``rejected_users`` and ``charge_batch``
#: under this name.  It wraps each through ``vars()`` of the class the
#: name resolves to, so this is the accountant itself, not a subclass.
CrossCampaignLedger = PrivacyAccountant
