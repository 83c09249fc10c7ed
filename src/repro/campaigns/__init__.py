"""Multi-tenant collection campaigns.

The paper's deployment story is an operator running *many* concurrent
LDP collections — different attribute sets, epsilons, mechanisms —
over one user population.  This package is that layer:

* :mod:`repro.campaigns.lifecycle` — the one-way campaign state
  machine ``open -> sealed -> estimated``.
* :mod:`repro.campaigns.registry` — :class:`Campaign` (a protocol, its
  accumulator, idempotency keys, lifecycle state) and
  :class:`CampaignRegistry`, keyed by the SHA-256 spec fingerprint the
  wire envelope already carries.
* :mod:`repro.campaigns.ledger` — :func:`batch_multiplicity`, the
  report count per user that a batch is charged at.  Budget belongs to
  the user, not the campaign: every campaign on a server charges one
  :class:`~repro.analysis.accountant.PrivacyAccountant`, so however
  many campaigns a user reports into, their total epsilon is capped.

:class:`~repro.service.server.IngestionServer` routes every request
through a registry + accountant pair; see DESIGN.md ("The campaign
layer").
"""

from repro.campaigns.ledger import batch_multiplicity
from repro.campaigns.lifecycle import (
    TRANSITIONS,
    CampaignState,
    InvalidTransitionError,
    check_transition,
)
from repro.campaigns.registry import (
    Campaign,
    CampaignRegistry,
    UnknownCampaignError,
)

__all__ = [
    "TRANSITIONS",
    "Campaign",
    "CampaignRegistry",
    "CampaignState",
    "InvalidTransitionError",
    "UnknownCampaignError",
    "batch_multiplicity",
    "check_transition",
]
