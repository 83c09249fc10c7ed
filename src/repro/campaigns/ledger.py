"""Cross-campaign privacy ledger: one budget per user, many campaigns.

Sequential composition does not care *which* collection consumed a
user's budget — epsilon spent in campaign A and epsilon spent in
campaign B add up on the same person.  The
:class:`CrossCampaignLedger` therefore wraps a single
:class:`~repro.analysis.accountant.PrivacyAccountant` shared by every
campaign on a server: each accepted report charges its campaign's
``spec.epsilon`` against the user's one global ``lifetime_epsilon``,
with the campaign fingerprint recorded as the
:class:`~repro.analysis.accountant.Charge` label so the spend can be
broken down per campaign after the fact.

Batch semantics mirror the single-campaign server: a batch is charged
atomically — either every user in it (at multiplicity) has room and
all are charged, or :meth:`rejected_users` is non-empty and the caller
rejects the whole batch (HTTP 429) without touching the ledger.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.accountant import PrivacyAccountant


def batch_multiplicity(users: Iterable[str]) -> Dict[str, int]:
    """How many reports each user contributes to one batch, keyed by
    ``str(user)`` in first-appearance order.

    Multiplicity matters for atomic budget checks: a user appearing
    twice must afford 2x the per-report epsilon.
    """
    return Counter(map(str, users))


class CrossCampaignLedger:
    """Per-user global budget enforcement across all campaigns."""

    _HEAD = {"type": "cross-campaign-ledger"}

    def __init__(
        self,
        lifetime_epsilon: float,
        accountant: Optional[PrivacyAccountant] = None,
    ):
        self.accountant = (
            PrivacyAccountant(lifetime_epsilon=lifetime_epsilon)
            if accountant is None
            else accountant
        )

    # ------------------------------------------------------------------
    @property
    def lifetime_epsilon(self) -> float:
        return self.accountant.lifetime_epsilon

    def spent(self, user: str) -> float:
        return self.accountant.spent(user)

    def spent_many(self, users: Iterable[str]) -> List[float]:
        return self.accountant.spent_many(users)

    def remaining(self, user: str) -> float:
        return self.accountant.remaining(user)

    def users(self) -> Tuple[str, ...]:
        return self.accountant.users()

    def user_count(self) -> int:
        return self.accountant.user_count()

    def spent_by_campaign(self, user: str) -> Dict[str, float]:
        """Per-campaign breakdown of ``user``'s total spend (labels on
        the underlying ledger are campaign fingerprints)."""
        return self.accountant.spent_by_label(user)

    # ------------------------------------------------------------------
    def rejected_users(
        self, multiplicity: Dict[str, int], epsilon: float
    ) -> List[str]:
        """Users whose *cross-campaign* remaining budget cannot cover
        their share of this batch.  Non-empty means the whole batch
        must be rejected."""
        return self.accountant.rejected_users(multiplicity, epsilon)

    def charge_batch(
        self,
        multiplicity: Dict[str, int],
        epsilon: float,
        campaign: str,
    ) -> None:
        """Charge one pre-checked batch, labelled by campaign.

        Callers must have verified :meth:`rejected_users` is empty —
        the underlying accountant still raises
        :class:`~repro.analysis.accountant.BudgetExceededError` on an
        overdraw and then charges nobody, so a missed pre-check cannot
        corrupt the ledger.
        """
        self.accountant.charge_batch(multiplicity, epsilon, label=campaign)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-friendly snapshot (bitwise round-trip via the
        accountant's float-exact serialization)."""
        return {**self._HEAD, **self.accountant.to_dict()}

    def json_parts(self) -> List[bytes]:
        """``json.dumps(self.to_dict())`` in pieces; the charge log is
        encoded once (see ``PrivacyAccountant.json_parts``)."""
        return self.accountant.json_parts(self._HEAD)

    @classmethod
    def from_dict(cls, payload: Dict) -> "CrossCampaignLedger":
        return cls(
            lifetime_epsilon=float(payload["lifetime_epsilon"]),
            accountant=PrivacyAccountant.from_dict(payload),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrossCampaignLedger(lifetime_epsilon="
            f"{self.lifetime_epsilon:g}, users={self.user_count()})"
        )
