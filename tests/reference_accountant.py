"""Reference model of the privacy accountant, for tests only.

This is the dict-and-dataclass ``PrivacyAccountant`` that
``repro.analysis.accountant`` replaced with an array-backed one, kept
verbatim but for one fix: an atomic ``charge_group`` that fails
restores every user's pre-group spend exactly (the original recomputed
``(s + e) - e`` and dropped users whose result rounded to <= 0).  The
property tests drive both implementations with the same operations and
require every public read, and the JSON bytes of ``to_dict()``, to
agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.validation import check_epsilon


class BudgetExceededError(RuntimeError):
    """Raised when a charge would push a user past the lifetime cap."""


@dataclass(frozen=True)
class Charge:
    """One recorded expenditure."""

    user: str
    epsilon: float
    label: str


@dataclass
class PrivacyAccountant:
    """Tracks cumulative eps spent per user under sequential composition.

    Parameters
    ----------
    lifetime_epsilon:
        Hard cap on any single user's total budget.
    """

    lifetime_epsilon: float
    _spent: Dict[str, float] = field(default_factory=dict)
    _ledger: List[Charge] = field(default_factory=list)

    def __post_init__(self):
        self.lifetime_epsilon = check_epsilon(self.lifetime_epsilon)

    # ------------------------------------------------------------------
    def spent(self, user: str) -> float:
        """Total eps already consumed by ``user``."""
        return self._spent.get(user, 0.0)

    def spent_many(self, users: Iterable[str]) -> List[float]:
        """Bulk :meth:`spent` — one bound ``dict.get`` per user, no
        per-user method dispatch (metrics hot path reads whole batches)."""
        get = self._spent.get
        return [get(user, 0.0) for user in users]

    def remaining(self, user: str) -> float:
        """Budget left before ``user`` hits the lifetime cap."""
        return self.lifetime_epsilon - self.spent(user)

    def can_charge(self, user: str, epsilon: float) -> bool:
        """Whether a charge of ``epsilon`` fits within the cap."""
        return check_epsilon(epsilon) <= self.remaining(user) + 1e-12

    def charge(self, user: str, epsilon: float, label: str = "") -> float:
        """Record a charge; raises BudgetExceededError if it overdraws."""
        epsilon = check_epsilon(epsilon)
        if not self.can_charge(user, epsilon):
            raise BudgetExceededError(
                f"user {user!r}: charge {epsilon:g} exceeds remaining "
                f"budget {self.remaining(user):g} "
                f"(lifetime {self.lifetime_epsilon:g})"
            )
        self._spent[user] = self.spent(user) + epsilon
        self._ledger.append(Charge(user=user, epsilon=epsilon, label=label))
        return self.remaining(user)

    def charge_group(
        self, users, epsilon: float, label: str = "", atomic: bool = False
    ) -> Tuple[str, ...]:
        """Charge every user that still has room; returns those charged.

        This is the SGD recruitment pattern: only users with budget left
        may join an iteration's group.

        With ``atomic=True`` the group is all-or-nothing: if any user
        (at multiplicity — the same name twice must afford 2x) cannot
        cover the charge, every charge already applied for this group
        is rolled back and :class:`BudgetExceededError` is raised, so a
        partial failure can never leave the ledger half-charged.
        """
        epsilon = check_epsilon(epsilon)
        charged = []
        saved: Dict[str, Optional[float]] = {}
        try:
            for user in users:
                if not self.can_charge(user, epsilon):
                    if atomic:
                        raise BudgetExceededError(
                            f"user {user!r}: group charge {epsilon:g} "
                            f"exceeds remaining budget "
                            f"{self.remaining(user):g} (lifetime "
                            f"{self.lifetime_epsilon:g})"
                        )
                    continue
                saved.setdefault(user, self._spent.get(user))
                self.charge(user, epsilon, label)
                charged.append(user)
        except BudgetExceededError:
            if not atomic:  # pragma: no cover - charge() was pre-checked
                raise
            self._rollback(len(charged), saved)
            raise
        return tuple(charged)

    def _rollback(self, n: int, saved: Dict[str, Optional[float]]) -> None:
        """Undo the last ``n`` recorded charges (atomic-group failure),
        restoring each user's saved pre-group spend exactly."""
        del self._ledger[len(self._ledger) - n :]
        for user, spent in saved.items():
            if spent is None:
                del self._spent[user]
            else:
                self._spent[user] = spent

    # ------------------------------------------------------------------
    @property
    def ledger(self) -> Tuple[Charge, ...]:
        """Immutable view of every recorded charge."""
        return tuple(self._ledger)

    def total_spent(self) -> float:
        """Sum of eps across all users (a deployment-level cost figure)."""
        return float(sum(self._spent.values()))

    def spent_by_label(self, user: str) -> Dict[str, float]:
        """Breakdown of ``user``'s spend by charge label.

        Labels are whatever callers recorded — query names for ad-hoc
        analysis, campaign fingerprints for the service's
        cross-campaign ledger.  Keys appear in first-charge order.
        """
        breakdown: Dict[str, float] = {}
        for charge in self._ledger:
            if charge.user == user:
                breakdown[charge.label] = (
                    breakdown.get(charge.label, 0.0) + charge.epsilon
                )
        return breakdown

    def users(self) -> Tuple[str, ...]:
        """Every user with at least one recorded charge."""
        return tuple(self._spent)

    def exhausted_users(self) -> Tuple[str, ...]:
        """Users with (numerically) no budget left."""
        return tuple(
            sorted(u for u in self._spent if self.remaining(u) < 1e-12)
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot of the full accounting state.

        Carries both the per-user spent map and the charge ledger so a
        service can persist budgets across restarts;
        :meth:`from_dict` round-trips exactly (floats survive JSON
        bitwise — ``json`` serializes them via ``repr`` round-trip).
        """
        return {
            "lifetime_epsilon": self.lifetime_epsilon,
            "spent": dict(self._spent),
            "ledger": [
                {"user": c.user, "epsilon": c.epsilon, "label": c.label}
                for c in self._ledger
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PrivacyAccountant":
        """Rebuild an accountant from :meth:`to_dict` output."""
        accountant = cls(lifetime_epsilon=float(payload["lifetime_epsilon"]))
        accountant._spent = {
            str(user): float(eps)
            for user, eps in payload.get("spent", {}).items()
        }
        accountant._ledger = [
            Charge(
                user=str(entry["user"]),
                epsilon=float(entry["epsilon"]),
                label=str(entry.get("label", "")),
            )
            for entry in payload.get("ledger", [])
        ]
        return accountant
