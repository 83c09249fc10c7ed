"""Per-user privacy budget accounting (sequential composition).

LDP deployments repeatedly query the same population: today a mean,
tomorrow a frequency table, next week gradients.  Under sequential
composition the per-user losses add up; the accountant is the ledger
that enforces a lifetime cap — the reason the paper's SGD has each user
participate in exactly one iteration (Section V's m = 1 argument).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.core.validation import check_epsilon

#: A charge fits when ``cost <= (lifetime - spent) + _CAP_SLACK``.
_CAP_SLACK = 1e-12


class BudgetExceededError(RuntimeError):
    """Raised when a charge would push a user past the lifetime cap."""


@dataclass(frozen=True)
class Charge:
    """One recorded expenditure."""

    user: str
    epsilon: float
    label: str


class PrivacyAccountant:
    """Tracks cumulative eps spent per user under sequential composition.

    The state is columnar.  ``_rows`` maps each user to a row in
    first-charge order; ``_spent`` holds every row's spend in one
    float64 vector whose row 0 stays 0.0 and stands for every user not
    yet charged; the charge log keeps one ``(users, costs, label id)``
    chunk per call.  A batch (:meth:`charge_batch`,
    :meth:`rejected_users`) looks each user up once and tests the cap
    for all of them in one vectorized comparison.  Every balance is the
    IEEE ``spent + cost`` that charging one user at a time gives, and
    :meth:`to_dict` writes plain per-user and per-charge JSON that does
    not depend on this layout; :meth:`json_parts` writes the same JSON
    text and encodes each log chunk only once.  Users are ``str`` and
    every spend and cost is finite (the charge paths and
    :meth:`from_dict` both check), which that text relies on.

    Parameters
    ----------
    lifetime_epsilon:
        Hard cap on any single user's total budget.
    """

    def __init__(self, lifetime_epsilon: float):
        self.lifetime_epsilon = check_epsilon(lifetime_epsilon)
        self._rows: Dict[str, int] = {}
        self._spent = np.zeros(1)
        self._log: List[Tuple[List[str], np.ndarray, int]] = []
        self._labels: Dict[str, int] = {}
        # JSON text of _log[:_encoded_chunks], one immutable block per
        # json_parts call that found new chunks; every block but the
        # first starts with ", ".
        self._blocks: List[bytes] = []
        self._encoded_chunks = 0

    # ------------------------------------------------------------------
    def spent(self, user: str) -> float:
        """Total eps already consumed by ``user``."""
        return self._spent.item(self._rows.get(user, 0))

    def spent_many(self, users: Iterable[str]) -> List[float]:
        """Bulk :meth:`spent`, in the order of ``users``."""
        return self._spent[self._lookup(users)].tolist()

    def remaining(self, user: str) -> float:
        """Budget left before ``user`` hits the lifetime cap."""
        return self.lifetime_epsilon - self.spent(user)

    def can_charge(self, user: str, epsilon: float) -> bool:
        """Whether a charge of ``epsilon`` fits within the cap."""
        return check_epsilon(epsilon) <= self.remaining(user) + _CAP_SLACK

    def charge(self, user: str, epsilon: float, label: str = "") -> float:
        """Record a charge; raises BudgetExceededError if it overdraws."""
        self.charge_batch({user: 1}, epsilon, label)
        return self.remaining(user)

    def rejected_users(
        self, multiplicity: Mapping[str, int], epsilon: float
    ) -> List[str]:
        """Users who cannot afford ``count * epsilon`` for their count
        in ``multiplicity``, in its order; changes nothing."""
        users, costs = self._costs(multiplicity, epsilon)
        fits = self._fits(self._spent[self._lookup(users)], costs)
        return [users[i] for i in np.flatnonzero(~fits).tolist()]

    def charge_batch(
        self,
        multiplicity: Mapping[str, int],
        epsilon: float,
        label: str = "",
    ) -> None:
        """Charge each user ``count * epsilon``, all or nothing.

        One log entry per user.  If any user cannot afford their share,
        :class:`BudgetExceededError` names the first such user and
        nothing is charged.
        """
        users, costs = self._costs(multiplicity, epsilon)
        if not users:
            return
        rows = self._lookup(users)
        spent = self._spent[rows]
        fits = self._fits(spent, costs)
        if not fits.all():
            i = int(np.argmin(fits))
            raise BudgetExceededError(
                f"user {users[i]!r}: charge {costs[i]:g} exceeds "
                f"remaining budget {self.lifetime_epsilon - spent[i]:g} "
                f"(lifetime {self.lifetime_epsilon:g})"
            )
        self._commit(users, rows, spent + costs)
        self._append(users, costs, label)

    def charge_group(
        self, users, epsilon: float, label: str = "", atomic: bool = False
    ) -> Tuple[str, ...]:
        """Charge every user that still has room; returns those charged.

        This is the SGD recruitment pattern: only users with budget left
        may join an iteration's group.  Users are charged in order, one
        ``epsilon`` per occurrence, so a name listed twice must afford
        2x.

        With ``atomic=True`` the group is all-or-nothing: if any user
        cannot cover the charge, :class:`BudgetExceededError` is raised
        and every balance and the log are exactly as before the call.
        """
        epsilon = check_epsilon(epsilon)
        pending: Dict[str, float] = {}
        charged: List[str] = []
        for user in users:
            spent = pending[user] if user in pending else self.spent(user)
            if not epsilon <= (self.lifetime_epsilon - spent) + _CAP_SLACK:
                if atomic:
                    raise BudgetExceededError(
                        f"user {user!r}: group charge {epsilon:g} "
                        f"exceeds remaining budget "
                        f"{self.lifetime_epsilon - spent:g} (lifetime "
                        f"{self.lifetime_epsilon:g})"
                    )
                continue
            pending[user] = spent + epsilon
            charged.append(user)
        if charged:
            names = list(pending)
            self._commit(
                names, self._lookup(names), np.array(list(pending.values()))
            )
            self._append(charged, np.full(len(charged), epsilon), label)
        return tuple(charged)

    # ------------------------------------------------------------------
    def _lookup(self, users: Iterable[str]) -> np.ndarray:
        """Each user's row; 0 (the zero-spend row) for the uncharged."""
        return np.fromiter(
            map(self._rows.get, users, repeat(0)), dtype=np.intp
        )

    def _costs(
        self, multiplicity: Mapping[str, int], epsilon: float
    ) -> Tuple[List[str], np.ndarray]:
        users = list(multiplicity)
        costs = np.fromiter(
            multiplicity.values(), dtype=float, count=len(users)
        ) * check_epsilon(epsilon)
        if not np.all((costs > 0.0) & np.isfinite(costs)):
            raise ValueError(
                "charges must be positive and finite: every count must "
                "be positive"
            )
        return users, costs

    def _fits(self, spent: np.ndarray, costs: np.ndarray) -> np.ndarray:
        return costs <= (self.lifetime_epsilon - spent) + _CAP_SLACK

    def _commit(
        self, users: List[str], rows: np.ndarray, balances: np.ndarray
    ) -> None:
        """Store the new ``balances`` of distinct ``users``; those
        without a row (row 0) get the next rows, in order."""
        new = np.flatnonzero(rows == 0)
        if new.size:
            first = len(self._rows) + 1
            fresh = range(first, first + new.size)
            names = (
                users if new.size == len(users)
                else [users[i] for i in new.tolist()]
            )
            self._rows.update(zip(names, fresh))
            rows[new] = fresh
            if first + new.size > self._spent.shape[0]:
                grown = np.zeros(max(first + new.size, 2 * first))
                grown[:first] = self._spent[:first]
                self._spent = grown
        self._spent[rows] = balances

    def _append(
        self, users: List[str], costs: np.ndarray, label: str
    ) -> None:
        label_id = self._labels.setdefault(label, len(self._labels))
        self._log.append((users, costs, label_id))

    def _balances(self) -> np.ndarray:
        """Spend per user, in row (first-charge) order."""
        return self._spent[1 : len(self._rows) + 1]

    def _entries(
        self, chunks: Iterable[Tuple[List[str], np.ndarray, int]]
    ) -> List[Dict[str, Any]]:
        """The charge-log entries of ``chunks``, as :meth:`to_dict`
        writes them."""
        labels = list(self._labels)
        return [
            {"user": user, "epsilon": cost, "label": labels[label_id]}
            for users, costs, label_id in chunks
            for user, cost in zip(users, costs.tolist())
        ]

    # ------------------------------------------------------------------
    @property
    def ledger(self) -> Tuple[Charge, ...]:
        """Immutable view of every recorded charge."""
        return tuple(Charge(**entry) for entry in self._entries(self._log))

    def total_spent(self) -> float:
        """Sum of eps across all users (a deployment-level cost figure)."""
        return float(sum(self._balances().tolist()))

    def spent_by_label(self, user: str) -> Dict[str, float]:
        """Breakdown of ``user``'s spend by charge label.

        Labels are whatever callers recorded — query names for ad-hoc
        analysis, campaign fingerprints for the service's
        cross-campaign ledger.  Keys appear in first-charge order.
        """
        breakdown: Dict[str, float] = {}
        for charge in self.ledger:
            if charge.user == user:
                breakdown[charge.label] = (
                    breakdown.get(charge.label, 0.0) + charge.epsilon
                )
        return breakdown

    def users(self) -> Tuple[str, ...]:
        """Every user with at least one recorded charge."""
        return tuple(self._rows)

    def user_count(self) -> int:
        """How many users have been charged (``len(users())``, O(1))."""
        return len(self._rows)

    def exhausted_users(self) -> Tuple[str, ...]:
        """Users with (numerically) no budget left."""
        return tuple(
            sorted(u for u in self._rows if self.remaining(u) < _CAP_SLACK)
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot of the full accounting state.

        Carries both the per-user spent map and the charge ledger so a
        service can persist budgets across restarts;
        :meth:`from_dict` round-trips exactly (floats survive JSON
        bitwise — ``json`` serializes them via ``repr`` round-trip).
        """
        return {**self._head(), "ledger": self._entries(self._log)}

    def _head(self) -> Dict[str, Any]:
        """Every :meth:`to_dict` key but the charge log."""
        return {
            "lifetime_epsilon": self.lifetime_epsilon,
            "spent": dict(zip(self._rows, self._balances().tolist())),
        }

    def json_parts(self, head: Mapping[str, Any]) -> List[bytes]:
        """``json.dumps({**head, **self.to_dict()})`` as ASCII pieces to
        write one after another.

        The charge log is append-only (:meth:`_append` is its one
        writer), so its text is too.  A call encodes the chunks
        recorded since the previous call into one new block, keeps it,
        and returns every kept block as its own piece: it costs
        O(charges since the last call + users) and never joins or
        copies the whole log.  The blocks are immutable, so pieces
        returned earlier still spell the text of their own call.
        """
        new = self._log[self._encoded_chunks :]
        if new:
            labels = [json.dumps(label) for label in self._labels]
            texts = [
                _chunk_text(users, costs, labels[label_id])
                for users, costs, label_id in new
            ]
            if self._blocks:
                texts.insert(0, "")  # the block then starts with ", "
            self._blocks.append(", ".join(texts).encode())
            self._encoded_chunks = len(self._log)
        # The head ends in '"ledger": []}'; the log goes between the
        # brackets.
        top = json.dumps({**head, **self._head(), "ledger": []})
        return [top[:-2].encode(), *self._blocks, b"]}"]

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PrivacyAccountant":
        """Rebuild an accountant from :meth:`to_dict` output.

        Raises ``ValueError`` naming the user when a spend is negative
        or not finite, or a logged cost is not positive and finite: the
        first would under-charge that user, and neither can be written
        back as the JSON :meth:`to_dict` gives.
        """
        accountant = cls(lifetime_epsilon=float(payload["lifetime_epsilon"]))
        spent = {
            str(user): float(eps)
            for user, eps in payload.get("spent", {}).items()
        }
        accountant._rows = dict(zip(spent, range(1, len(spent) + 1)))
        accountant._spent = np.array([0.0, *spent.values()])
        balances = accountant._balances()
        _check_values(
            spent, balances, balances >= 0.0, "spent",
            "finite and non-negative",
        )
        entries = payload.get("ledger", [])
        users = [str(entry["user"]) for entry in entries]
        costs = np.array([float(entry["epsilon"]) for entry in entries])
        _check_values(
            users, costs, costs > 0.0, "charge", "finite and positive"
        )
        # One log chunk per run of consecutive entries with one label.
        start = 0
        for label, run in groupby(
            str(entry.get("label", "")) for entry in entries
        ):
            stop = start + sum(1 for _ in run)
            accountant._append(users[start:stop], costs[start:stop], label)
            start = stop
        return accountant


def _check_values(
    users: Iterable[str], values: np.ndarray, ok: np.ndarray, what: str,
    rule: str,
) -> None:
    """Raise ``ValueError`` for the first of ``users`` whose value is
    not finite or fails ``ok``."""
    ok &= np.isfinite(values)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(
            f"user {list(users)[i]!r}: {what} {values.item(i)!r} is not "
            f"{rule}"
        )


def _chunk_text(users: List[str], costs: np.ndarray, label: str) -> str:
    """The charge-log entries of one chunk, as ``json.dumps`` writes
    them inside the log's list.

    Each entry's text is built directly instead of through a dict:
    ``encode_basestring_ascii`` is ``json.dumps``' own string escaper,
    ``float.__repr__`` is what it writes for a finite float (taken once
    per distinct cost; costs are positive, so -0.0 never meets 0.0),
    and ``label`` is already JSON text.
    """
    tail = f', "label": {label}}}'
    text = [tail + ', {"user": ', "", ', "epsilon": ', ""] * len(users)
    text[0] = '{"user": '
    text[1::4] = map(encode_basestring_ascii, users)
    floats = costs.tolist()
    text[3::4] = map(
        {cost: float.__repr__(cost) for cost in set(floats)}.__getitem__,
        floats,
    )
    text.append(tail)
    return "".join(text)
