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
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

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
    yet charged; the charge log keeps one ``(rows, costs, label id)``
    chunk per call, and ``_labels`` numbers the labels in first-use
    order.  A batch (:meth:`charge_batch`, :meth:`rejected_users`)
    looks each user up once and tests the cap for all of them in one
    vectorized comparison.  Every balance is the IEEE ``spent + cost``
    that charging one user at a time gives.  :meth:`to_dict` writes a
    per-user ``spent`` map, ``labels``, the maximal ``[count, epsilon,
    label index]`` runs of the charges and each charge's row in
    ``spent``, which depend on the charges alone; :meth:`json_parts`
    writes the same JSON text, encoding each charge and closed run once.
    Users are ``str`` and every spend and cost is finite (the charge
    paths and :meth:`from_dict` both check), which that text relies on.

    Parameters
    ----------
    lifetime_epsilon:
        Hard cap on any single user's total budget.
    """

    def __init__(self, lifetime_epsilon: float):
        self.lifetime_epsilon = check_epsilon(lifetime_epsilon)
        self._rows: Dict[str, int] = {}
        self._spent = np.zeros(1)
        self._log: List[Tuple[np.ndarray, np.ndarray, int]] = []
        self._labels: Dict[str, int] = {}
        # JSON text of the rows of _log[:_encoded_chunks] and of their
        # runs but the last (_open, which can grow): one immutable block
        # per json_parts call, every block but the first after ", ".
        self._blocks: List[bytes] = []
        self._run_blocks: List[bytes] = []
        self._open: List[List[Any]] = []
        self._encoded_chunks = 0

    # ------------------------------------------------------------------
    def spent(self, user: str) -> float:
        """Total eps already consumed by ``user``."""
        return self._spent.item(self._rows.get(user, 0))

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
        self._append(rows, costs, label)

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
            self._append(
                self._lookup(charged), np.full(len(charged), epsilon), label
            )
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

    def _append(self, rows: np.ndarray, costs: np.ndarray, label: str) -> None:
        label_id = self._labels.setdefault(label, len(self._labels))
        self._log.append((rows, costs, label_id))

    def _balances(self) -> np.ndarray:
        """Spend per user, in row (first-charge) order."""
        return self._spent[1 : len(self._rows) + 1]

    # ------------------------------------------------------------------
    @property
    def ledger(self) -> Tuple[Charge, ...]:
        """Immutable view of every recorded charge."""
        users, labels = list(self._rows), list(self._labels)
        return tuple(
            Charge(users[row], cost, labels[label_id])
            for rows, costs, label_id in self._log
            for row, cost in zip((rows - 1).tolist(), costs.tolist())
        )

    def total_spent(self) -> float:
        """Sum of eps across all users, added left to right from row 0."""
        return float(np.cumsum(self._spent[: len(self._rows) + 1])[-1])

    def spend_buckets(
        self, bounds: Sequence[float]
    ) -> Tuple[List[int], float]:
        """How many users' spend falls in each bucket, and
        :meth:`total_spent`.  Bucket ``i`` holds
        ``bounds[i-1] < spent <= bounds[i]`` for ascending ``bounds``,
        and one more bucket the spend above the last bound."""
        index = np.searchsorted(bounds, self._balances())
        counts = np.bincount(index, minlength=len(bounds) + 1)
        return counts.tolist(), self.total_spent()

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
        service can persist budgets across restarts: ``labels`` lists
        each charge label once, in first-use order, ``runs`` the
        maximal ``[count, epsilon, label index]`` runs of charges, and
        ``ledger`` each charge's user as their 0-based row in ``spent``.
        :meth:`from_dict` round-trips exactly (floats survive JSON
        bitwise — ``json`` serializes them via ``repr`` round-trip).
        """
        rows, costs, ids = _flat(self._log)
        return {
            "lifetime_epsilon": self.lifetime_epsilon,
            "spent": dict(zip(self._rows, self._balances().tolist())),
            "labels": list(self._labels),
            "runs": _extend_runs([], costs, ids),
            "ledger": (rows - 1).tolist(),
        }

    def json_parts(self, head: Mapping[str, Any]) -> List[bytes]:
        """``json.dumps({**head, **self.to_dict()})`` as ASCII pieces to
        write one after another.

        The charge log is append-only (:meth:`_append` is its one
        writer), so the text of its rows and of every run but the last
        is too.  A call encodes the charges since the previous call into
        a block of rows and one of the runs they close, keeps both, and
        returns every kept block as its own piece: it costs O(charges
        since the last call + users) and never joins or copies the
        whole log.  The blocks are immutable, so pieces returned earlier
        still spell their own call's text.  Nothing is kept per user.
        """
        new = self._log[self._encoded_chunks :]
        if new:
            rows, costs, ids = _flat(new)
            self._blocks.append(_block(self._blocks, str((rows - 1).tolist())))
            runs = _extend_runs(self._open, costs, ids)
            if len(runs) > 1:
                text = json.dumps(runs[:-1])
                self._run_blocks.append(_block(self._run_blocks, text))
            self._open = runs[-1:]
            self._encoded_chunks = len(self._log)
        # The head ends in '"lifetime_epsilon": <float>}'; the rest of
        # the object goes in place of the brace.
        top = json.dumps({**head, "lifetime_epsilon": self.lifetime_epsilon})
        names = list(map(encode_basestring_ascii, self._rows))
        spent = _object_text(names, self._balances())
        labels = json.dumps(list(self._labels))
        last = self._open and _block(self._run_blocks, json.dumps(self._open))
        return [
            f'{top[:-1]}, "spent": {spent}, "labels": {labels}, '
            f'"runs": ['.encode(),
            *self._run_blocks,
            (last or b"") + b'], "ledger": [',
            *self._blocks,
            b"]}",
        ]

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PrivacyAccountant":
        """Rebuild an accountant from :meth:`to_dict` output.

        Reads the charge log in any of three forms: rows with ``runs``
        when the payload has that key, else ``[user, epsilon, label
        index]`` arrays into ``labels`` when it has that one, else the
        ``{"user", "epsilon", "label"}`` objects written before
        ``labels`` existed.  Raises ``ValueError`` when the payload does
        not have that shape, and one naming the user when a spend is
        negative or not finite, a logged cost is not positive and
        finite, or a logged user has no ``spent`` entry: the first and
        the last would under-charge that user, and the others cannot be
        written back as the JSON :meth:`to_dict` gives.
        """
        if not isinstance(payload, dict) or "lifetime_epsilon" not in payload:
            raise ValueError("not an object with a lifetime_epsilon")
        spent = payload.get("spent", {})
        entries = payload.get("ledger", [])
        if not isinstance(spent, dict):
            raise ValueError("spent is not an object")
        if not isinstance(entries, list):
            raise ValueError("the charge log is not a list")
        accountant = cls(
            lifetime_epsilon=_floats([payload["lifetime_epsilon"]]).item()
        )
        accountant._rows = dict(
            zip(map(str, spent), range(1, len(spent) + 1))
        )
        accountant._spent = np.concatenate(([0.0], _floats(spent.values())))
        balances = accountant._balances()
        _check_values(
            spent, balances, balances >= 0.0, "spent",
            "finite and non-negative",
        )
        labels = payload.get("labels")
        if "labels" not in payload and "runs" not in payload:
            labels, entries = _compact(entries)
        if not isinstance(labels, list):
            raise ValueError("labels is not a list")
        if "runs" in payload:
            rows, costs, ids = _expand(
                payload["runs"], len(labels), entries, len(spent)
            )
        else:
            users, costs, ids = _columns(len(labels), entries)
            costs = _floats(costs)
            _check_values(
                users, costs, costs > 0.0, "charge", "finite and positive"
            )
            rows = accountant._lookup(users)
            if not rows.all():
                n = int(np.argmin(rows))
                raise ValueError(
                    f"log entry {n}: user {users[n]!r} has no spent entry"
                )
        # One log chunk per run of one label, whatever its costs.
        starts = np.flatnonzero(np.diff(ids, prepend=-1)).tolist()
        for start, stop in zip(starts, [*starts[1:], len(ids)]):
            accountant._append(
                rows[start:stop], costs[start:stop], str(labels[ids[start]])
            )
        return accountant


def _flat(chunks: List[Any]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row, cost and label id of each charge of the log ``chunks``."""
    return (
        np.concatenate([np.empty(0, np.intp), *(c[0] for c in chunks)]),
        np.concatenate([np.empty(0), *(c[1] for c in chunks)]),
        np.repeat([c[2] for c in chunks], [len(c[0]) for c in chunks]),
    )


def _extend_runs(runs: list, costs: np.ndarray, ids: np.ndarray) -> list:
    """``runs``, maximal ``[count, epsilon, label index]`` runs, extended
    in place by those of later charges with these costs and label ids."""
    starts = np.flatnonzero(np.logical_or(
        np.diff(ids, prepend=-1), np.diff(costs, prepend=0.0)
    ))
    counts = np.diff(starts, append=len(ids)).tolist()
    firsts = zip(counts, costs[starts].tolist(), ids[starts].tolist())
    for run in map(list, firsts):
        if runs and runs[-1][1:] == run[1:]:
            run[0] += runs.pop()[0]
        runs.append(run)
    return runs


def _block(blocks: List[bytes], text: str) -> bytes:
    """The items of the JSON list ``text`` as the block after ``blocks``."""
    return (", " * bool(blocks) + text[1:-1]).encode()


def _expand(runs: Any, n_labels: int, entries: list, size: int) -> tuple:
    """The row (from 1), cost and label index of each charge of a log of
    rows in ``[0, size)`` and its ``runs`` of ``[count, epsilon, label
    index]``; ``ValueError`` names the first malformed entry or run."""
    if not isinstance(runs, list):
        raise ValueError("runs is not a list")
    if not {*map(type, entries)} <= {int} or not (
        0 <= min(entries, default=0) and max(entries, default=-1) < size
    ):
        n, row = next(
            (n, row) for n, row in enumerate(entries)
            if type(row) is not int or not 0 <= row < size
        )
        raise ValueError(f"log entry {n}: {row!r} is not a row in [0, {size})")
    for n, run in enumerate(runs):
        if not (
            type(run) is list and len(run) == 3
            and type(run[0]) is int and run[0] > 0
            and type(run[1]) is float and 0.0 < run[1] < np.inf
            and type(run[2]) is int and 0 <= run[2] < n_labels
        ):
            raise ValueError(
                f"run {n} is not [count > 0, finite epsilon > 0, label "
                f"index in [0, {n_labels})]: {run!r}"
            )
    counts = [run[0] for run in runs]
    if sum(counts) != len(entries):
        raise ValueError(
            f"{sum(counts)} charges in runs, {len(entries)} in the log"
        )
    return (
        np.fromiter(entries, dtype=np.intp, count=len(entries)) + 1,
        np.repeat([run[1] for run in runs], counts),
        np.repeat([run[2] for run in runs], counts),
    )


def _columns(
    n_labels: int, entries: List[Any]
) -> Tuple[List[str], List[Any], List[int]]:
    """The users, costs and label indices of a log of ``[user, epsilon,
    label index]`` arrays into ``n_labels`` labels; ``ValueError``
    names the first malformed entry.

    The log is checked a column at a time, each check one pass in C;
    only a log that fails is walked entry by entry, to name the entry.
    """
    shaped = {*map(type, entries)} <= {list} and {*map(len, entries)} <= {3}
    users, costs, ids = (
        [list(map(itemgetter(k), entries)) for k in range(3)]
        if shaped else ([], [], [])
    )
    if not (
        shaped
        and {*map(type, users)} <= {str}
        and {*map(type, ids)} <= {int}
        and 0 <= min(ids, default=0)
        and max(ids, default=-1) < n_labels
    ):
        for n, entry in enumerate(entries):
            if type(entry) is not list or len(entry) != 3 or (
                type(entry[0]) is not str
            ):
                raise ValueError(
                    f"log entry {n} is not [user, epsilon, label index]"
                )
            if type(entry[2]) is not int or not 0 <= entry[2] < n_labels:
                raise ValueError(
                    f"log entry {n}: label index {entry[2]!r} is not an "
                    f"int in [0, {n_labels})"
                )
    return users, costs, ids


def _compact(entries: List[Any]) -> Tuple[List[str], List[List[Any]]]:
    """A log of ``{"user", "epsilon", "label"}`` objects, the form
    written before ``labels``, as labels in first-use order and
    ``[user, epsilon, label index]`` arrays; ``ValueError`` names the
    first malformed entry."""
    index: Dict[str, int] = {}
    log = []
    for n, entry in enumerate(entries):
        if not (isinstance(entry, dict) and "user" in entry
                and "epsilon" in entry):
            raise ValueError(
                f"log entry {n} is not a {{user, epsilon, label}} object"
            )
        label = str(entry.get("label", ""))
        log.append([
            str(entry["user"]),
            entry["epsilon"],
            index.setdefault(label, len(index)),
        ])
    return list(index), log


def _floats(values: Iterable[Any]) -> np.ndarray:
    """``values`` as float64, ``ValueError`` for one that is not a
    number."""
    try:
        return np.array(list(map(float, values)), dtype=float)
    except (TypeError, OverflowError) as exc:
        raise ValueError(str(exc)) from None


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


def _object_text(names: List[str], values: np.ndarray) -> str:
    """``json.dumps`` of the object mapping each of the encoded
    ``names`` to its finite float in ``values``.

    Built directly, with ``float.__repr__`` (``json.dumps``' text for a
    finite float) taken once per bit pattern, so ``-0.0`` keeps its own.
    """
    bits, which = np.unique(values.view(np.int64), return_inverse=True)
    reprs = list(map(float.__repr__, bits.view(np.float64).tolist()))
    text = ["", ": ", "", ", "] * len(names)
    text[0::4] = names
    text[2::4] = map(reprs.__getitem__, which.tolist())
    text[-1:] = ["}"]  # the last ", ", or the whole of an empty map
    return "{" + "".join(text)
