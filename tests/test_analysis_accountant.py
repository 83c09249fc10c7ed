"""Tests for the per-user privacy budget accountant."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from repro.analysis.accountant import (
    BudgetExceededError,
    PrivacyAccountant,
)

#: The separators of a checkpoint's JSON text.
COMPACT = (",", ":")


class TestCharging:
    def test_initial_state(self):
        acc = PrivacyAccountant(lifetime_epsilon=4.0)
        assert acc.spent("u1") == 0.0
        assert acc.remaining("u1") == 4.0

    def test_charge_accumulates(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0, "mean query")
        acc.charge("u1", 2.0, "freq query")
        assert acc.spent("u1") == pytest.approx(3.0)
        assert acc.remaining("u1") == pytest.approx(1.0)

    def test_overdraft_rejected_and_state_unchanged(self):
        acc = PrivacyAccountant(2.0)
        acc.charge("u1", 1.5)
        with pytest.raises(BudgetExceededError):
            acc.charge("u1", 1.0)
        assert acc.spent("u1") == pytest.approx(1.5)

    def test_exact_exhaustion_allowed(self):
        acc = PrivacyAccountant(2.0)
        acc.charge("u1", 2.0)
        assert acc.remaining("u1") == pytest.approx(0.0)
        assert "u1" in acc.exhausted_users()

    def test_users_independent(self):
        acc = PrivacyAccountant(1.0)
        acc.charge("u1", 1.0)
        assert acc.can_charge("u2", 1.0)
        assert not acc.can_charge("u1", 0.5)

    def test_invalid_epsilon_rejected(self):
        acc = PrivacyAccountant(1.0)
        with pytest.raises(ValueError):
            acc.charge("u1", 0.0)
        with pytest.raises(ValueError):
            PrivacyAccountant(-1.0)


class TestGroupCharging:
    def test_only_funded_users_charged(self):
        acc = PrivacyAccountant(1.0)
        acc.charge("u1", 1.0)  # exhausted
        charged = acc.charge_group(["u1", "u2", "u3"], 0.5, "sgd iter 1")
        assert charged == ("u2", "u3")

    def test_sgd_single_participation_pattern(self):
        """The Section V pattern: with lifetime = per-iteration eps,
        every user participates in exactly one iteration."""
        acc = PrivacyAccountant(1.0)
        users = [f"u{i}" for i in range(10)]
        first = acc.charge_group(users, 1.0, "iter 1")
        second = acc.charge_group(users, 1.0, "iter 2")
        assert len(first) == 10
        assert second == ()

    def test_atomic_group_all_funded(self):
        acc = PrivacyAccountant(2.0)
        charged = acc.charge_group(
            ["u1", "u2"], 1.0, "batch", atomic=True
        )
        assert charged == ("u1", "u2")
        assert acc.spent("u1") == pytest.approx(1.0)

    def test_atomic_group_partial_failure_rolls_back(self):
        """A user failing mid-group undoes every charge already made:
        the spent map AND the ledger end exactly as they began."""
        acc = PrivacyAccountant(2.0)
        acc.charge("u1", 1.0, "earlier")
        spent_before = {u: acc.spent(u) for u in ("u1", "u2", "u3")}
        ledger_before = acc.ledger
        # u2 and u3 are funded; u1 fails AFTER both were charged
        # (iteration order is list order), forcing a real rollback.
        with pytest.raises(BudgetExceededError):
            acc.charge_group(
                ["u2", "u3", "u1"], 1.5, "batch", atomic=True
            )
        assert acc.ledger == ledger_before
        for user, spent in spent_before.items():
            assert acc.spent(user) == pytest.approx(spent)
        # The accountant still works normally afterwards.
        assert acc.charge_group(["u2"], 1.5, atomic=True) == ("u2",)

    def test_atomic_group_duplicate_user_rolls_back(self):
        """Multiplicity inside one group: each listed occurrence is a
        charge, so a duplicate can overdraw even when a per-user
        precheck passes — exactly the case rollback must cover."""
        acc = PrivacyAccountant(1.0)
        with pytest.raises(BudgetExceededError):
            acc.charge_group(["dup", "dup"], 0.7, atomic=True)
        assert acc.spent("dup") == 0.0
        assert acc.ledger == ()
        assert acc.users() == ()

    def test_atomic_rollback_restores_exact_spend(self):
        """(s + e) - e is not s in floating point: a failed group must
        leave every balance bit for bit as it was, and keep users whose
        recomputed spend would round to zero."""
        acc = PrivacyAccountant(1.0)
        acc.charge("u", 0.1)
        acc.charge("tiny", 1e-17)
        acc.charge("broke", 0.5)
        before = json.dumps(acc.to_dict())
        with pytest.raises(BudgetExceededError):
            acc.charge_group(["u", "tiny", "broke"], 0.7, atomic=True)
        assert acc.spent("u") == 0.1
        assert acc.spent("tiny") == 1e-17
        assert acc.users() == ("u", "tiny", "broke")
        assert json.dumps(acc.to_dict()) == before

    def test_non_atomic_group_keeps_skip_semantics(self):
        acc = PrivacyAccountant(1.0)
        acc.charge("u1", 1.0)
        charged = acc.charge_group(["u1", "u2"], 0.5, atomic=False)
        assert charged == ("u2",)
        assert acc.spent("u2") == pytest.approx(0.5)


class TestBatchCharging:
    def test_batch_is_all_or_nothing(self):
        acc = PrivacyAccountant(1.0)
        acc.charge("veteran", 0.8)
        before = json.dumps(acc.to_dict())
        with pytest.raises(BudgetExceededError, match="'veteran'"):
            acc.charge_batch({"fresh": 1, "veteran": 1, "pair": 2}, 0.5, "b")
        assert json.dumps(acc.to_dict()) == before
        assert acc.user_count() == 1

    def test_rejected_users_respect_multiplicity_in_order(self):
        acc = PrivacyAccountant(1.0)
        acc.charge("veteran", 0.8)
        batch = {"fresh": 1, "veteran": 1, "triple": 3, "pair": 2}
        assert acc.rejected_users(batch, 0.4) == ["veteran", "triple"]
        acc.charge_batch({"fresh": 1, "pair": 2}, 0.4, "b")
        assert acc.spent("pair") == 0.8
        assert acc.users() == ("veteran", "fresh", "pair")
        assert acc.user_count() == 3

    def test_non_positive_counts_rejected(self):
        acc = PrivacyAccountant(1.0)
        with pytest.raises(ValueError):
            acc.rejected_users({"u": 0}, 0.5)
        with pytest.raises(ValueError):
            acc.charge_batch({"u": -1}, 0.5)


class TestLedger:
    def test_ledger_records_everything(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0, "a")
        acc.charge("u2", 2.0, "b")
        assert len(acc.ledger) == 2
        assert acc.ledger[0].label == "a"
        assert acc.total_spent() == pytest.approx(3.0)

    def test_ledger_is_immutable_view(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0)
        ledger = acc.ledger
        assert isinstance(ledger, tuple)

    def test_spent_by_label_breakdown(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0, "campaign-a")
        acc.charge("u1", 0.5, "campaign-b")
        acc.charge("u1", 0.25, "campaign-a")
        acc.charge("u2", 2.0, "campaign-b")
        assert acc.spent_by_label("u1") == {
            "campaign-a": pytest.approx(1.25),
            "campaign-b": pytest.approx(0.5),
        }
        assert acc.spent_by_label("u2") == {
            "campaign-b": pytest.approx(2.0)
        }
        assert acc.spent_by_label("stranger") == {}

    def test_spent_by_label_preserves_first_charge_order(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0, "z-last-alphabetically")
        acc.charge("u1", 1.0, "a-first-alphabetically")
        assert list(acc.spent_by_label("u1")) == [
            "z-last-alphabetically",
            "a-first-alphabetically",
        ]


class TestSerialization:
    def _populated(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0, "mean query")
        acc.charge("u1", 0.5, "freq query")
        acc.charge("u2", 4.0, "sgd")
        return acc

    def test_round_trip_preserves_state(self):
        acc = self._populated()
        rebuilt = PrivacyAccountant.from_dict(acc.to_dict())
        assert rebuilt.lifetime_epsilon == acc.lifetime_epsilon
        assert rebuilt.spent("u1") == acc.spent("u1")
        assert rebuilt.spent("u2") == acc.spent("u2")
        assert rebuilt.ledger == acc.ledger
        assert rebuilt.users() == acc.users()

    def test_round_trip_survives_json(self):
        import json

        acc = self._populated()
        rebuilt = PrivacyAccountant.from_dict(
            json.loads(json.dumps(acc.to_dict()))
        )
        assert rebuilt.to_dict() == acc.to_dict()

    def test_rebuilt_accountant_keeps_enforcing(self):
        acc = self._populated()
        rebuilt = PrivacyAccountant.from_dict(acc.to_dict())
        # u2 is exhausted in the original; stays exhausted after reload.
        with pytest.raises(BudgetExceededError):
            rebuilt.charge("u2", 0.5)
        rebuilt.charge("u1", 2.5)  # exactly the remaining budget
        assert rebuilt.remaining("u1") == pytest.approx(0.0)

    def test_empty_accountant_round_trips(self):
        acc = PrivacyAccountant(2.0)
        rebuilt = PrivacyAccountant.from_dict(acc.to_dict())
        assert rebuilt.to_dict() == acc.to_dict()
        assert rebuilt.users() == ()

    @pytest.mark.parametrize(
        "spent, log, message",
        [
            ({"u": -100.0}, [], "user 'u': spent -100.0"),
            ({"u": float("inf")}, [], "user 'u': spent inf"),
            ({"v": 0.5, "u": float("nan")}, [], "user 'u': spent nan"),
            (
                {"u": 1.0},
                [{"user": "u", "epsilon": float("inf"), "label": ""}],
                "user 'u': charge inf",
            ),
            (
                {"u": 1.0, "w": 1.0},
                [
                    {"user": "u", "epsilon": 1.0, "label": "a"},
                    {"user": "w", "epsilon": 0.0, "label": "b"},
                ],
                "user 'w': charge 0.0",
            ),
        ],
    )
    def test_from_dict_rejects_out_of_range_values(self, spent, log, message):
        """A negative spend would give its user more than the lifetime
        budget; a non-finite value has no JSON text to write back.  The
        log here is in the verbose form, which the compact reader's
        cases below mirror."""
        payload = {"lifetime_epsilon": 2.0, "spent": spent, "ledger": log}
        with pytest.raises(ValueError, match=re.escape(message)):
            PrivacyAccountant.from_dict(json.loads(json.dumps(payload)))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"ledger": [["u", float("inf"), 0]]}, "user 'u': charge inf"),
            (
                {"ledger": [["u", 1.0, 0], ["w", 0.0, 1]]},
                "user 'w': charge 0.0",
            ),
            ({"labels": "ab"}, "labels is not a list"),
            ({"ledger": {"u": 1.0}}, "the charge log is not a list"),
            ({"spent": [1.0]}, "spent is not an object"),
            ({"lifetime_epsilon": None}, "lifetime_epsilon"),
            ({"ledger": [["u", 1.0]]}, "log entry 0 is not [user"),
            ({"ledger": [["u", 1.0, 0, 0]]}, "log entry 0 is not [user"),
            ({"ledger": [[1, 1.0, 0]]}, "log entry 0 is not [user"),
            ({"ledger": ["u10"]}, "log entry 0 is not [user"),
            (
                {"ledger": [["u", 1.0, 0], {"user": "u", "epsilon": 1.0}]},
                "log entry 1 is not [user",
            ),
            ({"ledger": [["u", 1.0, -1]]}, "label index -1 is not"),
            ({"ledger": [["u", 1.0, 2]]}, "label index 2 is not"),
            ({"ledger": [["u", 1.0, True]]}, "label index True is not"),
            ({"ledger": [["u", 1.0, 1.0]]}, "label index 1.0 is not"),
            ({"ledger": [["u", 1.0, "a"]]}, "label index 'a' is not"),
            ({"ledger": [["u", [1.0], 0]]}, "float() argument"),
            (
                {"ledger": [["u", 1.0, 0], ["x", 1.0, 1]]},
                "log entry 1: user 'x' has no spent entry",
            ),
            (
                {"labels": None, "ledger": [{"user": "x", "epsilon": 1.0}]},
                "log entry 0: user 'x' has no spent entry",
            ),
        ],
    )
    def test_from_dict_rejects_a_malformed_compact_log(self, fields, message):
        """A payload with ``labels`` reads its log as ``[user, epsilon,
        label index]`` arrays, and rejects one of any other shape, or an
        index that is not an int into ``labels``, with ``ValueError``.
        In either form, a logged user without a ``spent`` entry is
        rejected too: the rebuilt ledger would under-charge them."""
        payload = {
            "lifetime_epsilon": 2.0,
            "spent": {"u": 1.0, "w": 1.0},
            "labels": ["a", "b"],
            "ledger": [],
            **fields,
        }
        payload = {k: v for k, v in payload.items() if v is not None}
        with pytest.raises(ValueError, match=re.escape(message)):
            PrivacyAccountant.from_dict(json.loads(json.dumps(payload)))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"ledger": ["3"]}, "log entry 0: '3' is not a row in [0, 2)"),
            ({"ledger": [3.0]}, "log entry 0: 3.0 is not a row"),
            ({"ledger": [0, True]}, "log entry 1: True is not a row"),
            ({"ledger": [-1]}, "log entry 0: -1 is not a row"),
            ({"ledger": [2]}, "log entry 0: 2 is not a row in [0, 2)"),
            ({"ledger": [2**64]}, f"log entry 0: {2**64} is not a row"),
            ({"runs": {"0": [1, 1.0, 0]}}, "runs is not a list"),
            ({"labels": None}, "labels is not a list"),
            ({"runs": [[1, 1.0]]}, "run 0 is not [count > 0"),
            ({"runs": [[1, 1.0, 0, 0]]}, "run 0 is not [count > 0"),
            ({"runs": [[0, 1.0, 0], [1, 1.0, 0]]}, "run 0 is not"),
            ({"runs": [[-1, 1.0, 0], [2, 1.0, 0]]}, "run 0 is not"),
            ({"runs": [[True, 1.0, 0]]}, "run 0 is not"),
            ({"runs": [[2, 1.0, 0]]}, "2 charges in runs, 1 in the log"),
            (
                {"runs": [[1, 1.0, 0]], "ledger": [0, 1]},
                "1 charges in runs, 2 in the log",
            ),
            ({"runs": [[1, 0.0, 0]]}, "run 0 is not [count > 0, finite"),
            ({"runs": [[1, -1.0, 0]]}, "run 0 is not [count > 0, finite"),
            ({"runs": [[1, float("inf"), 0]]}, "run 0 is not [count > 0"),
            ({"runs": [[1, "1.0", 0]]}, "run 0 is not [count > 0"),
            ({"runs": [[1, 1.0, -1]]}, "label index in [0, 2)]: [1, 1.0, -1]"),
            ({"runs": [[1, 1.0, 2]]}, "label index in [0, 2)]: [1, 1.0, 2]"),
        ],
    )
    def test_from_dict_rejects_a_malformed_row_log(self, fields, message):
        """A payload with ``runs`` reads its log as rows of ``spent``:
        each an ``int`` (a ``bool`` is not) in ``[0, len(spent))``,
        described by runs of ``[count, epsilon, label index]`` with a
        positive ``int`` count, a finite positive float epsilon and an
        ``int`` index into ``labels``, whose counts add up to the log.
        Anything else is a ``ValueError``."""
        payload = {
            "lifetime_epsilon": 2.0,
            "spent": {"u": 1.0, "w": 1.0},
            "labels": ["a", "b"],
            "runs": [[1, 1.0, 0]],
            "ledger": [0],
            **fields,
        }
        payload = {k: v for k, v in payload.items() if v is not None}
        with pytest.raises(ValueError, match=re.escape(message)):
            PrivacyAccountant.from_dict(json.loads(json.dumps(payload)))

    def test_from_dict_reads_all_three_log_forms_alike(self):
        """The same charges as rows with runs, as ``[user, epsilon,
        label index]`` arrays, or as the ``{user, epsilon, label}``
        objects of a payload without ``labels`` rebuild the same
        accountant, which then writes the row form.  The runs are
        maximal: a user charged at multiplicity 2 splits one, and a
        later call with the same cost and label extends one."""
        acc = self._populated()
        acc.charge_batch({"u3": 1, "u1": 2, "u4": 1}, 0.25, "freq query")
        acc.charge_batch({"u3": 1}, 0.25, "freq query")
        rows = acc.to_dict()
        labels = rows["labels"]
        charges = [
            (c.user, c.epsilon, labels.index(c.label)) for c in acc.ledger
        ]
        arrays = {
            **{k: v for k, v in rows.items() if k != "runs"},
            "ledger": [list(charge) for charge in charges],
        }
        objects = {
            **{k: v for k, v in arrays.items() if k != "labels"},
            "ledger": [
                {"user": user, "epsilon": cost, "label": labels[i]}
                for user, cost, i in charges
            ],
        }
        text = json.dumps(rows, separators=COMPACT)
        for payload in (rows, arrays, objects):
            rebuilt = PrivacyAccountant.from_dict(
                json.loads(json.dumps(payload))
            )
            assert rebuilt.ledger == acc.ledger
            assert rebuilt.to_dict()["spent"] == rows["spent"]
            assert json.dumps(rebuilt.to_dict(), separators=COMPACT) == text
            assert b"".join(rebuilt.json_parts({})) == text.encode()
        assert labels == ["mean query", "freq query", "sgd"]
        assert rows["runs"] == [
            [1, 1.0, 0], [1, 0.5, 1], [1, 4.0, 2],
            [1, 0.25, 1], [1, 0.5, 1], [2, 0.25, 1],
        ]
        assert rows["ledger"] == [0, 0, 1, 2, 0, 3, 2]


class TestJsonParts:
    """``json_parts`` against the compact ``json.dumps(to_dict())`` on
    a history shaped like a durable server's: many users charged over
    rounds by two campaigns, read back at checkpoints."""

    def test_parts_spell_to_dict_at_every_checkpoint(self):
        rng = np.random.default_rng(18)
        # The last three need JSON escaping.
        users = [f"device-{i:05d}" for i in range(2000)]
        users += ['q"\\', "\u00fc", "tab\there"]
        # 0.1 and 0.3 are inexact in binary: 3 * 0.1 and 2 * 0.3 round.
        campaigns = [("campaign-a", 0.1), ('b"\u00e9', 0.3)]
        ledger = PrivacyAccountant(lifetime_epsilon=10.0)
        cuts = []
        batches = 0
        for round_ in range(4):
            if round_ == 2:
                # Spends of 0.0 and -0.0 are valid, and keep their text.
                payload = json.loads(json.dumps(ledger.to_dict()))
                payload["spent"].update({"zero": 0.0, "minus zero": -0.0})
                ledger = PrivacyAccountant.from_dict(payload)
                text = json.dumps(payload, separators=COMPACT).encode()
                assert b'"minus zero":-0.0' in text
                assert b"".join(ledger.json_parts({})) == text
            for label, epsilon in campaigns:
                for batch in np.array_split(rng.permutation(len(users)), 8):
                    counts = rng.integers(1, 4, len(batch)).tolist()
                    ledger.charge_batch(
                        dict(zip((users[i] for i in batch), counts)),
                        epsilon,
                        label,
                    )
                    batches += 1
                    if batches % 3 == 0:
                        parts = ledger.json_parts({})
                        text = json.dumps(
                            ledger.to_dict(), separators=COMPACT
                        ).encode()
                        assert b"".join(parts) == text
                        cuts.append((parts, text))
        text = json.dumps(ledger.to_dict(), separators=COMPACT).encode()
        assert b"".join(ledger.json_parts({})) == text
        assert b"".join(ledger.json_parts({})) == text  # nothing new
        # Later charges and the rebuild leave earlier parts as they were.
        for parts, text in cuts:
            assert b"".join(parts) == text


def test_charge_log_holds_no_user_names():
    """The log keeps each charge's row, not its user's name: a
    returning user, whose name arrives as a fresh ``str`` in every
    request, adds 16 B a charge, not another copy of the name.  The
    shape is ``durable-rounds``': 10,000 users in batches of 100,
    charged 12 times each."""
    users, batch = 10_000, 100
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        acc = PrivacyAccountant(12.0)
        for round_ in range(12):
            for start in range(0, users, batch):
                acc.charge_batch(
                    {f"s1-p{i}": 1 for i in range(start, start + batch)},
                    1.0,
                    f"campaign-{round_ % 2}",
                )
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert acc.user_count() == users and len(acc.ledger) == 12 * users
    assert held <= 4_000_000, f"the ledger holds {held} B"


def test_rebuilt_log_keeps_one_chunk_per_label_run():
    """A manifest splits the charges into maximal runs of one cost and
    label, but ``from_dict`` rebuilds one log chunk per run of one
    label, as the live ledger keeps about one per call.  Users charged
    at multiplicities 1 and 2 in turn make every charge its own run:
    10,000 of them, which one chunk each made 3.7 MB to hold, against
    0.8 MB now."""
    acc = PrivacyAccountant(100.0)
    for b in range(100):
        acc.charge_batch(
            {f"u{i}": 1 + i % 2 for i in range(100 * b, 100 * b + 100)},
            1.0,
            "ab"[b % 2],
        )
    payload = json.loads(json.dumps(acc.to_dict()))
    assert len(payload["runs"]) == len(payload["ledger"]) == 10_000
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        rebuilt = PrivacyAccountant.from_dict(payload)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rebuilt.to_dict() == payload
    assert held <= 1_500_000, f"the rebuilt ledger holds {held} B"
