"""The array-backed accountant against its reference model.

``reference_accountant.PrivacyAccountant`` is the dict-and-dataclass
accountant the array-backed one replaced (with exact atomic rollback).
Random operation sequences run through both; after every step each
public read and the bytes of the compact ``json.dumps(to_dict())``
must agree, so every balance is bitwise the one-user-at-a-time
arithmetic.  The checkpoint encoder (``json_parts``) must give those
same bytes after every step, whether its chunk cache is partly filled
(step by step) or cold (after a round trip through ``from_dict``),
under the head a server's cut writes first.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_accountant as ref_mod
from repro.analysis import accountant as new_mod

#: The last two need JSON escaping.
USERS = ["a", "b", "c", "d", "e", "\u00fc", 'q"\\']
LABELS = ["", "oue", "hm"]
#: 0.1, 0.3 and 0.7 are inexact in binary: sums of them round.
EPS = st.one_of(
    st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]),
    st.floats(min_value=1e-3, max_value=3.0),
)
#: The keys a server's cut writes before the accountant's own.
HEAD = {"type": "cross-campaign-ledger"}
#: The separators of a checkpoint's JSON text.
COMPACT = (",", ":")
#: Spend-bucket bounds; a single charge of 0.1, 0.5 or 1.0 lands on one.
BOUNDS = (0.1, 0.5, 1.0, 1.7, 2.5)
USER = st.sampled_from(USERS)
LABEL = st.sampled_from(LABELS)

OPS = st.one_of(
    st.tuples(st.just("charge"), USER, EPS, LABEL),
    # A charge at the cap: remaining + k * 1e-12 fits for k <= 1 only.
    st.tuples(st.just("edge"), USER, st.integers(-1, 2), LABEL),
    st.tuples(
        st.just("batch"),
        st.dictionaries(USER, st.integers(1, 3), min_size=1),
        EPS,
        LABEL,
    ),
    st.tuples(
        st.just("group"),
        st.lists(USER, min_size=1, max_size=6),
        EPS,
        LABEL,
        st.booleans(),
    ),
    st.tuples(st.just("round-trip")),
)


def _outcome(call, *args, **kwargs):
    """(result, error class name, message) of one call."""
    try:
        return call(*args, **kwargs), None, None
    except (ValueError, RuntimeError) as exc:
        return None, type(exc).__name__, str(exc)


def _reference_batch(ref, multiplicity, epsilon, label):
    """The pre-array batch path (one ``charge`` per user), made all or
    nothing: the array-backed accountant charges nobody when any user
    cannot afford their share."""
    if any(
        not ref.can_charge(user, count * epsilon)
        for user, count in multiplicity.items()
    ):
        raise ref_mod.BudgetExceededError("over budget")
    for user, count in multiplicity.items():
        ref.charge(user, count * epsilon, label=label)


def _assert_same(acc, ref):
    expected = json.dumps({**HEAD, **ref.to_dict()}, separators=COMPACT)
    assert json.dumps({**HEAD, **acc.to_dict()}, separators=COMPACT) == (
        expected
    )
    assert b"".join(acc.json_parts(HEAD)) == expected.encode()
    assert acc.users() == ref.users()
    assert acc.user_count() == len(ref.users())
    assert acc.exhausted_users() == ref.exhausted_users()
    assert acc.total_spent() == ref.total_spent()
    assert acc.spend_buckets(BOUNDS) == ref.spend_buckets(BOUNDS)
    assert [(c.user, c.epsilon, c.label) for c in acc.ledger] == [
        (c.user, c.epsilon, c.label) for c in ref.ledger
    ]
    for user in USERS:
        assert acc.spent(user) == ref.spent(user)
        assert acc.remaining(user) == ref.remaining(user)
        assert acc.spent_by_label(user) == ref.spent_by_label(user)
        for epsilon in (0.1, 0.5, 1.0):
            assert acc.can_charge(user, epsilon) == ref.can_charge(
                user, epsilon
            )


@given(
    lifetime=st.sampled_from([0.7, 1.0, 2.5, 3.0]),
    ops=st.lists(OPS, max_size=30),
)
@settings(max_examples=300, deadline=None)
def test_every_read_matches_the_reference_model(lifetime, ops):
    acc = new_mod.PrivacyAccountant(lifetime)
    ref = ref_mod.PrivacyAccountant(lifetime)
    for op in ops:
        kind = op[0]
        if kind == "charge":
            _, user, epsilon, label = op
            assert _outcome(acc.charge, user, epsilon, label) == _outcome(
                ref.charge, user, epsilon, label
            )
        elif kind == "edge":
            _, user, k, label = op
            epsilon = ref.remaining(user) + k * 1e-12
            if epsilon <= 0.0:
                continue
            assert _outcome(acc.charge, user, epsilon, label) == _outcome(
                ref.charge, user, epsilon, label
            )
        elif kind == "batch":
            _, multiplicity, epsilon, label = op
            rejected = acc.rejected_users(multiplicity, epsilon)
            assert rejected == [
                user
                for user, count in multiplicity.items()
                if not ref.can_charge(user, count * epsilon)
            ]
            new = _outcome(acc.charge_batch, multiplicity, epsilon, label)
            old = _outcome(_reference_batch, ref, multiplicity, epsilon, label)
            assert (new[1] is None) == (old[1] is None) == (not rejected)
        elif kind == "group":
            _, users, epsilon, label, atomic = op
            assert _outcome(
                acc.charge_group, users, epsilon, label, atomic=atomic
            ) == _outcome(
                ref.charge_group, users, epsilon, label, atomic=atomic
            )
        else:
            acc = new_mod.PrivacyAccountant.from_dict(
                json.loads(json.dumps({**HEAD, **acc.to_dict()}))
            )
            ref = ref_mod.PrivacyAccountant.from_dict(
                json.loads(json.dumps(ref.to_dict()))
            )
        _assert_same(acc, ref)


@pytest.mark.parametrize("module", [new_mod, ref_mod])
def test_failed_atomic_group_restores_exact_balances(module):
    """The rollback case both implementations must get right."""
    acc = module.PrivacyAccountant(1.0)
    acc.charge("u", 0.1)
    acc.charge("broke", 0.5)
    with pytest.raises(module.BudgetExceededError):
        acc.charge_group(["u", "new", "broke"], 0.7, atomic=True)
    assert acc.spent("u") == 0.1
    assert acc.users() == ("u", "broke")


@pytest.mark.parametrize("module", [new_mod, ref_mod])
def test_total_spent_adds_left_to_right(module):
    """Both implementations add the balances left to right, in
    first-charge order, on every Python: 1e16 + 1.0 rounds back to 1e16
    (a tie, to even), so the sum is 1e16, where a compensated sum
    (``math.fsum``, and ``sum()`` from Python 3.12 on) gives 1e16 + 2."""
    acc = module.PrivacyAccountant(2e16)
    for user, epsilon in (("a", 1e16), ("b", 1.0), ("c", 1.0)):
        acc.charge(user, epsilon)
    assert math.fsum([1e16, 1.0, 1.0]) == 1.0000000000000002e16
    assert acc.total_spent() == 1e16
    assert acc.spend_buckets((1.0,)) == ([2, 1], 1e16)
