"""Booting the server on a snapshot written by a sharded server.

``fixtures/sharded_snapshot/snapshots`` is the snapshot directory a
server running the removed ``--shards 2`` ingestion tier left behind:
two campaigns windowed over 2 panes (OUE frequency and multidim HM),
three rounds of batches, one checkpoint.  Each campaign payload there
holds one accumulator state per shard under ``shard_accumulators``.
``expected.json`` records what that server served before it stopped:
the estimate bytes (float64 little-endian, hex), ``/healthz`` figures
and one accepted batch.  ``make_fixture.py`` regenerates both from an
old checkout.

Boot folds the per-shard states into one accumulator in shard-index
order, the merge the sharded server ran for every estimate, so the
estimates must come back bitwise-equal.

The manifest there also holds the charge log as ``{user, epsilon,
label}`` objects, the form written before ledgers had ``labels``.
``fixtures/array_log_snapshot/snapshots`` holds it as ``[user,
epsilon, label index]`` arrays into ``labels``, the form written after
that (two campaigns, one user charged at multiplicity 2; its
``make_fixture.py`` needs a checkout that still writes that form).  The
next checkpoint rewrites either as rows of ``spent`` with ``runs``.
``fixtures/row_log_snapshot/snapshots`` already holds that row form,
but with ``json.dumps``' default ``", "`` and ``": "`` separators, as
every cut was written before cuts became compact JSON.  Each rewrite is
compact canonical JSON.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.accountant import Charge, PrivacyAccountant
from repro.service import IngestionServer, ServiceClient, SnapshotStore, wire

FIXTURE = Path(__file__).parent / "fixtures" / "sharded_snapshot"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text())
ARRAY_FIXTURE = Path(__file__).parent / "fixtures" / "array_log_snapshot"
ROW_FIXTURE = Path(__file__).parent / "fixtures" / "row_log_snapshot"


def _hex(estimate):
    return np.asarray(estimate, dtype="<f8").tobytes().hex()


def _booter(tmp_path, fixture, lifetime_epsilon, running):
    """A function that boots a server on one copy of ``fixture``'s
    snapshots, and that copy."""
    snapshots = tmp_path / "snapshots"
    shutil.copytree(fixture / "snapshots", snapshots)

    def _boot():
        server = IngestionServer(
            store=SnapshotStore(snapshots),
            lifetime_epsilon=lifetime_epsilon,
        ).run_in_thread()
        running.append(server)
        return ServiceClient("127.0.0.1", server.port)

    return _boot, snapshots


@pytest.fixture
def running():
    servers = []
    yield servers
    for server in servers:
        server.stop()


@pytest.fixture
def boot(tmp_path, running):
    return _booter(
        tmp_path, FIXTURE, EXPECTED["healthz"]["lifetime_epsilon"], running
    )


def _assert_estimates_match(client):
    for name, expected in EXPECTED["estimates"].items():
        campaign = client.for_campaign(expected["campaign"])
        assert _hex(campaign.estimate()) == expected["all_time"], name
        assert _hex(campaign.estimate(window=2)) == expected["window_2"], (
            name
        )


def test_estimates_are_bitwise_equal(boot):
    client = boot[0]()
    _assert_estimates_match(client)


def test_healthz_and_batch_counts_match(boot):
    health = boot[0]().healthz()
    assert health["resumed_from_snapshot"] == EXPECTED["seq"]
    for key, value in EXPECTED["healthz"].items():
        assert health[key] == value, key


def test_replayed_batch_is_a_duplicate(boot):
    client = boot[0]()
    replay = EXPECTED["replay"]
    response = client.for_campaign(replay["campaign"]).submit_reports(
        wire.decode_reports(replay["reports"]),
        replay["users"],
        idempotency_key=replay["idempotency_key"],
        round=replay["round"],
    )
    assert response["status"] == "duplicate"
    health = client.healthz()
    assert health["duplicates"] == 1
    assert health["reports"] == EXPECTED["healthz"]["reports"]


def test_next_checkpoint_writes_one_accumulator(boot):
    start, snapshots = boot
    client = start()
    seq = client.checkpoint()
    store = SnapshotStore(snapshots)
    for name, expected in EXPECTED["estimates"].items():
        namespace = store.namespace(expected["campaign"])
        payload = namespace.load(namespace.latest_sequence())
        assert "accumulator" in payload, name
        assert "shard_accumulators" not in payload, name
        assert "shards" not in payload, name
    # The rewritten snapshot resumes to the same estimates.
    resumed = start()
    assert resumed.healthz()["resumed_from_snapshot"] == seq
    _assert_estimates_match(resumed)


def _old_manifest(fixture):
    """The ledger of the one manifest in ``fixture``'s snapshots."""
    (path,) = (fixture / "snapshots").glob("snapshot-*.json")
    return json.loads(path.read_text())["ledger"]


def _assert_upgrades(start, snapshots, spent, charges):
    """The first checkpoint after boot writes the manifest as compact
    canonical JSON and the ledger's log as rows of ``spent`` with
    ``runs``, holding every ``(user, epsilon, label)`` of ``charges``
    and every balance of ``spent`` as it was, and a second restart
    writes that manifest back byte for byte.  Returns the new ledger."""
    seq = start().checkpoint()
    path = SnapshotStore(snapshots).path(seq)
    written = path.read_bytes()
    manifest = json.loads(written)
    assert json.dumps(manifest, separators=(",", ":")).encode() == written
    new = manifest["ledger"]
    assert list(new) == [
        "type", "lifetime_epsilon", "spent", "labels", "runs", "ledger",
    ]
    assert new["spent"] == spent
    assert new["labels"] == list(dict.fromkeys(c[2] for c in charges))
    users = list(spent)
    assert all(type(row) is int for row in new["ledger"])
    assert new["ledger"] == [users.index(user) for user, _, _ in charges]
    assert [
        (epsilon, new["labels"][i])
        for count, epsilon, i in new["runs"]
        for _ in range(count)
    ] == [(epsilon, label) for _, epsilon, label in charges]
    upgraded = PrivacyAccountant.from_dict(new)
    assert upgraded.ledger == tuple(
        Charge(*charge) for charge in charges
    )
    by_campaign = {}
    for user, epsilon, label in charges:
        spent_by = by_campaign.setdefault(user, {})
        spent_by[label] = spent_by.get(label, 0.0) + epsilon
    for user, balance in spent.items():
        assert upgraded.spent(user) == balance, user
        assert upgraded.spent_by_label(user) == by_campaign[user], user
    assert start().checkpoint() == seq
    assert path.read_bytes() == written
    return new


def test_next_checkpoint_writes_the_row_charge_log(boot):
    """The sharded fixture's manifest holds its 60 charges as ``{user,
    epsilon, label}`` objects."""
    old = _old_manifest(FIXTURE)
    assert "labels" not in old and len(old["ledger"]) == 60
    new = _assert_upgrades(
        *boot,
        old["spent"],
        [(e["user"], e["epsilon"], e["label"]) for e in old["ledger"]],
    )
    assert len(new["ledger"]) == 60


def test_array_log_manifest_upgrades_to_rows(tmp_path, running):
    """The array fixture's manifest holds its 24 charges as ``[user,
    epsilon, label index]`` arrays.  Its runs are maximal: ``u1``'s
    charge of 2.0 at multiplicity 2 splits the frequency campaign's
    second batch in three."""
    old = _old_manifest(ARRAY_FIXTURE)
    assert "runs" not in old and len(old["ledger"]) == 24
    new = _assert_upgrades(
        *_booter(tmp_path, ARRAY_FIXTURE, old["lifetime_epsilon"], running),
        old["spent"],
        [(user, cost, old["labels"][i]) for user, cost, i in old["ledger"]],
    )
    assert new["runs"] == [
        [4, 1.0, 0], [4, 0.5, 1],
        [1, 1.0, 0], [1, 2.0, 0], [2, 1.0, 0], [4, 0.5, 1],
        [4, 1.0, 0], [4, 0.5, 1],
    ]


def test_spaced_row_log_manifest_is_rewritten_compact(tmp_path, running):
    """The row fixture's manifest holds its 24 charges as rows of
    ``spent`` with ``runs``, written with spaces after every ``,`` and
    ``:``.  The rewrite keeps the ledger as it was and drops only the
    spaces."""
    (path,) = (ROW_FIXTURE / "snapshots").glob("snapshot-*.json")
    raw = path.read_bytes()
    manifest = json.loads(raw)
    assert json.dumps(manifest).encode() == raw
    old = manifest["ledger"]
    assert len(old["ledger"]) == 24
    users = list(old["spent"])
    costs = [
        (epsilon, old["labels"][i])
        for count, epsilon, i in old["runs"]
        for _ in range(count)
    ]
    new = _assert_upgrades(
        *_booter(tmp_path, ROW_FIXTURE, old["lifetime_epsilon"], running),
        old["spent"],
        [
            (users[row], epsilon, label)
            for row, (epsilon, label) in zip(old["ledger"], costs)
        ],
    )
    assert new == old
