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
label}`` objects, the form written before ledgers had ``labels``; the
next checkpoint rewrites it as ``[user, epsilon, label index]``
arrays.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.accountant import Charge
from repro.campaigns import CrossCampaignLedger
from repro.service import IngestionServer, ServiceClient, SnapshotStore, wire

FIXTURE = Path(__file__).parent / "fixtures" / "sharded_snapshot"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text())


def _hex(estimate):
    return np.asarray(estimate, dtype="<f8").tobytes().hex()


@pytest.fixture
def boot(tmp_path):
    snapshots = tmp_path / "snapshots"
    shutil.copytree(FIXTURE / "snapshots", snapshots)
    running = []

    def _boot():
        server = IngestionServer(
            store=SnapshotStore(snapshots),
            lifetime_epsilon=EXPECTED["healthz"]["lifetime_epsilon"],
        ).run_in_thread()
        running.append(server)
        return ServiceClient("127.0.0.1", server.port)

    yield _boot, snapshots
    for server in running:
        server.stop()


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


def test_next_checkpoint_writes_the_compact_charge_log(boot):
    """The fixture's manifest holds its 60 charges as ``{user, epsilon,
    label}`` objects.  The first checkpoint after boot writes them as
    ``[user, epsilon, label index]`` arrays into ``labels``, with every
    charge, spend and per-campaign breakdown as it was; a second
    restart writes that manifest back byte for byte."""
    start, snapshots = boot
    old = json.loads(
        (FIXTURE / "snapshots" / f"snapshot-{EXPECTED['seq']:010d}.json")
        .read_text()
    )["ledger"]
    assert "labels" not in old and len(old["ledger"]) == 60
    seq = start().checkpoint()
    path = SnapshotStore(snapshots).path(seq)
    new = json.loads(path.read_bytes())["ledger"]
    assert new["labels"] == list(
        dict.fromkeys(entry["label"] for entry in old["ledger"])
    )
    assert len(new["ledger"]) == 60
    assert all(
        isinstance(entry, list) and len(entry) == 3
        for entry in new["ledger"]
    )
    upgraded = CrossCampaignLedger.from_dict(new)
    assert upgraded.accountant.ledger == tuple(
        Charge(**entry) for entry in old["ledger"]
    )
    by_campaign = {}
    for entry in old["ledger"]:
        user, label = entry["user"], entry["label"]
        spent = by_campaign.setdefault(user, {})
        spent[label] = spent.get(label, 0.0) + entry["epsilon"]
    assert new["spent"] == old["spent"]
    for user, spent in old["spent"].items():
        assert upgraded.spent(user) == spent, user
        assert upgraded.spent_by_campaign(user) == by_campaign[user], user
    written = path.read_bytes()
    assert start().checkpoint() == seq
    assert path.read_bytes() == written
