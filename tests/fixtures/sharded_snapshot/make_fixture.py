"""Write the sharded-snapshot upgrade fixture next to this file.

The fixture is a snapshot directory left behind by a server that ran
the removed ``--shards`` ingestion tier, plus ``expected.json``: what
that server answered before it stopped.  ``tests/test_service_upgrade.py``
boots today's server on a copy of the directory and compares.

This script needs the ``IngestionServer(shards=...)`` parameter, so it
only runs against a checkout that still has the shard tier (git commit
f3a3a08 or earlier):

    PYTHONPATH=<old checkout>/src python tests/fixtures/sharded_snapshot/make_fixture.py

Setup: two shard workers, every campaign windowed over 2 panes, an OUE
frequency campaign (the default) and a multidim HM campaign, 3 rounds
of 2 batches per campaign, then one explicit checkpoint.
"""

import json
import shutil
from pathlib import Path

import numpy as np

from repro.protocol import Protocol
from repro.service import IngestionServer, ServiceClient, SnapshotStore, wire

HERE = Path(__file__).resolve().parent
ROUNDS = 3
BATCHES_PER_ROUND = 2
USERS_PER_BATCH = 5


def _hex(estimate) -> str:
    return np.asarray(estimate, dtype="<f8").tobytes().hex()


def main() -> None:
    snapshots = HERE / "snapshots"
    shutil.rmtree(snapshots, ignore_errors=True)
    campaigns = {
        "oue": Protocol.frequency(1.0, domain=8, oracle="oue"),
        "hm": Protocol.multidim(1.0, d=4, mechanism="hm"),
    }
    server = IngestionServer(
        campaigns["oue"],
        campaigns=[campaigns["hm"].spec],
        lifetime_epsilon=8.0,
        store=SnapshotStore(snapshots),
        shards=2,
        window={"panes": 2},
    ).run_in_thread()
    try:
        base = ServiceClient("127.0.0.1", server.port)
        clients = {
            name: base.for_campaign(protocol.spec)
            for name, protocol in campaigns.items()
        }
        replay = None
        for r in range(ROUNDS):
            for b in range(BATCHES_PER_ROUND):
                users = [
                    f"u{b * USERS_PER_BATCH + i}"
                    for i in range(USERS_PER_BATCH)
                ]
                rng = np.random.default_rng(100 * r + b)
                values = {
                    "oue": rng.integers(0, 8, USERS_PER_BATCH),
                    "hm": rng.uniform(-1, 1, (USERS_PER_BATCH, 4)),
                }
                for name, protocol in campaigns.items():
                    reports = protocol.client().encode_batch(
                        values[name], np.random.default_rng(1000 * r + b)
                    )
                    key = f"{name}-r{r}-b{b}"
                    clients[name].submit_reports(
                        reports, users, idempotency_key=key, round=r
                    )
                    if replay is None and name == "hm":
                        replay = {
                            "campaign": clients[name].fingerprint,
                            "round": r,
                            "users": users,
                            "idempotency_key": key,
                            "reports": wire.encode_reports(reports),
                        }
        # Both shards must hold part of every campaign, or the fold at
        # boot has nothing to merge.
        for campaign in server.registry:
            counts = [acc.count for acc in campaign.accumulators]
            assert all(counts), counts
        estimates = {
            name: {
                "campaign": client.fingerprint,
                "all_time": _hex(client.estimate()),
                "window_2": _hex(client.estimate(window=2)),
            }
            for name, client in clients.items()
        }
        health = base.healthz()
        seq = base.checkpoint()
    finally:
        server.stop()
    expected = {
        "seq": seq,
        "estimates": estimates,
        "healthz": {
            key: health[key]
            for key in (
                "reports",
                "batches_accepted",
                "duplicates",
                "users_charged",
                "lifetime_epsilon",
                "campaigns",
            )
        },
        "replay": replay,
    }
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
