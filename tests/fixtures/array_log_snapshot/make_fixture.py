"""Write the array-log upgrade fixture next to this file.

The fixture is the snapshot directory of a server whose manifest holds
the charge log as one ``[user, epsilon, label index]`` array per
charge, the form written before the log named each charge's user by
its row in ``spent``.  ``tests/test_service_upgrade.py`` boots today's
server on a copy of it and checks the rewrite against the manifest
itself, so there is no ``expected.json``.

This script needs a server that still writes that form, so it only
runs against a checkout of git commit 2ed8a6a or earlier (and later
than the ``labels`` list, which came in before it):

    PYTHONPATH=<old checkout>/src python tests/fixtures/array_log_snapshot/make_fixture.py

Setup: two campaigns with different epsilons (OUE frequency at 1.0,
multidim HM at 0.5), 3 rounds of one batch per campaign for 4 users,
then one explicit checkpoint.  In round 1 the frequency batch lists
``u1`` twice, so ``u1`` is charged 2.0 between charges of 1.0.
"""

import shutil
from pathlib import Path

import numpy as np

from repro.protocol import Protocol
from repro.service import IngestionServer, ServiceClient, SnapshotStore

HERE = Path(__file__).resolve().parent
ROUNDS = 3
USERS = ["u0", "u1", "u2", "u3"]


def main() -> None:
    snapshots = HERE / "snapshots"
    shutil.rmtree(snapshots, ignore_errors=True)
    campaigns = {
        "oue": Protocol.frequency(1.0, domain=8, oracle="oue"),
        "hm": Protocol.multidim(0.5, d=2, mechanism="hm"),
    }
    server = IngestionServer(
        campaigns["oue"],
        campaigns=[campaigns["hm"].spec],
        lifetime_epsilon=8.0,
        store=SnapshotStore(snapshots),
    ).run_in_thread()
    try:
        base = ServiceClient("127.0.0.1", server.port)
        for r in range(ROUNDS):
            for name, protocol in campaigns.items():
                twice = (r, name) == (1, "oue")  # u1 at multiplicity 2
                users = USERS[:2] + USERS[1:] if twice else USERS
                rng = np.random.default_rng(10 * r + len(name))
                values = (
                    rng.integers(0, 8, len(users))
                    if name == "oue"
                    else rng.uniform(-1, 1, (len(users), 2))
                )
                base.for_campaign(protocol.spec).submit(
                    values, users, rng=rng, idempotency_key=f"{name}-r{r}",
                    round=r,
                )
        base.checkpoint()
    finally:
        server.stop()


if __name__ == "__main__":
    main()
