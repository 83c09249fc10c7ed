"""QA201 — privacy boundary: the server tier never sees raw values.

The paper's trust model is enforced structurally: perturbation happens
on the client, the server (and the wire) only ever see privatized
reports, and accumulators hold sufficient statistics.  The code keeps
that boundary by construction — server-tier modules simply have no
path to the client-side raw-value machinery.  This rule pins the
construction down: the modules that run on the aggregator
(``repro.service.server`` and its ingest path ``repro.service.ingest``,
the ``repro.campaigns`` package, ``repro.protocol.accumulators``) may
not import — at any nesting depth, including function-local imports —
the modules that encode or hold raw user values (client encoders,
numeric mechanisms, raw datasets).

An import here is almost always the first step of "just decode the
report server-side for a quick check" — exactly the edit that
dissolves the trust model while every runtime test stays green.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.qa.core import Project, Rule, Violation

#: Modules that run on the aggregator and must stay report-only.
#: The streaming window/heavy-hitter machinery aggregates privatized
#: panes server-side, so it is held to the same bar; the *memoization*
#: cache (repro.stream.memo) is deliberately absent — it wraps client
#: encoders and runs on the user's device.
SERVER_TIER: Tuple[str, ...] = (
    "repro.service.server",
    "repro.service.ingest",
    "repro.campaigns",
    "repro.protocol.accumulators",
    "repro.stream.windows",
    "repro.stream.heavy",
)

#: Client-side raw-value machinery: encoders that perturb true values,
#: the numeric mechanisms they wrap, and raw dataset handling.
FORBIDDEN: Tuple[str, ...] = (
    "repro.protocol.encoders",
    "repro.frequency.encoders",
    "repro.core",
    "repro.data",
    "repro.multidim.collector",
    "repro.multidim.splitting",
)


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


class PrivacyBoundaryRule(Rule):
    id = "QA201"
    name = "privacy-boundary"
    description = (
        "server-tier modules (service.server, service.ingest, "
        "campaigns, protocol.accumulators) must not import client-side "
        "raw-value encoding internals; accumulators hold sufficient "
        "statistics only"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.matching(*SERVER_TIER):
            reported = set()
            for imported, node in module.imported_modules():
                banned = next(
                    (p for p in FORBIDDEN if _under(imported, p)), None
                )
                if banned is None:
                    continue
                if node.lineno in reported:
                    continue
                reported.add(node.lineno)
                yield self.violation(
                    module,
                    node,
                    f"server-tier module {module.name} imports "
                    f"client-side encoding internals ({imported}); the "
                    f"aggregator must only ever touch privatized "
                    f"reports and sufficient statistics",
                )
