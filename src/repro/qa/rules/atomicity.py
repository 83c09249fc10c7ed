"""QA301 — no ``await`` between a budget charge and its paired absorb.

The ingestion server's whole-batch 429 guarantee — either every user
in a batch is charged and the batch absorbed, or nothing happens —
relies on the check / absorb / charge sequence executing as one
uninterrupted critical section on the event loop.  Handlers are
deliberately synchronous today; the easiest way to break them is to
make one ``async`` and slip an ``await`` (a checkpoint write, a log
flush) between the accumulator ``absorb`` and the ledger charge.  At
that suspension point another batch for the same users can interleave
and pass its own budget pre-check against a ledger that has not yet
recorded this batch's spend — double-charging past
``lifetime_epsilon`` without any error surfacing.

This rule flags every ``await`` expression positioned between an
absorb call (``absorb``, or the campaign's ``absorb_shard``) or the
ingest path's ``admit`` step, and a ledger charge call (``charge``,
``charge_batch``, ``charge_group``) or the ``commit`` step, inside the
same function of a service handler module.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.qa.core import Module, Project, Rule, Violation

#: Modules whose handlers own the charge/absorb critical section.
HANDLER_MODULES: Tuple[str, ...] = (
    "repro.service.server",
    "repro.service.ingest",
)

#: Method names that fold reports into an accumulator.
ABSORB_METHODS = frozenset({"absorb", "absorb_shard"})

#: Method names that charge a PrivacyAccountant / CrossCampaignLedger.
CHARGE_METHODS = frozenset({"charge", "charge_batch", "charge_group"})

#: The ingest steps (``repro.service.ingest``) that open and close the
#: same section: the budget test, and the absorb and charge it licenses.
ADMIT, COMMIT = "admit", "commit"


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class ChargeAbsorbAtomicityRule(Rule):
    id = "QA301"
    name = "charge-absorb-atomicity"
    description = (
        "no await between an accumulator absorb (or the ingest admit) "
        "and its paired ledger charge (or the ingest commit) in service "
        "handlers — a suspension point there lets a concurrent batch "
        "double-spend past the atomic 429 pre-check"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.matching(*HANDLER_MODULES):
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: Module, func: ast.AST
    ) -> Iterator[Violation]:
        absorbs: List[int] = []
        charges: List[int] = []
        awaits: List[ast.Await] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in ABSORB_METHODS or name == ADMIT:
                    absorbs.append(node.lineno)
                elif name in CHARGE_METHODS or name == COMMIT:
                    charges.append(node.lineno)
            elif isinstance(node, ast.Await):
                awaits.append(node)
        if not absorbs or not charges or not awaits:
            return
        lo = min(absorbs + charges)
        hi = max(absorbs + charges)
        for node in awaits:
            if lo <= node.lineno <= hi:
                yield self.violation(
                    module,
                    node,
                    "await between an accumulator absorb or admit (line "
                    f"{min(absorbs)}) and a ledger charge or commit (line "
                    f"{max(charges)}): the section must run uninterrupted "
                    "so batch 429 rollback can never interleave",
                )
