"""QA401 — snapshot completeness for ``ServerAccumulator`` subclasses.

Bitwise kill-and-resume (PR 3) works because ``state_dict`` /
``load_state`` round-trip *all* of an accumulator's sufficient
statistics.  The failure mode this rule exists for is silent state
drift: someone adds a new running statistic to an accumulator's
``__init__`` and forgets to add it to ``state_dict`` — every runtime
test that doesn't kill-and-resume that exact accumulator still
passes, but a restored server silently continues from a partial
state.

Two checks, for every class that (transitively) subclasses
``ServerAccumulator``:

* the full accumulator surface — ``_parse`` / ``_fold`` (the one
  absorb path: the root derives ``absorb`` and ``validate`` from
  them) and ``merge`` / ``state_dict`` / ``load_state`` — is
  implemented by the class or an ancestor (the abstract root's stubs
  do not count);
* every underscore-prefixed attribute assigned in ``__init__``
  anywhere along the chain (the repo's convention for mutable
  sufficient statistics — public attributes are immutable
  configuration rebuilt from the ``ProtocolSpec``) appears, minus its
  leading underscores, as a string key in the nearest ``state_dict``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from repro.qa.core import Module, Project, Rule, Violation

#: The abstract base whose subclasses must be snapshot-complete.
ROOT_CLASS = "ServerAccumulator"

#: The surface every concrete accumulator must implement: the parse
#: and fold halves of the one absorb path, plus merge and snapshots.
REQUIRED_METHODS = ("_parse", "_fold", "merge", "state_dict", "load_state")


@dataclass
class _ClassInfo:
    module: Module
    node: ast.ClassDef

    @property
    def name(self) -> str:
        return self.node.name

    def base_names(self) -> List[str]:
        names = []
        for base in self.node.bases:
            # accumulators.ServerAccumulator -> last segment; bare-name
            # linkage is what fixtures and the real tree share.
            if isinstance(base, ast.Attribute):
                names.append(base.attr)
            elif isinstance(base, ast.Name):
                names.append(base.id)
        return names

    def method(self, name: str) -> Optional[ast.AST]:
        for item in self.node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == name
            ):
                return item
        return None


def _underscore_attrs(init: ast.AST) -> Dict[str, ast.AST]:
    """``self._x`` assignments in an ``__init__`` body, by name."""
    attrs: Dict[str, ast.AST] = {}
    for node in ast.walk(init):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr.startswith("_")
                and not target.attr.startswith("__")
            ):
                attrs.setdefault(target.attr, node)
    return attrs


def _string_constants(func: ast.AST) -> Set[str]:
    return {
        node.value
        for node in ast.walk(func)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


class SnapshotCompletenessRule(Rule):
    id = "QA401"
    name = "snapshot-completeness"
    description = (
        "every ServerAccumulator subclass implements _parse/_fold/"
        "merge/state_dict/load_state, and every sufficient statistic "
        "assigned in __init__ appears as a state_dict key — partial "
        "snapshots silently corrupt kill-and-resume"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        table: Dict[str, List[_ClassInfo]] = {}
        for module in project.modules:
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    table.setdefault(node.name, []).append(
                        _ClassInfo(module=module, node=node)
                    )
        if ROOT_CLASS not in table:
            return
        for infos in table.values():
            for info in infos:
                if info.name == ROOT_CLASS:
                    continue
                chain = self._ancestor_chain(info, table)
                if chain is None:
                    continue  # not a ServerAccumulator subclass
                yield from self._check_class(info, chain)

    # ------------------------------------------------------------------
    def _ancestor_chain(
        self,
        info: _ClassInfo,
        table: Dict[str, List[_ClassInfo]],
    ) -> Optional[List[_ClassInfo]]:
        """[info, parent, grandparent, ...] up to (excluding) the root;
        ``None`` when the chain never reaches ``ServerAccumulator``."""
        chain: List[_ClassInfo] = []
        seen: Set[int] = set()
        reaches_root = False

        def visit(current: _ClassInfo) -> None:
            nonlocal reaches_root
            if id(current.node) in seen:
                return
            seen.add(id(current.node))
            chain.append(current)
            for base in current.base_names():
                if base == ROOT_CLASS:
                    reaches_root = True
                    continue
                for candidate in table.get(base, []):
                    visit(candidate)

        visit(info)
        return chain if reaches_root else None

    def _check_class(
        self, info: _ClassInfo, chain: List[_ClassInfo]
    ) -> Iterator[Violation]:
        for method in REQUIRED_METHODS:
            if not any(c.method(method) for c in chain):
                yield self.violation(
                    info.module,
                    info.node,
                    f"accumulator {info.name} never implements "
                    f"{method}() — without it the accumulator cannot "
                    f"absorb, merge or survive a checkpoint",
                )
        state_dict = next(
            (c.method("state_dict") for c in chain if c.method("state_dict")),
            None,
        )
        if state_dict is None:
            return  # already reported above
        keys = _string_constants(state_dict)
        for owner in chain:
            init = owner.method("__init__")
            if init is None:
                continue
            for attr, node in _underscore_attrs(init).items():
                expected = attr.lstrip("_")
                if expected not in keys and attr not in keys:
                    yield self.violation(
                        info.module,
                        node,
                        f"sufficient statistic self.{attr} (assigned in "
                        f"{owner.name}.__init__) has no "
                        f"{expected!r} key in the governing state_dict "
                        f"— kill-and-resume would silently drop it for "
                        f"{info.name}",
                    )
