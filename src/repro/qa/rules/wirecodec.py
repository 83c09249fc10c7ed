"""QA501 — wire-codec exhaustiveness for report containers.

The service's never-silent-mis-aggregation guarantee (PR 3) assumes
every report container a protocol can emit crosses the service
boundary bitwise on both wire formats, and reaches the accumulators
at all:

* v1 JSON: ``encode_reports`` type-tags it and ``decode_reports``
  rebuilds it (both in ``repro.service.wire``);
* the single container -> block conversion
  (``repro.protocol.reports.to_block``): it dispatches to the
  container's own ``to_block()`` method, and its output is both what
  the v2 client frames and the only form an accumulator parses and
  folds.

A container missing from any of the three only fails at runtime, on
the first live submission of that protocol kind — long after review;
worse, a container wired into only one format splits the fleet.

This rule checks statically, for every report container, that it is
referenced by name in ``encode_reports`` and ``decode_reports`` and
defines a ``to_block`` method, and that the conversion function
exists and dispatches through ``.to_block``.  The containers are the
top-level classes of ``repro.protocol.reports`` plus every top-level
class anywhere that defines ``to_block`` (``OLHReports`` and
``MixedReports`` live next to the code that emits them).
``ColumnBlock`` is exempt: it is the columnar form itself, not a
container.  The check runs only when the reports and codec modules are
both in the linted set (the full ``src`` run CI gates on).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.qa.core import Module, Project, Rule, Violation

#: Module defining the report containers and the container -> block
#: conversion.
REPORTS_MODULE = "repro.protocol.reports"

#: Module that must provide a v1 codec entry per container.
CODEC_MODULE = "repro.service.wire"

#: The v1 JSON codec functions every container must appear in.
CODEC_FUNCTIONS = ("encode_reports", "decode_reports")

#: The one container -> block conversion, and the method it dispatches
#: to on every container.
CONVERSION = "to_block"

#: Wire-form carriers defined alongside the containers: they *are* the
#: encoding, so demanding a codec entry for them is circular.
CARRIER_CLASSES = frozenset({"ColumnBlock"})


def _function(module: Module, name: str) -> Optional[ast.AST]:
    for node in module.tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ):
            return node
    return None


def _defines_method(cls: ast.ClassDef, name: str) -> bool:
    return any(
        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name == name
        for item in cls.body
    )


def _referenced_names(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _containers(
    project: Project, reports: Module
) -> Dict[str, Tuple[Module, ast.ClassDef]]:
    found: Dict[str, Tuple[Module, ast.ClassDef]] = {}
    for module in project.modules:
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name in CARRIER_CLASSES:
                continue
            if module is reports or _defines_method(node, CONVERSION):
                found.setdefault(node.name, (module, node))
    return found


class WireCodecExhaustivenessRule(Rule):
    id = "QA501"
    name = "wire-codec-exhaustiveness"
    description = (
        "every report container needs a v1 codec entry in "
        "service/wire.py (encode_reports/decode_reports) and a "
        "to_block() method the protocol's one container->block "
        "conversion dispatches to — an unregistered container only "
        "fails on the first live submission, and a half-registered "
        "one splits the v1/v2 fleet"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        reports = project.find(REPORTS_MODULE)
        codec = project.find(CODEC_MODULE)
        if reports is None or codec is None:
            return  # partial runs (single files) cannot do this check
        legs = [(codec, name) for name in CODEC_FUNCTIONS]
        legs.append((reports, CONVERSION))
        functions = {}
        for module, name in legs:
            func = _function(module, name)
            if func is None:
                yield Violation(
                    rule=self.id,
                    path=str(module.path),
                    line=1,
                    col=1,
                    message=(
                        f"module {module.name} does not define "
                        f"{name}(); the wire codec surface is gone"
                    ),
                )
                return
            functions[name] = _referenced_names(func)
        if CONVERSION not in functions.pop(CONVERSION):
            yield self.violation(
                reports,
                _function(reports, CONVERSION),
                f"{reports.name}.{CONVERSION}() no longer dispatches "
                f"through the containers' .{CONVERSION}() methods",
            )
        for module, cls in _containers(project, reports).values():
            for name, referenced in functions.items():
                if cls.name not in referenced:
                    yield self.violation(
                        module,
                        cls,
                        f"report container {cls.name} has no codec "
                        f"entry in {codec.name}.{name}(); a v1 batch "
                        f"of these reports cannot cross the service "
                        f"boundary",
                    )
            if not _defines_method(cls, CONVERSION):
                yield self.violation(
                    module,
                    cls,
                    f"report container {cls.name} defines no "
                    f"{CONVERSION}() method, so {reports.name}."
                    f"{CONVERSION}() cannot turn it into the block v2 "
                    f"clients frame and accumulators fold",
                )
