"""QA501 — wire-codec exhaustiveness for report containers.

The service's never-silent-mis-aggregation guarantee assumes every
report container a protocol can emit crosses the service boundary
bitwise on both wire formats, and reaches the accumulators at all.
All of it goes through one conversion: the container's own
``to_block()`` method, which ``repro.protocol.reports.to_block``
dispatches to, gives the ``ColumnBlock`` that the v2 client frames,
that ``encode_reports`` writes as v1 JSON and ``decode_reports`` reads
back (both in ``repro.service.wire``), and that an accumulator parses
and folds.

A container without ``to_block()`` only fails at runtime, on the first
live submission of that protocol kind — long after review; a codec
function that named containers instead could carry one across v2 but
not v1, splitting the fleet.

This rule checks statically that every top-level class of
``repro.protocol.reports`` but the ``ColumnBlock`` carrier defines a
``to_block`` method, and that the conversion function and both codec
functions refer to ``to_block``.  A container defined elsewhere
(``OLHReports``, ``MixedReports``) is one because it defines
``to_block``.  The check runs only when the reports and codec modules
are both in the linted set (the full ``src`` run CI gates on).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.qa.core import Module, Project, Rule, Violation

#: Module defining the report containers and the container -> block
#: conversion.
REPORTS_MODULE = "repro.protocol.reports"

#: Module holding the v1 JSON codec.
CODEC_MODULE = "repro.service.wire"

#: The v1 JSON codec functions, each of which must go through the
#: conversion.
CODEC_FUNCTIONS = ("encode_reports", "decode_reports")

#: The one container -> block conversion, and the method it dispatches
#: to on every container.
CONVERSION = "to_block"

#: Wire-form carriers defined alongside the containers: they *are* the
#: encoding, so demanding a conversion for them is circular.
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


class WireCodecExhaustivenessRule(Rule):
    id = "QA501"
    name = "wire-codec-exhaustiveness"
    description = (
        "every report container needs a to_block() method the "
        "protocol's one container->block conversion dispatches to, and "
        "the v1 codec in service/wire.py (encode_reports/decode_reports) "
        "must go through to_block() — an unconverted container only "
        "fails on the first live submission, and a codec that names "
        "containers can carry one across v2 but not v1"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        reports = project.find(REPORTS_MODULE)
        codec = project.find(CODEC_MODULE)
        if reports is None or codec is None:
            return  # partial runs (single files) cannot do this check
        legs = [
            (
                reports,
                CONVERSION,
                f"{reports.name}.{CONVERSION}() no longer dispatches "
                f"through the containers' .{CONVERSION}() methods",
            )
        ]
        legs += [
            (
                codec,
                name,
                f"{codec.name}.{name}() does not go through "
                f"{CONVERSION}(), so a container it does not name "
                f"cannot cross the v1 wire that v2 carries it over",
            )
            for name in CODEC_FUNCTIONS
        ]
        functions = []
        for module, name, _ in legs:
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
            functions.append(func)
        for (module, _, message), func in zip(legs, functions):
            if CONVERSION not in _referenced_names(func):
                yield self.violation(module, func, message)
        for node in reports.tree.body:
            if (
                isinstance(node, ast.ClassDef)
                and node.name not in CARRIER_CLASSES
                and not _defines_method(node, CONVERSION)
            ):
                yield self.violation(
                    reports,
                    node,
                    f"report container {node.name} defines no "
                    f"{CONVERSION}() method, so {reports.name}."
                    f"{CONVERSION}() cannot turn it into the block "
                    f"both wire formats carry and accumulators fold",
                )
