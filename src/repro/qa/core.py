"""Shared analysis core: parsed modules, import resolution, suppression.

One :class:`Project` is built per lint run; every rule receives the
same project, so files are read and parsed exactly once no matter how
many rules inspect them.  A :class:`Module` bundles what every rule
needs:

* the parsed :mod:`ast` tree and raw source lines,
* the module's dotted name (``repro.service.server``), derived from
  its path so path-scoped rules (privacy boundary, atomicity) can
  target the real tree and fixture mini-trees alike,
* an import alias map (``np`` -> ``numpy``, ``rand`` ->
  ``numpy.random.rand``) for resolving attribute chains to the module
  that actually provides them,
* the set of ``# qa: allow[RULE]`` suppressions per line.

Suppression: a ``# qa: allow[QA101]`` (comma-separate several ids,
``*`` allows everything) suppresses matching violations reported on
its own line; on a comment-only line it covers the line below, so
multi-line statements can be excused without trailing-comment clutter.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

#: Matches one escape-hatch comment; group 1 is the rule-id list.
_ALLOW_RE = re.compile(r"#\s*qa:\s*allow\[([A-Za-z0-9*,\s]+)\]")

#: Path components under which source is never linted.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".svn"}


@dataclass(frozen=True)
class Violation:
    """One finding: a rule, a location, and a human-readable message."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The conventional ``path:line:col: RULE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Rule:
    """Base class for one invariant check.

    Subclasses set ``id``/``name``/``description`` and implement
    :meth:`check`, yielding raw findings; the driver filters
    suppressed ones.
    """

    id: str = "QA000"
    name: str = "unnamed"
    description: str = ""

    def check(self, project: "Project") -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, module: "Module", node: ast.AST, message: str
    ) -> Violation:
        """A finding anchored at ``node`` inside ``module``."""
        return Violation(
            rule=self.id,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def module_name_for(path: Path) -> str:
    """Dotted module name for a source path.

    The name is rooted at the last ``src`` directory on the path when
    one exists, else at the first ``repro`` component, else it is the
    bare stem.  This keeps path-scoped rules working both on the real
    tree (``src/repro/service/server.py``) and on test fixtures laid
    out as mini-trees (``tests/qa_fixtures/QA301/bad/src/repro/...``).
    """
    parts = list(path.parts)
    parts[-1] = path.stem
    root = 0
    for i, part in enumerate(parts):
        if part == "src":
            root = i + 1
    if root == 0 and "repro" in parts:
        root = parts.index("repro")
    dotted = [p for p in parts[root:] if p]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) if dotted else path.stem


def _parse_allows(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map line number -> rule ids suppressed on that line."""
    allows: Dict[int, Set[str]] = {}
    for i, text in enumerate(lines, start=1):
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        ids = {
            token.strip()
            for token in match.group(1).split(",")
            if token.strip()
        }
        allows.setdefault(i, set()).update(ids)
        if text.lstrip().startswith("#"):
            # A comment-only line shields the statement below it.
            allows.setdefault(i + 1, set()).update(ids)
    return allows


@dataclass
class Module:
    """One parsed source file plus everything rules ask about it."""

    path: Path
    name: str
    tree: ast.Module
    lines: List[str]
    allows: Dict[int, Set[str]] = field(default_factory=dict)

    def is_suppressed(self, violation: Violation) -> bool:
        ids = self.allows.get(violation.line, ())
        return violation.rule in ids or "*" in ids

    # ------------------------------------------------------------------
    # Import resolution
    # ------------------------------------------------------------------
    @property
    def package(self) -> str:
        """The package this module lives in (for relative imports)."""
        if self.path.stem == "__init__":
            return self.name
        return self.name.rpartition(".")[0]

    def imported_modules(self) -> Iterator[tuple]:
        """Yield ``(dotted_module_name, ast_node)`` for every import.

        ``from pkg import name`` yields both ``pkg`` and
        ``pkg.name`` — the latter is how submodules are pulled in, and
        a boundary rule must treat ``from repro.protocol import
        encoders`` exactly like ``import repro.protocol.encoders``.
        Relative imports are resolved against this module's package.
        """
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, node
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base:
                    yield base, node
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    child = f"{base}.{alias.name}" if base else alias.name
                    yield child, node

    def _resolve_from(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        anchor = self.package.split(".") if self.package else []
        hops = node.level - 1
        anchor = anchor[: len(anchor) - hops] if hops else anchor
        if node.module:
            anchor = anchor + node.module.split(".")
        return ".".join(anchor)

    @cached_property
    def alias_map(self) -> Dict[str, str]:
        """Local name -> the dotted path it stands for, built once per
        module (every call a rule resolves reads it).

        ``import numpy as np`` maps ``np`` to ``numpy``;
        ``from numpy.random import rand`` maps ``rand`` to
        ``numpy.random.rand``; ``import numpy.random`` maps ``numpy``
        to ``numpy`` (attribute chains walk the rest).
        """
        aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".", 1)[0]
                        aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        return aliases

    def resolve_call_path(self, func: ast.expr) -> Optional[str]:
        """Dotted path of a call target, expanded through imports.

        ``np.random.seed`` under ``import numpy as np`` resolves to
        ``numpy.random.seed``.  Returns ``None`` when the chain does
        not start at an imported name (e.g. a method on a local
        object), so callers never flag ``generator.random()``.
        """
        chain: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.alias_map.get(node.id)
        if root is None:
            return None
        return ".".join([root, *reversed(chain)])


@dataclass
class Project:
    """Every module of one lint run, addressable by dotted name."""

    modules: List[Module]
    errors: List[Violation] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.by_name: Dict[str, Module] = {
            module.name: module for module in self.modules
        }

    def find(self, dotted: str) -> Optional[Module]:
        return self.by_name.get(dotted)

    def matching(self, *prefixes: str) -> Iterator[Module]:
        """Modules whose dotted name equals, or lives under, a prefix."""
        for module in self.modules:
            for prefix in prefixes:
                if module.name == prefix or module.name.startswith(
                    prefix + "."
                ):
                    yield module
                    break


def iter_source_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files they contain."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def load_project(paths: Iterable[Path]) -> Project:
    """Read and parse every source file once; collect syntax errors.

    Unparseable files become ``QA000`` findings instead of crashing
    the run — a file the linter cannot read is a file whose
    invariants nobody is checking.
    """
    modules: List[Module] = []
    errors: List[Violation] = []
    for path in iter_source_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            errors.append(
                Violation(
                    rule="QA000",
                    path=str(path),
                    line=line,
                    col=1,
                    message=f"could not parse: {exc}",
                )
            )
            continue
        lines = source.splitlines()
        modules.append(
            Module(
                path=path,
                name=module_name_for(path),
                tree=tree,
                lines=lines,
                allows=_parse_allows(lines),
            )
        )
    return Project(modules=modules, errors=errors)
