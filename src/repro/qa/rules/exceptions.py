"""QA601 — exception hygiene: no bare / silently swallowed excepts.

The service's contract is *never silent*: a mis-aggregation, a failed
checkpoint, a poisoned batch must surface as an HTTP error, a raised
exception, or a failed process — anything but nothing.  Two patterns
defeat that silently:

* a bare ``except:`` — it also catches ``KeyboardInterrupt`` and
  ``SystemExit``, so an unrelated cleanup block can eat the
  interpreter's own request to stop and carry on;
* a blanket ``except Exception`` / ``except BaseException`` whose
  body is only ``pass`` (or ``...``) — the canonical silent
  swallow.

Narrow handlers with a ``pass`` body (``except (ConnectionError,
BrokenPipeError): pass`` on a best-effort socket close) are fine, as
are blanket handlers that actually do something (log, wrap, re-raise,
build an error response).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.qa.core import Module, Project, Rule, Violation

#: Exception names considered blanket catches.
_BLANKET = frozenset({"Exception", "BaseException"})


def _names(type_node: ast.expr) -> Iterator[str]:
    """Exception class names in an except clause (handles tuples)."""
    if isinstance(type_node, ast.Tuple):
        for element in type_node.elts:
            yield from _names(element)
    elif isinstance(type_node, ast.Attribute):
        yield type_node.attr
    elif isinstance(type_node, ast.Name):
        yield type_node.id


def _swallows(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing at all."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ):
            continue  # docstring or `...`
        return False
    return True


class ExceptionHygieneRule(Rule):
    id = "QA601"
    name = "exception-hygiene"
    description = (
        "no bare except (it eats KeyboardInterrupt/SystemExit) and no "
        "blanket except Exception/BaseException whose body only "
        "passes — failures must surface, never vanish"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    yield self.violation(
                        module,
                        node,
                        "bare except: catches KeyboardInterrupt and "
                        "SystemExit too; name the exceptions (or use "
                        "'except Exception' and handle it)",
                    )
                    continue
                if _swallows(node) and any(
                    name in _BLANKET for name in _names(node.type)
                ):
                    yield self.violation(
                        module,
                        node,
                        "blanket except that silently swallows the "
                        "error; handle it, log it, or narrow the "
                        "exception types",
                    )
