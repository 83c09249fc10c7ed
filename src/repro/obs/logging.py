"""Structured logging: one JSON object per line, context-propagated ids.

Library code logs through plain :func:`logging.getLogger` loggers (the
:func:`get_logger` alias exists so call sites read as part of this
subsystem); *entrypoints* call :func:`configure_logging` exactly once
to choose the rendering:

* ``json`` — one JSON object per line on stderr:
  ``{"ts": ..., "level": "info", "logger": "repro.service.server",
  "event": "batch accepted", "request_id": "r-17", "campaign":
  "3f9a...", "reports": 2000}`` — machine-parseable, field-stable,
  safe to ship to a log pipeline;
* ``text`` — the same record as ``HH:MM:SS level logger: message
  key=value ...`` for humans at a terminal.

Request- and campaign-scoped fields ride on :mod:`contextvars`: the
server binds ``request_id`` (and, once routed, ``campaign``) around
each request via :func:`bound_context`, and every log record emitted
below — any module, any depth, including ``await`` boundaries — picks
the ids up automatically.  Extra structured fields are passed the
stdlib way (``logger.info("msg", extra={...})``); both formatters
render every non-reserved record attribute.

Nothing here touches the root logger at import time, and library
modules must never call ``logging.basicConfig`` — that is the
entrypoint's decision (enforced by lint rule QA701).
"""

from __future__ import annotations

import contextlib
import contextvars
import io
import json
import logging
import time
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "JsonFormatter",
    "TextFormatter",
    "add_logging_arguments",
    "bound_context",
    "configure_logging",
    "context_fields",
    "get_logger",
]

#: Request-scoped correlation id (set per HTTP request by the server).
request_id_var: contextvars.ContextVar[Optional[str]] = (
    contextvars.ContextVar("repro_request_id", default=None)
)

#: Campaign fingerprint the current operation concerns, if any.
campaign_var: contextvars.ContextVar[Optional[str]] = (
    contextvars.ContextVar("repro_campaign", default=None)
)

#: ``logging.LogRecord`` attributes that are plumbing, not payload.
_RESERVED = frozenset(
    {
        "args", "asctime", "created", "exc_info", "exc_text", "filename",
        "funcName", "levelname", "levelno", "lineno", "message", "module",
        "msecs", "msg", "name", "pathname", "process", "processName",
        "relativeCreated", "stack_info", "taskName", "thread",
        "threadName",
    }
)


def get_logger(name: str) -> logging.Logger:
    """The subsystem's logger factory (a named ``logging.getLogger``)."""
    return logging.getLogger(name)


@contextlib.contextmanager
def bound_context(
    request_id: Optional[str] = None, campaign: Optional[str] = None
) -> Iterator[None]:
    """Bind request/campaign ids for the duration of a ``with`` block.

    Values propagate through every log record emitted inside the block
    (and through ``await``/task boundaries, courtesy of contextvars);
    ``None`` keeps the enclosing binding.  Either way the block's end
    restores both ids, so a :func:`bind_campaign` inside it ends there.
    """
    tokens = [
        (var, var.set(var.get() if value is None else value))
        for var, value in ((request_id_var, request_id),
                           (campaign_var, campaign))
    ]
    try:
        yield
    finally:
        for var, token in reversed(tokens):
            var.reset(token)


def bind_campaign(campaign: Optional[str]) -> None:
    """Set the campaign id for the remainder of the current context
    (used once a request has been routed; the per-request
    :func:`bound_context` scope still bounds its lifetime)."""
    if campaign is not None:
        campaign_var.set(campaign)


def context_fields() -> Dict[str, str]:
    """The currently bound context ids, for inclusion in a record."""
    fields = {}
    request_id = request_id_var.get()
    if request_id is not None:
        fields["request_id"] = request_id
    campaign = campaign_var.get()
    if campaign is not None:
        fields["campaign"] = campaign
    return fields


def _record_fields(record: logging.LogRecord) -> Dict[str, Any]:
    """Context ids + every non-reserved attribute on the record."""
    fields = context_fields()
    for key, value in record.__dict__.items():
        if key in _RESERVED or key.startswith("_"):
            continue
        fields[key] = value
    return fields


class JsonFormatter(logging.Formatter):
    """One JSON object per line; keys in a fixed, grep-stable order."""

    def format(self, record: logging.LogRecord) -> str:
        entry: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        entry.update(_record_fields(record))
        if record.exc_info and record.exc_info[0] is not None:
            entry["exc_type"] = record.exc_info[0].__name__
            entry["exc"] = self.formatException(record.exc_info)
        return json.dumps(entry, default=repr)


class TextFormatter(logging.Formatter):
    """Human-readable single line with ``key=value`` structured tail."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime(
            "%H:%M:%S", time.localtime(record.created)
        )
        out = io.StringIO()
        out.write(
            f"{stamp} {record.levelname.lower():<7} "
            f"{record.name}: {record.getMessage()}"
        )
        for key, value in _record_fields(record).items():
            rendered = str(value)
            if " " in rendered:
                rendered = json.dumps(rendered)
            out.write(f" {key}={rendered}")
        if record.exc_info and record.exc_info[0] is not None:
            out.write("\n" + self.formatException(record.exc_info))
        return out.getvalue()


def configure_logging(
    log_format: str = "text",
    level: str = "info",
    stream: Any = None,
    logger: Optional[logging.Logger] = None,
) -> logging.Handler:
    """Install one stream handler rendering ``json`` or ``text``.

    Entrypoint-only (CLI mains, test harnesses): library code never
    configures handlers.  Replaces handlers this function previously
    installed (marked via an attribute), so calling it twice — e.g. a
    test reconfiguring format — does not double-log.  Returns the
    installed handler.
    """
    if log_format not in ("json", "text"):
        raise ValueError(
            f"log_format must be 'json' or 'text', got {log_format!r}"
        )
    numeric = logging.getLevelName(level.upper())
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    target = logger if logger is not None else logging.getLogger()
    for handler in list(target.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            target.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    handler.setFormatter(
        JsonFormatter() if log_format == "json" else TextFormatter()
    )
    target.addHandler(handler)
    target.setLevel(numeric)
    return handler


def add_logging_arguments(parser: Any) -> None:
    """Attach the standard ``--log-format`` / ``--log-level`` flags."""
    parser.add_argument(
        "--log-format",
        choices=("json", "text"),
        default="text",
        help="emit structured one-JSON-object-per-line logs (json) or "
        "human-readable lines (text, the default)",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="minimum level to emit (default: info)",
    )
