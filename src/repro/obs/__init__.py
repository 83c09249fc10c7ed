"""Observability: metrics, structured logging, graceful lifecycle.

Dependency-free (stdlib-only) primitives the production service tier
is wired through:

* :mod:`repro.obs.metrics` — thread-safe :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` with labels, collected in a
  :class:`MetricsRegistry` that renders the Prometheus text
  exposition format v0.0.4 (``GET /metrics`` works against a stock
  Prometheus scraper, no ``prometheus_client`` needed).
* :mod:`repro.obs.logging` — one-JSON-object-per-line structured
  logging over stdlib :mod:`logging`, with request/campaign ids
  propagated through :mod:`contextvars` and a shared
  ``--log-format json|text`` CLI surface.
* :mod:`repro.obs.lifecycle` — graceful-drain plumbing: POSIX signals
  as awaitable events, the serving → draining → drained ladder, and
  the drain receipt.  The drained snapshot is bitwise-equal to an
  uninterrupted run's — drain only stops admission early.

Layering: ``obs`` sits below ``service``/``campaigns`` in the import
graph and imports none of them (nor numpy), so any layer — and any
future subsystem — can instrument itself without cycles.
"""

from repro.obs.lifecycle import DrainResult, DrainState, SignalDrain
from repro.obs.logging import (
    JsonFormatter,
    TextFormatter,
    add_logging_arguments,
    bound_context,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    CONTENT_TYPE_LATEST,
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    null_registry,
)

__all__ = [
    "CONTENT_TYPE_LATEST",
    "Counter",
    "DEFAULT_BUCKETS",
    "DrainResult",
    "DrainState",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MetricsRegistry",
    "SignalDrain",
    "TextFormatter",
    "add_logging_arguments",
    "bound_context",
    "configure_logging",
    "get_logger",
    "null_registry",
]
