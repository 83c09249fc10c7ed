"""Thread-safe metric primitives + Prometheus text exposition.

A deliberately dependency-free re-implementation of the three metric
shapes the service tier needs — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — behind a :class:`MetricsRegistry` that renders
the Prometheus *text exposition format v0.0.4* (the format every
Prometheus server scrapes), so ``GET /metrics`` works against a stock
Prometheus without ``prometheus_client`` being installed.

Semantics mirror the real client library where it matters:

* metric and label names are validated against the Prometheus grammar,
  and the reserved ``__`` prefix is rejected;
* a metric family may declare label names; :meth:`Metric.labels`
  returns (creating on first use) the child for one label-value tuple,
  and the child is cached so hot paths pay one dict lookup;
* histograms expose cumulative ``_bucket{le="..."}`` series plus
  ``_sum`` and ``_count``, with ``+Inf`` always present;
* rendering escapes help strings (``\\`` and newline) and label values
  (``\\``, ``"`` and newline) exactly as the exposition format
  specifies.

One difference, deliberate: a counter or a histogram, like a gauge,
can read its value live through ``set_function``.  A series that
reports state (the ingest server's accepted and duplicate batch
counts, the per-user spend in its ledger) reads it from the object
that owns it: no metric holds state, so nothing ever restores one
after a restart.

Everything is thread-safe: one lock per metric family guards child
creation, one lock per child guards its numbers.  Registration is
idempotent — asking the registry for an already-registered name
returns the existing family, provided type/help/labels agree.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "CONTENT_TYPE_LATEST",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: The Content-Type a /metrics response must carry for Prometheus.
CONTENT_TYPE_LATEST = "text/plain; version=0.0.4; charset=utf-8"

#: prometheus_client's default latency buckets (seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.075, 0.1, 0.25, 0.5, 0.75,
    1.0, 2.5, 5.0, 7.5, 10.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_metric_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    if name.startswith("__"):
        raise ValueError(f"metric name {name!r} uses the reserved __ prefix")
    return name


def _check_label_names(labels: Sequence[str]) -> Tuple[str, ...]:
    out = []
    for label in labels:
        if not _LABEL_NAME_RE.match(label):
            raise ValueError(f"invalid label name {label!r}")
        if label.startswith("__"):
            raise ValueError(
                f"label name {label!r} uses the reserved __ prefix"
            )
        if label == "le":
            raise ValueError(
                "label name 'le' is reserved for histogram buckets"
            )
        out.append(label)
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate label names in {labels!r}")
    return tuple(out)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """Exposition-format number: ``+Inf``/``-Inf``/``NaN`` spelled the
    Prometheus way, integers without a trailing ``.0``."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(
    names: Sequence[str], values: Sequence[str], extra: str = ""
) -> str:
    pairs = [
        f'{n}="{_escape_label_value(v)}"' for n, v in zip(names, values)
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class Metric:
    """One metric family: a name, a type, and labelled children.

    An unlabelled family is its own single child — ``inc``/``set``/
    ``observe`` on the family operate on it directly.  A labelled
    family requires :meth:`labels` first (mirroring prometheus_client,
    where forgetting labels raises instead of silently aggregating).
    """

    typ = "untyped"

    def __init__(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> None:
        self.name = _check_metric_name(name)
        self.help = str(help)
        self.label_names = _check_label_names(labels)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not self.label_names:
            self._children[()] = self._new_child(())

    # -- child management ------------------------------------------------
    def _new_child(self, values: Tuple[str, ...]) -> Any:
        raise NotImplementedError

    def labels(self, *values: str, **kv: str) -> Any:
        """The child for one label-value combination (created on first
        use).  Accepts positional values in declared order or keyword
        form; values are coerced to ``str``."""
        if values and kv:
            raise ValueError("pass label values positionally or by name")
        if kv:
            try:
                values = tuple(str(kv[n]) for n in self.label_names)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name} needs labels {self.label_names}, got "
                    f"{sorted(kv)}"
                ) from exc
            if len(kv) != len(self.label_names):
                raise ValueError(
                    f"{self.name} needs labels {self.label_names}, got "
                    f"{sorted(kv)}"
                )
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} declares {len(self.label_names)} labels "
                f"{self.label_names}, got {len(values)} values"
            )
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    child = self._new_child(values)
                    self._children[values] = child
        return child

    def _sole_child(self) -> Any:
        if self.label_names:
            raise ValueError(
                f"{self.name} declares labels {self.label_names}; call "
                f".labels(...) first"
            )
        return self._children[()]

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """``(label_values, child)`` pairs, sorted for stable output."""
        with self._lock:
            return sorted(self._children.items())

    # -- rendering -------------------------------------------------------
    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.typ}",
        ]
        for values, child in self.children():
            lines.extend(child.render_samples(self.name, values))
        return lines

    def render_samples(
        self, name: str, values: Tuple[str, ...]
    ) -> List[str]:  # pragma: no cover - children override
        raise NotImplementedError


class _Sample:
    """One counter or gauge sample: a number it holds, or a live read
    of state another object holds (:meth:`set_function`)."""

    __slots__ = ("_lock", "_value", "_fn", "label_names")

    def __init__(self, label_names: Tuple[str, ...]):
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None
        self.label_names = label_names

    def set_function(self, fn: Callable[[], float]) -> None:
        """Make this sample *live*: every read calls ``fn``."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        return float(fn()) if fn is not None else self._value

    def render_samples(self, name, values):
        labels = _render_labels(self.label_names, values)
        return [f"{name}{labels} {format_value(self.value)}"]


class _CounterChild(_Sample):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counters only go up; inc({amount}) is negative"
            )
        with self._lock:
            self._value += amount


class _GaugeChild(_Sample):
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = float(value)


class Counter(Metric):
    """Monotonically increasing count (resets only on restart), or a
    live read of a count some other object keeps."""

    typ = "counter"

    def _new_child(self, values: Tuple[str, ...]) -> _CounterChild:
        return _CounterChild(self.label_names)

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._sole_child().set_function(fn)

    @property
    def value(self) -> float:
        """Unlabelled value, or the sum over every labelled child."""
        if not self.label_names:
            return self._children[()].value
        return sum(child.value for _, child in self.children())


class Gauge(Metric):
    """A value that can go up and down — or a live callback."""

    typ = "gauge"

    def _new_child(self, values: Tuple[str, ...]) -> _GaugeChild:
        return _GaugeChild(self.label_names)

    def set(self, value: float) -> None:
        self._sole_child().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._sole_child().set_function(fn)

    @property
    def value(self) -> float:
        return self._sole_child().value


class _HistogramChild:
    __slots__ = (
        "_lock", "_bounds", "_counts", "_sum", "_fn", "label_names"
    )

    def __init__(
        self, label_names: Tuple[str, ...], bounds: Tuple[float, ...]
    ):
        self._lock = threading.Lock()
        self._bounds = bounds  # finite upper bounds, ascending
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._fn: Optional[Callable[[], Tuple[Sequence[int], float]]] = None
        self.label_names = label_names

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    def set_function(
        self, fn: Callable[[], Tuple[Sequence[int], float]]
    ) -> None:
        """Make this histogram *live*: every read calls ``fn`` for the
        count in each bucket (``bounds[i-1] < v <= bounds[i]``, as
        :meth:`observe` files ``v``, then one above the last bound) and
        the sum."""
        with self._lock:
            self._fn = fn

    def _read(self) -> Tuple[Sequence[int], float]:
        fn = self._fn
        if fn is not None:
            return fn()
        with self._lock:
            return list(self._counts), self._sum

    @property
    def count(self) -> int:
        return sum(self._read()[0])

    def render_samples(self, name, values):
        lines = []
        cumulative = 0
        counts, total = self._read()
        for bound, count in zip(self._bounds, counts):
            cumulative += count
            labels = _render_labels(
                self.label_names,
                values,
                extra=f'le="{format_value(bound)}"',
            )
            lines.append(f"{name}_bucket{labels} {cumulative}")
        cumulative += counts[-1]
        inf_labels = _render_labels(
            self.label_names, values, extra='le="+Inf"'
        )
        lines.append(f"{name}_bucket{inf_labels} {cumulative}")
        plain = _render_labels(self.label_names, values)
        lines.append(f"{name}_sum{plain} {format_value(total)}")
        lines.append(f"{name}_count{plain} {cumulative}")
        return lines


class Histogram(Metric):
    """Cumulative-bucket distribution with ``_sum`` and ``_count``."""

    typ = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"bucket bounds must be strictly ascending, got {buckets}"
            )
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]  # +Inf is implicit, always appended
            if not bounds:
                raise ValueError(
                    "histogram needs at least one finite bucket bound"
                )
        self._bounds = bounds
        super().__init__(name, help, labels)

    def _new_child(self, values: Tuple[str, ...]) -> _HistogramChild:
        return _HistogramChild(self.label_names, self._bounds)

    def observe(self, value: float) -> None:
        self._sole_child().observe(value)

    def set_function(
        self, fn: Callable[[], Tuple[Sequence[int], float]]
    ) -> None:
        self._sole_child().set_function(fn)

    @property
    def count(self) -> int:
        return self._sole_child().count


class MetricsRegistry:
    """Every metric one process (or one server) exposes.

    ``render()`` is the ``GET /metrics`` body: families in
    registration order, children in sorted label order — byte-stable
    given the same observations, which the golden-file tests rely on.

    Registration is idempotent: requesting an existing name returns
    the existing family if type, help and label names agree, and
    raises on any mismatch (two subsystems silently sharing a name
    with different schemas is a bug, not a merge).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    # -- factories -------------------------------------------------------
    def _register(self, cls, name, help, labels, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.help != help
                    or existing.label_names != tuple(labels)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        f"different type/help/labels"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, labels, buckets=buckets
        )

    # -- introspection ---------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def sample(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[float]:
        """One sample's current value (test/healthz helper); ``None``
        for an unknown metric or an unobserved label combination."""
        metric = self.get(name)
        if metric is None:
            return None
        values = tuple(
            str((labels or {}).get(n, "")) for n in metric.label_names
        )
        child = metric._children.get(values)
        if child is None:
            return None
        if isinstance(child, _HistogramChild):
            return float(child.count)
        return float(child.value)

    # -- exposition ------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text-exposition body (v0.0.4)."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self._metrics)} metrics)"
