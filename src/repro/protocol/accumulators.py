"""Server-side mergeable aggregation state.

A :class:`ServerAccumulator` holds only *sufficient statistics* (sums,
support counts, user counts — never a report), so its memory is O(state
dimension) regardless of how many reports it absorbs, and two partial
accumulations can be combined with :meth:`~ServerAccumulator.merge`.
This is what makes sharded and streaming aggregation trivial:

    acc = protocol.server()
    for batch in arriving_batches:
        acc.absorb(encoder.encode_batch(batch, rng))
    estimate = acc.estimate()

Determinism guarantee: counts (frequency protocols) are integral and
therefore exact, so any absorb/merge order yields bitwise-identical
estimates.  Float sums are folded batch-by-batch with plain addition,
so absorbing batches b1..bm into one accumulator equals absorbing them
into m accumulators and merging in the same order, *bitwise*; reordering
shards is exact for counts and agrees to ~1e-15 relative for sums.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict, List, Tuple, TypeVar

import numpy as np

from repro.frequency.olh import OLHReports, OptimizedLocalHashing
from repro.frequency.oracle import FrequencyOracle
from repro.frequency.unary import UnaryEncodingOracle
from repro.protocol.reports import ColumnBlock, to_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.frequency.histogram import HistogramEstimate
    from repro.multidim.aggregator import MixedEstimates

_Acc = TypeVar("_Acc", bound="ServerAccumulator")


class ServerAccumulator(abc.ABC):
    """Mergeable aggregation state for one protocol.

    The three-method contract:

    * :meth:`absorb` folds a batch of client reports into the state;
    * :meth:`merge` folds another accumulator of the same protocol in
      (e.g. from a parallel shard);
    * :meth:`estimate` produces the current unbiased estimate.

    Both ``absorb`` and ``merge`` return ``self`` for chaining.

    Every batch takes one path in.  :func:`~repro.protocol.reports.to_block`
    turns it (a report container, a plain report array, or a
    :class:`~repro.protocol.reports.ColumnBlock` off the v2 wire) into a
    block; the subclass's :meth:`_parse` coerces and checks the block
    without touching state, and :meth:`_fold` adds the parsed batch.
    :meth:`validate` stops after the parse, so it raises exactly when
    :meth:`absorb` would, and a batch that fails leaves the state
    unchanged.  The ingestion server validates *before* admitting a
    batch against the privacy ledger, so a malformed batch never
    consumes anyone's budget.
    """

    def validate(self, batch: Any) -> None:
        """Raise ``ValueError`` iff :meth:`absorb` would; no mutation."""
        self._parse(to_block(batch))

    def absorb(self: _Acc, batch: Any) -> _Acc:
        """Fold in one batch of reports; retains no report.

        Absorbing an *empty* batch (zero reports, e.g. from an empty
        shard or an encoder fed no values) is a uniform no-op across
        every accumulator: state and count are unchanged.
        :meth:`estimate` still raises ``ValueError`` while the total
        count is zero.
        """
        self._fold(self._parse(to_block(batch)))
        return self

    @abc.abstractmethod
    def _parse(self, block: ColumnBlock) -> Any:
        """The batch's coerced columns; raises ``ValueError`` on any
        kind, shape, value or row-count violation.  Never mutates.

        The result holds no reference to this accumulator's state: a
        windowed accumulator parses with a template and folds the
        result into a different accumulator of the same protocol."""

    @abc.abstractmethod
    def _fold(self, parsed: Any) -> None:
        """Add one :meth:`_parse` result to the state."""

    @abc.abstractmethod
    def merge(self, other: "ServerAccumulator") -> "ServerAccumulator":
        """Fold another accumulator's state into this one."""

    @abc.abstractmethod
    def estimate(self) -> Any:
        """Current unbiased estimate; raises ``ValueError`` with no data."""

    @property
    @abc.abstractmethod
    def count(self) -> int:
        """Reports absorbed so far (via absorb and merge)."""

    # ------------------------------------------------------------------
    # Snapshot hooks (used by repro.service for wire transfer and
    # durable checkpoints).  ``state_dict`` returns plain python
    # scalars, dicts, and numpy arrays — raw sufficient statistics, no
    # configuration (that lives in the ProtocolSpec).  ``load_state``
    # restores them bitwise into a freshly built accumulator of the
    # same protocol.
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Snapshot of the sufficient statistics; see :meth:`load_state`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots"
        )

    def load_state(self, state: Dict) -> "ServerAccumulator":
        """Restore :meth:`state_dict` output bitwise; returns ``self``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots"
        )

    def _require_reports(self) -> None:
        if self.count == 0:
            raise ValueError("no reports received yet")

    def _expect(self, block: ColumnBlock, kind: str) -> None:
        if block.kind != kind:
            raise ValueError(
                f"{type(self).__name__} absorbs {kind!r} columns, got "
                f"{block.kind!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(count={self.count})"


def _numeric(block: ColumnBlock, name: str) -> np.ndarray:
    """Column ``name``, which must hold bools, integers or floats."""
    arr = block.column(name)
    if arr.dtype.kind not in "biuf":
        raise ValueError(
            f"column {name!r} must be numeric, got dtype {arr.dtype}"
        )
    return arr


def _check_rows(block: ColumnBlock, *names: str) -> None:
    """Every named column (default: all) has exactly ``block.n`` rows —
    the batch cannot fold more reports than the users it is charged
    for."""
    for name in names or tuple(block.columns):
        arr = block.columns[name]
        rows = arr.shape[0] if arr.ndim else None
        if rows != block.n:
            raise ValueError(
                f"column {name!r} carries {rows} rows but the batch "
                f"declares n={block.n}"
            )


class MeanAccumulator(ServerAccumulator):
    """Scalar running mean of 1-D numeric reports.

    Serves the ``mean`` protocol kind: every mechanism in
    :mod:`repro.core` is unbiased, so the estimator is the plain average
    of the perturbed reports (the legacy
    :meth:`repro.core.mechanism.NumericMechanism.estimate_mean`).
    """

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def _parse(self, block: ColumnBlock) -> np.ndarray:
        self._expect(block, "array")
        arr = np.asarray(_numeric(block, "array"), dtype=float)
        if arr.ndim != 1:
            raise ValueError(
                f"mean reports must be a flat array, got shape {arr.shape}"
            )
        _check_rows(block)
        return arr

    def _fold(self, parsed: np.ndarray) -> None:
        self._sum += float(parsed.sum())
        self._count += parsed.shape[0]

    def merge(self, other: "ServerAccumulator") -> "MeanAccumulator":
        if not isinstance(other, MeanAccumulator):
            raise ValueError(
                f"cannot merge {type(other).__name__} into MeanAccumulator"
            )
        self._sum += other._sum
        self._count += other._count
        return self

    @property
    def count(self) -> int:
        return self._count

    def state_dict(self) -> Dict:
        return {"sum": self._sum, "count": self._count}

    def load_state(self, state: Dict) -> "MeanAccumulator":
        self._sum = float(state["sum"])
        self._count = int(state["count"])
        return self

    def estimate(self) -> float:
        self._require_reports()
        return self._sum / self._count


class MultidimMeanAccumulator(ServerAccumulator):
    """Per-attribute running means over d-dimensional numeric reports.

    Absorbs the compact :class:`SampledNumericReports` wire format and
    keeps only the d running sums and the user count.  An empty plain
    array (e.g. a bare ``[]``, which cannot carry a column count) is
    the uniform empty-batch no-op.
    """

    def __init__(self, d: int) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = int(d)
        self._sums = np.zeros(self.d)
        self._count = 0

    def _parse(self, block: ColumnBlock) -> Tuple[np.ndarray, np.ndarray]:
        if block.kind == "array" and block.column("array").size == 0:
            _check_rows(block)
            return np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0))
        self._expect(block, "sampled-numeric")
        try:
            d, k = int(block.meta["d"]), int(block.meta["k"])
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValueError(
                f"sampled-numeric block needs integer d/k metadata: {exc}"
            ) from None
        if d != self.d:
            raise ValueError(
                f"reports cover d={d} attributes, accumulator expects "
                f"d={self.d}"
            )
        cols = _numeric(block, "cols")
        values = np.asarray(_numeric(block, "values"), dtype=float)
        if cols.ndim != 2 or cols.shape != values.shape:
            raise ValueError(
                f"cols and values must be matching (n, k) matrices, "
                f"got {cols.shape} and {values.shape}"
            )
        if cols.shape[1] != k:
            raise ValueError(
                f"expected k={k} sampled attributes per row, got "
                f"{cols.shape[1]}"
            )
        _check_rows(block)
        _check_categories(cols, self.d, "sampled indices")
        return cols.astype(np.int64, copy=False), values

    def _fold(self, parsed: Tuple[np.ndarray, np.ndarray]) -> None:
        cols, values = parsed
        self._sums += np.bincount(
            cols.ravel(), weights=values.ravel(), minlength=self.d
        )
        self._count += cols.shape[0]

    def merge(self, other: "ServerAccumulator") -> "MultidimMeanAccumulator":
        if not isinstance(other, MultidimMeanAccumulator) or other.d != self.d:
            raise ValueError("cannot merge aggregators of different d")
        self._sums += other._sums
        self._count += other._count
        return self

    @property
    def count(self) -> int:
        return self._count

    def state_dict(self) -> Dict:
        # Copies: a snapshot must stay stable while absorbs continue.
        return {"sums": self._sums.copy(), "count": self._count}

    def load_state(self, state: Dict) -> "MultidimMeanAccumulator":
        sums = np.asarray(state["sums"], dtype=float)
        if sums.shape != (self.d,):
            raise ValueError(
                f"state covers {sums.shape} sums, accumulator expects "
                f"({self.d},)"
            )
        self._sums = sums.copy()
        self._count = int(state["count"])
        return self

    def estimate(self) -> np.ndarray:
        self._require_reports()
        return self._sums / self._count


def _check_categories(arr: np.ndarray, size: int, what: str) -> None:
    """Raise ``ValueError`` unless every entry is an integer in [0, size)."""
    if arr.size == 0:
        return
    kind = arr.dtype.kind
    if kind not in "iu" and not np.all(arr == np.floor(arr)):
        raise ValueError(f"{what} must be integers")
    # Unsigned entries cannot be negative: skip that pass over the batch.
    if (kind != "u" and arr.min() < 0) or arr.max() >= size:
        raise ValueError(f"{what} must lie in [0, {size - 1}]")


class FrequencyAccumulator(ServerAccumulator):
    """Running debiased support counts for one categorical attribute.

    Works with any registered oracle; the state is the oracle's length-k
    support-count vector plus the report count.  Counts are integral, so
    absorb/merge order never changes the estimate.
    """

    def __init__(self, oracle: FrequencyOracle) -> None:
        self.oracle = oracle
        self._support = np.zeros(oracle.k)
        self._count = 0

    def _parse(self, block: ColumnBlock) -> Any:
        """The oracle's report form: ``OLHReports`` for OLH, an (n, k)
        bit matrix for unary encodings, a vector of values in [0, k)
        otherwise (GRR)."""
        oracle = self.oracle
        if isinstance(oracle, OptimizedLocalHashing):
            if block.kind != "olh":
                raise ValueError(
                    f"an OLH oracle needs OLH reports (seeds and "
                    f"buckets), got {block.kind!r} columns"
                )
            seeds = _numeric(block, "seeds")
            buckets = _numeric(block, "buckets")
            if seeds.ndim != 1 or buckets.shape != seeds.shape:
                raise ValueError(
                    f"OLH seeds and buckets must be matching vectors, "
                    f"got shapes {seeds.shape} and {buckets.shape}"
                )
            if not np.issubdtype(seeds.dtype, np.integer):
                raise ValueError(
                    f"OLH seeds must be integers, got dtype {seeds.dtype}"
                )
            _check_rows(block)
            # A bucket outside [0, g) supports no value: it would count
            # in n but never in support and bias every estimate.
            _check_categories(buckets, oracle.g, "OLH buckets")
            return OLHReports(seeds=seeds, buckets=buckets)
        if block.kind == "olh":
            raise ValueError(
                f"OLH reports sent to a {oracle.name!r} oracle"
            )
        self._expect(block, "array")
        arr = _numeric(block, "array")
        if isinstance(oracle, UnaryEncodingOracle):
            if arr.ndim != 2 or arr.shape[1] != oracle.k:
                raise ValueError(
                    f"reports must be an (n, {oracle.k}) bit matrix, "
                    f"got shape {arr.shape}"
                )
            _check_categories(arr, 2, "unary-encoding bits")
        elif arr.ndim != 1:
            raise ValueError(
                f"{oracle.name} reports must be a vector of values, got "
                f"shape {arr.shape}"
            )
        else:
            _check_categories(arr, oracle.k, "report values")
        _check_rows(block)
        return arr

    def _fold(self, parsed: Any) -> None:
        self._support += self.oracle.support_counts(parsed)
        self._count += len(parsed)

    def merge(self, other: "ServerAccumulator") -> "FrequencyAccumulator":
        if not isinstance(other, FrequencyAccumulator):
            raise ValueError(
                f"cannot merge {type(other).__name__} into "
                "FrequencyAccumulator"
            )
        if other.oracle.k != self.oracle.k:
            raise ValueError("cannot merge aggregators of different domains")
        if (
            other.oracle.support_probabilities
            != self.oracle.support_probabilities
        ):
            raise ValueError(
                "cannot merge aggregators with different oracle "
                "support probabilities"
            )
        self._support += other._support
        self._count += other._count
        return self

    @property
    def count(self) -> int:
        return self._count

    def state_dict(self) -> Dict:
        # Copies: a snapshot must stay stable while absorbs continue.
        return {"support": self._support.copy(), "count": self._count}

    def load_state(self, state: Dict) -> "FrequencyAccumulator":
        support = np.asarray(state["support"], dtype=float)
        if support.shape != (self.oracle.k,):
            raise ValueError(
                f"state covers {support.shape} support counts, "
                f"accumulator expects ({self.oracle.k},)"
            )
        self._support = support.copy()
        self._count = int(state["count"])
        return self

    def debiased_counts(self) -> np.ndarray:
        """Sum of unbiased per-report indicators, per domain value."""
        p, q = self.oracle.support_probabilities
        return (self._support - self._count * q) / (p - q)

    def estimate(self) -> np.ndarray:
        self._require_reports()
        return self.debiased_counts() / self._count


class HistogramAccumulator(FrequencyAccumulator):
    """Frequency accumulation over histogram buckets, with projection.

    Same sufficient statistics as :class:`FrequencyAccumulator`;
    :meth:`estimate` additionally post-processes the raw frequency
    vector into a valid histogram over the given bin edges, exactly as
    :meth:`repro.frequency.histogram.LDPHistogram.estimate` does.
    """

    def __init__(
        self, oracle: FrequencyOracle, edges: Any, postprocess: str
    ) -> None:
        super().__init__(oracle)
        self.edges = np.asarray(edges, dtype=float)
        if self.edges.shape != (oracle.k + 1,):
            raise ValueError(
                f"edges must have length k+1={oracle.k + 1}, got "
                f"{self.edges.shape}"
            )
        self.postprocess = postprocess

    def merge(self, other: "ServerAccumulator") -> "HistogramAccumulator":
        if not isinstance(other, HistogramAccumulator):
            raise ValueError(
                f"cannot merge {type(other).__name__} into "
                "HistogramAccumulator"
            )
        if (
            not np.array_equal(other.edges, self.edges)
            or other.postprocess != self.postprocess
        ):
            raise ValueError(
                "cannot merge histogram accumulators with different bin "
                "edges or post-processing"
            )
        super().merge(other)
        return self

    def estimate(self) -> "HistogramEstimate":
        from repro.frequency.histogram import HistogramEstimate, LDPHistogram
        from repro.frequency.postprocess import postprocess as run_postprocess

        self._require_reports()
        raw = self.debiased_counts() / self._count
        if self.postprocess == "none":
            projected = LDPHistogram._project(raw)
        else:
            projected = run_postprocess(raw, self.postprocess)
        return HistogramEstimate(
            histogram=projected, raw=raw, edges=self.edges
        )


class MixedAccumulator(ServerAccumulator):
    """Mergeable server state for the Section IV-C mixed protocol.

    State: one running-sum vector over the numeric attributes, one
    :class:`FrequencyAccumulator` per categorical attribute, and the
    user count.  Produces the same :class:`MixedEstimates` as the
    legacy one-shot ``MixedMultidimCollector.aggregate`` (same
    debiasing, same d/k scaling).
    """

    def __init__(
        self,
        schema: Any,
        oracles: Dict[str, FrequencyOracle],
        d: int,
        k: int,
    ) -> None:
        self.schema = schema
        self.d = int(d)
        self.k = int(k)
        self._numeric_sums = np.zeros(len(schema.numeric))
        self._frequency: Dict[str, FrequencyAccumulator] = {
            a.name: FrequencyAccumulator(oracles[a.name])
            for a in schema.categorical
        }
        self._users = 0

    @classmethod
    def for_collector(cls, collector: Any) -> "MixedAccumulator":
        """The accumulator matching a ``MixedMultidimCollector``."""
        return cls(
            schema=collector.schema,
            oracles=collector.oracles,
            d=collector.d,
            k=collector.k,
        )

    def _parse(self, block: ColumnBlock) -> Tuple[Any, ...]:
        """(numeric block, [(attribute name, parsed sub-batch)], n).

        The numeric block has one row per user; each categorical
        sub-block holds only the users who sampled that attribute, so
        it may not have more rows than the batch has users.  Sub-blocks
        come in the header's categorical order — the order the client
        encoded them in.
        """
        self._expect(block, "mixed")
        numeric = np.asarray(_numeric(block, "numeric"), dtype=float)
        width = self._numeric_sums.shape[0]
        if numeric.ndim != 2 or numeric.shape[1] != width:
            raise ValueError(
                f"numeric block must be (m, {width}), got shape "
                f"{numeric.shape}"
            )
        _check_rows(block, "numeric")
        categorical = block.meta.get("categorical")
        if not isinstance(categorical, dict):
            raise ValueError(
                "mixed columnar block carries no 'categorical' kind map"
            )
        subs: List[Tuple[str, Any]] = []
        for name, kind in categorical.items():
            acc = self._frequency.get(name)
            if acc is None:
                raise ValueError(
                    f"reports carry categorical attribute {name!r} not "
                    f"in this accumulator's schema "
                    f"{[a.name for a in self.schema.categorical]}"
                )
            sub = block.sub_block(name, str(kind))
            if sub.n > block.n:
                raise ValueError(
                    f"attribute {name!r} carries {sub.n} reports but the "
                    f"batch declares n={block.n} users"
                )
            subs.append((name, acc._parse(sub)))
        return numeric, subs, block.n

    def _fold(self, parsed: Tuple[Any, ...]) -> None:
        numeric, subs, n = parsed
        self._numeric_sums += numeric.sum(axis=0)
        for name, sub in subs:
            self._frequency[name]._fold(sub)
        self._users += n

    def merge(self, other: "ServerAccumulator") -> "MixedAccumulator":
        if (
            not isinstance(other, MixedAccumulator)
            or other.schema.names != self.schema.names
            or other.d != self.d
            or other.k != self.k
        ):
            raise ValueError(
                "cannot merge accumulators over different protocols"
            )
        self._numeric_sums += other._numeric_sums
        for name, acc in self._frequency.items():
            acc.merge(other._frequency[name])
        self._users += other._users
        return self

    @property
    def count(self) -> int:
        return self._users

    def state_dict(self) -> Dict:
        # Copies: a snapshot must stay stable while absorbs continue.
        return {
            "numeric_sums": self._numeric_sums.copy(),
            "frequency": {
                name: acc.state_dict()
                for name, acc in self._frequency.items()
            },
            "users": self._users,
        }

    def load_state(self, state: Dict) -> "MixedAccumulator":
        sums = np.asarray(state["numeric_sums"], dtype=float)
        if sums.shape != self._numeric_sums.shape:
            raise ValueError(
                f"state covers {sums.shape} numeric sums, accumulator "
                f"expects {self._numeric_sums.shape}"
            )
        frequency = state["frequency"]
        if set(frequency) != set(self._frequency):
            raise ValueError(
                f"state covers categorical attributes "
                f"{sorted(frequency)}, accumulator expects "
                f"{sorted(self._frequency)}"
            )
        self._numeric_sums = sums.copy()
        for name, sub in frequency.items():
            self._frequency[name].load_state(sub)
        self._users = int(state["users"])
        return self

    def estimate(self) -> "MixedEstimates":
        from repro.multidim.aggregator import MixedEstimates

        self._require_reports()
        means = {
            a.name: float(self._numeric_sums[i] / self._users)
            for i, a in enumerate(self.schema.numeric)
        }
        scale = self.d / self.k
        frequencies = {
            name: scale * acc.debiased_counts() / self._users
            for name, acc in self._frequency.items()
        }
        return MixedEstimates(means=means, frequencies=frequencies)
