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
from typing import TYPE_CHECKING, Any, Dict

import numpy as np

from repro.frequency.olh import OLHReports, OptimizedLocalHashing
from repro.frequency.oracle import FrequencyOracle
from repro.protocol.reports import ColumnBlock, SampledNumericReports

# NOTE: repro.multidim is imported lazily (inside MixedAccumulator
# methods) because repro.multidim.streaming subclasses the accumulators
# defined here; a top-level import in either direction would cycle.

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.frequency.histogram import HistogramEstimate
    from repro.multidim.aggregator import MixedEstimates


class ServerAccumulator(abc.ABC):
    """Mergeable aggregation state for one protocol.

    The three-method contract:

    * :meth:`absorb` folds a batch of client reports into the state;
    * :meth:`merge` folds another accumulator of the same protocol in
      (e.g. from a parallel shard);
    * :meth:`estimate` produces the current unbiased estimate.

    Both ``absorb`` and ``merge`` return ``self`` for chaining.
    """

    @abc.abstractmethod
    def absorb(self, reports: Any) -> "ServerAccumulator":
        """Fold in one batch of reports; retains no report.

        Absorbing an *empty* batch (zero reports, e.g. from an empty
        shard or an encoder fed no values) is a uniform no-op across
        every accumulator: state and count are unchanged.
        :meth:`estimate` still raises ``ValueError`` while the total
        count is zero.
        """

    def absorb_columns(self, block: ColumnBlock) -> "ServerAccumulator":
        """Fold in one batch in canonical columnar form.

        The columnar twin of :meth:`absorb`: consumes the named numpy
        columns of a :class:`~repro.protocol.reports.ColumnBlock`
        directly — no report container is materialized on the hot path
        (OLH columns are wrapped in a zero-copy view for the oracle's
        support counting).  Bitwise-equal to absorbing the equivalent
        report object: the same reductions run over the same arrays in
        the same order.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support columnar absorption"
        )

    # ------------------------------------------------------------------
    # Pre-absorption validation (used by the sharded ingestion tier).
    # ``validate_reports`` / ``validate_columns`` raise ``ValueError``
    # for any batch whose matching absorb would raise, and never
    # mutate state.  The sharded server validates on the request path
    # *before* charging budget and enqueueing, so an absorb running
    # later on a shard worker cannot fail on client data — preserving
    # the absorb-before-charge invariant across the queue boundary.
    # ------------------------------------------------------------------
    def validate_reports(self, reports: Any) -> None:
        """Raise ``ValueError`` iff :meth:`absorb` would; no mutation."""

    def validate_columns(self, block: ColumnBlock) -> None:
        """Raise ``ValueError`` iff :meth:`absorb_columns` would."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support columnar absorption"
        )

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(count={self.count})"


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

    def absorb(self, reports: Any) -> "MeanAccumulator":
        arr = np.atleast_1d(np.asarray(reports, dtype=float))
        if arr.ndim != 1:
            raise ValueError(
                f"mean reports must be a flat array, got shape {arr.shape}"
            )
        self._sum += float(arr.sum())
        self._count += arr.shape[0]
        return self

    def validate_reports(self, reports: Any) -> None:
        arr = np.atleast_1d(np.asarray(reports, dtype=float))
        if arr.ndim != 1:
            raise ValueError(
                f"mean reports must be a flat array, got shape {arr.shape}"
            )

    def validate_columns(self, block: ColumnBlock) -> None:
        if block.kind != "array":
            raise ValueError(
                f"MeanAccumulator absorbs 'array' columns, got "
                f"{block.kind!r}"
            )
        self.validate_reports(block.column("array"))

    def absorb_columns(self, block: ColumnBlock) -> "MeanAccumulator":
        if block.kind != "array":
            raise ValueError(
                f"MeanAccumulator absorbs 'array' columns, got "
                f"{block.kind!r}"
            )
        return self.absorb(block.column("array"))

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

    Absorbs either the compact :class:`SampledNumericReports` wire
    format or legacy dense (m, d) submission matrices; both paths keep
    only the d running sums and the user count.
    """

    def __init__(self, d: int) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = int(d)
        self._sums = np.zeros(self.d)
        self._count = 0

    def absorb(self, reports: Any) -> "MultidimMeanAccumulator":
        if isinstance(reports, SampledNumericReports):
            if reports.d != self.d:
                raise ValueError(
                    f"reports cover d={reports.d} attributes, "
                    f"accumulator expects d={self.d}"
                )
            self._sums += np.bincount(
                reports.cols.ravel(),
                weights=reports.values.ravel(),
                minlength=self.d,
            )
            self._count += reports.n
            return self
        arr = np.asarray(reports, dtype=float)
        # Uniform empty-batch no-op: a size-0 array is accepted in any
        # shape (an empty list cannot carry a column count).
        if arr.size == 0:
            return self
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.d:
            raise ValueError(
                f"batch must be (m, {self.d}), got shape {arr.shape}"
            )
        self._sums += arr.sum(axis=0)
        self._count += arr.shape[0]
        return self

    def validate_reports(self, reports: Any) -> None:
        if isinstance(reports, SampledNumericReports):
            if reports.d != self.d:
                raise ValueError(
                    f"reports cover d={reports.d} attributes, "
                    f"accumulator expects d={self.d}"
                )
            return
        arr = np.asarray(reports, dtype=float)
        if arr.size == 0:
            return
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.d:
            raise ValueError(
                f"batch must be (m, {self.d}), got shape {arr.shape}"
            )

    def _checked_sampled_columns(self, block: ColumnBlock):
        """Validated (cols, values) from a sampled-numeric block.

        Applies the same coercions and checks as
        ``SampledNumericReports.__post_init__`` plus the d-match
        ``absorb`` performs, without building the container.
        """
        d = int(block.meta.get("d", -1))
        if d != self.d:
            raise ValueError(
                f"columnar reports cover d={d} attributes, accumulator "
                f"expects d={self.d}"
            )
        cols = np.asarray(block.column("cols"), dtype=np.int64)
        values = np.asarray(block.column("values"), dtype=float)
        if cols.ndim != 2 or cols.shape != values.shape:
            raise ValueError(
                f"cols and values must be matching (n, k) matrices, "
                f"got {cols.shape} and {values.shape}"
            )
        if cols.size and (cols.min() < 0 or cols.max() >= self.d):
            raise ValueError(
                f"sampled indices must lie in [0, {self.d - 1}]"
            )
        return cols, values

    def validate_columns(self, block: ColumnBlock) -> None:
        if block.kind == "sampled-numeric":
            self._checked_sampled_columns(block)
            return
        if block.kind == "array":
            self.validate_reports(block.column("array"))
            return
        raise ValueError(
            f"MultidimMeanAccumulator absorbs 'sampled-numeric' or "
            f"'array' columns, got {block.kind!r}"
        )

    def absorb_columns(
        self, block: ColumnBlock
    ) -> "MultidimMeanAccumulator":
        if block.kind == "array":
            return self.absorb(block.column("array"))
        if block.kind != "sampled-numeric":
            raise ValueError(
                f"MultidimMeanAccumulator absorbs 'sampled-numeric' or "
                f"'array' columns, got {block.kind!r}"
            )
        cols, values = self._checked_sampled_columns(block)
        # Same reduction as the object path's absorb — bitwise equal.
        self._sums += np.bincount(
            cols.ravel(), weights=values.ravel(), minlength=self.d
        )
        self._count += cols.shape[0]
        return self

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
    if not np.issubdtype(arr.dtype, np.integer) and not np.all(
        arr == np.floor(arr)
    ):
        raise ValueError(f"{what} must be integers")
    if arr.min() < 0 or arr.max() >= size:
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

    def absorb(self, reports: Any) -> "FrequencyAccumulator":
        # Compute both deltas before mutating: a report batch the
        # oracle rejects must leave the state untouched.
        if isinstance(reports, OLHReports):
            self._check_olh(reports)
        support = self.oracle.support_counts(reports)
        n = self.oracle._n_reports(reports)
        self._support += support
        self._count += n
        return self

    def _check_olh(self, reports: OLHReports) -> None:
        """Integer seeds and integer buckets in [0, g), for an OLH
        oracle.  A bucket outside [0, g) supports no value, so such a
        report would count in n but never in support and bias every
        estimate."""
        if not isinstance(self.oracle, OptimizedLocalHashing):
            raise ValueError(
                f"OLH reports sent to a {self.oracle.name!r} oracle"
            )
        seeds = np.asarray(reports.seeds)
        if seeds.ndim != 1:
            raise ValueError(
                f"OLH seeds and buckets must be vectors, got shape "
                f"{seeds.shape}"
            )
        if not np.issubdtype(seeds.dtype, np.integer):
            raise ValueError(
                f"OLH seeds must be integers, got dtype {seeds.dtype}"
            )
        _check_categories(
            np.asarray(reports.buckets), self.oracle.g, "OLH buckets"
        )

    def validate_reports(self, reports: Any) -> None:
        if isinstance(reports, OLHReports):
            self._check_olh(reports)
            return
        if isinstance(self.oracle, OptimizedLocalHashing):
            raise ValueError(
                f"an OLH oracle needs OLH reports (seeds and buckets), "
                f"got {type(reports).__name__}"
            )
        arr = np.asarray(reports)
        if arr.ndim == 2:
            if arr.shape[1] != self.oracle.k:
                raise ValueError(
                    f"report matrix is (n, {arr.shape[1]}), oracle "
                    f"domain is k={self.oracle.k}"
                )
            return
        if arr.ndim == 1:
            _check_categories(arr, self.oracle.k, "report values")
            return
        raise ValueError(
            f"frequency reports must be a vector or matrix, got shape "
            f"{arr.shape}"
        )

    def validate_columns(self, block: ColumnBlock) -> None:
        if block.kind == "olh":
            self.validate_reports(
                OLHReports(
                    seeds=block.column("seeds"),
                    buckets=block.column("buckets"),
                )
            )
            return
        if block.kind == "array":
            self.validate_reports(block.column("array"))
            return
        raise ValueError(
            f"FrequencyAccumulator absorbs 'array' or 'olh' columns, "
            f"got {block.kind!r}"
        )

    def absorb_columns(self, block: ColumnBlock) -> "FrequencyAccumulator":
        if block.kind == "olh":
            # Zero-copy view over the seed/bucket columns — the oracle
            # counts support directly on the transported arrays.
            return self.absorb(OLHReports.from_columns(block.columns))
        if block.kind != "array":
            raise ValueError(
                f"FrequencyAccumulator absorbs 'array' or 'olh' "
                f"columns, got {block.kind!r}"
            )
        return self.absorb(block.column("array"))

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

    def absorb(self, reports: Any) -> "MixedAccumulator":
        # Validate the whole batch before mutating anything: a bad
        # categorical attribute must not leave the numeric sums
        # half-updated.
        self.validate_reports(reports)
        numeric = np.asarray(reports.numeric, dtype=float)
        self._numeric_sums += numeric.sum(axis=0)
        for name, oracle_reports in reports.categorical.items():
            self._frequency[name].absorb(oracle_reports)
        self._users += reports.n
        return self

    def validate_reports(self, reports: Any) -> None:
        numeric = np.asarray(reports.numeric, dtype=float)
        if numeric.ndim != 2 or numeric.shape[1] != self._numeric_sums.shape[0]:
            raise ValueError(
                f"numeric block must be (m, {self._numeric_sums.shape[0]}), "
                f"got shape {numeric.shape}"
            )
        for name, oracle_reports in reports.categorical.items():
            if name not in self._frequency:
                raise ValueError(
                    f"reports carry categorical attribute {name!r} not in "
                    f"this accumulator's schema "
                    f"{[a.name for a in self.schema.categorical]}"
                )
            self._frequency[name].validate_reports(oracle_reports)

    def _sub_blocks(self, block: ColumnBlock):
        """(name, sub-accumulator, sub-block) triples of a mixed block,
        in the header's categorical order (the encoding order — the
        same order the object path's absorb would use)."""
        categorical = block.meta.get("categorical")
        if not isinstance(categorical, dict):
            raise ValueError(
                "mixed columnar block carries no 'categorical' kind map"
            )
        out = []
        for name, kind in categorical.items():
            if name not in self._frequency:
                raise ValueError(
                    f"columns carry categorical attribute {name!r} not "
                    f"in this accumulator's schema "
                    f"{[a.name for a in self.schema.categorical]}"
                )
            sub = block.sub_block(name, str(kind), block.n)
            out.append((name, self._frequency[name], sub))
        return out

    def validate_columns(self, block: ColumnBlock) -> None:
        if block.kind != "mixed":
            raise ValueError(
                f"MixedAccumulator absorbs 'mixed' columns, got "
                f"{block.kind!r}"
            )
        numeric = np.asarray(block.column("numeric"), dtype=float)
        if numeric.ndim != 2 or numeric.shape[1] != self._numeric_sums.shape[0]:
            raise ValueError(
                f"numeric block must be (m, {self._numeric_sums.shape[0]}), "
                f"got shape {numeric.shape}"
            )
        for _, acc, sub in self._sub_blocks(block):
            acc.validate_columns(sub)

    def absorb_columns(self, block: ColumnBlock) -> "MixedAccumulator":
        self.validate_columns(block)
        numeric = np.asarray(block.column("numeric"), dtype=float)
        self._numeric_sums += numeric.sum(axis=0)
        for _, acc, sub in self._sub_blocks(block):
            acc.absorb_columns(sub)
        self._users += block.n
        return self

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
