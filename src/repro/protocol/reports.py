"""Report containers exchanged between protocol clients and servers.

A *report* is exactly what one user transmits; the server never needs
anything else.  Most protocol kinds reuse library-native report types
(perturbed-value arrays for 1-D numeric, bit matrices / ``OLHReports``
for frequency oracles, :class:`repro.multidim.collector.MixedReports`
for mixed tuples).  This module adds the compact wire format for
Algorithm 4:

:class:`SampledNumericReports` stores, per user, only the k sampled
attribute indices and the k scaled perturbed values — O(n k) memory
instead of the dense (n, d) matrix whose entries are mostly zeros.
``to_dense()`` recovers that layout when needed.

Columnar form
-------------

Every batch has one canonical columnar form, a :class:`ColumnBlock`:
the container kind, the user count, JSON-scalar metadata and flat
named numpy columns that are the container's own buffers.  Report
containers build theirs with a ``to_block()`` method, and
:func:`to_block` is the one conversion that turns any batch (a
container, a plain report array, or a block already) into a block.
The block is what the v2 wire format frames as one header plus packed
array payloads, and the only form a ``ServerAccumulator`` parses and
folds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np


@dataclass
class ColumnBlock:
    """One report batch in canonical columnar form.

    Attributes
    ----------
    kind:
        Container kind tag — ``"array"``, ``"olh"``,
        ``"sampled-numeric"`` or ``"mixed"`` — the same vocabulary the
        v1 JSON codec uses.
    n:
        Number of reporting users in the batch.
    meta:
        JSON-scalar metadata needed to read the columns (e.g.
        ``d``/``k`` for sampled-numeric, the per-attribute sub-kinds
        for mixed).  Never carries arrays.
    columns:
        Flat name -> numpy array mapping.  Nested containers (mixed
        tuples) flatten with ``cat.<attribute>.<column>`` names.
    """

    kind: str
    n: int
    meta: Dict[str, Any] = field(default_factory=dict)
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.n = int(self.n)
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        for name, arr in self.columns.items():
            self.columns[name] = np.asarray(arr)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise ValueError(
                f"columnar {self.kind!r} block is missing column "
                f"{name!r} (has {sorted(self.columns)})"
            ) from None

    def sub_block(self, prefix: str, kind: str) -> "ColumnBlock":
        """The nested block under ``cat.<prefix>.`` (mixed flattening).

        Its ``n`` is the row count of its first column (0 with no
        columns); the sub-accumulator's parse checks every column
        against it.
        """
        head = f"cat.{prefix}."
        columns = {
            name[len(head):]: arr
            for name, arr in self.columns.items()
            if name.startswith(head)
        }
        n = next((arr.shape[0] for arr in columns.values() if arr.ndim), 0)
        return ColumnBlock(kind=kind, n=n, columns=columns)

    def nbytes(self) -> int:
        """Total packed payload size across all columns."""
        return int(sum(arr.nbytes for arr in self.columns.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnBlock(kind={self.kind!r}, n={self.n}, "
            f"columns={sorted(self.columns)})"
        )


@dataclass
class SampledNumericReports:
    """Algorithm 4 submissions in compact (indices, values) form.

    Attributes
    ----------
    d:
        Total number of attributes in the sampling universe.
    k:
        Attributes sampled (and reported) per user.
    cols:
        (n, k) integer matrix; row i holds user i's sampled attribute
        indices (distinct, in [0, d)).
    values:
        (n, k) float matrix; entry (i, j) is the user's perturbed value
        for attribute ``cols[i, j]``, already scaled by d/k so that the
        server-side estimator is a plain average.
    """

    d: int
    k: int
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.cols.ndim != 2 or self.cols.shape != self.values.shape:
            raise ValueError(
                f"cols and values must be matching (n, k) matrices, got "
                f"{self.cols.shape} and {self.values.shape}"
            )
        if self.cols.shape[1] != self.k:
            raise ValueError(
                f"expected k={self.k} sampled attributes per row, got "
                f"{self.cols.shape[1]}"
            )
        if self.cols.size and (
            self.cols.min() < 0 or self.cols.max() >= self.d
        ):
            raise ValueError(
                f"sampled indices must lie in [0, {self.d - 1}]"
            )

    @property
    def n(self) -> int:
        """Number of reporting users."""
        return int(self.cols.shape[0])

    def __len__(self) -> int:
        return self.n

    def to_block(self) -> ColumnBlock:
        """Canonical columnar form: the two (n, k) matrices plus d/k."""
        return ColumnBlock(
            kind="sampled-numeric",
            n=self.n,
            meta={"d": int(self.d), "k": int(self.k)},
            columns={"cols": self.cols, "values": self.values},
        )

    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """The dense (n, d) submission matrix (zeros at unsampled entries)."""
        out = np.zeros((self.n, self.d))
        rows = np.repeat(np.arange(self.n), self.k)
        out[rows, self.cols.ravel()] = self.values.ravel()
        return out

    def split(self, sections: int) -> List["SampledNumericReports"]:
        """Split the users into ``sections`` contiguous shards."""
        if sections < 1:
            raise ValueError(f"sections must be >= 1, got {sections}")
        parts = zip(
            np.array_split(self.cols, sections),
            np.array_split(self.values, sections),
        )
        return [
            SampledNumericReports(d=self.d, k=self.k, cols=c, values=v)
            for c, v in parts
        ]


def to_block(batch: Any) -> ColumnBlock:
    """The one container -> :class:`ColumnBlock` conversion.

    A block passes through unchanged; a report container converts
    through its own ``to_block()`` (so this module needs no import of
    the client-side modules that define them); anything else is a
    plain report array (perturbed values, GRR integers, unary bit
    matrices) and becomes an ``"array"`` block over the same buffer.
    """
    if isinstance(batch, ColumnBlock):
        return batch
    if hasattr(batch, "to_block"):
        block: ColumnBlock = batch.to_block()
        return block
    arr = np.asarray(batch)
    if arr.dtype == object:
        raise ValueError(
            f"cannot convert report container of type "
            f"{type(batch).__name__} to columns"
        )
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return ColumnBlock(
        kind="array", n=int(arr.shape[0]), columns={"array": arr}
    )
