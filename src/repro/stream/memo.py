"""Longitudinal memoized perturbation (client-side).

:class:`MemoizedEncoder` wraps any
:class:`~repro.protocol.encoders.ClientEncoder` and caches, per
``(user, value)``, the perturbed report produced the *first* time that
user reported that value.  Re-reporting an unchanged value across
rounds resends the byte-identical cached report, so the adversary's
view of that user across rounds collapses to a single perturbation —
one epsilon charge, not one per round.  The client marks each batch
entry with a ``fresh`` flag; the server's ledger charges only the
fresh ones (see DESIGN.md for the trust argument: the SDK runs on the
user's own device and is the agent protecting the user's own budget,
exactly like the perturbation itself).

The cache is per-encoder, and clients hold one encoder per campaign —
so the memoization key is effectively ``(campaign, user, value)``, the
granularity the privacy argument needs.  A user switching to a *new*
value is perturbed fresh (and charged); switching back to a previously
reported value reuses that value's original report without further
charge (classic permanent memoization à la RAPPOR).

The cache speaks blocks: each fresh batch converts to its
:class:`~repro.protocol.reports.ColumnBlock` (``to_block``), a user's
entry keeps that user's row of every column, and a round's rows stack
back into one block, which both wire versions send and every
accumulator folds.  Mixed-tuple reports are rejected — their
per-attribute sampling makes a cached row unrepresentative, so
memoizing them would silently change the protocol.

This module is client-side by design: it imports encoders and is NOT
part of the QA201 server tier.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.protocol.accumulators import ServerAccumulator
from repro.protocol.encoders import ClientEncoder, MixedEncoder
from repro.protocol.reports import ColumnBlock, to_block
from repro.utils.rng import RngLike

#: One user's cached report: its block's kind and meta, and the user's
#: row of every column.
_Row = Tuple[str, Dict[str, Any], Dict[str, np.ndarray]]


def _value_key(row: np.ndarray) -> bytes:
    """Canonical bytes for one true value (scalar or vector)."""
    arr = np.ascontiguousarray(row)
    return (
        str(arr.dtype.str).encode()
        + b"|"
        + repr(arr.shape).encode()
        + b"|"
        + arr.tobytes()
    )


class MemoizedEncoder(ClientEncoder):
    """Permanent per-``(user, value)`` report memoization wrapper.

    Wraps ``inner`` without changing its single-round distribution:
    fresh values are encoded by ``inner`` exactly as before (the fresh
    subset is perturbed as one vectorized batch, so an all-cached round
    never touches the rng at all — round-2 encode cost ~0).
    """

    def __init__(self, inner: ClientEncoder) -> None:
        if isinstance(inner, MemoizedEncoder):
            raise ValueError("refusing to memoize a MemoizedEncoder")
        if isinstance(inner, MixedEncoder):
            raise TypeError(
                "mixed-tuple protocols cannot be memoized: each round "
                "re-samples which attributes a user reports, so a cached "
                "row is unrepresentative"
            )
        self.inner = inner
        self._cache: Dict[Tuple[Hashable, bytes], _Row] = {}
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # ClientEncoder interface (delegation)
    # ------------------------------------------------------------------
    def encode_batch(self, values: Any, rng: RngLike = None) -> Any:
        """Plain (user-less) encode: no identity, nothing to memoize."""
        return self.inner.encode_batch(values, rng)

    def new_accumulator(self) -> ServerAccumulator:
        return self.inner.new_accumulator()

    # ------------------------------------------------------------------
    # Memoized path
    # ------------------------------------------------------------------
    def encode_users(
        self,
        values: Any,
        users: Sequence[Hashable],
        rng: RngLike = None,
    ) -> Tuple[ColumnBlock, List[bool]]:
        """Encode one round for named users; flag which reports are new.

        Returns ``(block, fresh)`` where ``block`` holds the round's
        reports in batch order (cached rows byte-identical to their
        first transmission) and ``fresh[i]`` says whether entry ``i``'s
        report was perturbed this round — the server charges epsilon
        only for fresh entries.  A ``(user, value)`` pair repeated in
        one batch is perturbed once, at its first entry; the later
        entries replay that report and are not fresh.
        """
        matrix = np.asarray(values)
        if matrix.ndim == 0:
            matrix = matrix.reshape(1)
        n = matrix.shape[0]
        if len(users) != n:
            raise ValueError(
                f"got {n} values for {len(users)} users; they must pair up"
            )
        if n == 0:
            return to_block(self.inner.encode_batch(values, rng)), []

        keys = [(users[i], _value_key(matrix[i])) for i in range(n)]
        first: Dict[Tuple[Hashable, bytes], int] = {}
        for i, key in enumerate(keys):
            if key not in self._cache:
                first.setdefault(key, i)
        fresh = [first.get(key) == i for i, key in enumerate(keys)]
        self._hits += n - len(first)
        self._misses += len(first)

        if first:
            block = to_block(self.inner.encode_batch(
                matrix[np.fromiter(first.values(), dtype=np.intp)], rng
            ))
            for j, key in enumerate(first):
                self._cache[key] = (
                    block.kind,
                    block.meta,
                    {name: arr[j] for name, arr in block.columns.items()},
                )
        rows = [self._cache[key] for key in keys]
        kind, meta, names = rows[0]
        columns = {
            name: np.stack([row[2][name] for row in rows]) for name in names
        }
        return ColumnBlock(kind=kind, n=n, meta=meta, columns=columns), fresh

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache_size(self) -> int:
        """Distinct ``(user, value)`` pairs memoized so far."""
        return len(self._cache)

    @property
    def hits(self) -> int:
        """Reports served from cache (no perturbation, no charge)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Reports perturbed fresh (charged by the ledger)."""
        return self._misses

    def forget(self, user: Optional[Hashable] = None) -> int:
        """Drop cached reports (one user's, or everyone's); returns
        the number of entries removed.  A forgotten value will be
        re-perturbed — and re-charged — on next report."""
        if user is None:
            removed = len(self._cache)
            self._cache.clear()
            return removed
        doomed = [key for key in self._cache if key[0] == user]
        for key in doomed:
            del self._cache[key]
        return len(doomed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoizedEncoder({self.inner!r}, cached={self.cache_size}, "
            f"hits={self._hits}, misses={self._misses})"
        )
