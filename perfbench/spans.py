"""In-memory spans around layer calls, and the arithmetic over them.

A traced run wraps a fixed set of public calls (the table in
``launcher.py``) so that every call records one span: layer name,
start, end, parent span, and the idempotency key of the batch it
served.  Both the server (through the launcher) and the load generator
record spans with ``time.monotonic()``, which on Linux reads the
system-wide ``CLOCK_MONOTONIC``, so spans from the two processes share
one time axis and can be joined into one tree per batch.

The arithmetic here is pure: :func:`join` hangs each server span under
the client request that caused it, :func:`self_times` gives every span
its duration minus the part its children cover.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One span: [name, start, end, parent index or None, key or None, bytes].
Span = List[Any]

NAME, START, END, PARENT, KEY, BYTES = range(6)


class SpanRecorder:
    """Collects spans in memory; one open-span stack per thread.

    ``tag`` is the idempotency key of the batch being handled: a call
    that reveals the key (packing or unpacking a frame) sets it on its
    own span, on every open ancestor, and as the tag of spans opened
    after it on the same thread.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.monotonic(), None,
                stack[-1] if stack else None,
                getattr(self._local, "tag", None), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.monotonic()
        self._stack().pop()

    def set_key(self, key: Optional[str]) -> None:
        """Attach ``key`` to the open spans of this thread and tag the
        spans it opens next."""
        self._local.tag = key
        for index in self._stack():
            self.spans[index][KEY] = key

    def dump(self, path: str) -> None:
        """Write the spans as JSON, atomically."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)
        os.replace(tmp, path)


def _resolve(dotted: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = dotted.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(
    recorder: SpanRecorder,
    table: Sequence[Tuple[str, str, Optional[Callable]]],
) -> Callable[[], None]:
    """Wrap every ``(target, layer, on_result)`` row; returns an undo.

    ``on_result(recorder, index, args, kwargs, result)`` may read the
    call's key or byte count off its arguments or result.
    """
    undo = []
    for target, layer, on_result in table:
        owner, attr = _resolve(target)
        original = vars(owner)[attr]

        def wrapper(*args, __func=original, __layer=layer,
                    __hook=on_result, **kwargs):
            index = recorder.open(__layer)
            try:
                result = __func(*args, **kwargs)
                if __hook is not None:
                    __hook(recorder, index, args, kwargs, result)
                return result
            finally:
                recorder.close(index)

        setattr(owner, attr, functools.wraps(original)(wrapper))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def join(
    client: List[Span],
    server: List[Span],
    windows: Sequence[str],
) -> List[Span]:
    """One span list: ``client`` then ``server``, with every top-level
    server span hung under the client span that caused it.

    Candidates are client spans named in ``windows`` (HTTP round
    trips).  A server span goes under the window with its key when that
    window contains it in time, else under the latest-starting window
    that contains it.  Server spans no window contains (boot, drain)
    stay top-level.
    """
    offset = len(client)
    merged = [list(s) for s in client]
    for span in server:
        copy = list(span)
        if copy[PARENT] is not None:
            copy[PARENT] += offset
        merged.append(copy)
    cands = sorted(
        (s[START], s[END], i, s[KEY])
        for i, s in enumerate(client) if s[NAME] in windows
    )
    starts = [c[0] for c in cands]
    by_key = {c[3]: c for c in cands if c[3] is not None}
    for i in range(offset, len(merged)):
        span = merged[i]
        if span[PARENT] is not None:
            continue
        start, end = span[START], span[END]
        keyed = by_key.get(span[KEY])
        if keyed is not None and keyed[0] <= start and end <= keyed[1]:
            span[PARENT] = keyed[2]
            continue
        hit = bisect.bisect_right(starts, start)
        for cand in reversed(cands[max(0, hit - 8):hit]):
            if end <= cand[1]:
                span[PARENT] = cand[2]
                break
    return merged


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def in_intervals(t: float, intervals: Sequence[Tuple[float, float]]) -> bool:
    return any(lo <= t <= hi for lo, hi in intervals)


def layer_self_totals(
    spans: List[Span],
    intervals: Sequence[Tuple[float, float]],
) -> Dict[str, float]:
    """Summed self time per layer over spans that start inside one of
    the ``intervals`` (the timed phase), in seconds."""
    totals: Dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        if in_intervals(s[START], intervals):
            totals[s[NAME]] = totals.get(s[NAME], 0.0) + own
    return totals
