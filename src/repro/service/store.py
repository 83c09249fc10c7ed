"""Durable checkpoint/recovery of service state.

A :class:`SnapshotStore` persists numbered JSON snapshot files in one
directory.  The server's root store holds campaign manifests: per
campaign its spec, lifecycle state, counters, window config,
heavy-hitter state and last-saved sequence, plus the cross-campaign
privacy ledger and the global batch and duplicate counters.  Each
campaign's encoded accumulator statistics and processed idempotency
keys live in its own namespace (below).

Write protocol (crash-safe): serialize to ``<name>.tmp`` in the same
directory, flush + fsync, ``os.replace`` onto the final name, then
fsync the directory so the rename itself survives power loss.  A
reader therefore only ever observes complete snapshots; a crash
mid-write leaves at worst a stale ``.tmp`` file that the next save
overwrites.  Old snapshots are pruned down to ``keep`` after every
save, and recovery always resumes from the highest surviving sequence
number.  A newest snapshot that is damaged anyway fails recovery with
:class:`SnapshotCorruptError` rather than resuming from an older one,
which could forget budget already charged.

Stores can be **namespaced**: :meth:`SnapshotStore.namespace` returns
a child store rooted at a subdirectory of this one, with the same
``keep`` policy but independent sequences and pruning.  The campaign
layer gives every campaign its own namespace (accumulator payloads)
under the root store (which holds the manifest + cross-campaign
ledger), so one campaign's churn never prunes another's history.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{10})\.json$")


class SnapshotCorruptError(ValueError):
    """A snapshot file that exists but cannot be resumed from: it is
    not valid JSON (e.g. a manifest cut short on disk), or, as the
    newest snapshot a server boots on, it is not a campaign manifest
    (pre-campaign snapshots are no longer read)."""


class RawJSON:
    """A payload value :meth:`SnapshotStore.save` writes verbatim:
    ``parts`` concatenated are the value's ASCII JSON text."""

    def __init__(self, parts: List[bytes]):
        self.parts = parts


class SnapshotStore:
    """Atomic, numbered JSON snapshots under one directory.

    Parameters
    ----------
    directory:
        Where snapshots live; created if missing.
    keep:
        How many most-recent snapshots to retain (>= 1).
    """

    def __init__(self, directory, keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)

    # ------------------------------------------------------------------
    def namespace(self, name: str) -> "SnapshotStore":
        """Child store at ``directory/name`` (same ``keep`` policy).

        Namespace names must be flat path components (the campaign
        layer uses spec fingerprints, which are hex).
        """
        if not re.fullmatch(r"[A-Za-z0-9._-]+", name) or name in {
            ".",
            "..",
        }:
            raise ValueError(f"invalid namespace name {name!r}")
        return SnapshotStore(self.directory / name, keep=self.keep)

    def namespaces(self) -> List[str]:
        """Names of all existing child namespaces, sorted."""
        return sorted(
            entry.name
            for entry in self.directory.iterdir()
            if entry.is_dir()
        )

    # ------------------------------------------------------------------
    def path(self, seq: int) -> Path:
        """The file that holds (or would hold) snapshot ``seq``."""
        return self.directory / f"snapshot-{seq:010d}.json"

    def sequences(self) -> List[int]:
        """Sequence numbers of all complete snapshots, ascending."""
        out = []
        for entry in self.directory.iterdir():
            match = _SNAPSHOT_RE.match(entry.name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def latest_sequence(self) -> Optional[int]:
        """Highest stored sequence number, or ``None`` when empty."""
        seqs = self.sequences()
        return seqs[-1] if seqs else None

    # ------------------------------------------------------------------
    def save(self, seq: int, payload: Dict[str, Any]) -> Path:
        """Atomically and durably write snapshot ``seq``; prunes old
        snapshots.

        The file holds ``json.dumps({"seq": seq, **payload})``, with a
        top-level :class:`RawJSON` value written as its text.
        """
        if seq < 0:
            raise ValueError(f"seq must be >= 0, got {seq}")
        final = self.path(seq)
        tmp = final.with_suffix(".tmp")
        parts: List[bytes] = []
        for key, value in {"seq": int(seq), **payload}.items():
            parts.append(b", " if parts else b"{")
            parts.append(f"{json.dumps(key)}: ".encode())
            if isinstance(value, RawJSON):
                parts += value.parts
            else:
                parts.append(json.dumps(value).encode())
        parts.append(b"}")
        with open(tmp, "wb") as handle:
            handle.writelines(parts)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        # The rename is durable only once the directory entry is.
        directory = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        self._prune()
        return final

    def _prune(self) -> None:
        for seq in self.sequences()[: -self.keep]:
            try:
                self.path(seq).unlink()
            except FileNotFoundError:  # pragma: no cover - racing pruners
                pass

    # ------------------------------------------------------------------
    def load(self, seq: int) -> Dict[str, Any]:
        """Read one snapshot by sequence number.

        Raises :class:`SnapshotCorruptError` when the file is not valid
        JSON.
        """
        path = self.path(seq)
        with open(path, encoding="utf-8") as handle:
            try:
                return json.load(handle)
            except ValueError as exc:  # also UnicodeDecodeError
                raise SnapshotCorruptError(
                    f"snapshot {path} is corrupt: {exc}"
                ) from exc

    def load_latest(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """``(seq, payload)`` of the newest snapshot, or ``None``."""
        seq = self.latest_sequence()
        if seq is None:
            return None
        return seq, self.load(seq)

    def latest_info(self) -> Optional[Tuple[int, float]]:
        """``(seq, mtime)`` of the newest snapshot without reading it
        (healthz reports the sequence and its age)."""
        seq = self.latest_sequence()
        if seq is None:
            return None
        return seq, self.path(seq).stat().st_mtime

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SnapshotStore({str(self.directory)!r}, "
            f"snapshots={len(self.sequences())}, keep={self.keep})"
        )
