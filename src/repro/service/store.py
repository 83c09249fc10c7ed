"""Durable checkpoint/recovery of service state.

A :class:`SnapshotStore` persists numbered JSON snapshot files in one
directory.  The server's root store holds campaign manifests: per
campaign its spec, lifecycle state, counters, window config,
heavy-hitter state and last-saved sequence, plus the cross-campaign
privacy ledger and the global batch and duplicate counters.  Each
campaign's encoded accumulator statistics and processed idempotency
keys live in its own namespace (below).

A checkpoint is a :class:`Cut`, every file it writes as bytes, and
:meth:`SnapshotStore.save` is the one function that writes snapshot
files: each to ``<name>.tmp``, flushed and fsynced, moved into place
with ``os.replace``, then its directory fsynced so the rename survives
power loss.  A reader therefore only ever observes complete snapshots.
Only once the cut's manifest (its last file) is durable is each
directory it wrote pruned, to its newest :data:`RETAIN` snapshots and
no ``.tmp``, so a failed cut deletes nothing the previous manifest
names.  A cut never prunes a file it wrote itself: payloads that
failed cuts left above it (renamed into place, but never named by a
manifest) cannot push out the payload its own manifest names.
Recovery resumes from the highest surviving sequence number.
A newest snapshot that is damaged anyway fails recovery with
:class:`SnapshotCorruptError` rather than resuming from an older one,
which could forget budget already charged.

Stores can be **namespaced**: :meth:`SnapshotStore.namespace` returns
a child store rooted at a subdirectory of this one, with independent
sequences and pruning.  The campaign layer gives every campaign its
own namespace (accumulator payloads) under the root store (which
holds the manifest + cross-campaign ledger), so one campaign's churn
never prunes another's history.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{10})\.json$")

#: Snapshots a directory keeps after each cut that writes into it.
RETAIN = 3


class SnapshotCorruptError(ValueError):
    """A snapshot that cannot be resumed from: it is missing or not
    valid JSON (e.g. a manifest cut short on disk), or, as the newest
    snapshot a server boots on, it is not a campaign manifest
    (pre-campaign snapshots are no longer read) or has a value of the
    wrong shape, or none, where a cut writes one."""


class RawJSON:
    """A payload value :meth:`SnapshotStore.encode` writes verbatim:
    ``parts`` concatenated are the value's ASCII JSON text."""

    def __init__(self, parts: List[bytes]):
        self.parts = parts


#: One file of a cut: its path, and its bytes as parts.
SnapshotFile = Tuple[Path, Tuple[bytes, ...]]


class Cut(NamedTuple):
    """One checkpoint, whole as bytes before any of it is written:
    each campaign payload it rewrites, then the manifest naming them.
    """

    seq: int
    files: Tuple[SnapshotFile, ...]


class SnapshotStore:
    """Atomic, numbered JSON snapshots under one directory.

    Parameters
    ----------
    directory:
        Where snapshots live; created if missing.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def namespace(self, name: str) -> "SnapshotStore":
        """Child store at ``directory/name``.

        Namespace names must be flat path components (the campaign
        layer uses spec fingerprints, which are hex).
        """
        if not re.fullmatch(r"[A-Za-z0-9._-]+", name) or name in {
            ".",
            "..",
        }:
            raise ValueError(f"invalid namespace name {name!r}")
        return SnapshotStore(self.directory / name)

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
    def encode(self, seq: int, payload: Dict[str, Any]) -> SnapshotFile:
        """Snapshot ``seq`` of this store as a file of a cut: its bytes
        are ``json.dumps({"seq": seq, **payload})``, with a top-level
        :class:`RawJSON` value written as its text."""
        if seq < 0:
            raise ValueError(f"seq must be >= 0, got {seq}")
        parts: List[bytes] = []
        for key, value in {"seq": int(seq), **payload}.items():
            parts.append(b", " if parts else b"{")
            parts.append(f"{json.dumps(key)}: ".encode())
            if isinstance(value, RawJSON):
                parts += value.parts
            else:
                parts.append(json.dumps(value).encode())
        parts.append(b"}")
        return self.path(seq), tuple(parts)

    def save(self, cut: Cut) -> None:
        """Write ``cut`` durably, file by file in order, and prune only
        once its manifest is durable (see the module docstring)."""
        for path, parts in cut.files:
            tmp = path.with_suffix(".tmp")
            with open(tmp, "wb") as handle:
                handle.writelines(parts)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            # The rename is durable only once the directory entry is.
            directory = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
        written = [path for path, _ in cut.files]
        for directory in dict.fromkeys(path.parent for path in written):
            SnapshotStore(directory)._prune(written)

    def _prune(self, written: List[Path]) -> None:
        """Keep the newest :data:`RETAIN` snapshots and every file in
        ``written``, and no ``.tmp``."""
        stale = [self.path(seq) for seq in self.sequences()[:-RETAIN]]
        for path in [*stale, *self.directory.glob("snapshot-*.tmp")]:
            if path not in written:
                path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def load(self, seq: int) -> Dict[str, Any]:
        """Read one snapshot by sequence number.

        Raises :class:`SnapshotCorruptError` when the file is missing
        or not valid JSON.
        """
        path = self.path(seq)
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError as exc:
            raise SnapshotCorruptError(f"snapshot {path} is missing") from exc
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
            f"snapshots={len(self.sequences())})"
        )
