"""SnapshotStore tests: atomicity, durability, pruning, recovery
ordering, corrupt snapshots."""

import json
import os
import re
import stat

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.service import wire
from repro.service.store import (
    RETAIN,
    Cut,
    RawJSON,
    SnapshotCorruptError,
    SnapshotStore,
)


def save(store, seq, payload):
    """Write snapshot ``seq`` as a one-file cut; returns its path."""
    store.save(Cut(seq, (store.encode(seq, payload),)))
    return store.path(seq)


class TestSnapshotStore:
    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        payload = {"fingerprint": "abc", "value": [1, 2, 3]}
        path = save(store, 4, payload)
        assert path.exists()
        loaded = store.load(4)
        assert loaded["seq"] == 4
        assert loaded["value"] == [1, 2, 3]

    def test_latest_picks_highest_sequence(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for seq in (1, 5, 3):
            save(store, seq, {"marker": seq})
        assert store.latest_sequence() == 5
        seq, payload = store.load_latest()
        assert seq == 5 and payload["marker"] == 5

    def test_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.latest_sequence() is None
        assert store.load_latest() is None

    def test_prunes_to_keep(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for seq in range(5):
            save(store, seq, {})
        assert RETAIN == 3
        assert store.sequences() == [2, 3, 4]

    def test_no_partial_snapshot_visible(self, tmp_path):
        """A leftover .tmp from a crashed write is never read."""
        store = SnapshotStore(tmp_path)
        save(store, 1, {"ok": True})
        # Simulate a crash mid-write of snapshot 2.
        (tmp_path / "snapshot-0000000002.tmp").write_text('{"seq": 2, "tru')
        assert store.sequences() == [1]
        assert store.load_latest()[0] == 1
        # The next save of seq 2 overwrites the junk and completes.
        save(store, 2, {"ok": True})
        assert store.load(2)["ok"] is True

    def test_saved_file_is_complete_json(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = save(store, 7, {"blob": "x" * 100_000})
        assert json.loads(path.read_text())["blob"] == "x" * 100_000

    def test_validation(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(ValueError):
            save(store, -1, {})

    def test_creates_directory(self, tmp_path):
        nested = tmp_path / "a" / "b"
        save(SnapshotStore(nested), 0, {})
        assert nested.exists()

    def test_bytes_are_json_dumps_with_raw_values_verbatim(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = save(
            store,
            3,
            {
                "a": [1, 2.5, None],
                "ledger": RawJSON([b'{"k": [', b"0.1, 1e-07", b"]}"]),
                "name": "\u00fc\"\\",
            },
        )
        assert path.read_bytes() == json.dumps(
            {
                "seq": 3,
                "a": [1, 2.5, None],
                "ledger": {"k": [0.1, 1e-07]},
                "name": "\u00fc\"\\",
            }
        ).encode()

    def test_directory_is_fsynced_after_each_rename(
        self, tmp_path, monkeypatch
    ):
        """A cut makes each file's rename durable before it writes the
        next, so a namespace payload is on disk before the manifest
        naming it."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            events.append(("fsync", stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace",))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store = SnapshotStore(tmp_path)
        child = store.namespace("campaign")
        payload, manifest = child.path(1), store.path(1)
        store.save(
            Cut(1, (child.encode(1, {"x": 1}), store.encode(1, {"child": 1})))
        )

        def inode(path):
            return os.stat(path).st_ino

        assert events == [
            ("fsync", False, inode(payload)),
            ("replace",),
            ("fsync", True, inode(child.directory)),
            ("fsync", False, inode(manifest)),
            ("replace",),
            ("fsync", True, inode(tmp_path)),
        ]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) // 2],  # torn write
            lambda raw: b"",
            lambda raw: b"\xff" + raw,  # not UTF-8
        ],
    )
    def test_corrupt_snapshot_names_the_file(self, tmp_path, damage):
        store = SnapshotStore(tmp_path)
        save(store, 1, {"ok": True})
        path = save(store, 2, {"ok": True, "blob": "x" * 100})
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(SnapshotCorruptError, match=re.escape(str(path))):
            store.load_latest()
        assert issubclass(SnapshotCorruptError, ValueError)
        # No silent fallback, but older snapshots stay readable.
        assert store.load(1)["ok"] is True


class TestResumeEquality:
    """Resume-from-snapshot is bitwise-equal to an uninterrupted run."""

    @pytest.mark.parametrize(
        "factory, values_of",
        [
            (
                lambda: Protocol.frequency(1.0, domain=16),
                lambda rng, n: rng.integers(0, 16, n),
            ),
            (
                lambda: Protocol.multidim(4.0, d=5, mechanism="hm"),
                lambda rng, n: rng.uniform(-1, 1, (n, 5)),
            ),
        ],
    )
    def test_checkpoint_resume_bitwise(self, tmp_path, factory, values_of):
        protocol = factory()
        store = SnapshotStore(tmp_path)
        encoder = protocol.client()
        rng = np.random.default_rng(0)
        batches = [
            encoder.encode_batch(
                values_of(rng, 200), np.random.default_rng(seed)
            )
            for seed in range(6)
        ]

        uninterrupted = protocol.server()
        for batch in batches:
            uninterrupted.absorb(batch)

        # First process: absorb 3 batches, checkpoint, "crash".
        first = protocol.server()
        for batch in batches[:3]:
            first.absorb(batch)
        save(store, 3, {"accumulator": wire.encode_accumulator_state(first)})
        del first

        # Second process: recover from disk, absorb the rest.
        seq, snapshot = store.load_latest()
        assert seq == 3
        resumed = wire.decode_accumulator_state(
            protocol.server(),
            json.loads(json.dumps(snapshot["accumulator"])),
        )
        for batch in batches[3:]:
            resumed.absorb(batch)

        assert resumed.count == uninterrupted.count
        np.testing.assert_array_equal(
            np.asarray(resumed.estimate()),
            np.asarray(uninterrupted.estimate()),
        )
