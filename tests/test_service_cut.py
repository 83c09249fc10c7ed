"""A checkpoint is a cut taken as bytes and written in one place.

``IngestionServer.take_cut`` builds every file of a checkpoint without
changing state, and ``SnapshotStore.save`` is the one function that
writes them.  These tests fail each ``os.fsync`` and ``os.replace`` of
one cut in turn, as ``repro.service.store`` calls them, and check what
the failure leaves: the server's bookkeeping unchanged, a directory a
fresh server resumes from consistently, no ``.tmp`` after the next
cut, and that next cut byte-identical to an unfailed twin's.

The servers are driven in-process through the one request entry point
the HTTP layer calls, so a run needs no sockets or threads.
"""

import inspect
import json

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.service import IngestionServer, SnapshotStore, http, wire
from repro.service import store as store_module

N = 40

#: The two campaigns every server here runs (the first is the
#: default), and how to draw one batch of raw values for each.
CAMPAIGNS = (
    (
        Protocol.frequency(1.0, domain=8, oracle="oue"),
        lambda rng: rng.integers(0, 8, N),
    ),
    (
        Protocol.numeric_mean(1.0, "hm"),
        lambda rng: rng.uniform(-1, 1, N),
    ),
)


def _call(server, method, path, body=None):
    raw = b"" if body is None else json.dumps(body).encode()
    request = http.Request(method, path, {}, "application/json", raw)
    return server._handle_request(request)


def _submit(server, batch):
    """Batch number ``batch`` of campaign ``batch % 2``, for new users."""
    protocol, values = CAMPAIGNS[batch % 2]
    rng = np.random.default_rng(batch)
    reports = protocol.client().encode_batch(values(rng), rng)
    fingerprint = wire.spec_fingerprint(protocol.spec)
    envelope = wire.pack(
        {
            "users": [f"b{batch}-u{i}" for i in range(N)],
            "idempotency_key": f"batch-{batch}",
            "reports": wire.encode_reports(reports),
        },
        fingerprint,
        campaign=fingerprint,
    )
    status, answer = _call(server, "POST", "/report", envelope)
    assert status == 200 and answer["status"] == "accepted", answer


def _boot(directory):
    return IngestionServer(
        CAMPAIGNS[0][0],
        campaigns=[CAMPAIGNS[1][0].spec],
        lifetime_epsilon=4.0,
        store=SnapshotStore(directory),
    )


def _server(directory):
    """Two campaigns, one complete cut, then a batch on each: both
    campaigns are dirty.  Returns the server and the cut's state."""
    server = _boot(directory)
    for batch in range(4):
        _submit(server, batch)
    server.checkpoint_now()
    first = _state(server)
    for batch in range(4, 6):
        _submit(server, batch)
    return server, first


def _state(server):
    """What a cut carries: estimates, /healthz counts, ledger spend."""
    status, health = _call(server, "GET", "/healthz")
    assert status == 200
    return {
        "estimates": json.dumps(
            [wire.encode_estimate(c.accumulator.estimate())
             for c in server.registry]
        ),
        "healthz": {
            key: health[key]
            for key in (
                "reports", "batches_accepted", "duplicates",
                "users_charged", "campaigns",
            )
        },
        "spent": {u: server.ledger.spent(u) for u in server.ledger.users()},
    }


def _bookkeeping(server):
    return [(c.fingerprint, c.dirty, c.saved_seq) for c in server.registry]


def _tree(directory):
    """Every file under ``directory``: relative path -> bytes."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class _Faults:
    """``os.fsync`` and ``os.replace``, as ``repro.service.store``
    sees them, counted and failing at call ``fail_at`` (1-based; 0
    never fails).  ``inside_save`` records, per call, whether
    ``SnapshotStore.save`` is on its stack."""

    def __init__(self, patch, fail_at=0):
        self.fail_at = fail_at
        self.inside_save = []
        for name in ("fsync", "replace"):
            real = getattr(store_module.os, name)
            patch.setattr(store_module.os, name, self._wrap(real))

    def _wrap(self, real):
        def call(*args):
            frame = inspect.currentframe()
            codes = []
            while frame is not None:
                codes.append(frame.f_code)
                frame = frame.f_back
            self.inside_save.append(
                store_module.SnapshotStore.save.__code__ in codes
            )
            if len(self.inside_save) == self.fail_at:
                raise OSError(28, "injected: no space left on device")
            return real(*args)

        return call


class TestTakeCut:
    def test_take_cut_is_a_pure_read_of_what_checkpoint_writes(
        self, tmp_path
    ):
        server, _ = _server(tmp_path)
        before = (_bookkeeping(server), _state(server), _tree(tmp_path))
        cut = server.take_cut()
        assert server.take_cut() == cut
        assert (_bookkeeping(server), _state(server), _tree(tmp_path)) == (
            before
        )
        # Payloads in registry order, then the manifest naming them.
        seq = server.registry.total_batches_accepted()
        assert cut.seq == seq
        assert [path for path, _ in cut.files] == [
            server.store.namespace(c.fingerprint).path(seq)
            for c in server.registry
        ] + [server.store.path(seq)]
        assert all(
            type(part) is bytes for _, parts in cut.files for part in parts
        )
        assert server.checkpoint_now() == seq
        for path, parts in cut.files:
            assert path.read_bytes() == b"".join(parts)
        sizes = [path.stat().st_size for path, _ in cut.files]
        _, metrics = _call(server, "GET", "/metrics")
        assert f"repro_checkpoint_last_bytes {sum(sizes)}" in metrics
        manifest = json.loads(server.store.path(seq).read_bytes())
        assert {e["seq"] for e in manifest["campaigns"].values()} == {seq}
        assert [c.saved_seq for c in server.registry] == [seq, seq]
        assert not any(c.dirty for c in server.registry)

    def test_clean_campaigns_are_named_not_rewritten(self, tmp_path):
        server, _ = _server(tmp_path)
        server.checkpoint_now()
        saved = server.registry.total_batches_accepted()
        _submit(server, 6)  # the default campaign only
        cut = server.take_cut()
        default, other = server.registry
        assert [path for path, _ in cut.files] == [
            server.store.namespace(default.fingerprint).path(cut.seq),
            server.store.path(cut.seq),
        ]
        manifest = json.loads(b"".join(cut.files[-1][1]))
        assert manifest["campaigns"][default.fingerprint]["seq"] == cut.seq
        assert manifest["campaigns"][other.fingerprint]["seq"] == saved
        assert default.saved_seq == saved  # until the cut is written


class TestFailedCut:
    def test_every_failed_call_of_a_cut(self, tmp_path, monkeypatch):
        """Fail call k of one two-campaign cut, for every k."""
        twin, first = _server(tmp_path / "twin")
        first_seq = first["healthz"]["batches_accepted"]
        pending = _state(twin)
        pending_seq = pending["healthz"]["batches_accepted"]
        cut_files = len(twin.take_cut().files)
        with monkeypatch.context() as patch:
            faults = _Faults(patch)
            twin.checkpoint_now()
        # A write, a rename and a directory fsync per file; every one
        # of them inside SnapshotStore.save.
        calls = len(faults.inside_save)
        assert calls == 3 * cut_files == 9
        assert all(faults.inside_save)
        expected_tree = _tree(tmp_path / "twin")

        for k in range(1, calls + 1):
            directory = tmp_path / f"fail-{k}"
            server, _ = _server(directory)
            bookkeeping = _bookkeeping(server)
            with monkeypatch.context() as patch:
                faults = _Faults(patch, fail_at=k)
                with pytest.raises(OSError, match="injected"):
                    server.checkpoint_now()
            assert len(faults.inside_save) == k
            assert all(faults.inside_save), k
            assert _bookkeeping(server) == bookkeeping, k

            # A fresh boot resumes one whole cut: the previous one,
            # unless only the manifest's directory fsync failed.
            resumed = _boot(directory)
            _, health = _call(resumed, "GET", "/healthz")
            seq = health["resumed_from_snapshot"]
            assert seq == (pending_seq if k == calls else first_seq), k
            assert _state(resumed) == (
                pending if seq == pending_seq else first
            ), k

            # The next cut rewrites every dirty payload and clears the
            # failed write's leftovers.
            assert server.checkpoint_now() == pending_seq
            assert not list(directory.rglob("*.tmp")), k
            assert _tree(directory) == expected_tree, k

    @pytest.mark.parametrize("fail_at", range(1, 10))
    def test_a_failed_write_leaves_no_tmp_after_the_next_cut(
        self, tmp_path, monkeypatch, fail_at
    ):
        """A server that keeps running never writes the failed seq
        again, so the next cut must remove the failed write's .tmp."""
        server, _ = _server(tmp_path)
        with monkeypatch.context() as patch:
            _Faults(patch, fail_at=fail_at)
            with pytest.raises(OSError, match="injected"):
                server.checkpoint_now()
        _submit(server, 6)
        server.checkpoint_now()
        assert not list(tmp_path.rglob("*.tmp"))


class TestCrashedCuts:
    def test_payloads_of_crashed_cuts_never_prune_a_named_one(
        self, tmp_path, monkeypatch
    ):
        """Three cuts crash after the second campaign's payload is
        renamed into place and before the manifest is, each from a
        fresh boot on cut 2.  That leaves the campaign payloads 4, 5
        and 6, which no manifest names.  The next good cut, 3, must not
        prune the payload it writes and names, or no boot resumes."""
        server = _boot(tmp_path)
        _submit(server, 0)
        _submit(server, 1)
        assert server.checkpoint_now() == 2
        payloads = server.store.namespace(list(server.registry)[1].fingerprint)
        for seq in (4, 5, 6):
            server = _boot(tmp_path)
            # Odd batches go to the second campaign only.
            for batch in range(3, 3 + 2 * (seq - 2), 2):
                _submit(server, batch)
            with monkeypatch.context() as patch:
                faults = _Faults(patch, fail_at=4)  # the manifest's fsync
                with pytest.raises(OSError, match="injected"):
                    server.checkpoint_now()
            assert len(faults.inside_save) == 4
        assert payloads.sequences() == [2, 4, 5, 6]

        server = _boot(tmp_path)
        _submit(server, 3)
        assert server.checkpoint_now() == 3
        assert payloads.sequences() == [3, 4, 5, 6]
        resumed = _boot(tmp_path)
        _, health = _call(resumed, "GET", "/healthz")
        assert health["resumed_from_snapshot"] == 3
        assert _state(resumed) == _state(server)
