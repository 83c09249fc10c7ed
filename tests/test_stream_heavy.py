"""Unit tests for repro.stream.heavy — top-k and churn detection."""

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.stream import HeavyHitterTracker, WindowConfig
from repro.stream.heavy import top_k


class TestTopK:
    def test_descending_order(self):
        assert top_k([0.1, 0.5, 0.3], k=3) == [1, 2, 0]

    def test_ties_break_by_index(self):
        assert top_k([0.2, 0.5, 0.2, 0.5], k=4) == [1, 3, 0, 2]

    def test_non_positive_excluded(self):
        assert top_k([0.0, -0.1, 0.2], k=3) == [2]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            top_k([0.1], k=0)


class TestHeavyHitterTracker:
    def test_first_observation_has_no_churn(self):
        t = HeavyHitterTracker(k=2)
        h = t.update([0.4, 0.1, 0.3], round_=0)
        assert h.indices == [0, 2]
        assert h.entered == [] and h.exited == []
        assert h.round == 0

    def test_churn_between_rounds(self):
        t = HeavyHitterTracker(k=2)
        t.update([0.4, 0.1, 0.3, 0.0], round_=0)  # top {0, 2}
        h = t.update([0.1, 0.5, 0.05, 0.4], round_=1)  # top {1, 3}
        assert h.indices == [1, 3]
        assert h.entered == [1, 3]
        assert h.exited == [0, 2]

    def test_same_round_refresh_keeps_baseline(self):
        t = HeavyHitterTracker(k=2)
        t.update([0.4, 0.1, 0.3], round_=0)  # baseline will be {0, 2}
        t.update([0.1, 0.5, 0.4], round_=1)  # top {1, 2}
        h = t.update([0.5, 0.1, 0.4], round_=1)  # re-poll, top {0, 2}
        # churn is still measured against round 0's {0, 2}
        assert h.entered == [] and h.exited == []

    def test_rejects_backward_rounds(self):
        t = HeavyHitterTracker(k=2)
        t.update([0.5, 0.1], round_=3)
        with pytest.raises(ValueError):
            t.update([0.5, 0.1], round_=2)

    def test_roundless_updates_advance_baseline(self):
        t = HeavyHitterTracker(k=1)
        t.update([0.9, 0.1])
        h = t.update([0.1, 0.9])
        assert h.entered == [1] and h.exited == [0]

    def test_per_call_k_override(self):
        t = HeavyHitterTracker(k=3)
        h = t.update([0.4, 0.3, 0.2, 0.1], round_=0, k=2)
        assert h.indices == [0, 1] and h.k == 2

    def test_snapshot_round_trip(self):
        t = HeavyHitterTracker(k=2)
        t.update([0.4, 0.1, 0.3], round_=0)
        t.update([0.1, 0.5, 0.4], round_=1)
        clone = HeavyHitterTracker.from_dict(t.to_dict())
        assert clone.to_dict() == t.to_dict()
        # both trackers report identical churn for the next round
        freqs = [0.6, 0.1, 0.2]
        assert clone.update(freqs, round_=2).to_dict() == t.update(
            freqs, round_=2
        ).to_dict()

    def test_view_serializes_to_json_scalars(self):
        t = HeavyHitterTracker(k=2)
        h = t.update(np.array([0.4, 0.1, 0.3]), round_=0)
        payload = h.to_dict()
        assert payload["indices"] == [0, 2]
        assert all(isinstance(f, float) for f in payload["frequencies"])

    def test_k_validation(self):
        with pytest.raises(ValueError):
            HeavyHitterTracker(k=0)


class TestTrackerOverWindowedOracle:
    def test_shift_detected_through_windowed_accumulator(self):
        proto = Protocol.frequency(epsilon=4.0, domain=6, oracle="grr")
        acc = WindowConfig(panes=1).build(proto.server)
        tracker = HeavyHitterTracker(k=2)

        rng = np.random.default_rng(0)
        skew_a = np.concatenate([np.full(400, 0), np.full(400, 1),
                                 rng.integers(0, 6, 100)])
        skew_b = np.concatenate([np.full(400, 4), np.full(400, 5),
                                 rng.integers(0, 6, 100)])

        acc.fold(acc.validate(proto.client().encode_batch(
            skew_a, np.random.default_rng(1)
        )), 0)
        h0 = tracker.update(acc.window_estimate(), round_=0)
        assert set(h0.indices) == {0, 1}

        acc.fold(acc.validate(proto.client().encode_batch(
            skew_b, np.random.default_rng(2)
        )), 1)
        h1 = tracker.update(acc.window_estimate(1), round_=1)
        assert set(h1.indices) == {4, 5}
        assert h1.entered == [4, 5] and h1.exited == [0, 1]
