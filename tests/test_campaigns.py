"""Unit tests for the campaign subsystem (no network).

Lifecycle state machine, fingerprint-keyed registry, and the atomic
batch semantics of the one accountant every campaign charges —
everything the multi-tenant server composes, exercised directly.
"""

import json
import logging

import numpy as np
import pytest

from repro.analysis.accountant import BudgetExceededError, PrivacyAccountant
from repro.campaigns import (
    Campaign,
    CampaignRegistry,
    CampaignState,
    InvalidTransitionError,
    UnknownCampaignError,
    batch_multiplicity,
    check_transition,
)
from repro.protocol import Protocol
from repro.service import wire


def _mean_spec(eps=1.0, mechanism="hm"):
    return Protocol.numeric_mean(eps, mechanism).spec


class TestLifecycle:
    def test_forward_transitions(self):
        assert (
            check_transition(CampaignState.OPEN, CampaignState.SEALED)
            is CampaignState.SEALED
        )
        assert (
            check_transition(CampaignState.SEALED, CampaignState.ESTIMATED)
            is CampaignState.ESTIMATED
        )

    def test_self_transition_is_noop(self):
        for state in CampaignState:
            assert check_transition(state, state) is state

    @pytest.mark.parametrize(
        "current,target",
        [
            ("open", "estimated"),  # cannot skip sealing
            ("sealed", "open"),  # cannot reopen
            ("estimated", "open"),
            ("estimated", "sealed"),
        ],
    )
    def test_illegal_jumps_rejected(self, current, target):
        with pytest.raises(InvalidTransitionError):
            check_transition(
                CampaignState(current), CampaignState(target)
            )

    def test_unknown_state_string_rejected(self):
        with pytest.raises(InvalidTransitionError):
            CampaignState.coerce("draining")

    def test_campaign_walks_the_graph(self):
        campaign = Campaign(_mean_spec())
        assert campaign.state is CampaignState.OPEN
        assert campaign.accepts_reports
        campaign.seal()
        assert campaign.state is CampaignState.SEALED
        assert not campaign.accepts_reports
        campaign.seal()  # idempotent
        assert campaign.state is CampaignState.SEALED
        campaign.mark_estimated()
        assert campaign.state is CampaignState.ESTIMATED
        campaign.seal()  # sealing an estimated campaign stays estimated
        assert campaign.state is CampaignState.ESTIMATED

    def test_open_campaign_cannot_jump_to_estimated(self):
        campaign = Campaign(_mean_spec())
        with pytest.raises(InvalidTransitionError):
            campaign.mark_estimated()

    def test_each_transition_logs_once_and_marks_dirty(self, caplog):
        """A move that changes the state logs one record with ``from``,
        ``to`` and ``reports``; a repeated one logs nothing.  Both mark
        the campaign dirty, except sealing an estimated campaign, which
        does nothing, and an illegal jump, which raises first."""
        campaign = Campaign(_mean_spec())
        campaign.accumulator.absorb(np.array([0.5, -0.5, 0.25]))
        caplog.set_level(logging.INFO, logger="repro.campaigns.registry")

        def move(method):
            campaign.dirty = False
            caplog.clear()
            try:
                method()
            except InvalidTransitionError:
                pass
            return campaign.dirty, [
                (r.getMessage(), r.campaign, getattr(r, "from"), r.to,
                 r.reports)
                for r in caplog.records
            ]

        def logged(was, to):
            return [
                ("campaign state transition", campaign.fingerprint, was, to,
                 3)
            ]

        assert move(campaign.mark_estimated) == (False, [])
        assert move(campaign.seal) == (True, logged("open", "sealed"))
        assert move(campaign.seal) == (True, [])
        assert move(campaign.mark_estimated) == (
            True, logged("sealed", "estimated")
        )
        assert move(campaign.mark_estimated) == (True, [])
        assert move(campaign.seal) == (False, [])
        assert campaign.state is CampaignState.ESTIMATED


class TestRegistry:
    def test_keyed_by_spec_fingerprint(self):
        registry = CampaignRegistry()
        spec = _mean_spec()
        campaign, created = registry.register(spec)
        assert created
        assert campaign.fingerprint == wire.spec_fingerprint(spec)
        assert registry.get(campaign.fingerprint) is campaign
        assert campaign.fingerprint in registry

    def test_registration_idempotent_keeps_live_state(self):
        registry = CampaignRegistry()
        campaign, _ = registry.register(_mean_spec())
        campaign.batches_accepted = 7
        again, created = registry.register(_mean_spec())
        assert not created
        assert again is campaign
        assert again.batches_accepted == 7

    def test_distinct_specs_distinct_campaigns(self):
        registry = CampaignRegistry()
        a, _ = registry.register(_mean_spec(1.0))
        b, _ = registry.register(_mean_spec(2.0))
        assert a.fingerprint != b.fingerprint
        assert len(registry) == 2

    def test_default_routing(self):
        registry = CampaignRegistry()
        default, _ = registry.register(_mean_spec(), default=True)
        other, _ = registry.register(_mean_spec(2.0))
        assert registry.resolve(None) is default
        assert registry.resolve(other.fingerprint) is other
        assert registry.default is default

    def test_no_default_rejects_anonymous_routing(self):
        registry = CampaignRegistry()
        registry.register(_mean_spec())
        with pytest.raises(UnknownCampaignError):
            registry.resolve(None)

    def test_unknown_fingerprint_rejected(self):
        registry = CampaignRegistry()
        with pytest.raises(UnknownCampaignError):
            registry.get("f" * 64)

    def test_second_default_rejected(self):
        registry = CampaignRegistry()
        registry.register(_mean_spec(), default=True)
        with pytest.raises(ValueError):
            registry.register(_mean_spec(2.0), default=True)

    def test_describe_lists_default_first(self):
        registry = CampaignRegistry()
        registry.register(_mean_spec(2.0))
        registry.register(_mean_spec(), default=True)
        listing = registry.describe()
        assert listing[0]["default"] is True
        assert {entry["state"] for entry in listing} == {"open"}


class TestCampaignSnapshotRoundTrip:
    def test_bitwise_restore(self):
        protocol = Protocol.frequency(1.0, domain=12)
        campaign = Campaign(protocol)
        rng = np.random.default_rng(3)
        reports = protocol.client().encode_batch(
            rng.integers(0, 12, 150), np.random.default_rng(9)
        )
        campaign.accumulator.absorb(reports)
        campaign.seen_keys = {"k1", "k2"}
        campaign.batches_accepted = 1
        campaign.seal()
        campaign.saved_seq = 1

        manifest = json.loads(json.dumps(campaign.manifest_entry()))
        payload = json.loads(json.dumps(campaign.snapshot_payload()))
        rebuilt = Campaign(manifest["spec"]).restore(manifest, payload)

        assert rebuilt.fingerprint == campaign.fingerprint
        assert rebuilt.state is CampaignState.SEALED
        assert rebuilt.seen_keys == {"k1", "k2"}
        assert rebuilt.batches_accepted == 1
        assert not rebuilt.dirty
        np.testing.assert_array_equal(
            rebuilt.accumulator.estimate(),
            campaign.accumulator.estimate(),
        )

    def test_restore_rejects_foreign_payload(self):
        campaign = Campaign(_mean_spec())
        foreign = Campaign(_mean_spec(2.0))
        with pytest.raises(wire.SpecMismatchError):
            campaign.restore(
                foreign.manifest_entry(), foreign.snapshot_payload()
            )


class TestCrossCampaignLedger:
    def test_batch_multiplicity(self):
        assert batch_multiplicity(["a", "b", "a"]) == {"a": 2, "b": 1}

    def test_spend_accumulates_across_campaigns(self):
        ledger = PrivacyAccountant(2.0)
        ledger.charge_batch({"u": 1}, 1.0, label="A" * 64)
        ledger.charge_batch({"u": 1}, 1.0, label="B" * 64)
        assert ledger.spent("u") == pytest.approx(2.0)
        # A third campaign finds the user's GLOBAL budget exhausted.
        assert ledger.rejected_users({"u": 1}, 0.5) == ["u"]

    def test_rejection_respects_multiplicity(self):
        ledger = PrivacyAccountant(1.0)
        assert ledger.rejected_users({"u": 2}, 0.7) == ["u"]
        assert ledger.rejected_users({"u": 1}, 0.7) == []

    def test_spent_by_campaign_breakdown(self):
        ledger = PrivacyAccountant(3.0)
        ledger.charge_batch({"u": 2}, 0.5, label="A" * 64)
        ledger.charge_batch({"u": 1}, 1.5, label="B" * 64)
        breakdown = ledger.spent_by_label("u")
        assert breakdown == {
            "A" * 64: pytest.approx(1.0),
            "B" * 64: pytest.approx(1.5),
        }

    def test_missed_precheck_cannot_corrupt(self):
        ledger = PrivacyAccountant(1.0)
        ledger.charge_batch({"u": 1}, 1.0, label="A" * 64)
        with pytest.raises(BudgetExceededError):
            ledger.charge_batch({"u": 1}, 1.0, label="B" * 64)
        assert ledger.spent("u") == pytest.approx(1.0)

    def test_round_trip_survives_json_bitwise(self):
        ledger = PrivacyAccountant(2.0)
        # 0.1 is not exactly representable: a lossy float path would
        # show up here.
        ledger.charge_batch({"u1": 1, "u2": 3}, 0.1, label="A" * 64)
        ledger.charge_batch({"u1": 1}, 0.3, label="B" * 64)
        rebuilt = PrivacyAccountant.from_dict(
            json.loads(json.dumps(ledger.to_dict()))
        )
        assert rebuilt.to_dict() == ledger.to_dict()
        assert rebuilt.spent("u1") == ledger.spent("u1")
        assert rebuilt.spent_by_label("u2") == ledger.spent_by_label("u2")
