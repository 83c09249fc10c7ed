"""Campaign registry: many concurrent collections on one server.

A :class:`Campaign` bundles everything one collection owns — its
:class:`~repro.protocol.facade.Protocol`, its single
:class:`~repro.protocol.accumulators.ServerAccumulator`, its
idempotency-key set, its lifecycle state, and its counters.  The
:class:`CampaignRegistry` keys campaigns by the SHA-256 fingerprint of
their canonical spec dict (the same fingerprint the wire envelope
carries), so the campaign *id* and the spec-integrity check are one
value: addressing a campaign with the wrong spec is structurally
impossible to do silently.

What campaigns deliberately do **not** own is a privacy accountant —
budget is a property of the *user*, not the collection, and lives in
the one :class:`~repro.campaigns.ledger.CrossCampaignLedger` shared by
every campaign on the server.

The service's wire codec is imported lazily inside methods: ``campaigns``
sits below ``service`` in the import graph (``service.server`` imports
this module at top), so a module-level import back into
``repro.service`` would be a cycle.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Union

from repro.campaigns.lifecycle import CampaignState, check_transition
from repro.obs.logging import get_logger
from repro.protocol.accumulators import ServerAccumulator
from repro.protocol.facade import Protocol
from repro.protocol.spec import ProtocolSpec
from repro.stream.heavy import HeavyHitterTracker
from repro.stream.windows import WindowConfig, WindowedAccumulator

_log = get_logger("repro.campaigns.registry")


class UnknownCampaignError(KeyError):
    """No campaign registered under the requested fingerprint."""


class CampaignSealedError(RuntimeError):
    """A report was addressed at a campaign that no longer ingests."""


class Campaign:
    """One collection: a protocol, its accumulator, and its lifecycle.

    Parameters
    ----------
    protocol_or_spec:
        A :class:`Protocol`, :class:`ProtocolSpec`, or spec dict.
    default:
        Whether v1 (campaign-unaware) envelopes route here.
    window:
        Optional :class:`~repro.stream.windows.WindowConfig` (or its
        dict form).  When set, :attr:`accumulator` is a
        :class:`~repro.stream.windows.WindowedAccumulator` over the
        protocol's accumulator factory, and the campaign answers
        ``GET /estimate?window=...`` queries.  The window config lives
        *outside* the :class:`ProtocolSpec` on purpose: it changes what
        the server can answer, not what users transmit, so it must not
        change the campaign fingerprint that clients validate against.
    """

    def __init__(
        self,
        protocol_or_spec: Union[Protocol, ProtocolSpec, Dict[str, Any]],
        default: bool = False,
        window: Optional[Union[WindowConfig, Dict[str, Any]]] = None,
    ):
        from repro.service.wire import spec_fingerprint

        if isinstance(protocol_or_spec, Protocol):
            self.protocol = protocol_or_spec
        else:
            self.protocol = Protocol.from_spec(protocol_or_spec)
        if window is not None and not isinstance(window, WindowConfig):
            window = WindowConfig.from_dict(window)
        self.window = window
        self.heavy: Optional[HeavyHitterTracker] = None
        self.spec = self.protocol.spec
        self.fingerprint = spec_fingerprint(self.spec)
        self.default = bool(default)
        self.state = CampaignState.OPEN
        self.accumulator: ServerAccumulator = self._new_accumulator()
        self.seen_keys: set = set()
        self.batches_accepted = 0
        self.duplicates = 0
        # Sequence of the last namespaced snapshot holding this
        # campaign's accumulator; None until first saved.  Dirty means
        # state has changed since then and the next checkpoint must
        # rewrite it.
        self.saved_seq: Optional[int] = None
        self.dirty = True

    # ------------------------------------------------------------------
    def _new_accumulator(self) -> ServerAccumulator:
        """A fresh accumulator of this campaign's shape: windowed when
        the campaign has a window config, plain otherwise."""
        if self.window is not None:
            return self.window.build(self.protocol.server)
        return self.protocol.server()

    @property
    def windowed(self) -> bool:
        """Whether this campaign answers ``?window=`` queries."""
        return self.window is not None

    @property
    def reports(self) -> int:
        """Reports absorbed so far."""
        return int(self.accumulator.count)

    def validate_batch(self, batch: Any) -> None:
        """Raise ``ValueError`` iff absorbing ``batch`` would.

        Runs on the request path *before* budget is charged; never
        mutates state.
        """
        self.accumulator.validate(batch)

    def absorb_shard(self, batch: Any, round_: Optional[int] = None) -> int:
        """Fold one validated batch into :attr:`accumulator`; returns the
        number of reports absorbed.

        It keeps its shard-era name because ``perfbench/launcher.py``
        times the absorb layer by wrapping this method by name.

        ``round_`` routes the batch into that round's pane on windowed
        campaigns (round-less batches land in the current pane); plain
        campaigns ignore it — the round is a windowing concern, not an
        accumulation one.
        """
        acc = self.accumulator
        before = acc.count
        if isinstance(acc, WindowedAccumulator) and round_ is not None:
            acc.absorb_round(round_, batch)
        else:
            acc.absorb(batch)
        return int(acc.count - before)

    def merged_window(self) -> WindowedAccumulator:
        """:attr:`accumulator`, typed as the windowed accumulator it is
        on a windowed campaign; raises on plain campaigns."""
        if not isinstance(self.accumulator, WindowedAccumulator):
            raise ValueError(
                f"campaign {self.fingerprint[:12]}... has no window "
                f"config; only all-time estimates are available"
            )
        return self.accumulator

    def heavy_tracker(self, k: int) -> HeavyHitterTracker:
        """The campaign's churn tracker, created on first use."""
        if self.heavy is None:
            self.heavy = HeavyHitterTracker(k=k)
            self.dirty = True
        return self.heavy

    # ------------------------------------------------------------------
    # Live window introspection (cheap enough for metric gauges: reads
    # pane counters, never merges panes)
    # ------------------------------------------------------------------
    def window_latest_round(self) -> int:
        """Highest round absorbed (-1 before any data)."""
        latest = self.merged_window().latest_round
        return -1 if latest is None else latest

    def window_live_panes(self) -> int:
        """Distinct live rounds in the ring."""
        return len(self.merged_window().live_rounds())

    def window_reports(self) -> int:
        """Reports currently held in live panes."""
        return sum(self.merged_window().pane_counts().values())

    @property
    def accepts_reports(self) -> bool:
        return self.state is CampaignState.OPEN

    def seal(self) -> CampaignState:
        """``open -> sealed`` (idempotent on sealed/estimated)."""
        if self.state is not CampaignState.ESTIMATED:
            was = self.state
            self.state = check_transition(self.state, CampaignState.SEALED)
            self.dirty = True
            if self.state is not was:
                _log.info(
                    "campaign state transition",
                    extra={
                        "campaign": self.fingerprint,
                        "from": was.value,
                        "to": self.state.value,
                        "reports": self.reports,
                    },
                )
        return self.state

    def mark_estimated(self) -> CampaignState:
        """``sealed -> estimated`` — called when a final estimate is
        served; estimating an *open* campaign is allowed but non-final
        and does not transition."""
        was = self.state
        self.state = check_transition(self.state, CampaignState.ESTIMATED)
        self.dirty = True
        if self.state is not was:
            _log.info(
                "campaign state transition",
                extra={
                    "campaign": self.fingerprint,
                    "from": was.value,
                    "to": self.state.value,
                    "reports": self.reports,
                },
            )
        return self.state

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """JSON-friendly public listing entry (``GET /campaigns``)."""
        return {
            "campaign": self.fingerprint,
            "kind": self.spec.kind,
            "epsilon": self.spec.epsilon,
            "state": self.state.value,
            "final": self.state is not CampaignState.OPEN,
            "default": self.default,
            "reports": self.reports,
            "batches_accepted": self.batches_accepted,
            "duplicates": self.duplicates,
            "window": (
                self.window.to_dict() if self.window is not None else None
            ),
        }

    def manifest_entry(self) -> Dict[str, Any]:
        """Metadata recorded in the root snapshot manifest (everything
        except the accumulator payload, which lives in this campaign's
        own snapshot namespace)."""
        entry: Dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "state": self.state.value,
            "default": self.default,
            "batches_accepted": self.batches_accepted,
            "duplicates": self.duplicates,
            "seq": self.saved_seq,
        }
        if self.window is not None:
            entry["window"] = self.window.to_dict()
        if self.heavy is not None:
            entry["heavy"] = self.heavy.to_dict()
        return entry

    def snapshot_payload(self) -> Dict[str, Any]:
        """Wire-encoded accumulator state + idempotency keys."""
        from repro.service.wire import encode_accumulator_state

        return {
            "fingerprint": self.fingerprint,
            "idempotency_keys": sorted(self.seen_keys),
            "accumulator": encode_accumulator_state(self.accumulator),
        }

    def restore(
        self, manifest: Dict[str, Any], payload: Dict[str, Any]
    ) -> "Campaign":
        """Load the state a manifest entry + namespaced snapshot carry.

        A payload with ``shard_accumulators`` was written by a server
        that still ran the removed ``--shards`` ingestion tier.  Its
        per-shard states fold into one fresh accumulator in shard-index
        order — the merge that server ran for every estimate, so the
        estimates stay bitwise-equal — and the campaign is marked dirty
        so the next checkpoint rewrites it as one ``accumulator``.
        """
        from repro.service.wire import (
            SpecMismatchError,
            decode_accumulator_state,
        )

        if payload.get("fingerprint") != self.fingerprint:
            raise SpecMismatchError(
                f"campaign snapshot was written by "
                f"{str(payload.get('fingerprint'))[:12]!r}..., not "
                f"{self.fingerprint[:12]!r}..."
            )
        self.accumulator = self._new_accumulator()
        shard_states = payload.get("shard_accumulators")
        if shard_states is None:
            decode_accumulator_state(self.accumulator, payload["accumulator"])
        else:
            for state in shard_states:
                self.accumulator.merge(
                    decode_accumulator_state(self._new_accumulator(), state)
                )
        self.seen_keys = set(payload.get("idempotency_keys", []))
        self.state = CampaignState.coerce(manifest["state"])
        self.default = bool(manifest.get("default", self.default))
        self.batches_accepted = int(manifest["batches_accepted"])
        self.duplicates = int(manifest.get("duplicates", 0))
        if manifest.get("heavy") is not None:
            self.heavy = HeavyHitterTracker.from_dict(manifest["heavy"])
        self.saved_seq = manifest.get("seq")
        self.dirty = shard_states is not None
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Campaign({self.spec.kind!r}, "
            f"fingerprint={self.fingerprint[:12]}..., "
            f"state={self.state.value}, reports={self.reports})"
        )


class CampaignRegistry:
    """All campaigns one server instance is running, by fingerprint."""

    def __init__(self) -> None:
        self._campaigns: Dict[str, Campaign] = {}
        self._default: Optional[str] = None

    # ------------------------------------------------------------------
    def register(
        self,
        protocol_or_spec: Union[Protocol, ProtocolSpec, Dict[str, Any]],
        default: bool = False,
        window: Optional[Union[WindowConfig, Dict[str, Any]]] = None,
    ) -> tuple:
        """Add a campaign; returns ``(campaign, created)``.

        Registration is idempotent by fingerprint: re-registering an
        existing spec returns the live campaign untouched (its
        accumulated reports, state and keys are kept).  A re-register
        may omit the window config (window-unaware callers never strip
        an existing window) but must not *contradict* it — the window
        shapes the accumulator state, so changing it mid-flight would
        corrupt snapshots.
        """
        campaign = Campaign(protocol_or_spec, default=default, window=window)
        existing = self._campaigns.get(campaign.fingerprint)
        if existing is not None:
            if (
                campaign.window is not None
                and existing.window != campaign.window
            ):
                raise ValueError(
                    f"campaign {existing.fingerprint[:12]}... is already "
                    f"registered with window={existing.window}; "
                    f"cannot re-register with window={campaign.window}"
                )
            if default and self._default is None:
                existing.default = True
                self._default = existing.fingerprint
            return existing, False
        if default:
            if self._default is not None:
                raise ValueError(
                    "registry already has a default campaign "
                    f"({self._default[:12]}...)"
                )
            self._default = campaign.fingerprint
        self._campaigns[campaign.fingerprint] = campaign
        return campaign, True

    def get(self, fingerprint: str) -> Campaign:
        try:
            return self._campaigns[fingerprint]
        except KeyError:
            raise UnknownCampaignError(
                f"no campaign registered under fingerprint "
                f"{str(fingerprint)[:12]!r}..."
            ) from None

    def resolve(self, fingerprint: Optional[str]) -> Campaign:
        """Route an envelope: explicit fingerprint, or the default
        campaign when the sender is campaign-unaware (v1 client)."""
        if fingerprint is not None:
            return self.get(fingerprint)
        if self._default is None:
            raise UnknownCampaignError(
                "envelope names no campaign and this server has no "
                "default campaign"
            )
        return self._campaigns[self._default]

    @property
    def default(self) -> Optional[Campaign]:
        if self._default is None:
            return None
        return self._campaigns[self._default]

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._campaigns

    def __len__(self) -> int:
        return len(self._campaigns)

    def __iter__(self) -> Iterator[Campaign]:
        return iter(self._campaigns.values())

    def fingerprints(self) -> List[str]:
        return list(self._campaigns)

    def describe(self) -> List[Dict[str, Any]]:
        """Public listing, default campaign first then by fingerprint."""
        return [
            c.describe()
            for c in sorted(
                self._campaigns.values(),
                key=lambda c: (not c.default, c.fingerprint),
            )
        ]

    def total_reports(self) -> int:
        return sum(c.reports for c in self._campaigns.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CampaignRegistry(campaigns={len(self._campaigns)}, "
            f"default={self._default and self._default[:12]})"
        )
