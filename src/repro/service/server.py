"""Stdlib-only asyncio HTTP ingestion server (multi-tenant).

The aggregator half of the paper's deployment, as an actual network
service.  One :class:`IngestionServer` owns a
:class:`~repro.campaigns.registry.CampaignRegistry` of concurrent
collection campaigns (a protocol, its accumulator, idempotency keys and
lifecycle state each), the one
:class:`~repro.analysis.accountant.PrivacyAccountant` that charges
every accepted report against its user's single *global* budget, and an
optional :class:`~repro.service.store.SnapshotStore` for checkpoints:
a manifest (specs, states, counters, the ledger) plus one accumulator
payload per campaign, resumed on restart.

Endpoints are listed once, with what each answers, in :data:`_ROUTES`
(JSON, except the Prometheus text of ``/metrics``).  A windowed
campaign (:class:`~repro.stream.windows.WindowConfig`) also answers
sliding-window and decayed estimates.

Ingestion is strictly ordered: request handlers run on the event loop
and each report batch, a v1 JSON envelope or a v2 columnar frame, goes
through :mod:`repro.service.ingest`'s three steps (check, admit
against the ledger, commit) synchronously, so accumulators see batches
in arrival order and a checkpoint always captures a quiescent state.

The HTTP layer is a deliberately minimal HTTP/1.1 implementation over
``asyncio.start_server`` with no third-party dependency, in
:mod:`repro.service.http`: each connection is served in a loop until
the client closes it, asks to, or idles past a timeout, and the SDK in
:mod:`repro.service.client` reuses one connection per thread.  This
module answers each fully read request from one table: :data:`_ROUTES`
maps path -> method -> handler, answers 404 and 405, and names the
``endpoint`` label of the request metrics.  A handler that refuses a
request raises :class:`~repro.service.ingest.Refusal` (status,
``error`` and fields) at any depth;
:meth:`IngestionServer._handle_request` is the one place that turns it
into the response.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.analysis.accountant import PrivacyAccountant
from repro.campaigns.ledger import batch_multiplicity
from repro.campaigns.lifecycle import InvalidTransitionError
from repro.campaigns.registry import Campaign, CampaignRegistry
from repro.obs.lifecycle import DrainResult, DrainState, advance
from repro.obs.logging import bind_campaign, bound_context, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.protocol.facade import Protocol
from repro.protocol.spec import ProtocolSpec
from repro.service import http, ingest, wire
from repro.service.ingest import Refusal
from repro.service.store import (
    Cut,
    RawJSON,
    SnapshotCorruptError,
    SnapshotStore,
)
from repro.stream.windows import WindowConfig

_log = get_logger("repro.service.server")

#: ``Retry-After`` (seconds) suggested while the server is draining —
#: long enough that a well-behaved client gives up on this replica.
DRAINING_RETRY_AFTER = 5

SpecLike = Union[Protocol, ProtocolSpec, Dict[str, Any]]

#: What reading a manifest value of the wrong shape, or a missing one,
#: raises (an unknown campaign state raises the last).
_MALFORMED = (
    AttributeError, KeyError, TypeError, ValueError, InvalidTransitionError,
)

#: The keys a manifest's ledger object starts with, before the
#: accountant's own.
_LEDGER_HEAD = {"type": "cross-campaign-ledger"}

#: A route handler's query (path parameter included) and its answer:
#: the status and a JSON payload (Prometheus text for ``/metrics``).
Query = Dict[str, str]
Reply = Tuple[int, Any]

#: Every route, listed once: path -> method -> handler.  A handler is
#: an :class:`IngestionServer` method name, looked up per request, and
#: takes the query and the decoded body.  The path is also the
#: ``endpoint`` label of the request metrics; any other path is
#: labelled "other", so a URL-scanning client cannot inflate label
#: cardinality.
_ROUTES: Dict[str, Dict[str, str]] = {
    # liveness, uptime, snapshot seq/age, counters
    "/healthz": {"GET": "_handle_healthz"},
    # Prometheus text exposition v0.0.4
    "/metrics": {"GET": "_handle_metrics"},
    # every campaign and its state; register one from {"spec": ...}
    "/campaigns": {
        "GET": "_handle_campaign_list",
        "POST": "_handle_campaign_register",
    },
    # POST /campaigns/<fp>/seal (see _match): close it to ingestion
    "/campaigns/seal": {"POST": "_handle_campaign_seal"},
    # spec + fingerprint (?campaign=<fp>, on every campaign view)
    "/spec": {"GET": "_handle_spec"},
    # all-time estimate; windowed campaigns also take
    # ?window=<panes|duration> and ?decay=<gamma>
    "/estimate": {"GET": "_handle_estimate"},
    # live top-k + churn for frequency campaigns (?k=, ?window=)
    "/heavy-hitters": {"GET": "_handle_heavy_hitters"},
    # an enveloped report batch (idempotent under its key)
    "/report": {"POST": "_handle_report"},
    # force a snapshot now; answers its sequence
    "/checkpoint": {"POST": "_handle_checkpoint"},
}


def _match(path: str, query: Query) -> Tuple[str, Query]:
    """The route a request path names, and the query its handler sees.

    ``/campaigns/<fp>/seal`` is the one path with a parameter: it routes
    to "/campaigns/seal" with ``fp`` as the ``campaign`` argument.  A
    path that no route names is "other".
    """
    if path in _ROUTES:
        return path, query
    parts = [p for p in path.split("/") if p]
    if len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "seal":
        return "/campaigns/seal", {**query, "campaign": parts[1]}
    return "other", query


#: Budget-spend buckets: epsilon is O(1), not O(milliseconds), so the
#: default latency buckets would put every user in the last bucket.
_EPSILON_BUCKETS = (
    0.125, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0,
)


class ServerMetrics:
    """Every instrument the ingestion server owns.

    A series observes or reads state; it never holds it.  Two groups:

    * **State series** (rendered whatever ``instrument`` says).  Some
      read state when a scrape renders them: batches accepted per
      campaign and duplicates (the campaigns' own counts, which the
      snapshot sequence and ``/healthz`` also read), the per-user
      spend distribution (the ledger's balances), and the campaign,
      ledger, uptime, drain and connection views.  The rest count the
      server's own work: batches per wire version, checkpoints and
      their cost, closed connections.
    * **Request-path observation**: per-campaign ingest throughput,
      batch-handling and request latency histograms, HTTP rejection
      counters.  ``instrumented`` is its one switch: every call site
      checks it, and without it the group is registered on a registry
      that is never rendered.  Its cost on ``/report`` is bounded at
      5% by ``tests/test_service_overhead.py``.
    """

    def __init__(self, instrument: bool = True) -> None:
        self.registry = MetricsRegistry()
        self.instrumented = bool(instrument)
        observed = self.registry if self.instrumented else MetricsRegistry()

        # -- state (always rendered) -----------------------------------
        self.batches_accepted = self.registry.counter(
            "repro_batches_accepted_total",
            "Report batches accepted, by campaign; the sum over "
            "campaigns is the snapshot sequence number.  Read from the "
            "campaigns, so it resumes across restarts.",
            labels=("campaign",),
        )
        self.duplicate_batches = self.registry.counter(
            "repro_duplicate_batches_total",
            "Batches answered 'duplicate' via their idempotency key; "
            "resumes across restarts.",
        )
        self.wire_batches = self.registry.counter(
            "repro_ingest_batches_total",
            "Accepted batches by wire format version.",
            labels=("wire_version",),
        )
        for version in wire.SUPPORTED_WIRE_VERSIONS:
            # Pre-seed both series so /metrics shows an explicit zero
            # (and healthz its key) before the first batch arrives.
            self.wire_batches.labels(wire_version=str(version))
        self.checkpoints = self.registry.counter(
            "repro_checkpoints_total",
            "Snapshots written (periodic, explicit, and drain-time).",
        )
        self.checkpoint_seconds = self.registry.histogram(
            "repro_checkpoint_seconds",
            "Wall-clock latency of one full checkpoint (campaign "
            "payloads + manifest).",
        )
        self.checkpoint_bytes = self.registry.gauge(
            "repro_checkpoint_last_bytes",
            "Total bytes of the most recent checkpoint (manifest plus "
            "every campaign payload written in that round).",
        )
        self.campaign_reports = self.registry.gauge(
            "repro_campaign_reports",
            "Reports absorbed per campaign (live view of the "
            "accumulator).",
            labels=("campaign",),
        )
        self.campaigns = self.registry.gauge(
            "repro_campaigns",
            "Registered campaigns on this server.",
        )
        self.users_charged = self.registry.gauge(
            "repro_users_charged",
            "Distinct users with nonzero spend in the cross-campaign "
            "ledger.",
        )
        self.budget_spend = self.registry.histogram(
            "repro_user_budget_spent_epsilon",
            "Per-user epsilon spend in the cross-campaign ledger, read "
            "when scraped: _count is the users charged, _sum the total "
            "spend.",
            buckets=_EPSILON_BUCKETS,
        )
        self.uptime = self.registry.gauge(
            "repro_uptime_seconds",
            "Seconds since this server object was constructed.",
        )
        self.draining = self.registry.gauge(
            "repro_draining",
            "1 while the server is draining (new batches get 503), "
            "else 0.",
        )
        self.connections_open = self.registry.gauge(
            "repro_connections_open",
            "HTTP connections open now (kept-alive ones included).",
        )
        self.connections_closed = self.registry.counter(
            "repro_connections_closed_total",
            "HTTP connections closed, by why: client, idle, "
            "header_timeout, bad_request, over_cap, shutdown.",
            labels=("reason",),
        )
        for reason in http.CLOSE_REASONS:
            self.connections_closed.labels(reason=reason)

        # -- request-path observation (instrumented only) --------------
        self.ingest_reports = observed.counter(
            "repro_ingest_reports_total",
            "Individual LDP reports accepted, by campaign and wire "
            "format version.",
            labels=("campaign", "wire_version"),
        )
        self.batch_seconds = observed.histogram(
            "repro_batch_handle_seconds",
            "POST /report handling latency per batch (decode, "
            "validate, admit, absorb, charge), by campaign.",
            labels=("campaign",),
        )
        self.request_seconds = observed.histogram(
            "repro_request_seconds",
            "HTTP request handling latency by endpoint.",
            labels=("endpoint",),
        )
        self.http_responses = observed.counter(
            "repro_http_responses_total",
            "HTTP responses by endpoint and status code (the 400/404/"
            "409/429 series are the rejection counters).",
            labels=("endpoint", "status"),
        )
        self.rejected_batches = observed.counter(
            "repro_rejected_batches_total",
            "POST /report batches rejected, by reason.",
            labels=("reason",),
        )
        self.campaign_window_latest = self.registry.gauge(
            "repro_campaign_window_latest_round",
            "Highest streaming round absorbed per windowed campaign "
            "(-1 before any data; absent for unwindowed campaigns).",
            labels=("campaign",),
        )
        self.campaign_window_panes = self.registry.gauge(
            "repro_campaign_window_live_panes",
            "Distinct live ring panes per windowed campaign.",
            labels=("campaign",),
        )
        self.campaign_window_reports = self.registry.gauge(
            "repro_campaign_window_reports",
            "Reports currently held in live (in-window) panes per "
            "windowed campaign; the all-time total is "
            "repro_campaign_reports.",
            labels=("campaign",),
        )

    # ------------------------------------------------------------------
    def track_server(self, server: "IngestionServer") -> None:
        """Point the live-view gauges at the server's real state."""
        self.campaigns.set_function(lambda: len(server.registry))
        self.duplicate_batches.set_function(server.registry.total_duplicates)
        # A lambda, not a bound method: resume replaces server.ledger.
        self.users_charged.set_function(lambda: server.ledger.user_count())
        self.budget_spend.set_function(
            lambda: server.ledger.spend_buckets(_EPSILON_BUCKETS)
        )
        self.uptime.set_function(
            lambda: time.monotonic() - server._started_at
        )
        self.draining.set_function(
            lambda: 0.0 if server.drain_state is DrainState.SERVING else 1.0
        )

    def accepted(self, batch: ingest.Batch) -> None:
        """Count one committed batch by wire version, and (instrumented)
        its reports by campaign; log it at DEBUG."""
        n, version = batch.block.n, batch.wire_version
        self.wire_batches.labels(wire_version=str(version)).inc()
        if self.instrumented:
            self.ingest_reports.labels(
                campaign=batch.campaign.fingerprint, wire_version=str(version)
            ).inc(n)
        if _log.isEnabledFor(10):  # DEBUG: no extra dict per batch
            extra = {"reports": n, "wire_version": version}
            _log.debug("batch accepted", extra=extra)

    def track_campaign(self, campaign: Campaign) -> None:
        fp = campaign.fingerprint
        self.campaign_reports.labels(campaign=fp).set_function(
            lambda: campaign.reports
        )
        self.batches_accepted.labels(campaign=fp).set_function(
            lambda: campaign.batches_accepted
        )
        if campaign.windowed:
            self.campaign_window_latest.labels(campaign=fp).set_function(
                campaign.window_latest_round
            )
            self.campaign_window_panes.labels(campaign=fp).set_function(
                campaign.window_live_panes
            )
            self.campaign_window_reports.labels(campaign=fp).set_function(
                campaign.window_reports
            )


class IngestionServer:
    """Networked LDP aggregator for one or many campaigns.

    Parameters
    ----------
    protocol_or_spec:
        The *default* campaign — a :class:`Protocol`, a
        :class:`ProtocolSpec`, or a spec dict.  Campaign-unaware (v1)
        envelopes route here.  ``None`` starts a server with no
        default; every request must then address a campaign.
    lifetime_epsilon:
        Per-user **global** budget cap, shared across every campaign
        (cross-campaign sequential composition).  Defaults to the
        default campaign's epsilon (each user reports once, the
        paper's m = 1 policy), else the registered campaigns' max;
        required when the server starts with no campaigns at all.
    store:
        Snapshot store for durable checkpoints; when it already holds
        a manifest the server resumes *all* campaigns plus the ledger
        from it (fingerprint-checked per campaign).  A newest snapshot
        that is not a campaign manifest, or has a value of the wrong
        shape or none where a cut writes one, raises
        :class:`~repro.service.store.SnapshotCorruptError`.
    checkpoint_every:
        Write a snapshot after every this-many accepted batches
        (requires ``store``; ``None`` disables periodic checkpoints).
        Campaign registrations and seals checkpoint immediately.
    host / port:
        Bind address; port 0 picks a free port (see :attr:`port` after
        :meth:`start`).
    campaigns:
        Additional (non-default) campaign specs to register at boot.
    instrument:
        ``False`` skips the request-path observation (latency
        histograms, per-campaign report and response counters) and
        leaves it off ``/metrics``.  The state series stay either way.
    window:
        Optional :class:`~repro.stream.windows.WindowConfig` (or its
        dict form) applied to every campaign registered at boot.  The
        campaigns then accumulate into ring-buffer panes keyed by the
        envelope's streaming round and answer
        ``GET /estimate?window=...`` and ``GET /heavy-hitters``;
        campaigns registered later via ``POST /campaigns`` choose their
        own window in the request body.
    """

    def __init__(
        self,
        protocol_or_spec: Optional[SpecLike] = None,
        lifetime_epsilon: Optional[float] = None,
        store: Optional[SnapshotStore] = None,
        checkpoint_every: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        campaigns: Optional[Iterable[SpecLike]] = None,
        instrument: bool = True,
        window: Optional[Union[WindowConfig, Dict[str, Any]]] = None,
    ):
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if store is None:
                raise ValueError("checkpoint_every requires a store")
        self.metrics = ServerMetrics(instrument)
        self.registry = CampaignRegistry()
        if window is not None and not isinstance(window, WindowConfig):
            window = WindowConfig.from_dict(window)
        self.window = window
        if protocol_or_spec is not None:
            self.registry.register(
                protocol_or_spec, default=True, window=window
            )
        for spec in campaigns or ():
            self.registry.register(spec, window=window)
        if lifetime_epsilon is None:
            if len(self.registry) == 0:
                raise ValueError(
                    "a server starting with no campaigns needs an "
                    "explicit lifetime_epsilon"
                )
            default = self.registry.default
            lifetime_epsilon = (
                default.spec.epsilon
                if default is not None
                else max(c.spec.epsilon for c in self.registry)
            )
        self.ledger = PrivacyAccountant(lifetime_epsilon)
        self.store = store
        self.checkpoint_every = checkpoint_every
        self.host = host
        self.port = port
        self._drain_state = DrainState.SERVING
        self._request_seq = itertools.count(1)
        self._resumed_from: Optional[int] = None
        self._started_at = time.monotonic()
        self._http: Optional[http.HttpServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        if self.store is not None:
            self._maybe_resume()
        self.metrics.track_server(self)
        for campaign in self.registry:
            self.metrics.track_campaign(campaign)

    @property
    def fingerprint(self) -> Optional[str]:
        default = self.registry.default
        return default.fingerprint if default is not None else None

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _maybe_resume(self) -> None:
        loaded = self.store.load_latest()
        if loaded is None:
            return
        seq, snapshot = loaded
        try:
            self._resume_manifest(seq, snapshot)
        except (SnapshotCorruptError, wire.SpecMismatchError):
            raise
        except _MALFORMED as exc:
            # A manifest that does not have the shape a cut writes must
            # not resume, and must not crash boot either.
            reason = f"missing {exc}" if isinstance(exc, KeyError) else exc
            raise SnapshotCorruptError(
                f"snapshot {self.store.path(seq)} is corrupt: {reason}"
            ) from exc
        self._resumed_from = seq

    def _resume_manifest(self, seq: int, snapshot: Dict[str, Any]) -> None:
        """Restore every campaign + the ledger from a campaign manifest.

        Raises one of :data:`_MALFORMED` when a value has the wrong
        shape or is missing."""
        if not isinstance(snapshot, dict) or not isinstance(
            snapshot.get("campaigns"), dict
        ):
            raise SnapshotCorruptError(
                f"snapshot {self.store.path(seq)} is not a campaign "
                "manifest (pre-campaign snapshots are no longer read)"
            )
        manifest_default = snapshot.get("default")
        configured = self.registry.default
        if (
            configured is not None
            and manifest_default is not None
            and configured.fingerprint != manifest_default
        ):
            raise wire.SpecMismatchError(
                f"snapshot {seq} in {self.store.directory} has default "
                f"campaign {str(manifest_default)[:12]!r}..., this server "
                f"was configured with {configured.fingerprint[:12]!r}..."
            )
        for fp, entry in snapshot["campaigns"].items():
            if not isinstance(entry, dict) or not isinstance(
                entry.get("spec"), dict
            ):
                raise ValueError(f"campaign {fp[:12]!r}... has no spec")
            saved_seq = entry.get("seq")
            if saved_seq is not None and (
                type(saved_seq) is not int or saved_seq < 0
            ):
                raise ValueError(
                    f"campaign {fp[:12]!r}... has seq {saved_seq!r}, not "
                    "a snapshot number"
                )
            if fp in self.registry:
                campaign = self.registry.get(fp)
                # The window shapes the checkpointed state: resuming it
                # under another ring would break the window contract.
                saved = entry.get("window")
                saved = WindowConfig.from_dict(saved) if saved else None
                if campaign.window != saved:
                    raise wire.SpecMismatchError(
                        f"snapshot {seq} in {self.store.directory} has "
                        f"campaign {str(fp)[:12]!r}... with window={saved}, "
                        f"this server was configured with "
                        f"window={campaign.window}"
                    )
            else:
                campaign, _ = self.registry.register(
                    entry["spec"],
                    default=(fp == manifest_default),
                    window=entry.get("window"),
                )
            if campaign.fingerprint != fp:
                raise wire.SpecMismatchError(
                    f"manifest entry {str(fp)[:12]!r}... does not match "
                    f"its own spec (fingerprint "
                    f"{campaign.fingerprint[:12]!r}...)"
                )
            if saved_seq is None:  # registered but never checkpointed
                continue
            try:
                payload = self.store.namespace(fp).load(saved_seq)
            except SnapshotCorruptError as exc:
                # As a ValueError, the boot error names the manifest
                # too, not only the payload file.
                raise ValueError(f"campaign {fp[:12]!r}...: {exc}") from exc
            campaign.restore(entry, payload)
        try:
            self.ledger = PrivacyAccountant.from_dict(snapshot["ledger"])
        except ValueError as exc:
            # A value that could under-charge a user must not resume.
            raise SnapshotCorruptError(
                f"snapshot {self.store.path(seq)} is corrupt: ledger: {exc}"
            ) from exc
        _log.info(
            "resumed from snapshot",
            extra={
                "seq": seq,
                "campaigns": len(self.registry),
                "batches_accepted": int(snapshot["batches_accepted"]),
            },
        )

    def take_cut(self) -> Cut:
        """The current state as a checkpoint's bytes: each dirty
        campaign's payload, then the manifest naming them.  Changes no
        state; :meth:`checkpoint_now` moves ``saved_seq`` once written."""
        if self.store is None:
            raise RuntimeError("server has no snapshot store")
        seq = self.registry.total_batches_accepted()
        dirty = [c for c in self.registry if c.dirty]
        files = [
            self.store.namespace(c.fingerprint).encode(
                seq, c.snapshot_payload()
            )
            for c in dirty
        ]
        entries = {c.fingerprint: c.manifest_entry() for c in self.registry}
        for campaign in dirty:
            entries[campaign.fingerprint]["seq"] = seq
        default = self.registry.default
        manifest = {
            "wire_version": wire.WIRE_VERSION,
            "type": "campaign-manifest",
            "default": default.fingerprint if default else None,
            "campaigns": entries,
            "ledger": RawJSON(self.ledger.json_parts(_LEDGER_HEAD)),
            "batches_accepted": seq,
            "duplicates": self.registry.total_duplicates(),
        }
        files.append(self.store.encode(seq, manifest))
        return Cut(seq, tuple(files))

    def checkpoint_now(self) -> int:
        """Take a cut, write it, then mark the campaigns it saved clean;
        returns its seq.  If the write raises, no campaign changes and
        the next cut rewrites every dirty payload."""
        started = time.perf_counter()
        saved = [c for c in self.registry if c.dirty]
        cut = self.take_cut()
        self.store.save(cut)
        for campaign in saved:
            campaign.saved_seq = cut.seq
            campaign.dirty = False
        written = sum(len(part) for _, parts in cut.files for part in parts)
        elapsed = time.perf_counter() - started
        self.metrics.checkpoints.inc()
        self.metrics.checkpoint_seconds.observe(elapsed)
        self.metrics.checkpoint_bytes.set(written)
        _log.info(
            "checkpoint written",
            extra={
                "seq": cut.seq,
                "bytes": written,
                "seconds": round(elapsed, 6),
            },
        )
        return cut.seq

    def _checkpoint_if_durable(self) -> None:
        """Persist registry mutations (register/seal) immediately."""
        if self.store is not None:
            self.checkpoint_now()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _handle_request(self, request: http.Request) -> Reply:
        """Answer one fully read request: decode its body, route it
        through :data:`_ROUTES`, run its handler, and turn a
        :class:`~repro.service.ingest.Refusal` raised anywhere on the
        way into its response.  Times and counts every answer by route."""
        endpoint, query = _match(request.path, request.query)
        started = time.perf_counter()
        with bound_context(request_id=f"r-{next(self._request_seq)}"):
            try:
                body = ingest.decode(request.content_type, request.body)
                if endpoint == "other":
                    raise Refusal(404, "not_found", path=request.path)
                handler = _ROUTES[endpoint].get(request.method)
                if handler is None:
                    raise Refusal(405, "method_not_allowed")
                status, payload = getattr(self, handler)(query, body)
            except Refusal as refusal:
                status, payload = refusal.status, refusal.payload
        if self.metrics.instrumented:
            self.metrics.request_seconds.labels(endpoint=endpoint).observe(
                time.perf_counter() - started
            )
            self.metrics.http_responses.labels(
                endpoint=endpoint, status=str(status)
            ).inc()
        return status, payload

    @staticmethod
    def _window_panes(campaign: Campaign, query: Query, detail: str) -> int:
        """The pane count ``?window=`` names, for every windowed view;
        409 ``not_windowed`` (with ``detail``) on an unwindowed one."""
        if not campaign.windowed:
            raise Refusal(
                409,
                "not_windowed",
                campaign=campaign.fingerprint,
                detail=detail,
            )
        try:
            return campaign.window.resolve_panes(query.get("window"))
        except ValueError as exc:
            raise Refusal(400, "bad_window", detail=str(exc)) from None

    def _handle_healthz(self, query: Query, body: Any) -> Reply:
        """Liveness view over the state ``/metrics`` also reads.

        Batch and duplicate counts are the campaigns' own, users come
        from the ledger, and per-wire-version counts from their counter:
        the server keeps no parallel healthz bookkeeping.  ``/metrics``
        is the same data with history (histograms) and labels; this
        endpoint stays for humans and cheap liveness probes.
        """
        m = self.metrics
        snapshot_info = None
        if self.store is not None:
            info = self.store.latest_info()
            if info is not None:
                seq, mtime = info
                snapshot_info = {
                    "latest_seq": seq,
                    "age_seconds": max(0.0, time.time() - mtime),
                }
        return 200, {
            "status": (
                "ok"
                if self._drain_state is DrainState.SERVING
                else self._drain_state.value
            ),
            "uptime_seconds": m.uptime.value,
            "reports": self.registry.total_reports(),
            "batches_accepted": self.registry.total_batches_accepted(),
            "duplicates": self.registry.total_duplicates(),
            "wire_versions": {
                str(v): int(m.wire_batches.labels(wire_version=str(v)).value)
                for v in wire.SUPPORTED_WIRE_VERSIONS
            },
            "resumed_from_snapshot": self._resumed_from,
            "users_charged": self.ledger.user_count(),
            "lifetime_epsilon": self.ledger.lifetime_epsilon,
            "snapshot": snapshot_info,
            "campaigns": {
                c.fingerprint: {
                    "kind": c.spec.kind,
                    "state": c.state.value,
                    "default": c.default,
                    "reports": c.reports,
                    "batches_accepted": c.batches_accepted,
                    "duplicates": c.duplicates,
                }
                for c in self.registry
            },
        }

    def _handle_metrics(self, query: Query, body: Any) -> Reply:
        """``GET /metrics`` — Prometheus text exposition v0.0.4."""
        return 200, self.metrics.registry.render()

    def _handle_spec(self, query: Query, body: Any) -> Reply:
        campaign = ingest.resolve(self.registry, query.get("campaign"))
        return 200, {
            # ``wire_version`` stays 1 — old clients equality-check it;
            # version-2-capable clients negotiate on ``wire_versions``.
            "wire_version": wire.WIRE_VERSION,
            "wire_versions": list(wire.SUPPORTED_WIRE_VERSIONS),
            "fingerprint": campaign.fingerprint,
            "campaign": campaign.fingerprint,
            "state": campaign.state.value,
            "spec": campaign.spec.to_dict(),
            "epsilon_per_report": campaign.spec.epsilon,
            "lifetime_epsilon": self.ledger.lifetime_epsilon,
            # Window-unaware clients ignore this; window-aware ones
            # learn the pane geometry for their ?window= queries.
            "window": (
                campaign.window.to_dict()
                if campaign.window is not None
                else None
            ),
        }

    def _handle_estimate(self, query: Query, body: Any) -> Reply:
        campaign = ingest.resolve(self.registry, query.get("campaign"))
        if query.get("window") is not None or query.get("decay") is not None:
            return self._handle_window_estimate(campaign, query)
        if campaign.reports == 0:
            raise Refusal(409, "no_reports", campaign=campaign.fingerprint)
        # Serving an estimate from a *sealed* campaign finalizes it;
        # an open campaign may be estimated at any time, but the result
        # is explicitly non-final (more reports can still arrive).
        final = not campaign.accepts_reports
        if final and campaign.state.value == "sealed":
            campaign.mark_estimated()
            self._checkpoint_if_durable()
        try:
            estimate = campaign.accumulator.estimate()
        except TypeError as exc:
            # A decay-configured campaign whose protocol kind has no
            # linear estimate (histogram projection, mixed tuples).
            raise Refusal(
                400,
                "bad_estimate",
                campaign=campaign.fingerprint,
                detail=str(exc),
            ) from None
        return 200, wire.pack(
            {
                "estimate": wire.encode_estimate(estimate),
                "reports": campaign.reports,
                "state": campaign.state.value,
                "final": final,
            },
            campaign.fingerprint,
            campaign=campaign.fingerprint,
        )

    def _handle_window_estimate(
        self, campaign: Campaign, query: Query
    ) -> Reply:
        """``GET /estimate?window=<panes|duration>[&decay=<gamma>]``.

        Windowed estimates never finalize a campaign — they are live
        monitoring views, not the collection's final answer.
        """
        panes = self._window_panes(
            campaign,
            query,
            "campaign has no window config; only the all-time estimate "
            "is available",
        )
        try:
            decay = (
                float(query["decay"]) if query.get("decay") is not None
                else None
            )
        except ValueError as exc:
            raise Refusal(400, "bad_window", detail=str(exc)) from None
        windowed = campaign.merged_window()
        try:
            if decay is not None:
                estimate = windowed.decayed_estimate(decay, panes)
            else:
                estimate = windowed.window_estimate(panes)
        except ValueError as exc:
            raise Refusal(
                409,
                "no_reports",
                campaign=campaign.fingerprint,
                detail=str(exc),
            ) from None
        except TypeError as exc:
            raise Refusal(400, "bad_window", detail=str(exc)) from None
        return 200, wire.pack(
            {
                "estimate": wire.encode_estimate(estimate),
                "reports": windowed.window_count(panes),
                "state": campaign.state.value,
                "final": False,
                "window": {
                    "panes": panes,
                    "latest_round": windowed.latest_round,
                    "decay": decay,
                },
            },
            campaign.fingerprint,
            campaign=campaign.fingerprint,
        )

    def _handle_heavy_hitters(self, query: Query, body: Any) -> Reply:
        """``GET /heavy-hitters?[campaign=..&k=..&window=..]`` — top-k
        categories with churn against the previous round.

        Frequency-shaped campaigns only.  Windowed campaigns rank over
        the current window (the live view heavy hitters are *for*);
        plain campaigns rank over the all-time estimate.
        """
        campaign = ingest.resolve(self.registry, query.get("campaign"))
        if campaign.spec.kind not in ("frequency", "histogram"):
            raise Refusal(
                409,
                "not_frequency",
                campaign=campaign.fingerprint,
                detail=f"heavy hitters need a frequency-shaped "
                f"campaign, not {campaign.spec.kind!r}",
            )
        try:
            k = int(query.get("k", 10))
        except ValueError:
            raise Refusal(
                400,
                "bad_request",
                detail=f"k must be an integer, got {query.get('k')!r}",
            ) from None
        if k < 1:
            raise Refusal(
                400, "bad_request", detail=f"k must be >= 1, got {k}"
            )
        if campaign.windowed or query.get("window") is not None:
            panes = self._window_panes(
                campaign, query, "campaign has no window config"
            )
            windowed = campaign.merged_window()
            source = windowed.window_accumulator(panes)
            round_, empty = windowed.latest_round, "no reports in window"
        else:
            source = campaign.accumulator
            round_, empty = None, "no reports received yet"
        if source.count == 0:
            raise Refusal(
                409, "no_reports", campaign=campaign.fingerprint, detail=empty
            )
        estimate = source.estimate()
        # Histogram estimates carry the projected probability vector;
        # frequency estimates are already the frequency vector.
        frequencies = getattr(estimate, "histogram", estimate)
        view = campaign.heavy_tracker(k).update(
            frequencies, round_=round_, k=k
        )
        return 200, {
            "campaign": campaign.fingerprint,
            "reports": int(source.count),
            **view.to_dict(),
        }

    def _handle_campaign_list(self, query: Query, body: Any) -> Reply:
        return 200, {
            "campaigns": self.registry.describe(),
            "lifetime_epsilon": self.ledger.lifetime_epsilon,
        }

    def _handle_campaign_register(self, query: Query, body: Any) -> Reply:
        if not isinstance(body, dict) or not isinstance(
            body.get("spec"), dict
        ):
            raise Refusal(
                400,
                "bad_request",
                detail="POST /campaigns requires a JSON body with a "
                "'spec' object (ProtocolSpec.to_dict())",
            )
        window = body.get("window")
        if window is not None and not isinstance(window, dict):
            raise Refusal(
                400,
                "bad_request",
                detail="'window' must be a WindowConfig object "
                "(panes / pane_seconds / decay)",
            )
        try:
            campaign, created = self.registry.register(
                body["spec"], window=window
            )
        except ValueError as exc:
            if "already registered" in str(exc):
                # Same spec, conflicting window config: the campaign
                # exists, so this is a conflict, not a bad request.
                raise Refusal(
                    409, "window_conflict", detail=str(exc)
                ) from None
            raise Refusal(400, "bad_spec", detail=str(exc)) from None
        except (KeyError, TypeError) as exc:
            raise Refusal(400, "bad_spec", detail=str(exc)) from None
        if created:
            self.metrics.track_campaign(campaign)
            _log.info(
                "campaign registered",
                extra={
                    "campaign": campaign.fingerprint,
                    "kind": campaign.spec.kind,
                },
            )
            self._checkpoint_if_durable()
        return 200, {
            "campaign": campaign.fingerprint,
            "state": campaign.state.value,
            "epsilon": campaign.spec.epsilon,
            "created": created,
        }

    def _handle_campaign_seal(self, query: Query, body: Any) -> Reply:
        campaign = ingest.resolve(self.registry, query["campaign"])
        was = campaign.state
        state = campaign.seal()
        if state is not was:
            _log.info(
                "campaign sealed",
                extra={
                    "campaign": campaign.fingerprint,
                    "reports": campaign.reports,
                },
            )
            self._checkpoint_if_durable()
        return 200, {
            "campaign": campaign.fingerprint,
            "state": state.value,
            "reports": campaign.reports,
        }

    def _handle_report(self, query: Query, body: Any) -> Reply:
        """:mod:`~repro.service.ingest`'s steps, timed and counted."""
        envelope, m = ingest.as_envelope(body), self.metrics
        if self.draining:
            if m.instrumented:
                m.rejected_batches.labels(reason="draining").inc()
            raise Refusal(
                503,
                "draining",
                retry_after=DRAINING_RETRY_AFTER,
                detail="server is draining; no new batches accepted",
            )
        started = time.perf_counter()
        try:
            campaign = ingest.route(self.registry, envelope)
            bind_campaign(campaign.fingerprint)
            batch = ingest.check(campaign, envelope)
            if batch.duplicate:
                batch.campaign.duplicates += 1
            else:
                multiplicity = batch_multiplicity(batch.charged)
                ingest.admit(self.ledger, batch, multiplicity)
                ingest.commit(self.ledger, batch, multiplicity)
                m.accepted(batch)
                seq = self.registry.total_batches_accepted()
                if self.checkpoint_every and seq % self.checkpoint_every == 0:
                    self.checkpoint_now()
            status, answer = 200, ingest.answer(batch)
        except Refusal as refusal:
            status, answer = refusal.status, refusal.payload
        if m.instrumented:
            m.batch_seconds.labels(
                campaign=str(answer.get("campaign") or "")
            ).observe(time.perf_counter() - started)
            if status != 200:
                reason = str(answer["error"])
                m.rejected_batches.labels(reason=reason).inc()
                _log.info(
                    "batch rejected",
                    extra={"status": status, "reason": reason},
                )
        return status, answer

    def _handle_checkpoint(self, query: Query, body: Any) -> Reply:
        if self.store is None:
            raise Refusal(409, "no_store")
        return 200, {"status": "ok", "seq": self.checkpoint_now()}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def drain_state(self) -> DrainState:
        return self._drain_state

    @property
    def draining(self) -> bool:
        return self._drain_state is not DrainState.SERVING

    def begin_drain(self) -> None:
        """Stop admitting new batches (``POST /report`` answers 503).

        Reads (``/spec``, ``/estimate``, ``/healthz``, ``/metrics``)
        keep working — a draining server can still be scraped and can
        still serve its final estimate.  Idempotent.
        """
        if self._drain_state is DrainState.SERVING:
            self._drain_state = advance(
                self._drain_state, DrainState.DRAINING
            )
            _log.info(
                "drain started",
                extra={
                    "batches_accepted": self.registry.total_batches_accepted()
                },
            )

    def drain(self) -> DrainResult:
        """Graceful drain: refuse new batches, write the final
        checkpoint, and report what was persisted.

        The snapshot this leaves behind is **bitwise-equal** to the one
        an uninterrupted server would write after the same accepted
        batches — drain adds no state, it only runs the ordinary
        checkpoint path early.  Idempotent: a second call (with a
        store) rewrites the same sequence.
        """
        started = time.perf_counter()
        self.begin_drain()
        checkpoint_seq: Optional[int] = None
        if self.store is not None:
            checkpoint_seq = self.checkpoint_now()
        self._drain_state = advance(self._drain_state, DrainState.DRAINED)
        result = DrainResult(
            checkpoint_seq=checkpoint_seq,
            batches_accepted=self.registry.total_batches_accepted(),
            seconds=time.perf_counter() - started,
        )
        _log.info(
            "drain complete",
            extra={
                "checkpoint_seq": result.checkpoint_seq,
                "batches_accepted": result.batches_accepted,
                "seconds": round(result.seconds, 6),
            },
        )
        return result

    async def start(self) -> "IngestionServer":
        """Bind and start accepting connections (non-blocking)."""
        server = http.HttpServer(
            self._handle_request,
            closing=lambda: self.draining,
            connections_open=self.metrics.connections_open,
            connections_closed=self.metrics.connections_closed,
        )
        self.port = await server.start(self.host, self.port)
        self._http = server
        # DEBUG, not INFO: the CLI banner is the contract-bearing
        # startup line (tests parse it), and merged-stream consumers
        # must see the banner first.
        _log.debug(
            "listening",
            extra={
                "host": self.host,
                "port": self.port,
                "campaigns": len(self.registry),
            },
        )
        return self

    async def aclose(self) -> None:
        """Stop listening and close every connection (idempotent).

        A request already read in full has been answered; one still
        arriving is cut off (see :mod:`repro.service.http`).
        """
        server, self._http = self._http, None
        if server is not None:
            await server.aclose()

    def run_in_thread(self) -> "IngestionServer":
        """Serve from a daemon thread; returns once the port is bound.

        The embedding pattern tests, benchmarks and examples use:

            server = IngestionServer(spec).run_in_thread()
            ... ServiceClient("127.0.0.1", server.port) ...
            server.stop()

        :meth:`stop` halts abruptly (no final checkpoint) — exactly the
        crash model the snapshot store is designed to recover from.
        """
        if self._thread is not None:
            raise RuntimeError("server is already running in a thread")
        started = threading.Event()
        startup_error: list = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start())
            except Exception as exc:  # noqa: BLE001 - surfaced to caller
                startup_error.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.aclose())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-service", daemon=True
        )
        self._thread.start()
        started.wait()
        if startup_error:
            self._thread.join()
            self._thread = None
            raise startup_error[0]
        return self

    def stop(self) -> None:
        """Stop a :meth:`run_in_thread` server (abrupt, crash-like)."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._thread = None
        self._loop = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IngestionServer(campaigns={len(self.registry)}, "
            f"port={self.port}, reports={self.registry.total_reports()})"
        )
