"""``python -m repro.service`` — serve one or many campaigns.

Single-campaign (v1 compatible — the spec becomes the *default*
campaign, so campaign-unaware clients keep working):

    python -m repro.service --spec spec.json --port 8321 \
        --snapshot-dir ./snapshots --checkpoint-every 100

Multi-campaign (shell globs expand to one campaign per file):

    python -m repro.service --campaigns specs/*.json \
        --lifetime-epsilon 2.0 --snapshot-dir ./snapshots

Each spec file is ``ProtocolSpec.to_dict()`` JSON, e.g.:

    {"spec_version": "1.0", "kind": "mean", "epsilon": 1.0,
     "mechanism": "hm"}

``--spec`` and ``--campaigns`` combine: the former is the default
campaign, the latter are addressable by fingerprint only.  Further
campaigns can always be registered at runtime via ``POST /campaigns``.
With ``--snapshot-dir`` the server checkpoints periodically and
resumes *all* campaigns plus the cross-campaign ledger from the latest
manifest on restart.

Observability: ``GET /metrics`` serves Prometheus text exposition;
``--log-format json`` switches the process to one-JSON-object-per-line
structured logs.  **SIGTERM and SIGINT (Ctrl-C) both drain
gracefully**, through one handler: new batches get 503, a final
checkpoint lands (bitwise-equal to what an uninterrupted run would have
written), and the process exits 0.  A snapshot that cannot be resumed
(corrupt, or checkpointed under another default campaign or window)
stops boot with exit 2 and one line on stderr; a flag value the server
refuses (``--window 0``, ``--decay 2``) is a usage error, also exit 2.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro.obs.logging import add_logging_arguments, configure_logging
from repro.service.server import IngestionServer
from repro.service.store import SnapshotCorruptError, SnapshotStore
from repro.service.wire import SpecMismatchError
from repro.stream.windows import WindowConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Networked LDP ingestion server (multi-campaign).",
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="path to the DEFAULT campaign's ProtocolSpec.to_dict() "
        "JSON file (v1 clients route here)",
    )
    parser.add_argument(
        "--campaigns",
        nargs="+",
        default=[],
        metavar="SPEC_JSON",
        help="additional campaign spec files (e.g. specs/*.json); each "
        "is registered under its fingerprint",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument(
        "--lifetime-epsilon",
        type=float,
        default=None,
        help="per-user GLOBAL budget cap shared across all campaigns "
        "(default: the default campaign's epsilon, else the max over "
        "--campaigns; on resume, the snapshot's). A resume whose "
        "snapshot has another budget exits 2",
    )
    parser.add_argument(
        "--snapshot-dir",
        default=None,
        help="directory for durable checkpoints (enables resume)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=100,
        help="snapshot after every N accepted batches "
        "(needs --snapshot-dir)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="PANES",
        help="make every campaign windowed with a ring of PANES "
        "per-round pane accumulators; enables "
        "GET /estimate?window=... and GET /heavy-hitters",
    )
    parser.add_argument(
        "--pane-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock seconds one pane (round) represents, so "
        "?window=5m style duration queries resolve to pane counts "
        "(needs --window)",
    )
    parser.add_argument(
        "--decay",
        type=float,
        default=None,
        metavar="GAMMA",
        help="exponential decay per pane of age, in (0, 1]; the "
        "default estimate becomes the decayed view "
        "(needs --window)",
    )
    add_logging_arguments(parser)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.spec is None and not args.campaigns:
        parser.error("at least one of --spec / --campaigns is required")
    configure_logging(args.log_format, args.log_level)

    def _load(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    if args.window is None and (
        args.pane_seconds is not None or args.decay is not None
    ):
        parser.error("--pane-seconds/--decay require --window")
    default_spec = _load(args.spec) if args.spec is not None else None
    campaign_specs = [_load(path) for path in args.campaigns]
    try:
        window = (
            WindowConfig(
                panes=args.window,
                pane_seconds=args.pane_seconds,
                decay=args.decay,
            )
            if args.window is not None
            else None
        )
        store = (
            SnapshotStore(args.snapshot_dir)
            if args.snapshot_dir is not None
            else None
        )
        server = IngestionServer(
            default_spec,
            lifetime_epsilon=args.lifetime_epsilon,
            store=store,
            checkpoint_every=(
                args.checkpoint_every if store is not None else None
            ),
            host=args.host,
            port=args.port,
            campaigns=campaign_specs,
            window=window,
        )
    except (SnapshotCorruptError, SpecMismatchError) as exc:
        print(f"repro.service: {exc}", file=sys.stderr, flush=True)
        return 2
    except ValueError as exc:  # a flag value the server refuses
        parser.error(str(exc))

    async def _serve() -> None:
        # One handler for SIGTERM and SIGINT.  A loop-level handler only
        # wakes the loop between two callbacks, so a signal can never
        # land inside a request handler (between an absorb and its
        # charge): every way to stop drains.
        loop = asyncio.get_running_loop()
        signals: asyncio.Queue[signal.Signals] = asyncio.Queue()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, signals.put_nowait, signum)
        await server.start()
        default = server.registry.default
        headline = (
            f"{default.spec.kind!r} default campaign"
            if default is not None
            else f"{len(server.registry)} campaigns, no default"
        )
        window_note = (
            f", window: {server.window.panes} panes"
            + (
                f" x {server.window.pane_seconds:g}s"
                if server.window.pane_seconds is not None
                else ""
            )
            + (
                f" decay {server.window.decay:g}"
                if server.window.decay is not None
                else ""
            )
            if server.window is not None
            else ""
        )
        print(
            f"repro.service: {headline} on "
            f"http://{server.host}:{server.port} "
            f"(lifetime eps {server.ledger.lifetime_epsilon:g}, "
            f"checkpoints: "
            f"{store.directory if store else 'disabled'}"
            f"{window_note})",
            flush=True,
        )
        for campaign in server.registry:
            print(
                f"repro.service:   campaign {campaign.fingerprint[:12]}... "
                f"kind={campaign.spec.kind} eps={campaign.spec.epsilon:g} "
                f"state={campaign.state.value}"
                f"{' [default]' if campaign.default else ''}",
                flush=True,
            )
        try:
            signum = await signals.get()
            print(
                f"repro.service: draining ({signum.name}): refusing new "
                "batches",
                flush=True,
            )
            result = server.drain()
            if result.checkpoint_seq is not None:
                print(
                    f"repro.service: final checkpoint "
                    f"{result.checkpoint_seq}",
                    flush=True,
                )
            print(
                f"repro.service: drained "
                f"({result.batches_accepted} batches accepted, "
                f"{result.seconds:.3f}s)",
                flush=True,
            )
        finally:
            await server.aclose()

    asyncio.run(_serve())
    print("repro.service: stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
