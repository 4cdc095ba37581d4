"""CLI entrypoints for the campaign server and its client commands.

``python -m repro serve`` runs the server; ``python -m repro
campaign submit`` / ``campaign watch`` are the client side.  Exit
codes follow the repo convention: 0 success, 1 failures reported,
2 usage error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, TextIO, Tuple

from repro.campaign.store import ok_line_key
from repro.core.errors import ConfigurationError
from repro.obs import state as obs_state
from repro.serve.client import ServeClient, ServeError, decode_result_line
from repro.serve.protocol import JobStatus, SubmitOptions
from repro.serve.server import run_server


def parse_server(text: str) -> Tuple[str, int]:
    """``host:port`` (or bare ``:port`` / ``port``) -> ``(host, port)``."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"--server expects HOST:PORT, got {text!r}"
        ) from None
    if not 0 < port < 65536:
        raise ConfigurationError(f"port {port} is out of range")
    return host, port


def cmd_serve(args: argparse.Namespace) -> int:
    if not args.no_obs:
        # Metrics + phase profiling for /v1/metrics; no span tracing
        # (concurrent requests would interleave one global span stack).
        obs_state.enable(trace=False, profile=True)
    try:
        return run_server(
            root=args.root,
            host=args.host,
            port=args.port,
            queue_depth=args.queue_depth,
            rate_per_s=args.rate,
            burst=args.burst,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # bind failure, bad interface, ...
        print(f"error: cannot serve on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2


def _client(args: argparse.Namespace) -> ServeClient:
    host, port = parse_server(args.server)
    return ServeClient(host=host, port=port)


def _print_status(status: JobStatus, as_json: bool) -> None:
    if as_json:
        print(json.dumps(status.to_dict(), indent=2))
    else:
        print(status.summary())


def _stream_results(
    client: ServeClient, job_id: str, handle: TextIO
) -> int:
    """Write the job's result lines as they arrive, as they were
    stored.  Only a line that is not an ok trial record's canonical
    line is decoded, so a line that does not parse still fails."""
    lines = 0
    for line in client.result_lines(job_id):
        if ok_line_key(line) is None:
            decode_result_line(line)
        handle.write(line + "\n")
        lines += 1
    return lines


def cmd_campaign_submit(args: argparse.Namespace) -> int:
    try:
        with open(args.campaign) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load {args.campaign}: {exc}",
              file=sys.stderr)
        return 2
    try:
        options = SubmitOptions(
            executor=args.executor,
            workers=args.workers,
            wall_timeout_s=args.wall_timeout,
            retry_failed=args.retry_failed,
            retry_quarantined=args.retry_quarantined,
        )
        client = _client(args)
        status, created = client.submit(
            document, options=options, client=args.client
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if exc.status in (0, 400) else 1
    if not args.json:
        verb = "submitted" if created else "coalesced onto"
        print(f"{verb} job {status.job_id} "
              f"({status.n_trials} trial(s))")
    if not args.watch:
        _print_status(status, args.json)
        return 0
    return _watch(client, status.job_id, args)


def cmd_campaign_watch(args: argparse.Namespace) -> int:
    try:
        client = _client(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _watch(client, args.job_id, args)


def _watch(
    client: ServeClient, job_id: str, args: argparse.Namespace
) -> int:
    """Shared watch loop: follow the job to a terminal state, then
    (optionally) pull its results."""
    def on_update(status: JobStatus) -> None:
        if not args.json:
            print(status.summary(), file=sys.stderr, flush=True)

    try:
        final = client.watch(
            job_id,
            timeout_s=args.timeout,
            on_update=on_update,
        )
        output: Optional[str] = getattr(args, "output", None)
        if output:
            with open(output, "w") as handle:
                lines = _stream_results(client, job_id, handle)
            if not args.json:
                print(f"wrote {lines} result records to {output}")
    except KeyboardInterrupt:
        print(f"\ninterrupted; job {job_id} keeps running server-side "
              f"(watch again with: campaign watch {job_id})",
              file=sys.stderr)
        return 130
    except ConfigurationError as exc:   # watch timeout
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if exc.status in (0, 404) else 1
    _print_status(final, args.json)
    return 0 if final.ok else 1
