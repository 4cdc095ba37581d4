"""The campaign server: asyncio HTTP/1.1 over the scheduler.

Simulation as a service, with no dependencies beyond the standard
library: a hand-rolled HTTP/1.1 server on ``asyncio.start_server``
(one request per connection, ``Connection: close``) exposing the
scheduler as five routes under :data:`~repro.serve.protocol.API_PREFIX`:

========================================  =================================
``POST /v1/campaigns``                    submit a campaign (202 queued,
                                          200 coalesced onto an identical
                                          in-flight job, 400 bad document,
                                          429 rate-limited + Retry-After,
                                          503 queue full)
``GET /v1/campaigns``                     every known job, newest last
``GET /v1/campaigns/{id}``                one job's status document
``GET /v1/campaigns/{id}/results``        the job's results as streaming
                                          JSONL: each record line is
                                          flushed as its trial resolves,
                                          and the stream ends when the
                                          job reaches a terminal state
``GET /v1/healthz``                       liveness + queue/job counts
``GET /v1/metrics``                       the ``repro.obs`` metrics
                                          snapshot (when observability
                                          is enabled)
========================================  =================================

Every response body is JSON (streaming results are
``application/x-ndjson``); errors share the uniform
:func:`~repro.serve.protocol.error_doc` shape.  Requests are counted
into ``serve.requests{route=,status=}`` and wall-spanned via
``OBS.phase`` — both behind the usual ``OBS.enabled`` guard, so a
server without observability pays one boolean per request.

The server holds the loop; campaigns execute on the scheduler's
worker thread, so a long-running campaign never blocks status or
streaming requests.  :func:`run_server` is the CLI entrypoint: serve
until SIGINT/SIGTERM, then checkpoint (the scheduler journals any
in-flight job back to ``queued``) and exit — a restarted server
resumes it at the trial boundary.  :class:`BackgroundServer` hosts a
server in-process instead, on a background thread with its own loop.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.obs.state import OBS
from repro.serve.client import ServeClient
from repro.serve.protocol import API_PREFIX, SubmitRequest, error_doc
from repro.serve.scheduler import (
    Job,
    QueueFull,
    RateLimited,
    Scheduler,
    UnknownJob,
)

#: Hard cap on request bodies (a campaign document is a few KiB).
MAX_BODY_BYTES = 8 << 20

#: Hard cap on one header line (request line included).
MAX_LINE_BYTES = 64 << 10

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_CAMPAIGNS = f"{API_PREFIX}/campaigns"


def _dumps(doc: Dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


class _BadRequest(Exception):
    """Malformed HTTP or body (always answered with 400/413)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class CampaignServer:
    """One listening socket in front of one :class:`Scheduler`."""

    def __init__(
        self,
        scheduler: Scheduler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.base_events.Server] = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        sockets = self._server.sockets or []
        for sock in sockets:
            return int(sock.getsockname()[1])
        return self._requested_port

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self._requested_port
        )

    async def stop(self) -> None:
        """Stop accepting, then checkpoint the scheduler (an in-flight
        campaign stops at its next trial boundary and re-journals as
        ``queued``)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    # ------------------------------------------------------------------
    # HTTP plumbing.
    # ------------------------------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        route = "unparsed"
        status = 500
        try:
            with OBS.phase("serve.request"):
                method, path, _headers, body = await self._read_request(
                    reader
                )
                route, status = await self._dispatch(
                    writer, method, path, body
                )
        except _BadRequest as exc:
            status = exc.status
            await self._respond(
                writer, exc.status, error_doc(str(exc), exc.status)
            )
        except (
            ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError
        ):
            status = 0   # client went away; nothing to answer
        except Exception as exc:   # one request fails; the server lives
            status = 500
            try:
                await self._respond(
                    writer,
                    500,
                    error_doc(f"{type(exc).__name__}: {exc}", 500),
                )
            except (ConnectionResetError, BrokenPipeError):
                status = 0
        finally:
            if OBS.enabled:
                OBS.metrics.inc(
                    "serve.requests",
                    labels={"route": route, "status": status},
                )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                return

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        try:
            request_line = await reader.readuntil(b"\r\n")
        except asyncio.LimitOverrunError:
            raise _BadRequest("request line too long", 413) from None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readuntil(b"\r\n")
            except asyncio.LimitOverrunError:
                raise _BadRequest("header line too long", 413) from None
            if len(line) > MAX_LINE_BYTES:
                raise _BadRequest("header line too long", 413)
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, sep, value = text.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _BadRequest(
                f"unreadable Content-Length {length_text!r}"
            ) from None
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit", 413
            )
        if length:
            body = await reader.readexactly(length)
        path = target.partition("?")[0]
        return method, path, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        doc: Dict,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = _dumps(doc)
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
    ) -> Tuple[str, int]:
        """Route one request; returns ``(route label, status)`` for
        the ``serve.requests`` metric (labels are route *patterns*,
        never raw paths, to keep cardinality bounded)."""
        if path == f"{API_PREFIX}/healthz":
            if method != "GET":
                return await self._method_not_allowed(
                    writer, "GET /v1/healthz"
                )
            return "GET /v1/healthz", await self._healthz(writer)
        if path == f"{API_PREFIX}/metrics":
            if method != "GET":
                return await self._method_not_allowed(
                    writer, "GET /v1/metrics"
                )
            return "GET /v1/metrics", await self._metrics(writer)
        if path == _CAMPAIGNS:
            if method == "POST":
                return "POST /v1/campaigns", await self._submit(
                    writer, body
                )
            if method == "GET":
                return "GET /v1/campaigns", await self._list(writer)
            return await self._method_not_allowed(writer, "/v1/campaigns")
        if path.startswith(_CAMPAIGNS + "/"):
            rest = path[len(_CAMPAIGNS) + 1:]
            if rest.endswith("/results"):
                route = "GET /v1/campaigns/{id}/results"
                job_id = rest[: -len("/results")]
                if method != "GET":
                    return await self._method_not_allowed(writer, route)
                return route, await self._results(writer, job_id)
            route = "GET /v1/campaigns/{id}"
            if method != "GET":
                return await self._method_not_allowed(writer, route)
            return route, await self._status(writer, rest)
        await self._respond(
            writer, 404, error_doc(f"no route {method} {path}", 404)
        )
        return "unknown", 404

    async def _method_not_allowed(
        self, writer: asyncio.StreamWriter, route: str
    ) -> Tuple[str, int]:
        await self._respond(
            writer, 405, error_doc(f"method not allowed on {route}", 405)
        )
        return route, 405

    # ------------------------------------------------------------------
    # Handlers.
    # ------------------------------------------------------------------
    async def _submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> int:
        try:
            document = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._respond(
                writer, 400, error_doc(f"body is not JSON: {exc}", 400)
            )
            return 400
        try:
            request = SubmitRequest.from_dict(document, lenient=True)
            job, created = self.scheduler.submit(request)
        except RateLimited as exc:
            await self._respond(
                writer,
                429,
                error_doc(str(exc), 429),
                extra_headers={
                    "Retry-After": f"{exc.retry_after_s:.3f}"
                },
            )
            return 429
        except QueueFull as exc:
            await self._respond(writer, 503, error_doc(str(exc), 503))
            return 503
        except ConfigurationError as exc:
            await self._respond(writer, 400, error_doc(str(exc), 400))
            return 400
        status = 202 if created else 200
        await self._respond(
            writer, status, self.scheduler.status(job).to_dict()
        )
        return status

    async def _list(self, writer: asyncio.StreamWriter) -> int:
        jobs = [
            self.scheduler.status(job).to_dict()
            for job in self.scheduler.jobs()
        ]
        await self._respond(writer, 200, {"jobs": jobs})
        return 200

    async def _status(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> int:
        try:
            job = self.scheduler.get(job_id)
        except UnknownJob as exc:
            await self._respond(writer, 404, error_doc(str(exc), 404))
            return 404
        await self._respond(
            writer, 200, self.scheduler.status(job).to_dict()
        )
        return 200

    async def _healthz(self, writer: asyncio.StreamWriter) -> int:
        doc = {
            "ok": True,
            "jobs": self.scheduler.state_counts(),
            "queue_depth_limit": self.scheduler.queue_depth,
        }
        await self._respond(writer, 200, doc)
        return 200

    async def _metrics(self, writer: asyncio.StreamWriter) -> int:
        if OBS.enabled and OBS.metrics is not None:
            doc = {"enabled": True, "metrics": OBS.metrics.to_dict()}
        else:
            doc = {"enabled": False, "metrics": {}}
        await self._respond(writer, 200, doc)
        return 200

    async def _results(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> int:
        """Stream the job's record lines as JSONL, flushing each line
        as its trial resolves; the stream ends (EOF) once the job is
        terminal and every line is out."""
        try:
            job = self.scheduler.get(job_id)
        except UnknownJob as exc:
            await self._respond(writer, 404, error_doc(str(exc), 404))
            return 404
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        sent = 0
        while True:
            lines = self._lines(job)
            if len(lines) < sent:
                # The job was interrupted and restarted: its line
                # buffer reset.  Restart the stream from the top — a
                # resumed run re-emits every record (cache hits for
                # the already-completed trials), so the client still
                # receives one complete, ordered sequence.
                sent = 0
            while sent < len(lines):
                writer.write((lines[sent] + "\n").encode("utf-8"))
                await writer.drain()
                sent += 1
            if job.terminal and sent >= len(self._lines(job)):
                return 200
            job.updated.clear()
            # Re-check after clearing: the worker may have resolved
            # the final trial between our check and the clear.
            if job.lines and len(job.lines) > sent:
                continue
            if job.terminal and sent >= len(self._lines(job)):
                return 200
            await job.updated.wait()

    def _lines(self, job: Job) -> List[str]:
        return self.scheduler.materialize(job)


async def _serve(
    scheduler: Scheduler, host: str, port: int, banner: bool
) -> int:
    server = CampaignServer(scheduler, host=host, port=port)
    await server.start()
    if banner:
        print(f"repro.serve listening on {server.address}", flush=True)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    interrupted = False

    def _on_signal() -> None:
        nonlocal interrupted
        interrupted = True
        stop.set()

    installed: List[signal.Signals] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, _on_signal)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            continue   # non-main thread / platform without support
    try:
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.stop()
    return 130 if interrupted else 0


def run_server(
    root: Union[str, None],
    host: str = "127.0.0.1",
    port: int = 8642,
    queue_depth: int = 16,
    rate_per_s: float = 10.0,
    burst: float = 20.0,
    banner: bool = True,
) -> int:
    """Blocking entrypoint for ``python -m repro serve``: build the
    scheduler (recovering any journaled jobs under ``root``), serve
    until SIGINT/SIGTERM, checkpoint, and return the exit code (130
    when stopped by a signal, per the CLI convention)."""
    scheduler = Scheduler(
        root=root,
        queue_depth=queue_depth,
        rate_per_s=rate_per_s,
        burst=burst,
    )
    return asyncio.run(_serve(scheduler, host, port, banner))


class BackgroundServer:
    """A live server on an ephemeral port, in a background thread that
    holds its own asyncio loop: the production topology minus the
    process boundary.

    ``root`` and ``scheduler_kwargs`` (``queue_depth``, ``rate_per_s``,
    ``burst``) build the :class:`Scheduler`.  Use it as a context
    manager; :meth:`stop` may also be called earlier.
    """

    def __init__(
        self, root: Union[str, Path, None] = None, **scheduler_kwargs: Any
    ) -> None:
        self.scheduler = Scheduler(root=root, **scheduler_kwargs)
        self.server = CampaignServer(self.scheduler, port=0)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._started.set()
        await self._stop.wait()
        await self.server.stop()

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        if not self._started.wait(10):
            raise RuntimeError("the background server did not start")
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()

    def stop(self) -> None:
        """Graceful shutdown, as on SIGTERM: the scheduler checkpoints
        an in-flight campaign at its next trial boundary and journals
        it back to ``queued``."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("the background server did not stop")

    def client(self) -> ServeClient:
        """A blocking client for this server."""
        return ServeClient(port=self.server.port)
