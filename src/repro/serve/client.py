"""Client for the campaign server (stdlib ``http.client`` only).

:class:`ServeClient` wraps the five routes in typed calls: submit a
campaign document, poll or watch a job's :class:`JobStatus`, and
iterate its results as they stream — each line of the
``/results`` JSONL arrives as soon as its trial resolves, so a
watcher sees records while the campaign is still running.

Connections are one-shot (the server answers ``Connection: close``),
which keeps the client trivially correct across server restarts: a
watcher that loses the server mid-campaign just keeps polling until
the restarted server — which resumed the journaled job — answers
again (:meth:`ServeClient.watch` with ``tolerate_disconnects=True``,
the ``campaign watch`` default).
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.serve.protocol import (
    API_PREFIX,
    DEFAULT_CLIENT,
    JobStatus,
    SubmitOptions,
    SubmitRequest,
)


class ServeError(Exception):
    """A non-2xx server answer, carrying the HTTP status and (for
    429) the server's suggested retry delay."""

    def __init__(
        self,
        message: str,
        status: int = 0,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


def decode_result_line(text: str) -> Dict:
    """One streamed result line as its record; :class:`ServeError` if
    the line does not parse."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServeError(f"unparsable result line: {exc}") from exc


class ServeClient:
    """Typed access to one campaign server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        timeout_s: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------
    def _connect(
        self, timeout_s: Optional[float]
    ) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=timeout_s
        )

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
    ) -> Tuple[int, Dict]:
        connection = self._connect(self.timeout_s)
        try:
            payload = None if body is None else json.dumps(body)
            connection.request(
                method,
                path,
                body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            raw = response.read()
            retry_after = response.getheader("Retry-After")
            try:
                doc = json.loads(raw.decode("utf-8")) if raw else {}
            except (json.JSONDecodeError, UnicodeDecodeError):
                doc = {"error": raw.decode("utf-8", errors="replace")}
            if response.status >= 400:
                raise ServeError(
                    str(doc.get("error", f"HTTP {response.status}")),
                    status=response.status,
                    retry_after_s=(
                        None if retry_after is None else float(retry_after)
                    ),
                )
            return response.status, doc
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise ServeError(
                f"cannot reach {self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # Routes.
    # ------------------------------------------------------------------
    def healthz(self) -> Dict:
        return self._request("GET", f"{API_PREFIX}/healthz")[1]

    def metrics(self) -> Dict:
        return self._request("GET", f"{API_PREFIX}/metrics")[1]

    def submit(
        self,
        campaign: Dict,
        options: Optional[SubmitOptions] = None,
        client: str = DEFAULT_CLIENT,
    ) -> Tuple[JobStatus, bool]:
        """Submit one campaign document; returns ``(status, created)``
        — ``created=False`` means the server coalesced this onto an
        identical job already queued or running."""
        request = SubmitRequest(
            campaign=campaign,
            options=options or SubmitOptions(),
            client=client,
        )
        status, doc = self._request(
            "POST", f"{API_PREFIX}/campaigns", body=request.to_dict()
        )
        return JobStatus.from_dict(doc, lenient=True), status == 202

    def status(self, job_id: str) -> JobStatus:
        _, doc = self._request(
            "GET", f"{API_PREFIX}/campaigns/{job_id}"
        )
        return JobStatus.from_dict(doc, lenient=True)

    def jobs(self) -> List[JobStatus]:
        _, doc = self._request("GET", f"{API_PREFIX}/campaigns")
        return [
            JobStatus.from_dict(entry, lenient=True)
            for entry in doc.get("jobs", [])
        ]

    def result_lines(
        self, job_id: str, timeout_s: Optional[float] = None
    ) -> Iterator[str]:
        """Stream the job's record lines as text, as they resolve (a
        live job keeps the connection open until it reaches a terminal
        state).  The default ``timeout_s=None`` waits indefinitely
        between lines — trials can legitimately be minutes apart."""
        connection = self._connect(timeout_s)
        try:
            connection.request(
                "GET", f"{API_PREFIX}/campaigns/{job_id}/results"
            )
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    doc = json.loads(raw.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    doc = {"error": f"HTTP {response.status}"}
                raise ServeError(
                    str(doc.get("error", f"HTTP {response.status}")),
                    status=response.status,
                )
            while True:
                line = response.readline()
                if not line:
                    return
                text = line.decode("utf-8").strip()
                if text:
                    yield text
        finally:
            connection.close()

    def results(
        self, job_id: str, timeout_s: Optional[float] = None
    ) -> Iterator[Dict]:
        """The job's records, decoded from :meth:`result_lines`."""
        for text in self.result_lines(job_id, timeout_s):
            yield decode_result_line(text)

    # ------------------------------------------------------------------
    # Watch.
    # ------------------------------------------------------------------
    def watch(
        self,
        job_id: str,
        poll_s: float = 0.2,
        timeout_s: Optional[float] = None,
        on_update: Optional[Callable[[JobStatus], Any]] = None,
        tolerate_disconnects: bool = True,
    ) -> JobStatus:
        """Poll the job until it reaches a terminal state; returns the
        final :class:`JobStatus`.  ``on_update`` fires on every
        *changed* status.  With ``tolerate_disconnects`` (the
        default), a connection refusal — the server restarting
        mid-campaign — is retried rather than raised, so a watcher
        rides through a kill+restart; a 404 (the restarted server
        never knew the job) still raises."""
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        last: Optional[JobStatus] = None
        while True:
            try:
                current = self.status(job_id)
            except ServeError as exc:
                if exc.status != 0 or not tolerate_disconnects:
                    raise
                current = None
            if current is not None:
                if on_update is not None and current != last:
                    on_update(current)
                last = current
                if current.terminal:
                    return current
            if deadline is not None and time.monotonic() >= deadline:
                raise ConfigurationError(
                    f"watch of job {job_id!r} timed out after "
                    f"{timeout_s:.1f}s"
                    + ("" if last is None else f" ({last.summary()})")
                )
            time.sleep(poll_s)
