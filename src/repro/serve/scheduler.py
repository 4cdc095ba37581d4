"""The campaign scheduler: multi-tenant queueing behind the server.

One :class:`Scheduler` owns everything between "a request was
accepted" and "its results are in the store":

* **multi-tenant queueing** — every client token gets its own FIFO;
  a single worker task drains the queues *round-robin across
  clients*, so one tenant submitting fifty campaigns cannot starve
  another submitting one.  Total backlog is bounded
  (``queue_depth``); past it, submissions are rejected with
  :class:`QueueFull` (HTTP 503) until the worker catches up.
* **rate limiting** — a token bucket per client
  (:class:`TokenBucket`): ``burst`` submissions on an idle bucket,
  refilled at ``rate_per_s``.  An empty bucket rejects with
  :class:`RateLimited` (HTTP 429 + Retry-After).
* **content-hash dedupe** — trials execute through the shared
  :class:`~repro.campaign.store.ResultStore`, so a resubmitted
  campaign is served trial-by-trial from cache (near-free), and an
  *identical in-flight* submission coalesces onto the queued/running
  job instead of queueing twice.  Cache hits are accounted per
  client (``serve.dedupe_hits{client=}``).
* **restart survival** — submissions journal to a second result
  store (``jobs/``) before they are acknowledged; terminal states
  journal again.  A restarted scheduler replays the journal,
  re-queues every non-terminal job, and the campaign layer's resume
  semantics take it from the last completed trial — exactly like
  ``campaign run`` after SIGTERM.

Execution itself happens on one dedicated worker thread
(``loop.run_in_executor``), which keeps the asyncio loop free to
serve status and streaming requests while a campaign runs; the
process executor then parallelises trials across worker processes as
usual.  Trial completions cross back into the loop via
``call_soon_threadsafe``, append the record's stored line (the store
already holds its canonical bytes; nothing is encoded twice, and an
ok record is never decoded) to the job, and wake every streaming
subscriber.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from threading import Event as ThreadEvent
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.campaign.campaign import Campaign
from repro.campaign.resultset import ResultSet, TrialResult
from repro.campaign.store import ResultStore
from repro.core.errors import ConfigurationError
from repro.core.schema import REPORT_SCHEMA_VERSION
from repro.obs.state import OBS
from repro.serve.protocol import (
    JobStatus,
    SubmitRequest,
    TERMINAL_STATES,
)

#: Subdirectories of the server root holding the two stores.
RESULTS_DIR = "results"
JOBS_DIR = "jobs"


class RateLimited(Exception):
    """Client token bucket is empty (HTTP 429)."""

    def __init__(self, client: str, retry_after_s: float) -> None:
        super().__init__(
            f"client {client!r} is over its submission rate; retry in "
            f"{retry_after_s:.2f}s"
        )
        self.retry_after_s = retry_after_s


class QueueFull(Exception):
    """The bounded backlog is at capacity (HTTP 503)."""


class UnknownJob(Exception):
    """No job under this id (HTTP 404)."""


class TokenBucket:
    """A token bucket over a relative clock: ``capacity`` burst,
    refilled at ``rate_per_s``.  The clock is injectable so tests can
    drive it deterministically."""

    __slots__ = ("capacity", "rate_per_s", "_tokens", "_last", "_clock")

    def __init__(
        self,
        capacity: float,
        rate_per_s: float,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                "a token bucket needs capacity > 0"
            )
        self.capacity = float(capacity)
        self.rate_per_s = float(rate_per_s)
        self._clock = time.monotonic if clock is None else clock
        self._tokens = self.capacity
        self._last = self._clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(
            self.capacity, self._tokens + elapsed * self.rate_per_s
        )

    def try_acquire(self) -> bool:
        """Take one token; False when the bucket is empty."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    @property
    def retry_after_s(self) -> float:
        """Seconds until one token will be available."""
        self._refill()
        missing = max(0.0, 1.0 - self._tokens)
        if missing == 0.0:
            return 0.0
        if self.rate_per_s <= 0:
            return float("inf")
        return missing / self.rate_per_s


class Job:
    """One submission's live state (scheduler-internal; the wire view
    is :meth:`Scheduler.status`)."""

    __slots__ = (
        "job_id", "request", "state", "name", "n_trials", "done",
        "cached", "executed", "failed", "outcomes", "resumptions",
        "error", "lines", "updated",
    )

    def __init__(self, job_id: str, request: SubmitRequest) -> None:
        self.job_id = job_id
        self.request = request
        self.state = "queued"
        self.name = str(request.campaign.get("name", ""))
        self.n_trials = 0
        self.done = 0
        self.cached = 0
        self.executed = 0
        self.failed = 0
        self.outcomes: Dict[str, int] = {}
        self.resumptions = 0
        self.error = ""
        #: Canonical record lines, in resolution order — the results
        #: stream.  Reset at (re)run start so a resumed job streams a
        #: complete, consistent sequence.
        self.lines: List[str] = []
        #: Set on every mutation; streaming subscribers clear-and-wait.
        self.updated = asyncio.Event()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def touch(self) -> None:
        self.updated.set()


class Scheduler:
    """Multi-tenant campaign queue + the worker that drains it."""

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        queue_depth: int = 16,
        rate_per_s: float = 10.0,
        burst: float = 20.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        self._root = None if root is None else Path(root)
        self.queue_depth = queue_depth
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._clock = clock
        if self._root is None:
            self.results_store = ResultStore.memory()
            self._journal = ResultStore.memory()
        else:
            self.results_store = ResultStore(self._root / RESULTS_DIR)
            self._journal = ResultStore(self._root / JOBS_DIR)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []           # submission order
        #: Per submission key: its newest job (the only one that can
        #: still be live, since identical submissions coalesce onto
        #: it) and how many jobs it has had (the next job's serial).
        self._latest: Dict[str, Job] = {}
        self._serials: Dict[str, int] = {}
        self._queues: Dict[str, Deque[Job]] = {}
        self._rr: Deque[str] = deque()        # round-robin client ring
        self._buckets: Dict[str, TokenBucket] = {}
        self._ready = asyncio.Event()
        self._stop = ThreadEvent()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._worker: Optional[asyncio.Task] = None
        self._thread: Optional[ThreadPoolExecutor] = None
        self._recover()

    # ------------------------------------------------------------------
    # Journal / recovery.
    # ------------------------------------------------------------------
    def _journal_put(self, job: Job) -> None:
        self._journal.put({
            "schema_version": REPORT_SCHEMA_VERSION,
            "key": job.job_id,
            "request": job.request.to_dict(),
            "state": "queued" if not job.terminal else job.state,
            "n_trials": job.n_trials,
            "done": job.done,
            "cached": job.cached,
            "executed": job.executed,
            "failed": job.failed,
            "outcomes": dict(job.outcomes),
            "resumptions": job.resumptions,
            "error": job.error,
        })
        # A 202 promises the job survives a restart: make it durable.
        self._journal.sync()

    def _recover(self) -> None:
        """Rebuild jobs from the journal: terminal jobs become
        queryable again; non-terminal ones re-queue (their completed
        trials are already in the results store, so the re-run is a
        resume, not a redo)."""
        for record in self._journal.records():
            try:
                request = SubmitRequest.from_dict(
                    record.get("request") or {}, lenient=True
                )
            except ConfigurationError:
                continue   # an unloadable journal line loses one job
            job = Job(record["key"], request)
            job.n_trials = int(record.get("n_trials", 0))
            job.resumptions = int(record.get("resumptions", 0))
            state = record.get("state", "queued")
            if state in TERMINAL_STATES:
                job.state = state
                job.done = int(record.get("done", 0))
                job.cached = int(record.get("cached", 0))
                job.executed = int(record.get("executed", 0))
                job.failed = int(record.get("failed", 0))
                job.outcomes = dict(record.get("outcomes") or {})
                job.error = str(record.get("error", ""))
            else:
                job.state = "queued"
                job.resumptions += 1
                self._enqueue(job)
            self._add(job, request.key)

    def _add(self, job: Job, key: str) -> None:
        """Register ``job`` (submitted under ``key``) in every index."""
        self._jobs[job.job_id] = job
        self._order.append(job.job_id)
        self._latest[key] = job
        self._serials[key] = self._serials.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop and start the worker task."""
        self._loop = asyncio.get_running_loop()
        # Events bind to the loop that first awaits them; a scheduler
        # can be started under a fresh loop (stop/start cycles), so
        # the wake event must be remade per start.
        self._ready = asyncio.Event()
        self._stop.clear()
        self._thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-worker"
        )
        if self._backlog():
            self._ready.set()
        self._worker = asyncio.create_task(
            self._work(), name="serve-scheduler"
        )

    async def stop(self) -> None:
        """Graceful shutdown: signal the in-flight campaign to
        checkpoint at its next trial boundary, wait for the worker to
        settle, and journal the interrupted job back to ``queued``."""
        self._stop.set()
        self._ready.set()   # unblock a worker waiting for submissions
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                self._worker = None
        if self._thread is not None:
            self._thread.shutdown(wait=True)
            self._thread = None

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def _bucket(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(
                capacity=self.burst,
                rate_per_s=self.rate_per_s,
                clock=self._clock,
            )
        return bucket

    def _backlog(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _enqueue(self, job: Job) -> None:
        client = job.request.client
        queue = self._queues.get(client)
        if queue is None:
            queue = self._queues[client] = deque()
            self._rr.append(client)
        queue.append(job)
        self._ready.set()
        if OBS.enabled:
            OBS.metrics.set("serve.queue_depth", self._backlog())

    def submit(self, request: SubmitRequest) -> Tuple[Job, bool]:
        """Accept one submission; returns ``(job, created)``.

        ``created=False`` means an identical submission (same
        campaign, options and client) is already queued or running
        and was coalesced.  Raises :class:`RateLimited`,
        :class:`QueueFull`, or :class:`ConfigurationError` (campaign
        document does not compile).
        """
        bucket = self._bucket(request.client)
        if not bucket.try_acquire():
            if OBS.enabled:
                OBS.metrics.inc(
                    "serve.rate_limited", labels={"client": request.client}
                )
            raise RateLimited(request.client, bucket.retry_after_s)
        key = request.key
        latest = self._latest.get(key)
        if latest is not None and not latest.terminal:
            return latest, False
        if self._backlog() >= self.queue_depth:
            raise QueueFull(
                f"queue is at capacity ({self.queue_depth} job(s) "
                "pending); retry later"
            )
        # Compile now: a document that cannot compile must fail the
        # submission (HTTP 400), not poison the queue later.
        campaign = Campaign.from_dict(request.campaign, lenient=True)
        n_trials = len(campaign.trials())
        job = Job(f"{key}-{self._serials.get(key, 0)}", request)
        job.n_trials = n_trials
        self._add(job, key)
        self._journal_put(job)
        self._enqueue(job)
        if OBS.enabled:
            OBS.metrics.inc(
                "serve.submits", labels={"client": request.client}
            )
        return job, True

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"no job {job_id!r}")
        return job

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        return [self._jobs[job_id] for job_id in self._order]

    def status(self, job: Job) -> JobStatus:
        return JobStatus(
            job_id=job.job_id,
            client=job.request.client,
            state=job.state,
            name=job.name,
            n_trials=job.n_trials,
            done=job.done,
            cached=job.cached,
            executed=job.executed,
            failed=job.failed,
            outcomes=dict(job.outcomes),
            resumptions=job.resumptions,
            error=job.error,
        )

    def state_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def materialize(self, job: Job) -> List[str]:
        """The job's result lines.  A live (or just-finished) job
        carries them in memory; a terminal job recovered from the
        journal rebuilds them from the shared store by trial key —
        the same content-addressing ``campaign results`` uses."""
        if job.lines or not job.terminal:
            return job.lines
        try:
            campaign = Campaign.from_dict(job.request.campaign, lenient=True)
            trials = campaign.trials()
        except ConfigurationError:
            return job.lines
        lines: List[str] = []
        for trial in trials:
            line = self.results_store.line(trial.key)
            if line is not None:
                lines.append(line)
        job.lines = lines
        return job.lines

    # ------------------------------------------------------------------
    # The worker.
    # ------------------------------------------------------------------
    def _next_job(self) -> Optional[Job]:
        """Round-robin over client queues (pop one, rotate)."""
        for _ in range(len(self._rr)):
            client = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(client)
            if queue:
                job = queue.popleft()
                if OBS.enabled:
                    OBS.metrics.set("serve.queue_depth", self._backlog())
                return job
        return None

    async def _work(self) -> None:
        assert self._loop is not None and self._thread is not None
        while not self._stop.is_set():
            await self._ready.wait()
            if self._stop.is_set():
                return
            job = self._next_job()
            if job is None:
                self._ready.clear()
                if self._backlog():
                    self._ready.set()
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        assert self._loop is not None and self._thread is not None
        job.state = "running"
        job.done = job.cached = job.executed = job.failed = 0
        job.outcomes = {}
        job.lines = []
        job.touch()
        try:
            results = await self._loop.run_in_executor(
                self._thread, self._execute, job
            )
        except ConfigurationError as exc:
            job.state = "failed"
            job.error = str(exc)
        except Exception as exc:   # the job fails; the server survives
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        else:
            if results.interrupted:
                # Checkpointed shutdown: journal back to queued so a
                # restarted server resumes at the trial boundary.
                job.state = "queued"
                job.resumptions += 1
            else:
                job.state = "done"
                job.n_trials = results.planned
                job.failed = results.failed
        self._journal_put(job)
        job.touch()

    def _execute(self, job: Job) -> ResultSet:
        """Worker-thread body: run the campaign against the shared
        store, posting each resolved trial back into the loop."""
        campaign = Campaign.from_dict(job.request.campaign, lenient=True)
        options = job.request.options
        loop = self._loop
        assert loop is not None

        def progress(done: int, total: int, result: TrialResult) -> None:
            # The result carries its stored line, and its outcome
            # comes from the store's index: an ok record is never
            # decoded here.
            loop.call_soon_threadsafe(
                self._on_trial, job, result.line, result.cached,
                result.outcome, total,
            )

        cpus = os.cpu_count() or 1
        return campaign.run(
            executor=options.executor,
            # A request, not a command: one request must not fork a
            # worker per trial.
            workers=min(options.workers or cpus, cpus),
            store=self.results_store,
            resume=True,
            wall_timeout_s=options.wall_timeout_s,
            retry_failed=options.retry_failed,
            retry_quarantined=options.retry_quarantined,
            stop=self._stop,
            install_signal_handlers=False,
            progress=progress,
        )

    def _on_trial(
        self, job: Job, line: str, cached: bool, outcome: str, total: int
    ) -> None:
        """Loop-side trial completion: account, append, wake streams."""
        job.n_trials = total
        job.done += 1
        if cached:
            job.cached += 1
        else:
            job.executed += 1
        if outcome != "ok":
            job.failed += 1
        job.outcomes[outcome] = job.outcomes.get(outcome, 0) + 1
        job.lines.append(line)
        if OBS.enabled:
            OBS.metrics.inc(
                "serve.trials", labels={"client": job.request.client}
            )
            if cached:
                OBS.metrics.inc(
                    "serve.dedupe_hits",
                    labels={"client": job.request.client},
                )
        job.touch()
