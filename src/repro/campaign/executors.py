"""Trial executors: failure-isolating serial and process execution.

Both executors share one contract: take compiled
:class:`~repro.campaign.trial.Trial` documents, and deliver *every*
trial an outcome — the canonical JSON line of a success record or of
a structured failure record — without ever letting one bad trial
abort the campaign.  Both run a trial the one way there is,
:func:`~repro.campaign.trial.execute_trial`; a pool worker sends the
line it built back, and the parent hands it to the store as it is,
neither decoding it nor encoding the record a second time.  The
differences are the failure classes each can survive:

=====================  ========  =========
failure                 serial    process
=====================  ========  =========
raised exception        record    record
wall-clock timeout      record*   record (worker killed)
worker crash            fatal     record (pool replenished)
=====================  ========  =========

``*`` the serial timeout is cooperative (the event loop polls the
deadline), so a hang *outside* the simulation loop — pathological
workload compilation, a stuck I/O call — can only be preempted by the
process executor, which SIGKILLs the worker at a hard deadline and
spawns a replacement.

The process executor is deliberately not ``concurrent.futures``: a
dead worker there breaks the whole pool (``BrokenProcessPool``) and
cannot tell the scheduler *which* trial killed it.  Here every worker
owns exactly one in-flight trial over its own duplex pipe, so crash
attribution is exact, kills are per-trial, and the pool replenishes
itself worker by worker.

Retries ride on :class:`~repro.campaign.failures.RetryPolicy`:
transient errors and crashes are re-attempted with exponential
backoff; a retryable failure that exhausts its attempts is recorded
quarantined (the poison-trial rule).  A ``stop`` event (set by the
campaign's SIGINT/SIGTERM handler) checkpoints cleanly: no new
dispatches, in-flight workers are killed, and unfinished trials are
simply left for the next resume — the append-only store already holds
every completed outcome.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as connection_wait
from typing import Callable, List, Optional, Sequence

from repro.campaign.failures import (
    RetryPolicy,
    TrialFailure,
    classify_exception,
    crash_failure,
    failure_record,
)
from repro.campaign.trial import Trial, canonical_json, execute_trial
from repro.obs.state import OBS

#: outcome callback: (trial, line, wall_s) — ``line`` is the record's
#: canonical JSON, for the store to append as it is
OutcomeCallback = Callable[[Trial, str, float], None]

#: Grace multiplier/offset for the process executor's hard kill: the
#: cooperative in-worker timeout should fire first; the SIGKILL is the
#: backstop for hangs the event loop never sees.
HARD_KILL_FACTOR = 1.5
HARD_KILL_GRACE_S = 1.0


def _interruptible_sleep(seconds: float, stop: threading.Event) -> None:
    stop.wait(timeout=seconds)


def _count_retry(delay_s: float) -> None:
    """Guarded retry accounting, shared by both executors (the
    backoff total is host time, hence the ``wall`` in its name)."""
    OBS.metrics.inc("campaign.retries")
    OBS.metrics.inc("campaign.retry_backoff_wall_s", delay_s)


def run_serial(
    trials: Sequence[Trial],
    on_outcome: OutcomeCallback,
    policy: RetryPolicy,
    stop: threading.Event,
) -> bool:
    """Execute ``trials`` in order, in this process.

    Returns True if execution was interrupted by ``stop`` (remaining
    trials got no outcome and stay pending for a future resume).
    """
    for trial in trials:
        if stop.is_set():
            return True
        if OBS.enabled and OBS.tracer is not None:
            # Nested run spans from the in-process execution land
            # inside this trial span (campaign > trial > run ...).
            with OBS.tracer.span(
                "trial", cat="campaign", index=trial.index
            ):
                _serial_attempts(trial, on_outcome, policy, stop)
        else:
            _serial_attempts(trial, on_outcome, policy, stop)
    return False


def _serial_attempts(
    trial: Trial,
    on_outcome: OutcomeCallback,
    policy: RetryPolicy,
    stop: threading.Event,
) -> None:
    """One trial's attempt loop: execute, retry transients, record."""
    attempts = 0
    while True:
        attempts += 1
        start = time.perf_counter()
        try:
            line, wall_s = execute_trial(trial)
        except Exception as exc:
            failure = classify_exception(exc, attempts=attempts)
            if policy.should_retry(failure) and not stop.is_set():
                delay_s = policy.delay_s(attempts)
                if OBS.enabled:
                    _count_retry(delay_s)
                _interruptible_sleep(delay_s, stop)
                continue
            line = canonical_json(
                failure_record(trial, policy.finalize(failure))
            )
            wall_s = time.perf_counter() - start
        on_outcome(trial, line, wall_s)
        return


# ----------------------------------------------------------------------
# The process pool.
# ----------------------------------------------------------------------
def _emit_trial_span(trial: Trial, outcome: str, wall_s: float) -> None:
    """Pool-side trial span, emitted at outcome delivery: the trial
    ran in a worker process, so the parent records a leaf span whose
    wall width back-dates from the reported duration.  Call only when
    ``OBS.enabled``."""
    tracer = OBS.tracer
    if tracer is not None:
        tracer.emit(
            "trial",
            cat="campaign",
            index=trial.index,
            outcome=outcome,
            wall_dur_s=wall_s,
        )


def _worker_main(conn) -> None:
    """Worker loop: receive a trial document, send back its outcome.

    A success is ``("ok", line, wall_s)``: the record's canonical line,
    which the parent stores as it is.  Exceptions become
    ``("fail", failure_doc, wall_s)`` messages; only a crash (or kill)
    leaves the parent without a message, which is exactly how the
    parent detects crashes.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        trial_doc, attempts = task
        start = time.perf_counter()
        try:
            line, wall_s = execute_trial(Trial.from_dict(trial_doc))
            payload = ("ok", line, wall_s)
        except Exception as exc:
            failure = classify_exception(exc, attempts=attempts)
            payload = (
                "fail", failure.to_dict(), time.perf_counter() - start
            )
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            return


@dataclass
class _Attempt:
    """One trial's scheduling state inside the pool."""

    trial: Trial
    attempts: int = 0
    eligible_at: float = 0.0   # monotonic time before which not to dispatch


class _Worker:
    """One pool member: a process plus its duplex pipe."""

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child,), daemon=True
        )
        self.process.start()
        child.close()
        self.attempt: Optional[_Attempt] = None
        self.started_at: float = 0.0
        self.hard_deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.attempt is not None

    def dispatch(self, attempt: _Attempt, wall_timeout_s: Optional[float]):
        attempt.attempts += 1
        self.attempt = attempt
        self.started_at = time.monotonic()
        self.hard_deadline = (
            None
            if wall_timeout_s is None
            else self.started_at
            + wall_timeout_s * HARD_KILL_FACTOR
            + HARD_KILL_GRACE_S
        )
        self.conn.send((attempt.trial.to_dict(), attempt.attempts))

    def stop(self) -> None:
        """Ask an idle worker to exit; :meth:`join` waits for it."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()

    def join(self) -> None:
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=2.0)

    def kill(self) -> None:
        self.process.kill()
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


class ProcessPool:
    """A crash-isolating, deadline-enforcing pool of trial workers."""

    def __init__(
        self,
        workers: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
        wall_timeout_s: Optional[float] = None,
    ):
        self.n_workers = max(1, workers or os.cpu_count() or 1)
        self.policy = policy or RetryPolicy()
        self.wall_timeout_s = wall_timeout_s

    # ------------------------------------------------------------------
    def run(
        self,
        trials: Sequence[Trial],
        on_outcome: OutcomeCallback,
        stop: threading.Event,
    ) -> bool:
        """Execute every trial, delivering outcomes as they complete.

        Returns True when interrupted by ``stop`` (in-flight workers
        are killed; their trials and all undispatched ones get no
        outcome and remain pending for resume).
        """
        ctx = multiprocessing.get_context()
        queue: deque = deque(_Attempt(trial) for trial in trials)
        retries: List[_Attempt] = []
        workers: List[_Worker] = []
        interrupted = False
        try:
            # Each worker gets its first trial as soon as it is forked,
            # so it runs while the next one forks.
            for _ in range(min(self.n_workers, len(trials)) or 1):
                worker = _Worker(ctx)
                workers.append(worker)
                if not stop.is_set():
                    self._dispatch_ready([worker], queue, retries)
            while queue or retries or any(w.busy for w in workers):
                if stop.is_set():
                    interrupted = True
                    break
                self._dispatch_ready(workers, queue, retries)
                self._drain(ctx, workers, queue, retries, on_outcome)
                self._enforce_deadlines(
                    ctx, workers, queue, retries, on_outcome
                )
        finally:
            # Every idle worker is told to stop before any is joined,
            # so they exit side by side.
            idle = [
                w for w in workers if not w.busy and w.process.is_alive()
            ]
            for worker in idle:
                worker.stop()
            for worker in workers:
                if worker in idle:
                    worker.join()
                else:
                    worker.kill()
        return interrupted

    # ------------------------------------------------------------------
    def _next_attempt(
        self, queue: deque, retries: List[_Attempt]
    ) -> Optional[_Attempt]:
        now = time.monotonic()
        for i, attempt in enumerate(retries):
            if attempt.eligible_at <= now:
                return retries.pop(i)
        if queue:
            return queue.popleft()
        return None

    def _dispatch_ready(self, workers, queue, retries) -> None:
        for worker in workers:
            if worker.busy:
                continue
            if not worker.process.is_alive():
                # An idle worker died (should not happen — workers
                # only die mid-trial or on kill); replace it lazily.
                continue
            attempt = self._next_attempt(queue, retries)
            if attempt is None:
                return
            worker.dispatch(attempt, self.wall_timeout_s)

    def _drain(self, ctx, workers, queue, retries, on_outcome) -> None:
        busy = [w for w in workers if w.busy]
        if not busy:
            # Nothing in flight: backoff windows may still be open.
            if retries:
                time.sleep(0.01)
            return
        conns = {w.conn: w for w in busy}
        for conn in connection_wait(list(conns), timeout=0.05):
            worker = conns[conn]
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                workers[workers.index(worker)] = self._on_crash(
                    ctx, worker, queue, retries, on_outcome
                )
                continue
            attempt = worker.attempt
            worker.attempt = None
            worker.hard_deadline = None
            kind, body, wall_s = payload
            if kind == "ok":
                if OBS.enabled:
                    _emit_trial_span(attempt.trial, "ok", wall_s)
                on_outcome(attempt.trial, body, wall_s)
            else:
                failure = TrialFailure.from_dict(body, lenient=True)
                failure = replace(failure, attempts=attempt.attempts)
                self._settle_failure(
                    attempt, failure, wall_s, queue, retries, on_outcome
                )

    def _enforce_deadlines(
        self, ctx, workers, queue, retries, on_outcome
    ) -> None:
        now = time.monotonic()
        for i, worker in enumerate(workers):
            overdue = (
                worker.busy
                and worker.hard_deadline is not None
                and now > worker.hard_deadline
            )
            died = worker.busy and not worker.process.is_alive()
            if not (overdue or died):
                continue
            if overdue:
                attempt = worker.attempt
                worker.kill()
                failure = TrialFailure(
                    outcome="timeout",
                    message=(
                        "worker killed after exceeding the wall-clock "
                        f"budget ({self.wall_timeout_s}s) without "
                        "reporting"
                    ),
                    attempts=attempt.attempts,
                )
                workers[i] = _Worker(ctx)
                if OBS.enabled:
                    OBS.metrics.inc("campaign.pool_rebuilds")
                self._settle_failure(
                    attempt, failure, 0.0, queue, retries, on_outcome
                )
            else:
                workers[i] = self._on_crash(
                    ctx, worker, queue, retries, on_outcome
                )

    def _on_crash(self, ctx, worker, queue, retries, on_outcome) -> _Worker:
        """A worker died mid-trial: record/retry, replenish the pool."""
        attempt = worker.attempt
        worker.kill()
        exitcode = worker.process.exitcode
        failure = crash_failure(
            attempts=attempt.attempts,
            detail=(
                "worker process died while executing this trial "
                f"(exit code {exitcode})"
            ),
        )
        self._settle_failure(
            attempt, failure, 0.0, queue, retries, on_outcome
        )
        if OBS.enabled:
            OBS.metrics.inc("campaign.pool_rebuilds")
        return _Worker(ctx)

    def _settle_failure(
        self, attempt, failure, wall_s, queue, retries, on_outcome
    ) -> None:
        if self.policy.should_retry(failure):
            delay_s = self.policy.delay_s(attempt.attempts)
            if OBS.enabled:
                _count_retry(delay_s)
            attempt.eligible_at = time.monotonic() + delay_s
            retries.append(attempt)
            return
        failure = self.policy.finalize(failure)
        if OBS.enabled:
            _emit_trial_span(attempt.trial, failure.outcome, wall_s)
        on_outcome(
            attempt.trial,
            canonical_json(failure_record(attempt.trial, failure)),
            wall_s,
        )
