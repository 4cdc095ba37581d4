"""Failure as data: structured trial-failure records and retry policy.

A fuzzing or fleet-scale campaign *wants* failing trials — a raised
exception, a run that blows its wall-clock budget, a worker process
that dies — and treats each as an observation, not a reason to abort.
This module defines the vocabulary:

* :class:`TrialFailure` — the schema-versioned failure document stored
  in the :class:`~repro.campaign.store.ResultStore` alongside success
  records: outcome class, exception type, message, a stable traceback
  digest, the attempt count and the quarantine flag;
* :class:`RetryPolicy` — bounded retries with exponential backoff for
  transient errors and worker crashes, and the quarantine rule that
  stops a poison trial from eating the campaign's budget forever;
* :func:`classify_exception` / :func:`failure_record` — the glue the
  executors use to turn a caught exception into a store record.

Outcome taxonomy (the record's ``outcome`` field):

============  =======================================================
``"ok"``      the trial executed and produced a report (implicit for
              records written before this schema grew the field)
``"error"``   trial execution raised an exception in-process
``"timeout"`` the trial exceeded its ``wall_timeout_s`` budget
              (cooperatively via
              :class:`~repro.core.errors.WallClockTimeout`, or by the
              process executor killing the worker)
``"crashed"`` the worker process died without reporting (``os._exit``,
              segfault, OOM kill)
============  =======================================================

Quarantine is orthogonal: a failure whose retryable class exhausted
``max_attempts`` is stamped ``quarantined: true``, and resumed
campaigns will not re-execute it even under ``retry_failed=True``
(only ``retry_quarantined=True`` does).
"""

from __future__ import annotations

import hashlib
import traceback as traceback_module
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core.errors import (
    ConfigurationError,
    TransientTrialError,
    WallClockTimeout,
)
from repro.core.schema import REPORT_SCHEMA_VERSION, Document

if TYPE_CHECKING:
    from repro.campaign.trial import Trial

#: Record outcomes that are failures (everything but ``"ok"``).
FAILURE_OUTCOMES = ("error", "timeout", "crashed")

#: Exception classes retried by default (environmental, not semantic).
TRANSIENT_ERRORS = (TransientTrialError, OSError, MemoryError)


def traceback_digest(exc: BaseException) -> str:
    """A short, stable fingerprint of an exception's traceback.

    Hashes the frame chain as ``module:function:line`` plus the
    exception type — *not* the formatted text, whose absolute file
    paths would make the digest differ between hosts and checkouts.
    """
    frames = [
        f"{frame.name}:{frame.lineno}"
        for frame in traceback_module.extract_tb(exc.__traceback__)
    ]
    material = "|".join([type(exc).__name__] + frames)
    return hashlib.sha256(material.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TrialFailure(Document):
    """One trial's structured failure outcome (JSON-round-trippable)."""

    outcome: str                 # "error" | "timeout" | "crashed"
    error_type: str = ""         # exception class name ("" for crashes)
    message: str = ""
    traceback_digest: str = ""
    attempts: int = 1
    quarantined: bool = False
    transient: bool = False

    def __post_init__(self) -> None:
        if self.outcome not in FAILURE_OUTCOMES:
            raise ConfigurationError(
                f"failure outcome must be one of {FAILURE_OUTCOMES}, "
                f"not {self.outcome!r}"
            )

    def summary(self) -> str:
        label = self.outcome
        if self.quarantined:
            label += " (quarantined)"
        detail = self.error_type or "worker died"
        if self.message:
            detail += f": {self.message}"
        return (
            f"{label} after {self.attempts} attempt(s) — {detail}"
        )


def classify_exception(exc: BaseException, attempts: int = 1) -> TrialFailure:
    """Turn a caught trial exception into a :class:`TrialFailure`.

    :class:`WallClockTimeout` maps to the ``timeout`` outcome;
    everything else is an ``error``.  ``transient`` marks exception
    classes the retry policy may re-attempt.
    """
    outcome = "timeout" if isinstance(exc, WallClockTimeout) else "error"
    return TrialFailure(
        outcome=outcome,
        error_type=type(exc).__name__,
        message=str(exc)[:500],
        traceback_digest=traceback_digest(exc),
        attempts=attempts,
        transient=isinstance(exc, TRANSIENT_ERRORS),
    )


def crash_failure(attempts: int, detail: str = "") -> TrialFailure:
    """The failure document for a worker that died mid-trial."""
    return TrialFailure(
        outcome="crashed",
        message=detail or "worker process died while executing this trial",
        attempts=attempts,
        transient=True,
    )


def failure_record(trial: "Trial", failure: TrialFailure) -> Dict:
    """The store record for a failed trial — same envelope as
    :func:`~repro.campaign.trial.trial_record`, with a ``failure``
    document in place of the ``report``."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "key": trial.key,
        "params": dict(trial.params),
        "backend": trial.backend,
        "outcome": failure.outcome,
        "failure": failure.to_dict(),
    }


def record_outcome(record: Dict) -> str:
    """A record's outcome class; pre-failure-schema records (no
    ``outcome`` field) are successes by construction."""
    return record.get("outcome", "ok")


def record_is_quarantined(record: Dict) -> bool:
    failure = record.get("failure")
    return bool(failure) and bool(failure.get("quarantined"))


@dataclass(frozen=True)
class RetryPolicy(Document):
    """Bounded retries with exponential backoff, plus quarantine.

    ``max_attempts`` caps total attempts for retryable failures; the
    delay before attempt ``n+1`` is ``backoff_s * backoff_factor**(n-1)``.
    What is retryable:

    * transient in-process errors (``TRANSIENT_ERRORS``) when
      ``retry_transient`` — environmental, worth another try;
    * worker crashes when ``retry_crashed`` — could be an OOM kill or
      a genuinely poison trial; retrying distinguishes them;
    * wall-clock timeouts only when ``retry_timeout`` (off by
      default: a deterministic simulation that blew its budget once
      will blow it again, at full cost).

    Deterministic in-process errors are never retried — for a pure
    function of the trial documents, the exception *is* the result.
    A retryable failure that exhausts ``max_attempts`` is quarantined.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    retry_transient: bool = True
    retry_crashed: bool = True
    retry_timeout: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.backoff_factor < 1:
            raise ConfigurationError(
                "backoff_s must be >= 0 and backoff_factor >= 1"
            )

    def retryable(self, failure: TrialFailure) -> bool:
        """Is this failure *class* worth another attempt (ignoring
        the attempt budget)?"""
        if failure.outcome == "crashed":
            return self.retry_crashed
        if failure.outcome == "timeout":
            return self.retry_timeout
        return self.retry_transient and failure.transient

    def should_retry(self, failure: TrialFailure) -> bool:
        return (
            self.retryable(failure)
            and failure.attempts < self.max_attempts
        )

    def delay_s(self, attempts: int) -> float:
        """Backoff before the attempt *after* ``attempts`` tries."""
        return self.backoff_s * self.backoff_factor ** max(0, attempts - 1)

    def finalize(self, failure: TrialFailure) -> TrialFailure:
        """Stamp quarantine on a failure whose retryable class
        exhausted the attempt budget (the poison-trial rule)."""
        if (
            self.retryable(failure)
            and failure.attempts >= self.max_attempts
        ):
            return replace(failure, quarantined=True)
        return failure


def normalize_retry(retry: Any) -> Optional[RetryPolicy]:
    """Coerce a ``retry=`` argument: None, a policy, or a dict."""
    if retry is None or isinstance(retry, RetryPolicy):
        return retry
    if isinstance(retry, dict):
        return RetryPolicy.from_dict(retry)
    raise ConfigurationError(
        f"retry must be a RetryPolicy or a dict, not {retry!r}"
    )
