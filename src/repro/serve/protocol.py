"""Wire schemas for the campaign server (versioned, lenient-loading).

Everything that crosses the HTTP boundary is a plain JSON document
stamped with the shared ``schema_version`` and loadable through a
``from_dict(..., lenient=True)`` that drops unknown keys — the same
conventions every persisted report in this repo follows, so old
clients keep working against newer servers (and vice versa).

Three documents make up the protocol:

* :class:`SubmitOptions` — *how* to execute a submitted campaign
  (executor, workers, wall budget, retry switches).  Execution
  policy, deliberately separated from the campaign document itself:
  two submissions of the same campaign with different options are
  the same experiment, and dedupe against the shared trial store
  treats them that way.
* :class:`SubmitRequest` — one submission: the campaign document
  (exactly what ``campaign run`` consumes), its options, and the
  client token used for rate limiting and per-client dedupe
  accounting.  :attr:`SubmitRequest.key` is a content hash over all
  three, the coalescing handle for identical in-flight submissions.
* :class:`JobStatus` — the observable state of one job: queue state,
  per-outcome counts, dedupe (cache) accounting, and the terminal
  error, if any.  This is the body of ``GET /v1/campaigns/{id}`` and
  the document ``campaign watch`` renders.

Job lifecycle: ``queued -> running -> done | failed``, with one loop
back — a server stopped mid-run checkpoints the campaign at a trial
boundary and re-journals the job as ``queued``, so a restarted server
resumes it exactly like ``campaign run`` resumes after SIGTERM.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.campaign.campaign import EXECUTORS
from repro.campaign.trial import canonical_json
from repro.core.errors import ConfigurationError
from repro.core.schema import REPORT_SCHEMA_VERSION
from repro.scenario.runner import check_timeouts

#: URL prefix every route lives under; bump on breaking route changes.
API_PREFIX = "/v1"

#: The job lifecycle (see module docstring).  ``queued`` is also the
#: post-interruption state: a checkpointed job resumes from there.
JOB_STATES = ("queued", "running", "done", "failed")

#: States a job never leaves (``queued``/``running`` are live).
TERMINAL_STATES = ("done", "failed")

#: Client token used when a submission names none.
DEFAULT_CLIENT = "anonymous"


@dataclass(frozen=True)
class SubmitOptions:
    """Execution policy for one submitted campaign."""

    executor: str = "serial"
    workers: Optional[int] = None
    wall_timeout_s: Optional[float] = None
    retry_failed: bool = False
    retry_quarantined: bool = False

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ConfigurationError(
                f"options.executor must be one of {EXECUTORS}, "
                f"not {self.executor!r}"
            )
        check_timeouts(**{"options.wall_timeout_s": self.wall_timeout_s})

    def to_dict(self) -> Dict:
        return {
            "executor": self.executor,
            "workers": self.workers,
            "wall_timeout_s": self.wall_timeout_s,
            "retry_failed": self.retry_failed,
            "retry_quarantined": self.retry_quarantined,
        }

    _KEYS = frozenset({
        "executor", "workers", "wall_timeout_s", "retry_failed",
        "retry_quarantined",
    })

    @classmethod
    def from_dict(
        cls, data: Dict, lenient: bool = False
    ) -> "SubmitOptions":
        if lenient:
            data = {k: v for k, v in data.items() if k in cls._KEYS}
        else:
            unknown = set(data) - cls._KEYS
            if unknown:
                raise ConfigurationError(
                    "unknown SubmitOptions key(s): "
                    f"{', '.join(sorted(unknown))}"
                )
        return cls(
            executor=data.get("executor", "serial"),
            workers=data.get("workers"),
            wall_timeout_s=data.get("wall_timeout_s"),
            retry_failed=bool(data.get("retry_failed", False)),
            retry_quarantined=bool(data.get("retry_quarantined", False)),
        )


@dataclass(frozen=True)
class SubmitRequest:
    """One campaign submission: document + policy + client token."""

    campaign: Dict
    options: SubmitOptions = field(default_factory=SubmitOptions)
    client: str = DEFAULT_CLIENT

    def __post_init__(self) -> None:
        if not isinstance(self.campaign, dict) or not self.campaign:
            raise ConfigurationError(
                "a submission needs a non-empty 'campaign' JSON object "
                "(the same document `campaign run` consumes)"
            )
        if not isinstance(self.client, str) or not self.client:
            raise ConfigurationError(
                "the client token must be a non-empty string"
            )

    @property
    def key(self) -> str:
        """Content hash of (campaign, options, client) — the handle
        used to coalesce identical in-flight submissions and to derive
        stable job ids across server restarts."""
        return hashlib.sha256(
            canonical_json({
                "campaign": self.campaign,
                "options": self.options.to_dict(),
                "client": self.client,
            }).encode()
        ).hexdigest()[:16]

    def to_dict(self) -> Dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "campaign": self.campaign,
            "options": self.options.to_dict(),
            "client": self.client,
        }

    _KEYS = frozenset({
        "schema_version", "campaign", "options", "client",
    })

    @classmethod
    def from_dict(
        cls, data: Dict, lenient: bool = False
    ) -> "SubmitRequest":
        if not isinstance(data, dict):
            raise ConfigurationError(
                "a submission body must be a JSON object"
            )
        if lenient:
            data = {k: v for k, v in data.items() if k in cls._KEYS}
        else:
            unknown = set(data) - cls._KEYS
            if unknown:
                raise ConfigurationError(
                    "unknown SubmitRequest key(s): "
                    f"{', '.join(sorted(unknown))}"
                )
        if "campaign" not in data:
            raise ConfigurationError(
                "a submission needs a 'campaign' key"
            )
        options_doc = data.get("options") or {}
        if not isinstance(options_doc, dict):
            raise ConfigurationError(
                "'options' must be a JSON object"
            )
        client = data.get("client") or DEFAULT_CLIENT
        return cls(
            campaign=data["campaign"],
            options=SubmitOptions.from_dict(options_doc, lenient=lenient),
            client=client,
        )


@dataclass(frozen=True)
class JobStatus:
    """The observable state of one job (``GET /v1/campaigns/{id}``)."""

    job_id: str
    client: str
    state: str
    name: str = ""
    #: Trials the campaign compiled to (0 until known).
    n_trials: int = 0
    #: Trials resolved so far in the current/most recent run.
    done: int = 0
    #: Of ``done``: served from the shared store / an in-run alias —
    #: the dedupe accounting surface (near-free resubmissions).
    cached: int = 0
    #: Of ``done``: actually executed this run.
    executed: int = 0
    #: Trials whose stored outcome is a failure.
    failed: int = 0
    #: Per-outcome counts over resolved trials (ok/error/timeout/crashed).
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: How often this job has been interrupted and re-queued.
    resumptions: int = 0
    #: Terminal error message ("" unless ``state == "failed"``).
    error: str = ""

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ConfigurationError(
                f"job state must be one of {JOB_STATES}, "
                f"not {self.state!r}"
            )

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def ok(self) -> bool:
        """Terminal success with no failed trials."""
        return self.state == "done" and self.failed == 0

    def to_dict(self) -> Dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "job_id": self.job_id,
            "client": self.client,
            "state": self.state,
            "name": self.name,
            "n_trials": self.n_trials,
            "done": self.done,
            "cached": self.cached,
            "executed": self.executed,
            "failed": self.failed,
            "outcomes": dict(self.outcomes),
            "resumptions": self.resumptions,
            "error": self.error,
            "terminal": self.terminal,
        }

    _KEYS = frozenset({
        "schema_version", "job_id", "client", "state", "name",
        "n_trials", "done", "cached", "executed", "failed", "outcomes",
        "resumptions", "error", "terminal",
    })

    @classmethod
    def from_dict(cls, data: Dict, lenient: bool = False) -> "JobStatus":
        if lenient:
            data = {k: v for k, v in data.items() if k in cls._KEYS}
        else:
            unknown = set(data) - cls._KEYS
            if unknown:
                raise ConfigurationError(
                    f"unknown JobStatus key(s): {', '.join(sorted(unknown))}"
                )
        for required in ("job_id", "state"):
            if required not in data:
                raise ConfigurationError(
                    f"a job status document needs a {required!r} key"
                )
        return cls(
            job_id=data["job_id"],
            client=data.get("client", DEFAULT_CLIENT),
            state=data["state"],
            name=data.get("name", ""),
            n_trials=int(data.get("n_trials", 0)),
            done=int(data.get("done", 0)),
            cached=int(data.get("cached", 0)),
            executed=int(data.get("executed", 0)),
            failed=int(data.get("failed", 0)),
            outcomes=dict(data.get("outcomes") or {}),
            resumptions=int(data.get("resumptions", 0)),
            error=data.get("error", ""),
        )

    def summary(self) -> str:
        """One status line (the ``campaign watch`` rendering)."""
        label = self.name or self.job_id
        text = (
            f"{label}: {self.state} — {self.done}/{self.n_trials} "
            f"trial(s), {self.cached} from cache, "
            f"{self.executed} executed"
        )
        if self.failed:
            text += f", {self.failed} FAILED"
        if self.resumptions:
            text += f" (resumed x{self.resumptions})"
        if self.error:
            text += f" [{self.error}]"
        return text


def error_doc(message: str, status: int) -> Dict:
    """The uniform error body every non-2xx response carries."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "error": message,
        "status": status,
    }
