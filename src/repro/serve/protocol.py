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

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.campaign.campaign import EXECUTORS
from repro.campaign.trial import canonical_json
from repro.core.errors import ConfigurationError
from repro.core.schema import REPORT_SCHEMA_VERSION, Document, take_keys
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
class SubmitOptions(Document):
    """Execution policy for one submitted campaign.

    Checked when built, so a malformed submission is refused with a
    400 instead of failing in the pool after its 202.  ``workers`` is
    a request: the server starts at most one pool worker per CPU.
    """

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
        if self.workers is not None and (
            isinstance(self.workers, bool)
            or not isinstance(self.workers, int)
            or self.workers < 1
        ):
            raise ConfigurationError(
                "options.workers must be a positive integer, "
                f"not {self.workers!r}"
            )
        for name in ("retry_failed", "retry_quarantined"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigurationError(
                    f"options.{name} must be true or false, "
                    f"not {getattr(self, name)!r}"
                )
        check_timeouts(**{"options.wall_timeout_s": self.wall_timeout_s})


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

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], lenient: bool = False
    ) -> "SubmitRequest":
        allowed = {f.name for f in dataclasses.fields(cls)}
        data = take_keys(
            data, allowed | {"schema_version"}, "SubmitRequest", lenient
        )
        if "campaign" not in data:
            raise ConfigurationError(
                "a submission needs a 'campaign' key"
            )
        return cls(
            campaign=data["campaign"],
            options=SubmitOptions.from_dict(
                data.get("options") or {}, lenient=lenient
            ),
            client=data.get("client") or DEFAULT_CLIENT,
        )


@dataclass(frozen=True)
class JobStatus(Document):
    """The observable state of one job (``GET /v1/campaigns/{id}``).

    Its document is its fields, stamped with ``schema_version`` and
    carrying ``terminal`` for clients; both are derived again on load.
    """

    job_id: str
    state: str
    client: str = DEFAULT_CLIENT
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

    schema_version = REPORT_SCHEMA_VERSION
    derived_keys = ("schema_version", "terminal")

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
