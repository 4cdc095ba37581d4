"""repro.serve — simulation as a service.

An asyncio campaign server over the existing campaign layer:
multi-tenant queueing with per-client rate limits, content-hash
dedupe against the shared :class:`~repro.campaign.store.ResultStore`,
streaming JSONL results, and journal-backed restart survival.  See
:mod:`repro.serve.server` for the HTTP surface and
:mod:`repro.serve.scheduler` for the execution model.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import (
    API_PREFIX,
    DEFAULT_CLIENT,
    JOB_STATES,
    TERMINAL_STATES,
    JobStatus,
    SubmitOptions,
    SubmitRequest,
    error_doc,
)
from repro.serve.scheduler import (
    Job,
    QueueFull,
    RateLimited,
    Scheduler,
    TokenBucket,
    UnknownJob,
)
from repro.serve.server import BackgroundServer, CampaignServer, run_server

__all__ = [
    "API_PREFIX",
    "DEFAULT_CLIENT",
    "JOB_STATES",
    "TERMINAL_STATES",
    "BackgroundServer",
    "CampaignServer",
    "Job",
    "JobStatus",
    "QueueFull",
    "RateLimited",
    "Scheduler",
    "ServeClient",
    "ServeError",
    "SubmitOptions",
    "SubmitRequest",
    "TokenBucket",
    "UnknownJob",
    "error_doc",
    "run_server",
]
