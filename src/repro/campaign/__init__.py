"""Campaign API: parallel, cached, resumable experiment execution.

The experiment layer the paper's figures actually need: every
parameter study — transaction rate vs. message length, goodput vs.
node count, recovery vs. glitch rate — is a :class:`Campaign`:

* a base :class:`~repro.scenario.spec.SystemSpec`,
* a workload (fixed or ``params -> Workload`` factory),
* an optional fault set (fixed or factory),
* and a :class:`Grid` of parameter axes (product / zip / chain /
  cross),

which **compiles** to an explicit list of content-addressed
:class:`Trial` documents, **executes** through a pluggable,
failure-isolating executor (``"serial"``, or ``"process"`` via the
crash-surviving :class:`~repro.campaign.executors.ProcessPool`),
**memoises** every trial in an append-only, resumable, compactable
:class:`ResultStore` (key = SHA-256 of the trial documents), and
returns a queryable :class:`ResultSet`::

    from repro.campaign import Campaign, Grid

    rs = Campaign(
        spec, workload,
        grid=Grid.product(clock_hz=[100e3, 400e3, 1e6]),
        name="fig14",
    ).run(executor="process", workers=4, store="out/fig14")

    rs.series("clock_hz", "report.goodput_bps")   # figure = query
    rs.to_table()                                  # or a table
    rs.summary()                                   # cache accounting

Re-running the same campaign against the same store executes nothing:
every trial is served from cache.  Interrupt it halfway (SIGINT is a
graceful checkpoint, not a crash) and only the missing trials run
next time.  Failing trials — raised exceptions, wall-clock timeouts,
dead workers — become structured :class:`TrialFailure` records in the
same store (see :mod:`repro.campaign.failures`), retried under a
:class:`RetryPolicy` and quarantined when poisonous.  ``python -m
repro campaign run/status/results/compact`` exposes the same
machinery over JSON campaign documents (see EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.campaign.campaign import (
    Campaign,
    CampaignStatus,
    EXECUTORS,
    load_campaign,
)
from repro.campaign.executors import ProcessPool, run_serial
from repro.campaign.failures import (
    FAILURE_OUTCOMES,
    RetryPolicy,
    TrialFailure,
    classify_exception,
    failure_record,
    record_is_quarantined,
    record_outcome,
)
from repro.campaign.grid import GRID_KINDS, Grid, as_grid
from repro.campaign.resultset import AGGREGATIONS, ResultSet, TrialResult
from repro.campaign.store import RESULTS_FILENAME, ResultStore
from repro.campaign.trial import (
    Trial,
    canonical_json,
    derive_trial_seed,
    execute_trial,
    run_trial_document,
    trial_record,
)

# Importing the chaos drill registers its workload kind; with the
# default fork start method, worker processes inherit the
# registration, so chaos documents deserialise everywhere.
import repro.campaign.chaos  # noqa: E402,F401  (registration side effect)

__all__ = [
    "AGGREGATIONS",
    "Campaign",
    "CampaignStatus",
    "EXECUTORS",
    "FAILURE_OUTCOMES",
    "GRID_KINDS",
    "Grid",
    "ProcessPool",
    "RESULTS_FILENAME",
    "ResultSet",
    "ResultStore",
    "RetryPolicy",
    "Trial",
    "TrialFailure",
    "TrialResult",
    "as_grid",
    "canonical_json",
    "classify_exception",
    "derive_trial_seed",
    "execute_trial",
    "failure_record",
    "load_campaign",
    "record_is_quarantined",
    "record_outcome",
    "run_serial",
    "run_trial_document",
    "trial_record",
]
