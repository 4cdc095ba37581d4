"""No stored or streamed record carries a wall-clock field.

Records are content-addressed: two runs of the same trial must give
the same bytes, so host time (``wall_s``, ``wall_throughput_tps``, any
``wall_*``) may appear in a live report but never in a record.  This
walks every key, at every depth, of records from each way one is
made: the edge, fast and batch backends (the batch tier's round-log
record, and the record of ``run()``'s live report), the process
pool, failure records, and the lines the campaign server streams.
"""

import json

from repro.campaign import Campaign, Grid, ResultStore
from repro.campaign.trial import trial_record
from repro.core import Address
from repro.scenario import Burst, NodeSpec, SystemSpec, run
from repro.scenario.workload import workload_from_dict
from repro.serve.protocol import SubmitRequest
from repro.serve.scheduler import Scheduler

from tests.integration.test_batch_backend import staggered_fleet
from tests.unit.test_serve_scheduler import run_to_terminal

SPEC = SystemSpec(
    name="wall-fields",
    clock_hz=400_000.0,
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2),
        NodeSpec("g", short_prefix=0x3, power_gated=True),
    ),
)

WORKLOAD = Burst("m", Address.short(0x3, 5), bytes(range(4)), count=3)


def wall_keys(document, path="$"):
    """Paths of every key starting with ``wall``, at any depth."""
    found = []
    if isinstance(document, dict):
        for key, value in document.items():
            where = f"{path}.{key}"
            if str(key).startswith("wall"):
                found.append(where)
            found.extend(wall_keys(value, where))
    elif isinstance(document, list):
        for i, value in enumerate(document):
            found.extend(wall_keys(value, f"{path}[{i}]"))
    return found


def campaign(backend, **kwargs):
    return Campaign(
        spec=SPEC,
        workload=WORKLOAD,
        grid=Grid.product(**{"workload.count": [1, 3]}),
        backend=backend,
        name=f"wall-{backend}",
        **kwargs,
    )


def stored(results_store):
    """Every record as stored: indexed, and decoded from its line."""
    records = list(results_store.records())
    records += [json.loads(line) for line in results_store.entries()]
    assert records
    return records


def test_backend_records_hold_no_wall_fields():
    for backend in ("edge", "fast", "batch"):
        store = ResultStore.memory()
        results = campaign(backend).run(store=store)
        assert not results.failed
        assert results[0].wall_s > 0   # wall time lives here
        for record in stored(store):
            assert wall_keys(record) == [], backend
        for result in results:
            report_doc = run(
                SPEC, workload_from_dict(result.trial.workload_doc),
                backend=backend,
            ).to_dict()
            assert wall_keys(report_doc)   # a live report has them
            assert wall_keys(trial_record(result.trial, report_doc)) == []


def test_pool_records_hold_no_wall_fields():
    store = ResultStore.memory()
    results = campaign("batch").run(
        executor="process", workers=1, store=store
    )
    assert not results.failed
    for record in stored(store):
        assert wall_keys(record) == []


def test_failure_records_hold_no_wall_fields():
    store = ResultStore.memory()
    bad_spec = Campaign(
        spec=SPEC,
        workload=WORKLOAD,
        grid=Grid.product(**{"system.nodes.1.short_prefix": [0x1]}),
        backend="batch",
    )
    spec, workload = staggered_fleet(members=8, posts=400)
    too_slow = Campaign(spec=spec, workload=workload, backend="batch",
                        wall_timeout_s=1e-9)
    outcomes = {
        result.record["outcome"]
        for failing in (bad_spec, too_slow)
        for result in failing.run(store=store)
    }
    assert outcomes == {"error", "timeout"}
    for record in stored(store):
        assert wall_keys(record) == []


def test_served_lines_hold_no_wall_fields():
    scheduler = Scheduler()
    for backend in ("auto", "batch"):
        job, _ = scheduler.submit(SubmitRequest(
            campaign=campaign(backend).to_dict(), client="wall"
        ))
        run_to_terminal(scheduler, job)
        assert job.state == "done"
        assert len(job.lines) == 2
        for line in job.lines:
            assert wall_keys(json.loads(line)) == []
