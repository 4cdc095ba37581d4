"""Batch campaign records built from the round log.

A batch campaign trial builds its store record and the record's
canonical line straight from the executor's round log
(``run_batch_record``).  The contract is that nothing observable
moves:

* the line is byte-identical to ``canonical_json(trial_record(trial,
  run(...).to_dict()))`` and decodes to the record, on every
  fault-free generated scenario, with and without a ``timeout_s``
  that cuts it short, on the fig14 grid and on a fleet;
* the store appends that line as is and gives back an equal record,
  before and after reopening;
* records share no mutable object with each other or with the
  template cache;
* a trial that fails records what ``run()`` raises, classified and
  recorded as the executor records any failure;
* with observability on, ``run_batch_record`` emits the trace,
  metrics and phase profile ``run(..., backend="batch")`` does.

It also covers the bound on the template and message tables of a
cached compiled system.
"""

import json

import pytest

import repro.batch.executor
from repro.batch import cache_stats, clear_cache, compile_system_cached
from repro.batch.compiler import MAX_TEMPLATES
from repro.campaign import Campaign, Grid, ResultStore, canonical_json
from repro.campaign.failures import classify_exception, failure_record
from repro.campaign.trial import Trial, execute_trial, trial_record
from repro.core import Address
from repro.diffcheck import generate_scenarios
from repro.faults import FaultSpec
from repro.obs import observe, strip_wall_fields
from repro.obs.tracer import canonical_line, trace_records
from repro.scenario import Burst, NodeSpec, SystemSpec, run
from repro.scenario.runner import run_batch_record
from repro.scenario.workload import PostEvent, workload_from_dict

from tests.integration.test_batch_backend import staggered_fleet
from tests.integration.test_batch_golden import fig14_grid, fig14_spec


def batch_trial(spec_doc, workload_doc, timeout_s=None, index=0):
    return Trial(
        index=index,
        params={"seed": index},
        spec_doc=spec_doc,
        workload_doc=workload_doc,
        backend="batch",
        timeout_s=timeout_s,
    )


def outcome(call):
    """A call's result, or its exception as ``(type, message)``."""
    try:
        return call()
    except Exception as exc:   # compared, not swallowed
        return (type(exc).__name__, str(exc))


def record_path(trial):
    line, _wall_s = execute_trial(trial)
    assert canonical_json(json.loads(line)) == line
    return line


def live_run(trial):
    """``run()`` on the trial's documents, as a caller outside the
    campaign layer makes it."""
    return run(
        SystemSpec.from_dict(trial.spec_doc),
        workload_from_dict(trial.workload_doc),
        backend=trial.backend,
        timeout_s=trial.timeout_s,
        faults=(
            None if trial.faults_doc is None
            else FaultSpec.from_dict(trial.faults_doc)
        ),
        wall_timeout_s=trial.wall_timeout_s,
    )


def report_path(trial):
    """The reference line: the record of ``run()``'s live report."""
    return canonical_json(trial_record(trial, live_run(trial).to_dict()))


def containers(document):
    """Every dict and list inside ``document``, itself included."""
    stack, found = [document], []
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            found.append(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            found.append(item)
            stack.extend(item)
    return found


class TestByteIdentity:
    def test_generated_scenarios(self):
        scenarios = generate_scenarios(300, seed=16, faults_fraction=0)
        cut = failed = 0
        for scenario in scenarios:
            trial = batch_trial(
                scenario["system"], scenario["workload"],
                index=scenario["seed"],
            )
            line = outcome(lambda: record_path(trial))
            assert line == outcome(lambda: report_path(trial))
            if not isinstance(line, str):
                failed += 1
                continue
            # The same scenario with its simulated time cut in half.
            sim_time_s = json.loads(line)["report"]["sim_time_s"]
            timed = batch_trial(
                scenario["system"], scenario["workload"],
                timeout_s=sim_time_s / 2, index=scenario["seed"],
            )
            cut_line = outcome(lambda: record_path(timed))
            assert cut_line == outcome(lambda: report_path(timed))
            cut += isinstance(cut_line, str)
        # Both arms were exercised: most runs succeed, and some cut
        # runs still end idle.
        assert failed < len(scenarios) // 10
        assert cut > 0

    @pytest.mark.parametrize(
        "shape", ["fig14_grid", "staggered_fleet"]
    )
    def test_campaign_lines_match_live_report_path(self, shape):
        if shape == "fig14_grid":
            campaign = fig14_grid()
        else:
            spec, workload = staggered_fleet(members=20, posts=30)
            campaign = Campaign(spec=spec, workload=workload,
                                backend="batch")
        store = ResultStore.memory()
        results = campaign.run(store=store)
        for result in results:
            line = store.line(result.trial.key)
            assert line == report_path(result.trial)
            assert canonical_json(result.record) == line

    def test_store_returns_the_record_after_put_and_reopen(self, tmp_path):
        results = fig14_grid().run(store=str(tmp_path))
        reopened = ResultStore(tmp_path)
        for result in results:
            assert reopened.get(result.trial.key) == result.record
            assert reopened.line(result.trial.key) == canonical_json(
                result.record
            )

    def test_records_share_no_mutable_objects(self):
        clear_cache()
        campaign = fig14_grid()
        first = campaign.run()
        again = campaign.run(resume=False)   # warm templates this time
        ids = set()
        records = [r.record for r in first] + [r.record for r in again]
        for record in records:
            for item in containers(record):
                assert id(item) not in ids
                ids.add(id(item))
        csys = compile_system_cached(fig14_spec())
        for tpl in csys.template_list:
            if tpl.row is not None:
                assert id(tpl.row) not in ids


class TestLineBackedResume:
    """A record is its line: a resume pass over ok records, and the
    queries that read only outcomes, decode no record."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []
        real = json.loads

        def counting(text, *args, **kwargs):
            calls.append(text)
            return real(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        return calls

    def test_resume_pass_decodes_nothing(self, tmp_path, decodes):
        campaign = fig14_grid()
        first = campaign.run(store=str(tmp_path))
        assert first.executed == 40 and decodes == []
        resumed = campaign.run(store=str(tmp_path))
        status = campaign.status(str(tmp_path))
        assert resumed.cached == 40 and resumed.failed == 0
        assert len(resumed.oks()) == 40 and not resumed.failures()
        assert "40 from cache" in resumed.summary()
        assert status.complete and status.outcomes["ok"] == 40
        assert decodes == []
        # Reading the records decodes each once, and they are the
        # executed ones.
        assert resumed.records() == first.records()
        assert len(decodes) == 2 * 40


def live_failure(trial):
    """The failure record of what ``run()`` raises on ``trial``,
    classified and recorded as the executor records a failure."""
    with pytest.raises(Exception) as raised:
        live_run(trial)
    return failure_record(trial, classify_exception(raised.value))


def without_digest(record):
    """A failure record without its traceback digest, which names the
    source lines the failure was raised through."""
    assert record["outcome"] != "ok"
    failure = dict(record["failure"])
    assert len(failure.pop("traceback_digest")) == 16
    return {**record, "failure": failure}


class TestFailures:
    def failure_records(self, campaign):
        """The campaign's failure records, which must be the ones
        ``run()``'s exceptions give."""
        results = campaign.run()
        records = [without_digest(r.record) for r in results]
        assert records == [
            without_digest(live_failure(r.trial)) for r in results
        ]
        return records

    def test_bad_spec(self):
        campaign = Campaign(
            spec=fig14_spec(),
            workload=Burst("m", Address.short(0x2, 5), b"\x01", count=2),
            grid=Grid.product(**{"system.nodes.1.short_prefix": [0x1]}),
            backend="batch",
        )
        (record,) = self.failure_records(campaign)
        assert record["failure"]["error_type"] == "ConfigurationError"

    def test_unknown_source_node(self):
        campaign = Campaign(
            spec=fig14_spec(),
            workload=Burst("nobody", Address.short(0x2, 5), b"\x01"),
            backend="batch",
        )
        (record,) = self.failure_records(campaign)
        assert record["failure"]["error_type"] == "ConfigurationError"

    def test_wall_clock_timeout(self):
        spec, workload = staggered_fleet(members=8, posts=400)
        campaign = Campaign(spec=spec, workload=workload, backend="batch",
                            wall_timeout_s=1e-9)
        (record,) = self.failure_records(campaign)
        assert record["outcome"] == "timeout"
        assert record["failure"]["error_type"] == "WallClockTimeout"

    def test_bus_locked(self):
        campaign = Campaign(
            spec=fig14_spec(),
            workload=Burst("m", Address.short(0x2, 5), b"\x01", count=6),
            backend="batch",
            timeout_s=1e-9,
        )
        (record,) = self.failure_records(campaign)
        assert record["failure"]["error_type"] == "BusLockedError"

    def test_faults_document(self):
        from repro.faults import FaultSpec

        campaign = Campaign(
            spec=fig14_spec(),
            workload=Burst("m", Address.short(0x2, 5), b"\x01", count=2),
            faults=FaultSpec(),
            backend="batch",
        )
        (record,) = self.failure_records(campaign)
        assert "live system" in record["failure"]["message"]

    def test_over_long_run(self, monkeypatch):
        real = repro.batch.executor.BatchExecutor.run

        def short_budget(self, until=None, wall_deadline=None):
            return real(self, until, wall_deadline, max_steps=20)

        monkeypatch.setattr(
            repro.batch.executor.BatchExecutor, "run", short_budget
        )
        campaign = Campaign(
            spec=fig14_spec(),
            workload=Burst("m", Address.short(0x2, 5), b"\x01", count=40,
                           gap_s=1e-3),
            backend="batch",
        )
        (record,) = self.failure_records(campaign)
        assert record["failure"]["error_type"] == "SimulationError"


class TestObservability:
    def trace(self, path):
        clear_cache()
        campaign = fig14_grid()
        campaign.grid = Grid.product(**{
            "workload.payload": ["0102030405060708", "a1a2a3a4a5a6a7a8"],
        })
        trials = campaign.trials()
        with observe() as session:
            for trial in trials:
                path(
                    SystemSpec.from_dict(trial.spec_doc),
                    workload_from_dict(trial.workload_doc),
                )
        records = trace_records(
            session.tracer,
            meta={"label": "batch-records"},
            metrics=session.metrics.snapshot(),
            profile=session.profiler.to_dict(),
        )
        return [canonical_line(strip_wall_fields(r)) for r in records]

    def test_round_log_path_emits_what_the_report_path_does(self):
        lines = self.trace(run_batch_record)
        assert lines == self.trace(
            lambda spec, workload: run(spec, workload, backend="batch")
        )
        text = "\n".join(lines)
        for needle in ('"name":"run"', '"name":"bus-round"',
                       '"name":"transaction"', "run.calls{backend=batch}",
                       '"serialize"'):
            assert needle in text


class TestTemplateTables:
    def test_distinct_trials_stay_under_the_cap(self):
        clear_cache()
        spec = fig14_spec()
        doc = spec.to_dict()
        workload = Burst("m", Address.short(0x2, 5), bytes(8),
                         count=3).to_dict()
        checked = []
        peak = resets = 0
        for i in range(20_000):
            workload["payload"] = i.to_bytes(8, "big").hex()
            trial = batch_trial(doc, dict(workload), index=i)
            before = cache_stats()["templates"]
            line, _wall = execute_trial(trial)
            after = cache_stats()["templates"]
            peak = max(peak, after)
            # Check every trial that ran right after a reset, and a
            # spread of the others.
            if after < before:
                resets += 1
                checked.append((trial, line))
            elif i % 997 == 0:
                checked.append((trial, line))
        assert peak <= MAX_TEMPLATES + 2
        assert resets >= 4
        assert cache_stats()["entries"] == 1
        for trial, line in checked:
            clear_cache()
            assert execute_trial(trial)[0] == line

    def test_a_run_keeps_its_own_working_set_warm(self):
        clear_cache()
        spec = fig14_spec()

        def messages(first):
            # One round per message, far enough apart to drain; one
            # message shape (the mediator sends 2 bytes to a).
            return [
                PostEvent(i * 1e-3, "m", Address.short(0x2, 5),
                          (first + i).to_bytes(2, "big"))
                for i in range(300)
            ]

        def resolved(events):
            """Rounds planned and rounds overlaid on a shape's plan."""
            with observe(trace=False, profile=False) as session:
                assert run(spec, events, backend="batch").n_ok == 300
            counters = session.metrics.to_dict()["counters"]
            return (
                counters.get("tlm.plan_round_calls", 0),
                counters.get("tlm.shape_hits", 0),
            )

        csys = compile_system_cached(spec)
        assert 300 > MAX_TEMPLATES
        assert resolved(messages(0)) == (1, 299)
        assert resolved(messages(0)) == (0, 0)   # the whole set stayed
        assert len(csys.template_list) == 300
        assert resolved(messages(1000)) == (0, 300)
        assert len(csys.template_list) == 600
        # 600 > MAX_TEMPLATES + 300: the next run starts afresh, both
        # the templates and the shape's plan.
        assert resolved(messages(0)) == (1, 299)
        assert len(csys.template_list) == len(csys.message_table) == 300
