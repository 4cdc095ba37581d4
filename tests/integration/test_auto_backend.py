"""``backend="auto"``: the selection rule, and that it changes no answer.

``auto`` runs on the batch tier unless the run needs a live system:
tracing or an active fault set selects edge; a ``setup`` hook or any
``faults`` argument (an empty :class:`FaultSpec` included) selects
fast.  Campaign trials, which carry no code and so no ``setup`` hook
or tracing, follow the same rule for their faults document on the
serial executor, the process pool and therefore serve.

Before this rule ``auto`` meant fast, so an ``auto`` record must equal
the fast path's record for the same trial in everything but the
``backend`` fields, and a trial that failed on fast must fail on batch
with the same outcome and error type.
"""

import json

import pytest

from repro.campaign import Campaign, Grid, ResultStore, canonical_json
from repro.campaign.trial import Trial, execute_trial, trial_record
from repro.core import Address
from repro.diffcheck import generate_scenarios
from repro.faults import ClockDrift, FaultSpec
from repro.scenario import Burst, SystemSpec, run
from repro.scenario.workload import workload_from_dict

from tests.integration.test_batch_backend import staggered_fleet
from tests.integration.test_batch_golden import SHAPES, fig14_spec

BURST = Burst("m", Address.short(0x2, 5), b"\x01\x02", count=3)

#: (run() keyword arguments, the tier auto resolves to).
SELECTION = {
    "trace": ({"trace": True}, "edge"),
    "active faults": ({"faults": FaultSpec((ClockDrift("m", ppm=1.0),))},
                      "edge"),
    "empty FaultSpec": ({"faults": FaultSpec()}, "fast"),
    "setup hook": ({"setup": lambda system: None}, "fast"),
    "none": ({}, "batch"),
}


@pytest.mark.parametrize("case", sorted(SELECTION))
def test_run_resolves_auto(case):
    kwargs, tier = SELECTION[case]
    report = run(fig14_spec(), BURST, **kwargs)
    assert report.backend == tier
    assert report.n_ok == 3
    assert (report.system is None) == (tier == "batch")


#: The SELECTION cases a campaign trial can express: its documents.
CAMPAIGN_CASES = ["active faults", "empty FaultSpec", "none"]


def campaign_tier(case, executor):
    kwargs, _tier = SELECTION[case]
    campaign = Campaign(
        spec=fig14_spec(), workload=BURST, faults=kwargs.get("faults")
    )
    workers = 2 if executor == "process" else None
    (result,) = campaign.run(executor=executor, workers=workers)
    assert result.record["outcome"] == "ok"
    assert result.record["report"]["backend"] == result.record["backend"]
    return result.record["backend"]


@pytest.mark.parametrize("case", CAMPAIGN_CASES)
def test_serial_campaign_trial_resolves_auto(case):
    assert campaign_tier(case, "serial") == SELECTION[case][1]


@pytest.mark.parametrize("case", CAMPAIGN_CASES)
def test_pool_campaign_trial_resolves_auto(case):
    assert campaign_tier(case, "process") == SELECTION[case][1]


class TestRecordBackendField:
    def test_ok_record_names_the_resolved_tier(self):
        (result,) = Campaign(spec=fig14_spec(), workload=BURST).run()
        assert result.trial.backend == "auto"
        assert result.record["backend"] == "batch"
        assert result.record["report"]["backend"] == "batch"

    def test_failure_record_names_the_requested_backend(self):
        (result,) = Campaign(
            spec=fig14_spec(),
            workload=Burst("nobody", Address.short(0x2, 5), b"\x01"),
        ).run()
        assert result.record["outcome"] == "error"
        assert result.record["backend"] == "auto"

    def test_keys_hash_the_requested_backend(self):
        trial = Campaign(spec=fig14_spec(), workload=BURST).trials()[0]
        store = ResultStore.memory()
        # A record written while auto resolved to fast is served as is.
        fast_era = fast_record(trial)
        store.put(fast_era)
        (result,) = Campaign(spec=fig14_spec(), workload=BURST).run(
            store=store
        )
        assert result.cached and result.record == fast_era
        line, _wall_s = execute_trial(trial)
        assert fast_era == as_batch(json.loads(line), "fast")


def fast_record(trial):
    """What ``execute_trial`` returned for an ``auto`` trial while
    ``auto`` resolved to fast."""
    report = run(
        SystemSpec.from_dict(trial.spec_doc),
        workload_from_dict(trial.workload_doc),
        backend="fast",
        timeout_s=trial.timeout_s,
    )
    return trial_record(trial, report.to_dict())


def as_batch(record, tier="batch"):
    """``record`` with both ``backend`` fields set to ``tier``."""
    return {
        **record,
        "backend": tier,
        "report": {**record["report"], "backend": tier},
    }


def outcome(call):
    """A call's result, or the name of the exception it raised."""
    try:
        return call()
    except Exception as exc:   # compared, not swallowed
        return type(exc).__name__


def auto_record(trial):
    line, _wall_s = execute_trial(trial)
    record = json.loads(line)
    assert line == canonical_json(record)
    return record


class TestSameAnswers:
    def test_generated_scenarios(self):
        scenarios = generate_scenarios(300, seed=17, faults_fraction=0)
        compared = cut = failed = 0
        for scenario in scenarios:
            trial = Trial(
                index=scenario["seed"],
                params={},
                spec_doc=scenario["system"],
                workload_doc=scenario["workload"],
            )
            fast = outcome(lambda: as_batch(fast_record(trial)))
            assert outcome(lambda: auto_record(trial)) == fast
            if isinstance(fast, str):
                failed += 1
                continue
            compared += 1
            # The same scenario with its simulated time cut in half.
            timed = Trial(
                index=trial.index,
                params={},
                spec_doc=trial.spec_doc,
                workload_doc=trial.workload_doc,
                timeout_s=fast["report"]["sim_time_s"] / 2,
            )
            cut_fast = outcome(lambda: as_batch(fast_record(timed)))
            assert outcome(lambda: auto_record(timed)) == cut_fast
            cut += not isinstance(cut_fast, str)
        assert failed < len(scenarios) // 10
        assert compared + failed == len(scenarios) and cut > 0

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_golden_shapes(self, shape):
        campaign = SHAPES[shape]()
        campaign.backend = "auto"
        store = ResultStore.memory()
        results = campaign.run(store=store)
        assert len(results) >= 1
        for result in results:
            expected = as_batch(fast_record(result.trial))
            assert result.record == expected
            assert store.line(result.trial.key) == canonical_json(expected)


FAILURES = {
    "bad spec": dict(
        spec=fig14_spec(),
        workload=Burst("m", Address.short(0x2, 5), b"\x01", count=2),
        grid=Grid.product(**{"system.nodes.1.short_prefix": [0x1]}),
    ),
    "unknown node": dict(
        spec=fig14_spec(),
        workload=Burst("nobody", Address.short(0x2, 5), b"\x01"),
    ),
    "wall timeout": dict(
        zip(("spec", "workload"), staggered_fleet(members=8, posts=400)),
        wall_timeout_s=1e-9,
    ),
    "bus locked": dict(
        spec=fig14_spec(),
        workload=Burst("m", Address.short(0x2, 5), b"\x01", count=6),
        timeout_s=1e-9,
    ),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failures_match_the_fast_path(case):
    by_backend = {}
    for backend in ("auto", "fast"):
        (result,) = Campaign(backend=backend, **FAILURES[case]).run()
        record = result.record
        assert record["outcome"] != "ok" and record["backend"] == backend
        by_backend[backend] = (
            record["outcome"], record["failure"]["error_type"]
        )
    assert by_backend["auto"] == by_backend["fast"]

