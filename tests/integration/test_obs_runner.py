"""Observability integration: traced runs across all three backends.

The PR's acceptance bar lives here:

* two identical traced runs produce **byte-identical** trace JSONL
  once wall-clock fields are stripped — on edge, fast and batch;
* one scenario traced on all three backends yields **structurally
  identical** span trees (``run`` > ``compile`` / ``execute`` /
  ``serialize`` + ``bus-round`` > ``transaction``);
* the per-backend metric families are wired (scheduler, fast path,
  batch executor, campaign executors);
* campaign traces nest ``campaign`` > ``trial`` > ``run``, and the
  ``trace`` / ``stats`` / ``campaign run --progress`` CLI surfaces
  round-trip.
"""

import json
import re

import pytest

from repro.__main__ import main
from repro.campaign import Campaign, Grid
from repro.core import Address
from repro.obs import observe, strip_wall_fields
from repro.obs.tracer import (
    canonical_line,
    span_structure,
    trace_records,
    validate_trace,
)
from repro.scenario import Burst, NodeSpec, SystemSpec, run

BACKENDS = ("edge", "fast", "batch")

SPEC = SystemSpec(
    name="obs-three-chip",
    clock_hz=400_000.0,
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2),
        NodeSpec("b", short_prefix=0x3),
    ),
)

WORKLOAD = Burst("m", Address.short(0x2, 5), bytes(range(6)), count=3)


def traced_run(backend):
    with observe() as session:
        report = run(SPEC, WORKLOAD, backend=backend)
    return session, report


def stripped_lines(session, backend):
    """The deterministic core of a session's trace, as JSONL lines."""
    records = trace_records(
        session.tracer,
        meta={"label": "obs-test", "backend": backend},
        metrics=session.metrics.snapshot(),
        profile=session.profiler.to_dict(),
    )
    assert validate_trace(records) == []
    return [canonical_line(strip_wall_fields(r)) for r in records]


class TestTracedRuns:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identical_runs_byte_identical_stripped(self, backend):
        from repro.batch.cache import clear_cache

        # Start both runs with a cold compile cache: cache-warmth
        # counters (batch.compile_cache_*, batch.template_*) are the
        # one legitimate cross-run difference in a shared process.
        clear_cache()
        first, report_a = traced_run(backend)
        clear_cache()
        second, report_b = traced_run(backend)
        assert report_a.n_transactions == report_b.n_transactions
        lines_a = stripped_lines(first, backend)
        lines_b = stripped_lines(second, backend)
        assert lines_a == lines_b
        assert len(lines_a) > 5

    def test_span_structure_identical_across_backends(self):
        structures = {}
        for backend in BACKENDS:
            session, _report = traced_run(backend)
            structures[backend] = span_structure(session.tracer.spans)
        assert structures["edge"] == structures["fast"]
        assert structures["edge"] == structures["batch"]
        ((name, children),) = structures["edge"]
        assert name == "run"
        child_names = [child[0] for child in children]
        for phase in ("compile", "execute", "serialize"):
            assert phase in child_names
        rounds = [c for c in children if c[0] == "bus-round"]
        assert len(rounds) == 3
        assert all(
            kid[0] == "transaction"
            for _name, kids in rounds for kid in kids
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_untraced_run_matches_traced(self, backend):
        _session, traced = traced_run(backend)
        plain = run(SPEC, WORKLOAD, backend=backend)
        assert plain.n_transactions == traced.n_transactions
        assert [t.ok for t in plain.transactions] == [
            t.ok for t in traced.transactions
        ]


class TestBackendMetrics:
    def test_run_calls_labeled_by_backend(self):
        for backend in BACKENDS:
            session, _ = traced_run(backend)
            counters = session.metrics.snapshot()["counters"]
            assert counters[f"run.calls{{backend={backend}}}"] == 1

    def test_edge_scheduler_metrics(self):
        session, report = traced_run("edge")
        snap = session.metrics.snapshot()
        assert snap["counters"]["sim.run_calls"] == 1
        assert snap["gauges"]["sim.events_processed"] > 0
        assert snap["gauges"]["sim.now_ps"] > 0

    def test_fastpath_metrics(self):
        session, _ = traced_run("fast")
        counters = session.metrics.snapshot()["counters"]
        assert counters["fastpath.rounds"] >= 1
        assert counters["tlm.plan_round_calls"] >= 1

    def test_batch_metrics(self):
        session, _ = traced_run("batch")
        snap = session.metrics.snapshot()
        counters = snap["counters"]
        assert counters["batch.run_calls"] == 1
        assert (
            counters.get("batch.template_hits", 0)
            + counters.get("batch.template_misses", 0)
        ) >= 1
        assert snap["gauges"]["batch.rounds"] == 3

    def test_profiler_covers_canonical_phases(self):
        for backend in BACKENDS:
            session, _ = traced_run(backend)
            phases = session.profiler.to_dict()["phases"]
            for name in ("compile", "execute", "serialize"):
                assert phases[name]["calls"] == 1, (backend, name)


class TestCampaignTracing:
    def campaign(self):
        return Campaign(
            spec=SPEC,
            workload=WORKLOAD,
            grid=Grid.product(**{"workload.count": [1, 2]}),
            name="obs-campaign",
        )

    def test_serial_campaign_span_nesting(self, tmp_path):
        campaign = self.campaign()
        with observe() as session:
            results = campaign.run(store=str(tmp_path))
        assert not results.failed
        ((name, trials),) = span_structure(session.tracer.spans)
        assert name == "campaign"
        assert [t[0] for t in trials] == ["trial", "trial"]
        for _trial, kids in trials:
            assert kids[0][0] == "run"
        counters = session.metrics.snapshot()["counters"]
        assert counters["campaign.runs"] == 1
        assert counters["campaign.outcomes{outcome=ok}"] == 2
        gauges = session.metrics.snapshot()["gauges"]
        assert gauges["campaign.trials_planned"] == 2

    def test_rerun_counts_cache_hits(self, tmp_path):
        campaign = self.campaign()
        campaign.run(store=str(tmp_path))
        with observe() as session:
            campaign.run(store=str(tmp_path))
        counters = session.metrics.snapshot()["counters"]
        assert counters["campaign.cache_hits"] == 2

    def test_progress_callback_sees_every_trial(self, tmp_path):
        seen = []
        self.campaign().run(
            store=str(tmp_path),
            progress=lambda done, total, result: seen.append(
                (done, total, result.trial.index)
            ),
        )
        assert [s[:2] for s in seen] == [(1, 2), (2, 2)]
        assert sorted(s[2] for s in seen) == [0, 1]

    def test_status_reports_outcomes(self, tmp_path):
        campaign = self.campaign()
        campaign.run(store=str(tmp_path))
        status = campaign.status(str(tmp_path))
        assert status.outcomes == {
            "ok": 2, "error": 0, "timeout": 0, "crashed": 0,
        }
        assert status.retries == 0
        assert tuple(status.quarantined_trials) == ()
        doc = status.to_dict()
        assert doc["outcomes"]["ok"] == 2
        assert "retries" in doc and "quarantined_trials" in doc


class TestCli:
    SCENARIO = "examples/scenarios/fig14_burst.json"

    def trace_to(self, tmp_path, backend, chrome=False):
        out = tmp_path / f"{backend}.jsonl"
        argv = [
            "trace", self.SCENARIO,
            "--backend", backend,
            "-o", str(out),
        ]
        chrome_path = tmp_path / f"{backend}_chrome.json"
        if chrome:
            argv += ["--chrome", str(chrome_path)]
        assert main(argv) == 0
        return out, chrome_path

    def test_trace_writes_valid_jsonl_and_chrome(self, tmp_path, capsys):
        out, chrome_path = self.trace_to(tmp_path, "fast", chrome=True)
        text = capsys.readouterr().out
        assert "recorded" in text and "span(s)" in text
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert validate_trace(records) == []
        chrome = json.loads(chrome_path.read_text())
        assert chrome["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])

    def test_stats_single_and_diff(self, tmp_path, capsys):
        fast, _ = self.trace_to(tmp_path, "fast")
        batch, _ = self.trace_to(tmp_path, "batch")
        capsys.readouterr()
        assert main(["stats", str(fast)]) == 0
        single = capsys.readouterr().out
        assert "profile:" in single
        assert main(["stats", str(fast), str(batch)]) == 0
        diff = capsys.readouterr().out
        assert "Phase profile diff" in diff
        assert "execute" in diff

    def test_stats_shows_how_rounds_resolved(self, tmp_path, capsys):
        from repro.batch import clear_cache
        from repro.core import Address
        from repro.scenario import Burst, load_scenario

        spec, _workload, _grid = load_scenario(self.SCENARIO)
        dest = Address.short(0x2, 5)
        scenario = tmp_path / "two_payloads.json"
        scenario.write_text(json.dumps({
            "system": spec.to_dict(),
            "workload": (
                Burst("m", dest, b"\x01\x02", count=3)
                + Burst("m", dest, b"\x03\x04", count=3, at_s=1e-3)
            ).to_dict(),
        }))
        out = tmp_path / "batch.jsonl"
        clear_cache()   # one plan, then an overlay: from a cold table
        assert main([
            "trace", str(scenario), "--backend", "batch", "-o", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        assert (
            "rounds: 1 planned (tlm.plan_round_calls), 1 overlaid on a "
            "message shape's plan (tlm.shape_hits)"
        ) in capsys.readouterr().out

    def test_stats_shows_elided_events(self, tmp_path, capsys):
        # Two DATA edges start a runaway (see test_cycle_elision.py),
        # whose quiescent cycles the edge engine advances in bulk.
        from repro.faults import FaultSpec, WireGlitch
        from repro.scenario import NodeSpec, OneShot, SystemSpec

        spec = SystemSpec(
            clock_hz=400_000,
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
                NodeSpec("b", short_prefix=0x3),
            ),
        )
        scenario = tmp_path / "runaway.json"
        scenario.write_text(json.dumps({
            "system": spec.to_dict(),
            "workload": OneShot(
                "m", Address.short(0x2, 5), b"\x01", at_s=0.05
            ).to_dict(),
        }))
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps(FaultSpec(faults=(
            WireGlitch("a", at_s=10e-6, edges=1),
            WireGlitch("b", at_s=14.4e-6, edges=1),
        )).to_dict()))
        out = tmp_path / "edge.jsonl"
        assert main([
            "trace", str(scenario), "--backend", "edge",
            "--faults", str(faults), "-o", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        line = re.search(
            r"events: (\d+) fired, (\d+) elided in (\d+) whole clock "
            r"cycles \(sim\.events_elided\)",
            capsys.readouterr().out,
        )
        assert line is not None
        fired, elided, cycles = map(int, line.groups())
        assert cycles > 8_000 and elided > 60_000
        assert main(["stats", str(out), "--json"]) == 0
        metrics = json.loads(capsys.readouterr().out)[0]["metrics"]
        assert fired + elided == metrics["gauges"]["sim.events_processed"]

    def test_stats_json(self, tmp_path, capsys):
        fast, _ = self.trace_to(tmp_path, "fast")
        capsys.readouterr()
        assert main(["stats", str(fast), "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 1
        assert docs[0]["n_spans"] > 0

    def test_stats_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", str(tmp_path / "missing.jsonl")])

    def test_campaign_run_progress_always(self, tmp_path, capsys):
        code = main([
            "campaign", "run", "examples/scenarios/recovery_campaign.json",
            "--store", str(tmp_path / "store"),
            "--executor", "serial",
            "--progress", "always",
        ])
        assert code == 0
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if "trial(s) complete" in l]
        assert lines, err
        assert lines[-1].endswith("4/4 trial(s) complete")

    def test_campaign_run_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "campaign.jsonl"
        code = main([
            "campaign", "run", "examples/scenarios/recovery_campaign.json",
            "--store", str(tmp_path / "store"),
            "--executor", "serial",
            "--progress", "never",
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert validate_trace(records) == []
        spans = [r for r in records if r.get("type") == "span"]
        structure = span_structure(spans)
        assert structure[0][0] == "campaign"
