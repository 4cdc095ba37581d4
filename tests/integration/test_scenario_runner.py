"""Scenario runner integration: backend equivalence and reporting.

The PR's acceptance bar: one :class:`Workload` object must produce
identical :class:`TransactionResult` streams and delivery sets on
``backend="edge"`` and ``backend="fast"`` for (at least) five scenario
shapes — one-shot, burst, periodic, seeded-random, and
broadcast+interrupt — and ``SystemSpec.from_dict(spec.to_dict())``
must round-trip exactly.
"""

import json

import pytest

from repro.core import Address
from repro.core.errors import BusLockedError, ConfigurationError
from repro.scenario import (
    Broadcast,
    Burst,
    Interrupt,
    NodeSpec,
    OneShot,
    Periodic,
    RandomTraffic,
    SystemSpec,
    load_scenario,
    run,
    select_backend,
)

THREE_CHIP = SystemSpec(
    name="three-chip",
    nodes=(
        NodeSpec("cpu", short_prefix=0x1, is_mediator=True),
        NodeSpec("sensor", short_prefix=0x2, power_gated=True),
        NodeSpec("radio", short_prefix=0x3, power_gated=True),
    ),
)

FIVE_CHIP = SystemSpec(
    name="five-chip",
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2),
        NodeSpec("b", short_prefix=0x3, power_gated=True),
        NodeSpec("c", short_prefix=0x4),
        NodeSpec("d", short_prefix=0x5, power_gated=True),
    ),
)

#: The five acceptance scenario shapes (plus extras), as (spec,
#: workload) pairs.  Every entry runs unchanged on both backends.
SHAPES = {
    "one_shot": (
        THREE_CHIP,
        OneShot("cpu", Address.short(0x2, 5), b"\x12\x34\x56"),
    ),
    "burst": (
        THREE_CHIP,
        Burst("cpu", Address.short(0x3, 5), bytes(range(8)), count=6),
    ),
    "periodic": (
        THREE_CHIP,
        Periodic("cpu", Address.short(0x2, 5), b"\x01\x02\x03\x04",
                 period_s=0.05, count=4),
    ),
    "seeded_random": (
        FIVE_CHIP,
        RandomTraffic(seed=42, count=12, mean_gap_s=0.01,
                      priority_fraction=0.3),
    ),
    "broadcast_and_interrupt": (
        THREE_CHIP,
        Broadcast("cpu", channel=0, payload=b"\xAA", priority=True)
        + Interrupt("radio", at_s=0.02)
        + OneShot("radio", Address.short(0x1, 5), b"\x99", at_s=0.03),
    ),
    "contending_sources": (
        FIVE_CHIP,
        Burst("a", Address.short(0x4, 5), b"\x0A", count=3)
        + Burst("c", Address.short(0x2, 5), b"\x0C", count=3)
        + OneShot("m", Address.short(0x5, 5), b"\x0E", at_s=0.001),
    ),
}


def run_both(spec, workload):
    return (
        run(spec, workload, backend="edge"),
        run(spec, workload, backend="fast"),
    )


class TestBackendEquivalence:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_identical_results_across_backends(self, shape):
        spec, workload = SHAPES[shape]
        edge, fast = run_both(spec, workload)
        assert edge.n_transactions > 0
        assert edge.transaction_signatures() == fast.transaction_signatures()
        assert edge.delivery_set() == fast.delivery_set()
        # Wake counts are part of the contract too.
        for node in spec.node_names:
            assert (
                edge.power[node]["bus_wakeups"]
                == fast.power[node]["bus_wakeups"]
            ), node
            assert (
                edge.power[node]["layer_wakeups"]
                == fast.power[node]["layer_wakeups"]
            ), node

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_spec_round_trips_exactly(self, shape):
        spec, _ = SHAPES[shape]
        assert SystemSpec.from_dict(spec.to_dict()) == spec
        assert (
            SystemSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            == spec
        )

    def test_derived_stats_agree_within_timing_slack(self):
        spec, workload = SHAPES["burst"]
        edge, fast = run_both(spec, workload)
        assert fast.throughput_tps == pytest.approx(
            edge.throughput_tps, rel=0.03
        )
        assert fast.goodput_bps == pytest.approx(edge.goodput_bps, rel=0.03)
        assert fast.energy_pj() == pytest.approx(edge.energy_pj())


class TestBackendSelection:
    def test_auto_prefers_batch_for_throughput(self):
        assert select_backend("auto") == "batch"
        assert select_backend("auto", live_system=True) == "fast"

    def test_auto_with_trace_needs_edge(self):
        assert select_backend("auto", trace=True) == "edge"

    def test_explicit_fast_with_trace_is_an_error(self):
        with pytest.raises(ConfigurationError, match="trac"):
            select_backend("fast", trace=True)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            select_backend("warp")

    def test_run_reports_resolved_backend(self):
        spec, workload = SHAPES["one_shot"]
        assert run(spec, workload).backend == "batch"
        assert run(spec, workload, trace=True).backend == "edge"

    def test_traced_run_exposes_tracer(self):
        spec, workload = SHAPES["one_shot"]
        report = run(spec, workload, backend="auto", trace=True)
        assert report.system.tracer is not None
        assert len(report.system.tracer.transitions) > 0


BAD_BUDGETS = [-1.0, float("nan"), float("inf"), "1.0"]


class TestTimeoutValidation:
    """A negative or non-finite budget is refused by name, before any
    tier runs (a negative ``timeout_s`` used to report an ok run with
    no traffic; ``nan`` and ``inf`` failed inside ``int()``)."""

    @pytest.mark.parametrize("backend", ["edge", "fast", "batch"])
    @pytest.mark.parametrize("field", ["timeout_s", "wall_timeout_s"])
    @pytest.mark.parametrize("value", BAD_BUDGETS)
    def test_run_refuses(self, backend, field, value):
        spec, workload = SHAPES["burst"]
        with pytest.raises(ConfigurationError, match=field):
            run(spec, workload, backend=backend, **{field: value})

    @pytest.mark.parametrize("field", ["timeout_s", "wall_timeout_s"])
    def test_batch_record_refuses(self, field):
        from repro.scenario.runner import run_batch_record

        spec, workload = SHAPES["burst"]
        with pytest.raises(ConfigurationError, match=field):
            run_batch_record(spec, workload, **{field: -1.0})

    @pytest.mark.parametrize("field", ["timeout_s", "wall_timeout_s"])
    @pytest.mark.parametrize("value", BAD_BUDGETS)
    def test_campaign_refuses(self, field, value):
        from repro.campaign import Campaign, load_campaign

        spec, workload = SHAPES["burst"]
        campaign = Campaign(spec, workload, **{field: value})
        with pytest.raises(ConfigurationError, match=field):
            campaign.trials()
        with pytest.raises(ConfigurationError, match=field):
            load_campaign(campaign.to_dict()).run()
        with pytest.raises(ConfigurationError, match="wall_timeout_s"):
            Campaign(spec, workload).run(wall_timeout_s=value)

    def test_none_and_zero_are_accepted(self):
        spec, workload = SHAPES["one_shot"]
        assert run(spec, workload, timeout_s=None).n_ok == 1
        with pytest.raises(BusLockedError):
            run(spec, workload, timeout_s=0.0)


class TestRunReport:
    def test_report_to_dict_is_json_serialisable(self):
        spec, workload = SHAPES["broadcast_and_interrupt"]
        report = run(spec, workload, backend="fast")
        document = json.loads(json.dumps(report.to_dict()))
        assert document["backend"] == "fast"
        assert document["n_transactions"] == report.n_transactions
        assert document["transactions"][0]["tx_node"] is not None

    def test_goodput_counts_delivered_payload_bits(self):
        spec, workload = SHAPES["burst"]
        report = run(spec, workload, backend="fast")
        assert report.delivered_payload_bits == 6 * 8 * 8
        assert report.goodput_bps == pytest.approx(
            report.delivered_payload_bits / report.sim_time_s
        )

    def test_summary_mentions_backend_and_counts(self):
        spec, workload = SHAPES["one_shot"]
        text = run(spec, workload, backend="edge").summary()
        assert "edge backend" in text
        assert "transactions" in text

    def test_setup_hook_runs_before_traffic(self):
        seen = []
        spec, workload = SHAPES["one_shot"]
        report = run(
            spec, workload, backend="fast",
            setup=lambda system: seen.append(system.mode),
        )
        assert seen == ["fast"]
        assert report.n_ok == 1


class TestCampaignGridRuns:
    def test_campaign_over_spec_field(self):
        from repro.campaign import Campaign

        spec, workload = SHAPES["burst"]
        results = Campaign(
            spec, workload, grid={"clock_hz": [100e3, 400e3]},
            backend="fast",
        ).run()
        assert [r.params["clock_hz"] for r in results] == [100e3, 400e3]
        slow, fast_clock = results
        assert (
            fast_clock.report["throughput_tps"]
            > 3 * slow.report["throughput_tps"]
        )

    def test_campaign_with_workload_factory(self):
        from repro.campaign import Campaign

        spec, _ = SHAPES["burst"]
        results = Campaign(
            spec,
            lambda params: Burst(
                "cpu", Address.short(0x2, 5),
                b"\x00" * params["payload_bytes"], count=3,
            ),
            grid={"payload_bytes": [2, 32]},
            backend="fast",
        ).run()
        assert (
            results[1].report["goodput_bps"] > results[0].report["goodput_bps"]
        )

    def test_unknown_grid_key_with_fixed_workload_is_an_error(self):
        from repro.campaign import Campaign

        spec, workload = SHAPES["burst"]
        with pytest.raises(ConfigurationError, match="factory"):
            Campaign(spec, workload, grid={"payload_bytes": [2, 4]}).trials()


class TestScenarioDocuments:
    def test_load_scenario_from_dict_and_file(self, tmp_path):
        spec, workload = SHAPES["burst"]
        document = {
            "system": spec.to_dict(),
            "workload": workload.to_dict(),
            "sweep": {"clock_hz": [100e3]},
        }
        loaded_spec, loaded_workload, grid = load_scenario(document)
        assert loaded_spec == spec
        assert loaded_workload == workload
        assert grid == {"clock_hz": [100e3]}

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        from_file = load_scenario(str(path))
        assert from_file[0] == spec
        assert from_file[1] == workload

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="system"):
            load_scenario({"workload": {}})
