"""Unit tests for workload primitives (repro.scenario.workload)."""

import json
from collections import Counter

import pytest

from repro.core import Address
from repro.core.errors import ConfigurationError
from repro.faults.report import expected_deliveries
from repro.scenario import (
    Broadcast,
    Burst,
    Combined,
    Interrupt,
    InterruptEvent,
    NodeSpec,
    OneShot,
    Periodic,
    PostEvent,
    RandomTraffic,
    SystemSpec,
    workload_from_dict,
)

from tests.integration.test_scenario_runner import SHAPES

SPEC = SystemSpec(
    name="unit",
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2),
        NodeSpec("b", short_prefix=0x3),
    ),
)


class TestCompilation:
    def test_one_shot(self):
        workload = OneShot("a", Address.short(0x3, 5), b"\x01", at_s=0.5)
        events = workload.compile(SPEC)
        assert events == (
            PostEvent(0.5, "a", Address.short(0x3, 5), b"\x01", False),
        )

    def test_burst_back_to_back_and_spaced(self):
        burst = Burst("m", Address.short(0x2), b"\xAA", count=3)
        assert [e.at_s for e in burst.compile(SPEC)] == [0.0, 0.0, 0.0]
        spaced = Burst("m", Address.short(0x2), b"\xAA", count=3, gap_s=0.1)
        assert [e.at_s for e in spaced.compile(SPEC)] == pytest.approx(
            [0.0, 0.1, 0.2]
        )

    def test_periodic_schedule(self):
        workload = Periodic(
            "m", Address.short(0x2), b"", period_s=15.0, count=4, start_s=1.0
        )
        assert [e.at_s for e in workload.compile(SPEC)] == pytest.approx(
            [1.0, 16.0, 31.0, 46.0]
        )

    def test_broadcast_targets_channel(self):
        events = Broadcast("m", channel=2, payload=b"\x01").compile(SPEC)
        assert events[0].dest == Address.broadcast(2)

    def test_broadcast_can_carry_priority(self):
        events = Broadcast("m", channel=0, priority=True).compile(SPEC)
        assert events[0].priority

    def test_interrupt_event(self):
        events = Interrupt("b", at_s=0.25).compile(SPEC)
        assert events == (InterruptEvent(0.25, "b"),)

    def test_composition_merges_and_sorts(self):
        workload = (
            OneShot("a", Address.short(0x3), b"\x02", at_s=0.2)
            + Interrupt("b", at_s=0.1)
            + OneShot("m", Address.short(0x2), b"\x03", at_s=0.3)
        )
        assert isinstance(workload, Combined)
        assert len(workload.parts) == 3
        assert [e.at_s for e in workload.compile(SPEC)] == pytest.approx(
            [0.1, 0.2, 0.3]
        )

    def test_compile_is_deterministic_and_spec_independent_backends(self):
        workload = RandomTraffic(seed=7, count=20)
        assert workload.compile(SPEC) == workload.compile(SPEC)

    @pytest.mark.parametrize("workload", [
        Burst("m", Address.short(0x2, 5), b"\xAA", count=4, at_s=0.1),
        Burst("m", Address.short(0x2, 5), b"\xAA", count=4, at_s=0.1,
              gap_s=0.1),
        Periodic("m", Address.short(0x2), b"\x01", period_s=0.1, count=5,
                 start_s=0.3),
        Burst("a", Address.short(0x3), b"\x01", count=3, at_s=0.2)
        + Periodic("m", Address.short(0x2), b"\x02", period_s=0.1, count=4)
        + Burst("b", Address.short(0x2), b"\x03", count=2, at_s=0.2),
        SHAPES["contending_sources"][1],
    ], ids=["burst", "spaced-burst", "periodic", "combined",
            "contending-sources"])
    def test_shared_events_match_per_copy_construction(self, workload):
        compiled = workload.compile(SPEC)
        expected = per_copy(workload)
        assert compiled == expected
        # Same order and bit-identical times, not merely equal ones.
        assert [float(e.at_s).hex() for e in compiled] == [
            float(e.at_s).hex() for e in expected
        ]

    def test_expected_deliveries_count_every_shared_copy(self):
        burst = Burst("m", Address.short(0x2, 5), b"\xAA", count=4)
        assert len({id(event) for event in burst.compile(SPEC)}) == 1
        assert expected_deliveries(SPEC, burst) == Counter(
            {("a", b"\xAA"): 4}
        )


def per_copy(workload):
    """The schedule built one PostEvent per copy, as each primitive's
    docstring defines it."""
    if isinstance(workload, Combined):
        events = [e for part in workload.parts for e in per_copy(part)]
    elif isinstance(workload, Burst):
        events = [
            PostEvent(workload.at_s + i * workload.gap_s, workload.source,
                      workload.dest, workload.payload, workload.priority)
            for i in range(workload.count)
        ]
    elif isinstance(workload, Periodic):
        events = [
            PostEvent(workload.start_s + i * workload.period_s,
                      workload.source, workload.dest, workload.payload,
                      workload.priority)
            for i in range(workload.count)
        ]
    else:
        events = list(workload.compile(SPEC))
    return tuple(sorted(events, key=lambda e: e.at_s))


class TestRandomTraffic:
    def test_seed_changes_schedule(self):
        a = RandomTraffic(seed=1, count=10).compile(SPEC)
        b = RandomTraffic(seed=2, count=10).compile(SPEC)
        assert a != b

    def test_targets_are_real_nodes_and_never_self(self):
        prefix_to_name = {
            node.short_prefix: node.name for node in SPEC.nodes
        }
        for event in RandomTraffic(seed=3, count=50).compile(SPEC):
            assert event.source in SPEC.node_names
            assert prefix_to_name[event.dest.short_prefix] != event.source

    def test_payload_bounds_respected(self):
        workload = RandomTraffic(seed=4, count=50, min_bytes=2, max_bytes=4)
        for event in workload.compile(SPEC):
            assert 2 <= len(event.payload) <= 4

    def test_sources_filter(self):
        workload = RandomTraffic(seed=5, count=25, sources=("a",))
        assert all(e.source == "a" for e in workload.compile(SPEC))

    def test_needs_two_addressable_nodes(self):
        tiny = SystemSpec(nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("x", full_prefix=0x12345),
        ))
        with pytest.raises(ConfigurationError):
            RandomTraffic(seed=0, count=1).compile(tiny)


class TestSerialisation:
    @pytest.mark.parametrize("workload", [
        OneShot("a", Address.short(0x3, 5), b"\x01\x02", at_s=0.5,
                priority=True),
        Burst("m", Address.short(0x2), b"\xAA" * 8, count=6, gap_s=0.01),
        Periodic("m", Address.full(0x4FFC2, 3), b"\x00", period_s=15.0,
                 count=4),
        RandomTraffic(seed=9, count=12, mean_gap_s=0.05, sources=("a", "b"),
                      priority_fraction=0.25),
        Broadcast("m", channel=1, payload=b"\xFE", priority=True),
        Interrupt("b", at_s=2.0),
        OneShot("a", Address.short(0x3), b"\x01") + Interrupt("b"),
    ])
    def test_json_round_trip(self, workload):
        document = json.loads(json.dumps(workload.to_dict()))
        rebuilt = workload_from_dict(document)
        assert rebuilt == workload
        assert rebuilt.compile(SPEC) == workload.compile(SPEC)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            workload_from_dict({"kind": "mystery"})
