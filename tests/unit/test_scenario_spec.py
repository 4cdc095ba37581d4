"""Unit tests for the declarative topology specs (repro.scenario.spec)."""

import pytest

from repro.core import Address
from repro.core.errors import ConfigurationError
from repro.scenario import NodeSpec, SystemSpec


def three_chip_spec(**overrides) -> SystemSpec:
    spec = SystemSpec(
        name="three-chip",
        nodes=(
            NodeSpec("cpu", short_prefix=0x1, is_mediator=True),
            NodeSpec("sensor", short_prefix=0x2, power_gated=True),
            NodeSpec("radio", short_prefix=0x3, power_gated=True),
        ),
    )
    return spec.replace(**overrides) if overrides else spec


def varied_spec() -> SystemSpec:
    """Every NodeSpec field off its default somewhere, the mediator
    second in ring order."""
    return SystemSpec(
        name="varied",
        nodes=(
            NodeSpec("sensor", short_prefix=0x2, power_gated=True,
                     rx_buffer_bytes=8, broadcast_channels=(0, 3)),
            NodeSpec("cpu", short_prefix=0x1, is_mediator=True,
                     memory_words=64),
            NodeSpec("radio", full_prefix=0xAB0CD, power_gated=True,
                     auto_sleep=False, node_delay_ps=4_000),
        ),
    )


class TestRoundTrip:
    def test_broadcast_channels_list_is_coerced(self):
        node = NodeSpec("n", short_prefix=0x2, broadcast_channels=[0, 1])
        assert node.broadcast_channels == frozenset({0, 1})
        assert NodeSpec.from_dict(node.to_dict()) == node

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            SystemSpec.from_dict({"nodes": [], "frequency": 1e6})
        with pytest.raises(ConfigurationError, match="unknown"):
            NodeSpec.from_dict({"name": "n", "prefix": 2})


class TestValidation:
    def test_needs_exactly_one_mediator(self):
        with pytest.raises(ConfigurationError, match="mediator"):
            SystemSpec(nodes=(
                NodeSpec("a", short_prefix=0x1),
                NodeSpec("b", short_prefix=0x2),
            )).validate()
        with pytest.raises(ConfigurationError, match="mediator"):
            SystemSpec(nodes=(
                NodeSpec("a", short_prefix=0x1, is_mediator=True),
                NodeSpec("b", short_prefix=0x2, is_mediator=True),
            )).validate()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            SystemSpec(nodes=(
                NodeSpec("a", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
            )).validate()

    def test_anchor_must_name_a_node(self):
        with pytest.raises(ConfigurationError, match="anchor"):
            three_chip_spec(arbitration_anchor="nobody").validate()

    def test_node_lookup(self):
        spec = three_chip_spec()
        assert spec.node("sensor").short_prefix == 0x2
        assert spec.mediator_name == "cpu"
        with pytest.raises(ConfigurationError):
            spec.node("nope")


class TestBuild:
    @pytest.mark.parametrize("mode", ["edge", "fast"])
    def test_build_produces_working_system(self, mode):
        system = three_chip_spec().build(mode=mode)
        result = system.send("cpu", Address.short(0x2, 5), b"\x01\x02")
        assert result.ok
        assert system.node("sensor").inbox[-1].payload == b"\x01\x02"

    @pytest.mark.parametrize("mode", ["edge", "fast"])
    def test_built_nodes_hold_the_lowered_configs(self, mode):
        spec = varied_spec()
        system = spec.build(mode=mode)
        configs = [node.config() for node in spec.nodes]
        assert [node.config for node in system.nodes] == configs
        if mode == "edge":
            # The engine matches against the node's own record.
            assert all(
                node.engine.config is node.config for node in system.nodes
            )
        else:
            # The planner's ring holds the same records, mediator first.
            ring = system.nodes[0].fast_backend.topology.nodes
            assert ring == [configs[i] for i in (1, 2, 0)]
            assert ring[0] is system.node("cpu").config

    def test_compiled_ring_holds_the_lowered_configs(self):
        from repro.batch.compiler import CompiledSystem

        spec = varied_spec()
        configs = [node.config() for node in spec.nodes]
        ring = CompiledSystem(spec).topology.nodes
        assert ring == [configs[i] for i in (1, 2, 0)]

    def test_build_applies_watchdog_and_anchor(self):
        import dataclasses

        spec = three_chip_spec(
            max_message_bytes=2048, arbitration_anchor="sensor"
        )
        # The anchor holds always-on state, so un-gate the node first.
        ungated = dataclasses.replace(
            spec.nodes[1], power_gated=False, auto_sleep=False
        )
        spec = spec.replace(nodes=(spec.nodes[0], ungated, spec.nodes[2]))
        system = spec.build(mode="edge")
        assert system.arbitration_anchor == "sensor"

    def test_timing_overrides_flow_into_mbustiming(self):
        spec = three_chip_spec(clock_hz=1e6, node_delay_ps=5_000)
        timing = spec.timing()
        assert timing.clock_hz == 1e6
        assert timing.node_delay_ps == 5_000
        # Unset fields keep the MBusTiming defaults.
        from repro.core.constants import MBusTiming

        assert timing.mediator_wakeup_ps == MBusTiming().mediator_wakeup_ps

    def test_replace_does_not_mutate(self):
        spec = three_chip_spec()
        faster = spec.replace(clock_hz=7.1e6)
        assert spec.clock_hz == 400_000
        assert faster.clock_hz == 7.1e6
        assert faster.nodes == spec.nodes
