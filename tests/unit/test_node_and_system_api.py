"""Unit tests for node configuration and system-level APIs."""

import pytest

from repro.core import Address, MBusSystem, Message
from repro.core.errors import ConfigurationError, ProtocolError
from repro.core.node import NodeConfig


class TestNodeConfig:
    def test_requires_some_prefix(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(name="x")

    def test_mediator_may_be_standalone(self):
        config = NodeConfig(name="med", is_mediator=True)
        assert config.short_prefix is None

    def test_auto_sleep_defaults_to_gating(self):
        assert NodeConfig(name="a", short_prefix=1, power_gated=True).auto_sleep
        assert not NodeConfig(name="a", short_prefix=1).auto_sleep

    def test_auto_sleep_override(self):
        config = NodeConfig(
            name="a", short_prefix=1, power_gated=True, auto_sleep=False
        )
        assert config.auto_sleep is False

    def test_mediator_cannot_be_gated(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(name="m", short_prefix=1, is_mediator=True,
                       power_gated=True)

    def test_full_prefix_only_is_valid(self):
        config = NodeConfig(name="a", full_prefix=0x12345)
        assert config.short_prefix is None


class TestSystemAssembly:
    def test_build_is_idempotent(self):
        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node("a", short_prefix=0x2)
        system.build()
        system.build()
        assert len(system.nodes) == 2

    def test_cannot_add_after_build(self):
        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node("a", short_prefix=0x2)
        system.build()
        with pytest.raises(ConfigurationError):
            system.add_node("late", short_prefix=0x3)

    def test_add_keeps_the_config_as_the_nodes_record(self):
        system = MBusSystem()
        config = NodeConfig("m", short_prefix=0x1, is_mediator=True)
        node = system.add(config)
        system.add_node("a", short_prefix=0x2)
        system.build()
        assert system.mediator is node
        assert node.config is config
        assert node.engine.config is config

    @pytest.mark.parametrize("add_second", [
        lambda system: system.add(
            NodeConfig("m2", short_prefix=0x2, is_mediator=True)
        ),
        lambda system: system.add_node(
            "m2", short_prefix=0x2, is_mediator=True
        ),
        lambda system: system.add_mediator_node("m2", short_prefix=0x2),
    ], ids=["add", "add_node", "add_mediator_node"])
    def test_second_mediator_is_refused(self, add_second):
        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        with pytest.raises(ConfigurationError, match="exactly one mediator"):
            add_second(system)
        assert [node.name for node in system.nodes] == ["m"]
        assert system.mediator.name == "m"

    def test_needs_two_nodes(self):
        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        with pytest.raises(ConfigurationError):
            system.build()

    def test_ring_wiring_is_circular(self):
        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node("a", short_prefix=0x2)
        system.add_node("b", short_prefix=0x3)
        system.build()
        nodes = system.nodes
        for i, node in enumerate(nodes):
            downstream = nodes[(i + 1) % len(nodes)]
            assert node.dout is downstream.din
            assert node.clkout is downstream.clkin

    def test_mediator_property(self):
        system = MBusSystem()
        with pytest.raises(ConfigurationError):
            system.mediator
        system.add_mediator_node("m", short_prefix=0x1)
        assert system.mediator.name == "m"

    def test_is_idle_before_build(self):
        assert MBusSystem().is_idle

    def test_standalone_mediator_system(self):
        """The mediator may be a standalone component (4.2)."""
        system = MBusSystem()
        system.add_mediator_node("med")   # no prefixes
        system.add_node("a", short_prefix=0x2)
        system.add_node("b", short_prefix=0x3)
        result = system.send("a", Address.short(0x3, 5), b"\x42")
        assert result.ok
        assert system.node("b").inbox[-1].payload == b"\x42"


class TestRunControl:
    def _system(self):
        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node("a", short_prefix=0x2)
        return system

    def test_run_for_advances_time(self):
        system = self._system()
        system.build()
        system.run_for(0.001)
        assert system.sim.now == pytest.approx(1e9, rel=0.01)

    @pytest.mark.parametrize("queued", [False, True])
    def test_negative_horizons_never_rewind_time(self, queued):
        system = self._system()
        system.send("m", Address.short(0x2, 5), b"\x01")
        if queued:
            system.post("m", Address.short(0x2, 5), b"\x02")
            system.run_for(20e-6)             # stops mid-transaction
            assert system.sim.pending() > 0
        now = system.sim.now
        system.run_for(-5e-6)
        system.run_until_idle(timeout_s=-5e-6, require_idle=False)
        assert system.sim.now == now

    def test_send_failure_reports_protocol_error(self):
        system = self._system()
        system.build()
        # A node cannot send a message from a name that does not exist.
        with pytest.raises(ConfigurationError):
            system.send("ghost", Address.short(0x2), b"")

    def test_transaction_results_accumulate(self):
        system = self._system()
        for i in range(3):
            system.send("m", Address.short(0x2, 5), bytes([i]))
        assert [t.index for t in system.transactions] == [0, 1, 2]

    def test_result_duration_positive(self):
        system = self._system()
        result = system.send("m", Address.short(0x2, 5), b"\x01")
        assert result.duration_ps > 0
        assert result.total_cycles == result.clock_cycles + result.control_cycles

    def test_wire_activity_nonzero_after_traffic(self):
        system = self._system()
        system.send("m", Address.short(0x2, 5), b"\x01")
        activity = system.wire_activity()
        assert all(count > 0 for count in activity.values())

    def test_power_domain_report_shape(self):
        system = self._system()
        system.send("m", Address.short(0x2, 5), b"\x01")
        report = system.power_domain_report()
        assert set(report) == {"m", "a"}
        assert "bus_on_s" in report["a"]

    def test_broadcast_accepts_priority_flag(self):
        # broadcast() mirrors send()/post(): the priority kwarg claims
        # the priority arbitration slot for the broadcast message.
        system = self._system()
        system.add_node("b", short_prefix=0x3)
        system.build()
        # Queue a normal message first, then a priority broadcast; the
        # broadcast must win the next arbitration round.
        system.post("a", Address.short(0x3, 5), b"\x01")
        result = system.broadcast("b", channel=0, payload=b"\xEE",
                                  priority=True)
        assert result.message.priority
        assert result.tx_node == "b"
        first_two = [t.tx_node for t in system.transactions[:2]]
        assert first_two[0] == "b"


class TestNodeApi:
    def test_post_message_object(self):
        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node("a", short_prefix=0x2)
        system.build()
        system.node("m").post(Message(dest=Address.short(0x2, 5), payload=b"\x05"))
        system.run_until_idle()
        assert system.node("a").inbox[-1].payload == b"\x05"

    def test_on_receive_callback(self):
        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node("a", short_prefix=0x2)
        system.build()
        seen = []
        system.node("a").on_receive = lambda node, msg: seen.append(msg.payload)
        system.send("m", Address.short(0x2, 5), b"\x09")
        assert seen == [b"\x09"]

    def test_results_record_bytes_sent(self):
        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node("a", short_prefix=0x2)
        system.send("m", Address.short(0x2, 5), bytes(10))
        outcome = system.node("m").results[-1]
        assert outcome.success
        assert outcome.bytes_sent == 10

    def test_aborted_send_reports_progress(self):
        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node("tiny", short_prefix=0x2, rx_buffer_bytes=4)
        system.send("m", Address.short(0x2, 5), bytes(32))
        outcome = system.node("m").results[-1]
        assert not outcome.success
        assert 0 < outcome.bytes_sent < 32

    def test_sleep_requires_idle_bus(self):
        system = MBusSystem()
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node("a", short_prefix=0x2, power_gated=True, auto_sleep=False)
        system.send("m", Address.short(0x2, 5), b"\x01")
        node = system.node("a")
        node.sleep()    # idle: fine
        assert not node.bus_domain.is_on
