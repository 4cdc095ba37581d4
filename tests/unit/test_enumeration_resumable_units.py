"""Unit tests for enumeration-agent and resumable-stream internals."""

import pytest

from repro.core import Address, MBusSystem
from repro.core.enumeration import (
    CMD_ENUMERATE,
    CMD_ID_REPLY,
    CMD_INVALIDATE,
    CHANNEL_ENUMERATION,
    EnumerationAgent,
    Enumerator,
)
from repro.core.errors import ProtocolError
from repro.core.resumable import (
    HEADER_BYTES,
    _header,
    _Stream,
)


def _system_with_agents():
    system = MBusSystem()
    system.add_mediator_node("ctl", short_prefix=0x1)
    system.add_node("u1", full_prefix=0x11111)
    system.add_node("u2", full_prefix=0x22222)
    system.build()
    agents = {n.name: EnumerationAgent(n) for n in system.nodes}
    return system, agents


class TestEnumerationAgent:
    def test_agent_subscribes_to_channel(self):
        system, agents = _system_with_agents()
        node = system.node("u1")
        assert CHANNEL_ENUMERATION in node.engine.config.broadcast_channels

    def test_assigned_node_ignores_enumerate(self):
        system, agents = _system_with_agents()
        # ctl already has a static prefix: it must never reply.
        system.broadcast("ctl", CHANNEL_ENUMERATION, bytes([CMD_ENUMERATE, 0x5]))
        system.run_until_idle()
        replies = [
            t for t in system.transactions
            if t.tx_node == "ctl" and t.message.payload[:1] == bytes([CMD_ID_REPLY])
        ]
        assert replies == []

    def test_loser_withdraws_reply(self):
        system, agents = _system_with_agents()
        system.broadcast("ctl", CHANNEL_ENUMERATION, bytes([CMD_ENUMERATE, 0x5]))
        system.run_until_idle()
        # Exactly one ID reply made it onto the bus.
        replies = [
            t for t in system.transactions
            if t.message is not None
            and t.message.payload[:1] == bytes([CMD_ID_REPLY])
            and t.ok
        ]
        assert len(replies) == 1
        assert agents["u1"].assigned_prefix == 0x5
        assert agents["u2"].assigned_prefix is None
        # The loser's queue is empty: no stale reply lingers.
        assert not system.node("u2").engine.has_pending

    def test_invalidate_releases_prefix(self):
        system, agents = _system_with_agents()
        system.broadcast("ctl", CHANNEL_ENUMERATION, bytes([CMD_ENUMERATE, 0x5]))
        system.run_until_idle()
        assert agents["u1"].assigned_prefix == 0x5
        system.broadcast(
            "ctl", CHANNEL_ENUMERATION, bytes([CMD_INVALIDATE, 0x5])
        )
        system.run_until_idle()
        assert agents["u1"].assigned_prefix is None
        assert system.node("u1").config.short_prefix is None

    def test_engine_matches_the_assigned_prefix(self):
        system = MBusSystem()
        system.add_mediator_node("ctl", short_prefix=0x1)
        system.add_node("u1", full_prefix=0x11111)
        system.add_node("u2", full_prefix=0x22222)
        enumerator = Enumerator(system, "ctl")
        assignments = enumerator.enumerate()
        for name in ("u1", "u2"):
            node = system.node(name)
            assert node.engine.config is node.config
            assert node.config.short_prefix == assignments[name]
            result = system.send(
                "ctl", Address.short(assignments[name], 5), b"\x42"
            )
            assert result.rx_nodes == [name]
        # An invalidated prefix is no longer matched.
        system.broadcast(
            "ctl", CHANNEL_ENUMERATION,
            bytes([CMD_INVALIDATE, assignments["u1"]]),
        )
        system.run_until_idle()
        assert enumerator.agents["u1"].assigned_prefix is None
        result = system.send(
            "ctl", Address.short(assignments["u1"], 5), b"\x43"
        )
        assert result.rx_nodes == []

    def test_enumerator_runs_out_of_prefixes(self):
        system = MBusSystem()
        system.add_mediator_node("ctl", short_prefix=0x1)
        # Claim every assignable prefix statically except none left
        # for the unassigned node.
        for i, prefix in enumerate(p for p in range(2, 15)):
            system.add_node(f"s{prefix:x}", short_prefix=prefix)
        system.build()
        enumerator = Enumerator(system, "ctl")
        assert enumerator.available_prefixes() == []


class TestResumableInternals:
    def test_header_layout(self):
        header = _header(0xAB, 0x010203)
        assert header == bytes([0xAB, 0x01, 0x02, 0x03])
        assert len(header) == HEADER_BYTES

    def test_header_validation(self):
        with pytest.raises(ProtocolError):
            _header(300, 0)
        with pytest.raises(ProtocolError):
            _header(0, 1 << 24)

    def test_stream_overlap_resolution(self):
        stream = _Stream()
        stream.add(0, b"aaaa")
        stream.add(2, b"BBBB")       # overlapping resend
        assert stream.assembled() == b"aaBBBB"

    def test_stream_gap_detection(self):
        stream = _Stream()
        stream.add(0, b"aa")
        stream.add(4, b"bb")
        with pytest.raises(ProtocolError):
            stream.assembled()

    def test_contiguous_prefix(self):
        stream = _Stream()
        stream.add(0, b"aa")
        stream.add(2, b"bb")
        stream.add(8, b"cc")
        assert stream.contiguous_prefix() == 4

    def test_empty_stream(self):
        assert _Stream().assembled() == b""
        assert _Stream().contiguous_prefix() == 0
