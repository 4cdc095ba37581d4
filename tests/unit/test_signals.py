"""Unit tests for nets, edges, and the tracer."""

import pytest

from repro.sim.scheduler import NS, SimulationError, Simulator
from repro.sim.signals import EdgeType, Net, connect
from repro.sim.tracer import Tracer


class TestNet:
    def test_initial_value_defaults_high(self):
        sim = Simulator()
        assert Net(sim, "n").value == 1

    def test_immediate_set(self):
        sim = Simulator()
        net = Net(sim, "n")
        net.set(0)
        assert net.value == 0

    def test_delayed_set(self):
        sim = Simulator()
        net = Net(sim, "n")
        net.set(0, delay=5 * NS)
        assert net.value == 1
        sim.run()
        assert net.value == 0

    def test_edge_callback_fires_with_polarity(self):
        sim = Simulator()
        net = Net(sim, "n")
        edges = []
        net.on_edge(lambda n, e: edges.append((n.value, e)))
        net.set(0)
        net.set(1)
        assert edges == [(0, EdgeType.FALLING), (1, EdgeType.RISING)]

    def test_no_callback_on_same_value(self):
        sim = Simulator()
        net = Net(sim, "n")
        edges = []
        net.on_edge(lambda n, e: edges.append(e))
        net.set(1)
        net.set(1)
        assert edges == []

    def test_pending_transition_superseded(self):
        """A later drive cancels an in-flight one (glitch resolution)."""
        sim = Simulator()
        net = Net(sim, "n")
        edges = []
        net.on_edge(lambda n, e: edges.append((sim.now, n.value)))
        net.set(0, delay=10 * NS)
        net.set(1, delay=2 * NS)   # driver changed its mind
        sim.run()
        assert net.value == 1
        assert edges == []          # value never actually changed

    def test_superseding_keeps_pending_exact(self):
        sim = Simulator()
        net = Net(sim, "n")
        net.set(0, delay=10 * NS)
        assert sim.pending() == 1
        net.set(1, delay=2 * NS)     # supersedes: still one live apply
        assert sim.pending() == 1
        net.set(0, delay=4 * NS)
        assert sim.pending() == 1
        sim.run()
        assert net.value == 0 and sim.now == 4 * NS
        assert sim.pending() == 0
        assert sim.events_processed == 1   # superseded applies never fire

    def test_immediate_set_cancels_pending_apply(self):
        sim = Simulator()
        net = Net(sim, "n")
        edges = []
        net.on_edge(lambda n, e: edges.append((sim.now, n.value)))
        net.set(0, delay=10 * NS)
        net.set(0)
        assert sim.pending() == 0
        sim.run()
        assert edges == [(0, 0)]
        assert sim.events_processed == 0

    def test_set_after_apply_fired_cancels_nothing(self):
        sim = Simulator()
        net = Net(sim, "n")
        net.set(0, delay=NS)
        sim.run()
        net.set(1, delay=NS)
        assert sim.pending() == 1
        sim.run()
        assert net.value == 1 and sim.events_processed == 2

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Net(sim, "n").set(0, delay=-1)

    def test_apply_queued_before_fault_swap_goes_through_fault_state(self):
        """The injector swaps a net's class mid-run; an apply queued
        before the swap must still be filtered by the fault state."""
        from repro.faults.injector import _STATE, FaultableNet, _NetFaultState

        sim = Simulator()
        net = Net(sim, "n")
        edges = []
        net.on_edge(lambda n, e: edges.append(n.value))
        net.set(0, delay=10 * NS)      # queued while still a plain Net
        state = _NetFaultState(net)
        _STATE[id(net)] = state
        net.__class__ = FaultableNet
        state.inverted = True          # the wire carries the complement
        try:
            sim.run()
        finally:
            del _STATE[id(net)]
            net.__class__ = Net
        assert state.shadow == 0       # the driver's intent was seen...
        assert net.value == 1          # ...and inverted: no transition
        assert edges == []

    def test_truthy_values_normalised(self):
        sim = Simulator()
        net = Net(sim, "n", initial=0)
        net.set(5)
        assert net.value == 1

    def test_connect_relays_with_delay(self):
        sim = Simulator()
        a, b = Net(sim, "a"), Net(sim, "b")
        connect(a, b, delay=3 * NS)
        a.set(0)
        assert b.value == 1
        sim.run()
        assert b.value == 0


class TestEdgeType:
    def test_of(self):
        assert EdgeType.of(0, 1) is EdgeType.RISING
        assert EdgeType.of(1, 0) is EdgeType.FALLING


class TestTracer:
    def _traced_net(self):
        sim = Simulator()
        net = Net(sim, "sig")
        tracer = Tracer()
        tracer.watch(net)
        return sim, net, tracer

    def test_records_transitions_in_order(self):
        sim, net, tracer = self._traced_net()
        net.set(0, delay=10)
        sim.run()
        net.set(1, delay=10)
        sim.run()
        values = [t.value for t in tracer.edges_of("sig")]
        assert values == [0, 1]

    def test_count_edges_by_polarity(self):
        sim, net, tracer = self._traced_net()
        for value in (0, 1, 0):
            net.set(value, delay=10)
            sim.run()
        assert tracer.count_edges("sig") == 3
        assert tracer.count_edges("sig", EdgeType.FALLING) == 2
        assert tracer.count_edges("sig", EdgeType.RISING) == 1

    def test_value_at_reconstructs_history(self):
        sim, net, tracer = self._traced_net()
        net.set(0, delay=10)
        sim.run()
        net.set(1, delay=10)
        sim.run()
        assert tracer.value_at("sig", 5) == 1
        assert tracer.value_at("sig", 15) == 0
        assert tracer.value_at("sig", 25) == 1

    def test_value_at_unknown_net_raises(self):
        _, _, tracer = self._traced_net()
        try:
            tracer.value_at("other", 0)
        except KeyError:
            return
        raise AssertionError("expected KeyError")

    def test_ascii_waveform_renders(self):
        sim, net, tracer = self._traced_net()
        net.set(0, delay=10)
        sim.run()
        art = tracer.ascii_waveform(["sig"], step=5)
        assert "sig" in art and "#" in art and "_" in art
