"""Cycle elision: a quiescent transfer advanced in whole cycles must
equal the run that steps every edge.

A glitch can start a transfer that no node drives (a *runaway*): the
ring clocks the idle DATA level into every receiver until a buffer
overruns or the mediator's watchdog fires.  The edge engine advances
the cycles of such a transfer in arithmetic (``QuietRing`` and
``Simulator.elide``) unless a ring net carries a listener that
``build()`` did not attach, so a traced run steps every edge.  Each
test here pits an untraced run against its traced twin at a boundary
where the shortcut has to stop: a decision point of the ring, a
horizon, the event budget, a single ``step()``, a probe, or a fault
window.
"""

import pytest

from repro.core import Address
from repro.core.bus_controller import Role
from repro.faults import (
    BitFlip,
    ClockDrift,
    DropEdge,
    FaultInjector,
    FaultSpec,
    StuckAt,
    WireGlitch,
)
from repro.faults.primitives import PS_PER_S
from repro.obs import observe
from repro.scenario import NodeSpec, OneShot, SystemSpec, run
from repro.scenario.workload import workload_from_dict
from repro.sim.scheduler import SimulationError
from test_edge_golden import _fault_grid_trials

#: The follow-up message that a runaway must not disturb.
POST_AT_S = 0.05
PAYLOAD = b"\x01\x02"
WORKLOAD = OneShot("a", Address.short(0x3, 1), PAYLOAD, at_s=POST_AT_S)
#: Short + data cycles before a receiver's latch overruns ``n`` bytes.
ARBITRATION_AND_ADDRESS = 3 + 8


def runaway_spec(m=1024, a=1024, b=1024, **overrides) -> SystemSpec:
    return SystemSpec(
        name="runaway",
        clock_hz=400_000,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True,
                     rx_buffer_bytes=m),
            NodeSpec("a", short_prefix=0x2, rx_buffer_bytes=a),
            NodeSpec("b", short_prefix=0x3, rx_buffer_bytes=b),
        ),
        **overrides,
    )


def runaway_faults(*extra) -> FaultSpec:
    """Two single DATA edges that start a runaway.

    The first wakes the mediator at 10 us; it starts clocking 2 us
    later.  The second pulls the mediator's DATA-in low just before
    its arbitration latch (14.5 us), so it takes a winner that does
    not exist and forwards DATA.  Every node then latches 0s, the
    broadcast address, and receives until a buffer overruns.
    """
    return FaultSpec(
        faults=(
            WireGlitch("a", at_s=10e-6, wire="data", edges=1),
            WireGlitch("b", at_s=14.4e-6, wire="data", edges=1),
        ) + extra
    )


def report_doc(report) -> dict:
    doc = report.to_dict()
    doc.pop("wall_s")
    doc.pop("wall_throughput_tps")
    return doc


def observed_run(spec, faults, trace=False, **kwargs):
    """``(report, cycles elided)`` of one edge run."""
    with observe(trace=False, profile=False) as session:
        report = run(spec, WORKLOAD, backend="edge", faults=faults,
                     trace=trace, **kwargs)
    counters = session.metrics.to_dict()["counters"]
    return report, counters.get("sim.cycles_elided", 0)


def transparent_run(spec, faults, **kwargs):
    """Run untraced and traced; require equal reports and return the
    untraced ``(report, cycles elided)``."""
    plain, elided = observed_run(spec, faults, **kwargs)
    traced, traced_elided = observed_run(spec, faults, trace=True, **kwargs)
    assert traced_elided == 0
    assert report_doc(plain) == report_doc(traced)
    return plain, elided


def live_system(spec, faults, trace=False):
    """A built, armed system with the follow-up post scheduled, to be
    driven through ``system.sim`` directly."""
    system = spec.build(mode="edge", trace=trace)
    FaultInjector(system, faults, spec).arm()
    system.sim.schedule_at(
        int(POST_AT_S * PS_PER_S),
        lambda: system.post("a", Address.short(0x3, 1), PAYLOAD),
    )
    return system


def state(system):
    """Everything an elided cycle may touch, and the scheduler's
    counters (cancelled entries may be reaped later, so the raw queue
    length is not compared)."""
    sim = system.sim
    mediator = system.mediator.mediator
    return (
        sim.now,
        sim.events_processed,
        sim.pending(),
        sim._seq,
        mediator.phase,
        mediator._rising,
        mediator.stats,
        [
            (
                node.engine.phase,
                node.engine.role,
                node.engine.rising,
                node.engine.falling,
                tuple(node.engine._rx_bits),
                node.engine.stats,
                node.detector.count,
                node.dout.value,
                node.dout.transitions,
                node.clkout.value,
                node.clkout.transitions,
            )
            for node in system.nodes
        ],
        system.wire_activity(),
        system.power_domain_report(),
        len(system.transactions),
    )


def twins(spec=None, faults=None):
    spec = spec or runaway_spec()
    faults = faults or runaway_faults()
    return live_system(spec, faults), live_system(spec, faults, trace=True)


def runaway_cycles(buffer_bytes: int) -> int:
    """Clock cycles of a runaway that the first overrun ends."""
    return ARBITRATION_AND_ADDRESS + 8 * (buffer_bytes + 1)


class TestRunawayEndings:
    """Each ending is a decision point the elided span stops before."""

    def _runaway(self, spec, cycles, control="RX_ABORT", reason=""):
        report, elided = transparent_run(spec, runaway_faults())
        doc = report_doc(report)
        runaway, follow_up = doc["transactions"][0], doc["transactions"][1]
        assert runaway["clock_cycles"] == cycles
        assert runaway["control"] == control
        assert runaway["error_reason"] == reason
        assert sorted(runaway["rx_nodes"]) == ["a", "b", "m"]
        assert follow_up["ok"] and follow_up["tx_node"] == "a"
        # Everything between the address and the ending advanced in
        # bulk: at most a few dozen cycles of the runaway stepped.
        assert elided > cycles - 40
        return report

    def test_overrun_at_every_buffer_at_once(self):
        self._runaway(runaway_spec(), runaway_cycles(1024))

    def test_overrun_at_a_member(self):
        self._runaway(runaway_spec(a=64), runaway_cycles(64))

    def test_overrun_at_the_mediators_member(self):
        self._runaway(runaway_spec(m=16), runaway_cycles(16))

    def test_watchdog_below_the_receivers_buffers(self):
        spec = runaway_spec(m=4096, a=4096, b=4096, max_message_bytes=1024)
        watchdog_cycles = 3 + 32 + 8 * 1024 + 8
        self._runaway(
            spec, watchdog_cycles + 1, reason="runaway-message"
        )

    def test_gated_receiver_wakes_during_a_runaway(self):
        # Its sequencers step on CLK edges: the bus domain wakes on the
        # first four, the layer domain on four after the address.
        spec = SystemSpec(
            name="runaway-gated",
            clock_hz=400_000,
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
                NodeSpec("b", short_prefix=0x3, power_gated=True),
            ),
        )
        report = self._runaway(spec, runaway_cycles(1024))
        assert report.power["b"]["layer_wakeups"] >= 2

    def test_address_match_is_stepped(self):
        # Every engine latches its eighth address bit at 39.51 us.  The
        # span elided from the first transfer cycle stops one cycle
        # short of it, so each engine still matches the broadcast
        # address and receives.
        plain, traced = twins()
        for system in (plain, traced):
            system.sim.run(until=45_000_000)
        assert state(plain) == state(traced)
        assert {node.engine.role for node in plain.nodes} == {Role.RX}


class TestHorizons:
    def _toggle_times(self):
        """Ps instants of rising-edge toggles deep in the runaway,
        read off a traced run's mediator CLK-out (drive delay 1 ns)."""
        _, traced = twins()
        traced.sim.run(until=6 * 10**9)
        rising = [
            t.time for t in traced.tracer.edges_of("m.dout.clk")
            if t.value == 1
        ]
        drive_ps = traced.timing.drive_delay_ps
        return [rising[i] - drive_ps for i in (1000, 1500, 2000)]

    def test_run_horizons_inside_a_runaway(self):
        toggles = self._toggle_times()
        half = runaway_spec().build(mode="edge").timing.half_period_ps
        horizons = []
        for toggle in toggles:
            horizons += [toggle - 1, toggle, toggle + 1, toggle + half,
                         toggle + 2 * half - 1]
        plain, traced = twins()
        for horizon in horizons:
            for system in (plain, traced):
                system.sim.run(until=horizon)
            assert state(plain) == state(traced), horizon
        for system in (plain, traced):
            system.sim.run()
        assert state(plain) == state(traced)

    @pytest.mark.parametrize("timeout_s", [1e-3, 5.0000013e-3, 12.34567e-3])
    def test_timeout_inside_a_runaway(self, timeout_s):
        report, elided = transparent_run(
            runaway_spec(), runaway_faults(), timeout_s=timeout_s
        )
        assert elided > 0
        assert report.sim_time_s == pytest.approx(timeout_s)

    def test_run_for_inside_a_runaway(self):
        plain, traced = twins()
        for seconds in (2e-3, 3.3333e-3, 0.5e-3, 10e-3):
            for system in (plain, traced):
                system.run_for(seconds)
            assert state(plain) == state(traced), seconds


class TestDataEdges:
    #: A falling toggle deep in the runaway: its rising toggles come at
    #: 14.51 us plus whole periods of 2.5 us, each falling one half a
    #: period later.  The mediator drives CLK-out 1 ns after a toggle;
    #: each member forwards it 10 ns later.
    PERIOD_PS = 2_500_000
    FALLING_PS = 14_510_000 + 2000 * PERIOD_PS + PERIOD_PS // 2

    def test_data_edge_racing_a_clock_edge(self):
        # A DATA edge on a's output 5 ns after the falling toggle gets
        # to b and m ahead of that CLK edge, which resets their
        # detectors, and to a behind it: only a's detector still
        # counts it at the next rising toggle.  That cycle must step,
        # or a later two-edge glitch saturates a's detector
        # (threshold 3) where stepped cycles have reset it.
        glitch_ps = self.FALLING_PS + 5_000
        faults = runaway_faults(
            WireGlitch("a", at_s=glitch_ps / PS_PER_S, wire="data", edges=1),
            WireGlitch("b", at_s=(glitch_ps + 20 * self.PERIOD_PS) / PS_PER_S,
                       wire="data", edges=2),
        )
        report, elided = transparent_run(runaway_spec(), faults)
        assert elided > 0
        assert report.transactions[0].clock_cycles == runaway_cycles(1024)
        # Up to the rising toggle, then on past several cycles in one
        # run (a horizon at each cycle would step them all).
        plain, traced = twins(faults=faults)
        rising_ps = self.FALLING_PS + self.PERIOD_PS // 2
        for horizon in (rising_ps - 1, rising_ps + 10 * self.PERIOD_PS):
            for system in (plain, traced):
                system.sim.run(until=horizon)
            assert state(plain) == state(traced), horizon
            if horizon < rising_ps:
                counts = [node.detector.count for node in plain.nodes]
                assert counts == [0, 1, 0]


class TestEventBudget:
    def test_budget_trips_where_the_stepped_run_trips(self):
        spec = runaway_spec(a=64)
        total = run(spec, WORKLOAD, backend="edge",
                    faults=runaway_faults()).events_processed
        for max_events in list(range(200, total + 2, 397)) + [
            total - 1, total, total + 1,
        ]:
            outcomes = []
            for system in twins(spec):
                try:
                    system.sim.run(max_events=max_events)
                except SimulationError:
                    outcomes.append(("raised", state(system)))
                else:
                    outcomes.append(("ran", state(system)))
            assert outcomes[0] == outcomes[1], max_events
            assert outcomes[0][0] == (
                "raised" if max_events < total else "ran"
            )

    def test_budget_inside_a_long_runaway(self):
        for max_events in (30_000, 45_678):
            raised = []
            for system in twins():
                with pytest.raises(SimulationError):
                    system.sim.run(max_events=max_events)
                raised.append(state(system))
            assert raised[0] == raised[1]
            assert raised[0][1] == max_events + 1


class TestStep:
    def test_step_fires_exactly_one_event(self):
        plain, traced = twins()
        for system in (plain, traced):
            system.sim.run(until=3 * 10**9)
        assert state(plain) == state(traced)
        with observe(trace=False, profile=False) as session:
            for _ in range(300):
                before = plain.sim.events_processed
                assert plain.sim.step() and traced.sim.step()
                assert plain.sim.events_processed == before + 1
                assert state(plain) == state(traced)
        counters = session.metrics.to_dict()["counters"]
        assert counters.get("sim.cycles_elided", 0) == 0


class TestProbes:
    def test_setup_hook_listener_sees_every_edge(self):
        seen = []

        def probe(system):
            system.node("a").clkout.on_edge(
                lambda net, edge: seen.append(int(edge))
            )

        probed, elided = observed_run(
            runaway_spec(), runaway_faults(), setup=probe
        )
        plain, plain_elided = observed_run(runaway_spec(), runaway_faults())
        assert elided == 0 and plain_elided > 0
        assert len(seen) == probed.system.node("a").clkout.transitions
        assert report_doc(probed) == report_doc(plain)


class TestFaultWindows:
    """Fault windows and skew during a runaway (it spans about 0.015
    to 20.5 ms): a net the injector takes over steps every edge from
    then on, and an action is an event the elided span stops before."""

    @pytest.mark.parametrize("fault", [
        StuckAt("a", at_s=5e-3, duration_s=1e-4, value=1, wire="data"),
        StuckAt("b", at_s=5e-3, duration_s=3e-6, value=1, wire="clk"),
        DropEdge("a", at_s=5e-3, count=2, wire="clk"),
        DropEdge("b", at_s=5e-3, count=1, duration_s=1e-4, wire="data"),
        BitFlip("b", at_s=5e-3, duration_s=2e-4, wire="data"),
        ClockDrift("m", ppm=250.0),
        ClockDrift("a", ppm=-400.0),
    ], ids=lambda fault: f"{fault.kind}-{fault.node}")
    def test_fault_during_a_runaway(self, fault):
        _, elided = transparent_run(runaway_spec(), runaway_faults(fault))
        assert elided > 0


class TestGoldenGrid:
    def test_traced_reports_equal_untraced(self):
        # The faults-pool-shaped grid: three of its 16 kHz trials run
        # a runaway into 1 kB buffers.
        for trial in _fault_grid_trials():
            doc = trial.to_dict()
            runs = [
                run(
                    SystemSpec.from_dict(doc["spec"]),
                    workload_from_dict(doc["workload"]),
                    backend="edge",
                    faults=FaultSpec.from_dict(doc["faults"]),
                    trace=trace,
                )
                for trace in (False, True)
            ]
            assert report_doc(runs[0]) == report_doc(runs[1]), trial.params
