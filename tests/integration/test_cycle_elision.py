"""Cycle elision: a transfer advanced in whole cycles must equal the
run that steps every edge.

A glitch can start a transfer that no node drives (a *runaway*): the
ring clocks the idle DATA level into every receiver until a buffer
overruns or the mediator's watchdog fires.  A glitch storm can also
leave a node's DATA controller holding a level after its transaction
ended while the mediator keeps clocking (a *held* transfer): no one
transmits there either, so the ring's levels stay put.  In a normal
transfer one transmitter drives its bits and every other node forwards
and latches them.  The edge engine advances the cycles of each in
arithmetic (``QuietRing`` and ``Simulator.elide``) unless a ring net
carries a listener that ``build()`` did not attach, so a traced run
steps every edge.  Each test here pits an untraced run against its
traced twin at a boundary where the shortcut has to stop: a decision
point of the ring, a horizon, the event budget, a single ``step()``, a
probe, a fault window, or a cycle too short for the transmitter's bit
to cross the ring.
"""

import json
import os

import pytest

from repro.campaign import Campaign, canonical_json
from repro.campaign.trial import execute_trial, trial_record
from repro.core import Address, ControlCode
from repro.core.bus import QuietRing
from repro.core.bus_controller import Role
from repro.faults import (
    BitFlip,
    ClockDrift,
    DropEdge,
    FaultInjector,
    FaultSpec,
    NodePowerLoss,
    StuckAt,
    WireGlitch,
)
from repro.faults.injector import _STATE
from repro.faults.primitives import PS_PER_S
from repro.obs import observe
from repro.scenario import NodeSpec, OneShot, SystemSpec, run
from repro.scenario.workload import workload_from_dict
from repro.sim.scheduler import SimulationError
from test_edge_golden import EXAMPLES, GLITCH_SEEDS, _fault_grid_trials

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


#: ``(at_s, action(system))`` pairs: the follow-up post.
FOLLOW_UP = (
    (POST_AT_S, lambda system: system.post("a", Address.short(0x3, 1),
                                           PAYLOAD)),
)


def live_system(spec, faults, trace=False, actions=FOLLOW_UP):
    """A built, armed system with ``actions`` scheduled, to be driven
    through ``system.sim`` directly."""
    system = spec.build(mode="edge", trace=trace)
    FaultInjector(system, faults, spec).arm()
    for at_s, action in actions:
        system.sim.schedule_at(
            int(at_s * PS_PER_S), lambda act=action: act(system)
        )
    return system


def _shadow(net):
    """The driver level a fault injector keeps for ``net``, if any."""
    fault_state = _STATE.get(id(net))
    return None if fault_state is None else fault_state.shadow


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
                node.engine._tx_bits_driven,
                node.engine.stats,
                node.detector.count,
                node.data_ctl.forwarding,
                node.data_ctl.driven_value,
                node.dout.value,
                node.dout.transitions,
                _shadow(node.dout),
                node.clkout.value,
                node.clkout.transitions,
                _shadow(node.clkout),
            )
            for node in system.nodes
        ],
        system.wire_activity(),
        system.power_domain_report(),
        [
            (txn.ok, txn.control, txn.tx_node, txn.clock_cycles,
             txn.rx_deliveries, txn.end_ps)
            for txn in system.transactions
        ],
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


#: Driven transfers go out at 10 us on a 400 kHz ring (2.5 us a
#: cycle), so an 8-byte transfer spans about 20 to 215 us.
DRIVEN_AT_S = 10e-6
DRIVEN_PAYLOAD = bytes.fromhex("a55a0ff0c33c9669")


def driven_spec(clock_hz=400_000, a=None, c=None, **overrides):
    """The mediator, a member on broadcast channels 0 and 1, a gated
    member with a full prefix on channel 1, and a plain member."""
    return SystemSpec(
        name="driven",
        clock_hz=clock_hz,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            a or NodeSpec("a", short_prefix=0x2,
                          broadcast_channels=frozenset({0, 1})),
            NodeSpec("b", short_prefix=0x3, full_prefix=0x12345,
                     power_gated=True, broadcast_channels=frozenset({1})),
            c or NodeSpec("c", short_prefix=0x4),
        ),
        **overrides,
    )


def _post(source, dest, payload=DRIVEN_PAYLOAD, priority=False):
    return lambda system: system.post(source, dest, payload, priority)


def _interject(name):
    return lambda system: system.node(name).request_interjection()


A_TO_C = ((DRIVEN_AT_S, _post("a", Address.short(0x4))),)
M_TO_A = ((DRIVEN_AT_S, _post("m", Address.short(0x2))),)

#: name -> (spec, timed actions, faults of the scenario itself).
DRIVEN = {
    "mediator-transmits": (driven_spec(), M_TO_A, ()),
    "member-transmits": (driven_spec(), A_TO_C, ()),
    "full-address": (
        driven_spec(),
        ((DRIVEN_AT_S, _post("c", Address.full(0x12345))),), (),
    ),
    "broadcast": (
        driven_spec(), ((DRIVEN_AT_S, _post("c", Address.broadcast(1))),),
        (),
    ),
    "priority-contest": (
        driven_spec(),
        A_TO_C + ((DRIVEN_AT_S,
                   _post("c", Address.short(0x2), priority=True)),),
        (),
    ),
    "anchor": (
        driven_spec(arbitration_anchor="c"),
        ((DRIVEN_AT_S, _post("a", Address.short(0x3))),), (),
    ),
    # A detector that fires on one DATA edge ends a at arbitration; at
    # 2 the mediator's own member still gets its transfer through.
    "threshold-1": (
        driven_spec(c=NodeSpec("c", short_prefix=0x4, rx_buffer_bytes=16),
                    interjection_threshold=1),
        A_TO_C, (),
    ),
    "threshold-2": (
        driven_spec(interjection_threshold=2), M_TO_A, (),
    ),
    # c asks to interject 20 cycles in; the minimum-progress rule
    # holds it until a has sent four payload bytes.
    "third-party": (
        driven_spec(),
        ((DRIVEN_AT_S, _post("a", Address.short(0x3), bytes(16))),
         (60e-6, _interject("c"))),
        (),
    ),
    # The ring goes quiet when a browns out; c's buffer ends the
    # runaway that follows.
    "transmitter-power-loss": (
        driven_spec(c=NodeSpec("c", short_prefix=0x4, rx_buffer_bytes=16)),
        A_TO_C, (NodePowerLoss("a", at_s=120e-6, duration_s=40e-6),),
    ),
    "receiver-overrun": (
        driven_spec(c=NodeSpec("c", short_prefix=0x4, rx_buffer_bytes=4)),
        A_TO_C, (),
    ),
}

#: Fault windows of two to three cycles from 80 us, inside every
#: scenario's driven transfer (b's DATA-out feeds c, m's feeds a), and
#: skew for the whole run.
DRIVEN_FAULTS = {
    "clean": (),
    "stuck": (StuckAt("b", at_s=80e-6, duration_s=6e-6, value=1,
                      wire="data"),),
    "drop": (DropEdge("m", at_s=80e-6, count=1, duration_s=6e-6,
                      wire="data"),),
    "flip": (BitFlip("b", at_s=80e-6, duration_s=6e-6, wire="data"),),
    "drift": (ClockDrift("m", ppm=250.0), ClockDrift("a", ppm=-400.0)),
}


def _driven_horizons():
    """Ps horizons through the transfer at strides of 0.15 to 7.8
    cycles, so spans stop at every phase of a cycle."""
    horizons, at = [], 5_000_000
    strides = (1_100_000, 2_500_000, 7_700_000, 19_300_000, 370_000)
    while at < 300_000_000:
        horizons.append(at)
        at += strides[len(horizons) % len(strides)]
    return horizons


DRIVEN_HORIZONS = _driven_horizons()


def driven_twins(scenario, fault, extra=()):
    """An untraced and a traced system of one driven scenario."""
    spec, actions, faults = DRIVEN[scenario]
    faults = FaultSpec(faults=faults + DRIVEN_FAULTS[fault] + extra)
    return [
        live_system(spec, faults, trace, actions) for trace in (False, True)
    ]


@pytest.mark.parametrize("fault", sorted(DRIVEN_FAULTS))
@pytest.mark.parametrize("scenario", sorted(DRIVEN))
class TestDrivenSpans:
    """A transfer with one transmitter advances in whole cycles up to
    each decision point: an untraced run must match its traced twin,
    which steps every edge, wherever a horizon or the event budget
    stops it."""

    def test_horizons_through_a_driven_transfer(self, scenario, fault):
        plain, traced = driven_twins(scenario, fault)
        for horizon in DRIVEN_HORIZONS:
            for system in (plain, traced):
                system.sim.run(until=horizon)
            assert state(plain) == state(traced), horizon
        for system in (plain, traced):
            system.sim.run()
        assert state(plain) == state(traced)
        assert traced.sim.events_elided == 0
        assert plain.transactions

    def test_one_cycle_spans(self, scenario, fault):
        # A horizon just before each rising toggle ends every span
        # after one cycle, so each cycle's bulk update is compared,
        # detector counts and all, before the next edge resets them.
        plain, traced = driven_twins(scenario, fault)
        probe = driven_twins(scenario, fault)[1]
        probe.sim.run(until=DRIVEN_HORIZONS[-1])
        drive_ps = probe.timing.drive_delay_ps
        toggles = [
            edge.time - drive_ps
            for edge in probe.tracer.edges_of("m.dout.clk")
            if edge.value == 1
        ]
        for toggle in toggles:
            for system in (plain, traced):
                system.sim.run(until=toggle - 1)
            assert state(plain) == state(traced), toggle
        if fault == "clean" and scenario != "threshold-1":
            assert plain.sim.events_elided > 0

    def test_budgets_through_a_driven_transfer(self, scenario, fault):
        plain, traced = driven_twins(scenario, fault)
        plain.sim.run()
        total = plain.sim.events_processed
        # A transfer elides unless a detector fires on one DATA edge.
        if fault == "clean":
            elides = scenario != "threshold-1"
            assert bool(plain.sim.events_elided) == elides
        step = total // 9
        for max_events in list(range(step, total, step)) + [
            total - 1, total, total + 1,
        ]:
            outcomes = []
            for system in driven_twins(scenario, fault):
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


class TestDrivenTiming:
    """A driven cycle elides only when the bit's DATA edge crosses the
    ring within half a period and reaches no node together with its
    CLK edge; otherwise the transfer steps, and still matches."""

    CASES = {
        # At 10 MHz c's bit reaches c's own DATA-in 52 ns after the
        # falling toggle, past the 50 ns half period.
        "slow-ring": (driven_spec(clock_hz=10e6), "c", 0x2),
        # a forwards CLK 1 ns after an edge, as fast as it drives DATA,
        # so both edges reach b at once.
        "tied-edges": (
            driven_spec(a=NodeSpec("a", short_prefix=0x2,
                                   node_delay_ps=1_000)),
            "a", 0x4,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_transfer_steps(self, case):
        spec, source, prefix = self.CASES[case]
        post = ((DRIVEN_AT_S, _post(source, Address.short(prefix))),)
        systems = [
            live_system(spec, FaultSpec(), trace, post)
            for trace in (False, True)
        ]
        plain, traced = systems
        step = plain.timing.half_period_ps // 5 + 1
        for horizon in range(int(DRIVEN_AT_S * PS_PER_S),
                             int(DRIVEN_AT_S * PS_PER_S) + 200 * step, step):
            for system in systems:
                system.sim.run(until=horizon)
            assert state(plain) == state(traced), horizon
        for system in systems:
            system.sim.run()
        assert state(plain) == state(traced)
        assert plain.transactions[0].ok
        assert plain.sim.events_elided == 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_transfer_checks_the_ring_twice(self, case,
                                                   monkeypatch):
        # The timing refuses the transfer for as long as its
        # transmitter transmits, so the ring is checked in full when
        # the arbitration's decisions are done and the refusal is
        # found; every later rising edge retests the transmitter only.
        checks = []
        check = QuietRing.quiet_cycles

        def counted(ring, *args):
            checks.append(ring)
            return check(ring, *args)

        monkeypatch.setattr(QuietRing, "quiet_cycles", counted)
        spec, source, prefix = self.CASES[case]
        post = ((DRIVEN_AT_S, _post(source, Address.short(prefix))),)
        system = live_system(spec, FaultSpec(), False, post)
        system.sim.run()
        assert system.transactions[0].ok
        assert system.mediator.mediator._rising == 75
        assert len(checks) <= 2


class TestClosedWindows:
    """A net whose fault window has closed is neutral again: cycles
    after it elide as on a net no window touched.  Its fault state
    stays bound, so it keeps the drivers' level through a glitch."""

    CLOSED_BY_5_US = [
        StuckAt("a", at_s=2e-6, duration_s=3e-6, value=1, wire="data"),
        DropEdge("b", at_s=2e-6, count=1, duration_s=3e-6, wire="data"),
    ]

    @pytest.mark.parametrize("window", CLOSED_BY_5_US,
                             ids=lambda fault: fault.kind)
    def test_window_closed_before_a_runaway(self, window):
        _, elided = transparent_run(runaway_spec(), runaway_faults(window))
        _, untouched = observed_run(runaway_spec(), runaway_faults())
        assert elided == untouched > 0

    @pytest.mark.parametrize("window", CLOSED_BY_5_US,
                             ids=lambda fault: fault.kind)
    def test_window_closed_before_a_driven_transfer(self, window):
        plain, traced = driven_twins("member-transmits", "clean", (window,))
        untouched, _ = driven_twins("member-transmits", "clean")
        for system in (plain, traced, untouched):
            system.sim.run()
        assert state(plain) == state(traced)
        assert plain.sim.events_elided == untouched.sim.events_elided > 0

    def test_glitch_between_two_windows_on_one_net(self):
        # b forwards a's bits to c.  The glitch at 60 us flips b's
        # DATA-out against what b forwards; the flip window from
        # 100 us must invert the forwarded level, not the glitched one.
        glitch_ps = 60_000_000
        faults = (
            StuckAt("b", at_s=40e-6, duration_s=3e-6, value=1, wire="data"),
            WireGlitch("b", at_s=glitch_ps / PS_PER_S, wire="data", edges=1),
            BitFlip("b", at_s=100e-6, duration_s=5e-6, wire="data"),
        )
        plain, traced = driven_twins("member-transmits", "clean", faults)
        for horizon in sorted(DRIVEN_HORIZONS + [glitch_ps + 100]):
            for system in (plain, traced):
                system.sim.run(until=horizon)
            assert state(plain) == state(traced), horizon
            if horizon == glitch_ps + 100:
                b = plain.node("b")
                assert b.dout.value != b.din.value
                assert _shadow(b.dout) == b.din.value
        for system in (plain, traced):
            system.sim.run()
        assert state(plain) == state(traced)
        assert plain.sim.events_elided > 0


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


#: A faults-pool trial whose runaway's DATA a node holds.  At 1,042.8
#: us the 16 kHz storm saturates the detector of the mediator's member,
#: which ends its message on control bits latched from the clock that
#: is still running: the mediator saw no interjection.  Its node's DATA
#: controller stays in drive mode, and m (an observer again) and a
#: (still receiving) latch the levels the storm left on the ring until
#: a's 1 kB buffer overruns at 21,518.8 us.
HELD_PAYLOAD = "85c924c3597164c4"
HELD_EVENTS = 69_943
HELD_CYCLES = 8_211


def held_trial():
    with open(os.path.join(EXAMPLES, "recovery_campaign.json")) as handle:
        doc = json.load(handle)
    doc["workload"]["payload"] = HELD_PAYLOAD
    doc["grid"] = {
        "kind": "product",
        "axes": {
            "faults.faults.0.rate_hz": [16000.0],
            "faults.faults.0.seed": [GLITCH_SEEDS[0]],
        },
    }
    (trial,) = Campaign.from_dict(doc).trials()
    return trial


def held_documents():
    """The held trial's ``(spec, workload, faults)``."""
    doc = held_trial().to_dict()
    return (
        SystemSpec.from_dict(doc["spec"]),
        workload_from_dict(doc["workload"]),
        FaultSpec.from_dict(doc["faults"]),
    )


def held(system) -> bool:
    """True while no engine transmits and m's DATA controller drives."""
    return not system.node("m").data_ctl.forwarding and all(
        node.engine.role is not Role.TX for node in system.nodes
    )


class TestHeldTransfer:
    """With no transmitter, a DATA controller that holds a level keeps
    its segment constant, so the held span advances in whole cycles:
    each run must equal its traced twin."""

    def test_record_equals_its_stepped_twins(self):
        trial = held_trial()
        with observe(trace=False, profile=False) as session:
            line, _wall_s = execute_trial(trial)
        counters = session.metrics.to_dict()["counters"]
        spec, workload, faults = held_documents()
        stepped = run(spec, workload, backend="edge", faults=faults,
                      trace=True)
        assert line == canonical_json(trial_record(trial, stepped.to_dict()))
        assert stepped.events_processed == HELD_EVENTS
        runaway = stepped.transactions[-1]
        assert (runaway.control, runaway.clock_cycles) == (
            ControlCode.RX_ABORT, HELD_CYCLES
        )
        assert counters["sim.events_elided"] >= 0.9 * HELD_EVENTS

    @pytest.mark.parametrize("timeout_s", [5.0000013e-3, 12.34567e-3,
                                           21.5e-3])
    def test_timeout_inside_the_held_span(self, timeout_s):
        spec, workload, faults = held_documents()
        plain, traced = [
            run(spec, workload, backend="edge", faults=faults,
                timeout_s=timeout_s, trace=trace)
            for trace in (False, True)
        ]
        assert report_doc(plain) == report_doc(traced)
        assert held(plain.system) and plain.system.sim.events_elided > 0
        assert plain.sim_time_s == pytest.approx(timeout_s)

    def test_budget_inside_the_held_span(self):
        spec, workload, faults = held_documents()
        actions = tuple(
            (event.at_s, lambda system, event=event: system.post(
                event.source, event.dest, event.payload, event.priority))
            for event in workload.compile(spec)
        )
        for max_events in (10_000, 33_333, 65_000):
            raised = []
            for trace in (False, True):
                system = live_system(spec, faults, trace, actions)
                with pytest.raises(SimulationError):
                    system.sim.run(max_events=max_events)
                assert held(system)
                raised.append(state(system))
            assert raised[0] == raised[1], max_events
            assert raised[0][1] == max_events + 1

    def test_a_second_driver_is_refused(self):
        # Just before a rising toggle mid-transfer a's transfer to c
        # passes the ring check; once c's DATA controller holds its
        # level beside a's, the check refuses it.
        plain, traced = driven_twins("member-transmits", "clean")
        traced.sim.run(until=100_000_000)
        drive_ps = traced.timing.drive_delay_ps
        toggle = [
            edge.time - drive_ps
            for edge in traced.tracer.edges_of("m.dout.clk")
            if edge.value == 1
        ][-1] + 2 * traced.timing.half_period_ps
        plain.sim.run(until=toggle - 1)
        ring = plain.mediator.mediator.quiet_ring
        half = plain.timing.half_period_ps
        assert plain.node("a").engine.role is Role.TX
        assert ring.quiet_cycles(8, half) == 8
        plain.node("c").data_ctl.hold()
        assert ring.quiet_cycles(8, half) == 0
