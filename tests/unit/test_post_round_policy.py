"""The post-round policy shared by the fast path and the batch tier.

Hand-computed times on a three-node ring with default timing: 10 ns
per forwarding hop, 1 ns pad drive, a 40 ns settle (4 node delays), a
2 us mediator wakeup.  Position 0 is the mediator, then ``a`` (1) and
``b`` (2); one of the members is power-gated (``b`` unless a test
says otherwise).  A fall driven at node ``p`` reaches the next node
downstream after 1 ns and each further node 10 ns later, so
``hop(1, 2)`` is 1 ns, ``hop(2, 1)`` 11 ns, and the mediator's input
pad is 11 ns from ``a`` and 1 ns from ``b``.

The round ends (mediator's final control edge) at 1 us; each node
observes it one CLK propagation later: ``a`` at +1 ns, ``b`` at
+11 ns, the mediator at +21 ns.
"""

from repro.core import MBusTiming, NodeConfig
from repro.core.tlm_engine import lower_ring, post_round, raise_from_idle

NS = 1_000
WAKEUP = 2_000 * NS
END = 1_000 * NS
NODE_END = (END + 21 * NS, END + 1 * NS, END + 11 * NS)
FINALIZE = max(NODE_END)
RETURN_TO_IDLE = END + 60 * NS     # two ring delays of 30 ns


def ring(gated="b"):
    configs = [
        NodeConfig("b", short_prefix=0x3, power_gated=gated == "b"),
        NodeConfig("m", short_prefix=0x1, is_mediator=True),
        NodeConfig("a", short_prefix=0x2, power_gated=gated == "a"),
    ]
    order, topology = lower_ring(configs, MBusTiming())
    # The mediator rotates to position 0; ring order is kept.
    assert order == [1, 2, 0]
    assert [node.name for node in topology.nodes] == ["m", "a", "b"]
    return topology


def after_round(ready, waking, gated="b", not_before=FINALIZE):
    return post_round(
        ring(gated), 0, END, NODE_END, ready, waking, not_before
    )


def test_ring_facts():
    topology = ring()
    assert topology.settle_ps == 40 * NS
    assert topology.auto_sleepers == (2,)
    assert ring("a").auto_sleepers == (1,)
    assert topology.hop_delay(1, 2) == 1 * NS
    assert topology.hop_delay(2, 1) == 11 * NS


class TestRaiseFromIdle:
    def test_starts_and_falls(self):
        topology = ring()
        falls = {}
        # The mediator's member: settle, then straight to the wakeup,
        # without a fall.
        assert raise_from_idle(topology, falls, 0, 0, pulse=False) == (
            40 * NS + WAKEUP
        )
        assert falls == {}
        # A member's request goes out after the settle and also
        # crosses the ring to the mediator.
        assert raise_from_idle(topology, falls, 1, 0, pulse=False) == (
            51 * NS + WAKEUP
        )
        assert falls == {1: 40 * NS}

    def test_pulses_go_out_at_once(self):
        topology = ring()
        falls = {}
        assert raise_from_idle(topology, falls, 2, 0, pulse=True) == (
            1 * NS + WAKEUP
        )
        # The mediator's own pulse travels the whole ring.
        assert raise_from_idle(topology, {}, 0, 0, pulse=True) == (
            21 * NS + WAKEUP
        )
        assert falls == {2: 0}

    def test_reached_member_observes(self):
        topology = ring()
        # a's request fall (40 ns) reaches b at 41 ns: from then on
        # b is an arbitration observer and neither pulses nor joins.
        falls = {1: 40 * NS}
        assert raise_from_idle(topology, falls, 2, 41 * NS, True) is None
        assert raise_from_idle(topology, falls, 2, 41 * NS, False) is None
        assert falls == {1: 40 * NS}
        # A nanosecond earlier, b's pulse still goes out.
        assert raise_from_idle(topology, falls, 2, 40 * NS, True) == (
            41 * NS + WAKEUP
        )
        assert falls == {1: 40 * NS, 2: 40 * NS}

    def test_wrapped_fall_reaches_upstream_member(self):
        # b's pulse at 0 reaches a through the mediator at 11 ns.
        topology = ring()
        assert raise_from_idle(topology, {2: 0}, 1, 11 * NS, False) is None
        falls = {2: 0}
        assert raise_from_idle(topology, falls, 1, 10 * NS, False) == (
            61 * NS + WAKEUP
        )
        assert falls == {2: 0, 1: 50 * NS}

    def test_a_node_acts_once_per_round(self):
        topology = ring()
        falls = {1: 40 * NS}
        assert raise_from_idle(topology, falls, 1, 0, pulse=False) is None
        assert falls == {1: 40 * NS}

    def test_mediator_member_never_observes(self):
        # b's pulse reaches the mediator's input pad at 1 ns; its
        # member's engine ignores DATA falls and still requests.
        topology = ring()
        falls = {2: 0}
        assert raise_from_idle(topology, falls, 0, 5 * NS, False) == (
            45 * NS + WAKEUP
        )
        assert falls == {2: 0}


class TestPostRound:
    def test_mediator_member_starts_without_a_fall(self):
        step = after_round(ready=[0], waking=[])
        assert step.falls == {}
        assert step.pulsers == []
        assert step.start_ps == NODE_END[0] + 40 * NS + WAKEUP
        # With no fall in flight, the gated node's sleep goes ahead a
        # settle after its observed end.
        assert step.sleeps == [(2, END + 51 * NS)]

    def test_request_fall_suppresses_a_sleep(self):
        step = after_round(ready=[1], waking=[])
        assert step.falls == {1: END + 41 * NS}
        # The fall reaches the mediator at END + 52 ns, before its
        # return-to-idle scan at END + 60 ns.
        assert step.start_ps == RETURN_TO_IDLE + WAKEUP
        # It reaches b at END + 42 ns, before b's sleep at END + 51 ns.
        assert step.sleeps == []

    def test_late_fall_leaves_a_sleep_alone(self):
        # Gated a sleeps at END + 41 ns; b's re-request (END + 51 ns)
        # reaches it at END + 62 ns.
        step = after_round(ready=[2], waking=[], gated="a")
        assert step.falls == {2: END + 51 * NS}
        assert step.sleeps == [(1, END + 41 * NS)]

    def test_sleep_waits_for_the_finalize(self):
        step = after_round(ready=[], waking=[], not_before=END + 99 * NS)
        assert step.sleeps == [(2, END + 99 * NS)]

    def test_node_that_wants_the_bus_does_not_sleep(self):
        assert after_round(ready=[2], waking=[]).sleeps == []
        assert after_round(ready=[], waking=[2]).sleeps == []

    def test_preempted_pulser(self):
        step = after_round(ready=[1], waking=[2])
        # a's re-request reaches b at END + 42 ns, before b would
        # pulse at END + 51 ns: b observes that arbitration instead.
        assert step.pulsers == []
        assert step.falls == {1: END + 41 * NS}
        assert step.start_ps == RETURN_TO_IDLE + WAKEUP

    def test_earlier_pulse_preempts_a_later_one(self):
        step = after_round(ready=[], waking=[2, 1])
        assert step.pulsers == [1]
        assert step.falls == {1: END + 41 * NS}

    def test_pulser_the_fall_reaches_too_late(self):
        step = after_round(ready=[2], waking=[1])
        # b's fall reaches a at END + 62 ns; a pulsed at END + 41 ns.
        assert step.pulsers == [1]
        assert step.falls == {2: END + 51 * NS, 1: END + 41 * NS}
        assert step.start_ps == RETURN_TO_IDLE + WAKEUP

    def test_nobody_wants_the_bus(self):
        step = after_round(ready=[], waking=[])
        assert step.start_ps is None
        assert step.falls == {}
        assert step.pulsers == []
