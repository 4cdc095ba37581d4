"""Fast-path backend: transaction-level MBus simulation.

The edge-accurate engine (:mod:`repro.core.bus` with ``mode="edge"``)
schedules a Python event for every transition of every ring segment —
hundreds of events per transaction.  This backend replaces that with a
handful of events per transaction: each bus round is computed in
closed form by :mod:`repro.core.tlm_engine` and realised as

* one *start* event (the mediator's self-start),
* one power on/off event per hierarchical wakeup or auto-sleep, and
* one *finalize* event that performs deliveries, transaction-result
  assembly and re-arming of queued traffic.

What happens between rounds — round starts from idle, re-requests,
null pulses, auto-sleeps — is the post-round policy in
:mod:`repro.core.tlm_engine`, the same functions the batch executor
(:mod:`repro.batch.executor`) calls.

The backend drives the same :class:`~repro.sim.scheduler.Simulator`,
:class:`~repro.core.power_domain.PowerDomain` objects and
:class:`~repro.core.bus.TransactionResult` plumbing as the edge
engine, so ``MBusSystem(mode="fast")`` is a drop-in replacement for
workloads that operate at message granularity.  The edge engine
remains the golden reference: waveform tracing, third-party
interjection and other intra-transaction behaviours require
``mode="edge"``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.core import constants
from repro.core.bus_controller import TxOutcome
from repro.core.mediator import MediatorReport
from repro.core.messages import Message, ReceivedMessage
from repro.core.tlm_engine import (
    NodeRoundState,
    RoundContext,
    TransactionPlan,
    lower_ring,
    plan_round,
    post_round,
    raise_from_idle,
)
from repro.obs.state import OBS


class FastPathBackend:
    """Transaction-level executor behind ``MBusSystem(mode="fast")``."""

    def __init__(self, system) -> None:
        self.system = system
        self.sim = system.sim
        order, self.topology = lower_ring(
            [node.config for node in system.nodes], system.timing
        )
        self.nodes = [system.nodes[i] for i in order]
        self._positions = {node.name: pos for pos, node in enumerate(self.nodes)}
        self.queues: Dict[int, Deque[Message]] = {
            pos: deque() for pos in range(len(self.nodes))
        }
        self.anchor_pos: Optional[int] = None
        self.max_message_bytes = constants.MIN_MAX_MESSAGE_BYTES
        self.active = False
        self._pulsers: set = set()
        # The coming round's DATA falls (repro.core.tlm_engine).
        self._falls: Dict[int, int] = {}
        self._start_event = None
        self._start_t0: Optional[int] = None
        self._tx_index = 0
        self._wire_activity = {node.name: 0 for node in self.nodes}
        for node in self.nodes:
            node.fast_backend = self

    # ------------------------------------------------------------------
    # Node-facing API (delegated from MBusNode).
    # ------------------------------------------------------------------
    def post_message(self, node, message: Message) -> None:
        pos = self._position(node)
        self.queues[pos].append(message)
        if self.active:
            return  # picked up when the in-flight round finalises
        self._raise(pos, pulse=not node.is_fully_awake)

    def trigger_interrupt(self, node) -> None:
        node.pending_interrupt = True
        if self.active:
            return
        self._raise(self._position(node), pulse=True)

    def node_busy(self, node) -> bool:
        return self.active

    # ------------------------------------------------------------------
    # System-facing API.
    # ------------------------------------------------------------------
    @property
    def is_idle(self) -> bool:
        return (
            not self.active
            and self._start_event is None
            and not any(self.queues.values())
            and not any(n.pending_interrupt for n in self.nodes)
        )

    def wire_activity(self) -> Dict[str, int]:
        return dict(self._wire_activity)

    def set_anchor(self, name: Optional[str]) -> None:
        """Anchor by node name (positions here are mediator-rooted)."""
        self.anchor_pos = None if name is None else self._positions[name]

    # ------------------------------------------------------------------
    # Round triggering.
    # ------------------------------------------------------------------
    def _position(self, node) -> int:
        return self._positions[node.name]

    def _raise(self, pos: int, pulse: bool) -> None:
        """A request, or a sleeping (or layer-gated) node's interrupt
        pulse, raised while the bus is idle."""
        t0 = raise_from_idle(
            self.topology, self._falls, pos, self.sim.now, pulse
        )
        if t0 is None:
            return
        if pulse:
            self.nodes[pos].pending_interrupt = True
            self._pulsers.add(pos)
        self._schedule_start(t0)

    def _schedule_start(self, t0: int) -> None:
        if self.active:
            return
        if self._start_event is not None:
            if self._start_t0 <= t0:
                return
            self._start_event.cancel()
        self._start_t0 = t0
        self._start_event = self.sim.schedule_at(t0, self._begin_round)

    # ------------------------------------------------------------------
    # Round execution.
    # ------------------------------------------------------------------
    def _begin_round(self) -> None:
        self._start_event = None
        self._start_t0 = None
        # A node that raised the null pulse cannot arbitrate in its
        # own pulse round: releasing the pulse at the first clock
        # falling edge switches its line controller back to forwarding,
        # wiping any request it had driven (the edge engine therefore
        # runs a General Error round first and the message goes out in
        # the following one).  A member requests only if its own fall
        # is among the round's: one that posted after another's fall
        # reached it sits this round out.
        falls = self._falls
        requests = {
            pos: queue[0]
            for pos, queue in self.queues.items()
            if queue
            and self.nodes[pos].is_fully_awake
            and pos not in self._pulsers
            and (pos == 0 or pos in falls)
        }
        states = {
            pos: NodeRoundState(
                bus_on=node.bus_domain.is_on,
                layer_on=node.layer_domain.is_on,
                pending_interrupt=node.pending_interrupt,
                is_pulser=pos in self._pulsers,
            )
            for pos, node in enumerate(self.nodes)
        }
        self._pulsers.clear()
        self._falls = {}
        ctx = RoundContext(
            topology=self.topology,
            t0=self.sim.now,
            requests=requests,
            states=states,
            anchor_pos=self.anchor_pos,
            max_message_bytes=self.max_message_bytes,
        )
        plan = plan_round(ctx)
        self.active = True
        for pos, at_ps in plan.bus_wake_at.items():
            node = self.nodes[pos]
            reason = "interrupt" if states[pos].is_pulser else "transaction"
            self.sim.schedule_at(
                at_ps, _power_on_fn(node.bus_domain, reason)
            )
        for pos, (at_ps, reason) in plan.layer_wake_at.items():
            node = self.nodes[pos]
            self.sim.schedule_at(
                at_ps, _power_on_fn(node.layer_domain, reason)
            )
        self.sim.schedule_at(
            max(plan.node_end_at.values()), lambda: self._finalize(plan)
        )

    def _finalize(self, plan: TransactionPlan) -> None:
        # Stay "busy" through result/delivery callbacks: the edge
        # engine fires on_tx_done/on_rx_done before its FSM returns to
        # IDLE, so e.g. node.sleep() from an on_receive handler raises
        # on both backends.  Interrupt servicing below happens after
        # the engines idle, so the flag drops first there.
        order = sorted(plan.node_end_at, key=plan.node_end_at.get)

        # Transmit outcome first at the transmitter's end-of-round.
        if plan.winner is not None:
            tx_node = self.nodes[plan.winner]
            queue = self.queues[plan.winner]
            if queue and queue[0] is plan.message:
                queue.popleft()
            outcome = TxOutcome(
                message=plan.message,
                control=plan.tx_control,
                success=plan.tx_success,
                bytes_sent=plan.tx_bytes_sent,
            )
            tx_node.results.append(outcome)
            if tx_node.on_result is not None:
                tx_node.on_result(tx_node, outcome)

        # Deliveries, in ring-arrival order (members, then mediator).
        for delivery in plan.rx:
            if not delivery.delivered:
                continue
            node = self.nodes[delivery.position]
            received = ReceivedMessage(
                source_hint="",
                dest=plan.message.dest,
                payload=delivery.payload,
                broadcast=plan.message.dest.is_broadcast,
                control=delivery.control,
                arrived_at_ps=delivery.arrived_at_ps,
            )
            node.inbox.append(received)
            node.layer.deliver(received)
            if node.on_receive is not None:
                node.on_receive(node, received)

        # Interrupt servicing at each node's observed transaction end.
        self.active = False
        for pos in order:
            node = self.nodes[pos]
            if node.pending_interrupt and node.is_fully_awake:
                node.pending_interrupt = False
                if node.on_interrupt is not None:
                    node.on_interrupt(node)

        report = MediatorReport(
            index=self._tx_index,
            start_ps=plan.t0,
            end_ps=plan.end_ps,
            clock_cycles=plan.clock_cycles,
            control_cycles=plan.control_cycles,
            control_bits=tuple(plan.control.value),
            general_error=plan.general_error,
            error_reason=plan.error_reason,
        )
        self._tx_index += 1
        for pos, count in plan.wire_activity.items():
            self._wire_activity[self.nodes[pos].name] += count
        self.system._assemble_result(report)
        if OBS.enabled:
            OBS.metrics.inc("fastpath.rounds")

        # Re-arm whatever traffic remains, then let idle gated nodes
        # sleep (see repro.core.tlm_engine's post-round policy).
        ready, waking = [], []
        for pos, node in enumerate(self.nodes):
            if self.queues[pos] and node.is_fully_awake:
                ready.append(pos)
            elif self.queues[pos] or node.pending_interrupt:
                waking.append(pos)
        rearm = post_round(
            self.topology, 0, plan.end_ps, plan.node_end_at, ready, waking,
            self.sim.now,
        )
        for pos in waking:
            self.nodes[pos].pending_interrupt = True
        self._pulsers.update(rearm.pulsers)
        # Raises from the interrupt handlers above keep their falls.
        self._falls.update(rearm.falls)
        if rearm.start_ps is not None:
            self._schedule_start(rearm.start_ps)
        for pos, at_ps in rearm.sleeps:
            self.sim.schedule_at(at_ps, _auto_sleep_fn(self, pos))

    def _auto_sleep(self, pos: int) -> None:
        node = self.nodes[pos]
        if self.active or self.queues[pos] or node.pending_interrupt:
            return
        if node.layer_domain.is_on:
            node.layer_domain.power_off("auto-sleep")
        if node.bus_domain.is_on:
            node.bus_domain.power_off("auto-sleep")


def _power_on_fn(domain, reason):
    return lambda: domain.power_on(reason)


def _auto_sleep_fn(backend, pos):
    return lambda: backend._auto_sleep(pos)
