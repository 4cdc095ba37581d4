"""Fast-path backend: transaction-level MBus simulation.

The edge-accurate engine (:mod:`repro.core.bus` with ``mode="edge"``)
schedules a Python event for every transition of every ring segment —
hundreds of events per transaction.  This backend replaces that with a
handful of events per transaction.  Each bus round resolves from the
system's :class:`~repro.core.tlm_engine.RoundTable`, keyed by the
live nodes' requests, power and interrupt state (the same
:meth:`~repro.core.tlm_engine.RoundTable.resolve` the batch executor
calls: a new payload of a known message shape is overlaid on the
shape's plan, anything else planned once at ``t0 = 0``), and the
template is realised at the round's start ``t0`` as

* one *start* event (the mediator's self-start),
* one power on/off event per hierarchical wakeup or auto-sleep, at
  ``t0`` plus the template's offset, and
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
from dataclasses import replace
from typing import Deque, Dict, Optional

from repro.core import constants
from repro.core.bus_controller import TxOutcome
from repro.core.mediator import MediatorReport
from repro.core.messages import ControlCode, Message, ReceivedMessage
from repro.core.tlm_engine import (
    MAX_TEMPLATES,
    RoundContext,
    RoundKey,
    RoundTable,
    RoundTemplate,
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
        self.templates = RoundTable(RoundContext(
            self.topology, None, constants.MIN_MAX_MESSAGE_BYTES
        ), MAX_TEMPLATES)
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
        pos = None if name is None else self._positions[name]
        self._new_ring_settings(anchor_pos=pos)

    def set_max_message_bytes(self, n_bytes: int) -> None:
        """The runaway watchdog's limit (already clamped)."""
        self._new_ring_settings(max_message_bytes=n_bytes)

    def _new_ring_settings(self, **changes) -> None:
        # Every template was planned under the old settings.
        self.templates = RoundTable(
            replace(self.templates.ctx, **changes), MAX_TEMPLATES
        )

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
    def _round_key(self) -> RoundKey:
        """The coming round's key, read off the live nodes.

        A node that raised the null pulse cannot arbitrate in its own
        pulse round: releasing the pulse at the first clock falling
        edge switches its line controller back to forwarding, wiping
        any request it had driven (the edge engine therefore runs a
        General Error round first and the message goes out in the
        following one).  A member requests only if its own fall is
        among the round's: one that posted after another's fall
        reached it sits this round out.
        """
        pulsers, falls = self._pulsers, self._falls
        requests = []
        states = []
        for pos, node in enumerate(self.nodes):
            bus_on = node.bus_domain.is_on
            layer_on = node.layer_domain.is_on
            queue = self.queues[pos]
            if (
                queue and bus_on and layer_on and pos not in pulsers
                and (pos == 0 or pos in falls)
            ):
                requests.append((pos, queue[0]))
            if not (bus_on and layer_on) or node.pending_interrupt:
                states.append((pos, bus_on, layer_on, node.pending_interrupt))
        return RoundKey(tuple(requests), tuple(states), tuple(sorted(pulsers)))

    def _begin_round(self) -> None:
        self._start_event = None
        self._start_t0 = None
        key = self._round_key()
        self._pulsers.clear()
        self._falls = {}
        tpl = self.templates.resolve(key, plan_round)
        t0 = self.sim.now
        self.active = True
        for pos, off, reason in tpl.bus_wake:
            self.sim.schedule_at(
                t0 + off, _power_on_fn(self.nodes[pos].bus_domain, reason)
            )
        for pos, off, reason in tpl.layer_wake:
            self.sim.schedule_at(
                t0 + off, _power_on_fn(self.nodes[pos].layer_domain, reason)
            )
        self.sim.schedule_at(t0 + tpl.fin_off, lambda: self._finalize(t0, tpl))

    def _finalize(self, t0: int, tpl: RoundTemplate) -> None:
        # Stay "busy" through result/delivery callbacks: the edge
        # engine fires on_tx_done/on_rx_done before its FSM returns to
        # IDLE, so e.g. node.sleep() from an on_receive handler raises
        # on both backends.  Interrupt servicing below happens after
        # the engines idle, so the flag drops first there.

        # Transmit outcome first at the transmitter's end-of-round.
        if tpl.winner is not None:
            tx_node = self.nodes[tpl.winner]
            outcome = TxOutcome(
                message=self.queues[tpl.winner].popleft(),
                control=tpl.tx_control,
                success=tpl.tx_control is ControlCode.EOM_ACK,
                bytes_sent=tpl.tx_bytes_sent,
            )
            tx_node.results.append(outcome)
            if tx_node.on_result is not None:
                tx_node.on_result(tx_node, outcome)

        # Deliveries, in ring-arrival order (members, then mediator).
        for name, dest, payload, broadcast, control, arr_off in tpl.rx:
            node = self.nodes[self._positions[name]]
            received = ReceivedMessage(
                source_hint="",
                dest=dest,
                payload=payload,
                broadcast=broadcast,
                control=control,
                arrived_at_ps=t0 + arr_off,
            )
            node.inbox.append(received)
            node.layer.deliver(received)
            if node.on_receive is not None:
                node.on_receive(node, received)

        # Interrupt servicing at each node's observed transaction end.
        self.active = False
        for pos in tpl.end_order:
            node = self.nodes[pos]
            if node.pending_interrupt and node.is_fully_awake:
                node.pending_interrupt = False
                if node.on_interrupt is not None:
                    node.on_interrupt(node)

        report = MediatorReport(
            index=self._tx_index,
            start_ps=t0,
            end_ps=t0 + tpl.end_off,
            clock_cycles=tpl.clock_cycles,
            control_cycles=tpl.control_cycles,
            control_bits=tpl.control.value,
            general_error=tpl.general_error,
            error_reason=tpl.error_reason,
        )
        self._tx_index += 1
        for node, count in zip(self.nodes, tpl.wire_row):
            self._wire_activity[node.name] += count
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
            self.topology, t0, tpl.end_off, tpl.node_end_off, ready, waking,
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
