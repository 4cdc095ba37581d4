"""Binds a compiled injection schedule to a live edge-backend system.

Zero-overhead hook
------------------
The edge engine pays for one wire transition with one heap entry and
one callback: the loop pops the net's ``[time, seq, fn]`` entry and
calls its bound ``_fire_pending``, which calls ``self._apply`` (a
value compare, a transition count and a walk over the listener
tuple; see :mod:`repro.sim.signals`).  Fault interception must cost
nothing on that path when no faults are active.  The injector
therefore never touches :class:`Net` globally: for each *targeted*
segment it swaps the instance's class to :class:`FaultableNet`, a
``__slots__ = ()`` subclass whose ``_apply`` consults per-net fault
state held in a module-level registry.  Untargeted nets (and every
net in a fault-free run) keep the original class and the original
code path, byte for byte.  ``_fire_pending`` looks ``_apply`` up on
the instance when the entry fires, not when it is queued, so an apply
already queued at the swap is filtered by the fault state too.
``finalize()`` restores the classes and empties the registry.  Between
windows a bound net stays bound, so its shadow keeps the drivers'
level through a glitch; its state is then ``neutral`` and the edge
engine's cycle elision treats it as a plain net (``advance`` moves the
shadow with the level).

The registry keeps a strong reference to each faulted net, so an
``id()`` key can never be reused while its entry is live.

Fault semantics realised here
-----------------------------
* ``glitch_edge`` — a raw transition (listeners fire) that bypasses
  the driver-shadow bookkeeping: noise, not intent.
* ``force_start``/``force_end`` — the wire pins to a level; driver
  transitions are shadowed and replayed at release.
* ``drop_start``/``drop_end`` — the next N driver transitions are
  swallowed (the wire holds its stale level); release resyncs.
* ``flip_start``/``flip_end`` — the wire carries the complement of
  whatever is driven during the window.
* ``power_off``/``power_on`` — member brown-out via
  :meth:`repro.core.node.MBusNode.power_loss` and external restore.
* ``clock_drift`` — static ppm skew applied to the node's pad/mux
  delays (and the generated clock period on the mediator node).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.faults.primitives import FaultSpec, Injection
from repro.sim.signals import Net

#: id(net) -> _NetFaultState for every currently-faulted net.
_STATE: Dict[int, "_NetFaultState"] = {}


class _NetFaultState:
    """Mutable per-net fault state (strongly references the net)."""

    __slots__ = ("net", "forced", "inverted", "drop_remaining", "dropped",
                 "shadow")

    def __init__(self, net: Net):
        self.net = net
        self.forced: Optional[int] = None
        self.inverted = False
        self.drop_remaining = 0
        self.dropped = 0
        #: The level the drivers believe the wire holds.
        self.shadow = net.value


class FaultableNet(Net):
    """A :class:`Net` whose applies pass through fault state.

    No extra slots: instances are ordinary ``Net`` objects whose
    ``__class__`` was swapped, so the swap is always legal and
    reversible.  Applies queued before the swap still dispatch here
    (``_fire_pending`` resolves ``self._apply`` at fire time).
    """

    __slots__ = ()

    @property
    def neutral(self) -> bool:  # type: ignore[override]
        """True between windows: nothing forced, inverted or dropped,
        so an apply acts as on a plain :class:`Net` and only moves the
        shadow with it."""
        state = _STATE[id(self)]
        return (
            state.forced is None
            and not state.inverted
            and not state.drop_remaining
        )

    def advance(self, value: int, transitions: int) -> None:
        Net.advance(self, value, transitions)
        if transitions:
            _STATE[id(self)].shadow = value

    def _apply(self, value: int) -> None:
        state = _STATE[id(self)]
        state.shadow = value
        if state.inverted:
            value ^= 1
        if state.forced is not None:
            return                       # pinned: driver intent shadowed
        if value == self._value:
            return
        if state.drop_remaining > 0:
            state.drop_remaining -= 1
            state.dropped += 1
            return                       # edge swallowed; level goes stale
        _raw_transition(self, value)


def _raw_transition(net: Net, value: int) -> None:
    """Flip the wire and notify listeners, bypassing fault state.

    Calls the base-class apply directly so fault-made transitions can
    never diverge from driver-made ones if ``Net._apply`` evolves.
    """
    Net._apply(net, value)


class FaultInjector:
    """Schedules a :class:`FaultSpec`'s compiled actions on a system.

    Lifecycle: construct against a *built* edge-mode
    :class:`~repro.core.bus.MBusSystem`, :meth:`arm` before traffic is
    scheduled, run the simulation, :meth:`finalize` to restore net
    classes and freeze the injection statistics.
    """

    def __init__(self, system, fault_spec: FaultSpec, spec) -> None:
        if getattr(system, "mode", "edge") != "edge":
            raise ConfigurationError(
                "fault injection disturbs wires and power domains; it "
                "requires the edge-accurate backend (mode='edge')"
            )
        self.system = system
        self.fault_spec = fault_spec
        self.schedule: Tuple[Injection, ...] = fault_spec.compile(spec)
        self._armed = False
        self._finalized = False
        self._bound_nets: List[Net] = []
        #: (fault_index, at_ps, kind) for every performed action.
        self.performed: List[Tuple[int, int, str]] = []
        self.counts: Dict[str, int] = {}
        self.edges_injected = 0
        self.edges_dropped = 0

    # ------------------------------------------------------------------
    # Binding.
    # ------------------------------------------------------------------
    def _net_for(self, action: Injection) -> Net:
        node = self.system.node(action.node)
        net = node.dout if action.wire == "data" else node.clkout
        if net is None:
            raise ConfigurationError(
                f"node {action.node!r} has no attached ring segments; "
                "build() the system before arming faults"
            )
        return net

    def _state_for(self, net: Net) -> _NetFaultState:
        state = _STATE.get(id(net))
        if state is None:
            state = _NetFaultState(net)
            _STATE[id(net)] = state
            net.__class__ = FaultableNet
            self._bound_nets.append(net)
        return state

    def arm(self) -> None:
        """Schedule every compiled action on the system's simulator."""
        if self._armed:
            return
        self._armed = True
        sim = self.system.sim
        for action in self.schedule:
            if action.kind == "clock_drift":
                # Static skew: applied immediately at bind time.
                self._apply_clock_drift(action)
                self.performed.append(
                    (action.fault_index, action.at_ps, action.kind)
                )
                self.counts[action.kind] = self.counts.get(action.kind, 0) + 1
                continue
            sim.schedule_at(action.at_ps, self._perform_fn(action))

    def _perform_fn(self, action: Injection):
        return lambda: self._perform(action)

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def _perform(self, action: Injection) -> None:
        handler = getattr(self, "_do_" + action.kind)
        handler(action)
        self.performed.append((action.fault_index, action.at_ps, action.kind))
        self.counts[action.kind] = self.counts.get(action.kind, 0) + 1

    def _do_glitch_edge(self, action: Injection) -> None:
        net = self._net_for(action)
        state = _STATE.get(id(net))
        if state is not None and state.forced is not None:
            return                       # a stuck wire masks the noise
        self.edges_injected += 1
        _raw_transition(net, net.value ^ 1)

    def _do_force_start(self, action: Injection) -> None:
        net = self._net_for(action)
        # _state_for seeds a fresh state's shadow from the wire; an
        # already-bound net keeps its driver-intent shadow (the wire
        # itself may be stale after a DropEdge).
        state = self._state_for(net)
        state.forced = int(action.value)
        _raw_transition(net, state.forced)

    def _do_force_end(self, action: Injection) -> None:
        net = self._net_for(action)
        state = self._state_for(net)
        state.forced = None
        value = state.shadow ^ 1 if state.inverted else state.shadow
        _raw_transition(net, value)

    def _do_drop_start(self, action: Injection) -> None:
        net = self._net_for(action)
        state = self._state_for(net)
        state.drop_remaining += int(action.value)

    def _do_drop_end(self, action: Injection) -> None:
        net = self._net_for(action)
        state = self._state_for(net)
        state.drop_remaining = 0
        if state.forced is None:
            value = state.shadow ^ 1 if state.inverted else state.shadow
            _raw_transition(net, value)

    def _do_flip_start(self, action: Injection) -> None:
        net = self._net_for(action)
        state = self._state_for(net)
        state.inverted = True
        if state.forced is None:
            _raw_transition(net, state.shadow ^ 1)

    def _do_flip_end(self, action: Injection) -> None:
        net = self._net_for(action)
        state = self._state_for(net)
        state.inverted = False
        if state.forced is None:
            _raw_transition(net, state.shadow)

    def _do_power_off(self, action: Injection) -> None:
        self.system.node(action.node).power_loss()

    def _do_power_on(self, action: Injection) -> None:
        node = self.system.node(action.node)
        if not node.bus_domain.is_on:
            node.bus_domain.power_on("fault:power-restored")
        if not node.layer_domain.is_on:
            node.layer_domain.power_on("fault:power-restored")

    def _do_clock_drift(self, action: Injection) -> None:  # pragma: no cover
        # Dispatched inline from arm(); kept for handler completeness.
        self._apply_clock_drift(action)

    def _apply_clock_drift(self, action: Injection) -> None:
        # ``+ppm`` is a uniformly *fast* part: every timescale the
        # node owns shrinks by the factor — pad/mux propagation delays
        # divide by it, and on the mediator the generated clock period
        # divides too (clock_hz multiplies).  One sign convention,
        # physically consistent across all of a node's timing.
        node = self.system.node(action.node)
        factor = 1.0 + action.value / 1e6
        for ctl in (node.data_ctl, node.clk_ctl):
            if ctl is None:
                continue
            ctl.forward_delay_ps = max(1, int(round(
                ctl.forward_delay_ps / factor
            )))
            ctl.drive_delay_ps = max(1, int(round(
                ctl.drive_delay_ps / factor
            )))
        if node.mediator is not None:
            timing = node.mediator.timing
            node.mediator.timing = dataclasses.replace(
                timing, clock_hz=timing.clock_hz * factor
            )

    # ------------------------------------------------------------------
    # Teardown & stats.
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Restore net classes and fold per-net stats into totals."""
        if self._finalized:
            return
        self._finalized = True
        for net in self._bound_nets:
            state = _STATE.pop(id(net), None)
            if state is not None:
                self.edges_dropped += state.dropped
            net.__class__ = Net
        self._bound_nets = []
