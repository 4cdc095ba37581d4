"""Digital nets with propagation delay and edge callbacks.

A :class:`Net` models one electrical node of the MBus ring — e.g. the
segment of the DATA ring between node *i*'s DOUT pad and node *i+1*'s
DIN pad.  A net holds a binary value, notifies listeners on every
transition, and can be *chained* to downstream nets with a fixed
propagation delay (wire + pad + receiver buffer).

Only one agent should logically drive a net at a time; MBus guarantees
this structurally (each ring segment has exactly one upstream driver).
The net itself does not arbitrate — it simply takes the last scheduled
transition, which mirrors how a totem-pole driver overwrites the wire.

Hot-path notes
--------------
``Net.set`` / ``Net._apply`` run once per transition of every segment
of both rings — millions of times in the burst benchmarks — so this
module avoids per-call allocation and per-call indirection:

* a delayed ``set`` pushes its own ``[time, seq, fn]`` heap entry
  straight onto the simulator's queue (no :class:`Event` handle, no
  ``schedule`` call), and a later ``set`` supersedes it by clearing
  that entry's ``fn`` slot in place — O(1), and the loop discards it
  when popped (see :mod:`repro.sim.scheduler`);
* every entry's ``fn`` is the same bound ``_fire_pending``, created
  once per net; it calls ``self._apply`` at fire time, so an apply
  queued before a fault injector swaps the net's class still goes
  through the new class's ``_apply``;
* the listener chain is stored as an immutable tuple (snapshotted on
  registration, not copied per edge);
* the net counts its own transitions, so the wire controller that
  drives it needs no listener on it (it splits the count between
  forwarding and driving when it switches mode);
* :class:`EdgeType` is an :class:`enum.IntEnum` whose two members are
  cached at module level, so edge classification is an index into a
  pair instead of an Enum construction, and hot listeners may compare
  with plain ints (``edge == 0`` for falling).
"""

from __future__ import annotations

import enum
from heapq import heappush
from typing import Callable, Optional, Tuple

from repro.sim.scheduler import SimulationError, Simulator


class EdgeType(enum.IntEnum):
    """Classification of a net transition.

    An ``IntEnum`` so hot-path dispatch can use the integer value
    (``FALLING == 0``, ``RISING == 1`` — i.e. the new net value)
    while identity comparisons (``edge is EdgeType.RISING``) keep
    working for readability elsewhere.
    """

    FALLING = 0
    RISING = 1

    @staticmethod
    def of(old: int, new: int) -> "EdgeType":
        return _RISING if new > old else _FALLING


#: Module-level singletons: hot paths index ``_EDGES[new_value]``
#: instead of calling the Enum machinery.
_FALLING = EdgeType.FALLING
_RISING = EdgeType.RISING
_EDGES = (_FALLING, _RISING)

#: Signature of an edge callback: ``fn(net, edge_type)``.
EdgeCallback = Callable[["Net", EdgeType], None]


class Net:
    """A single binary net with delayed fan-out.

    Parameters
    ----------
    sim:
        Owning simulator (supplies time and the event queue).
    name:
        Hierarchical name, e.g. ``"n2.dout"``; used by tracers.
    initial:
        Idle MBus lines rest high, so the default is 1.
    """

    __slots__ = (
        "sim",
        "name",
        "_value",
        "_listeners",
        "_pending",
        "_pending_value",
        "_apply_pending",
        "transitions",
    )

    def __init__(self, sim: Simulator, name: str, initial: int = 1):
        self.sim = sim
        self.name = name
        self._value = initial
        # Immutable snapshot: rebuilt on registration, never copied on
        # the per-edge hot path.  Registration during notification is
        # still safe — an in-flight iteration keeps the old tuple.
        self._listeners: Tuple[EdgeCallback, ...] = ()
        #: The queued heap entry of a delayed set(), until it fires.
        self._pending: Optional[list] = None
        self._pending_value = 0
        # One reusable bound applier instead of a fresh lambda per
        # delayed set().
        self._apply_pending = self._fire_pending
        #: Number of value changes so far (driver-made or injected).
        #: A line controller splits it between forwarding and driving
        #: instead of listening to every edge of its output.
        self.transitions = 0

    #: True when an apply only changes the level and notifies the
    #: listeners (a fault injector's net overrides it).
    neutral = True

    @property
    def value(self) -> int:
        """Current logic level (0 or 1)."""
        return self._value

    def advance(self, value: int, transitions: int) -> None:
        """Account for ``transitions`` applies that changed the level,
        ending at ``value``, without notifying listeners: the bulk
        update of cycle elision, which applies their effect itself."""
        self._value = value
        self.transitions += transitions

    def on_edge(self, fn: EdgeCallback) -> None:
        """Register ``fn`` to be called on every transition.

        The listener chain is flattened into a tuple here, at
        registration time (all registrations happen during system
        ``build()``), so the per-edge dispatch loop iterates a frozen
        snapshot with no defensive copy.
        """
        self._listeners = self._listeners + (fn,)

    def set(self, value: int, delay: int = 0) -> None:
        """Drive the net to ``value`` after ``delay`` picoseconds.

        A later ``set`` supersedes an earlier pending one (the driver
        changed its mind before the wire settled) — this resolves the
        momentary glitches the paper notes occur when nodes switch
        between driving and forwarding.
        """
        value = 1 if value else 0
        pending = self._pending
        if pending is not None:
            pending[2] = None            # cancelled in place
            self.sim._cancelled += 1
            self._pending = None
        if delay > 0:
            sim = self.sim
            entry = [sim._now + delay, sim._seq, self._apply_pending]
            sim._seq += 1
            heappush(sim._queue, entry)
            self._pending = entry
            self._pending_value = value
        elif delay == 0:
            self._apply(value)
        else:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})"
            )

    def _fire_pending(self) -> None:
        self._pending = None
        self._apply(self._pending_value)

    def _apply(self, value: int) -> None:
        if value == self._value:
            return
        self._value = value
        self.transitions += 1
        edge = _EDGES[value]
        for fn in self._listeners:
            fn(self, edge)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Net {self.name}={self._value}>"


def connect(upstream: Net, downstream: Net, delay: int) -> None:
    """Propagate transitions on ``upstream`` to ``downstream``.

    This models a passive wire of fixed delay.  MBus nodes do *not* use
    this for forwarding (forwarding goes through the node's wire
    controller, which may break the chain); it exists for testbench
    plumbing such as probing a ring segment from two observers.
    """

    def _relay(net: Net, _edge: EdgeType) -> None:
        downstream.set(net.value, delay=delay)

    upstream.on_edge(_relay)
