"""Declarative fault primitives that compile to injection schedules.

A fault is a frozen dataclass describing one physical adversity — a
burst of spurious edges, a stuck wire, a dropped pulse, an inverted
window, oscillator skew, or a mid-transaction power loss.  Like
:class:`~repro.scenario.spec.SystemSpec` and
:class:`~repro.scenario.workload.Workload`, faults:

* **round-trip through JSON** — ``to_dict()`` /
  :func:`fault_from_dict` reconstruct an equal object, so a whole
  reliability study (topology + traffic + adversity) lives in
  version-controlled documents;
* **compile deterministically** — :meth:`FaultSpec.compile` yields a
  time-sorted tuple of low-level :class:`Injection` actions that is a
  pure function of ``(fault spec, system spec)``; seeded primitives
  (:class:`RandomGlitches`) use their own :class:`random.Random`, so
  the same seed always produces the same schedule;
* **are backend-checked, not backend-aware** — the compiled schedule
  carries no simulator references; binding to live nets happens in
  :class:`~repro.faults.injector.FaultInjector`, which requires the
  edge-accurate engine (the fast path has no wires to disturb).

Wire targeting: ``node``/``wire`` name the ring segment *driven by*
that node — its DATA-out or CLK-out pad net — which is simultaneously
the next node's input.  Faults propagate downstream exactly as real
noise would: through every forwarding wire controller until a driving
node or the mediator's arbitration break absorbs them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.schema import Document, Kinds

#: Integer picoseconds per second (matches the scheduler's time base).
PS_PER_S = 1_000_000_000_000

WIRES = ("data", "clk")


def _ps(seconds: float, what: str) -> int:
    if seconds < 0:
        raise ConfigurationError(f"{what} must be non-negative, got {seconds}")
    return int(round(seconds * PS_PER_S))


def _check_wire(wire: str) -> None:
    if wire not in WIRES:
        raise ConfigurationError(f"wire must be one of {WIRES}, not {wire!r}")


def _check_node(spec, name: str, kind: str) -> None:
    if name not in spec.node_names:
        raise ConfigurationError(
            f"{kind} targets unknown node {name!r}; spec has "
            f"{list(spec.node_names)}"
        )


# ----------------------------------------------------------------------
# The compilation target.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Injection:
    """One low-level injector action at an absolute simulation time.

    ``kind`` is the injector dispatch key (``glitch_edge``,
    ``force_start``/``force_end``, ``drop_start``/``drop_end``,
    ``flip_start``/``flip_end``, ``power_off``/``power_on``,
    ``clock_drift``); ``fault_index`` points back at the primitive in
    ``FaultSpec.faults`` that produced it, for outcome classification.
    """

    at_ps: int
    kind: str
    node: str
    wire: str = ""
    value: float = 0
    fault_index: int = -1


class Fault(Document):
    """Base class for fault primitives: like a ``Workload``, a frozen
    dataclass with a registered ``kind`` whose document is its fields
    plus that ``kind`` (:class:`~repro.core.schema.Document`)."""

    kind: str = ""
    derived_keys = ("kind",)

    def _injections(self, spec) -> Iterable[Injection]:
        raise NotImplementedError


_FAULT_KINDS = Kinds("fault", Fault)


@_FAULT_KINDS.register
@dataclass(frozen=True)
class WireGlitch(Fault):
    """``edges`` spurious transitions on a ring segment (EMI burst).

    Each edge toggles the wire away from its instantaneous value;
    an even ``edges`` count restores the original level (a transient
    glitch — resolved before the next latch edge if ``width_s`` is
    short, exactly the case the paper's edge semantics tolerate), an
    odd count parks the wire inverted until the driver next changes
    it (persistent corruption).  ``edges >= interjection_threshold``
    toggles landing between two CLK edges saturate every downstream
    interjection detector (Section 4.9) and force the bus into
    control mode.
    """

    node: str
    at_s: float
    wire: str = "data"
    edges: int = 6
    width_s: float = 50e-9
    kind = "wire_glitch"

    def _injections(self, spec):
        _check_node(spec, self.node, "WireGlitch")
        _check_wire(self.wire)
        if self.edges < 1:
            raise ConfigurationError("WireGlitch needs at least one edge")
        t0 = _ps(self.at_s, "at_s")
        width = _ps(self.width_s, "width_s")
        for i in range(self.edges):
            yield Injection(
                at_ps=t0 + i * width,
                kind="glitch_edge",
                node=self.node,
                wire=self.wire,
            )


@_FAULT_KINDS.register
@dataclass(frozen=True)
class StuckAt(Fault):
    """Force a ring segment to ``value`` for a window (solder bridge,
    shorted pad).  Driver transitions during the window are shadowed
    and the wire snaps to the driver's intended level when released."""

    node: str
    at_s: float
    duration_s: float
    value: int = 0
    wire: str = "data"
    kind = "stuck_at"

    def _injections(self, spec):
        _check_node(spec, self.node, "StuckAt")
        _check_wire(self.wire)
        if self.value not in (0, 1):
            raise ConfigurationError("StuckAt value must be 0 or 1")
        if self.duration_s <= 0:
            raise ConfigurationError("StuckAt needs a positive duration_s")
        t0 = _ps(self.at_s, "at_s")
        yield Injection(
            at_ps=t0, kind="force_start", node=self.node, wire=self.wire,
            value=self.value,
        )
        yield Injection(
            at_ps=t0 + _ps(self.duration_s, "duration_s"),
            kind="force_end", node=self.node, wire=self.wire,
        )


@_FAULT_KINDS.register
@dataclass(frozen=True)
class DropEdge(Fault):
    """Swallow the next ``count`` transitions on a segment (marginal
    driver, cracked bond wire).  The wire holds its stale level while
    edges are dropped; with ``duration_s`` set, any undropped budget
    expires at the window end and the wire resyncs to the driver."""

    node: str
    at_s: float
    count: int = 1
    duration_s: Optional[float] = None
    wire: str = "clk"
    kind = "drop_edge"

    def _injections(self, spec):
        _check_node(spec, self.node, "DropEdge")
        _check_wire(self.wire)
        if self.count < 1:
            raise ConfigurationError("DropEdge needs count >= 1")
        t0 = _ps(self.at_s, "at_s")
        yield Injection(
            at_ps=t0, kind="drop_start", node=self.node, wire=self.wire,
            value=self.count,
        )
        if self.duration_s is not None:
            if self.duration_s <= 0:
                raise ConfigurationError("DropEdge duration_s must be positive")
            yield Injection(
                at_ps=t0 + _ps(self.duration_s, "duration_s"),
                kind="drop_end", node=self.node, wire=self.wire,
            )


@_FAULT_KINDS.register
@dataclass(frozen=True)
class BitFlip(Fault):
    """Invert a segment for a window: every level carried during
    ``[at_s, at_s + duration_s)`` reads as its complement, so any
    latch edge inside the window samples a flipped bit."""

    node: str
    at_s: float
    duration_s: float
    wire: str = "data"
    kind = "bit_flip"

    def _injections(self, spec):
        _check_node(spec, self.node, "BitFlip")
        _check_wire(self.wire)
        if self.duration_s <= 0:
            raise ConfigurationError("BitFlip needs a positive duration_s")
        t0 = _ps(self.at_s, "at_s")
        yield Injection(
            at_ps=t0, kind="flip_start", node=self.node, wire=self.wire,
        )
        yield Injection(
            at_ps=t0 + _ps(self.duration_s, "duration_s"),
            kind="flip_end", node=self.node, wire=self.wire,
        )


@_FAULT_KINDS.register
@dataclass(frozen=True)
class ClockDrift(Fault):
    """Static timing skew of ``ppm`` parts per million.

    Applied at bind time with one sign convention: ``+ppm`` is a
    uniformly *fast* part, so every timescale the node owns shrinks
    by ``1 + ppm / 1e6`` — its pad/mux propagation delays divide by
    the factor and, on the mediator node, the generated bus clock
    period divides too (the clock runs fast).  MBus's
    source-synchronous edges make moderate drift invisible — the
    reliability experiment this enables is showing exactly how much
    skew the protocol absorbs.
    """

    node: str
    ppm: float
    kind = "clock_drift"

    def _injections(self, spec):
        _check_node(spec, self.node, "ClockDrift")
        if abs(self.ppm) >= 1e6:
            raise ConfigurationError("ClockDrift ppm must be within ±1e6")
        yield Injection(
            at_ps=0, kind="clock_drift", node=self.node, value=self.ppm,
        )


@_FAULT_KINDS.register
@dataclass(frozen=True)
class NodePowerLoss(Fault):
    """A member node browns out at ``at_s``: both gated domains drop,
    all transaction state is lost and the always-on wire controllers
    revert to forwarding (Section 3's robustness scenario).

    The node re-wakes through the normal four-edge sequence on
    subsequent bus activity; with ``duration_s`` set, external supply
    returns and both domains are re-powered directly at the window
    end.  The mediator cannot be the target — it must self-start, so
    its frontend is modelled as never power-gated (Section 4.2).
    """

    node: str
    at_s: float
    duration_s: Optional[float] = None
    kind = "power_loss"

    def _injections(self, spec):
        _check_node(spec, self.node, "NodePowerLoss")
        if spec.node(self.node).is_mediator:
            raise ConfigurationError(
                "NodePowerLoss cannot target the mediator: the paper's "
                "robustness story covers member-node power loss "
                "(the mediator frontend must always self-start)"
            )
        t0 = _ps(self.at_s, "at_s")
        yield Injection(at_ps=t0, kind="power_off", node=self.node)
        if self.duration_s is not None:
            if self.duration_s <= 0:
                raise ConfigurationError(
                    "NodePowerLoss duration_s must be positive"
                )
            yield Injection(
                at_ps=t0 + _ps(self.duration_s, "duration_s"),
                kind="power_on", node=self.node,
            )


@_FAULT_KINDS.register
@dataclass(frozen=True)
class RandomGlitches(Fault):
    """Seeded pseudo-random EMI: glitch bursts at ``rate_hz`` over a
    window, spread across the targeted segments.

    Inter-arrival times are exponential with mean ``1 / rate_hz``
    (memoryless noise); each arrival picks a target node uniformly
    and emits a :class:`WireGlitch`-shaped burst of ``edges``
    transitions.  The schedule is a pure function of ``(seed, spec)``
    — identical on every run, which is what makes
    recovery-rate-vs-glitch-rate sweeps reproducible.

    The default single-edge burst never saturates an interjection
    detector (one spurious toggle plus one data toggle stays under
    the threshold of 3); raise ``edges`` past the spec's
    ``interjection_threshold`` to model storms that do.
    """

    seed: int = 0
    rate_hz: float = 100.0
    duration_s: float = 0.01
    start_s: float = 0.0
    wire: str = "data"
    nodes: Optional[Tuple[str, ...]] = None
    edges: int = 1
    width_s: float = 50e-9
    kind = "random_glitches"

    def __post_init__(self) -> None:
        if self.nodes is not None and not isinstance(self.nodes, tuple):
            object.__setattr__(self, "nodes", tuple(self.nodes))

    def _injections(self, spec):
        _check_wire(self.wire)
        if self.rate_hz < 0:
            raise ConfigurationError("rate_hz must be non-negative")
        if self.duration_s <= 0:
            raise ConfigurationError("RandomGlitches needs duration_s > 0")
        if self.edges < 1:
            raise ConfigurationError("RandomGlitches needs edges >= 1")
        targets = self.nodes or spec.node_names
        for name in targets:
            _check_node(spec, name, "RandomGlitches")
        if self.rate_hz == 0:
            return
        rng = random.Random(self.seed)
        t = self.start_s
        end = self.start_s + self.duration_s
        width = _ps(self.width_s, "width_s")
        while True:
            t += rng.expovariate(self.rate_hz)
            if t >= end:
                break
            node = targets[rng.randrange(len(targets))]
            t0 = _ps(t, "glitch time")
            for i in range(self.edges):
                yield Injection(
                    at_ps=t0 + i * width,
                    kind="glitch_edge",
                    node=node,
                    wire=self.wire,
                )


# ----------------------------------------------------------------------
# The container: a named, composable set of faults.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec(Document):
    """An ordered set of fault primitives applied to one run.

    Empty fault specs are valid and behave exactly like passing no
    faults at all to the runner — same backend selection, same
    transaction stream — while still producing a
    :class:`~repro.faults.report.ReliabilityReport` (the clean
    baseline row of a reliability sweep).
    """

    faults: Tuple[Fault, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __add__(self, other: "FaultSpec") -> "FaultSpec":
        if not isinstance(other, FaultSpec):
            return NotImplemented
        return FaultSpec(
            faults=self.faults + other.faults,
            name=self.name or other.name,
        )

    def compile(self, spec) -> Tuple[Injection, ...]:
        """The deterministic, time-sorted injection schedule for
        ``spec``.  ``fault_index`` on every action names the source
        primitive; ordering ties break by primitive order."""
        actions = []
        for index, fault in enumerate(self.faults):
            for action in fault._injections(spec):
                actions.append(
                    Injection(
                        at_ps=action.at_ps,
                        kind=action.kind,
                        node=action.node,
                        wire=action.wire,
                        value=action.value,
                        fault_index=index,
                    )
                )
        return tuple(sorted(actions, key=lambda a: (a.at_ps, a.fault_index)))

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], lenient: bool = False
    ) -> "FaultSpec":
        # Declared here, not only inherited: perfbench/spans.py times
        # fault decoding by wrapping this class's own attribute.
        return super().from_dict(data, lenient)


def fault_from_dict(data: Any, lenient: bool = False) -> Fault:
    """Rebuild a fault primitive from :meth:`Fault.to_dict` output.

    ``lenient=True`` drops unknown parameters (future schema growth);
    an unknown *kind* always fails — there is nothing to fall back to.
    """
    return _FAULT_KINDS.decode(data, lenient)


def normalize_faults(faults) -> Optional[FaultSpec]:
    """Coerce the runner's ``faults=`` argument to a FaultSpec.

    Accepts ``None`` (no reliability analysis), a :class:`FaultSpec`,
    a single :class:`Fault`, or an iterable of faults.
    """
    if faults is None or isinstance(faults, FaultSpec):
        return faults
    if isinstance(faults, Fault):
        return FaultSpec(faults=(faults,))
    return FaultSpec(faults=tuple(faults))
