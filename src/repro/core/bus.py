"""MBus system assembly and orchestration.

Builds the two shoot-through rings (Figure 4) out of
:class:`~repro.core.node.MBusNode` instances, runs the event
simulation, and records a :class:`TransactionResult` for every bus
transaction the mediator completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import ne
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import constants
from repro.core.addresses import Address
from repro.core.bus_controller import MemberEngine, Role, TxOutcome
from repro.core.errors import BusLockedError, ConfigurationError, ProtocolError
from repro.core.mediator import MediatorReport
from repro.core.messages import ControlCode, Message, ReceivedMessage
from repro.core.node import MBusNode, NodeConfig
from repro.sim.scheduler import Simulator, US
from repro.sim.signals import Net
from repro.sim.tracer import Tracer


def check_prefixes(configs: Sequence[NodeConfig]) -> None:
    """Refuse a ring whose short prefixes clash, use a reserved value,
    or exceed the 14-node short-address budget (Section 4.7)."""
    seen_short: Dict[int, str] = {}
    short_count = 0
    for config in configs:
        prefix = config.short_prefix
        if prefix is None:
            continue
        short_count += 1
        if prefix in seen_short:
            raise ConfigurationError(
                f"short prefix {prefix:#x} used by both "
                f"{seen_short[prefix]!r} and {config.name!r}; run "
                "enumeration to disambiguate duplicate chips (4.7)"
            )
        if prefix in (
            constants.BROADCAST_PREFIX_VALUE,
            constants.FULL_ADDR_MARKER_VALUE,
        ):
            raise ConfigurationError(
                f"short prefix {prefix:#x} is reserved"
            )
        seen_short[prefix] = config.name
    if short_count > constants.MAX_SHORT_ADDRESSED_NODES:
        raise ConfigurationError(
            "at most 14 short-addressed nodes per system (4.7)"
        )


def effective_anchor(config: NodeConfig) -> Optional[str]:
    """The arbitration anchor a request for ``config`` resolves to:
    its name, or ``None`` for the mediator (the default break point).

    The anchor takes on always-on duties (it must break the ring the
    moment a request appears), so a power-gated node is refused.
    """
    if config.power_gated:
        raise ConfigurationError(
            "the arbitration anchor holds always-on wire-"
            "controller state; it cannot be power-gated"
        )
    return None if config.is_mediator else config.name


class QuietRing:
    """The ring check of cycle elision, and the bulk update it allows.

    A clock cycle of a transfer is decided in advance when no node
    transmits, so every DATA segment stays at its level (a *quiet*
    transfer, such as a glitch-started runaway, or one whose DATA a
    node that stopped transmitting still holds), or when exactly one
    transmitter drives DATA and every other node only forwards and
    latches (a *driven* one).  On an ``n``-node ring a quiet cycle
    is ``2 * (n + 1)`` events (per edge, the mediator's toggle and one
    apply per CLK segment); a driven one adds the transmitter's apply
    and, when its bit changes level, one forwarded apply on each of
    the other ``n - 1`` DATA segments.  The mediator may then advance
    whole cycles in arithmetic (:meth:`MediatorLogic._elide_cycles`).
    :meth:`MBusSystem.build` makes one per edge-mode system, after
    wiring the rings and before attaching a tracer.
    """

    def __init__(
        self,
        nodes: Sequence[MBusNode],
        mediator_node: MBusNode,
        data_segments: Sequence[Net],
        clk_segments: Sequence[Net],
    ) -> None:
        self._nodes = tuple(nodes)
        self._engines = tuple(node.engine for node in nodes)
        self._detectors = tuple(node.detector for node in nodes)
        self._min_threshold = min(d.threshold for d in self._detectors)
        self._mediator_index = self._nodes.index(mediator_node)
        self._member_clks = tuple(
            node.clk_ctl for node in nodes if node is not mediator_node
        )
        self._data_segments = tuple(data_segments)
        self._clk_segments = tuple(clk_segments)
        self._nets = self._data_segments + self._clk_segments
        # The listeners build() attached: a tracer or a probe added
        # later makes a new tuple, and that net's edges then step.
        self._listeners = tuple(net._listeners for net in self._nets)
        self._quiet_events = 2 * (len(self._nodes) + 1)
        self._forwarders = len(self._nodes) - 1
        # Set by a check that passed: the transmitter (None: quiet)
        # and, for a driven span, which detectors count its DATA edge
        # until the rising edge.
        self._transmitter: Optional[MemberEngine] = None
        self._late: Tuple[bool, ...] = ()
        # The test that failed the last check, retested first (see
        # blocked()); None when the last check passed or no cheap
        # retest exists.
        self._blocker: Optional[Callable[[], bool]] = None

    @property
    def most_per_cycle(self) -> int:
        """The most events one cycle of the last allowed span fires."""
        if self._transmitter is None:
            return self._quiet_events
        return self._quiet_events + 1 + self._forwarders

    def blocked(self) -> bool:
        """True while the test that failed the last check still fails,
        so that check need not run again.  That test is an engine's
        during arbitration and control, a net's during a traced run,
        and the transmitter's role while the detectors' thresholds or
        the ring's timing refuse its transfer; each refused rising
        edge then costs one call.  A check refused by a test that may
        pass at the next edge (two transmitters, a controller's mode,
        a count or a DATA level out of step) records none and runs in
        full."""
        blocker = self._blocker
        return blocker is not None and blocker()

    def _refuse(self, blocker: Optional[Callable[[], bool]] = None) -> int:
        self._blocker = blocker
        return 0

    def quiet_cycles(self, limit: int, half_period: int) -> int:
        """Whole clock cycles, at most ``limit``, that the ring can
        advance before its first decision point; 0 unless the transfer
        is quiet or driven at this rising edge.

        Every engine must pass :meth:`MemberEngine.quiet_cycles`
        (which also bounds the count), and at most one may be a
        transmitter; every node must be :attr:`~MBusNode.settled`;
        every member's CLK line controller must forward, and so must
        every DATA line controller but a transmitter's (with none, a
        DATA controller may hold a fixed level); no ring net may
        have a queued set, a listener ``build()`` did not attach, or a
        fault state that is not :attr:`~repro.sim.signals.Net.neutral`.
        (With no set queued and CLK-in low at the rising edge, the
        previous falling edge crossed the ring within half a period,
        as each elided one will.)  A driven transfer also needs every
        engine at the transmitter's rising count, every DATA segment
        at the transmitter's current bit, every detector's threshold
        at 2 or more, and the bit's edge to cross the ring within half
        a period without tying a CLK edge (:meth:`_late_detectors`).
        """
        transmitter = None
        for engine in self._engines:
            limit = engine.quiet_cycles(limit)
            if not limit:
                return self._refuse(partial(_decides, engine))
            if engine.role is Role.TX:
                if transmitter is not None:
                    return self._refuse()
                transmitter = engine
        tx_ctl = None if transmitter is None else transmitter.data_ctl
        for node in self._nodes:
            if not node.settled:
                return self._refuse(partial(_unsettled, node))
            # With no transmitter a DATA controller that holds a level
            # keeps its segment as constant as one that forwards.
            ctl = node.data_ctl
            if tx_ctl is not None and ctl.forwarding is (ctl is tx_ctl):
                return self._refuse()
        for ctl in self._member_clks:
            if not ctl.forwarding:
                return self._refuse()
        for net, listeners in zip(self._nets, self._listeners):
            if _stepping(net, listeners):
                return self._refuse(partial(_stepping, net, listeners))
        if transmitter is not None:
            # The thresholds are fixed, and so are the delays and the
            # half period once arm() applied any drift: these refuse
            # every cycle for as long as this engine transmits.
            late = self._late_detectors(
                self._engines.index(transmitter), half_period
            )
            if self._min_threshold < 2 or late is None:
                return self._refuse(partial(_transmits, transmitter))
            rising = transmitter.rising
            bit = transmitter.driven_bits(0)[0]
            for engine in self._engines:
                if engine.rising != rising:
                    return self._refuse()
            for net in self._data_segments:
                if net._value != bit:
                    return self._refuse()
            self._late = late
        self._transmitter = transmitter
        self._blocker = None
        return limit

    def _late_detectors(
        self, tx_index: int, half_period: int
    ) -> Optional[Tuple[bool, ...]]:
        """Per node, whether the DATA edge the transmitter drives at a
        falling edge reaches the node after that CLK edge does, so its
        detector still counts it at the next rising edge; None unless
        the edge crosses the ring within half a period and ties no
        CLK edge.  Offsets are from the mediator's falling toggle,
        through the line controllers' current delays."""
        nodes = self._nodes
        n = len(nodes)
        clk = [0] * n
        at = nodes[self._mediator_index].clk_ctl.drive_delay_ps
        for step in range(1, n + 1):
            index = (self._mediator_index + step) % n
            clk[index] = at
            at += nodes[index].clk_ctl.forward_delay_ps
        data = [0] * n
        at = clk[tx_index] + nodes[tx_index].data_ctl.drive_delay_ps
        for step in range(1, n + 1):
            index = (tx_index + step) % n
            data[index] = at
            at += nodes[index].data_ctl.forward_delay_ps
        if data[tx_index] >= half_period:
            return None
        if any(d == c for d, c in zip(data, clk)):
            return None
        return tuple(d > c for d, c in zip(data, clk))

    def events(self, cycles: int) -> int:
        """The events ``cycles`` whole cycles of the span the last
        check allowed fire (the count :meth:`Simulator.elide` takes)."""
        transmitter = self._transmitter
        if transmitter is None:
            return self._quiet_events * cycles
        return (
            (self._quiet_events + 1) * cycles
            + self._forwarders * _level_changes(
                transmitter.driven_bits(cycles)
            )
        )

    def advance_cycles(self, cycles: int) -> None:
        """Apply ``cycles`` cycles that :meth:`quiet_cycles` allowed and
        :meth:`events` counted: each engine's edges, drives and
        latches, two transitions per cycle on every CLK segment, a
        driven bit's level changes on every DATA segment (which is
        what the line controllers' forward and drive counts read),
        and each detector's count at the rising edge that follows."""
        for net in self._clk_segments:
            net.advance(0, 2 * cycles)
        transmitter = self._transmitter
        if transmitter is None:
            for engine in self._engines:
                engine.advance_cycles(cycles)
            for detector in self._detectors:
                detector.count = 0
            return
        bits = transmitter.driven_bits(cycles)
        level = bits[-1]
        for engine in self._engines:
            engine.advance_cycles(cycles, bits[:-1])
        transmitter.data_ctl.driven_value = level
        toggles = _level_changes(bits)
        for net in self._data_segments:
            net.advance(level, toggles)
        changed = level != bits[-2]
        for detector, late in zip(self._detectors, self._late):
            detector.count = 1 if changed and late else 0


def _decides(engine: MemberEngine) -> bool:
    return not engine.quiet_cycles(1)


def _transmits(engine: MemberEngine) -> bool:
    return engine.role is Role.TX


def _unsettled(node: MBusNode) -> bool:
    return not node.settled


def _level_changes(bits: Sequence[int]) -> int:
    return sum(map(ne, bits, bits[1:]))


def _stepping(net: Net, listeners: tuple) -> bool:
    """True while ``net`` has a queued set, a listener besides
    ``listeners`` or an open fault window."""
    return (
        net._pending is not None
        or net._listeners is not listeners
        or not net.neutral
    )


@dataclass(slots=True)
class TransactionResult:
    """One completed bus transaction, as recorded by the system."""

    index: int
    ok: bool
    control: Optional[ControlCode]
    tx_node: Optional[str]
    message: Optional[Message]
    rx_deliveries: List[Tuple[str, ReceivedMessage]]
    clock_cycles: int
    control_cycles: int
    start_ps: int
    end_ps: int
    general_error: bool
    error_reason: str

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps

    @property
    def rx_nodes(self) -> List[str]:
        return [name for name, _ in self.rx_deliveries]

    @property
    def total_cycles(self) -> int:
        """Clock cycles generated by the mediator (data + control)."""
        return self.clock_cycles + self.control_cycles


class MBusSystem:
    """A complete MBus: one mediator plus member nodes on two rings.

    Typical use::

        system = MBusSystem()
        system.add_mediator_node("cpu", short_prefix=0x1)
        system.add_node("sensor", short_prefix=0x2, power_gated=True)
        system.add_node("radio", short_prefix=0x3, power_gated=True)
        result = system.send("cpu", Address.short(0x2), b"\\x01\\x02")
        assert result.ok

    Two simulation backends are available via ``mode``:

    * ``"edge"`` (default) — the edge-accurate engine: every CLK/DATA
      transition of both rings is simulated, except that a clock
      cycle of a transfer that no node or one transmitter drives may
      be advanced in arithmetic (:class:`QuietRing`).  Such a cycle still counts its
      events and transitions, and a traced run steps every edge.
      Authoritative for waveform-level behaviour (tracing,
      interjection timing, glitches) and the golden reference for
      everything else.
    * ``"fast"`` — the transaction-level engine
      (:mod:`repro.sim.fastpath`): each bus round is computed in
      closed form, yielding the same :class:`TransactionResult`
      stream, deliveries and power-domain accounting at a small
      fraction of the event cost.  Use it for throughput studies and
      large workloads; it does not support tracing or third-party
      interjection.
    """

    def __init__(
        self,
        timing: Optional[constants.MBusTiming] = None,
        trace: bool = False,
        mode: str = "edge",
    ):
        if mode not in ("edge", "fast"):
            raise ConfigurationError(
                f"mode must be 'edge' or 'fast', not {mode!r}"
            )
        if trace and mode == "fast":
            raise ConfigurationError(
                "waveform tracing requires the edge-accurate backend "
                "(mode='edge'); the fast path never toggles nets"
            )
        self.mode = mode
        self.sim = Simulator()
        self.timing = timing or constants.MBusTiming()
        self.nodes: List[MBusNode] = []
        self._by_name: Dict[str, MBusNode] = {}
        self._mediator_node: Optional[MBusNode] = None
        self._built = False
        self.transactions: List[TransactionResult] = []
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self._tx_buffer: List[Tuple[str, TxOutcome]] = []
        self._rx_buffer: List[Tuple[str, ReceivedMessage]] = []
        #: Observers invoked with each completed TransactionResult
        #: (used by e.g. the rotating-priority policy).
        self.on_transaction_complete: List = []
        self._anchor_name: Optional[str] = None
        self._fast_backend = None

    # ------------------------------------------------------------------
    # Topology construction.
    # ------------------------------------------------------------------
    def add_mediator_node(self, name: str, **kwargs: Any) -> MBusNode:
        """Add the mediator (Section 4.2), optionally with member prefixes.

        The mediator may be attached to a core device (give it a
        ``short_prefix``) or standalone (no prefixes): pass
        ``short_prefix=None, full_prefix=None``.
        """
        return self.add(NodeConfig(name=name, is_mediator=True, **kwargs))

    def add_node(self, name: str, **kwargs: Any) -> MBusNode:
        """Add a member node.  Ring position follows insertion order,
        which determines topological arbitration priority (4.3)."""
        return self.add(NodeConfig(name=name, **kwargs))

    def add(self, config: NodeConfig) -> MBusNode:
        """Add the node ``config`` describes, next in ring order; it is
        the mediator when ``config.is_mediator``."""
        if self._built:
            raise ConfigurationError("cannot add nodes after the system is built")
        if config.name in self._by_name:
            raise ConfigurationError(f"duplicate node name {config.name!r}")
        if config.is_mediator and self._mediator_node is not None:
            raise ConfigurationError("an MBus system has exactly one mediator")
        node = MBusNode(self.sim, self.timing, config)
        self.nodes.append(node)
        self._by_name[config.name] = node
        if config.is_mediator:
            self._mediator_node = node
        return node

    def build(self) -> "MBusSystem":
        """Wire the CLK and DATA rings and attach all controllers.

        In fast mode no nets are created: the transaction-level
        backend plans rounds analytically and only the power domains,
        inboxes and result plumbing of the nodes are used.
        """
        if self._built:
            return self
        if self._mediator_node is None:
            raise ConfigurationError("an MBus system requires a mediator")
        if len(self.nodes) < 2:
            raise ConfigurationError("an MBus system needs at least two nodes")
        check_prefixes([node.config for node in self.nodes])
        for node in self.nodes:
            node.on_result = self._record_tx
            node.on_receive = self._make_rx_recorder(node.on_receive)
        if self.mode == "fast":
            from repro.sim.fastpath import FastPathBackend

            self._fast_backend = FastPathBackend(self)
            self._built = True
            return self
        n = len(self.nodes)
        data_segments = [
            Net(self.sim, f"{self.nodes[i].name}.dout.data") for i in range(n)
        ]
        clk_segments = [
            Net(self.sim, f"{self.nodes[i].name}.dout.clk") for i in range(n)
        ]
        for i, node in enumerate(self.nodes):
            node.attach(
                din=data_segments[(i - 1) % n],
                dout=data_segments[i],
                clkin=clk_segments[(i - 1) % n],
                clkout=clk_segments[i],
            )
        self._mediator_node.attach_mediator_logic(
            n_nodes_hint=lambda: len(self.nodes),
            on_complete=self._on_mediator_complete,
        )
        self._mediator_node.mediator.quiet_ring = QuietRing(
            self.nodes, self._mediator_node, data_segments, clk_segments
        )
        if self.tracer is not None:
            self.tracer.watch_all(data_segments + clk_segments)
        self._built = True
        return self

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def _record_tx(self, node: MBusNode, outcome: TxOutcome) -> None:
        self._tx_buffer.append((node.name, outcome))

    def _make_rx_recorder(self, chained):
        def _recorder(node: MBusNode, message: ReceivedMessage) -> None:
            self._rx_buffer.append((node.name, message))
            if chained is not None:
                chained(node, message)

        return _recorder

    def _on_mediator_complete(self, report: MediatorReport) -> None:
        # The mediator raises this at its own final control edge; the
        # member engines see that edge up to a ring delay later.  Defer
        # assembly until every node has finished the transaction.
        settle = 2 * self.timing.ring_delay_ps(len(self.nodes))
        self.sim.schedule(settle, lambda: self._assemble_result(report))

    def _assemble_result(self, report: MediatorReport) -> None:
        control = None
        if len(report.control_bits) == 2:
            control = ControlCode.from_bits(*report.control_bits)
        tx_node, message = None, None
        if self._tx_buffer:
            tx_node, outcome = self._tx_buffer[-1]
            message = outcome.message
        result = TransactionResult(
            index=report.index,
            ok=control is ControlCode.EOM_ACK and not report.general_error,
            control=control,
            tx_node=tx_node,
            message=message,
            rx_deliveries=list(self._rx_buffer),
            clock_cycles=report.clock_cycles,
            control_cycles=report.control_cycles,
            start_ps=report.start_ps,
            end_ps=report.end_ps,
            general_error=report.general_error,
            error_reason=report.error_reason,
        )
        self._tx_buffer.clear()
        self._rx_buffer.clear()
        self.transactions.append(result)
        for observer in list(self.on_transaction_complete):
            observer(result)

    # ------------------------------------------------------------------
    # Application API.
    # ------------------------------------------------------------------
    def node(self, name: str) -> MBusNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(f"no node named {name!r}") from None

    @property
    def mediator(self) -> MBusNode:
        if self._mediator_node is None:
            raise ConfigurationError("no mediator configured")
        return self._mediator_node

    def post(
        self,
        source: str,
        dest: Address,
        payload: bytes = b"",
        priority: bool = False,
    ) -> None:
        """Queue a message at ``source``; delivery happens as the
        simulation runs (the node arbitrates for the bus itself)."""
        self.build()
        self.node(source).post(Message(dest=dest, payload=payload, priority=priority))

    def send(
        self,
        source: str,
        dest: Address,
        payload: bytes = b"",
        priority: bool = False,
        timeout_s: Optional[float] = None,
    ) -> TransactionResult:
        """Post one message and run the bus until it is resolved."""
        before = len(self.transactions)
        self.post(source, dest, payload, priority)
        self.run_until_idle(timeout_s=timeout_s)
        for result in self.transactions[before:]:
            if result.tx_node == source:
                return result
        raise ProtocolError(
            f"message from {source!r} did not produce a transaction"
        )

    def broadcast(
        self,
        source: str,
        channel: int,
        payload: bytes = b"",
        priority: bool = False,
    ) -> TransactionResult:
        """Send a broadcast message on ``channel`` (Section 4.6)."""
        return self.send(source, Address.broadcast(channel), payload, priority)

    def interrupt(self, name: str) -> None:
        """Assert a node's always-on interrupt port (Section 4.5)."""
        self.build()
        self.node(name).trigger_interrupt()

    def set_max_message_bytes(self, n_bytes: int) -> None:
        """Configure the runaway watchdog via the config channel."""
        self.build()
        if self._fast_backend is not None:
            self._fast_backend.set_max_message_bytes(
                constants.clamp_max_message_bytes(n_bytes)
            )
            return
        self.mediator.mediator.set_max_message_bytes(n_bytes)

    def set_arbitration_anchor(self, name: Optional[str] = None) -> None:
        """Mutable priority (Section 7): move the arbitration break
        point from the mediator to a member node.

        With an anchor set, topological priority is measured from the
        anchor instead of the mediator.  ``None`` restores the default
        scheme; so does naming the mediator.  A power-gated anchor is
        refused (:func:`effective_anchor`).
        """
        self.build()
        if name is not None:
            name = effective_anchor(self.node(name).config)
        self._anchor_name = name
        if self._fast_backend is not None:
            self._fast_backend.set_anchor(name)
            return
        for node in self.nodes:
            node.engine.is_arbitration_anchor = node.name == name
            if node.config.is_mediator:
                node.engine.mediator_drives_request = name is None
        self.mediator.mediator.external_anchor = name is not None

    @property
    def arbitration_anchor(self) -> Optional[str]:
        return self._anchor_name

    # ------------------------------------------------------------------
    # Simulation control.
    # ------------------------------------------------------------------
    def run_until_idle(
        self,
        timeout_s: Optional[float] = None,
        require_idle: bool = True,
        wall_deadline: Optional[float] = None,
    ) -> None:
        """Run the event queue dry (all queued traffic resolved).

        ``timeout_s`` bounds *simulated* time; ``wall_deadline`` is an
        absolute ``time.perf_counter`` instant bounding *host* time
        (see :meth:`Simulator.run`), past which the loop raises
        :class:`~repro.core.errors.WallClockTimeout`.
        """
        self.build()
        until = None
        if timeout_s is not None:
            until = self.sim.now + int(timeout_s * 1e12)
        self.sim.run(until=until, wall_deadline=wall_deadline)
        if require_idle and not self.is_idle:
            if self._fast_backend is not None:
                raise BusLockedError(
                    "bus did not return to idle: traffic still queued "
                    "on the fast-path backend"
                )
            raise BusLockedError(
                "bus did not return to idle: "
                + ", ".join(
                    f"{n.name}:{n.engine.phase.value}" for n in self.nodes
                )
            )

    def run_for(self, seconds: float) -> None:
        """Advance simulated time by ``seconds`` (traffic may remain)."""
        self.build()
        self.sim.advance(int(seconds * 1e12))

    @property
    def is_idle(self) -> bool:
        if not self._built:
            return True
        if self._fast_backend is not None:
            return self._fast_backend.is_idle
        from repro.core.bus_controller import Phase
        from repro.core.mediator import MediatorPhase

        engines_idle = all(n.engine.phase is Phase.IDLE for n in self.nodes)
        mediator_idle = self.mediator.mediator.phase is MediatorPhase.IDLE
        nothing_pending = all(not n.engine.has_pending for n in self.nodes)
        return engines_idle and mediator_idle and nothing_pending

    # ------------------------------------------------------------------
    # Introspection used by the power model and tests.
    # ------------------------------------------------------------------
    def power_domain_report(self) -> Dict[str, Dict[str, float]]:
        """Per-node on-time (seconds) of each power domain."""
        report = {}
        for node in self.nodes:
            report[node.name] = {
                "bus_on_s": node.bus_domain.total_on_time_ps() / 1e12,
                "layer_on_s": node.layer_domain.total_on_time_ps() / 1e12,
                "bus_wakeups": node.bus_domain.wake_count,
                "layer_wakeups": node.layer_domain.wake_count,
            }
        return report

    def wire_activity(self) -> Dict[str, int]:
        """Total output transitions per node (drive + forward).

        In fast mode these are analytic estimates (the fast path never
        toggles nets); they track the edge engine's counts closely
        enough for the activity-based power model but are not
        transition-exact.
        """
        if self._fast_backend is not None:
            return self._fast_backend.wire_activity()
        activity = {}
        for node in self.nodes:
            activity[node.name] = (
                node.data_ctl.drive_transitions
                + node.data_ctl.forward_transitions
                + node.clk_ctl.drive_transitions
                + node.clk_ctl.forward_transitions
            )
        return activity
