"""Node shell: one MBus chip, composed of the Figure-8 modules.

A node owns four pads (DATA-in/out, CLK-in/out), two line controllers
(the always-on wire controller), an interjection detector, a sleep
controller (wakeup sequencers over three power domains), an interrupt
controller (null-transaction generator), a bus-controller engine, and
a generic layer controller.

Power domains follow Figure 8's colouring:

* ``always_on``  — sleep + wire + interrupt controllers (green);
* ``bus``        — bus controller, powered during transactions (red);
* ``layer``      — layer controller + local clock, powered only while
  the node is active (blue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core import constants
from repro.core.addresses import Address
from repro.core.bus_controller import MemberEngine, Phase, Role, TxOutcome
from repro.core.errors import ConfigurationError, ProtocolError
from repro.core.interjection import InterjectionDetector
from repro.core.layer_controller import GenericLayerController
from repro.core.mediator import MediatorLogic
from repro.core.messages import ControlCode, Message, ReceivedMessage
from repro.core.power_domain import PowerDomain, WakeupSequencer
from repro.core.wire_controller import LineController
from repro.sim.scheduler import Simulator
from repro.sim.signals import EdgeType, Net


@dataclass
class NodeConfig:
    """The configuration of one MBus node: its identity registers
    (short and full prefix, broadcast channels, receive buffer) and
    power design.

    It is the one runtime record of a node.  The edge engine matches
    addresses against it as it is (enumeration rewrites
    ``short_prefix`` and ``broadcast_channels`` at run time, Section
    4.7); the transaction-level planner's ring
    (:func:`repro.core.tlm_engine.lower_ring`) reads it once, when the
    system is built.  :meth:`repro.scenario.spec.NodeSpec.config`
    lowers a spec document to one.
    """

    name: str
    short_prefix: Optional[int] = None
    full_prefix: Optional[int] = None
    broadcast_channels: frozenset = frozenset({0})
    power_gated: bool = False
    auto_sleep: Optional[bool] = None     # default: same as power_gated
    rx_buffer_bytes: int = constants.MIN_MAX_MESSAGE_BYTES
    #: Whether this node ACKs a complete message addressed to it, as a
    #: pure function of the received payload (None: always ACK).  The
    #: transaction-level tiers call it once per round shape when they
    #: plan it and reuse the answer for every later round with the same
    #: requests and payload, so it must not depend on call count, time
    #: or other state.
    ack_policy: Optional[Callable[[bytes], bool]] = None
    memory_words: int = 1024
    is_mediator: bool = False
    #: Per-node forwarding delay override (ps).  Chips from different
    #: processes (65/130/180 nm, FPGA) have different pad/mux delays;
    #: the spec only requires each to stay under 10 ns (Section 6.5).
    node_delay_ps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.short_prefix is None and self.full_prefix is None:
            if not self.is_mediator:
                raise ConfigurationError(
                    f"node {self.name!r} needs a short or full prefix"
                )
        if self.auto_sleep is None:
            self.auto_sleep = self.power_gated
        self.broadcast_channels = frozenset(self.broadcast_channels)
        if self.is_mediator and self.power_gated:
            raise ConfigurationError(
                "the mediator's frontend must be able to self-start; "
                "model it as a non-power-gated node"
            )


class MBusNode:
    """One chip on the ring.  Created by :class:`repro.core.bus.MBusSystem`."""

    def __init__(self, sim: Simulator, timing: constants.MBusTiming, config: NodeConfig):
        self.sim = sim
        self.timing = timing
        self.config = config
        self.name = config.name

        # Power domains (Figure 8 colouring).
        self.always_on = PowerDomain(sim, f"{self.name}.always_on", always_on=True)
        self.bus_domain = PowerDomain(sim, f"{self.name}.bus")
        self.layer_domain = PowerDomain(sim, f"{self.name}.layer")
        if not config.power_gated:
            self.bus_domain.power_on("not-power-gated")
            self.layer_domain.power_on("not-power-gated")

        self.layer = GenericLayerController(memory_words=config.memory_words)
        self.inbox: List[ReceivedMessage] = []
        self.results: List[TxOutcome] = []
        self.dropped: List[ReceivedMessage] = []
        self.pending_interrupt = False
        self.on_interrupt: Optional[Callable[["MBusNode"], None]] = None
        self.on_result: Optional[Callable[["MBusNode", TxOutcome], None]] = None
        self.on_receive: Optional[Callable[["MBusNode", ReceivedMessage], None]] = None

        #: Set by MBusSystem when the system runs on the transaction-
        #: level fast path; node-level APIs then delegate to it instead
        #: of the edge-accurate engine (which is never attached).
        self.fast_backend = None

        # Wired in attach().
        self.din: Optional[Net] = None
        self.dout: Optional[Net] = None
        self.clkin: Optional[Net] = None
        self.clkout: Optional[Net] = None
        self.data_ctl: Optional[LineController] = None
        self.clk_ctl: Optional[LineController] = None
        self.detector: Optional[InterjectionDetector] = None
        self.engine: Optional[MemberEngine] = None
        self.mediator: Optional[MediatorLogic] = None

        self._bus_seq = WakeupSequencer(self.bus_domain, on_awake=self._on_bus_awake)
        self._layer_seq = WakeupSequencer(self.layer_domain)
        self._null_pulse_active = False

    # ------------------------------------------------------------------
    # Ring attachment (called once by the system builder).
    # ------------------------------------------------------------------
    def attach(self, din: Net, dout: Net, clkin: Net, clkout: Net) -> None:
        self.din, self.dout = din, dout
        self.clkin, self.clkout = clkin, clkout
        delay = self.config.node_delay_ps or self.timing.node_delay_ps
        self.data_ctl = LineController(
            din, dout, delay, self.timing.drive_delay_ps
        )
        self.clk_ctl = LineController(
            clkin, clkout, delay, self.timing.drive_delay_ps
        )
        self.engine = MemberEngine(self)
        self.detector = InterjectionDetector(
            din,
            clkin,
            threshold=self.timing.interjection_threshold,
            on_detect=self._on_interjection_detected,
        )
        din.on_edge(self._on_din_edge)
        clkin.on_edge(self._on_clk_edge)

    def attach_mediator_logic(
        self,
        n_nodes_hint: Callable[[], int],
        on_complete: Callable[..., None],
    ) -> None:
        """Instantiate the mediator FSM sharing this node's pads."""
        if not self.config.is_mediator:
            raise ConfigurationError(f"{self.name} is not the mediator node")
        self.mediator = MediatorLogic(
            self.sim,
            self.timing,
            self.data_ctl,
            self.clk_ctl,
            self.din,
            self.clkin,
            n_nodes_hint=n_nodes_hint,
            member_requesting=lambda: self.engine.role is Role.REQUESTER,
            on_complete=on_complete,
        )

    # ------------------------------------------------------------------
    # Application API.
    # ------------------------------------------------------------------
    def post(self, message: Message) -> None:
        """Queue a message; the node transmits it when it can.

        If the node is asleep the interrupt controller raises a null
        transaction first (Section 4.5) — the bus wakes the node, and
        the queued message goes out on the following transaction.
        """
        if self.fast_backend is not None:
            self.fast_backend.post_message(self, message)
            return
        self.engine.queue_message(message)
        self._kick()

    def trigger_interrupt(self) -> None:
        """Assert the always-on interrupt port (Section 4.5)."""
        if self.fast_backend is not None:
            self.fast_backend.trigger_interrupt(self)
            return
        self.pending_interrupt = True
        if not self.engine.busy:
            self._start_null_pulse()

    def request_interjection(self, reason: str = "latency-sensitive") -> None:
        """Kill the in-flight transaction from a third party (4.9).

        "This allows a node with a latency-sensitive message to
        interrupt an active transaction."  The request honours the
        minimum-progress policy (Section 7) and takes effect at the
        next latch edge once the winner has moved four bytes.
        """
        if self.fast_backend is not None:
            raise ProtocolError(
                "third-party interjection is an intra-transaction event; "
                "it requires the edge-accurate backend (mode='edge')"
            )
        self.engine.request_interjection(reason)

    def sleep(self) -> None:
        """Power-gate the layer and bus domains (application decision)."""
        if not self.config.power_gated:
            raise ProtocolError(f"{self.name} is not a power-gated design")
        if self._busy_for_sleep():
            raise ProtocolError("cannot sleep mid-transaction")
        if self.layer_domain.is_on:
            self.layer_domain.power_off("application-sleep")
        if self.bus_domain.is_on:
            self.bus_domain.power_off("application-sleep")

    def _busy_for_sleep(self) -> bool:
        if self.fast_backend is not None:
            return self.fast_backend.node_busy(self)
        return self.engine.busy

    def power_loss(self) -> None:
        """Brown-out: both gated domains collapse *right now*, even
        mid-transaction (the Section 3 robustness scenario).

        Unlike :meth:`sleep` this is not an application decision — it
        models the supply failing, so it ignores ``power_gated`` and
        busy-ness.  Transaction state in the bus domain is lost
        (:meth:`MemberEngine.power_loss_reset`), queued messages
        survive (they live in the layer's retained memory), and the
        always-on wire controllers revert to forwarding so the ring
        stays whole.  The node re-wakes through the normal four-edge
        sequence on subsequent bus activity.
        """
        if self.fast_backend is not None:
            raise ProtocolError(
                "mid-transaction power loss is an intra-transaction event; "
                "it requires the edge-accurate backend (mode='edge')"
            )
        if self.config.is_mediator:
            raise ProtocolError(
                "the mediator frontend must always self-start; member-node "
                "power loss is the supported fault (Section 4.2)"
            )
        self.engine.power_loss_reset()
        self.data_ctl.forward()
        self.clk_ctl.forward()
        self._bus_seq.disarm()
        self._layer_seq.disarm()
        self._null_pulse_active = False
        if self.bus_domain.is_on:
            self.bus_domain.power_off("fault:power-loss")
        if self.layer_domain.is_on:
            self.layer_domain.power_off("fault:power-loss")

    @property
    def settled(self) -> bool:
        """True when a CLK edge only reaches the engine: the bus domain
        is powered, neither wakeup sequencer is armed and no null pulse
        is being driven (read by the ring check of cycle elision)."""
        return (
            self.bus_domain.is_on
            and not self._bus_seq.armed
            and not self._layer_seq.armed
            and not self._null_pulse_active
        )

    @property
    def is_fully_awake(self) -> bool:
        return self.bus_domain.is_on and self.layer_domain.is_on

    # ------------------------------------------------------------------
    # Wire events.
    # ------------------------------------------------------------------
    def _on_din_edge(self, _net: Net, edge: EdgeType) -> None:
        # Hot path: EdgeType is an IntEnum; FALLING == 0.
        if edge == 0 and self.engine.phase is Phase.IDLE:
            if not (self.config.is_mediator or self._null_pulse_active):
                self.engine.on_data_falling_idle()
                if not self.bus_domain.is_on:
                    self._bus_seq.arm("transaction")

    def _on_clk_edge(self, _net: Net, edge: EdgeType) -> None:
        if self.config.is_mediator:
            # The mediator node generates CLK; its member engine reacts
            # to the returning edges like everyone else, but its sleep
            # controller never gates the bus controller.
            self.engine.on_clk_edge(edge)
            return
        if edge == 0 and self._null_pulse_active:
            # Null transaction: resume forwarding before the
            # arbitration edge (Figure 6).
            self.data_ctl.forward()
            self._null_pulse_active = False
        if not self.bus_domain.is_on:
            self._bus_seq.arm("transaction")
        # A sequencer only steps while armed; skipping the call
        # otherwise saves two calls per node per CLK edge.
        if self._bus_seq.armed:
            self._bus_seq.edge()
        if self._layer_seq.armed:
            self._layer_seq.edge()
        self.engine.on_clk_edge(edge)

    def _on_interjection_detected(self) -> None:
        # One detector per node: on the mediator's node it serves the
        # member engine first, then the mediator logic.
        self.engine.on_interjection_detected()
        if self.mediator is not None:
            self.mediator.on_interjection_detected()

    # ------------------------------------------------------------------
    # Engine hooks.
    # ------------------------------------------------------------------
    def _on_bus_awake(self) -> None:
        if self.pending_interrupt:
            self._layer_seq.arm("interrupt")

    def _on_address_match(self, address: Address) -> None:
        if not self.layer_domain.is_on:
            self._layer_seq.arm("rx-wakeup")

    def _on_rx_done(self, message: ReceivedMessage) -> None:
        message.source_hint = ""
        if self.layer_domain.is_on:
            self.inbox.append(message)
            self.layer.deliver(message)
            if self.on_receive is not None:
                self.on_receive(self, message)
        else:
            # Must be unreachable: the wakeup edges always suffice.
            self.dropped.append(message)

    def _on_tx_done(self, outcome: TxOutcome) -> None:
        self.results.append(outcome)
        if self.on_result is not None:
            self.on_result(self, outcome)

    def _request_mediator_interjection(self) -> None:
        if self.mediator is None:
            raise ProtocolError("member requested mediator interjection "
                                "but no mediator logic is attached")
        self.mediator.request_interjection_from_member()

    def _on_transaction_end(self, code: ControlCode) -> None:
        # Service a pending interrupt now that the wakeup edges ran.
        if self.pending_interrupt and self.is_fully_awake:
            self.pending_interrupt = False
            if self.on_interrupt is not None:
                self.on_interrupt(self)
        if self.pending_interrupt and not self.engine.busy:
            self._schedule(self._start_null_pulse)
        if self.engine.has_pending:
            self._schedule(self._try_request)
            return
        # Aggressive duty cycling: power-gated nodes return to sleep
        # once nothing more is queued (Section 6.3.2's imager pattern).
        if (
            self.config.power_gated
            and self.config.auto_sleep
            and not self.pending_interrupt
        ):
            self._schedule(self._auto_sleep)

    # ------------------------------------------------------------------
    # Internal helpers.
    # ------------------------------------------------------------------
    def _settle_ps(self) -> int:
        return constants.NODE_SETTLE_FACTOR * self.timing.node_delay_ps

    def _schedule(self, fn: Callable[[], None]) -> None:
        self.sim.schedule(self._settle_ps(), fn)

    def _kick(self) -> None:
        if self.engine.busy:
            return
        if self.bus_domain.is_on and self.layer_domain.is_on:
            self._schedule(self._try_request)
        else:
            self.trigger_interrupt()

    def _try_request(self) -> None:
        if not self.engine.has_pending:
            return
        if not (self.bus_domain.is_on and self.layer_domain.is_on):
            self.trigger_interrupt()
            return
        if self.clkin.value != 1:
            return  # a transaction is already clocking; retry at its end
        # The engine itself decides whether the request window is
        # still open (idle, or arbitration not yet clocked).
        if self.engine.request_bus() and self.config.is_mediator:
            self.mediator.start_for_member()

    def _start_null_pulse(self) -> None:
        if self.engine.busy or self._null_pulse_active:
            return
        self._null_pulse_active = True
        self.data_ctl.drive(0)
        if not self.bus_domain.is_on:
            self._bus_seq.arm("interrupt")
        elif self.pending_interrupt and not self.layer_domain.is_on:
            # The bus domain is already powered (e.g. it woke as an
            # observer of an earlier transaction), so _on_bus_awake will
            # never fire for this wakeup — arm the layer sequencer
            # directly or the null transactions repeat forever.
            self._layer_seq.arm("interrupt")

    def _auto_sleep(self) -> None:
        if self.engine.busy or self.engine.has_pending or self.pending_interrupt:
            return
        if self.layer_domain.is_on:
            self.layer_domain.power_off("auto-sleep")
        if self.bus_domain.is_on:
            self.bus_domain.power_off("auto-sleep")
