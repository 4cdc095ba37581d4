"""Bus controller: the member-node protocol engine (Figures 3, 5, 7).

This is the "red" power domain of Figure 8 — powered during MBus
transactions, gated otherwise.  One engine instance drives a node
through the full transaction life cycle:

    idle -> arbitration -> priority arbitration -> reserved ->
    addressing -> data -> interjection -> control -> idle

Edge conventions (Section 4.8): transmitters drive DATA on the falling
edge of CLK, receivers latch DATA on the rising edge.  Cycle numbering
used throughout (counting the mediator-generated edges from idle):

    falling #1  (f0)   clock starts
    rising  #1         arbitration latch   -- requesters sample DATAIN
    rising  #2         priority latch      -- winner/priority resolve
    rising  #3         reserved
    rising  #4 ..      address bits, MSB first (8 or 32)
    rising  #4+A ..    data bits
    (transmitter holds CLK -> interjection -> control: 2 bits + idle)
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Sequence

from repro.core import constants
from repro.core.addresses import Address
from repro.core.errors import ProtocolError
from repro.core.messages import (
    ControlCode,
    Message,
    ReceivedMessage,
    bits_to_bytes,
)
from repro.sim.signals import EdgeType

if TYPE_CHECKING:
    from repro.core.node import MBusNode


class Phase(enum.Enum):
    IDLE = "idle"
    ARBITRATION = "arbitration"
    PRIORITY = "priority"
    RESERVED = "reserved"
    TRANSFER = "transfer"      # addressing + data
    CONTROL = "control"        # post-interjection


class Role(enum.Enum):
    NONE = "none"              # forwarding observer
    REQUESTER = "requester"    # pulled DATA low, awaiting arbitration
    PRIO_REQUESTER = "prio"    # lost arbitration, contesting priority slot
    TX = "tx"
    RX = "rx"
    IGNORE = "ignore"          # address did not match; forward and ignore


@dataclass
class TxOutcome:
    """Result reported to the node when one of its messages finishes."""

    message: Message
    control: Optional[ControlCode]
    success: bool
    detail: str = ""
    #: Payload bytes known to have been driven before the transaction
    #: ended.  On success this equals the payload length; after an
    #: abort it is the resume point (Section 7: "both TX and RX nodes
    #: know how far through a message they were").
    bytes_sent: int = 0


class MemberEngine:
    """Protocol FSM for one member node.

    The engine never touches the simulator clock itself; it reacts to
    edges on its CLK-in pad, values on its DATA-in pad, and the
    interjection detector, and it actuates the node's two
    :class:`~repro.core.wire_controller.LineController` instances.
    It is built from its attached node: it reads the node's
    :class:`~repro.core.node.NodeConfig` (prefixes, broadcast
    channels, receive buffer, ACK policy) and its bus domain's power
    state as they are at each use, so a prefix that enumeration
    assigns is matched from then on, and it reports to the node's
    handlers.
    """

    def __init__(self, node: MBusNode):
        self.node = node
        self.sim = node.sim
        self.config = node.config
        self.bus_domain = node.bus_domain
        self.data_ctl = node.data_ctl
        self.clk_ctl = node.clk_ctl
        self.data_in = node.din

        self.phase = Phase.IDLE
        self.role = Role.NONE
        self.pending: Deque[Message] = deque()

        # Mutable arbitration priority (Section 7): when this node is
        # the arbitration anchor it — not the mediator — breaks the
        # DATA ring during arbitration, so topological priority is
        # measured from it.  The paper notes this "would require
        # adding state to the always-on Wire Controller"; these two
        # flags are that state.
        self.is_arbitration_anchor = False
        self.mediator_drives_request = True   # mediator-member default
        self._anchor_driving = False
        self._anchor_general = False

        # Edge counters since transaction start (maintained even while
        # the bus domain is gated: in silicon this is the always-on
        # sleep-controller counter that re-synchronises the woken
        # controller with the protocol position).
        self.rising = 0
        self.falling = 0

        # Transmit state.
        self._tx_message: Optional[Message] = None
        self._tx_stream: tuple = ()
        self._tx_bits_driven = 0
        self._eom_requested = False

        # Receive state.
        self._rx_bits: List[int] = []
        self._collecting = False
        self._full_address_mode = False
        self._matched: Optional[Address] = None
        self._overrun = False

        # Interjection / control state.
        self._i_requested = False
        self._abort = False
        self._interject_pending_reason: Optional[str] = None
        self._ctl_rising = 0
        self._ctl_falling = 0
        self._ctl_bits: List[int] = []

        # Line-mode changes decided at a rising (latch) edge are
        # deferred to the next falling edge, as in the synchronous
        # RTL: changing the DATA mux at a latch edge could corrupt the
        # sample of a node further around the ring whose clock edge
        # arrives a propagation delay later.
        self._deferred_line_actions: List[Callable[[], None]] = []

        # Statistics (consumed by the power model and tests).
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Public API used by the node shell / system.
    # ------------------------------------------------------------------
    def queue_message(self, message: Message) -> None:
        self.pending.append(message)

    @property
    def busy(self) -> bool:
        return self.phase is not Phase.IDLE

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)

    def request_bus(self) -> bool:
        """Pull DATA low to begin arbitration (Section 4.3).

        Returns False if the engine is not in a position to request
        (no pending message, or a transaction is already in flight).
        A node may still join an arbitration another node started as
        long as the mediator has not begun clocking — in hardware the
        request window stays open until the arbitration latch.
        """
        if not self.pending or not self.bus_domain.is_on:
            return False
        joinable = (
            self.phase is Phase.ARBITRATION
            and self.role is Role.NONE
            and self.rising == 0
            and self.falling == 0
        )
        if self.phase is Phase.IDLE:
            self._begin_transaction()
        elif not joinable:
            return False
        self.role = Role.REQUESTER
        self._tx_message = self.pending[0]
        if not (self.config.is_mediator and self.mediator_drives_request):
            self.data_ctl.drive(0)
        self.stats.bus_requests += 1
        return True


    def power_loss_reset(self) -> None:
        """Bus-domain collapse: all transaction state is lost.

        The edge counters survive — they are the always-on
        sleep-controller counters that re-synchronise a re-woken
        controller with the protocol position (see the class note) —
        as does the pending queue (retained layer memory), so an
        interrupted message is retransmitted once the node re-wakes.
        The node rides out the rest of the transaction as a passive
        forwarder and resets normally at its end.
        """
        if self.role is Role.TX or self.role is Role.RX:
            self.stats.power_loss_resets += 1
        self.role = Role.NONE
        self._tx_message = None
        self._tx_stream = ()
        self._tx_bits_driven = 0
        self._eom_requested = False
        self._rx_bits = []
        self._collecting = False
        self._matched = None
        self._overrun = False
        self._i_requested = False
        self._abort = False
        self._interject_pending_reason = None
        self._anchor_driving = False
        self._anchor_general = False
        self._deferred_line_actions = []

    def request_interjection(self, reason: str = "third-party") -> None:
        """Ask to kill the in-flight transaction (Section 4.9).

        Honours the minimum-progress policy of Section 7: the request
        is deferred until the winner has moved at least four payload
        bytes (or the message ends first).
        """
        if self.phase is not Phase.TRANSFER:
            raise ProtocolError("can only interject during a transfer")
        self._interject_pending_reason = reason

    # ------------------------------------------------------------------
    # Transaction-boundary helpers.
    # ------------------------------------------------------------------
    def _begin_transaction(self) -> None:
        self.phase = Phase.ARBITRATION
        self.rising = 0
        self.falling = 0
        self._rx_bits = []
        self._collecting = False
        self._full_address_mode = False
        self._matched = None
        self._overrun = False
        self._tx_bits_driven = 0
        self._anchor_driving = False
        self._anchor_general = False
        self._i_requested = False
        self._abort = False
        self._eom_requested = False
        self._interject_pending_reason = None
        self._ctl_rising = 0
        self._ctl_falling = 0
        self._ctl_bits = []
        self._deferred_line_actions = []

    def observe_transaction_start(self) -> None:
        """Called when the node sees bus activity it did not initiate."""
        if self.phase is Phase.IDLE:
            self._begin_transaction()
            self.role = Role.NONE

    # ------------------------------------------------------------------
    # Edge handlers (invoked by the node shell on CLK-in transitions).
    # ------------------------------------------------------------------
    def on_clk_edge(self, edge: EdgeType) -> None:
        # Hot path: one call per node per clock edge.  EdgeType is an
        # IntEnum (FALLING == 0), so dispatch on the int value instead
        # of Enum identity.
        if self.phase is Phase.IDLE:
            # A clock edge while idle means a transaction started that
            # we have not yet noticed via DATA (we sit between the
            # mediator and the requester).
            self.observe_transaction_start()
        if self.phase is Phase.CONTROL:
            if edge == 0:
                self._ctl_falling += 1
                self._control_falling(self._ctl_falling)
            else:
                self._ctl_rising += 1
                self._control_rising(self._ctl_rising)
            return
        if edge == 0:
            self.falling += 1
            self._on_falling(self.falling)
        else:
            self.rising += 1
            self._on_rising(self.rising)

    # ------------------------------------------------------------------
    # Cycle elision: whole clock cycles of a transfer.
    # ------------------------------------------------------------------
    def quiet_cycles(self, limit: int) -> int:
        """Clock cycles, at most ``limit``, that this engine can take
        before its next decision; 0 when it has one now.

        The engine must be in the transfer phase with no requester
        role, no deferred line action and no interjection pending or
        requested.  A forwarder or receiver then only counts edges
        and, while collecting, latches its DATA-in level at each
        rising edge; its decisions are the latch that completes the
        address, and a receiver's latch of the byte that would overrun
        its buffer.  A transmitter that has seen one more falling edge
        than rising edges only drives its next bit at each falling
        edge; its decision is the latch of its final bit (its end of
        message).
        """
        role = self.role
        if (
            self.phase is not Phase.TRANSFER
            or role is Role.REQUESTER
            or role is Role.PRIO_REQUESTER
            or self._deferred_line_actions
            or self._i_requested
            or self._interject_pending_reason is not None
        ):
            return 0
        if role is Role.TX:
            if self.falling != self.rising + 1:
                return 0
            decision = len(self._tx_stream) + 3 - self.falling
            return max(0, min(limit, decision))
        if not self._collecting:
            return limit
        if self._matched is None:
            decision = (
                constants.FULL_ADDR_BITS
                if self._full_address_mode
                else constants.SHORT_ADDR_BITS
            )
        else:
            decision = self._matched.n_bits + 8 * (
                self.config.rx_buffer_bytes + 1
            )
        return max(0, min(limit, decision - 1 - len(self._rx_bits)))

    def driven_bits(self, cycles: int) -> tuple:
        """A transmitter's bit on DATA now (driven at its last falling
        edge, ``f``, as bit ``f - 4``), then the ``cycles`` bits it
        drives at its next falling edges."""
        start = self.falling - 4
        return self._tx_stream[start:start + cycles + 1]

    def advance_cycles(
        self, cycles: int, bits: Optional[Sequence[int]] = None
    ) -> None:
        """Apply ``cycles`` whole clock cycles that
        :meth:`quiet_cycles` allowed: their edges, a transmitter's
        drives, and while collecting the latch of each of ``bits``
        (of the unchanged DATA-in level when None)."""
        self.rising += cycles
        self.falling += cycles
        if self.role is Role.TX:
            self._tx_bits_driven += cycles
            self.stats.bits_driven += cycles
        elif self._collecting:
            if bits is None:
                bits = [self.data_in.value] * cycles
            self._rx_bits += bits
            self.stats.bits_latched += cycles

    def on_data_falling_idle(self) -> None:
        """DATA-in fell while the bus was idle: someone is arbitrating."""
        self.observe_transaction_start()

    def on_interjection_detected(self) -> None:
        """The saturating counter fired: enter control mode (4.9)."""
        if self.phase in (Phase.IDLE, Phase.CONTROL):
            return
        self.stats.interjections_seen += 1
        # Everyone resumes forwarding both lines so the mediator's
        # DATA toggles and the control bits can circulate.  On the
        # mediator node the co-located mediator logic owns the lines.
        if not self.config.is_mediator:
            self.clk_ctl.forward()
            self.data_ctl.forward()
        if self.role is Role.RX:
            # Discard non-byte-aligned bits (Figure 7, note 4).
            overflow = len(self._rx_bits) % 8
            if overflow:
                self._rx_bits = self._rx_bits[:-overflow]
                self.stats.bits_discarded += overflow
        self.phase = Phase.CONTROL
        self._ctl_rising = 0
        self._ctl_falling = 0
        self._ctl_bits = []

    # ------------------------------------------------------------------
    # Falling edges: drive slots.
    # ------------------------------------------------------------------
    def _on_falling(self, f: int) -> None:
        # Falling #1 is the clock-start edge (f0); falling #2 lies
        # between the arbitration and priority latches and is the
        # priority drive slot; falling #4 onward carry address/data
        # bits (bit i is driven at falling #(4+i), latched at rising
        # #(4+i)).
        if self._deferred_line_actions:
            self._run_deferred_line_actions()
        if not self.bus_domain.is_on:
            return
        if (
            f == 1
            and self.is_arbitration_anchor
            and self.role is Role.NONE
            and not self._anchor_driving
        ):
            # Anchor duty: break the DATA ring once the clock starts.
            # Breaking earlier (at the request's falling edge) would
            # swallow requests before the mediator could see them.
            self._anchor_driving = True
            self.data_ctl.drive(1)
            return
        if f == 2 and self._anchor_driving:
            # The anchor resumes forwarding after the arbitration
            # latch so priority requests can cross it (cf. the
            # mediator's behaviour in Figure 5).
            self._anchor_driving = False
            self.data_ctl.forward()
        if f == 2 and self.role is Role.PRIO_REQUESTER:
            # Priority drive slot: pull DATA high (Section 4.3).
            self.data_ctl.drive(1)
            return
        if self.role is Role.TX and f >= 4:
            index = f - 4
            if index < len(self._tx_stream):
                self.data_ctl.drive(self._tx_stream[index])
                self.stats.bits_driven += 1
                self._tx_bits_driven += 1

    # ------------------------------------------------------------------
    # Rising edges: latch slots.
    # ------------------------------------------------------------------
    def _on_rising(self, r: int) -> None:
        if r == 1:
            self._arbitration_latch()
        elif r == 2:
            self._priority_latch()
        elif r == 3:
            self.phase = Phase.TRANSFER
            self._collecting = self.role is not Role.TX
        elif r >= 4:
            self._transfer_latch(r)

    def _run_deferred_line_actions(self) -> None:
        actions, self._deferred_line_actions = self._deferred_line_actions, []
        for action in actions:
            action()

    def _defer(self, action: Callable[[], None]) -> None:
        self._deferred_line_actions.append(action)

    def _arbitration_latch(self) -> None:
        self.phase = Phase.PRIORITY
        if self._anchor_driving and self.role is Role.NONE:
            # Anchor duty includes the mediator's no-winner check: an
            # idle-high DATA-in at the latch means a null transaction.
            if self.data_in.value == 1:
                self._anchor_general = True
                self._i_requested = True
                self._hold_clock()
            return
        if self.role is not Role.REQUESTER:
            return
        if not self.bus_domain.is_on:
            self.role = Role.NONE
            return
        won = (
            (self.config.is_mediator and self.mediator_drives_request)
            or self.is_arbitration_anchor
            or self.data_in.value == 1
        )
        if won:
            self.stats.arbitrations_won += 1
            return  # stay in REQUESTER role; confirmed at priority latch
        self.stats.arbitrations_lost += 1
        if self._tx_message is not None and self._tx_message.priority:
            # Keep driving 0 until the priority drive slot (next
            # falling edge), where _on_falling drives DATA high.
            self.role = Role.PRIO_REQUESTER
        else:
            self.role = Role.NONE
            self._tx_message = None
            self._defer(self.data_ctl.forward)

    def _priority_latch(self) -> None:
        self.phase = Phase.RESERVED
        if self.role is Role.REQUESTER:
            if self.data_in.value == 1:
                # A priority request exists somewhere: back off (Fig. 5).
                self.stats.priority_preemptions += 1
                self.role = Role.NONE
                self._tx_message = None
                self._defer(self.data_ctl.forward)
            else:
                self._become_transmitter()
        elif self.role is Role.PRIO_REQUESTER:
            if self.data_in.value == 0:
                self.stats.priority_wins += 1
                self._become_transmitter()
            else:
                self.role = Role.NONE
                self._tx_message = None
                self._defer(self.data_ctl.forward)

    def _become_transmitter(self) -> None:
        self.role = Role.TX
        message = self._tx_message
        assert message is not None
        self._tx_stream = message.address_bits() + message.data_bits()
        # Hold the line low through the reserved cycle; the first
        # address bit goes out at falling edge #4.  The drive itself
        # waits for the next falling edge so that nodes still latching
        # the priority slot are not disturbed.
        self._defer(lambda: self.data_ctl.drive(0))

    # -- addressing and data -------------------------------------------------
    def _transfer_latch(self, r: int) -> None:
        index = r - 4
        if self.role is Role.TX:
            if index + 1 >= len(self._tx_stream) and not self._i_requested:
                # Final bit latched: request interjection by holding
                # CLK high (Section 4.9).
                self._eom_requested = True
                self._i_requested = True
                self._hold_clock()
                self.stats.eom_interjections += 1
            return
        if not self.bus_domain.is_on:
            return
        # Third-party interjections (a forwarder with a latency-
        # sensitive message) are serviced even when not collecting.
        self._maybe_service_interject_request()
        if not self._collecting:
            return
        self._rx_bits.append(self.data_in.value)
        self.stats.bits_latched += 1
        self._after_bit_latched(len(self._rx_bits))
        self._maybe_service_interject_request()

    def _after_bit_latched(self, n_bits: int) -> None:
        if self._matched is None:
            self._match_address(n_bits)
            return
        if self.role is Role.RX:
            addr_bits = self._matched.n_bits
            data_bits = n_bits - addr_bits
            if data_bits > 0 and data_bits % 8 == 0:
                n_bytes = data_bits // 8
                if n_bytes > self.config.rx_buffer_bytes:
                    self._overrun = True
                    self._request_abort("rx-buffer-overrun")

    def _match_address(self, n_bits: int) -> None:
        if n_bits == constants.SHORT_ADDR_BITS:
            prefix = self._bits_value(0, 4)
            if prefix == constants.FULL_ADDR_MARKER_VALUE:
                self._full_address_mode = True
                return
            address = Address.decode(
                self._bits_value(0, 8), constants.SHORT_ADDR_BITS
            )
            self._resolve_match(address)
        elif self._full_address_mode and n_bits == constants.FULL_ADDR_BITS:
            address = Address.decode(
                self._bits_value(0, 32), constants.FULL_ADDR_BITS
            )
            self._resolve_match(address)

    def _resolve_match(self, address: Address) -> bool:
        matched = address.matches(
            self.config.short_prefix,
            self.config.full_prefix,
            self.config.broadcast_channels,
        )
        if matched:
            self.role = Role.RX
            self._matched = address
            self.stats.address_matches += 1
            self.node._on_address_match(address)
        else:
            self.role = Role.IGNORE
            self._collecting = False
            self._rx_bits = []
        return matched

    def _bits_value(self, start: int, length: int) -> int:
        value = 0
        for bit in self._rx_bits[start : start + length]:
            value = (value << 1) | bit
        return value

    # -- abort / third-party interjection ----------------------------------------
    def _request_abort(self, reason: str) -> None:
        self._interject_pending_reason = reason
        self._abort = True
        self._maybe_service_interject_request()

    def _maybe_service_interject_request(self) -> None:
        if self._interject_pending_reason is None or self._i_requested:
            return
        if not self._minimum_progress_met():
            return
        self._i_requested = True
        if self._interject_pending_reason != "rx-buffer-overrun":
            self._abort = True
        self._hold_clock()
        self.stats.abort_interjections += 1

    def _hold_clock(self) -> None:
        """Request an interjection: stop forwarding CLK (hold high)."""
        if self.config.is_mediator:
            self.node._request_mediator_interjection()
        else:
            self.clk_ctl.hold()

    def _minimum_progress_met(self) -> bool:
        """Section 7: the winner may send >= 4 bytes before interruption.

        Progress is derived from the latch-edge count so that even a
        non-collecting forwarder can honour the policy.
        """
        addr_bits = (
            constants.FULL_ADDR_BITS
            if self._full_address_mode
            else constants.SHORT_ADDR_BITS
        )
        data_bits = max(0, self.rising - 3 - addr_bits)
        return data_bits >= 8 * constants.MIN_PROGRESS_BYTES

    # ------------------------------------------------------------------
    # Control phase (two bits + return to idle).
    # ------------------------------------------------------------------
    def _control_falling(self, slot: int) -> None:
        if not self.bus_domain.is_on:
            return
        if self._anchor_general:
            # Anchor-raised general error: the anchor drives the
            # (0, 0) code the mediator would drive in the default
            # priority scheme (Figure 6), then releases the line.
            if slot in (1, 2):
                self.data_ctl.drive(0)
            else:
                self.data_ctl.forward()
            return
        if slot == 1:
            if self._i_requested and self._eom_requested:
                self.data_ctl.drive(1)       # complete message (Fig. 7)
            elif self._i_requested and self._abort:
                self.data_ctl.drive(0)       # incomplete: abort
        elif slot == 2:
            if self._i_requested:
                self.data_ctl.forward()
            if self.role is Role.RX:
                self.data_ctl.drive(self._ack_bit())
        elif slot == 3:
            if not self.config.is_mediator:
                self.data_ctl.forward()

    def _ack_bit(self) -> int:
        """0 = ACK, 1 = NAK (Section 4.9 / Figure 7)."""
        if self._overrun or self._abort:
            return 1
        if self._ctl_bits and self._ctl_bits[0] == 0:
            # Control bit 0 low: the message did not complete (a
            # third-party interjection killed it) — never ACK.
            return 1
        if self.config.ack_policy is not None:
            payload = self._rx_payload()
            return 0 if self.config.ack_policy(payload) else 1
        return 0

    def _control_rising(self, slot: int) -> None:
        if slot in (1, 2):
            self._ctl_bits.append(self.data_in.value)
            if slot == 2 and self.role is Role.RX and not self._i_requested:
                # After latching its own ACK slot the receiver resumes
                # forwarding for the idle-return cycle.
                self.data_ctl.forward()
        elif slot == 3:
            self._finish_transaction()

    def _rx_payload(self) -> bytes:
        if self._matched is None:
            return b""
        addr_bits = self._matched.n_bits
        return bits_to_bytes(self._rx_bits[addr_bits:])

    def _finish_transaction(self) -> None:
        code = self._latched_control_code()
        role = self.role
        if role is Role.TX and self._tx_message is not None:
            # A transmitter knows whether it reached its final state:
            # success requires both the latched EOM_ACK *and* having
            # requested the end-of-message interjection itself.  A
            # spurious interjection (e.g. a glitch storm saturating
            # the detectors mid-transfer) can forge plausible control
            # bits on the forwarding ring; without this guard the TX
            # would silently count a truncated message as delivered.
            success = code is ControlCode.EOM_ACK and self._eom_requested
            if success:
                bytes_sent = self._tx_message.n_bytes
            else:
                # Conservative resume point: the final driven bit may
                # never have been latched by the receiver.
                addr_bits = self._tx_message.dest.n_bits
                payload_bits = max(0, self._tx_bits_driven - addr_bits)
                bytes_sent = max(0, payload_bits // 8 - 1)
            if success and self.pending and self.pending[0] is self._tx_message:
                self.pending.popleft()
            elif not success and self.pending and self.pending[0] is self._tx_message:
                # Leave failed messages queued only for explicit retry
                # policies; default is to drop and report.
                self.pending.popleft()
            self.node._on_tx_done(
                TxOutcome(self._tx_message, code, success, bytes_sent=bytes_sent)
            )
        elif role is Role.RX and self.bus_domain.is_on:
            payload = self._rx_payload()
            if code in (ControlCode.EOM_ACK, ControlCode.RX_ABORT):
                self.node._on_rx_done(
                    ReceivedMessage(
                        source_hint="",
                        dest=self._matched,
                        payload=payload,
                        broadcast=self._matched.is_broadcast,
                        control=code,
                        arrived_at_ps=self.sim.now,
                    )
                )
        # Reset to idle (the mediator logic restores its own lines).
        if not self.config.is_mediator:
            self.data_ctl.forward()
            self.clk_ctl.forward()
        self.phase = Phase.IDLE
        self.role = Role.NONE
        self._tx_message = None
        self._tx_stream = ()
        self.stats.transactions_observed += 1
        self.node._on_transaction_end(code)

    def _latched_control_code(self) -> ControlCode:
        if len(self._ctl_bits) != 2:
            # The node's bus domain was gated through control (it never
            # latched the bits); report a general error locally.
            return ControlCode.GENERAL_ERROR
        return ControlCode.from_bits(self._ctl_bits[0], self._ctl_bits[1])


@dataclass
class EngineStats:
    """Counters exposed for tests and the power model."""

    bus_requests: int = 0
    arbitrations_won: int = 0
    arbitrations_lost: int = 0
    priority_wins: int = 0
    priority_preemptions: int = 0
    address_matches: int = 0
    bits_driven: int = 0
    bits_latched: int = 0
    bits_discarded: int = 0
    eom_interjections: int = 0
    abort_interjections: int = 0
    interjections_seen: int = 0
    transactions_observed: int = 0
    power_loss_resets: int = 0
