"""Mediator: clock generation, arbitration mediation, interjection.

Section 4.2: every MBus system has exactly one mediator, responsible
for generating the bus clock and resolving arbitration.  The mediator
is the only component that must self-start — "the mediator allows that
self-start requirement to be contained within a single, reusable
component."

Responsibilities implemented here:

* watch DATA-in while idle and self-start on a falling edge (4.3);
* refuse to forward DATA during arbitration so the ring is broken at
  a fixed point, giving nodes a topological priority (4.3);
* detect "no winner" at the arbitration latch and raise a general
  error via a mediator-initiated interjection (Figure 6);
* detect interjection requests (CLK-in stuck high) and run the
  interjection sequence — toggling DATA while CLK is held high (4.9);
* impose a maximum message length via a runaway-message counter
  (Section 7), configurable over the broadcast configuration channel;
* clock the two-cycle control sequence and return the bus to idle;
* advance a transfer that no node or exactly one transmitter drives
  by whole cycles (:meth:`MediatorLogic._elide_cycles`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.core import constants
from repro.core.errors import BusLockedError
from repro.core.wire_controller import LineController
from repro.sim.scheduler import Simulator
from repro.sim.signals import EdgeType, Net

if TYPE_CHECKING:
    from repro.core.bus import QuietRing


class MediatorPhase(enum.Enum):
    IDLE = "idle"
    WAKING = "waking"          # self-start latency after DATA fell
    ACTIVE = "active"          # generating the bus clock
    INTERJECT = "interject"    # toggling DATA while CLK held high
    CONTROL = "control"        # clocking the 2-bit control sequence


@dataclass
class MediatorReport:
    """Per-transaction summary emitted when the bus returns to idle."""

    index: int
    start_ps: int
    end_ps: int
    clock_cycles: int           # rising edges generated before control
    control_cycles: int
    control_bits: tuple
    general_error: bool
    error_reason: str = ""


@dataclass
class MediatorStats:
    transactions: int = 0
    general_errors: int = 0
    runaway_aborts: int = 0
    interjection_sequences: int = 0
    clock_edges_generated: int = 0


class MediatorLogic:
    """The mediator state machine, sharing a node's pads.

    ``member_requesting`` is a callable letting the attached member
    engine (if any) claim top arbitration priority: when it reports
    True at self-start, the mediator drives DATA low (its own request)
    instead of high, so every downstream requester loses (Section 7:
    "the mediator always has top priority").
    """

    def __init__(
        self,
        sim: Simulator,
        timing: constants.MBusTiming,
        data_ctl: LineController,
        clk_ctl: LineController,
        data_in: Net,
        clk_in: Net,
        n_nodes_hint: Callable[[], int],
        member_requesting: Callable[[], bool] = lambda: False,
        on_member_should_arbitrate: Optional[Callable[[], None]] = None,
        on_complete: Optional[Callable[[MediatorReport], None]] = None,
    ):
        self.sim = sim
        self.timing = timing
        self.data_ctl = data_ctl
        self.clk_ctl = clk_ctl
        self.data_in = data_in
        self.clk_in = clk_in
        self.n_nodes_hint = n_nodes_hint
        self.member_requesting = member_requesting
        self.on_member_should_arbitrate = on_member_should_arbitrate
        self.on_complete = on_complete

        self.phase = MediatorPhase.IDLE
        self.max_message_bytes = constants.MIN_MAX_MESSAGE_BYTES
        self.stats = MediatorStats()
        #: Mutable priority (Section 7): when an external arbitration
        #: anchor is configured, the mediator keeps forwarding DATA
        #: through arbitration and delegates the no-winner check to
        #: the anchor node.
        self.external_anchor = False
        #: The ring check of cycle elision, set by MBusSystem.build()
        #: (None: every cycle steps edge by edge).
        self.quiet_ring: Optional["QuietRing"] = None

        self._rising = 0
        self._start_ps = 0
        self._self_tx = False
        self._general_error = False
        self._error_reason = ""
        self._toggle_event = None
        self._toggle_count = 0
        self._ctl_rising = 0
        self._ctl_bits: List[int] = []
        self._transaction_index = 0
        self._clock_event = None
        self._wake_event = None
        self._forward_data_pending = False
        self._member_start_pending = False

        data_in.on_edge(self._on_data_edge)

    # ------------------------------------------------------------------
    # Idle watching & self-start (4.2, 4.3).
    # ------------------------------------------------------------------
    def _on_data_edge(self, net: Net, edge: EdgeType) -> None:
        # Hot path: EdgeType is an IntEnum; FALLING == 0.
        if edge == 0 and self.phase is MediatorPhase.IDLE:
            self._schedule_self_start()

    def _schedule_self_start(self) -> None:
        if self.phase is not MediatorPhase.IDLE:
            return
        self.phase = MediatorPhase.WAKING
        self._wake_event = self.sim.schedule(
            self.timing.mediator_wakeup_ps, self._self_start
        )

    def start_for_member(self) -> None:
        """Begin a transaction on behalf of the local member engine.

        The member does not need to pull DATA low and wait for the
        mediator to notice — it *is* on the mediator node.
        """
        if self.phase is MediatorPhase.IDLE:
            self.phase = MediatorPhase.WAKING
            self._wake_event = self.sim.schedule(
                self.timing.mediator_wakeup_ps, self._self_start
            )
        else:
            # The member re-requested while the previous transaction is
            # still winding down (control cycles or the return-to-idle
            # settle).  A *wire* requester in that window is caught by
            # the DATA-low check in _return_to_idle; the co-located
            # member never touches DATA, so latch its request here and
            # service it the same way.
            self._member_start_pending = True

    def _self_start(self) -> None:
        self.phase = MediatorPhase.ACTIVE
        self._member_start_pending = False
        self._rising = 0
        self._start_ps = self.sim.now
        self._general_error = False
        self._error_reason = ""
        self._ctl_bits = []
        self._forward_data_pending = False
        self._self_tx = self.member_requesting()
        if self._self_tx and self.on_member_should_arbitrate is not None:
            self.on_member_should_arbitrate()
        if self.external_anchor:
            # Mutable priority: the anchor node breaks the ring; the
            # mediator only clocks (its member, if requesting, drove
            # DATA low itself like any other member).
            pass
        else:
            # Break the DATA ring: drive high so the topologically
            # first requester sees DATAIN = 1 — or low when the local
            # member is requesting, so every downstream requester
            # loses.
            self.data_ctl.drive(0 if self._self_tx else 1)
        self.clk_ctl.drive(1)  # take ownership of CLK (already high)
        self._schedule_clock_toggle(0)

    # ------------------------------------------------------------------
    # Clock generation (toggling every half period).
    # ------------------------------------------------------------------
    def _schedule_clock_toggle(self, value: int) -> None:
        # Bound methods, not lambdas: this runs twice per bus cycle for
        # the lifetime of the system, so avoid a closure per half period.
        self._clock_event = self.sim.schedule(
            self.timing.half_period_ps,
            self._clock_toggle_high if value else self._clock_toggle_low,
        )

    def _clock_toggle_low(self) -> None:
        self._clock_toggle(0)

    def _clock_toggle_high(self) -> None:
        self._clock_toggle(1)

    def _clock_toggle(self, value: int) -> None:
        if self.phase is not MediatorPhase.ACTIVE:
            return
        if value == 1:
            # About to drive a rising edge: if CLK-in has not followed
            # our previous falling edge, a node is holding CLK high —
            # an interjection request (4.9).
            if self.clk_in.value != 0:
                self._start_interjection(general=False)
                return
            ring = self.quiet_ring
            if ring is not None and self._elide_cycles(ring):
                return
            self.clk_ctl.drive(1)
            self.stats.clock_edges_generated += 1
            self._rising += 1
            self._after_rising(self._rising)
            if self.phase is MediatorPhase.ACTIVE:
                self._schedule_clock_toggle(0)
        else:
            self.clk_ctl.drive(0)
            self.stats.clock_edges_generated += 1
            if self._forward_data_pending:
                # Deferred from the arbitration latch: resume
                # forwarding on a falling edge so no node's latch is
                # disturbed mid-sample.
                self._forward_data_pending = False
                self.data_ctl.forward()
            self._schedule_clock_toggle(1)

    def _elide_cycles(self, ring: "QuietRing") -> int:
        """Advance whole cycles of a quiet or driven transfer in
        arithmetic.

        Called at each rising edge the mediator is about to drive.
        When the mediator has nothing deferred and ``ring`` allows the
        transfer's next cycles, those before the first decision point
        (the watchdog limit, an engine's next decision, and whatever
        :meth:`Simulator.elide` stops short of) are applied in bulk,
        and the rising edge that follows them is scheduled.  Returns
        the cycles advanced; 0 means this edge steps as usual.
        """
        if self._forward_data_pending or not self._rising or ring.blocked():
            return 0
        limit = self._watchdog_limit_cycles() - self._rising
        if limit <= 0:
            return 0
        half = self.timing.half_period_ps
        cycles = ring.quiet_cycles(limit, half)
        if cycles:
            cycles = self.sim.elide(
                2 * half, ring.most_per_cycle, cycles, ring.events
            )
        if not cycles:
            return 0
        ring.advance_cycles(cycles)
        self._rising += cycles
        self.stats.clock_edges_generated += 2 * cycles
        self._clock_event = self.sim.schedule(
            2 * half * cycles, self._clock_toggle_high
        )
        return cycles

    def _after_rising(self, r: int) -> None:
        if r == 1 and not self.external_anchor:
            # Arbitration latch: no requester means a null transaction
            # (Figure 6) -> general error.
            if not self._self_tx and self.data_in.value == 1:
                self._start_interjection(
                    general=True, reason="no-arbitration-winner"
                )
                return
            if not self._self_tx:
                # Resume forwarding (at the next falling edge) so
                # priority requests and, later, data bits can cross
                # the mediator (Figure 5).
                self._forward_data_pending = True
        if r > self._watchdog_limit_cycles():
            self.stats.runaway_aborts += 1
            self._start_interjection(general=True, reason="runaway-message")

    def _watchdog_limit_cycles(self) -> int:
        return (
            constants.ARBITRATION_CYCLES
            + constants.ADDR_CYCLES_FULL
            + 8 * self.max_message_bytes
            + 8
        )

    def request_interjection_from_member(self) -> None:
        """The co-located member engine finished its message (EoM).

        A normal transmitter holds its CLK-out high; the mediator's
        own member cannot (it *generates* CLK), so it calls in here
        instead and the mediator runs the interjection directly.
        """
        if self.phase is MediatorPhase.ACTIVE:
            self._start_interjection(general=False)

    def set_max_message_bytes(self, n_bytes: int) -> None:
        """Runaway watchdog limit (Section 7), min-max 1 kB."""
        self.max_message_bytes = constants.clamp_max_message_bytes(n_bytes)

    # ------------------------------------------------------------------
    # Interjection sequence (4.9, Figures 6 and 7).
    # ------------------------------------------------------------------
    def _start_interjection(self, general: bool, reason: str = "") -> None:
        self.phase = MediatorPhase.INTERJECT
        self.stats.interjection_sequences += 1
        if general:
            self._general_error = True
            self._error_reason = reason
            if reason == "no-arbitration-winner":
                self.stats.general_errors += 1
        if self._clock_event is not None:
            self._clock_event.cancel()
        # Hold CLK high ring-wide (restoring it if we had driven the
        # falling edge that a holder absorbed).
        self.clk_ctl.drive(1)
        self._toggle_count = 0
        settle = 2 * self.timing.ring_delay_ps(max(self.n_nodes_hint(), 2))
        self.sim.schedule(settle, self._toggle_data)

    def _toggle_data(self) -> None:
        if self.phase is not MediatorPhase.INTERJECT:
            return
        max_toggles = 8 * constants.INTERJECTION_DETECT_TOGGLES + 16
        if self._toggle_count > max_toggles:
            raise BusLockedError(
                "interjection toggles did not circulate the ring"
            )
        self._toggle_count += 1
        next_value = self._toggle_count % 2  # 1, 0, 1, 0 ... ends high
        self.data_ctl.drive(next_value)
        interval = 2 * self.timing.ring_delay_ps(max(self.n_nodes_hint(), 2))
        self._toggle_event = self.sim.schedule(interval, self._toggle_data)

    def on_interjection_detected(self) -> None:
        """The node's interjection detector fired (after its member
        engine heard of it): the toggles circulated the ring."""
        if self.phase is not MediatorPhase.INTERJECT:
            return
        if self._toggle_event is not None:
            self._toggle_event.cancel()
        self.data_ctl.drive(1)  # park DATA high before control
        settle = 2 * self.timing.ring_delay_ps(max(self.n_nodes_hint(), 2))
        self.sim.schedule(settle, self._begin_control)

    # ------------------------------------------------------------------
    # Control sequence: 2 bits + return to idle (3 cycles).
    # ------------------------------------------------------------------
    def _begin_control(self) -> None:
        self.phase = MediatorPhase.CONTROL
        self._ctl_rising = 0
        self._ctl_bits = []
        if not self._general_error:
            # Forward so the transmitter's and receiver's control bits
            # circulate; in the general-error case we keep driving.
            self.data_ctl.forward()
        self._schedule_control_toggle(0)

    def _schedule_control_toggle(self, value: int) -> None:
        self.sim.schedule(
            self.timing.half_period_ps,
            self._control_toggle_high if value else self._control_toggle_low,
        )

    def _control_toggle_low(self) -> None:
        self._control_toggle(0)

    def _control_toggle_high(self) -> None:
        self._control_toggle(1)

    def _control_toggle(self, value: int) -> None:
        if self.phase is not MediatorPhase.CONTROL:
            return
        if value == 0:
            falling_slot = self._ctl_rising + 1
            if self._general_error and falling_slot in (1, 2):
                self.data_ctl.drive(0)
            elif falling_slot == 3:
                # Idle-return cycle: drive DATA high (Figure 7 step 7).
                self.data_ctl.drive(1)
            self.clk_ctl.drive(0)
            self.stats.clock_edges_generated += 1
            self._schedule_control_toggle(1)
        else:
            self.clk_ctl.drive(1)
            self.stats.clock_edges_generated += 1
            self._ctl_rising += 1
            if self._ctl_rising in (1, 2):
                self._ctl_bits.append(self.data_in.value)
                self._schedule_control_toggle(0)
            else:
                self._finish_transaction()

    def _finish_transaction(self) -> None:
        report = MediatorReport(
            index=self._transaction_index,
            start_ps=self._start_ps,
            end_ps=self.sim.now,
            clock_cycles=self._rising,
            control_cycles=self._ctl_rising,
            control_bits=tuple(self._ctl_bits),
            general_error=self._general_error,
            error_reason=self._error_reason,
        )
        self._transaction_index += 1
        self.stats.transactions += 1
        settle = 2 * self.timing.ring_delay_ps(max(self.n_nodes_hint(), 2))
        self.sim.schedule(settle, self._return_to_idle)
        if self.on_complete is not None:
            self.on_complete(report)

    def _return_to_idle(self) -> None:
        self.phase = MediatorPhase.IDLE
        self.data_ctl.forward()
        self.clk_ctl.forward()
        # A request may already be pending on the wire (a node pulled
        # DATA low while we were finishing) or latched by the local
        # member (start_for_member during wind-down); catch either.
        if self._member_start_pending or self.data_in.value == 0:
            self._member_start_pending = False
            self._schedule_self_start()
