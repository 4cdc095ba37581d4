"""Transaction-level model (TLM) of MBus: closed-form round planning.

This module is the analytic core of the two transaction-level tiers,
the fast path (:mod:`repro.sim.fastpath`) and the batch executor
(:mod:`repro.batch.executor`).  Instead of firing a Python event for
every CLK/DATA edge of every ring segment (the edge-accurate engine's
O(bits x nodes) behaviour), it computes each bus round *in closed
form* from the protocol rules of Sections 4.3-4.9:

* arbitration and priority-arbitration winners from ring topology
  (the first requester downstream of the break point);
* the rising-edge count ``R`` at which the transaction ends — end of
  message, receiver-buffer abort, or the mediator's runaway watchdog;
* the interjection sequence duration from the saturating-counter
  detector model (how many DATA toggles must circulate before the
  mediator's own detector fires);
* the two control bits a node latches (the nearest upstream driver
  on the DATA ring), so that the mediator's, the transmitter's and
  each receiver's control code (and therefore deliveries and ACK/NAK
  outcomes) match the edge engine exactly;
* per-node clock-edge arrival times, from which hierarchical wakeup
  times (bus domain at the 4th edge, layer domain 4 edges after its
  arming event) fall out.

A round's outcome is a pure function of the ring settings
(:class:`RoundContext`) and a :class:`RoundKey`: which nodes request
with which message, each node's power and interrupt state, and who
raised a null pulse.  :func:`plan_round` plans a key once, at
``t0 = 0``, into a :class:`RoundTemplate` whose every time is an
offset from the round's start, and a :class:`RoundTable` keeps the
templates by key.  Payload content reaches a round in three places
only: the DATA toggle count, the one driven bit its timing reads (at
:attr:`RoundTemplate.cut`) and the delivered bytes.  So the table also
keeps one plan per message *shape* (destination, length and priority,
plus that bit) and serves a new payload of a known shape as an
overlay of those three on the shape's plan.  Both tiers resolve
rounds from such a table (:meth:`RoundTable.resolve`) and realise a
template at its start time ``t0`` by adding ``t0``: the fast path as
simulator events on live nodes, the batch executor as integer updates
on flat arrays.

A plan pays only for the nodes its round touches.  The
:class:`RingTopology` builds its tables once per ring: each
position's CLK delay, the order and maximum of the per-node round
ends, and the receivers of each short prefix, full prefix and
broadcast channel.  The planner then loops over the round's
requesters, receivers and nodes in a non-default state; what stays
O(n) per plan is one tuple each for the per-node ends and the wire
activity.

It also owns everything else the two tiers must agree on, so neither
keeps a copy: the mediator-rooted ring both lower a system to
(:func:`lower_ring`) and the post-round policy of Sections 4.3-4.5 —
whether a request or null pulse raised on an idle bus acts, and when
it starts the next round (:func:`raise_from_idle`), and who
re-requests, pulses or auto-sleeps after a round (:func:`post_round`).

Everything here is pure computation over integers — no simulator, no
events.  The formulas were validated edge-for-edge against the
edge-accurate engine (see ``tests/integration/
test_fastpath_equivalence.py``); result fields (winner, control code,
cycle counts, delivered payloads, wake counts) are exact, and the
picosecond timings agree to within propagation-delay slack.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import constants
from repro.core.addresses import Address
from repro.core.constants import NODE_SETTLE_FACTOR
from repro.core.messages import ControlCode, Message
from repro.core.node import NodeConfig
from repro.obs.state import OBS

__all__ = [
    "MAX_TEMPLATES",
    "Rearm",
    "RingTopology",
    "RoundContext",
    "RoundKey",
    "RoundTable",
    "RoundTemplate",
    "lower_ring",
    "plan_round",
    "post_round",
    "raise_from_idle",
    "resolve_arbitration",
]

#: The bound on a :class:`RoundTable`.  Every distinct payload adds a
#: template (an overlay when its shape is known, so it costs no plan),
#: so a long run of one-off payloads would otherwise grow the table
#: with every round.
MAX_TEMPLATES = 256


class RingTopology:
    """Propagation arithmetic and receiver lookup for one ring of nodes.

    ``nodes`` are the nodes' :class:`~repro.core.node.NodeConfig`
    records in ring order; position 0 is the mediator.  Signals travel
    0 -> 1 -> ... -> n-1 -> 0; the mediator's drive reaches node
    ``q``'s input pads after the pad-driver delay plus ``q - 1``
    forwarding hops, each the node's ``node_delay_ps`` or the timing
    default.

    The per-ring tables the planner reads are built here once, so a
    plan pays only for the nodes its round touches: each position's
    CLK delay, the order and maximum of the per-node round ends, and
    the receivers of each short prefix, full prefix and broadcast
    channel.  They read the configs once, so a ring does not follow a
    prefix or channel changed later (enumeration, which rewrites them
    at run time, runs on the edge engine only).
    """

    def __init__(
        self, nodes: Sequence[NodeConfig], timing: constants.MBusTiming
    ):
        self.nodes = list(nodes)
        self.n = len(nodes)
        self.timing = timing
        self.drive_delay = timing.drive_delay_ps
        # Prefix sums of forwarding delays so heterogeneous node
        # delays (NodeConfig.node_delay_ps overrides) are honoured.
        self._prefix = [0] * (self.n + 1)
        for i, node in enumerate(self.nodes):
            self._prefix[i + 1] = self._prefix[i] + (
                node.node_delay_ps or timing.node_delay_ps
            )
        #: The settle every node applies between observing a round's
        #: end and acting on it (MBusNode._settle_ps).
        self.settle_ps = NODE_SETTLE_FACTOR * timing.node_delay_ps
        #: Positions whose node decides its ACK by payload content.
        self.content_acks = frozenset(
            pos for pos, node in enumerate(self.nodes)
            if node.ack_policy is not None
        )
        #: Positions that power themselves down once idle.
        self.auto_sleepers = tuple(
            pos for pos, node in enumerate(self.nodes)
            if node.power_gated and node.auto_sleep
        )
        #: Per position: mediator CLK drive -> the node's CLK-in.
        self.clk_delay = tuple(self.clk_prop(q) for q in range(self.n))
        # Node q observes a round's end at ``end + clk_delay[q]``, so
        # every round's ends share one order (ties by position) and
        # one maximum.
        self.end_order = tuple(
            sorted(range(self.n), key=self.clk_delay.__getitem__)
        )
        self.max_clk_delay = max(self.clk_delay)
        # Receivers by ("short", prefix), ("full", prefix) and
        # ("channel", broadcast channel), each in ring order.
        index: Dict[Tuple[str, int], List[int]] = {}
        for pos, node in enumerate(self.nodes):
            keys = [("channel", ch) for ch in node.broadcast_channels]
            if node.short_prefix is not None:
                keys.append(("short", node.short_prefix))
            if node.full_prefix is not None:
                keys.append(("full", node.full_prefix))
            for key in keys:
                index.setdefault(key, []).append(pos)
        self._receivers = {key: tuple(ps) for key, ps in index.items()}

    def receivers(self, address: Address) -> Tuple[int, ...]:
        """Positions whose node accepts ``address`` (exactly those
        :meth:`Address.matches` accepts), in ring order."""
        # Broadcast first: it is a short address with prefix 0.
        if address.is_broadcast:
            key = ("channel", address.fu_id)
        elif address.is_short:
            key = ("short", address.short_prefix)
        else:
            key = ("full", address.full_prefix)
        return self._receivers.get(key, ())

    def clk_prop(self, q: int) -> int:
        """Mediator CLK drive -> node q's CLK-in arrival delay."""
        if q == 0:
            return self.full_prop
        return self.drive_delay + self._prefix[q] - self._prefix[1]

    @property
    def full_prop(self) -> int:
        """Once around: mediator drive -> mediator's own input pad."""
        return self.drive_delay + self._prefix[self.n] - self._prefix[1]

    def member_to_mediator(self, p: int) -> int:
        """Node p drives its output -> mediator's input pad arrival."""
        return self.drive_delay + self._prefix[self.n] - self._prefix[p + 1]

    def hop_delay(self, src: int, dst: int) -> int:
        """Node ``src`` drives its output -> node ``dst``'s input pad.

        The signal crosses the forwarding muxes of every node strictly
        between the two, walking downstream (possibly wrapping); O(1)
        via the same prefix sums the other queries use.
        """
        if dst > src:
            between = self._prefix[dst] - self._prefix[src + 1]
        else:
            between = (
                self._prefix[self.n] - self._prefix[src + 1]
            ) + self._prefix[dst]
        return self.drive_delay + between


def lower_ring(
    configs: Sequence[NodeConfig], timing: constants.MBusTiming
) -> Tuple[List[int], RingTopology]:
    """The mediator-rooted ring of ``configs`` (given in ring order).

    The planner roots all ring arithmetic (propagation, break points,
    control resolution) at the mediator, which a system may place at
    any index; rotating the ring to put it at position 0 is a pure
    relabelling that keeps adjacency and topological priority.
    Returns the ``configs`` indices in position order, and the
    topology.
    """
    first = next(i for i, config in enumerate(configs) if config.is_mediator)
    order = list(range(first, len(configs))) + list(range(first))
    return order, RingTopology([configs[i] for i in order], timing)


# ----------------------------------------------------------------------
# Round keys, templates and tables.
# ----------------------------------------------------------------------
class RoundKey(NamedTuple):
    """Everything about the nodes that decides one bus round.

    Each part is sorted by ring position.  A node missing from
    ``states`` is fully awake with no interrupt pending, which keeps
    the key short on a ring of always-on nodes.
    """

    #: ``(position, head-of-queue message)`` of every arbitration
    #: entrant.
    requests: Tuple[Tuple[int, Message], ...]
    #: ``(position, bus_on, layer_on, pending_interrupt)`` of every
    #: node in any other state.
    states: Tuple[Tuple[int, bool, bool, bool], ...]
    #: Positions that raised the null pulse starting the round (their
    #: layer sequencers arm at the pulse).
    pulsers: Tuple[int, ...]


@dataclass(frozen=True)
class RoundContext:
    """The ring settings every round of a :class:`RoundTable` shares."""

    topology: RingTopology
    anchor_pos: Optional[int]
    max_message_bytes: int


#: One delivery: the receiver's name, then the ReceivedMessage fields
#: in positional order, with the arrival time as an offset.
Delivery = Tuple[str, Address, bytes, bool, ControlCode, int]


@dataclass(eq=False, slots=True)
class RoundTemplate:
    """One planned bus round; every time is an offset from its start.

    The start ``t0`` is the mediator's self-start.  Templates compare
    and hash by identity, so a run can count its rounds per template.
    """

    key: RoundKey
    winner: Optional[int]           # ring position of the transmitter
    tx_node: Optional[str]
    message: Optional[Message]
    tx_control: Optional[ControlCode]   # as latched by the transmitter
    tx_bytes_sent: int
    control: ControlCode            # as latched by the mediator
    general_error: bool
    error_reason: str
    clock_cycles: int               # mediator risings before control
    end_off: int                    # final control rising edge
    #: Per position: when the node observes the round end (its final
    #: control rising arrival); interrupt servicing, auto-sleep
    #: scheduling and re-requests all key off this.
    node_end_off: Tuple[int, ...]
    fin_off: int                    # the round's last observed end
    #: Positions in the order they observe the end (ties by position).
    end_order: Tuple[int, ...]
    #: ``(position, offset, reason)`` of each bus-domain power-on
    #: (gated nodes only), then of each layer-domain power-on.
    bus_wake: Tuple[Tuple[int, int, str], ...]
    layer_wake: Tuple[Tuple[int, int, str], ...]
    #: Completed deliveries in ring-arrival order (members, then the
    #: mediator).
    rx: Tuple[Delivery, ...]
    #: Per position: estimated output transitions (CLK + DATA) for the
    #: activity model.
    wire_row: Tuple[int, ...]
    control_cycles: int = constants.CONTROL_CYCLES
    #: The stream index of the one driven bit the round's timing reads
    #: (a member transmitter's last bit before interjection); None
    #: when it reads none.  It depends only on the message's shape.
    cut: Optional[int] = None
    ok: bool = field(init=False)
    #: A campaign record builder's record terms (filled outside the
    #: core, by repro.scenario.runner).  Until then it is None on a
    #: planned template and the shape's plan on an overlay, whose
    #: terms the builder derives from the plan's.
    row: Any = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.ok = (
            self.control is ControlCode.EOM_ACK and not self.general_error
        )


class RoundTable(Dict[RoundKey, RoundTemplate]):
    """Round templates by key, all planned in one :class:`RoundContext`.

    A tier resolves each round here (:meth:`resolve`): a template per
    distinct message, planned once per message shape and overlaid for
    each new payload of that shape; a change of ring settings needs a
    new table.  Each tier bounds its table by :data:`MAX_TEMPLATES`,
    emptying it (both levels) where it holds no template it still needs
    by key: the fast path before it resolves a round it has no template
    for (``limit``), the batch tier at the start of a run.
    """

    __slots__ = ("ctx", "limit", "_shapes")

    def __init__(self, ctx: RoundContext, limit: Optional[int] = None) -> None:
        super().__init__()
        self.ctx = ctx
        self.limit = limit
        # Per shape (the key with each message reduced to its
        # destination, length and priority): the winner and the cut its
        # first plan recorded, and by the bit at that cut, a plan with
        # its DATA stream transitions.
        self._shapes: Dict[tuple, Tuple[
            int, Optional[int], Dict[int, Tuple[RoundTemplate, int]]
        ]] = {}

    def clear(self) -> None:
        super().clear()
        self._shapes.clear()

    def resolve(
        self,
        key: RoundKey,
        plan: Callable[[RoundContext, RoundKey], RoundTemplate],
    ) -> RoundTemplate:
        """The template of ``key``: the one already kept for it, else
        an overlay of a plan of its shape, else a new plan by ``plan``
        (kept for the key and, unless a receiver decides its ACK by
        content, for the shape).  Each tier passes the
        :func:`plan_round` it imported, where harnesses wrap it."""
        tpl = self.get(key)
        if tpl is not None:
            return tpl
        if self.limit is not None and len(self) >= self.limit:
            self.clear()
        requests = key.requests
        shape = (
            tuple([
                (pos, message.dest, len(message.payload), message.priority)
                for pos, message in requests
            ]),
            key.states,
            key.pulsers,
        )
        found = self._shapes.get(shape)
        if found is not None:
            winner, cut, plans = found
            for pos, message in requests:
                if pos == winner:
                    break
            word, n_bits = _stream_word(message)
            shaped = plans.get(_bit_at(word, n_bits, cut))
            if shaped is not None:
                tpl = self[key] = _overlay(*shaped, key, message, word, n_bits)
                if OBS.enabled:
                    OBS.metrics.inc("tlm.shape_hits")
                return tpl
        tpl = self[key] = plan(self.ctx, key)
        topo = self.ctx.topology
        if tpl.winner is None or tpl.message is None or (
            topo.content_acks and not topo.content_acks.isdisjoint(
                topo.receivers(tpl.message.dest)
            )
        ):
            return tpl
        if found is None:
            found = self._shapes[shape] = (tpl.winner, tpl.cut, {})
        word, n_bits = _stream_word(tpl.message)
        found[2][_bit_at(word, n_bits, tpl.cut)] = (
            tpl, _stream_transitions(word, n_bits, tpl.clock_cycles - 3)
        )
        return tpl


def sample_ring(
    drivers: Dict[int, int], positions: Iterable[int], parked: int = 1
) -> Dict[int, int]:
    """Value each of ``positions`` samples on its DATA-in pad.

    Node ``q`` sees the nearest driving node walking upstream from
    ``q - 1``; a node driving its own output is reached last (a full
    wrap).  That is the largest driver position below ``q``, wrapping
    to the largest overall, found by bisection.  With no drivers
    anywhere the line holds its parked value.
    """
    if not drivers:
        return dict.fromkeys(positions, parked)
    keys = sorted(drivers)
    # bisect_left is 0 when no driver is below q: keys[-1] is the wrap.
    return {q: drivers[keys[bisect_left(keys, q) - 1]] for q in positions}


def _downstream(positions: Iterable[int], start: int) -> int:
    """The first of ``positions`` (none of them ``start``) walking
    downstream from ``start``, wrapping past the ring's last node."""
    return min(positions, key=lambda pos: (pos < start, pos))


def resolve_arbitration(
    requests: Dict[int, Message],
    anchor_pos: Optional[int],
) -> Optional[int]:
    """Winner of arbitration + priority arbitration (Section 4.3).

    ``requests`` maps ring position to the head-of-queue message of
    every node that pulled DATA low before the arbitration latch.
    Returns the transmitting position, or None for a null round.
    """
    if not requests:
        return None
    break_pos = anchor_pos if anchor_pos is not None else 0
    # Fiat winners: the mediator's own member (it drives the broken
    # ring low, so every downstream requester loses) or the anchor.
    if break_pos in requests:
        winner = break_pos
    else:
        winner = _downstream(requests, break_pos)
    # Priority slot (Figure 5): losers holding priority messages pull
    # DATA high; the first of them downstream of the winner takes the
    # bus (the winner always sees a '1' upstream and backs off).
    prio = [
        pos for pos, message in requests.items()
        if pos != winner and message.priority
    ]
    if prio:
        return _downstream(prio, winner)
    return winner


def _stream_word(message: Message) -> Tuple[int, int]:
    """The bits a transmitter drives, address then payload, as one
    integer read MSB first: ``(word, n_bits)``.  Bit ``i`` of the
    stream is ``(word >> (n_bits - 1 - i)) & 1``."""
    payload = message.payload
    n_data = 8 * len(payload)
    return (
        (message.dest.encode() << n_data) | int.from_bytes(payload, "big"),
        message.dest.n_bits + n_data,
    )


def _stream_transitions(word: int, n_bits: int, m: int) -> int:
    """DATA transitions while driving the stream's first ``m`` bits:
    idle-high -> arbitration-low, then one per change between
    neighbours of ``0, bit 0, ..., bit m-1``."""
    prefix = word >> (n_bits - m)
    return 1 + (prefix ^ (prefix >> 1)).bit_count()


def _bit_at(word: int, n_bits: int, index: Optional[int]) -> int:
    """Bit ``index`` of the stream; 0 when no bit is read (None)."""
    if index is None:
        return 0
    return (word >> (n_bits - 1 - index)) & 1


def _overlay(
    plan: RoundTemplate,
    plan_edges: int,
    key: RoundKey,
    message: Message,
    word: int,
    n_bits: int,
) -> RoundTemplate:
    """``plan`` carrying ``message``, another payload of its shape and
    the same bit at its cut: only the message, the delivered prefix and
    the DATA transitions in ``wire_row`` change (``plan_edges`` is the
    plan's own stream transition count)."""
    rx = plan.rx
    if rx:
        dest = message.dest
        delivered = message.payload[:len(rx[0][2])]
        rx = tuple([
            (name, dest, delivered, broadcast, control, arrival)
            for name, _dest, _payload, broadcast, control, arrival in rx
        ])
    wire_row = plan.wire_row
    edges = _stream_transitions(word, n_bits, plan.clock_cycles - 3)
    delta = edges - plan_edges
    if delta:
        wire_row = tuple(count + delta for count in wire_row)
    tpl = RoundTemplate(
        key, plan.winner, plan.tx_node, message, plan.tx_control,
        plan.tx_bytes_sent, plan.control, plan.general_error,
        plan.error_reason, plan.clock_cycles, plan.end_off,
        plan.node_end_off, plan.fin_off, plan.end_order, plan.bus_wake,
        plan.layer_wake, rx, wire_row, plan.control_cycles, plan.cut,
    )
    tpl.row = plan
    return tpl


def interjection_fire_delay(
    broken_at_mediator: bool,
    last_driven_bit: int,
    settle: int,
    full_prop: int,
) -> int:
    """Delay from interjection start to the mediator's detector firing.

    The mediator toggles DATA every ``settle`` (two ring delays).  If
    the DATA ring is broken at the mediator itself (it is the
    transmitter, or a general error is being raised), its own detector
    saturates after THRESHOLD toggles circulate.  If a member
    transmitter is still driving DATA, that node's detector must
    saturate first (THRESHOLD toggles), after which it resumes
    forwarding; its output snaps to the circulating toggle value —
    producing one extra edge when its last driven bit differs — and
    the mediator then needs the remaining edges.
    """
    threshold = constants.INTERJECTION_DETECT_TOGGLES
    if broken_at_mediator:
        toggles = threshold
    elif last_driven_bit == 0:
        # Toggle values run 1,0,1,...; the snap edge (0 -> 1) counts.
        toggles = 2 * threshold - 1
    else:
        toggles = 2 * threshold
    return toggles * settle + full_prop


#: The state of a node a :class:`RoundKey` leaves out:
#: ``(bus_on, layer_on, pending_interrupt)``.
_AWAKE = (True, True, False)


def plan_round(ctx: RoundContext, key: RoundKey) -> RoundTemplate:
    """Compute one complete bus round analytically, at ``t0 = 0``.

    The observability wrapper around :func:`_plan_round_impl`: when
    ``repro.obs`` is off this is one boolean check plus a tail call,
    so the planner's per-round cost is unchanged.
    """
    if not OBS.enabled:
        return _plan_round_impl(ctx, key)
    with OBS.profiled("plan_round", "tlm.plan_round_calls"):
        return _plan_round_impl(ctx, key)


def _plan_round_impl(ctx: RoundContext, key: RoundKey) -> RoundTemplate:
    topo = ctx.topology
    timing = topo.timing
    n = topo.n
    half = timing.half_period_ps
    settle = 2 * timing.ring_delay_ps(n)
    full_prop = topo.full_prop

    requests = dict(key.requests)
    winner = resolve_arbitration(requests, ctx.anchor_pos)
    if winner is None:
        return _plan_wakeup_round(ctx, key, half, settle, full_prop)

    states = {state[0]: state[1:] for state in key.states}
    message = requests[winner]
    word, n_stream = _stream_word(message)
    addr_bits = message.dest.n_bits
    n_bytes = message.n_bytes
    nodes = topo.nodes

    # Receiver set: every non-transmitting node whose address matches.
    rx_positions = [
        pos for pos in topo.receivers(message.dest) if pos != winner
    ]

    # --- where does the transaction end? --------------------------------
    r_eom = 3 + n_stream
    candidates = [("eom", r_eom)]
    for pos in rx_positions:
        buffer_bytes = nodes[pos].rx_buffer_bytes
        k_abort = max(buffer_bytes + 1, constants.MIN_PROGRESS_BYTES)
        if k_abort <= n_bytes:
            candidates.append(("abort", 3 + addr_bits + 8 * k_abort))
    r_watchdog = (
        constants.ARBITRATION_CYCLES
        + constants.ADDR_CYCLES_FULL
        + 8 * ctx.max_message_bytes
        + 8
        + 1
    )
    if r_watchdog < r_eom:
        candidates.append(("runaway", r_watchdog))
    r_end = min(r for _, r in candidates)
    kinds = {kind for kind, r in candidates if r == r_end}
    runaway = "runaway" in kinds
    eom = "eom" in kinds and not runaway
    aborted = "abort" in kinds and not runaway

    data_bytes_latched = max(0, (r_end - 3 - addr_bits) // 8)
    delivered_payload = message.payload[: data_bytes_latched]

    # --- interjection timing ---------------------------------------------
    broken_at_mediator = winner == 0
    if runaway:
        # The mediator interjects the moment it drives rising R.
        t_interject = 2 * r_end * half
    elif broken_at_mediator:
        # The mediator's member cannot hold CLK; it calls straight into
        # the mediator when it latches its final bit (one ring delay
        # after the mediator drove that rising edge).
        t_interject = 2 * r_end * half + full_prop
    else:
        # A member held CLK high; the mediator notices when its next
        # rising edge fails to propagate — one full cycle later.
        t_interject = 2 * (r_end + 1) * half

    overruns = {
        pos for pos in rx_positions
        if data_bytes_latched > nodes[pos].rx_buffer_bytes
    }
    # Who is breaking the CLK ring when the mediator interjects?  The
    # transmitter at end of message, the (first) aborting receiver on
    # an overrun; nobody on a runaway (the mediator acts directly).
    holder_pos = None
    if not runaway and not broken_at_mediator:
        holder_pos = winner if eom else min(overruns)
    # The last bit the transmitter drove; the mediator drives none.
    cut: Optional[int] = None
    if not broken_at_mediator:
        # Bits the transmitter has pushed out: one per falling edge
        # from #4; it sees the absorbed falling R+1 only if the CLK
        # holder is further around the ring than it is.
        if eom:
            cut = n_stream - 1
        else:
            saw_extra_falling = (
                holder_pos is not None and winner < holder_pos
            )
            cut = min(
                n_stream - 1, r_end - 3 if saw_extra_falling else r_end - 4
            )
    last_bit = _bit_at(word, n_stream, cut)
    fire = t_interject + interjection_fire_delay(
        broken_at_mediator, last_bit, settle, full_prop
    )
    tc0 = fire + settle                      # control phase begins
    end_ps = tc0 + 6 * half                  # third control rising

    # --- control-bit resolution (Figure 7) -------------------------------
    # Only the mediator, the transmitter and the receivers' codes are
    # read.
    read = (0, winner, *rx_positions)
    slot1: Dict[int, int] = {}
    if runaway:
        slot1[0] = 0                          # mediator drives General Error
    if eom:
        slot1[winner] = 1                     # complete message
    if aborted:
        for pos in overruns:
            slot1[pos] = 0                    # incomplete: abort
    bit0 = sample_ring(slot1, read)

    slot2: Dict[int, int] = {}
    if runaway:
        slot2[0] = 0
    for pos in rx_positions:
        node = nodes[pos]
        if pos in overruns or bit0[pos] == 0:
            ack = 1                           # never ACK a dead message
        elif node.ack_policy is not None:
            ack = 0 if node.ack_policy(delivered_payload) else 1
        else:
            ack = 0
        slot2[pos] = ack
    bit1 = sample_ring(slot2, read)

    codes = {q: ControlCode.from_bits(bit0[q], bit1[q]) for q in read}
    node_end_off = tuple(end_ps + delay for delay in topo.clk_delay)

    # --- per-node wakeups -------------------------------------------------
    # Only a node in a non-default state has anything to wake.
    bus_wake: List[Tuple[int, int, str]] = []
    layer_wake: List[Tuple[int, int, str]] = []
    rx_set = set(rx_positions)
    for q, bus_on, layer_on, pending in key.states:
        if bus_on and layer_on:
            continue  # nothing to wake; skip the edge arithmetic
        is_pulser = q in key.pulsers
        sees_extra = holder_pos is not None and 0 < q <= holder_pos
        n_edges = 2 * r_end + (2 if sees_extra else 0) + 6
        prop = topo.clk_delay[q]
        edge_at = lambda i: _edge_time_at(  # noqa: E731 - tiny local helper
            i, half, r_end, tc0, prop, sees_extra, t_interject
        )
        bus_on_edge_index = None
        if not bus_on:
            bus_on_edge_index = 3                       # fourth edge
            bus_wake.append((
                q, edge_at(3), "interrupt" if is_pulser else "transaction"
            ))
        if not layer_on:
            arm_candidates = []
            if pending:
                if bus_on_edge_index is not None:
                    # Armed inside the bus domain's power-on callback;
                    # the layer sequencer steps on that same edge.
                    arm_candidates.append(
                        ("interrupt", bus_on_edge_index, True)
                    )
                elif is_pulser:
                    # Bus already on: the null pulse armed the layer
                    # directly, before the first clock edge.
                    arm_candidates.append(("interrupt", -1, False))
            if q in rx_set:
                r_match = 3 + addr_bits
                arm_candidates.append(("rx-wakeup", 2 * r_match - 1, False))
            if arm_candidates:
                reason, arm_index, same_edge_step = min(
                    arm_candidates, key=lambda c: c[1]
                )
                on_index = arm_index + (3 if same_edge_step else 4)
                if on_index < n_edges:
                    layer_wake.append((q, edge_at(on_index), reason))

    # --- deliveries --------------------------------------------------------
    # Ring-arrival order: the members, then the mediator.
    if rx_positions and rx_positions[0] == 0:
        rx_positions.append(rx_positions.pop(0))
    layer_woken = {q for q, _off, _reason in layer_wake}
    rx = tuple(
        (nodes[pos].name, message.dest, delivered_payload,
         message.dest.is_broadcast, codes[pos], node_end_off[pos])
        for pos in rx_positions
        if codes[pos] in (ControlCode.EOM_ACK, ControlCode.RX_ABORT)
        and (states.get(pos, _AWAKE)[1] or pos in layer_woken)
    )

    # --- wire-activity estimate -------------------------------------------
    stream_edges = _stream_transitions(word, n_stream, r_end - 3)
    toggles = interjection_fire_delay(
        broken_at_mediator, last_bit, 1, 0
    )
    transitions = 2 * r_end + 6 + stream_edges + toggles + 3
    # The CLK holder and every node before it see two more CLK edges.
    held = 0 if holder_pos is None else holder_pos + 1
    wire_row = (transitions + 2,) * held + (transitions,) * (n - held)

    tx_control = codes[winner]
    return RoundTemplate(
        key=key,
        winner=winner,
        tx_node=nodes[winner].name,
        message=message,
        tx_control=tx_control,
        tx_bytes_sent=(
            n_bytes
            if tx_control is ControlCode.EOM_ACK
            else max(0, (r_end - 3 - addr_bits) // 8 - 1)
        ),
        control=codes[0],
        general_error=runaway,
        error_reason="runaway-message" if runaway else "",
        clock_cycles=r_end,
        end_off=end_ps,
        node_end_off=node_end_off,
        fin_off=end_ps + topo.max_clk_delay,
        end_order=topo.end_order,
        bus_wake=tuple(bus_wake),
        layer_wake=tuple(layer_wake),
        rx=rx,
        wire_row=wire_row,
        cut=cut,
    )


def _plan_wakeup_round(
    ctx: RoundContext,
    key: RoundKey,
    half: int,
    settle: int,
    full_prop: int,
) -> RoundTemplate:
    """A null transaction: no arbitration winner, general error raised.

    This is how sleeping nodes are woken (Section 4.5): the interrupt
    controller's pulse starts the mediator's clock, nobody requests,
    and the resulting General Error round steps every armed wakeup
    sequencer through its four edges.
    """
    topo = ctx.topology
    n = topo.n
    anchored = ctx.anchor_pos is not None
    if anchored:
        # The anchor performs the no-winner check at the arbitration
        # latch and holds CLK; the mediator notices a cycle later and
        # runs an ordinary (non-general) interjection — the anchor,
        # not the mediator, drives the (0, 0) error code, so the
        # mediator's report does NOT flag a general error even though
        # the latched control bits decode to one.
        t_interject = 4 * half
        fire = t_interject + interjection_fire_delay(False, 1, settle, full_prop)
    else:
        t_interject = 2 * half
        fire = t_interject + interjection_fire_delay(True, 1, settle, full_prop)
    tc0 = fire + settle
    end_ps = tc0 + 6 * half

    bus_wake: List[Tuple[int, int, str]] = []
    layer_wake: List[Tuple[int, int, str]] = []
    for q, bus_on, layer_on, pending in key.states:
        prop = topo.clk_delay[q]
        # Edges each node sees: f1, r1, then the six control edges.
        edges = [half + prop, 2 * half + prop] + [
            tc0 + k * half + prop for k in range(1, 7)
        ]
        is_pulser = q in key.pulsers
        bus_on_index = None
        if not bus_on:
            bus_on_index = 3
            bus_wake.append((
                q, edges[3], "interrupt" if is_pulser else "transaction"
            ))
        if not layer_on and pending:
            if bus_on_index is not None:
                on_index = bus_on_index + 3      # same-edge first step
            elif is_pulser:
                on_index = 3                     # armed before f1
            else:
                on_index = None
            if on_index is not None and on_index < len(edges):
                layer_wake.append((q, edges[on_index], "interrupt"))
    return RoundTemplate(
        key=key,
        winner=None,
        tx_node=None,
        message=None,
        tx_control=None,
        tx_bytes_sent=0,
        control=ControlCode.GENERAL_ERROR,
        general_error=not anchored,
        error_reason="" if anchored else "no-arbitration-winner",
        clock_cycles=1,
        end_off=end_ps,
        node_end_off=tuple(end_ps + delay for delay in topo.clk_delay),
        fin_off=end_ps + topo.max_clk_delay,
        end_order=topo.end_order,
        bus_wake=tuple(bus_wake),
        layer_wake=tuple(layer_wake),
        rx=(),
        wire_row=(8 + 6,) * n,
    )


def _edge_time_at(
    index: int,
    half: int,
    r_end: int,
    tc0: int,
    prop: int,
    sees_extra: bool,
    t_interject: int,
) -> int:
    """Arrival offset of the ``index``-th CLK edge (0-based) at one node.

    Transfer edges f1..rR arrive at every node.  When a member holds
    CLK (end of message or receiver abort), nodes between the mediator
    and the holder additionally see the absorbed falling edge and the
    mediator's rise-back at interjection start.  The six control edges
    close the round.  O(1): no per-cycle list is materialised, which
    matters for kilobyte messages (R in the thousands).
    """
    if index < 2 * r_end:
        # Edge pairs: f_k at index 2k-2, r_k at index 2k-1.
        k = index // 2 + 1
        if index % 2 == 0:
            return (2 * k - 1) * half + prop
        return 2 * k * half + prop
    index -= 2 * r_end
    if sees_extra:
        if index == 0:
            return (2 * r_end + 1) * half + prop        # absorbed falling
        if index == 1:
            return t_interject + prop                   # rise-back
        index -= 2
    return tc0 + (index + 1) * half + prop


# ----------------------------------------------------------------------
# Post-round policy (Sections 4.3-4.5).  The edge engine acts it out
# per node (MBusNode._kick / trigger_interrupt on an idle bus,
# MBusNode._on_transaction_end and the settle-delayed _try_request /
# _start_null_pulse / _auto_sleep it schedules); the fast path and the
# batch executor both compute it here.  Each keeps the ``falls`` of
# the coming round -- position -> time it drives DATA low -- from the
# end of one round to the start of the next: every member a fall has
# reached is an arbitration observer until that round and does not
# pulse, and a member requests in it only if its own request fall is
# there.
# ----------------------------------------------------------------------
@dataclass
class Rearm:
    """What the nodes do once they observe the end of a round."""

    #: Positions that raise a null pulse, in pulse order.
    pulsers: List[int]
    #: The coming round's falls (re-requests and pulses).
    falls: Dict[int, int]
    #: The next mediator start; None when nobody wants the bus.
    start_ps: Optional[int]
    #: ``(position, time)`` of each auto-sleep that goes ahead.
    sleeps: List[Tuple[int, int]]


def _observing(
    topo: RingTopology, falls: Dict[int, int], pos: int, at_ps: int
) -> bool:
    """Whether another node's fall in ``falls`` has reached member
    ``pos`` by ``at_ps``: its engine has then left idle to observe
    the coming arbitration.  The mediator's member ignores DATA falls.
    """
    if not pos:
        return False
    hop = topo.hop_delay
    for src, t in falls.items():
        if t + hop(src, pos) <= at_ps:
            return True
    return False


def raise_from_idle(
    topo: RingTopology, falls: Dict[int, int], pos: int, now: int,
    pulse: bool,
) -> Optional[int]:
    """A request (or, with ``pulse``, a null pulse) raised at ``now``
    while the bus is idle: the mediator start it asks for, or None.

    None means the node does not act: its own fall is already in
    ``falls``, or another one has reached it and its engine is an
    arbitration observer (the mediator's member never is).  A post
    then only queues, an interrupt stays pending, and the node sits
    the coming round out.  Otherwise its fall joins ``falls``: a
    request goes out a settle delay after the post, a pulse at once
    (the mediator's own member requests without touching the wire).
    The fall travels to the mediator's input pad, and the mediator
    spends its wakeup latency before the first clock edge.
    """
    if pos in falls or _observing(topo, falls, pos, now):
        return None
    if pulse:
        at = falls[pos] = now
    elif pos:
        at = falls[pos] = now + topo.settle_ps
    else:
        return now + topo.settle_ps + topo.timing.mediator_wakeup_ps
    return at + topo.member_to_mediator(pos) + topo.timing.mediator_wakeup_ps


def post_round(
    topo: RingTopology,
    t0: int,
    end_off: int,
    node_end_off: Sequence[int],
    ready: Sequence[int],
    waking: Sequence[int],
    not_before: int,
) -> Rearm:
    """The post-round step after the round that started at ``t0``.

    ``end_off`` (the mediator's final control edge) and
    ``node_end_off[p]`` (node ``p``'s observed end) are offsets from
    ``t0``.  ``ready`` nodes are fully awake with traffic queued;
    ``waking`` nodes want the bus (traffic or an interrupt) but are
    not fully awake.  Every node acts a settle delay after its
    observed end:

    * a ready member re-requests by pulling DATA low; the mediator's
      own member starts the clock without a fall;
    * a waking node raises a null pulse, in time order, unless a fall
      already emitted (a re-request or an earlier pulse) reached it
      first: it is then an arbitration observer and only keeps its
      pending interrupt.  Not being a pulser, its layer does not arm
      in the coming round unless its bus domain wakes there too, so
      a node whose bus is already on waits for a later General Error
      round;
    * every other gated, auto-sleeping node powers down, never before
      ``not_before`` (the round's finalize) -- unless a fall reaches
      it first: its engine is busy again and it rides into the next
      round without a fresh wakeup.

    The mediator catches a fall when it arrives or at its
    return-to-idle scan (two ring delays after the round), whichever
    is later.
    """
    settle = topo.settle_ps
    to_mediator = topo.member_to_mediator
    return_to_idle = t0 + end_off + 2 * topo.timing.ring_delay_ps(topo.n)
    falls: Dict[int, int] = {}
    starts: List[int] = []
    for pos in ready:
        at = t0 + node_end_off[pos] + settle
        if pos == 0:
            starts.append(at)
        else:
            falls[pos] = at
            starts.append(max(at + to_mediator(pos), return_to_idle))
    pulsers: List[int] = []
    for at, pos in sorted(
        (t0 + node_end_off[pos] + settle, pos) for pos in waking
    ):
        if _observing(topo, falls, pos, at):
            continue
        falls[pos] = at
        pulsers.append(pos)
        starts.append(max(at + to_mediator(pos), return_to_idle))
    sleeps: List[Tuple[int, int]] = []
    for pos in topo.auto_sleepers:
        if pos in ready or pos in waking:
            continue
        at = max(t0 + node_end_off[pos] + settle, not_before)
        if not _observing(topo, falls, pos, at):
            sleeps.append((pos, at))
    start_ps = (
        min(starts) + topo.timing.mediator_wakeup_ps if starts else None
    )
    return Rearm(pulsers, falls, start_ps, sleeps)
