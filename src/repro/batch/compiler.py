"""Tier-3 compiler: lower a spec + schedule into flat arrays.

The batch backend never instantiates :class:`~repro.sim.scheduler.Simulator`,
:class:`~repro.sim.signals.Net`, :class:`~repro.core.node.MBusNode` or
either engine.  Instead this module lowers

* a :class:`~repro.scenario.spec.SystemSpec` into a
  :class:`CompiledSystem` — a node table of parallel integer tuples
  (positions, prefixes, buffer sizes, gating flags, per-hop delays)
  rooted at the mediator exactly like the fast path, plus the derived
  :class:`~repro.core.tlm_engine.RingTopology` the analytic round
  planner needs; and
* a compiled workload schedule into a :class:`CompiledWorkload` —
  sorted parallel ``(t_ps, position, kind, payload-ref)`` arrays with
  every distinct :class:`~repro.core.messages.Message` interned once.

All spec-level validation that the event-loop backends perform at
``MBusSystem`` construction time (duplicate/reserved short prefixes,
the 14-node short-address budget, power-gated arbitration anchors,
unknown node names) is replicated here with the *same*
:class:`~repro.core.errors.ConfigurationError` messages, so the
differential harness's error-symmetry check holds across all three
tiers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.batch import accel
from repro.core import constants
from repro.core.addresses import Address
from repro.core.errors import ConfigurationError
from repro.core.messages import Message
from repro.core.tlm_engine import NODE_SETTLE_FACTOR, RingTopology, TLMNode
from repro.scenario.spec import NodeSpec, SystemSpec
from repro.scenario.workload import InterruptEvent, PostEvent, ScheduleEvent

PS_PER_S = 1_000_000_000_000

#: Workload event kinds in the compiled ``kind`` array.
KIND_POST = 0
KIND_INTERRUPT = 1


class CompiledSystem:
    """A spec lowered to flat per-position arrays (mediator at 0).

    Everything the executor touches per event is an integer indexed by
    ring position; the only object-valued companions are the interned
    node names (for report assembly) and the planner-facing
    :class:`RingTopology`.  Instances also carry the mutable round
    ``templates`` cache, so a spec compiled once per campaign shares
    warm templates across every trial that uses it.
    """

    __slots__ = (
        "spec", "timing", "n",
        # node table — parallel tuples of ints, one entry per position
        "positions", "short_prefixes", "full_prefixes", "rx_buffer_bytes",
        "power_gated", "auto_sleep", "forward_delay_ps",
        "broadcast_channels",
        # derived
        "names", "spec_order_names", "position_of", "topology",
        "anchor_pos", "max_message_bytes", "settle_ps",
        # mutable caches shared by every workload compiled against
        # this system: round templates (see executor) and the global
        # message intern table (workload ``ref`` values index it, so
        # template keys are pure-integer and stable across trials),
        # keyed by ``(dest, payload, priority)``
        "templates", "template_list", "message_ids", "message_table",
    )

    def __init__(self, spec: SystemSpec) -> None:
        spec.validate()
        self.spec = spec
        self.timing = spec.timing()
        nodes = list(spec.nodes)
        _validate_node_specs(nodes)
        _validate_prefixes(nodes)
        mediator_index = next(
            i for i, node in enumerate(nodes) if node.is_mediator
        )
        # Mediator-rooted rotation: same relabelling as the fast path.
        ring = nodes[mediator_index:] + nodes[:mediator_index]
        self.n = len(ring)
        self.positions = tuple(range(self.n))
        self.short_prefixes = tuple(
            -1 if node.short_prefix is None else node.short_prefix
            for node in ring
        )
        self.full_prefixes = tuple(
            -1 if node.full_prefix is None else node.full_prefix
            for node in ring
        )
        self.rx_buffer_bytes = tuple(node.rx_buffer_bytes for node in ring)
        self.power_gated = tuple(int(node.power_gated) for node in ring)
        self.auto_sleep = tuple(
            int(node.power_gated if node.auto_sleep is None
                else node.auto_sleep)
            for node in ring
        )
        self.forward_delay_ps = tuple(
            node.node_delay_ps or self.timing.node_delay_ps for node in ring
        )
        self.broadcast_channels = tuple(
            tuple(sorted(node.broadcast_channels)) for node in ring
        )
        self.names = tuple(node.name for node in ring)
        self.spec_order_names = tuple(node.name for node in nodes)
        self.position_of = {name: pos for pos, name in enumerate(self.names)}
        descriptors = [
            TLMNode(
                name=self.names[pos],
                position=pos,
                short_prefix=(
                    None if self.short_prefixes[pos] < 0
                    else self.short_prefixes[pos]
                ),
                full_prefix=(
                    None if self.full_prefixes[pos] < 0
                    else self.full_prefixes[pos]
                ),
                broadcast_channels=frozenset(self.broadcast_channels[pos]),
                rx_buffer_bytes=self.rx_buffer_bytes[pos],
                ack_policy=None,
                is_mediator=pos == 0,
                power_gated=bool(self.power_gated[pos]),
                auto_sleep=bool(self.auto_sleep[pos]),
                forward_delay_ps=self.forward_delay_ps[pos],
            )
            for pos in range(self.n)
        ]
        self.topology = RingTopology(descriptors, self.timing)
        self.anchor_pos = self._resolve_anchor(spec, ring)
        self.max_message_bytes = (
            constants.MIN_MAX_MESSAGE_BYTES
            if spec.max_message_bytes is None
            else constants.clamp_max_message_bytes(spec.max_message_bytes)
        )
        self.settle_ps = NODE_SETTLE_FACTOR * self.timing.node_delay_ps
        self.templates: Dict[tuple, object] = {}
        self.template_list: List[object] = []
        self.message_ids: Dict[Tuple[Address, bytes, bool], int] = {}
        self.message_table: List[Message] = []

    def _resolve_anchor(
        self, spec: SystemSpec, ring: List[NodeSpec]
    ) -> Optional[int]:
        name = spec.arbitration_anchor
        if name is None:
            return None
        anchor = spec.node(name)
        if anchor.power_gated:
            raise ConfigurationError(
                "the arbitration anchor holds always-on wire-"
                "controller state; it cannot be power-gated"
            )
        if anchor.is_mediator:
            return None   # anchoring at the mediator is the default
        return next(i for i, node in enumerate(ring) if node.name == name)


def _validate_node_specs(nodes: Sequence[NodeSpec]) -> None:
    """The NodeConfig constructor checks, replicated verbatim."""
    for node in nodes:
        if node.short_prefix is None and node.full_prefix is None:
            if not node.is_mediator:
                raise ConfigurationError(
                    f"node {node.name!r} needs a short or full prefix"
                )
        if node.is_mediator and node.power_gated:
            raise ConfigurationError(
                "the mediator's frontend must be able to self-start; "
                "model it as a non-power-gated node"
            )


def _validate_prefixes(nodes: Sequence[NodeSpec]) -> None:
    """``MBusSystem._validate_prefixes``, replicated verbatim."""
    seen_short: Dict[int, str] = {}
    short_count = 0
    for node in nodes:
        prefix = node.short_prefix
        if prefix is None:
            continue
        short_count += 1
        if prefix in seen_short:
            raise ConfigurationError(
                f"short prefix {prefix:#x} used by both "
                f"{seen_short[prefix]!r} and {node.name!r}; run "
                "enumeration to disambiguate duplicate chips (4.7)"
            )
        if prefix in (
            constants.BROADCAST_PREFIX_VALUE,
            constants.FULL_ADDR_MARKER_VALUE,
        ):
            raise ConfigurationError(
                f"short prefix {prefix:#x} is reserved"
            )
        seen_short[prefix] = node.name
    if short_count > constants.MAX_SHORT_ADDRESSED_NODES:
        raise ConfigurationError(
            "at most 14 short-addressed nodes per system (4.7)"
        )


class CompiledWorkload:
    """A compiled schedule as sorted parallel ``(t, node, kind, ref)``
    arrays.

    ``t_ps[i]`` is the quantized post/interrupt instant (the same
    ``int(round(at_s * 1e12))`` the event-loop runner applies),
    ``pos[i]`` the mediator-rooted ring position, ``kind[i]`` one of
    :data:`KIND_POST` / :data:`KIND_INTERRUPT`, and ``ref[i]`` an
    index into the compiled system's ``message_table`` (``-1`` for
    interrupts).  Messages are interned on the *compiled system*, so
    equal messages share one integer id across every workload
    compiled against the same system — which keeps the executor's
    template keys integer-only and valid across campaign trials.
    Index order *is* scheduler order: the runner schedules all
    workload events before the simulation starts, so their insertion
    sequence — and therefore their priority at equal timestamps — is
    exactly this array order.
    """

    __slots__ = ("t_ps", "pos", "kind", "ref")

    def __init__(
        self,
        t_ps: Sequence[int],
        pos: Sequence[int],
        kind: Sequence[int],
        ref: Sequence[int],
    ) -> None:
        self.t_ps = tuple(t_ps)
        self.pos = tuple(pos)
        self.kind = tuple(kind)
        self.ref = tuple(ref)

    def __len__(self) -> int:
        return len(self.t_ps)


def compile_workload(
    schedule: Sequence[ScheduleEvent], csys: CompiledSystem
) -> CompiledWorkload:
    """Lower a compiled schedule against ``csys``'s node table.

    Each distinct event is lowered once: a run of one shared event
    object (a gap-free :class:`~repro.scenario.workload.Burst`)
    repeats the previous row, and a post builds a
    :class:`~repro.core.messages.Message` only the first time its
    ``(dest, payload, priority)`` is seen on ``csys``.
    """
    position_of = csys.position_of
    t_s: List[float] = []
    pos: List[int] = []
    kind: List[int] = []
    ref: List[int] = []
    interned = csys.message_ids
    messages = csys.message_table
    prev = None
    for event in schedule:
        if event is not prev:
            prev = event
            if isinstance(event, PostEvent):
                source = event.source
                event_kind = KIND_POST
                key = (event.dest, event.payload, event.priority)
                index = interned.get(key)
                if index is None:
                    index = len(messages)
                    messages.append(Message(
                        dest=event.dest,
                        payload=event.payload,
                        priority=event.priority,
                    ))
                    interned[key] = index
            elif isinstance(event, InterruptEvent):
                source = event.node
                event_kind = KIND_INTERRUPT
                index = -1
            else:
                raise ConfigurationError(
                    f"workload items must be schedule events, got {event!r}"
                )
            position = position_of.get(source)
            if position is None:
                raise ConfigurationError(f"no node named {source!r}")
        t_s.append(event.at_s)
        pos.append(position)
        kind.append(event_kind)
        ref.append(index)
    return CompiledWorkload(
        t_ps=accel.quantize_times(t_s, PS_PER_S),
        pos=pos,
        kind=kind,
        ref=ref,
    )
