"""Tier-3 compiler: lower a spec + schedule into flat arrays.

The batch backend never instantiates :class:`~repro.sim.scheduler.Simulator`,
:class:`~repro.sim.signals.Net`, :class:`~repro.core.node.MBusNode` or
either engine.  Instead this module lowers

* a :class:`~repro.scenario.spec.SystemSpec` into a
  :class:`CompiledSystem` — the mediator-rooted
  :class:`~repro.core.tlm_engine.RingTopology` the analytic round
  planner needs (built by the same
  :func:`~repro.core.tlm_engine.lower_ring` the fast path calls), the
  names and gating flags the executor indexes by ring position, and
  the system's :class:`~repro.core.tlm_engine.RoundTable`, shared by
  every trial that compiles the same spec; and
* a compiled workload schedule into a :class:`CompiledWorkload` —
  sorted parallel ``(t_ps, position, kind, payload-ref)`` arrays with
  every distinct :class:`~repro.core.messages.Message` interned once.

Spec validation is the core's own: each node lowers through
:meth:`~repro.scenario.spec.NodeSpec.config` to its
:class:`~repro.core.node.NodeConfig`, whose constructor checks it,
then the ring goes through
:func:`~repro.core.bus.check_prefixes` and
:func:`~repro.core.bus.effective_anchor`, the checks
``SystemSpec.build`` meets in :class:`~repro.core.bus.MBusSystem`,
so a bad spec fails with the same
:class:`~repro.core.errors.ConfigurationError` on every tier.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core import constants
from repro.core.addresses import Address
from repro.core.bus import check_prefixes, effective_anchor
from repro.core.errors import ConfigurationError
from repro.core.messages import Message
from repro.core.tlm_engine import (
    MAX_TEMPLATES,
    RoundContext,
    RoundTable,
    RoundTemplate,
    lower_ring,
)
from repro.scenario.spec import SystemSpec
from repro.scenario.workload import InterruptEvent, PostEvent, ScheduleEvent

PS_PER_S = 1_000_000_000_000

#: Workload event kinds in the compiled ``kind`` array.
KIND_POST = 0
KIND_INTERRUPT = 1

class CompiledSystem:
    """A spec lowered to per-position arrays (mediator at 0).

    Everything the executor touches per event is indexed by ring
    position: the interned node names (for report assembly), the
    gating flags, and the planner-facing :class:`RingTopology`, whose
    ``nodes`` are the nodes' :class:`~repro.core.node.NodeConfig`
    records in ring order.  Instances also carry the
    mutable round ``templates`` table, so a spec compiled once per
    campaign shares warm templates across every trial that uses it.

    That table, and the message intern table, are bounded at the
    start of each run (:func:`compile_workload`): every distinct
    payload adds one entry to each (a template overlaid on its
    message shape's plan, so only a new shape costs a plan), and a
    cached system lives as long as its compile-cache entry (a
    long-running ``repro serve`` never drops it), so once either
    passes :data:`~repro.core.tlm_engine.MAX_TEMPLATES` plus the
    templates the last run used, the next run starts both afresh,
    shape plans included.  A workload that repeats its own messages
    stays warm however many templates it needs; a stream of one-off
    payloads keeps about ``MAX_TEMPLATES`` plus one run's worth.
    """

    __slots__ = (
        "spec", "n", "power_gated",
        "names", "spec_order_names", "position_of", "topology",
        "anchor_pos",
        # mutable tables shared by every workload compiled against
        # this system: round templates and the global message intern
        # table (workload ``ref`` values index it), keyed by
        # ``(dest, payload, priority)``
        "templates", "message_ids", "message_table",
        # how many distinct templates the last run executed (set by
        # the executor; part of compile_workload's table bound)
        "last_run_templates",
    )

    def __init__(self, spec: SystemSpec) -> None:
        spec.validate()
        self.spec = spec
        configs = [node.config() for node in spec.nodes]
        check_prefixes(configs)
        order, self.topology = lower_ring(configs, spec.timing())
        self.n = len(order)
        self.names = tuple(configs[i].name for i in order)
        self.spec_order_names = tuple(config.name for config in configs)
        self.position_of = {name: pos for pos, name in enumerate(self.names)}
        self.power_gated = tuple(
            int(configs[i].power_gated) for i in order
        )
        anchor = spec.arbitration_anchor
        if anchor is not None:
            anchor = effective_anchor(
                configs[self.spec_order_names.index(anchor)]
            )
        self.anchor_pos = None if anchor is None else self.position_of[anchor]
        self.templates = RoundTable(RoundContext(
            self.topology,
            self.anchor_pos,
            constants.MIN_MAX_MESSAGE_BYTES
            if spec.max_message_bytes is None
            else constants.clamp_max_message_bytes(spec.max_message_bytes),
        ))
        self.message_ids: Dict[Tuple[Address, bytes, bool], int] = {}
        self.message_table: List[Message] = []
        self.last_run_templates = 0

    @property
    def template_list(self) -> List[RoundTemplate]:
        """The round templates, in planning order."""
        return list(self.templates.values())

    def clear_tables(self) -> None:
        """Drop every round template and interned message.  Message
        refs only mean something inside the run that made them, so
        this is safe between runs."""
        self.templates.clear()
        self.message_ids.clear()
        self.message_table.clear()


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
    compiled against the same system, and the executor's queues
    hold and compare integers.
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

    Each distinct event is lowered (and its time quantized) once: a
    run of one shared event object (a gap-free
    :class:`~repro.scenario.workload.Burst`) repeats the previous row,
    and a post builds a
    :class:`~repro.core.messages.Message` only the first time its
    ``(dest, payload, priority)`` is seen on ``csys``.  This is where a
    run starts, so it is also where ``csys`` sheds tables that grew
    past :data:`~repro.core.tlm_engine.MAX_TEMPLATES` plus the
    templates its last run used, before anything is interned.
    """
    limit = MAX_TEMPLATES + csys.last_run_templates
    if len(csys.templates) > limit or len(csys.message_table) > limit:
        csys.clear_tables()
    position_of = csys.position_of
    t_ps: List[int] = []
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
            at_ps = int(round(event.at_s * PS_PER_S))
        t_ps.append(at_ps)
        pos.append(position)
        kind.append(event_kind)
        ref.append(index)
    return CompiledWorkload(
        t_ps=t_ps,
        pos=pos,
        kind=kind,
        ref=ref,
    )
