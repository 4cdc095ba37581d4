"""Composable workload primitives that compile to event schedules.

A :class:`Workload` is a declarative description of bus traffic.
Calling :meth:`Workload.compile` against a :class:`~repro.scenario.spec.SystemSpec`
yields a deterministic, time-sorted tuple of schedule events —
:class:`PostEvent` (queue a message at a node) and
:class:`InterruptEvent` (assert a node's always-on interrupt wire) —
with **no reference to any simulation backend**.  The same compiled
schedule drives the edge-accurate engine and the transaction-level
fast path identically, which is what makes cross-backend equivalence
checks (and fair benchmarks) possible.

Primitives
----------
* :class:`OneShot` — a single message at a given time.
* :class:`Burst` — ``count`` back-to-back messages (optionally with a
  fixed inter-post gap), the Figure 14 saturation shape.
* :class:`Periodic` — a fixed-interval stream, the Section 6.3.1
  sense-and-send shape.
* :class:`RandomTraffic` — seeded pseudo-random traffic over the
  spec's addressable nodes; deterministic for a given (seed, spec).
* :class:`Broadcast` — a channel broadcast (Section 4.6), with the
  priority flag available.
* :class:`Interrupt` — an always-on interrupt-wire assertion
  (Section 4.5), the motion-imager wake shape.

Workloads compose with ``+`` (schedules are merged and re-sorted) and
round-trip through :meth:`Workload.to_dict` /
:func:`workload_from_dict` so a whole scenario — topology and
traffic — can live in one JSON document.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple, Union

from repro.core.addresses import Address
from repro.core.errors import ConfigurationError
from repro.core.schema import Document, Kinds

if TYPE_CHECKING:
    from repro.scenario.spec import SystemSpec


# ----------------------------------------------------------------------
# Schedule events (the compilation target).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PostEvent:
    """Queue ``payload`` for ``dest`` at node ``source`` at ``at_s``."""

    at_s: float
    source: str
    dest: Address
    payload: bytes = b""
    priority: bool = False


@dataclass(frozen=True)
class InterruptEvent:
    """Assert ``node``'s always-on interrupt port at ``at_s``."""

    at_s: float
    node: str


ScheduleEvent = Union[PostEvent, InterruptEvent]


# ----------------------------------------------------------------------
# Workload base and registry.
# ----------------------------------------------------------------------
class Workload(Document):
    """Base class: a declarative traffic description.

    A subclass is a frozen dataclass with a ``kind`` that implements
    :meth:`_events` (unsorted event generation) and is registered with
    :func:`register_workload_kind`; its document is its fields plus
    its ``kind`` (:class:`~repro.core.schema.Document`).  The base
    class provides sorting and composition.
    """

    kind: str = ""
    derived_keys = ("kind",)

    def compile(self, spec: "SystemSpec") -> Tuple[ScheduleEvent, ...]:
        """The deterministic, time-sorted schedule for ``spec``."""
        return tuple(
            sorted(self._events(spec), key=operator.attrgetter("at_s"))
        )

    def _events(self, spec):
        raise NotImplementedError

    def __add__(self, other: "Workload") -> "Workload":
        if not isinstance(other, Workload):
            return NotImplemented
        mine = self.parts if isinstance(self, Combined) else (self,)
        theirs = other.parts if isinstance(other, Combined) else (other,)
        return Combined(parts=mine + theirs)


_WORKLOAD_KINDS = Kinds("workload", Workload)

#: Register an out-of-tree :class:`Workload` subclass (e.g. the
#: campaign layer's chaos drill workload) for
#: :func:`workload_from_dict`; a class decorator.
register_workload_kind = _WORKLOAD_KINDS.register


@register_workload_kind
@dataclass(frozen=True)
class OneShot(Workload):
    """One message from ``source`` to ``dest`` at ``at_s``."""

    source: str
    dest: Address
    payload: bytes = b""
    at_s: float = 0.0
    priority: bool = False
    kind = "one_shot"

    def _events(self, spec):
        yield PostEvent(
            at_s=self.at_s,
            source=self.source,
            dest=self.dest,
            payload=self.payload,
            priority=self.priority,
        )


@register_workload_kind
@dataclass(frozen=True)
class Burst(Workload):
    """``count`` copies posted back to back (saturating traffic).

    With ``gap_s == 0`` every message is queued at ``at_s`` and the
    transmitter's queue keeps the bus saturated; a positive ``gap_s``
    spaces the posts out instead.
    """

    source: str
    dest: Address
    payload: bytes = b""
    count: int = 1
    at_s: float = 0.0
    gap_s: float = 0.0
    priority: bool = False
    kind = "burst"

    def _events(self, spec):
        if self.gap_s == 0:
            # ``at_s + i * gap_s`` is the same float for every i, so one
            # frozen event serves all copies: a saturating burst costs
            # one PostEvent, not ``count`` of them.
            return itertools.repeat(self._post(0), self.count)
        return (self._post(i) for i in range(self.count))

    def _post(self, i: int) -> PostEvent:
        return PostEvent(
            at_s=self.at_s + i * self.gap_s,
            source=self.source,
            dest=self.dest,
            payload=self.payload,
            priority=self.priority,
        )


@register_workload_kind
@dataclass(frozen=True)
class Periodic(Workload):
    """``count`` messages at a fixed ``period_s`` starting at ``start_s``."""

    source: str
    dest: Address
    payload: bytes = b""
    period_s: float = 1.0
    count: int = 1
    start_s: float = 0.0
    priority: bool = False
    kind = "periodic"

    def _events(self, spec):
        for i in range(self.count):
            yield PostEvent(
                at_s=self.start_s + i * self.period_s,
                source=self.source,
                dest=self.dest,
                payload=self.payload,
                priority=self.priority,
            )


@register_workload_kind
@dataclass(frozen=True)
class RandomTraffic(Workload):
    """Seeded pseudo-random traffic over the spec's short-addressed nodes.

    Sources default to every short-addressed node; each message picks
    a different node as destination, a payload length uniform in
    ``[min_bytes, max_bytes]``, random payload bytes, a random FU-ID,
    and carries the priority flag with probability
    ``priority_fraction``.  Inter-post gaps are uniform in
    ``[0.5, 1.5] x mean_gap_s``.  The schedule is a pure function of
    ``(seed, spec)`` — identical on every backend and every run.
    """

    seed: int = 0
    count: int = 10
    mean_gap_s: float = 0.01
    start_s: float = 0.0
    min_bytes: int = 1
    max_bytes: int = 8
    sources: Optional[Tuple[str, ...]] = None
    priority_fraction: float = 0.0
    kind = "random"

    def _events(self, spec):
        rng = random.Random(self.seed)
        addressable = [
            node for node in spec.nodes if node.short_prefix is not None
        ]
        if len(addressable) < 2:
            raise ConfigurationError(
                "RandomTraffic needs at least two short-addressed nodes"
            )
        sources = self.sources or tuple(node.name for node in addressable)
        t = self.start_s
        for _ in range(self.count):
            t += rng.uniform(0.5, 1.5) * self.mean_gap_s
            source = rng.choice(sources)
            dest_node = rng.choice(
                [node for node in addressable if node.name != source]
            )
            n_bytes = rng.randint(self.min_bytes, self.max_bytes)
            payload = bytes(rng.randrange(256) for _ in range(n_bytes))
            yield PostEvent(
                at_s=t,
                source=source,
                dest=Address.short(dest_node.short_prefix, rng.randint(0, 15)),
                payload=payload,
                priority=rng.random() < self.priority_fraction,
            )


@register_workload_kind
@dataclass(frozen=True)
class Broadcast(Workload):
    """A broadcast on ``channel`` (Section 4.6) at ``at_s``."""

    source: str
    channel: int = 0
    payload: bytes = b""
    at_s: float = 0.0
    priority: bool = False
    kind = "broadcast"

    def _events(self, spec):
        yield PostEvent(
            at_s=self.at_s,
            source=self.source,
            dest=Address.broadcast(self.channel),
            payload=self.payload,
            priority=self.priority,
        )


@register_workload_kind
@dataclass(frozen=True)
class Interrupt(Workload):
    """Assert ``node``'s always-on interrupt wire at ``at_s``."""

    node: str
    at_s: float = 0.0
    kind = "interrupt"

    def _events(self, spec):
        yield InterruptEvent(at_s=self.at_s, node=self.node)


@register_workload_kind
@dataclass(frozen=True)
class Combined(Workload):
    """Several workloads merged into one schedule (built by ``+``)."""

    parts: Tuple[Workload, ...] = ()
    kind = "combined"

    def _events(self, spec):
        for part in self.parts:
            yield from part.compile(spec)


def workload_from_dict(data: Any, lenient: bool = False) -> Workload:
    """Rebuild a workload from :meth:`Workload.to_dict` output.

    ``lenient=True`` drops unknown parameters instead of failing, so
    documents written by a future schema (extra fields) still load —
    an unknown *kind* is always an error, because there is nothing to
    fall back to.
    """
    return _WORKLOAD_KINDS.decode(data, lenient)
