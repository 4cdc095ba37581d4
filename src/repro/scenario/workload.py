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

import dataclasses
import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.core.addresses import Address

if TYPE_CHECKING:
    from repro.scenario.spec import SystemSpec
from repro.core.errors import ConfigurationError


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


def _address_to_dict(dest: Address) -> Dict:
    return {
        "short_prefix": dest.short_prefix,
        "full_prefix": dest.full_prefix,
        "fu_id": dest.fu_id,
    }


def _address_from_dict(data: Dict) -> Address:
    return Address(
        fu_id=data.get("fu_id", 0),
        short_prefix=data.get("short_prefix"),
        full_prefix=data.get("full_prefix"),
    )


# ----------------------------------------------------------------------
# Workload base and registry.
# ----------------------------------------------------------------------
class Workload:
    """Base class: a declarative traffic description.

    Subclasses implement :meth:`_events` (unsorted event generation)
    and :meth:`_params` (JSON-friendly constructor arguments); the
    base class provides sorting, composition and serialisation.
    """

    kind: str = ""

    def compile(self, spec: "SystemSpec") -> Tuple[ScheduleEvent, ...]:
        """The deterministic, time-sorted schedule for ``spec``."""
        return tuple(
            sorted(self._events(spec), key=operator.attrgetter("at_s"))
        )

    def _events(self, spec):
        raise NotImplementedError

    def _params(self) -> Dict:
        raise NotImplementedError

    def __add__(self, other: "Workload") -> "Workload":
        if not isinstance(other, Workload):
            return NotImplemented
        mine = self.parts if isinstance(self, Combined) else (self,)
        theirs = other.parts if isinstance(other, Combined) else (other,)
        return Combined(parts=mine + theirs)

    def to_dict(self) -> Dict:
        return {"kind": self.kind, **self._params()}


def _message_params(
    dest: Address, payload: bytes, priority: bool
) -> Dict:
    return {
        "dest": _address_to_dict(dest),
        "payload": bytes(payload).hex(),
        "priority": priority,
    }


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

    def _params(self) -> Dict:
        return {
            "source": self.source,
            "at_s": self.at_s,
            **_message_params(self.dest, self.payload, self.priority),
        }


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

    def _params(self) -> Dict:
        return {
            "source": self.source,
            "count": self.count,
            "at_s": self.at_s,
            "gap_s": self.gap_s,
            **_message_params(self.dest, self.payload, self.priority),
        }


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

    def _params(self) -> Dict:
        return {
            "source": self.source,
            "period_s": self.period_s,
            "count": self.count,
            "start_s": self.start_s,
            **_message_params(self.dest, self.payload, self.priority),
        }


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

    def _params(self) -> Dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "mean_gap_s": self.mean_gap_s,
            "start_s": self.start_s,
            "min_bytes": self.min_bytes,
            "max_bytes": self.max_bytes,
            "sources": list(self.sources) if self.sources else None,
            "priority_fraction": self.priority_fraction,
        }


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

    def _params(self) -> Dict:
        return {
            "source": self.source,
            "channel": self.channel,
            "payload": bytes(self.payload).hex(),
            "at_s": self.at_s,
            "priority": self.priority,
        }


@dataclass(frozen=True)
class Interrupt(Workload):
    """Assert ``node``'s always-on interrupt wire at ``at_s``."""

    node: str
    at_s: float = 0.0
    kind = "interrupt"

    def _events(self, spec):
        yield InterruptEvent(at_s=self.at_s, node=self.node)

    def _params(self) -> Dict:
        return {"node": self.node, "at_s": self.at_s}


@dataclass(frozen=True)
class Combined(Workload):
    """Several workloads merged into one schedule (built by ``+``)."""

    parts: Tuple[Workload, ...] = ()
    kind = "combined"

    def _events(self, spec):
        for part in self.parts:
            yield from part.compile(spec)

    def _params(self) -> Dict:
        return {"parts": [part.to_dict() for part in self.parts]}


# ----------------------------------------------------------------------
# Deserialisation.
# ----------------------------------------------------------------------
_WORKLOAD_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        OneShot, Burst, Periodic, RandomTraffic, Broadcast, Interrupt,
        Combined,
    )
}


def register_workload_kind(cls: type) -> type:
    """Register an out-of-tree :class:`Workload` subclass for
    :func:`workload_from_dict` dispatch (e.g. the campaign layer's
    chaos drill workload).  Returns ``cls`` so it can be used as a
    decorator.  Re-registering the same class is a no-op; claiming an
    existing kind with a different class is an error."""
    if not (isinstance(cls, type) and issubclass(cls, Workload) and cls.kind):
        raise ConfigurationError(
            "register_workload_kind needs a Workload subclass with a "
            f"non-empty 'kind', got {cls!r}"
        )
    existing = _WORKLOAD_KINDS.get(cls.kind)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"workload kind {cls.kind!r} is already registered to "
            f"{existing.__name__}"
        )
    _WORKLOAD_KINDS[cls.kind] = cls
    return cls


def workload_from_dict(data: Dict, lenient: bool = False) -> Workload:
    """Rebuild a workload from :meth:`Workload.to_dict` output.

    ``lenient=True`` drops unknown parameters instead of failing, so
    documents written by a future schema (extra fields) still load —
    an unknown *kind* is always an error, because there is nothing to
    fall back to.
    """
    data = dict(data)
    kind = data.pop("kind", None)
    cls = _WORKLOAD_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown workload kind {kind!r}; expected one of "
            f"{sorted(_WORKLOAD_KINDS)}"
        )
    if lenient:
        known = {f.name for f in dataclasses.fields(cls)}
        data = {k: v for k, v in data.items() if k in known}
    if cls is Combined:
        return Combined(
            parts=tuple(
                workload_from_dict(part, lenient=lenient)
                for part in data["parts"]
            )
        )
    if "dest" in data:
        data["dest"] = _address_from_dict(data["dest"])
    if "payload" in data:
        data["payload"] = bytes.fromhex(data["payload"])
    if "sources" in data and data["sources"] is not None:
        data["sources"] = tuple(data["sources"])
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad {kind} workload parameters: {exc}"
        ) from None
