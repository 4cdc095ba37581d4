"""Declarative topology specs: :class:`NodeSpec` and :class:`SystemSpec`.

A spec is a plain data description of an MBus system — the ring
membership, addressing, power gating, timing, watchdog and
arbitration-anchor configuration — with none of the simulation
machinery attached.  Specs are:

* **backend-agnostic** — :meth:`SystemSpec.build` instantiates the
  same topology on either the edge-accurate engine (``mode="edge"``)
  or the transaction-level fast path (``mode="fast"``);
* **round-trippable** — both are documents
  (:class:`~repro.core.schema.Document`): :meth:`SystemSpec.to_dict`
  emits the fields as a JSON-friendly dict and
  ``SystemSpec.from_dict(spec.to_dict())`` reconstructs an equal spec,
  so scenarios can live in version-controlled ``.json`` files and be
  fed to ``python -m repro run``;
* **immutable** — both dataclasses are frozen; derive variants with
  :meth:`SystemSpec.replace`.

Behavioural chips (layer handlers, interrupt handlers) are code, not
data, and therefore live outside the spec: pass a ``setup`` callable
to :func:`repro.scenario.runner.run` to attach them after the system
is built.  Likewise ``NodeConfig.ack_policy`` (a callable) is not
representable here; nodes needing one must be configured imperatively.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from repro.core import constants
from repro.core.bus import MBusSystem
from repro.core.errors import ConfigurationError
from repro.core.node import NodeConfig
from repro.core.schema import Document, canonical_json


@dataclass(frozen=True)
class NodeSpec(Document):
    """Static description of one chip on the ring: the document of
    its :class:`~repro.core.node.NodeConfig`.

    Each field is the config field of the same name; the config's
    ``ack_policy`` callable has no document form.  :meth:`config` is
    the one lowering, used by :meth:`SystemSpec.build` and the batch
    compiler alike.  Ring position follows the order of the spec's
    ``nodes`` tuple, which determines topological arbitration priority
    (Section 4.3).
    """

    name: str
    short_prefix: Optional[int] = None
    full_prefix: Optional[int] = None
    broadcast_channels: frozenset = frozenset({0})
    power_gated: bool = False
    auto_sleep: Optional[bool] = None
    rx_buffer_bytes: int = constants.MIN_MAX_MESSAGE_BYTES
    memory_words: int = 1024
    is_mediator: bool = False
    node_delay_ps: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.broadcast_channels, frozenset):
            object.__setattr__(
                self, "broadcast_channels", frozenset(self.broadcast_channels)
            )

    def config(self) -> NodeConfig:
        """The node's runtime record."""
        return NodeConfig(**{
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        })


@dataclass(frozen=True)
class SystemSpec(Document):
    """A complete MBus topology plus bus-level configuration.

    ``None`` for any timing field means "use the
    :class:`~repro.core.constants.MBusTiming` default"; only
    ``clock_hz`` is always explicit because every scenario cares
    about it.  ``max_message_bytes`` configures the runaway watchdog;
    ``arbitration_anchor`` names a member node to hold the Section 7
    mutable-priority break point (``None`` keeps it at the mediator).
    """

    nodes: Tuple[NodeSpec, ...] = ()
    name: str = ""
    clock_hz: float = constants.DEFAULT_CLOCK_HZ
    node_delay_ps: Optional[int] = None
    drive_delay_ps: Optional[int] = None
    mediator_wakeup_ps: Optional[int] = None
    interjection_threshold: Optional[int] = None
    max_message_bytes: Optional[int] = None
    arbitration_anchor: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.nodes, tuple):
            object.__setattr__(self, "nodes", tuple(self.nodes))

    # ------------------------------------------------------------------
    # Introspection used by workload compilation and the runner.
    # ------------------------------------------------------------------
    def node(self, name: str) -> NodeSpec:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ConfigurationError(f"spec has no node named {name!r}")

    @property
    def node_names(self) -> Tuple[str, ...]:
        return tuple(node.name for node in self.nodes)

    @property
    def mediator_name(self) -> str:
        for node in self.nodes:
            if node.is_mediator:
                return node.name
        raise ConfigurationError("spec has no mediator node")

    def validate(self) -> "SystemSpec":
        """Spec-level sanity checks (cheap; full protocol validation
        happens in :meth:`build` via NodeConfig / MBusSystem)."""
        mediators = [n.name for n in self.nodes if n.is_mediator]
        if len(mediators) != 1:
            raise ConfigurationError(
                f"a SystemSpec needs exactly one mediator, got {mediators!r}"
            )
        if len(self.nodes) < 2:
            raise ConfigurationError("a SystemSpec needs at least two nodes")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names in {names!r}")
        if (
            self.arbitration_anchor is not None
            and self.arbitration_anchor not in names
        ):
            raise ConfigurationError(
                f"arbitration anchor {self.arbitration_anchor!r} "
                "names no node in the spec"
            )
        return self

    # ------------------------------------------------------------------
    # Materialisation.
    # ------------------------------------------------------------------
    def timing(self) -> constants.MBusTiming:
        kwargs = {"clock_hz": self.clock_hz}
        for field_name in (
            "node_delay_ps",
            "drive_delay_ps",
            "mediator_wakeup_ps",
            "interjection_threshold",
        ):
            value = getattr(self, field_name)
            if value is not None:
                kwargs[field_name] = value
        return constants.MBusTiming(**kwargs)

    def build(self, mode: str = "edge", trace: bool = False) -> MBusSystem:
        """Instantiate the spec on the chosen simulation backend."""
        self.validate()
        system = MBusSystem(timing=self.timing(), trace=trace, mode=mode)
        for node in self.nodes:
            system.add(node.config())
        system.build()
        if self.max_message_bytes is not None:
            system.set_max_message_bytes(self.max_message_bytes)
        if self.arbitration_anchor is not None:
            system.set_arbitration_anchor(self.arbitration_anchor)
        return system

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------
    @functools.cached_property
    def encoded(self) -> str:
        """``canonical_json(self.to_dict())``, encoded once per
        instance (the spec is immutable): the bytes a campaign record
        embeds, and what :attr:`digest` hashes."""
        return canonical_json(self.to_dict())

    @functools.cached_property
    def digest(self) -> str:
        """SHA-256 of :attr:`encoded`: the content address of the
        compiled-system cache (:func:`repro.batch.spec_digest`)."""
        return hashlib.sha256(self.encoded.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], lenient: bool = False
    ) -> "SystemSpec":
        # Declared here, not only inherited: perfbench/spans.py times
        # spec decoding by wrapping this class's own attribute.
        return super().from_dict(data, lenient)

    def replace(self, **overrides: Any) -> "SystemSpec":
        """A copy with the given fields replaced (sweep-friendly)."""
        return dataclasses.replace(self, **overrides)
