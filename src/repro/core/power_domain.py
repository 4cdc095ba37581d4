"""Hierarchical power domains and the four-edge wakeup sequence.

Figure 8 colours the MBus modules by power domain:

* **always-on** (green): sleep controller, wire controller, interrupt
  controller — powered continuously, drawing only leakage;
* **bus** (red): bus controller — powered during MBus transactions;
* **layer** (blue): layer controller and local clock — powered only
  when the node is active.

Section 3 ("Power-Aware") specifies that powering a gated circuit on
reliably requires four successive edges: release power gate, release
clock, release isolation, release reset.  MBus's key insight
(Section 4.4) is that the CLK edges of arbitration provide exactly
this sequence for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.constants import WAKEUP_EDGES, WAKEUP_STEPS
from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class PowerEvent:
    """One entry in a domain's power log."""

    time_ps: int
    domain: str
    action: str      # "on", "off", or a wakeup step name
    reason: str


@dataclass
class PowerDomain:
    """One power-gated region of a node, with on-time accounting."""

    sim: Simulator
    name: str
    always_on: bool = False
    is_on: bool = False
    _on_since_ps: Optional[int] = None
    on_time_ps: int = 0
    wake_count: int = 0
    log: List[PowerEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.always_on:
            self.is_on = True
            self._on_since_ps = 0

    def power_on(self, reason: str) -> None:
        if self.is_on:
            return
        self.is_on = True
        self.wake_count += 1
        self._on_since_ps = self.sim.now
        self.log.append(PowerEvent(self.sim.now, self.name, "on", reason))

    def power_off(self, reason: str) -> None:
        if self.always_on:
            raise ValueError(f"domain {self.name} is always-on")
        if not self.is_on:
            return
        self.is_on = False
        self.on_time_ps += self.sim.now - self._on_since_ps
        self._on_since_ps = None
        self.log.append(PowerEvent(self.sim.now, self.name, "off", reason))

    def total_on_time_ps(self) -> int:
        """Accumulated on-time including a currently-open interval."""
        total = self.on_time_ps
        if self.is_on and self._on_since_ps is not None:
            total += self.sim.now - self._on_since_ps
        return total


class WakeupSequencer:
    """Steps a power domain through the four-edge wakeup sequence.

    One step is taken per bus-clock edge (Section 4.4 / Figure 6); on
    the fourth edge the domain is powered and ``on_awake`` fires.  The
    sequencer is idempotent: arming an already-on domain is a no-op,
    matching hardware where the gates are already released.
    """

    def __init__(
        self,
        domain: PowerDomain,
        on_awake: Optional[Callable[[], None]] = None,
    ):
        self.domain = domain
        self.on_awake = on_awake
        self._step = 0
        #: A plain attribute, not a property: the node reads it on
        #: every CLK edge and feeds :meth:`edge` only while it is set.
        self.armed = False

    @property
    def in_progress(self) -> bool:
        return self.armed and self._step > 0

    def arm(self, reason: str = "wakeup") -> None:
        """Begin a wakeup; subsequent :meth:`edge` calls advance it.

        Re-arming while a sequence is in flight is a no-op, so feeding
        ``arm`` on every observed edge is safe.
        """
        if self.domain.is_on or self.armed:
            return
        self.armed = True
        self._step = 0
        self._reason = reason

    def disarm(self) -> None:
        self.armed = False
        self._step = 0

    def edge(self) -> None:
        """Feed one bus-clock edge to the sequencer."""
        if not self.armed or self.domain.is_on:
            return
        step_name = WAKEUP_STEPS[self._step]
        self.domain.log.append(
            PowerEvent(
                self.domain.sim.now,
                self.domain.name,
                f"release_{step_name}",
                self._reason,
            )
        )
        self._step += 1
        if self._step >= WAKEUP_EDGES:
            self.armed = False
            self._step = 0
            self.domain.power_on(self._reason)
            if self.on_awake is not None:
                self.on_awake()
