"""Discrete-event simulation substrate for digital logic.

This package provides the event-driven machinery on which the
edge-accurate MBus model (:mod:`repro.core`) runs:

* :class:`~repro.sim.scheduler.Simulator` — a time-ordered event queue
  with deterministic tie-breaking.
* :class:`~repro.sim.signals.Net` — a single-driver digital net whose
  transitions fire edge callbacks, and which can be chained to other
  nets through propagation delays (modelling bond wires / pad drivers).
* :class:`~repro.sim.tracer.Tracer` — a VCD-style transition recorder
  used by tests and examples to inspect waveforms.
* :mod:`~repro.sim.fastpath` — the transaction-level backend behind
  ``MBusSystem(mode="fast")``: bus rounds resolved from round
  templates planned in closed form by :mod:`repro.core.tlm_engine`
  and realised as a handful of events instead of per-edge simulation
  (see EXPERIMENTS.md).

The substrate (scheduler, signals, tracer) is deliberately tiny and
dependency-free; everything is pure Python so that the protocol logic
stays easy to audit against the paper's waveform figures (Figs. 5-7).
``fastpath`` is the one exception to the layering: it reaches up into
:mod:`repro.core` for message/round types, so it is imported lazily by
``MBusSystem.build()`` and must never be imported from this package's
top level (that would close an import cycle).
"""

from repro.sim.scheduler import Event, Simulator, SimulationError
from repro.sim.signals import Net, EdgeType
from repro.sim.tracer import Tracer, Transition

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "Net",
    "EdgeType",
    "Tracer",
    "Transition",
]
