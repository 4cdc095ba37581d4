"""The observability switchboard: one guarded, process-global state.

Hot paths (the edge scheduler, the fast-path planner, the batch merge
loop, campaign executors) import the :data:`OBS` singleton and gate
every instrumentation site behind a single attribute check::

    from repro.obs.state import OBS
    ...
    if OBS.enabled:
        OBS.metrics.inc("batch.rounds")

Disabled (the default), each site costs exactly one boolean attribute
load — the strict-no-op contract ``benchmarks/test_obs_overhead.py``
checks deterministically (no facet is touched, and the ``plan_round``
wrapper is one tail call per planned round).  ``OBS.enabled`` is
True only between :func:`enable` and :func:`disable` (or inside an
:func:`observe` block); enabling always provisions a
:class:`~repro.obs.metrics.MetricsRegistry`, while the tracer and
profiler are opt-in facets, so guarded sites may rely on
``OBS.metrics`` being present whenever ``OBS.enabled`` is.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.obs.tracer import Tracer
from repro.obs.wallclock import wall_now

#: A single reusable no-op context for disabled phase() calls.
_NULL_CONTEXT: ContextManager[None] = nullcontext()


class Observability:
    """Process-global observability state (see module docstring)."""

    __slots__ = ("enabled", "tracer", "metrics", "profiler")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer: Optional[Tracer] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.profiler: Optional[PhaseProfiler] = None

    # -- lifecycle -----------------------------------------------------
    def enable(
        self, trace: bool = True, profile: bool = True
    ) -> "Observability":
        """Turn observability on; returns self for reading results.

        Metrics are always collected while enabled (guarded sites
        assume a registry), so there is no switch for them; ``trace``
        and ``profile`` opt into span collection and phase wall
        timing.
        """
        self.metrics = MetricsRegistry()
        self.tracer = Tracer() if trace else None
        self.profiler = PhaseProfiler() if profile else None
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False
        self.tracer = None
        self.metrics = None
        self.profiler = None

    # -- guarded helpers (call only when ``enabled``) ------------------
    def phase(self, name: str, **args: object) -> ContextManager:
        """A profiled execution phase, as a tracer span (when tracing)
        plus a profiler accumulation (when profiling).  Callers guard
        with ``OBS.enabled``; this helper handles absent facets."""
        if not self.enabled:
            return _NULL_CONTEXT
        return self._phase(name, args)

    @contextmanager
    def _phase(self, name: str, args: dict) -> Iterator[None]:
        start = wall_now()
        if self.tracer is not None:
            with self.tracer.span(name, cat="phase", **args):
                yield
        else:
            yield
        if self.profiler is not None:
            self.profiler.add(name, wall_now() - start)

    @contextmanager
    def profiled(self, name: str, counter: str) -> Iterator[None]:
        """Profile-and-count a hot call *without* emitting a span
        (used for per-round work like ``plan_round``, where one span
        per round would bloat traces and break cross-backend span
        structure).  Call only when ``enabled``."""
        if self.metrics is not None:
            self.metrics.inc(counter)
        if self.profiler is None:
            yield
            return
        start = wall_now()
        try:
            yield
        finally:
            self.profiler.add(name, wall_now() - start)


class ObsSession:
    """What one :func:`observe` block collected.

    A detached handle onto the tracer / metrics / profiler that were
    live inside the block — still readable after the block exits and
    the global :data:`OBS` state is restored.
    """

    __slots__ = ("tracer", "metrics", "profiler")

    def __init__(
        self,
        tracer: Optional[Tracer],
        metrics: Optional[MetricsRegistry],
        profiler: Optional[PhaseProfiler],
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.profiler = profiler


#: The process-global switchboard every instrumented module imports.
OBS = Observability()


def enable(trace: bool = True, profile: bool = True) -> Observability:
    """Module-level convenience: ``repro.obs.enable()``."""
    return OBS.enable(trace=trace, profile=profile)


def disable() -> None:
    OBS.disable()


@contextmanager
def observe(trace: bool = True, profile: bool = True) -> Iterator[ObsSession]:
    """Scoped observability: enable on entry, restore the previous
    state on exit (the form tests and the CLI use).  Yields a
    detached :class:`ObsSession` whose collected tracer / metrics /
    profiler stay readable after the block exits."""
    previous = (OBS.enabled, OBS.tracer, OBS.metrics, OBS.profiler)
    OBS.enable(trace=trace, profile=profile)
    try:
        yield ObsSession(OBS.tracer, OBS.metrics, OBS.profiler)
    finally:
        OBS.enabled, OBS.tracer, OBS.metrics, OBS.profiler = previous
