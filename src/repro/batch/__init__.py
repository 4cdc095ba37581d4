"""Tier-3 batch backend: compiled fleet-scale campaign execution.

The third simulation tier (after the edge-accurate engine and the
transaction-level fast path): :mod:`repro.batch` compiles a
:class:`~repro.scenario.spec.SystemSpec` plus a workload schedule into
flat integer arrays and executes whole bus-round sequences without a
simulator, nets, or node objects — see :mod:`repro.batch.compiler`
and :mod:`repro.batch.executor`.  Selected via ``backend="batch"`` in
:func:`repro.scenario.run`, and by ``backend="auto"`` for every run
that needs no live system (no tracing, ``setup`` hook or faults);
equivalence with the fast path (identical transaction signatures,
delivery sets, wake counts) is enforced by the three-way
differential harness in :mod:`repro.diffcheck`.
"""

from repro.batch import accel
from repro.batch.cache import (
    cache_stats,
    clear_cache,
    compile_system_cached,
    spec_digest,
)
from repro.batch.compiler import (
    KIND_INTERRUPT,
    KIND_POST,
    CompiledSystem,
    CompiledWorkload,
    compile_workload,
)
from repro.batch.executor import (
    BatchExecutor,
    BatchResult,
    materialize,
)

__all__ = [
    "accel",
    "BatchExecutor",
    "BatchResult",
    "CompiledSystem",
    "CompiledWorkload",
    "KIND_INTERRUPT",
    "KIND_POST",
    "cache_stats",
    "clear_cache",
    "compile_system_cached",
    "compile_workload",
    "materialize",
    "spec_digest",
]
