"""Name of the batch tier's array implementation: always pure Python.

The batch tier quantizes workload times once per distinct event in
:func:`~repro.batch.compiler.compile_workload` and sums wire activity
per round template in :func:`~repro.batch.executor.materialize`, in
plain Python.  Only :func:`backend_name` remains, for callers that
record which implementation ran.
"""

from __future__ import annotations


def backend_name() -> str:
    """The active array implementation: ``"python"``."""
    return "python"
