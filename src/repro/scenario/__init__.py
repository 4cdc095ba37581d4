"""Declarative scenario API: specs, workloads, and a backend-agnostic runner.

This package turns every MBus experiment into a data structure
instead of a script:

* :mod:`repro.scenario.spec` — :class:`NodeSpec` / :class:`SystemSpec`
  describe a topology (membership, addressing, power gating, timing,
  watchdog, arbitration anchor) and round-trip through JSON.
* :mod:`repro.scenario.workload` — composable traffic primitives
  (:class:`OneShot`, :class:`Burst`, :class:`Periodic`, seeded
  :class:`RandomTraffic`, :class:`Broadcast`, :class:`Interrupt`)
  that compile to deterministic post/interrupt schedules with no
  backend dependence.
* :mod:`repro.scenario.runner` — :func:`run` executes a (spec,
  workload) pair on any simulation backend and returns a
  :class:`RunReport`.  Parameter studies live in
  :mod:`repro.campaign`.

A complete scenario fits in one JSON document (see
:func:`load_scenario` and ``python -m repro run`` / ``sweep``)::

    {
      "system":   { ... SystemSpec.to_dict() ... },
      "workload": { ... Workload.to_dict() ... },
      "sweep":    {"clock_hz": [100000.0, 400000.0]}   // optional
    }
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.scenario.runner import (
    BACKEND_REGISTRY,
    BACKEND_TABLE,
    BACKENDS,
    BackendInfo,
    RunReport,
    backend_help,
    run,
    select_backend,
)
from repro.scenario.spec import NodeSpec, SystemSpec
from repro.scenario.workload import (
    Broadcast,
    Burst,
    Combined,
    Interrupt,
    InterruptEvent,
    OneShot,
    Periodic,
    PostEvent,
    RandomTraffic,
    Workload,
    register_workload_kind,
    workload_from_dict,
)


def load_scenario(
    source: Union[str, Dict],
) -> Tuple[SystemSpec, Workload, Optional[Dict]]:
    """Load ``(spec, workload, sweep_grid)`` from a JSON file or dict.

    ``source`` is a path to a scenario JSON document or an
    already-parsed dict with ``"system"`` and ``"workload"`` keys
    (``"sweep"`` optional, returned as-is or ``None``).
    """
    if isinstance(source, str):
        with open(source) as handle:
            document = json.load(handle)
    else:
        document = source
    if "system" not in document or "workload" not in document:
        raise ConfigurationError(
            "a scenario document needs 'system' and 'workload' keys"
        )
    spec = SystemSpec.from_dict(document["system"])
    workload = workload_from_dict(document["workload"])
    return spec, workload, document.get("sweep")


__all__ = [
    "BACKEND_REGISTRY",
    "BACKEND_TABLE",
    "BACKENDS",
    "BackendInfo",
    "backend_help",
    "Broadcast",
    "Burst",
    "Combined",
    "Interrupt",
    "InterruptEvent",
    "NodeSpec",
    "OneShot",
    "Periodic",
    "PostEvent",
    "RandomTraffic",
    "RunReport",
    "SystemSpec",
    "Workload",
    "load_scenario",
    "run",
    "select_backend",
    "register_workload_kind",
    "workload_from_dict",
]
