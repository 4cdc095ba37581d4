"""Cross-backend differential fuzzing for the MBus simulators.

Two engines answer the same questions — the edge-accurate simulator
and the transaction-level fast path — and the repository's central
correctness claim is that they *agree*.  This package turns that
claim into an adversarial search:

* :mod:`~repro.diffcheck.generators` — seeded, deterministic scenario
  documents over topology × workload × fault space;
* :mod:`~repro.diffcheck.checks` — the equivalence projections
  (transaction signatures, delivery sets, wake counts) and invariants
  (replay determinism, empty-fault-spec no-op, payload conservation,
  bitbang feasibility);
* :mod:`~repro.diffcheck.harness` — :func:`fuzz`: generate, execute
  across the backend matrix (``backends=("edge", "fast", "batch")``
  adds the compiled batch tier), diff against the reference, report;
* :mod:`~repro.diffcheck.minimize` — greedy delta-debugging of any
  divergent scenario down to a small standalone JSON repro in
  ``fuzz_repros/``.

Quickstart::

    from repro.diffcheck import fuzz
    report = fuzz(count=200, seed=1)
    print(report.summary())        # 0 divergent, or repro paths
    assert report.ok

or ``python -m repro fuzz --count 200 --seed 1`` (exit 1 on any
divergence — the CI smoke contract).
"""

from __future__ import annotations

from repro.diffcheck.checks import (
    check_bitbang_feasibility,
    check_conservation,
    check_fault_free_noop,
    check_replay_determinism,
    check_elision_transparency,
    diff_reports,
    wake_counts,
)
from repro.diffcheck.generators import (
    CLOCK_CHOICES,
    WORKLOAD_SHAPES,
    generate_faults,
    generate_scenario,
    generate_scenarios,
    generate_system,
    generate_workload,
    scenario_key,
)
from repro.diffcheck.harness import (
    DEFAULT_BACKENDS,
    FuzzReport,
    ScenarioOutcome,
    examine_scenario,
    fuzz,
    replay_repro,
)
from repro.diffcheck.minimize import (
    load_repro,
    minimize_scenario,
    scenario_fingerprint,
    write_repro,
)

__all__ = [
    "CLOCK_CHOICES",
    "DEFAULT_BACKENDS",
    "FuzzReport",
    "ScenarioOutcome",
    "WORKLOAD_SHAPES",
    "check_bitbang_feasibility",
    "check_conservation",
    "check_fault_free_noop",
    "check_replay_determinism",
    "check_elision_transparency",
    "diff_reports",
    "examine_scenario",
    "fuzz",
    "generate_faults",
    "generate_scenario",
    "generate_scenarios",
    "generate_system",
    "generate_workload",
    "load_repro",
    "minimize_scenario",
    "replay_repro",
    "scenario_fingerprint",
    "scenario_key",
    "wake_counts",
    "write_repro",
]
