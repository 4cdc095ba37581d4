"""The differential fuzzing harness: generate, run, diff, minimize.

:func:`fuzz` drives the whole loop: seeded scenarios from
:mod:`~repro.diffcheck.generators`, executed across a backend matrix
(edge vs fast by default; ``backends=("edge", "fast", "batch")`` for
the three-way tier check; faulty scenarios replay edge-only, since the
other tiers have no wires to disturb), diffed under the projections in
:mod:`~repro.diffcheck.checks`, and any divergent scenario greedily
minimized (:mod:`~repro.diffcheck.minimize`) and written to
``fuzz_repros/`` as a standalone JSON repro.

The first backend in the matrix is the *reference*; every other
backend is diffed pairwise against it.  Error symmetry: reference and
challenger raising the *same exception type* for a scenario is
consistent semantics (e.g. an over-long message rejected everywhere),
not a divergence — only asymmetric outcomes (one raises, one answers;
or different error types) count.

``python -m repro fuzz`` is a thin CLI over :func:`fuzz`; CI runs it
with a fixed seed and a bounded scenario count and fails on any
divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.diffcheck.checks import (
    check_bitbang_feasibility,
    check_conservation,
    check_elision_transparency,
    check_fault_free_noop,
    check_replay_determinism,
    diff_reports,
    _diff_outcomes,
    _observe,
)
from repro.diffcheck.generators import generate_scenarios, scenario_key
from repro.diffcheck.minimize import minimize_scenario, write_repro


#: The default differential matrix.  The first entry is the reference
#: backend every challenger is diffed against.
DEFAULT_BACKENDS: Tuple[str, ...] = ("edge", "fast")


def examine_scenario(
    scenario: Dict,
    invariants: bool = True,
    backends: Sequence[str] = DEFAULT_BACKENDS,
) -> List[str]:
    """All divergences for one scenario (empty = healthy).

    Clean scenarios get the full battery: cross-backend diff of every
    challenger against the reference (``backends[0]``), conservation,
    and (with ``invariants=True``) replay determinism and the
    empty-fault-spec no-op.  Faulty scenarios force the edge engine,
    so they get replay determinism.  Every scenario whose edge run
    elided cycles (or raised) also gets elision transparency: a run
    that steps every edge must agree with it.  Each check reuses the
    run it already has: a clean three-way scenario runs 7 times (the
    matrix, a replay of each challenger, the reference with an empty
    fault spec and, when edge elided, its stepped twin).
    """
    backends = tuple(backends)
    if not backends:
        raise ValueError("backends must name at least one backend")
    divergences = list(check_bitbang_feasibility(scenario))
    if scenario.get("faults") is None:
        reference = backends[0]
        outcomes = {
            backend: _observe(scenario, backend) for backend in backends
        }
        for backend in backends[1:]:
            pair = _diff_outcomes(
                outcomes[reference], outcomes[backend],
                (reference, backend), diff_reports,
            )
            if len(backends) > 2:
                pair = [
                    f"[{reference} vs {backend}] {d}" for d in pair
                ]
            divergences += pair
        kind, ref_report = outcomes[reference]
        if kind == "ok":
            divergences += check_conservation(scenario, ref_report)
        if "edge" in outcomes:
            divergences += check_elision_transparency(
                scenario, outcomes["edge"]
            )
        if invariants:
            for backend in backends[1:]:
                divergences += check_replay_determinism(
                    scenario, backend, outcomes[backend]
                )
            divergences += check_fault_free_noop(
                scenario, reference, outcomes[reference]
            )
    else:
        edge = _observe(scenario, "edge")
        divergences += check_replay_determinism(scenario, "edge", edge)
        divergences += check_elision_transparency(scenario, edge)
    return divergences


@dataclass(frozen=True)
class ScenarioOutcome:
    """One fuzzed scenario's verdict."""

    scenario: Dict
    divergences: Tuple[str, ...] = ()
    repro_path: Optional[str] = None

    @property
    def seed(self) -> int:
        return self.scenario.get("seed", -1)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def key(self) -> str:
        return scenario_key(self.scenario)


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing run."""

    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    seed: int = 0
    backends: Tuple[str, ...] = DEFAULT_BACKENDS

    @property
    def n_scenarios(self) -> int:
        return len(self.outcomes)

    @property
    def divergent(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.divergent

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    # lint: disable=schema -- one-way analytic report; records are re-derived from runs, never loaded back
    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "backends": list(self.backends),
            "n_scenarios": self.n_scenarios,
            "n_divergent": len(self.divergent),
            "divergent": [
                {
                    "seed": o.seed,
                    "key": o.key,
                    "divergences": list(o.divergences),
                    "repro": o.repro_path,
                }
                for o in self.divergent
            ],
        }

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.n_scenarios} scenario(s) from seed {self.seed} "
            f"across {'/'.join(self.backends)} — "
            f"{len(self.divergent)} divergent"
        ]
        for outcome in self.divergent:
            lines.append(
                f"  seed {outcome.seed} ({outcome.key}):"
            )
            for divergence in outcome.divergences:
                lines.append(f"    - {divergence}")
            if outcome.repro_path:
                lines.append(f"    repro: {outcome.repro_path}")
        return "\n".join(lines)


def fuzz(
    count: int = 100,
    seed: int = 0,
    faults_fraction: float = 0.25,
    repro_dir: Optional[str] = "fuzz_repros",
    minimize: bool = True,
    invariants: bool = True,
    scenarios: Optional[Sequence[Dict]] = None,
    progress: Optional[Callable[[str], None]] = None,
    backends: Sequence[str] = DEFAULT_BACKENDS,
) -> FuzzReport:
    """Run the differential fuzzer (see module docs).

    ``scenarios`` overrides generation (replaying saved repros);
    ``repro_dir=None`` disables writing repro files; ``minimize=False``
    records the raw divergent scenario instead of shrinking it first;
    ``backends`` sets the matrix (first entry is the reference).
    """
    backends = tuple(backends)
    if scenarios is None:
        scenarios = generate_scenarios(
            count, seed=seed, faults_fraction=faults_fraction
        )
    report = FuzzReport(seed=seed, backends=backends)
    for scenario in scenarios:
        divergences = examine_scenario(
            scenario, invariants=invariants, backends=backends
        )
        repro_path = None
        if divergences:
            repro = scenario
            if minimize:
                # A reduction "still fails" when it produces *any*
                # divergence — a shrunk scenario that trips a
                # different projection is still a bug witness.
                repro = minimize_scenario(
                    scenario,
                    lambda candidate: bool(
                        examine_scenario(
                            candidate,
                            invariants=invariants,
                            backends=backends,
                        )
                    ),
                )
                divergences = (
                    examine_scenario(
                        repro, invariants=invariants, backends=backends
                    )
                    or divergences
                )
            if repro_dir is not None:
                repro_path = str(
                    write_repro(
                        repro, divergences, repro_dir, minimized=minimize
                    )
                )
            if progress is not None:
                progress(
                    f"seed {scenario.get('seed')}: "
                    + "; ".join(divergences)
                )
        report.outcomes.append(
            ScenarioOutcome(
                scenario=scenario,
                divergences=tuple(divergences),
                repro_path=repro_path,
            )
        )
    return report


def replay_repro(document: Dict, invariants: bool = True) -> List[str]:
    """Re-examine a saved repro document; returns current divergences
    (empty once the underlying bug is fixed)."""
    return examine_scenario(
        document["scenario"], invariants=invariants
    )
