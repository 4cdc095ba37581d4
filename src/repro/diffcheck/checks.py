"""Equivalence projections and invariant checks for differential runs.

The two simulation engines promise *result* equivalence, not timing
equivalence: the same transaction stream, the same deliveries, the
same wake counts — but not the same event counts or wall time.  The
projections here define exactly what "the same answer" means, and the
invariant checks capture properties that must hold regardless of
backend:

* **replay determinism** — running one scenario twice on one backend
  is byte-identical under the projections (a pure function of the
  documents);
* **fault-free no-op** — attaching an *empty* fault spec must not
  change the answer (the injection machinery may observe, never
  disturb);
* **elision transparency** — an edge run made to step every edge
  gives the report and error class of one that may advance a
  transfer in whole cycles: the per-edge oracle of cycle elision;
* **conservation** — in a fault-free run, every delivered payload was
  posted by the workload, and no posted message is delivered more
  times than nodes that could receive it (faulty runs legitimately
  corrupt and retransmit, so conservation is scoped to clean runs);
* **bitbang feasibility** — scenarios clocked at or below the
  software-bitbang ceiling must be declared sustainable by the
  MSP430 cost model (:mod:`repro.bitbang.mbus_bitbang`), tying the
  fuzzer back to the paper's 120 kHz claim.

Every check returns a (possibly empty) list of human-readable
divergence strings; the harness aggregates them per scenario.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.core.messages import ControlCode
from repro.faults.primitives import FaultSpec, normalize_faults
from repro.scenario.runner import RunReport, run
from repro.scenario.spec import SystemSpec
from repro.scenario.workload import PostEvent, workload_from_dict


def wake_counts(report: RunReport) -> Dict[str, Dict[str, float]]:
    """Per-node wakeup counts — the power-facing half of the
    cross-backend contract."""
    return {
        node: {
            "bus_wakeups": domains["bus_wakeups"],
            "layer_wakeups": domains["layer_wakeups"],
        }
        for node, domains in report.power.items()
    }


def diff_reports(edge: RunReport, fast: RunReport) -> List[str]:
    """Divergences between two reports under the stable projections."""
    divergences: List[str] = []
    sig_edge = edge.transaction_signatures()
    sig_fast = fast.transaction_signatures()
    if sig_edge != sig_fast:
        detail = f"{len(sig_edge)} vs {len(sig_fast)} transactions"
        if len(sig_edge) == len(sig_fast):
            first = next(
                i
                for i, (a, b) in enumerate(zip(sig_edge, sig_fast))
                if a != b
            )
            detail = f"first differing transaction at index {first}"
        divergences.append(f"transaction signatures differ ({detail})")
    if edge.delivery_set() != fast.delivery_set():
        divergences.append("delivery sets differ")
    wakes_edge, wakes_fast = wake_counts(edge), wake_counts(fast)
    if wakes_edge != wakes_fast:
        nodes = sorted(
            node
            for node in set(wakes_edge) | set(wakes_fast)
            if wakes_edge.get(node) != wakes_fast.get(node)
        )
        divergences.append(f"wake counts differ for {', '.join(nodes)}")
    return divergences


def _run_scenario(
    scenario: Dict, backend: str, faults=None, setup=None
) -> RunReport:
    spec = SystemSpec.from_dict(scenario["system"])
    workload = workload_from_dict(scenario["workload"])
    if faults is None and scenario.get("faults") is not None:
        faults = FaultSpec.from_dict(scenario["faults"])
    return run(spec, workload, backend=backend, faults=faults, setup=setup)


def _observe(scenario: Dict, backend: str, faults=None, setup=None):
    """Run with errors as first-class outcomes: returns
    ``("ok", report)`` or ``("err", exception type name)``."""
    try:
        return ("ok", _run_scenario(scenario, backend, faults, setup))
    except Exception as exc:   # any failure class is an observation
        return ("err", type(exc).__name__)


def _diff_outcomes(
    first, second, names: Tuple[str, str],
    diff: Callable[[Any, Any], List[str]],
) -> List[str]:
    """Divergences between two :func:`_observe` outcomes, the runs
    ``names`` call them: two reports differ as ``diff`` finds, and two
    runs that raise the same exception class agree (a scenario both
    refuse identically is consistent behaviour)."""
    if first[0] == second[0] == "ok":
        return diff(first[1], second[1])
    if first == second:
        return []
    return [", ".join(
        f"{name} raises {value}" if kind == "err" else f"{name} answers"
        for name, (kind, value) in zip(names, (first, second))
    )]


def check_replay_determinism(
    scenario: Dict, backend: str, first=None
) -> List[str]:
    """Two runs of one scenario on one backend must project
    identically — including raising the same error, if any.

    ``first`` is the first run's outcome if the caller has it (see
    :func:`_observe`); otherwise it is run here."""
    if first is None:
        first = _observe(scenario, backend)
    second = _observe(scenario, backend)
    return [
        f"replay non-determinism on {backend!r}: {d}"
        for d in _diff_outcomes(
            first, second, ("the first run", "the replay"), diff_reports
        )
    ]


def _report_doc(report: RunReport) -> Dict:
    """A report's document without its wall-clock fields."""
    doc = report.to_dict()
    doc.pop("wall_s")
    doc.pop("wall_throughput_tps")
    return doc


def _diff_edge_reports(eliding: RunReport, stepped: RunReport) -> List[str]:
    """The fields, wall clock aside, in which two edge reports differ."""
    first, second = _report_doc(eliding), _report_doc(stepped)
    fields = sorted(
        key for key in first.keys() | second.keys()
        if first.get(key) != second.get(key)
    )
    if not fields:
        return []
    return ["stepped and eliding edge reports differ in " + ", ".join(fields)]


def _ignore(net, edge) -> None:
    """A ring-net listener that does nothing."""


def _step_every_edge(system) -> None:
    """A ``setup`` hook that makes an edge run step every edge: a
    listener ``build()`` did not attach makes the ring check refuse
    every cycle, as a tracer does, at the cost of one call per edge of
    one net and without recording anything."""
    system.nodes[0].dout.on_edge(_ignore)


def check_elision_transparency(scenario: Dict, eliding=None) -> List[str]:
    """An edge run that steps every edge (:func:`_step_every_edge`)
    must give the report of one that may advance a transfer in whole
    cycles, minus the wall-clock fields (``events_processed``
    included), or raise the same error class: the per-edge oracle of
    cycle elision.

    ``eliding`` is that run's outcome if the caller has it (see
    :func:`_observe`); otherwise it is run here.  A run that elided
    nothing stepped every edge itself, so the stepped twin runs only
    when it elided or raised.
    """
    if eliding is None:
        eliding = _observe(scenario, "edge")
    kind, value = eliding
    if kind == "ok" and not value.system.sim.events_elided:
        return []
    stepped = _observe(scenario, "edge", setup=_step_every_edge)
    return _diff_outcomes(
        eliding, stepped, ("the eliding edge run", "the stepped one"),
        _diff_edge_reports,
    )


def check_fault_free_noop(
    scenario: Dict, backend: str, bare=None
) -> List[str]:
    """An *empty* fault spec must be a no-op: same projections as a
    run with no fault machinery attached at all.

    ``bare`` is that run's outcome if the caller has it (see
    :func:`_observe`); otherwise it is run here."""
    if scenario.get("faults") is not None:
        return []   # only meaningful for clean scenarios
    if bare is None:
        bare = _observe(scenario, backend)
    observed = _observe(scenario, backend, faults=normalize_faults(()))
    return [
        f"empty fault spec changed the {backend!r} answer: {d}"
        for d in _diff_outcomes(
            bare, observed, ("the bare run", "the run with it"),
            diff_reports,
        )
    ]


def check_conservation(scenario: Dict, report: RunReport) -> List[str]:
    """Fault-free runs may not invent payloads: every delivered
    (payload) was posted, and the delivery count per payload is
    bounded by posts × possible receivers.  A receiver that aborts on
    a full buffer (``RX_ABORT``) keeps the bytes that fit, so such a
    delivery counts against a posted payload it is a prefix of."""
    if scenario.get("faults") is not None:
        return []   # corruption/retransmission make this legitimate
    spec = SystemSpec.from_dict(scenario["system"])
    workload = workload_from_dict(scenario["workload"])
    posted: Dict[str, int] = {}
    for event in workload.compile(spec):
        if isinstance(event, PostEvent):
            key = bytes(event.payload).hex()
            posted[key] = posted.get(key, 0) + 1
    problems: List[str] = []
    n_nodes = len(spec.nodes)
    delivered: Dict[str, int] = {}
    for transaction in report.transactions:
        for _receiver, message in transaction.rx_deliveries:
            key = message.payload.hex()
            if key not in posted and message.control is ControlCode.RX_ABORT:
                key = next((p for p in posted if p.startswith(key)), key)
            delivered[key] = delivered.get(key, 0) + 1
    for payload_hex, count in delivered.items():
        if payload_hex not in posted:
            problems.append(
                f"delivered payload {payload_hex} was never posted"
            )
        elif count > posted[payload_hex] * max(1, n_nodes - 1):
            problems.append(
                f"payload {payload_hex} delivered {count}x from only "
                f"{posted[payload_hex]} post(s)"
            )
    return problems


def check_bitbang_feasibility(scenario: Dict) -> List[str]:
    """Scenarios at or below the software-bitbang ceiling must be
    sustainable per the MSP430 cost model — the static cross-check
    against :mod:`repro.bitbang.mbus_bitbang`."""
    from repro.bitbang.mbus_bitbang import (
        SUPPORTED_MBUS_CLOCK_HZ,
        analyze_mbus_bitbang,
    )

    clock_hz = scenario["system"].get("clock_hz")
    if clock_hz is None or clock_hz > SUPPORTED_MBUS_CLOCK_HZ:
        return []
    analysis = analyze_mbus_bitbang()
    if clock_hz > analysis.max_bus_clock_hz:
        return [
            f"scenario clock {clock_hz} Hz is within the quoted "
            f"bitbang ceiling ({SUPPORTED_MBUS_CLOCK_HZ} Hz) but above "
            f"the cost model's {analysis.max_bus_clock_hz:.0f} Hz"
        ]
    return []
