"""Backend-agnostic scenario execution: :func:`run`.

``run(spec, workload)`` builds the topology described by a
:class:`~repro.scenario.spec.SystemSpec` on the selected simulation
backend, replays the workload's compiled schedule through the
simulator's event queue, runs the bus to idle and returns a
structured :class:`RunReport`.

Backend selection (``backend=``)
--------------------------------
* ``"edge"`` / ``"fast"`` — force the edge-accurate engine or the
  transaction-level fast path.
* ``"batch"`` — the tier-3 compiled executor (:mod:`repro.batch`):
  the spec and workload are lowered to flat arrays and whole
  bus-round sequences execute without simulator or node objects.
  Fastest by a wide margin for large campaigns; no ``setup`` hooks,
  tracing or fault injection.
* ``"auto"`` (default) — the fastest tier the run allows
  (:func:`select_backend`): tracing or an active fault set implies
  ``"edge"`` (the other tiers never toggle nets, so there is nothing
  to trace or disturb); a ``setup`` hook or any ``faults`` argument
  (an empty :class:`FaultSpec` too, which still attaches a
  :class:`ReliabilityReport`) needs a live system, so ``"fast"``;
  every other run goes to ``"batch"``.  All tiers are
  result-equivalent for message-granularity workloads (enforced by
  ``tests/integration/`` and the :mod:`repro.diffcheck` fuzzer), so
  ``auto`` only ever changes speed, not answers.  Campaign trial keys
  hash the *requested* backend, so they do not depend on this rule;
  the ``backend`` field of a report (and of an ok trial record)
  names the resolved tier.

The backend registry below is table-driven: :data:`BACKEND_TABLE` is
the single source of truth for names, capabilities and help text, and
``BACKENDS``, :func:`select_backend` errors and the CLI ``--backend``
options all derive from it.

Parameter studies live in :mod:`repro.campaign` (grids, pluggable
executors, content-addressed caching, queryable results).  A campaign
trial on the batch tier calls :func:`run_batch_record` instead of
:func:`run`: the same compile and execute, then the canonical JSON of
the record's report built straight from the round log, with no
``TransactionResult``, no :meth:`RunReport.to_dict` and no report
dict.  :func:`run` itself always materializes the full report.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.core.bus import MBusSystem, TransactionResult
from repro.core.errors import ConfigurationError
from repro.core.schema import (
    REPORT_SCHEMA_VERSION,
    Encoded,
    canonical_json,
    splice_json,
)
from repro.faults.injector import FaultInjector
from repro.faults.primitives import FaultSpec, normalize_faults
from repro.faults.report import ReliabilityReport, build_reliability_report
from repro.obs.state import OBS
from repro.power.energy_model import MeasuredEnergyModel
from repro.scenario.spec import SystemSpec
from repro.scenario.workload import (
    InterruptEvent,
    PostEvent,
    ScheduleEvent,
    Workload,
)

if TYPE_CHECKING:
    from repro.core.tlm_engine import RoundTemplate

PS_PER_S = 1_000_000_000_000


@dataclass(frozen=True)
class BackendInfo:
    """One row of the backend registry.

    ``selector`` marks pseudo-backends that resolve to a concrete tier
    (only ``"auto"``).  Capability flags gate :func:`select_backend`;
    ``supports_setup`` means the tier builds a live
    :class:`MBusSystem`, which ``setup`` hooks and the reliability
    analytics of any ``faults`` argument need.  ``description`` feeds
    CLI help.
    """

    name: str
    description: str
    selector: bool = False
    supports_trace: bool = False
    supports_faults: bool = False
    supports_setup: bool = False


#: Single source of truth for backend registration: ``BACKENDS``,
#: the :func:`select_backend` error message and the CLI ``--backend``
#: choices/help all derive from this table.
BACKEND_TABLE: Tuple[BackendInfo, ...] = (
    BackendInfo(
        "auto",
        "pick for me: edge when tracing or injecting faults, fast for "
        "setup hooks or a faults argument, else batch",
        selector=True,
        supports_trace=True,
        supports_faults=True,
        supports_setup=True,
    ),
    BackendInfo(
        "edge",
        "edge-accurate engine (every CLK/DATA transition; golden "
        "reference, tracing, faults)",
        supports_trace=True,
        supports_faults=True,
        supports_setup=True,
    ),
    BackendInfo(
        "fast",
        "transaction-level fast path (closed-form rounds, ~2 events "
        "per transaction)",
        supports_setup=True,
    ),
    BackendInfo(
        "batch",
        "tier-3 compiled executor (flat arrays, round templates; "
        "fleet-scale campaigns)",
    ),
)

BACKEND_REGISTRY: Dict[str, BackendInfo] = {
    info.name: info for info in BACKEND_TABLE
}

BACKENDS = tuple(BACKEND_REGISTRY)


def backend_help() -> str:
    """One-line-per-backend help text for CLI ``--backend`` options."""
    return "; ".join(
        f"{info.name}: {info.description}" for info in BACKEND_TABLE
    )


def select_backend(
    backend: str = "auto",
    trace: bool = False,
    faults_active: bool = False,
    live_system: bool = False,
) -> str:
    """Resolve ``backend`` to a concrete execution tier.

    ``live_system`` says the run needs a built :class:`MBusSystem`: a
    ``setup`` hook, or any ``faults`` argument (even an empty
    :class:`FaultSpec`, which still attaches a
    :class:`ReliabilityReport`).  ``"auto"`` picks:

    * ``"edge"`` when tracing or when the fault set is *active*
      (non-empty): faults disturb wires and power domains, which
      neither the transaction-level fast path nor the compiled batch
      tier models, and only edge toggles nets to trace;
    * ``"fast"`` when the run needs a live system;
    * ``"batch"`` otherwise.

    Requesting a concrete backend that cannot serve the run is a hard
    error rather than a silent downgrade.
    """
    info = BACKEND_REGISTRY.get(backend)
    if info is None:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}, not {backend!r}"
        )
    if faults_active and not info.supports_faults:
        raise ConfigurationError(
            "fault injection requires the edge-accurate backend: the "
            f"{info.name!r} path has no wires or mid-transaction power "
            "state to disturb; use backend='edge' or 'auto'"
        )
    if info.selector:
        if trace or faults_active:
            return "edge"
        return "fast" if live_system else "batch"
    if trace and not info.supports_trace:
        raise ConfigurationError(
            "tracing requires the edge backend; use backend='edge' or 'auto'"
        )
    if live_system and not info.supports_setup:
        raise ConfigurationError(
            "setup hooks and reliability analytics (any faults= "
            "argument) need a live system; the "
            f"{info.name!r} backend never builds one — use "
            "backend='edge', 'fast' or 'auto'"
        )
    return backend


def check_timeouts(**budgets: Optional[float]) -> None:
    """Reject a time budget that is negative or not a finite number,
    naming its field (``check_timeouts(timeout_s=...)``).  ``None``
    means no limit.  A negative simulated horizon would end a run
    before its first event and report it ok with no traffic."""
    for name, value in budgets.items():
        if value is None:
            continue
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
            or value < 0
        ):
            raise ConfigurationError(
                f"{name} must be a finite number of seconds >= 0 "
                f"(or null for no limit), not {value!r}"
            )


@dataclass
class RunReport:
    """Structured outcome of one scenario run.

    Raw observations (the transaction stream, deliveries, power-domain
    report, wire activity) plus derived throughput/goodput/energy
    statistics.  ``to_dict()`` is JSON-friendly for the CLI;
    ``transaction_signatures()`` / ``delivery_set()`` are the stable,
    timing-free projections used for cross-backend equivalence checks.
    """

    backend: str
    spec: SystemSpec
    transactions: List[TransactionResult]
    power: Dict[str, Dict[str, float]]
    wire_activity: Dict[str, int]
    sim_time_s: float
    wall_s: float
    events_processed: int
    #: The workload that produced this report (when given as a
    #: :class:`Workload`; raw event iterables are not retained), so
    #: ``to_dict()`` output is reproducible from itself.
    workload: Optional[Workload] = None
    #: The fault set applied to the run (``None`` = faults never
    #: requested; an empty spec = clean baseline of a fault study).
    faults: Optional[FaultSpec] = None
    #: Recovery analytics; present whenever ``faults`` was passed to
    #: :func:`run`, even as an empty spec.
    reliability: Optional[ReliabilityReport] = None
    #: The live system (tracer access, node inboxes); excluded from
    #: comparisons and repr.  ``None`` on the batch tier, so under
    #: ``backend="auto"`` only a run with ``trace``, ``setup`` or
    #: ``faults`` has one.
    system: Optional[MBusSystem] = field(
        default=None, repr=False, compare=False
    )

    # -- raw projections ---------------------------------------------------
    @property
    def n_transactions(self) -> int:
        return len(self.transactions)

    @property
    def n_ok(self) -> int:
        return sum(1 for t in self.transactions if t.ok)

    @functools.cached_property
    def deliveries(self) -> List[Tuple[str, bytes]]:
        """(receiver, payload) for every delivery, in bus order.

        Cached: the transaction list is fixed once the run completes,
        and several derived statistics walk this list.
        """
        return [
            (name, bytes(message.payload))
            for t in self.transactions
            for name, message in t.rx_deliveries
        ]

    def delivery_set(self) -> Tuple[Tuple[str, str, int], ...]:
        """Order-insensitive delivery fingerprint: sorted
        (receiver, payload hex, count-preserving index)."""
        seen: Dict[Tuple[str, str], int] = {}
        fingerprint = []
        for name, payload in self.deliveries:
            key = (name, payload.hex())
            seen[key] = seen.get(key, 0) + 1
            fingerprint.append((name, payload.hex(), seen[key]))
        return tuple(sorted(fingerprint))

    def transaction_signatures(self) -> Tuple[Tuple, ...]:
        """Timing-free view of the transaction stream, identical
        across backends for any message-granularity workload."""
        return tuple(
            (
                t.index,
                t.ok,
                t.control,
                t.tx_node,
                None if t.message is None else bytes(t.message.payload),
                t.clock_cycles,
                t.control_cycles,
                t.general_error,
                t.error_reason,
                tuple(sorted(t.rx_nodes)),
            )
            for t in self.transactions
        )

    # -- derived statistics ------------------------------------------------
    @property
    def delivered_payload_bits(self) -> int:
        return sum(8 * len(payload) for _, payload in self.deliveries)

    @property
    def throughput_tps(self) -> float:
        """Successful transactions per simulated second."""
        if self.sim_time_s <= 0:
            return 0.0
        return self.n_ok / self.sim_time_s

    @property
    def goodput_bps(self) -> float:
        """Delivered payload bits per simulated second."""
        if self.sim_time_s <= 0:
            return 0.0
        return self.delivered_payload_bits / self.sim_time_s

    @property
    def wall_throughput_tps(self) -> float:
        """Transactions resolved per *wall-clock* second.

        The host-side rate (all transactions, not just successful
        ones): this is what backend tiering changes, so it is the
        number that makes batch-vs-fast speedups visible in
        ``summary()`` output and benchmark JSON.
        """
        if self.wall_s <= 0:
            return 0.0
        return self.n_transactions / self.wall_s

    def energy_pj(self, model: Optional[MeasuredEnergyModel] = None) -> float:
        """Message energy of the completed traffic (Section 6.2 model)."""
        model = model or MeasuredEnergyModel()
        n_nodes = len(self.spec.nodes)
        total = 0.0
        for t in self.transactions:
            if not t.ok or t.message is None:
                continue
            total += model.message_energy_pj(
                len(t.message.payload),
                n_nodes,
                full_address=not t.message.dest.is_short,
                n_receivers=max(1, len(t.rx_deliveries)),
            )
        return total

    def energy_per_delivered_bit_pj(
        self, model: Optional[MeasuredEnergyModel] = None
    ) -> float:
        bits = self.delivered_payload_bits
        if bits == 0:
            return 0.0
        return self.energy_pj(model) / bits

    # -- presentation ------------------------------------------------------
    # lint: disable=schema -- one-way analytic report; records are re-derived from runs, never loaded back
    def to_dict(self) -> Dict:
        energy_pj = self.energy_pj()
        bits = self.delivered_payload_bits
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "backend": self.backend,
            "spec": self.spec.to_dict(),
            "workload": (
                self.workload.to_dict()
                if isinstance(self.workload, Workload)
                else None
            ),
            "faults": None if self.faults is None else self.faults.to_dict(),
            "reliability": (
                None if self.reliability is None
                else self.reliability.to_dict()
            ),
            "n_transactions": self.n_transactions,
            "n_ok": self.n_ok,
            "sim_time_s": self.sim_time_s,
            "wall_s": self.wall_s,
            "events_processed": self.events_processed,
            "throughput_tps": self.throughput_tps,
            "wall_throughput_tps": self.wall_throughput_tps,
            "goodput_bps": self.goodput_bps,
            "energy_pj": energy_pj,
            "energy_per_delivered_bit_pj": energy_pj / bits if bits else 0.0,
            "wire_activity": dict(self.wire_activity),
            "power": self.power,
            "transactions": [
                {
                    "index": t.index,
                    "ok": t.ok,
                    "control": None if t.control is None else t.control.name,
                    "tx_node": t.tx_node,
                    "payload_hex": (
                        None if t.message is None else t.message.payload.hex()
                    ),
                    "rx_nodes": t.rx_nodes,
                    "clock_cycles": t.clock_cycles,
                    "control_cycles": t.control_cycles,
                    "duration_ps": t.duration_ps,
                    "general_error": t.general_error,
                    "error_reason": t.error_reason,
                }
                for t in self.transactions
            ],
        }

    def summary(self) -> str:
        name = self.spec.name or f"{len(self.spec.nodes)}-node system"
        energy_pj = self.energy_pj()
        bits = self.delivered_payload_bits
        lines = [
            f"scenario: {name} [{self.backend} backend]",
            f"  transactions: {self.n_ok}/{self.n_transactions} ok, "
            f"{self.delivered_payload_bits // 8} payload bytes delivered",
            f"  simulated {self.sim_time_s * 1e3:.3f} ms of bus time in "
            f"{self.wall_s * 1e3:.1f} ms wall "
            f"({self.events_processed} events)",
            f"  throughput: {self.throughput_tps:,.0f} txn/s sim "
            f"({self.wall_throughput_tps:,.0f} txn/s wall); "
            f"goodput: {self.goodput_bps / 1e3:,.1f} kbit/s",
            f"  energy: {energy_pj / 1e3:.2f} nJ "
            f"({energy_pj / bits if bits else 0.0:.1f} pJ per delivered bit)",
        ]
        for node, domains in self.power.items():
            lines.append(
                f"  {node}: bus {domains['bus_on_s'] * 1e3:.3f} ms on "
                f"({domains['bus_wakeups']:.0f} wakeups), layer "
                f"{domains['layer_on_s'] * 1e3:.3f} ms on "
                f"({domains['layer_wakeups']:.0f} wakeups)"
            )
        if self.reliability is not None:
            lines.append(self.reliability.summary())
        return "\n".join(lines)


def _compile(workload, spec) -> Tuple[ScheduleEvent, ...]:
    if isinstance(workload, Workload):
        return workload.compile(spec)
    events = tuple(workload)
    for event in events:
        if not isinstance(event, (PostEvent, InterruptEvent)):
            raise ConfigurationError(
                f"workload items must be schedule events, got {event!r}"
            )
    return tuple(sorted(events, key=operator.attrgetter("at_s")))


def _post_fn(system: MBusSystem, event: PostEvent):
    return lambda: system.post(
        event.source, event.dest, event.payload, priority=event.priority
    )


def _interrupt_fn(system: MBusSystem, event: InterruptEvent):
    return lambda: system.interrupt(event.node)


def run(
    spec: SystemSpec,
    workload: Union[Workload, Iterable[ScheduleEvent]],
    backend: str = "auto",
    trace: bool = False,
    timeout_s: Optional[float] = None,
    setup: Optional[Callable[[MBusSystem], Any]] = None,
    faults: Any = None,
    wall_timeout_s: Optional[float] = None,
) -> RunReport:
    """Execute ``workload`` on the system described by ``spec``.

    ``setup``, if given, is called with the built :class:`MBusSystem`
    before any traffic is scheduled — the hook for attaching
    behavioural chips, layer handlers or observers that are code
    rather than data.  ``timeout_s`` bounds simulated (not wall)
    time, as in :meth:`MBusSystem.run_until_idle`.

    ``faults`` — a :class:`~repro.faults.FaultSpec` (or a fault /
    iterable of faults) injected deterministically during the run.  A
    non-empty set forces the edge backend under ``backend="auto"``
    and rejects an explicit ``"fast"`` or ``"batch"``; any ``faults``
    argument, including an empty spec, attaches a
    :class:`~repro.faults.ReliabilityReport` to the result (and so
    keeps ``auto`` off the batch tier; see :func:`select_backend`).

    ``wall_timeout_s`` bounds *host* time: the event loop raises
    :class:`~repro.core.errors.WallClockTimeout` (cooperatively,
    checked every 256 events) once the budget is spent.  Campaign
    executors convert this into a recorded ``timeout`` failure.
    Either budget must be ``None`` or a finite number ``>= 0``
    (:func:`check_timeouts`).
    """
    check_timeouts(timeout_s=timeout_s, wall_timeout_s=wall_timeout_s)
    wall_deadline = _wall_deadline(wall_timeout_s)
    fault_spec = normalize_faults(faults)
    faults_active = bool(fault_spec)
    mode = select_backend(
        backend,
        trace,
        faults_active=faults_active,
        live_system=setup is not None or fault_spec is not None,
    )
    span, tracer = _run_span(mode)
    with span:
        report = _run_on(
            mode, spec, workload, trace, timeout_s, setup,
            fault_spec, faults_active, wall_deadline,
        )
        if tracer is not None:
            _round_spans(tracer, (
                (txn.start_ps, txn.duration_ps, txn.index, txn.ok)
                for txn in report.transactions
            ))
    return report


def run_batch_record(
    spec: SystemSpec,
    workload: Workload,
    timeout_s: Optional[float] = None,
    wall_timeout_s: Optional[float] = None,
) -> Tuple[str, float]:
    """``run(spec, workload, backend="batch")`` for a campaign record.

    Returns ``(report_json, wall_s)``: the canonical JSON of the report
    document exactly as a trial record holds it —
    ``RunReport.to_dict()`` without its ``wall_*`` fields — and the
    wall time.  The text comes straight from the executor's round log:
    no :func:`~repro.batch.materialize`, no ``TransactionResult``, no
    ``RunReport.to_dict`` and no report dict.  Each round template
    contributes its ready-encoded transaction row (the round's index
    spliced in), its energy term (summed per transaction, in order, as
    :meth:`RunReport.energy_pj` sums) and its delivered bits; the spec
    contributes its one encoding (:attr:`SystemSpec.encoded`).

    Compile and execute are :func:`run`'s own, so a run that fails
    here fails the same way, and with observability on this emits the
    same ``run`` span, phases, ``run.calls`` count and per-transaction
    sim spans.
    """
    check_timeouts(timeout_s=timeout_s, wall_timeout_s=wall_timeout_s)
    wall_deadline = _wall_deadline(wall_timeout_s)
    span, tracer = _run_span("batch")
    with span:
        csys, result, start = _batch_execute(
            spec, workload, timeout_s, wall_deadline
        )
        with OBS.phase("serialize"):
            line = _batch_record_report(csys, result, spec, workload)
            wall_s = time.perf_counter() - start
        if tracer is not None:
            _round_spans(tracer, (
                (t0, tpl.end_off, index, tpl.ok)
                for index, (t0, tpl) in enumerate(
                    zip(result.starts, result.rounds)
                )
            ))
    return line, wall_s


def _wall_deadline(wall_timeout_s: Optional[float]) -> Optional[float]:
    if wall_timeout_s is None:
        return None
    return time.perf_counter() + wall_timeout_s


def _run_span(mode: str) -> Tuple[Any, Any]:
    """Count the run and open its ``run`` span: ``(span, tracer)``,
    with a no-op span and no tracer when observability is off."""
    if not OBS.enabled:
        return nullcontext(), None
    OBS.metrics.inc("run.calls", labels={"backend": mode})
    tracer = OBS.tracer
    if tracer is None:
        return nullcontext(), None
    return tracer.span("run", cat="phase", backend=mode), tracer


def _round_spans(
    tracer, rounds: Iterable[Tuple[int, int, int, bool]]
) -> None:
    """Bus rounds and transactions re-expressed as deterministic
    sim-time spans (integer picoseconds, no wall noise), from
    ``(start_ps, duration_ps, index, ok)`` per transaction.  The
    transaction list is equivalence-checked across backends, so the
    span tree is structurally identical on edge, fast and batch — the
    cross-backend contract the obs tests pin."""
    for start_ps, duration_ps, index, ok in rounds:
        with tracer.sim_span(
            "bus-round", start_ps, duration_ps, index=index
        ):
            with tracer.sim_span(
                "transaction", start_ps, duration_ps, ok=ok
            ):
                pass


def _run_on(
    mode: str,
    spec: SystemSpec,
    workload: Union[Workload, Iterable[ScheduleEvent]],
    trace: bool,
    timeout_s: Optional[float],
    setup: Optional[Callable[[MBusSystem], Any]],
    fault_spec: Any,
    faults_active: bool,
    wall_deadline: Optional[float],
) -> RunReport:
    """The backend dispatch body of :func:`run`, which encloses it in
    a ``run`` span when tracing."""
    if mode == "batch":
        return _run_batch(
            spec, workload, timeout_s=timeout_s, wall_deadline=wall_deadline
        )
    with OBS.phase("compile"):
        system = spec.build(mode=mode, trace=trace)
        injector = None
        if faults_active:
            injector = FaultInjector(system, fault_spec, spec)
            injector.arm()
        if setup is not None:
            setup(system)
        for event in _compile(workload, spec):
            at_ps = int(round(event.at_s * PS_PER_S))
            if isinstance(event, PostEvent):
                system.sim.schedule_at(at_ps, _post_fn(system, event))
            else:
                system.sim.schedule_at(at_ps, _interrupt_fn(system, event))
    start = time.perf_counter()
    with OBS.phase("execute"):
        try:
            # Under active faults a run may legitimately end with member
            # engines desynchronised (e.g. dropped CLK edges leave them
            # mid-control until the next transaction resyncs them); that
            # is a *finding*, recorded as ``reliability.bus_idle``, not a
            # simulation error.
            system.run_until_idle(
                timeout_s=timeout_s,
                require_idle=not faults_active,
                wall_deadline=wall_deadline,
            )
        finally:
            if injector is not None:
                injector.finalize()
    wall_s = time.perf_counter() - start
    with OBS.phase("serialize"):
        reliability = None
        if fault_spec is not None:
            reliability = build_reliability_report(
                spec,
                workload,
                fault_spec,
                list(system.transactions),
                injector=injector,
                system=system,
            )
        report = RunReport(
            backend=mode,
            spec=spec,
            transactions=list(system.transactions),
            power=system.power_domain_report(),
            wire_activity=system.wire_activity(),
            sim_time_s=system.sim.now / PS_PER_S,
            wall_s=wall_s,
            events_processed=system.sim.events_processed,
            workload=workload if isinstance(workload, Workload) else None,
            faults=fault_spec,
            reliability=reliability,
            system=system,
        )
    return report


def _batch_execute(
    spec: SystemSpec,
    workload,
    timeout_s: Optional[float],
    wall_deadline: Optional[float],
):
    """Compile and execute on the batch tier: ``(csys, result,
    start)``, where ``start`` is when the timed window opened.

    Compilation sits outside the timed window (it is the analogue of
    ``spec.build()`` + workload compilation, which the event-loop
    backends also do before their clock starts) and is memoised by
    spec content digest, so a campaign compiles each topology once.
    """
    from repro.batch import (
        BatchExecutor,
        compile_system_cached,
        compile_workload,
    )

    with OBS.phase("compile"):
        schedule = _compile(workload, spec)
        csys = compile_system_cached(spec)
        cwl = compile_workload(schedule, csys)
    # Matches run_until_idle's horizon arithmetic (sim starts at 0).
    until = None if timeout_s is None else int(timeout_s * 1e12)
    start = time.perf_counter()
    with OBS.phase("execute"):
        result = BatchExecutor(csys, cwl).run(
            until=until, wall_deadline=wall_deadline
        )
    return csys, result, start


def _run_batch(
    spec: SystemSpec,
    workload,
    timeout_s: Optional[float],
    wall_deadline: Optional[float],
) -> RunReport:
    """The tier-3 path of :func:`run`: compile, execute, materialise."""
    from repro.batch import materialize

    csys, result, start = _batch_execute(
        spec, workload, timeout_s, wall_deadline
    )
    with OBS.phase("serialize"):
        transactions, power, wire = materialize(csys, result)
        wall_s = time.perf_counter() - start
        report = RunReport(
            backend="batch",
            spec=spec,
            transactions=transactions,
            power=power,
            wire_activity=wire,
            sim_time_s=result.end_ps / PS_PER_S,
            wall_s=wall_s,
            events_processed=result.steps,
            workload=workload if isinstance(workload, Workload) else None,
            faults=None,
            reliability=None,
            system=None,
        )
    return report


#: The Section 6.2 model :meth:`RunReport.energy_pj` defaults to.
_ENERGY_MODEL = MeasuredEnergyModel()


class _TemplateRow(NamedTuple):
    """A round template's record terms, kept in the template's ``row``:
    its transaction row's canonical JSON cut around ``index`` (the
    row is ``head + str(index) + tail``), the same text's cut around
    the payload (``tail`` is ``mid + payload_json + end``, ``mid`` and
    ``end`` empty without a message), its Section 6.2 message energy
    (``None`` when :meth:`RunReport.energy_pj` skips it) and its
    delivered payload bits.  All but ``tail`` are the same for every
    template of one message shape."""

    head: str
    tail: str
    mid: str
    end: str
    energy_pj: Optional[float]
    payload_bits: int


def _template_row(tpl: RoundTemplate, n_nodes: int) -> _TemplateRow:
    """Compute and keep ``tpl``'s record terms on an ``n_nodes`` ring:
    an overlay's from its shape's plan's (a few string joins), a
    planned template's by encoding its row once."""
    message = tpl.message
    plan = tpl.row
    if plan is not None and message is not None:
        shape = plan.row
        if type(shape) is not _TemplateRow:
            shape = _template_row(plan, n_nodes)
        row = _TemplateRow(
            shape.head, f'{shape.mid}"{message.payload.hex()}"{shape.end}',
            shape.mid, shape.end, shape.energy_pj, shape.payload_bits,
        )
        tpl.row = row
        return row
    # Encoded with index 0 and an empty payload, and cut around both:
    # '"index":' and '"payload_hex":' can only be those keys (quotes
    # inside string values are escaped), and index sorts first.
    text = canonical_json({
        "index": 0,
        "ok": tpl.ok,
        "control": None if tpl.control is None else tpl.control.name,
        "tx_node": tpl.tx_node,
        "rx_nodes": [rx[0] for rx in tpl.rx],
        "payload_hex": None if message is None else "",
        "clock_cycles": tpl.clock_cycles,
        "control_cycles": tpl.control_cycles,
        "duration_ps": tpl.end_off,
        "general_error": tpl.general_error,
        "error_reason": tpl.error_reason,
    })
    cut = text.index('"index":0') + len('"index":')
    mid = end = ""
    tail = text[cut + 1:]
    if message is not None:
        at = text.index('"payload_hex":""', cut) + len('"payload_hex":')
        mid, end = text[cut + 1:at], text[at + 2:]
        tail = f'{mid}"{message.payload.hex()}"{end}'
    row = _TemplateRow(
        head=text[:cut],
        tail=tail,
        mid=mid,
        end=end,
        energy_pj=(
            _ENERGY_MODEL.message_energy_pj(
                len(message.payload),
                n_nodes,
                full_address=not message.dest.is_short,
                n_receivers=max(1, len(tpl.rx)),
            )
            if tpl.ok and message is not None
            else None
        ),
        payload_bits=sum(8 * len(rx[2]) for rx in tpl.rx),
    )
    tpl.row = row
    return row


def _batch_record_report(
    csys: Any, result: Any, spec: SystemSpec, workload: Workload
) -> str:
    """The canonical JSON of a batch run's record report, from its
    round templates: the ``RunReport.to_dict()`` document minus ``wall_*``
    (see :func:`run_batch_record`)."""
    from repro.batch.executor import tallies

    n_nodes = len(spec.nodes)
    rows: List[str] = []
    energy_pj = 0.0
    for index, tpl in enumerate(result.rounds):
        terms = tpl.row
        if type(terms) is not _TemplateRow:
            terms = _template_row(tpl, n_nodes)
        rows.append(f"{terms.head}{index}{terms.tail}")
        if terms.energy_pj is not None:
            energy_pj += terms.energy_pj
    n_ok = bits = 0
    for tpl, hits in result.hit_counts.items():
        if tpl.ok:
            n_ok += hits
        bits += hits * tpl.row.payload_bits
    power, wire = tallies(csys, result)
    sim_time_s = result.end_ps / PS_PER_S
    return splice_json({
        "schema_version": REPORT_SCHEMA_VERSION,
        "backend": "batch",
        "spec": Encoded(spec.encoded),
        "workload": workload.to_dict(),
        "faults": None,
        "reliability": None,
        "n_transactions": len(rows),
        "n_ok": n_ok,
        "sim_time_s": sim_time_s,
        "events_processed": result.steps,
        "throughput_tps": n_ok / sim_time_s if sim_time_s > 0 else 0.0,
        "goodput_bps": bits / sim_time_s if sim_time_s > 0 else 0.0,
        "energy_pj": energy_pj,
        "energy_per_delivered_bit_pj": energy_pj / bits if bits else 0.0,
        "wire_activity": wire,
        "power": power,
        "transactions": Encoded("[" + ",".join(rows) + "]"),
    })
