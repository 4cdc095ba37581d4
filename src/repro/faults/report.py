"""Reliability analytics: what the bus did under adversity.

:func:`build_reliability_report` compares a run's observed
transaction stream against the *intent* encoded in the workload (the
compiled post schedule resolved to expected deliveries through the
same :meth:`Address.matches` predicate both engines use) and against
the injected fault schedule, producing a
:class:`ReliabilityReport`:

* delivery accounting — expected / intact / corrupted / lost — and
  the headline ``recovery_rate``;
* protocol-level recovery signals — interjection sequences, general
  errors, failed transactions, retransmissions and their latency
  (first failed attempt to eventual success of the same message);
* a per-fault outcome classification tying each primitive to the
  transaction it disturbed.

The report is deterministic: it contains no wall-clock quantities,
so two runs with the same seed compare equal (the acceptance bar for
the fault subsystem).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.schema import REPORT_SCHEMA_VERSION, Document
from repro.faults.primitives import PS_PER_S, FaultSpec

#: Outcome classifications, roughly ordered by severity.
OUTCOMES = (
    "no_injections",    # compiled to nothing (e.g. a rate-0 generator)
    "ambient",          # static fault (e.g. clock drift) spanning the run
    "idle",             # injected outside any transaction, no txn followed
    "spurious_wakeup",  # provoked a null transaction / general error
    "tolerated",        # overlapping transaction completed intact
    "corrupted",        # transaction "succeeded" but a delivery was wrong
    "killed",           # overlapping transaction failed
)


@dataclass(frozen=True)
class FaultOutcome(Document):
    """What one fault primitive did to the run."""

    fault_index: int
    kind: str
    at_s: float
    transaction_index: Optional[int]
    classification: str



@dataclass
class ReliabilityReport(Document):
    """Recovery statistics for one (possibly faulted) run.

    Its document is its fields, stamped with ``schema_version`` and
    carrying the two derived rates.
    """

    n_faults: int
    scheduled_injections: int
    performed_injections: int
    injection_counts: Dict[str, int]
    edges_injected: int
    edges_dropped: int
    expected_deliveries: int
    intact_deliveries: int
    corrupted_deliveries: int
    lost_deliveries: int
    n_transactions: int
    failed_transactions: int
    general_errors: int
    interjections: int
    retransmissions: int
    retransmission_latencies_s: List[float]
    #: False when faults left member engines desynchronised at the end
    #: of the run (they resync on the next transaction's interjection;
    #: Section 4.9's detector makes that re-anchoring reliable).
    bus_idle: bool = True
    outcomes: List[FaultOutcome] = field(default_factory=list)

    schema_version = REPORT_SCHEMA_VERSION
    derived_keys = (
        "schema_version", "recovery_rate", "mean_retransmission_latency_s",
    )

    @property
    def recovery_rate(self) -> float:
        """Fraction of intended deliveries that arrived intact."""
        if self.expected_deliveries == 0:
            return 1.0
        return self.intact_deliveries / self.expected_deliveries

    @property
    def mean_retransmission_latency_s(self) -> float:
        if not self.retransmission_latencies_s:
            return 0.0
        return (
            sum(self.retransmission_latencies_s)
            / len(self.retransmission_latencies_s)
        )

    def outcome_counts(self) -> Dict[str, int]:
        counts = Counter(o.classification for o in self.outcomes)
        return {k: counts[k] for k in OUTCOMES if counts[k]}

    def summary(self) -> str:
        lines = [
            f"reliability: {self.n_faults} fault(s), "
            f"{self.performed_injections} injection(s)",
            f"  deliveries: {self.intact_deliveries}/{self.expected_deliveries} "
            f"intact ({self.recovery_rate:.1%} recovery), "
            f"{self.corrupted_deliveries} corrupted, "
            f"{self.lost_deliveries} lost",
            f"  transactions: {self.failed_transactions}/{self.n_transactions} "
            f"failed, {self.general_errors} general errors, "
            f"{self.interjections} interjection sequences",
        ]
        if self.retransmissions:
            lines.append(
                f"  retransmissions: {self.retransmissions}, mean latency "
                f"{self.mean_retransmission_latency_s * 1e3:.2f} ms"
            )
        if not self.bus_idle:
            lines.append(
                "  bus left desynchronised (resyncs on next transaction)"
            )
        counts = self.outcome_counts()
        if counts:
            lines.append(
                "  fault outcomes: "
                + ", ".join(f"{k}={v}" for k, v in counts.items())
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Expected-delivery resolution.
# ----------------------------------------------------------------------
def expected_deliveries(spec, workload) -> Counter:
    """The (receiver, payload) multiset a fault-free run delivers.

    Resolved through the same :meth:`Address.matches` predicate the
    engines use, over the workload's compiled post schedule.  Assumes
    a workload that delivers cleanly on an undisturbed bus (no
    receiver-buffer overruns, no watchdog kills); reliability studies
    should start from such a baseline so every shortfall is
    attributable to the injected faults.
    """
    from repro.scenario.workload import PostEvent, Workload

    if isinstance(workload, Workload):
        events = workload.compile(spec)
    else:
        events = tuple(workload)
    expected: Counter = Counter()
    for event in events:
        if not isinstance(event, PostEvent):
            continue
        for node in spec.nodes:
            if node.name == event.source:
                continue
            if event.dest.matches(
                node.short_prefix,
                node.full_prefix,
                frozenset(node.broadcast_channels),
            ):
                expected[(node.name, bytes(event.payload))] += 1
    return expected


# ----------------------------------------------------------------------
# Report construction.
# ----------------------------------------------------------------------
def _classify(
    fault_kind, at_ps, transactions, corrupt_txns
) -> Tuple[Optional[int], str]:
    if fault_kind == "clock_drift":
        return None, "ambient"
    overlapping = None
    following = None
    for t in transactions:
        if t.start_ps <= at_ps <= t.end_ps:
            overlapping = t
            break
        if t.start_ps > at_ps and following is None:
            following = t
    txn = overlapping or following
    if txn is None:
        return None, "idle"
    if txn.general_error and txn.message is None:
        return txn.index, "spurious_wakeup"
    if not txn.ok:
        return txn.index, "killed"
    if txn.index in corrupt_txns:
        return txn.index, "corrupted"
    return txn.index, "tolerated"


def _retransmission_stats(transactions) -> Tuple[int, List[float]]:
    """Failed-then-succeeded message accounting.

    A retransmission is a successful transaction whose
    ``(tx_node, payload)`` was previously attempted and failed;
    latency runs from the first failed attempt's start to the
    eventual success's end.
    """
    open_failures: Dict[Tuple, Tuple[int, int]] = {}   # key -> (start_ps, n)
    retransmissions = 0
    latencies: List[float] = []
    for t in transactions:
        if t.tx_node is None or t.message is None:
            continue
        key = (t.tx_node, bytes(t.message.payload))
        if t.ok:
            if key in open_failures:
                start_ps, n_failures = open_failures.pop(key)
                retransmissions += n_failures
                latencies.append((t.end_ps - start_ps) / PS_PER_S)
        else:
            start_ps, n_failures = open_failures.get(key, (t.start_ps, 0))
            open_failures[key] = (start_ps, n_failures + 1)
    return retransmissions, latencies


def build_reliability_report(
    spec,
    workload,
    fault_spec: FaultSpec,
    transactions,
    injector=None,
    system=None,
) -> ReliabilityReport:
    """Assemble the :class:`ReliabilityReport` for one finished run."""
    expected = expected_deliveries(spec, workload)
    n_expected = sum(expected.values())
    # One ordered pass over the deliveries both tallies the multiset
    # intersection with the expectations and flags the transactions
    # carrying unexpected deliveries (wrong payloads *and* duplicates
    # beyond the expected count), so the aggregate counters and the
    # per-fault classification can never disagree.
    remaining = Counter(expected)
    corrupt_txns = set()
    intact = 0
    n_actual = 0
    for t in transactions:
        for name, received in t.rx_deliveries:
            n_actual += 1
            key = (name, bytes(received.payload))
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                intact += 1
            else:
                corrupt_txns.add(t.index)

    schedule = injector.schedule if injector is not None else ()
    performed = injector.performed if injector is not None else []
    retransmissions, latencies = _retransmission_stats(transactions)

    if system is not None and getattr(system, "mode", None) == "edge":
        interjections = system.mediator.mediator.stats.interjection_sequences
    else:
        # The fast path has no mediator FSM; every transaction ends in
        # exactly one interjection sequence, so the count is implied.
        interjections = len(transactions)

    outcomes: List[FaultOutcome] = []
    first_action: Dict[int, int] = {}
    for action in schedule:
        if action.fault_index not in first_action:
            first_action[action.fault_index] = action.at_ps
    for index, fault in enumerate(fault_spec.faults):
        if index not in first_action:
            # Compiled to nothing (e.g. a rate-0 glitch generator):
            # there is no injection time to attribute to a transaction.
            outcomes.append(
                FaultOutcome(
                    fault_index=index,
                    kind=fault.kind,
                    at_s=0.0,
                    transaction_index=None,
                    classification="no_injections",
                )
            )
            continue
        at_ps = first_action[index]
        txn_index, classification = _classify(
            fault.kind, at_ps, transactions, corrupt_txns
        )
        outcomes.append(
            FaultOutcome(
                fault_index=index,
                kind=fault.kind,
                at_s=at_ps / PS_PER_S,
                transaction_index=txn_index,
                classification=classification,
            )
        )

    return ReliabilityReport(
        n_faults=len(fault_spec.faults),
        scheduled_injections=len(schedule),
        performed_injections=len(performed),
        injection_counts=dict(injector.counts) if injector else {},
        edges_injected=injector.edges_injected if injector else 0,
        edges_dropped=injector.edges_dropped if injector else 0,
        expected_deliveries=n_expected,
        intact_deliveries=intact,
        corrupted_deliveries=n_actual - intact,
        lost_deliveries=n_expected - intact,
        n_transactions=len(transactions),
        failed_transactions=sum(1 for t in transactions if not t.ok),
        general_errors=sum(1 for t in transactions if t.general_error),
        interjections=interjections,
        retransmissions=retransmissions,
        retransmission_latencies_s=latencies,
        bus_idle=True if system is None else system.is_idle,
        outcomes=outcomes,
    )
