"""Reliability study: recovery rate vs. glitch rate (robustness figure).

The paper argues MBus's edge semantics and interjection machinery make
the bus robust to electrical adversity (Sections 4.8–4.9, Figure 5):
glitches that resolve between latch edges are invisible, anything
worse is caught by interjection/control recovery, and the bus itself
never locks up.  This module turns that qualitative claim into a
reproducible curve: seeded random single-edge glitches are swept over
a rate grid while a fixed burst workload runs, and each point reports
the fraction of intended deliveries that arrived intact.

Since PR 5 the study is a :class:`repro.campaign.Campaign`
(:func:`recovery_campaign`): points execute through any campaign
executor (``serial`` or ``process``), memoise into a
:class:`~repro.campaign.store.ResultStore` when one is given, and the
figure is a query over the returned
:class:`~repro.campaign.resultset.ResultSet` rather than a loop over
live reports.

Expected shape (asserted by ``benchmarks/test_reliability.py``):

* zero fault rate ⇒ perfect recovery (the clean baseline);
* recovery degrades monotonically-ish (never *improves* materially)
  as the glitch rate grows;
* every corrupted or lost delivery is accounted for by a failed or
  corrupted transaction — faults never silently vanish deliveries;
* the bus keeps completing transactions at every rate (no lock-up).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.campaign import Campaign, Grid
from repro.core.addresses import Address
from repro.faults import FaultSpec, RandomGlitches
from repro.scenario import Burst, NodeSpec, SystemSpec

#: Default glitch-rate grid (events per second of simulated time).
DEFAULT_RATES = (0.0, 1_000.0, 4_000.0, 16_000.0)

#: ResultSet row fields surfaced by :func:`recovery_vs_glitch_rate`,
#: all drawn from the stored reliability document.
_RELIABILITY_FIELDS = (
    "recovery_rate",
    "expected_deliveries",
    "intact_deliveries",
    "corrupted_deliveries",
    "lost_deliveries",
    "failed_transactions",
    "general_errors",
    "interjections",
    "n_transactions",
    "edges_injected",
)


def reliability_spec() -> SystemSpec:
    """The three-chip topology used for the robustness figure."""
    return SystemSpec(
        name="reliability-glitch-sweep",
        clock_hz=400_000.0,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
            NodeSpec("b", short_prefix=0x3),
        ),
    )


def reliability_workload(n_messages: int = 8) -> Burst:
    """A saturating burst — the bus is busy for the whole glitch window."""
    return Burst(
        source="m",
        dest=Address.short(0x2, 5),
        payload=bytes(range(8)),
        count=n_messages,
    )


def glitch_faults(
    rate_hz: float,
    seed: int = 7,
    duration_s: float = 0.002,
    edges: int = 1,
) -> FaultSpec:
    """Seeded EMI covering the workload window.

    Single-edge glitches by default: they corrupt whatever latch edge
    they straddle without saturating interjection detectors.  At high
    rates a glitch can also start a transfer that no node drives (a
    runaway), which lasts until a receive buffer overruns or the
    watchdog fires.  On the recovery topology at 16 kHz, three of the
    four glitch seeds that faults-pool and ``test_edge_golden.py``
    fix start one: two run 8,211 cycles until every node's 1 kB
    buffer overruns (``RX_ABORT``), and one, addressed to no node,
    runs 8,236 cycles into the watchdog.  Each such trial processes
    about 71,000 events against about 4,900 for a clean one, but the
    edge engine advances a transfer's cycles in bulk, whether no node
    or one transmitter drives it, so only 1,000-1,900 of them fire
    (about 700 of a clean trial's).
    """
    return FaultSpec(
        faults=(
            RandomGlitches(
                seed=seed,
                rate_hz=rate_hz,
                duration_s=duration_s,
                wire="data",
                edges=edges,
            ),
        ),
        name=f"glitches-{rate_hz:g}hz",
    )


def recovery_campaign(
    rates: Iterable[float] = DEFAULT_RATES,
    seed: int = 7,
    n_messages: int = 8,
    spec: Optional[SystemSpec] = None,
    workload=None,
) -> Campaign:
    """The robustness figure as a campaign: one trial per glitch rate."""
    return Campaign(
        spec=spec or reliability_spec(),
        workload=workload or reliability_workload(n_messages),
        grid=Grid.product(glitch_rate_hz=list(rates)),
        faults=lambda params: glitch_faults(params["glitch_rate_hz"], seed),
        backend="auto",
        name="recovery-vs-glitch-rate",
    )


def recovery_vs_glitch_rate(
    rates: Iterable[float] = DEFAULT_RATES,
    seed: int = 7,
    n_messages: int = 8,
    spec: Optional[SystemSpec] = None,
    workload=None,
    executor: str = "serial",
    workers: Optional[int] = None,
    store=None,
) -> List[Dict]:
    """One row per glitch rate: the data behind the robustness figure.

    ``executor`` / ``workers`` / ``store`` pass straight through to
    :meth:`Campaign.run`, so the same figure can run process-parallel
    and be served from an on-disk cache on re-runs.
    """
    results = recovery_campaign(
        rates, seed, n_messages, spec, workload
    ).run(executor=executor, workers=workers, store=store)
    rows = []
    for result in results:
        reliability = result.reliability
        row = {"glitch_rate_hz": result.params["glitch_rate_hz"]}
        row.update(
            (name, reliability[name]) for name in _RELIABILITY_FIELDS
        )
        rows.append(row)
    return rows


def recovery_series(
    rates: Iterable[float] = DEFAULT_RATES, seed: int = 7
) -> Dict[str, List[Tuple[float, float]]]:
    """Chart-ready series for :func:`repro.analysis.ascii_chart`."""
    rows = recovery_vs_glitch_rate(rates, seed)
    return {
        "recovery rate": [
            (row["glitch_rate_hz"], row["recovery_rate"]) for row in rows
        ],
        "error txns / txn": [
            (
                row["glitch_rate_hz"],
                row["failed_transactions"] / max(1, row["n_transactions"]),
            )
            for row in rows
        ],
    }
