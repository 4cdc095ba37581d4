"""Engine performance: transaction-level fast path vs edge-accurate.

Runs the Figure 14 burst-saturation workload (defined once in
``conftest.py`` and shared with the session smoke guard via the
``burst_runner`` fixture) on both simulation backends, measuring
wall-clock time, simulator events and achieved transaction
throughput.  It writes no files: ``perfbench/`` is the benchmark
record; this module only keeps the coarse speedup guard.

Acceptance is on work, not wall clock, which races a loaded host:
the fast path fires fewer than one simulator event per 20 of the edge
engine's, and from a cold cache it plans at most one round in ten (a
60-message burst plans one).  The wall-clock speedup is printed for
information; it measures ≈20x on a 2-vCPU VM (19–21x over three
runs) and shrinks whenever the edge engine alone gets faster.  The
session smoke guard in ``conftest.py`` checks the same counts.

The edge engine itself is held to the events it fires.  A transfer
that no node drives (a *runaway*, started by a glitch) or that one
transmitter drives is advanced in whole cycles, and only its decision
points fire events (arbitration, the address match, the transmitter's
last bit, control): on ``test_edge_golden.py``'s 16-trial glitch grid
at most 20,000 of its 278,679 events fire, and each of its three
runaways fires at most 10,000 of its ~71,000; the fig14 burst fires
at most 600 of its 3,581 events and the golden mixed workload at most
2,600 of its 7,839.  CI's fuzz-smoke corpus holds a fault scenario
that elides cycles.
"""

import importlib.util
import os
import time

from repro.campaign.trial import run_trial_document
from repro.diffcheck.generators import generate_scenarios
from repro.obs import observe

REPEATS = 5


def test_perf_engine_speedup(report, burst_runner):
    measure_burst = burst_runner["measure"]
    edge_wall, edge_events, txns, _ = measure_burst("edge", REPEATS)
    fast_wall, fast_events, _, _ = measure_burst("fast", REPEATS)

    speedup = edge_wall / fast_wall
    report(
        "engine perf (burst of "
        f"{burst_runner['messages']}x{burst_runner['payload_bytes']}B @ "
        f"{burst_runner['clock_hz'] / 1e3:.0f} kHz):\n"
        f"  edge: {edge_wall * 1e3:8.2f} ms  {edge_events:>6} events  "
        f"{txns / edge_wall:10.0f} txn/s (wall)\n"
        f"  fast: {fast_wall * 1e3:8.2f} ms  {fast_events:>6} events  "
        f"{txns / fast_wall:10.0f} txn/s (wall)\n"
        f"  speedup: {speedup:.0f}x wall-clock (information), "
        f"{edge_events / fast_events:.0f}x fewer events"
    )
    assert fast_events * 20 < edge_events
    _, rounds, plans = burst_runner["counts"]("fast")
    assert plans * 10 <= rounds, (
        f"the fast path planned {plans} of its {rounds} rounds"
    )


def test_fast_path_scales_with_queue_depth(report, burst_runner):
    """Event cost per transaction stays flat as the burst grows."""
    _, events_small, txns_small, _ = burst_runner["measure"]("fast")
    big = 10 * burst_runner["messages"]
    start = time.perf_counter()
    _, events_big, txns_big, _ = burst_runner["run"]("fast", n_messages=big)
    wall_big = time.perf_counter() - start
    per_txn_small = events_small / txns_small
    per_txn_big = events_big / txns_big
    report(
        f"fast-path event cost: {per_txn_small:.1f} events/txn at "
        f"{txns_small} msgs, {per_txn_big:.1f} at {big} msgs "
        f"({wall_big * 1e3:.2f} ms)"
    )
    # O(1) events per transaction, independent of queue depth.
    assert per_txn_big <= per_txn_small + 1


#: test_edge_golden.py's glitch grid: every event it processes, at most
#: how many of them fire, and at most how many one runaway fires.
GRID_EVENTS = 278_679
GRID_FIRED = 20_000
RUNAWAY_FIRED = 10_000


def _edge_golden():
    """tests/integration/test_edge_golden.py, which defines the grid."""
    path = os.path.join(
        os.path.dirname(__file__), "..", "tests", "integration",
        "test_edge_golden.py",
    )
    spec = importlib.util.spec_from_file_location("edge_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _events_elided(run_once):
    """``(result, events elided)`` of ``run_once()`` with metrics on."""
    with observe(trace=False, profile=False) as session:
        result = run_once()
    counters = session.metrics.to_dict()["counters"]
    return result, counters.get("sim.events_elided", 0)


def test_runaways_fire_only_their_decision_points(report):
    rows = []
    for trial in _edge_golden()._fault_grid_trials():
        record, elided = _events_elided(
            lambda: run_trial_document(trial.to_dict())[1]
        )
        events = record["report"]["events_processed"]
        rows.append((trial.params, events, events - elided))
    events = sum(row[1] for row in rows)
    fired = sum(row[2] for row in rows)
    runaways = [row for row in rows if row[1] > 50_000]
    report(
        f"edge glitch grid: {fired} of {events} events fired; runaways "
        + ", ".join(f"{row[2]} of {row[1]}" for row in runaways)
    )
    assert events == GRID_EVENTS
    assert fired <= GRID_FIRED
    assert len(runaways) == 3
    assert all(row[2] <= RUNAWAY_FIRED for row in runaways), runaways


#: Driven workloads: (events processed, at most how many fire).
BURST_EVENTS, BURST_FIRED = 3_581, 600
MIXED_EVENTS, MIXED_FIRED = 7_839, 2_600


def test_driven_transfers_fire_only_their_decision_points(
    report, burst_runner
):
    from repro.scenario import run

    golden = _edge_golden()
    rows = []
    for (spec, workload), (events, most) in zip(
        (
            (burst_runner["spec"](), burst_runner["workload"]()),
            (golden._mixed_spec(), golden._mixed_workload()),
        ),
        ((BURST_EVENTS, BURST_FIRED), (MIXED_EVENTS, MIXED_FIRED)),
    ):
        result, elided = _events_elided(
            lambda: run(spec, workload, backend="edge")
        )
        fired = result.events_processed - elided
        rows.append(f"{spec.name} {fired} of {result.events_processed}")
        assert result.n_transactions, spec.name
        assert result.events_processed == events, spec.name
        assert fired <= most, (spec.name, fired)
    report("edge driven transfers: " + ", ".join(rows) + " events fired")


def test_fuzz_smoke_corpus_reaches_elision():
    """CI's fuzz-smoke job (``repro fuzz --count 60 --seed 1``) runs
    the elided path: one of its fault scenarios elides cycles."""
    from repro.diffcheck.checks import _run_scenario

    corpus = generate_scenarios(60, seed=1)
    faulty = [s for s in corpus if s["faults"] is not None]
    assert faulty
    for scenario in faulty:
        _, elided = _events_elided(lambda: _run_scenario(scenario, "edge"))
        if elided:
            return
    raise AssertionError(
        f"none of the corpus's {len(faulty)} fault scenarios elides a cycle"
    )
