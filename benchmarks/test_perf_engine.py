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
"""

import time

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
