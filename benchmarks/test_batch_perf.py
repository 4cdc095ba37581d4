"""Tier-3 batch backend performance: compiled replay vs fast path.

Two guards, both against the transaction-level fast path (itself
already ~20x over the edge engine, see ``test_perf_engine.py``):

* the Figure 14 burst grid — the saturating two-node burst at three
  queue depths, interleaved best-of-N so both tiers see the same
  machine noise; and
* a fleet campaign — 100 nodes, >10k transactions, the scale the
  batch tier exists for (one compiled system, a handful of round
  templates, tens of thousands of replayed rounds).

The batch tier must clear a 10x wall-clock speedup on every grid
point and on the fleet.  These are assert-only guards that write no
files: ``perfbench/`` is the benchmark record.
"""

GRID = (60, 240, 960)
GRID_REPEATS = 7
REQUIRED_SPEEDUP = 10.0

FLEET_NODES = 100
FLEET_BURST = 102      # 99 members x 102 posts = 10098 transactions
FLEET_REPEATS = 3      # batch only; one fast run is ~10 s of wall


def fleet_spec():
    from repro.scenario import NodeSpec, SystemSpec

    members = tuple(
        NodeSpec(f"n{i}", full_prefix=0x10000 + i)
        for i in range(FLEET_NODES - 1)
    )
    return SystemSpec(
        name="fleet",
        clock_hz=400_000,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
        ) + members,
    )


def fleet_workload():
    from repro.core import Address
    from repro.scenario import Burst

    workload = None
    for i in range(FLEET_NODES - 1):
        burst = Burst(
            source="m",
            dest=Address.full(0x10000 + i, 5),
            payload=bytes([i % 256, 1]),
            count=FLEET_BURST,
            at_s=i * 1e-6,
        )
        workload = burst if workload is None else workload + burst
    return workload


def test_batch_fig14_grid(report, burst_runner):
    from repro.scenario import run

    spec = burst_runner["spec"]()
    rows = []
    lines = []
    for n in GRID:
        workload = burst_runner["workload"](n)
        run(spec, workload, backend="fast")       # warm both tiers
        run(spec, workload, backend="batch")
        best = {"fast": None, "batch": None}
        for _ in range(GRID_REPEATS):
            for mode in ("fast", "batch"):
                sample = run(spec, workload, backend=mode)
                assert sample.n_ok == n
                if best[mode] is None or sample.wall_s < best[mode].wall_s:
                    best[mode] = sample
        fast, batch = best["fast"], best["batch"]
        assert batch.events_processed == fast.events_processed
        speedup = fast.wall_s / batch.wall_s
        rows.append({
            "messages": n,
            "fast_wall_s": fast.wall_s,
            "batch_wall_s": batch.wall_s,
            "batch_txn_per_wall_s": n / batch.wall_s,
            "speedup": speedup,
        })
        lines.append(
            f"  n={n:4d}: fast {fast.wall_s * 1e3:7.2f} ms, "
            f"batch {batch.wall_s * 1e3:6.2f} ms — {speedup:5.1f}x"
        )
    report(
        "batch vs fast on the fig14 burst grid "
        f"(best of {GRID_REPEATS}, interleaved):\n" + "\n".join(lines)
    )
    for row in rows:
        assert row["speedup"] >= REQUIRED_SPEEDUP, (
            f"batch speedup {row['speedup']:.1f}x at "
            f"{row['messages']} messages is below the required "
            f"{REQUIRED_SPEEDUP:.0f}x"
        )


def test_batch_fleet_campaign(report):
    from repro.scenario import run

    spec = fleet_spec()
    workload = fleet_workload()
    n_txns = (FLEET_NODES - 1) * FLEET_BURST

    fast = run(spec, workload, backend="fast")
    assert fast.n_ok == n_txns
    batch_best = None
    for _ in range(FLEET_REPEATS):
        batch = run(spec, workload, backend="batch")
        if batch_best is None or batch.wall_s < batch_best.wall_s:
            batch_best = batch
    batch = batch_best
    # The speedup only counts if the answer is the same answer.
    assert batch.transaction_signatures() == fast.transaction_signatures()
    assert batch.power == fast.power

    speedup = fast.wall_s / batch.wall_s
    report(
        f"fleet campaign ({FLEET_NODES} nodes, {n_txns} transactions):\n"
        f"  fast:  {fast.wall_s:6.2f} s  "
        f"{n_txns / fast.wall_s:10.0f} txn/s (wall)\n"
        f"  batch: {batch.wall_s:6.2f} s  "
        f"{n_txns / batch.wall_s:10.0f} txn/s (wall)\n"
        f"  speedup: {speedup:.0f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batch fleet speedup {speedup:.1f}x below required "
        f"{REQUIRED_SPEEDUP:.0f}x"
    )
