"""Tier-3 batch backend performance: compiled replay vs fast path.

Two guards, both against the transaction-level fast path (itself
already ~20x over the edge engine, see ``test_perf_engine.py``):

* the Figure 14 burst grid — the saturating two-node burst at three
  queue depths; and
* a fleet campaign — 100 nodes, >10k transactions, the scale the
  batch tier exists for (one compiled system, a handful of round
  templates, tens of thousands of replayed rounds).

The guard is on the mechanism the batch tier's speed comes from, not
on the wall clock, which races on a shared host: the fast path plans
every round (``tlm.plan_round_calls`` counts ``plan_round``), the
batch tier plans each round shape once and replays it.  From a cold
compile cache (``repro.batch.clear_cache()``) the batch tier must
plan at most a tenth as many rounds as the fast path on every grid
point and on the fleet, with the same answer.  The wall-clock rows
(interleaved best-of-N on the grid) are printed for information.
These are assert-only guards that write no files: ``perfbench/`` is
the benchmark record.
"""

GRID = (60, 240, 960)
GRID_REPEATS = 7
#: fast-path plan_round calls per batch-tier call, at least.
REQUIRED_PLAN_RATIO = 10

FLEET_NODES = 100
FLEET_BURST = 102      # 99 members x 102 posts = 10098 transactions
FLEET_REPEATS = 3      # batch only; one fast run is seconds of wall


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


def planned_run(spec, workload, backend):
    """``run`` from a cold compile cache with metrics on: the report
    and how many rounds ``plan_round`` planned."""
    from repro.batch import clear_cache
    from repro.obs import observe
    from repro.scenario import run

    clear_cache()
    with observe(trace=False, profile=False) as session:
        report = run(spec, workload, backend=backend)
    counters = session.metrics.to_dict()["counters"]
    return report, counters.get("tlm.plan_round_calls", 0)


def check_plan_ratio(where, fast_plans, batch_plans):
    assert batch_plans >= 1
    assert batch_plans * REQUIRED_PLAN_RATIO <= fast_plans, (
        f"batch planned {batch_plans} rounds against the fast path's "
        f"{fast_plans} {where}; it must plan at most 1/"
        f"{REQUIRED_PLAN_RATIO} as many"
    )


def test_batch_fig14_grid(report, burst_runner):
    from repro.scenario import run

    spec = burst_runner["spec"]()
    lines = []
    for n in GRID:
        workload = burst_runner["workload"](n)
        fast, fast_plans = planned_run(spec, workload, "fast")
        batch, batch_plans = planned_run(spec, workload, "batch")
        assert fast.n_ok == batch.n_ok == n
        assert batch.events_processed == fast.events_processed
        check_plan_ratio(f"at {n} messages", fast_plans, batch_plans)
        best = {"fast": None, "batch": None}
        for _ in range(GRID_REPEATS):
            for mode in ("fast", "batch"):
                sample = run(spec, workload, backend=mode)
                if best[mode] is None or sample.wall_s < best[mode].wall_s:
                    best[mode] = sample
        fast, batch = best["fast"], best["batch"]
        lines.append(
            f"  n={n:4d}: plan_round fast {fast_plans:4d}, batch "
            f"{batch_plans:2d}; wall fast {fast.wall_s * 1e3:7.2f} ms, "
            f"batch {batch.wall_s * 1e3:6.2f} ms — "
            f"{fast.wall_s / batch.wall_s:5.1f}x"
        )
    report(
        "batch vs fast on the fig14 burst grid (plan counts from a cold "
        f"cache; wall best of {GRID_REPEATS}, interleaved):\n"
        + "\n".join(lines)
    )


def test_batch_fleet_campaign(report):
    from repro.scenario import run

    spec = fleet_spec()
    workload = fleet_workload()
    n_txns = (FLEET_NODES - 1) * FLEET_BURST

    fast, fast_plans = planned_run(spec, workload, "fast")
    assert fast.n_ok == n_txns
    batch, batch_plans = planned_run(spec, workload, "batch")
    # The count only counts if the answer is the same answer.
    assert batch.transaction_signatures() == fast.transaction_signatures()
    assert batch.power == fast.power
    check_plan_ratio("on the fleet", fast_plans, batch_plans)

    batch_best = None
    for _ in range(FLEET_REPEATS):
        batch = run(spec, workload, backend="batch")
        if batch_best is None or batch.wall_s < batch_best.wall_s:
            batch_best = batch
    batch = batch_best
    report(
        f"fleet campaign ({FLEET_NODES} nodes, {n_txns} transactions):\n"
        f"  plan_round: fast {fast_plans}, batch {batch_plans}\n"
        f"  fast:  {fast.wall_s:6.2f} s  "
        f"{n_txns / fast.wall_s:10.0f} txn/s (wall, metrics on)\n"
        f"  batch: {batch.wall_s:6.2f} s  "
        f"{n_txns / batch.wall_s:10.0f} txn/s (wall)\n"
        f"  speedup: {fast.wall_s / batch.wall_s:.0f}x"
    )
