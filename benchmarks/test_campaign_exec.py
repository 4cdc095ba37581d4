"""Campaign executor performance: process pool vs. serial, plus cache.

Runs the PR 5 acceptance study — a 12-trial fault-rate campaign on
the edge-accurate engine — three ways:

* serial executor (the baseline the old ``sweep()`` loop matched);
* process executor on 2+ workers (results must be identical);
* process executor again against the warm store (must execute
  nothing).

The speedup is *reported*, not asserted — process pools on a loaded
CI box can land anywhere — but identity and caching are hard
failures.  It writes no files: ``perfbench/`` is the benchmark record.
"""

import os

from repro.campaign import Campaign, Grid, ResultStore
from repro.core import Address
from repro.faults import FaultSpec, RandomGlitches
from repro.scenario import Burst, NodeSpec, SystemSpec

WORKERS = min(4, max(2, os.cpu_count() or 2))

#: 12 glitch rates, ~doubling: a realistic robustness-figure grid.
RATES = [0.0] + [500.0 * 2 ** i for i in range(11)]


def build_campaign() -> Campaign:
    spec = SystemSpec(
        name="campaign-bench",
        clock_hz=400_000.0,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
            NodeSpec("b", short_prefix=0x3),
        ),
    )
    workload = Burst(
        "m", Address.short(0x2, 5), bytes(range(8)), count=8
    )
    return Campaign(
        spec=spec,
        workload=workload,
        grid=Grid.product(rate_hz=RATES),
        faults=lambda p: FaultSpec(
            (RandomGlitches(seed=7, rate_hz=p["rate_hz"],
                            duration_s=0.002),),
        ),
        name="fault-rate-bench",
    )


def test_campaign_process_speedup_and_cache(report, tmp_path):
    campaign = build_campaign()
    n_trials = len(campaign.trials())
    assert n_trials >= 12

    serial_store = ResultStore(tmp_path / "serial")
    process_store = ResultStore(tmp_path / "process")

    serial = campaign.run(executor="serial", store=serial_store)
    parallel = campaign.run(
        executor="process", workers=WORKERS, store=process_store
    )

    # Acceptance: the executors agree record for record, byte for byte.
    assert serial.records() == parallel.records()
    assert sorted(serial_store.entries()) == sorted(process_store.entries())

    # Acceptance: the warm store serves every unchanged trial, so the
    # rerun executes nothing (its wall time is reported below, not
    # compared: a wall-clock compare races the host).
    cached = campaign.run(
        executor="process", workers=WORKERS, store=process_store
    )
    assert cached.executed == 0
    assert cached.cached == n_trials
    assert cached.records() == parallel.records()

    speedup = serial.wall_s / parallel.wall_s if parallel.wall_s else 0.0
    report(
        f"campaign exec ({n_trials} fault-rate trials, edge engine, "
        f"{os.cpu_count()} cpu(s)):\n"
        f"  serial:       {serial.wall_s * 1e3:8.1f} ms\n"
        f"  process(x{WORKERS}): {parallel.wall_s * 1e3:8.1f} ms  "
        f"({speedup:.2f}x)\n"
        f"  cached rerun: {cached.wall_s * 1e3:8.1f} ms  "
        f"({cached.cached}/{n_trials} from store)"
    )
