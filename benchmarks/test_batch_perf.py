"""Tier-3 batch backend performance: compiled replay vs fast path.

Three workloads, each run on both transaction-level tiers:

* the Figure 14 burst grid — the saturating two-node burst at three
  queue depths;
* a fleet campaign — 100 nodes, >10k transactions, the scale the
  batch tier exists for (one compiled system, a handful of round
  templates, tens of thousands of replayed rounds); and
* a fig14 payload campaign — perfbench's ``campaign-batch`` shape:
  200 trials of six 8-byte messages, one distinct payload per trial.

The guard is on the mechanism both tiers' speed comes from, not on
the wall clock, which races on a shared host: each tier resolves a
round from its template table and plans (``tlm.plan_round_calls``
counts ``plan_round``) only a round shape it has not seen.  From a
cold compile cache (``repro.batch.clear_cache()``) each tier must plan
at most one of every ten rounds it ran, on every grid point and on the
fleet, fast must plan exactly as many rounds as batch, and the two
must give the same answer.  A plan looks its receivers up in the
ring's index (``RingTopology.receivers``) rather than asking every
node, so the cold batch fleet run calls ``Address.matches`` zero
times (a scan would make 99 plans x 99 candidates = 9,801 calls).
A batch run logs its rounds in two flat arrays (starts and templates),
so a warm fleet run leaves at most ``FLEET_NODES`` GC-tracked objects
alive, not one per round (a list of ``(t0, template)`` pairs left
10,105).  A round table plans each message shape once and overlays
every other payload of it, so the cold 200-trial campaign plans at
most two rounds on batch (one: the mediator transmits, so no payload
bit moves the round's end), and the fast path plans as many on the
same 200 bursts in one run (a fast table lives as long as its system,
so a fast campaign trial starts cold).  The wall-clock rows
(interleaved best-of-N on the grid) are printed for information.  These are assert-only guards that write no files:
``perfbench/`` is the benchmark record.
"""

GRID = (60, 240, 960)
GRID_REPEATS = 7
#: Rounds each tier runs per plan_round call, at least.
ROUNDS_PER_PLAN = 10

#: Trials of the fig14 payload campaign, and the most rounds it plans.
CAMPAIGN_TRIALS = 200
CAMPAIGN_PLANS = 2

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


def campaign_payloads():
    """``CAMPAIGN_TRIALS`` distinct 8-byte payloads, as hex."""
    import random

    rng = random.Random(14)
    payloads = set()
    while len(payloads) < CAMPAIGN_TRIALS:
        payloads.add(rng.randbytes(8).hex())
    return sorted(payloads)


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


def check_plans(where, fast, fast_plans, batch, batch_plans):
    for tier, report, plans in (
        ("fast", fast, fast_plans), ("batch", batch, batch_plans)
    ):
        assert 1 <= plans * ROUNDS_PER_PLAN <= report.n_transactions, (
            f"{tier} planned {plans} of its {report.n_transactions} rounds "
            f"{where}; it must plan at most 1/{ROUNDS_PER_PLAN} of them"
        )
    assert fast_plans == batch_plans, (
        f"fast planned {fast_plans} rounds and batch {batch_plans} {where}"
    )


def tracked_after_warm_run(spec, workload):
    """How many more GC-tracked objects are alive after a warm
    ``BatchExecutor.run()`` than before it, its result kept.
    Collection is paused while counting, then restored."""
    import gc

    from repro.batch import (
        BatchExecutor,
        compile_system_cached,
        compile_workload,
    )

    csys = compile_system_cached(spec)
    cwl = compile_workload(workload.compile(spec), csys)
    BatchExecutor(csys, cwl).run()
    collecting = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = BatchExecutor(csys, cwl).run()
        tracked = len(gc.get_objects()) - before
    finally:
        if collecting:
            gc.enable()
    assert len(result.rounds) == (FLEET_NODES - 1) * FLEET_BURST
    return tracked


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
        check_plans(f"at {n} messages", fast, fast_plans, batch, batch_plans)
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


def test_batch_fleet_campaign(report, monkeypatch):
    from repro.core import Address
    from repro.scenario import run

    spec = fleet_spec()
    workload = fleet_workload()
    n_txns = (FLEET_NODES - 1) * FLEET_BURST

    fast, fast_plans = planned_run(spec, workload, "fast")
    assert fast.n_ok == n_txns
    scans = []
    matches = Address.matches

    def counted(self, *args):
        scans.append(self)
        return matches(self, *args)

    monkeypatch.setattr(Address, "matches", counted)
    batch, batch_plans = planned_run(spec, workload, "batch")
    monkeypatch.undo()
    assert not scans, (
        f"the cold batch fleet run called Address.matches {len(scans)} "
        "times; a plan must look its receivers up in the ring's index"
    )
    # The count only counts if the answer is the same answer.
    assert batch.transaction_signatures() == fast.transaction_signatures()
    assert batch.power == fast.power
    check_plans("on the fleet", fast, fast_plans, batch, batch_plans)

    batch_best = None
    for _ in range(FLEET_REPEATS):
        batch = run(spec, workload, backend="batch")
        if batch_best is None or batch.wall_s < batch_best.wall_s:
            batch_best = batch
    batch = batch_best
    tracked = tracked_after_warm_run(spec, workload)
    assert tracked <= FLEET_NODES, (
        f"a warm batch fleet run left {tracked} GC-tracked objects "
        f"alive; its round log must hold no per-round objects"
    )
    report(
        f"fleet campaign ({FLEET_NODES} nodes, {n_txns} transactions):\n"
        f"  plan_round: fast {fast_plans}, batch {batch_plans}; "
        f"Address.matches calls in the batch run: {len(scans)}; "
        f"GC-tracked objects a warm run leaves: {tracked}\n"
        f"  fast:  {fast.wall_s:6.2f} s  "
        f"{n_txns / fast.wall_s:10.0f} txn/s (wall, metrics on)\n"
        f"  batch: {batch.wall_s:6.2f} s  "
        f"{n_txns / batch.wall_s:10.0f} txn/s (wall)\n"
        f"  speedup: {fast.wall_s / batch.wall_s:.0f}x"
    )


def test_fig14_payload_campaign_plans_per_shape(report, burst_runner):
    from dataclasses import replace

    from repro.batch import clear_cache
    from repro.campaign import Campaign, Grid
    from repro.obs import observe

    spec = burst_runner["spec"]()
    burst = burst_runner["workload"]()
    payloads = campaign_payloads()
    results = {}
    plans = {}
    for backend in ("batch", "fast"):
        clear_cache()
        campaign = Campaign(
            spec=spec,
            workload=burst,
            grid=Grid.product(**{"workload.payload": payloads}),
            backend=backend,
        )
        with observe(trace=False, profile=False) as session:
            results[backend] = campaign.run()
        counters = session.metrics.to_dict()["counters"]
        plans[backend] = counters.get("tlm.plan_round_calls", 0)
    # The count only counts if the answer is the same answer.
    assert len(results["batch"]) == CAMPAIGN_TRIALS
    for b, f in zip(results["batch"], results["fast"]):
        assert b.params == f.params
        for field in ("transactions", "power", "wire_activity", "sim_time_s"):
            assert b.report[field] == f.report[field], (b.params, field)
    assert 1 <= plans["batch"] <= CAMPAIGN_PLANS, (
        f"the cold {CAMPAIGN_TRIALS}-trial fig14 campaign planned "
        f"{plans['batch']} rounds on batch; one message shape must plan "
        f"at most {CAMPAIGN_PLANS}"
    )

    # The same bursts, one per millisecond, through one fast system.
    workload = None
    for i, payload in enumerate(payloads):
        trial = replace(burst, payload=bytes.fromhex(payload), at_s=i * 1e-3)
        workload = trial if workload is None else workload + trial
    fast, fast_plans = planned_run(spec, workload, "fast")
    assert fast.n_ok == 6 * CAMPAIGN_TRIALS
    assert fast_plans == plans["batch"], (
        f"one fast system planned {fast_plans} rounds for the campaign's "
        f"bursts and the batch campaign {plans['batch']}"
    )
    report(
        f"fig14 payload campaign ({CAMPAIGN_TRIALS} trials x 6 x 8-byte "
        f"messages, one payload per trial, cold cache):\n"
        f"  plan_round: batch campaign {plans['batch']}, fast campaign "
        f"{plans['fast']} (one per trial: a fast table lives as long as "
        f"its system), one fast system over every burst {fast_plans}"
    )
