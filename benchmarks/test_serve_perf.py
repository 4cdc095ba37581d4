"""Campaign-server overhead: what the HTTP/scheduler front door
costs relative to running the same campaign in-process.

Two measurements, both through a real :class:`CampaignServer` on an
ephemeral port (the production topology, minus the process
boundary):

* **cold** — a submit/watch/stream cycle that executes every trial;
  compared against a direct ``Campaign.run`` of the same document,
  the delta is the total service overhead (HTTP framing, scheduler
  queueing, journal writes, status polling).
* **cached** — resubmitting the identical document; every trial is
  a dedupe hit against the shared :class:`ResultStore`, so this arm
  times the service floor: request handling plus O(1) index lookups
  with no simulation at all.

Assertions are deliberately coarse (service overhead under a
generous multiple of the in-process run; the cached arm executes no
trial, a count rather than a race between two wall times) — this is
a regression tripwire for accidental per-trial rescans or busy-wait
loops, not a latency SLO.  Both wall times are reported.
"""

import time

from repro.campaign import Campaign, Grid, canonical_json
from repro.core import Address
from repro.scenario import Burst, NodeSpec, SystemSpec
from repro.serve import BackgroundServer

N_TRIALS = 8

#: Cold serve wall time may be at most this multiple of the direct
#: in-process run.  The per-trial service cost is dominated by the
#: watch poll interval, so the bound is generous: it catches
#: pathological regressions (per-request store rescans, busy waits),
#: not millisecond drift.
OVERHEAD_CEILING = 5.0


def campaign_doc():
    spec = SystemSpec(
        name="serve-bench",
        clock_hz=400_000.0,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
        ),
    )
    workload = Burst("m", Address.short(0x2, 5), bytes(range(8)), count=4)
    return Campaign(
        spec=spec,
        workload=workload,
        grid=Grid.product(
            **{"workload.count": list(range(1, N_TRIALS + 1))}
        ),
        name="serve-bench",
    ).to_dict()


def serve_cycle(client, doc):
    """One submit/watch/stream round trip; returns (wall_s, status,
    streamed lines)."""
    start = time.perf_counter()
    status, _ = client.submit(doc)
    final = client.watch(status.job_id, poll_s=0.01, timeout_s=120)
    lines = [
        canonical_json(record)
        for record in client.results(status.job_id)
    ]
    return time.perf_counter() - start, final, lines


def test_serve_overhead_bounded(tmp_path, report):
    doc = campaign_doc()

    start = time.perf_counter()
    direct = Campaign.from_dict(doc, lenient=True).run(executor="serial")
    direct_s = time.perf_counter() - start
    expected = [canonical_json(r.record) for r in direct]

    with BackgroundServer(tmp_path / "serve") as live:
        client = live.client()
        cold_s, cold, cold_lines = serve_cycle(client, doc)
        cached_s, cached, cached_lines = serve_cycle(client, doc)

    assert cold.ok and cold.executed == N_TRIALS
    assert cached.ok and cached.cached == N_TRIALS
    # Dedupe saves work when the resubmit executes nothing; comparing
    # two wall times of tens of milliseconds would race the host.
    assert cached.executed == 0, (
        f"the all-cache resubmit executed {cached.executed} trial(s): "
        "dedupe is not saving work"
    )
    assert cold_lines == cached_lines == expected

    assert cold_s <= OVERHEAD_CEILING * direct_s + 1.0, (
        f"serving the campaign took {cold_s:.3f}s vs {direct_s:.3f}s "
        f"in-process — service overhead beyond the "
        f"{OVERHEAD_CEILING:.0f}x + 1s envelope"
    )

    report(
        "Campaign-server overhead "
        f"({N_TRIALS} trials)\n"
        f"  direct in-process run   {direct_s * 1e3:8.1f} ms\n"
        f"  cold serve round trip   {cold_s * 1e3:8.1f} ms "
        f"({cold_s / direct_s:4.1f}x)\n"
        f"  cached serve round trip {cached_s * 1e3:8.1f} ms "
        f"({cached_s / direct_s:4.1f}x)"
    )
