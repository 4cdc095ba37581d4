"""Campaign-server overhead: what the HTTP/scheduler front door
costs relative to running the same campaign in-process.

Two measurements, both through a real :class:`CampaignServer` on an
ephemeral port (the production topology, minus the process
boundary):

* **cold** — a submit/stream/status cycle that executes every
  trial; compared against a direct ``Campaign.run`` of the same
  document, the delta is the total service overhead (HTTP framing,
  scheduler queueing, journal writes).
* **cached** — resubmitting the identical document; every trial is
  a dedupe hit against the shared :class:`ResultStore`, so this arm
  times the service floor: request handling plus O(1) index lookups
  with no simulation at all.

The guards are counts, not wall times, which race on a shared host:
each cycle sends exactly three requests (the submit, one results
stream followed to its end — no status polling — and one status
read), the server opens or reloads no store while serving them, the
cold arm executes every trial and the cached arm none.  Both wall
times are reported as information.
"""

import time

from repro.campaign import Campaign, Grid, canonical_json
from repro.campaign.store import ResultStore
from repro.core import Address
from repro.scenario import Burst, NodeSpec, SystemSpec
from repro.serve import BackgroundServer
from repro.serve.client import ServeClient

N_TRIALS = 8


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


class RecordingClient(ServeClient):
    """A client that logs the method and path of each request it
    sends, so a test can count the round trips a cycle makes."""

    def __init__(self, port):
        super().__init__(port=port)
        self.sent = []

    def _connect(self, timeout_s):
        connection = super()._connect(timeout_s)
        request = connection.request

        def recorded(method, url, *args, **kwargs):
            self.sent.append((method, url))
            return request(method, url, *args, **kwargs)

        connection.request = recorded
        return connection


def serve_cycle(client, doc):
    """One submit/stream/status round trip: the results stream follows
    the live job to its end (EOF), then one status read.  Returns
    (wall_s, final status, streamed lines, requests sent)."""
    del client.sent[:]
    start = time.perf_counter()
    status, _ = client.submit(doc)
    lines = [
        canonical_json(record)
        for record in client.results(status.job_id)
    ]
    final = client.status(status.job_id)
    return time.perf_counter() - start, final, lines, list(client.sent)


def test_serve_overhead_bounded(tmp_path, report, monkeypatch):
    doc = campaign_doc()

    start = time.perf_counter()
    direct = Campaign.from_dict(doc, lenient=True).run(executor="serial")
    direct_s = time.perf_counter() - start
    expected = [canonical_json(r.record) for r in direct]

    with BackgroundServer(tmp_path / "serve") as live:
        # The server opened its stores at start; count any later open
        # or reload.
        loads = []
        for name in ("__init__", "refresh"):
            method = getattr(ResultStore, name)

            def counted(self, *args, _method=method, _name=name, **kw):
                loads.append(_name)
                return _method(self, *args, **kw)

            monkeypatch.setattr(ResultStore, name, counted)
        client = RecordingClient(live.server.port)
        cold_s, cold, cold_lines, cold_sent = serve_cycle(client, doc)
        cached_s, cached, cached_lines, cached_sent = serve_cycle(
            client, doc
        )

    for final, sent in ((cold, cold_sent), (cached, cached_sent)):
        job = f"/v1/campaigns/{final.job_id}"
        assert sent == [
            ("POST", "/v1/campaigns"), ("GET", f"{job}/results"),
            ("GET", job),
        ], sent
    assert loads == [], f"the server opened or reloaded a store: {loads}"
    assert cold.ok and cold.executed == N_TRIALS
    assert cached.ok and cached.cached == N_TRIALS
    # Dedupe saves work when the resubmit executes nothing; comparing
    # two wall times of tens of milliseconds would race the host.
    assert cached.executed == 0, (
        f"the all-cache resubmit executed {cached.executed} trial(s): "
        "dedupe is not saving work"
    )
    assert cold_lines == cached_lines == expected

    report(
        "Campaign-server overhead "
        f"({N_TRIALS} trials)\n"
        f"  direct in-process run   {direct_s * 1e3:8.1f} ms\n"
        f"  cold serve round trip   {cold_s * 1e3:8.1f} ms "
        f"({cold_s / direct_s:4.1f}x)\n"
        f"  cached serve round trip {cached_s * 1e3:8.1f} ms "
        f"({cached_s / direct_s:4.1f}x)"
    )
