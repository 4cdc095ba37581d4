#!/usr/bin/env python3
"""Simulation as a service: the campaign server end to end.

``repro.serve`` turns the campaign layer into a multi-tenant HTTP
service: clients POST campaign documents, the server executes them
through the shared content-addressed ResultStore (so identical work
— across requests, clients and restarts — is deduped to near-free
cache hits), and results stream back as JSONL while trials are still
running.  This example hosts a server in-process with
``repro.serve.BackgroundServer`` (a background thread holding its own
asyncio loop — the same topology the tests use) and walks the client
lifecycle:

1. submit — a campaign JSON document becomes a job with a stable,
   content-hashed id;
2. stream — ``GET /v1/campaigns/{id}/results`` delivers each record
   the moment its trial resolves;
3. watch — poll the status document to a terminal state;
4. resubmit — the same document again is served entirely from the
   dedupe cache (0 executed);
5. metrics — the ``repro.obs`` counters the server kept.

Against a real server the client half is just:

    python -m repro serve --root /tmp/serve-state &
    python -m repro campaign submit CAMPAIGN.json --watch \\
        --executor process --workers 2

Run:  python examples/serve_client.py
"""

import json
import os
import tempfile

from repro import obs
from repro.serve import BackgroundServer

SCENARIO = os.path.join(
    os.path.dirname(__file__), "scenarios", "recovery_campaign.json"
)


def main() -> None:
    with open(SCENARIO) as handle:
        document = json.load(handle)

    with obs.observe(trace=False, profile=False) as session, \
            tempfile.TemporaryDirectory() as root, \
            BackgroundServer(root) as live:
        client = live.client()
        print(f"=== server up at {live.server.address} ===")
        print(f"  healthz: {client.healthz()}")

        print("\n=== 1. submit a campaign document ===")
        status, created = client.submit(document, client="alice")
        print(f"  job {status.job_id} (created={created}, "
              f"{status.n_trials} trials)")

        print("\n=== 2. results stream as trials resolve ===")
        for record in client.results(status.job_id):
            rate = record["params"]["faults.faults.0.rate_hz"]
            recovery = record["report"]["reliability"]["recovery_rate"]
            print(f"  glitch_rate_hz={rate:>7g}  "
                  f"recovery={recovery:.1%}  key={record['key'][:12]}…")

        print("\n=== 3. watch to the terminal state ===")
        final = client.watch(status.job_id, poll_s=0.05, timeout_s=120)
        print(f"  {final.summary()}")
        assert final.ok

        print("\n=== 4. resubmit: served from the dedupe cache ===")
        again, _ = client.submit(document, client="alice")
        refinal = client.watch(again.job_id, poll_s=0.05, timeout_s=120)
        print(f"  {refinal.summary()}")
        assert refinal.executed == 0, "resubmission must be cache-served"
        assert refinal.cached == refinal.n_trials

        print("\n=== 5. the server's own metrics ===")
        counters = session.metrics.to_dict()["counters"]
        for name in sorted(counters):
            if name.startswith("serve."):
                print(f"  {name} = {counters[name]}")
        dedupe = counters.get("serve.dedupe_hits{client=alice}", 0)
        assert dedupe >= refinal.n_trials

    print("\nserver stopped; state journaled for restart survival")


if __name__ == "__main__":
    main()
