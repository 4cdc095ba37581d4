"""Campaign server integration: the HTTP surface end to end.

Each test runs a real :class:`CampaignServer` on an ephemeral port
(a :class:`BackgroundServer`: a background thread holding its own
asyncio loop) and drives it with the blocking :class:`ServeClient` —
exactly the production topology, minus the process boundary.  The
restart test covers restart survival: a server stopped mid-campaign
checkpoints, a restarted server resumes the journaled job at the
trial boundary, and the final streamed results are byte-identical to
a local ``campaign run`` of the same document.
"""

import threading
import time

import pytest

import repro.campaign.executors
from repro import obs
from repro.campaign import Campaign, Grid, ResultStore, canonical_json
from repro.core import Address
from repro.scenario import Burst, NodeSpec, SystemSpec
from repro.serve import (
    BackgroundServer,
    ServeError,
    SubmitOptions,
)

SPEC = SystemSpec(
    name="serve-int-three-chip",
    clock_hz=400_000.0,
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2),
        NodeSpec("b", short_prefix=0x3),
    ),
)

BURST = Burst("m", Address.short(0x2, 5), bytes(range(4)), count=2)


def campaign_doc(name="serve-int", counts=(1, 2)):
    return Campaign(
        spec=SPEC,
        workload=BURST,
        grid=Grid.product(**{"workload.count": list(counts)}),
        name=name,
    ).to_dict()


class TrialGate:
    """Holds a job mid-run on purpose: the serial executor's
    ``execute_trial`` is wrapped so that every trial after the first
    ``free`` ones blocks until :meth:`release` (or the end of the
    ``with`` block).  ``entered`` is set once a trial reaches the gate,
    i.e. once the job is running."""

    def __init__(self, monkeypatch, free=0):
        self.entered = threading.Event()
        self._released = threading.Event()
        self._free = free
        real = repro.campaign.executors.execute_trial

        def gated(*args, **kwargs):
            if self._free > 0:
                self._free -= 1
            else:
                self.entered.set()
                self._released.wait(60)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            repro.campaign.executors, "execute_trial", gated
        )

    def release(self):
        self._released.set()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.release()


class TestHTTPSurface:
    def test_healthz_and_unknown_routes(self):
        with BackgroundServer() as live:
            client = live.client()
            health = client.healthz()
            assert health["ok"] is True
            assert health["jobs"] == {}
            with pytest.raises(ServeError) as exc:
                client._request("GET", "/v1/nope")
            assert exc.value.status == 404
            with pytest.raises(ServeError) as exc:
                client._request("POST", "/v1/healthz", body={})
            assert exc.value.status == 405

    def test_submit_watch_results_and_listing(self):
        with BackgroundServer() as live:
            client = live.client()
            status, created = client.submit(
                campaign_doc(), client="alice"
            )
            assert created
            assert status.state in ("queued", "running")
            final = client.watch(status.job_id, poll_s=0.02, timeout_s=60)
            assert final.ok
            assert final.done == final.n_trials == 2
            records = list(client.results(status.job_id))
            assert len(records) == 2
            assert all("key" in record for record in records)
            listed = client.jobs()
            assert [j.job_id for j in listed] == [status.job_id]

    def test_submit_bad_document_is_400(self):
        with BackgroundServer() as live:
            client = live.client()
            with pytest.raises(ServeError) as exc:
                client.submit({"system": {"nodes": []}})
            assert exc.value.status == 400
            with pytest.raises(ServeError) as exc:
                client._request("POST", "/v1/campaigns", body={"x": 1})
            assert exc.value.status == 400
            # Negative or non-finite time budgets, in the campaign
            # document and in the options.
            for field in ("timeout_s", "wall_timeout_s"):
                with pytest.raises(ServeError) as exc:
                    client.submit({**campaign_doc(), field: -1.0})
                assert exc.value.status == 400
                assert field in str(exc.value)
            with pytest.raises(ServeError) as exc:
                client._request("POST", "/v1/campaigns", body={
                    "campaign": campaign_doc(),
                    "options": {"wall_timeout_s": float("inf")},
                })
            assert exc.value.status == 400
            assert "options.wall_timeout_s" in str(exc.value)
            # Option types are checked at submit, not in the pool.
            for options in ({"workers": "2"}, {"retry_failed": "false"}):
                with pytest.raises(ServeError) as exc:
                    client._request("POST", "/v1/campaigns", body={
                        "campaign": campaign_doc(),
                        "options": {"executor": "process", **options},
                    })
                assert exc.value.status == 400
                assert f"options.{next(iter(options))}" in str(exc.value)
            assert live.scheduler.jobs() == []

    def test_unknown_job_is_404(self):
        with BackgroundServer() as live:
            client = live.client()
            with pytest.raises(ServeError) as exc:
                client.status("no-such-job")
            assert exc.value.status == 404
            with pytest.raises(ServeError) as exc:
                list(client.results("no-such-job"))
            assert exc.value.status == 404

    def test_rate_limit_answers_429_with_retry_after(self):
        with BackgroundServer(rate_per_s=0.1, burst=2.0) as live:
            client = live.client()
            client.submit(campaign_doc("a", counts=(1,)), client="alice")
            client.submit(campaign_doc("b", counts=(2,)), client="alice")
            with pytest.raises(ServeError) as exc:
                client.submit(
                    campaign_doc("c", counts=(3,)), client="alice"
                )
            assert exc.value.status == 429
            assert exc.value.retry_after_s > 0
            # Other clients are unaffected.
            status, _ = client.submit(
                campaign_doc("c", counts=(3,)), client="bob"
            )
            assert status.client == "bob"

    def test_full_queue_answers_503(self, monkeypatch):
        gate = TrialGate(monkeypatch)
        with BackgroundServer(queue_depth=1) as live, gate:
            client = live.client()
            # A held job occupies the worker; one more fills the queue.
            client.submit(
                campaign_doc("long", counts=tuple(range(1, 9))),
                client="alice",
            )
            assert gate.entered.wait(30), "job never started"
            client.submit(campaign_doc("queued", counts=(1,)))
            with pytest.raises(ServeError) as exc:
                client.submit(campaign_doc("rejected", counts=(2,)))
            assert exc.value.status == 503

    def test_metrics_route_reports_request_counters(self):
        with obs.observe(trace=False, profile=False):
            with BackgroundServer() as live:
                client = live.client()
                client.healthz()
                status, _ = client.submit(campaign_doc(), client="alice")
                client.watch(status.job_id, poll_s=0.02, timeout_s=60)
                doc = client.metrics()
        assert doc["enabled"] is True
        counters = doc["metrics"]["counters"]
        assert counters.get(
            "serve.requests{route=GET /v1/healthz,status=200}"
        ) == 1
        assert counters.get(
            "serve.requests{route=POST /v1/campaigns,status=202}"
        ) == 1
        assert counters.get("serve.submits{client=alice}") == 1
        gauges = doc["metrics"]["gauges"]
        assert "serve.queue_depth" in gauges


class TestStreaming:
    def test_results_stream_while_running(self, monkeypatch):
        """The JSONL stream delivers records before the job is done:
        the first line must arrive while the job is still live (held
        at its second trial until the line is seen)."""
        gate = TrialGate(monkeypatch, free=1)
        with BackgroundServer() as live, gate:
            client = live.client()
            status, _ = client.submit(
                campaign_doc("stream", counts=tuple(range(1, 7)))
            )
            seen_live = False
            records = []
            for record in client.results(status.job_id):
                records.append(record)
                if not client.status(status.job_id).terminal:
                    seen_live = True
                gate.release()
            assert len(records) == 6
            assert seen_live, "stream only yielded after completion"


class TestDedupe:
    def test_resubmission_is_served_from_cache(self, tmp_path):
        doc = campaign_doc("dedupe", counts=(1, 2, 3))
        with BackgroundServer(root=tmp_path / "serve") as live:
            client = live.client()
            first, _ = client.submit(doc, client="alice")
            final = client.watch(first.job_id, poll_s=0.02, timeout_s=60)
            assert final.executed == 3
            second, created = client.submit(doc, client="alice")
            assert created   # terminal jobs re-run as new jobs...
            refinal = client.watch(
                second.job_id, poll_s=0.02, timeout_s=60
            )
            # ...but every trial is a dedupe hit on the shared store.
            assert refinal.cached == 3
            assert refinal.executed == 0
            # Another client's identical campaign also hits the store.
            other, _ = client.submit(doc, client="bob")
            otherfinal = client.watch(
                other.job_id, poll_s=0.02, timeout_s=60
            )
            assert otherfinal.cached == 3


class TestRestartSurvival:
    def test_stop_midway_restart_resumes_byte_identical(self, tmp_path):
        """The acceptance bar: stop a server mid-campaign, restart it
        on the same root, and the job resumes at the trial boundary
        and converges — with results byte-identical to a local
        ``campaign run`` of the same document."""
        # 8 trials of a few hundred transactions each (tens of ms per
        # trial): slow enough that the stop below lands mid-campaign,
        # fast enough for CI.
        counts = tuple(range(500, 580, 10))
        doc = campaign_doc("restart", counts=counts)
        root = tmp_path / "serve"

        with BackgroundServer(root=root) as live:
            client = live.client()
            status, _ = client.submit(doc, client="alice")
            job_id = status.job_id
            deadline = time.monotonic() + 60
            while client.status(job_id).done < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        # Context exit = graceful stop: checkpoint + journal.

        with BackgroundServer(root=root) as live:
            client = live.client()
            recovered = client.status(job_id)
            if recovered.terminal:
                # The first run won the race and finished before the
                # stop landed; the restart still recovered the job.
                final = recovered
            else:
                assert recovered.resumptions >= 1
                final = client.watch(job_id, poll_s=0.02, timeout_s=120)
            assert final.ok
            assert final.done == len(counts)
            served = [
                canonical_json(record)
                for record in client.results(job_id)
            ]
            if recovered.resumptions:
                # Resumed: the completed prefix came from the store.
                assert final.cached >= 1

        local = ResultStore(tmp_path / "local")
        results = Campaign.from_dict(doc, lenient=True).run(
            executor="serial", store=local
        )
        assert len(results) == len(counts)
        expected = [canonical_json(r.record) for r in results]
        assert served == expected

        # And the server's own store holds the same bytes.
        server_store = ResultStore(root / "results", readonly=True)
        assert sorted(server_store.entries()) == sorted(expected)


class TestSubmitOutput:
    """``campaign submit --output`` writes each streamed line as the
    server stored it: an ok record's line is never decoded, and a line
    that does not parse still fails the command."""

    def test_output_is_the_server_store_lines(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        from repro.__main__ import main
        from repro.campaign import load_campaign

        doc = tmp_path / "campaign.json"
        doc.write_text(json.dumps(campaign_doc("output", counts=(1, 2, 3))))
        out = tmp_path / "results.jsonl"
        decoded = []
        real = json.loads

        def counting(text, *args, **kwargs):
            decoded.append(text)
            return real(text, *args, **kwargs)

        with BackgroundServer(root=tmp_path / "serve") as live:
            monkeypatch.setattr(json, "loads", counting)
            code = main([
                "campaign", "submit", str(doc),
                "--server", f":{live.server.port}",
                "--watch", "--output", str(out), "--json",
            ])
            monkeypatch.undo()
            store = live.scheduler.results_store
            lines = [
                store.line(trial.key)
                for trial in load_campaign(str(doc)).trials()
            ]
        capsys.readouterr()
        assert code == 0
        assert len(lines) == 3 and None not in lines
        assert out.read_bytes() == "".join(
            line + "\n" for line in lines
        ).encode()
        assert not set(lines) & set(decoded)

    def test_unparsable_line_still_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.__main__ import main
        from repro.serve import ServeClient
        from repro.serve.cli import _stream_results

        with BackgroundServer() as live:
            client = live.client()
            status, _ = client.submit(campaign_doc("garbled"))
            client.watch(status.job_id, poll_s=0.02, timeout_s=60)
            stored = list(client.result_lines(status.job_id))
            failed = '{"key": "k", "outcome": "error"}'

            def garbled(self, job_id, timeout_s=None):
                yield stored[0]
                yield failed
                yield "{not json"

            monkeypatch.setattr(ServeClient, "result_lines", garbled)
            out = tmp_path / "results.jsonl"
            with open(out, "w") as handle:
                with pytest.raises(ServeError, match="unparsable"):
                    _stream_results(client, status.job_id, handle)
            # Lines before the bad one were written as they came.
            assert out.read_text() == stored[0] + "\n" + failed + "\n"
            code = main([
                "campaign", "watch", status.job_id,
                "--server", f":{live.server.port}",
                "--output", str(out),
            ])
        assert code == 2
        assert "unparsable result line" in capsys.readouterr().err
