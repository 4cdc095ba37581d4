"""Scheduler unit surface: token buckets, backpressure, coalescing,
journal recovery, and dedupe accounting through a real (tiny)
campaign."""

import asyncio
import os

import pytest

from repro import obs
from repro.campaign import Campaign, Grid, ResultSet
from repro.core import Address
from repro.core.errors import ConfigurationError
from repro.scenario import Burst, NodeSpec, SystemSpec
from repro.serve.protocol import SubmitOptions, SubmitRequest
from repro.serve.scheduler import (
    QueueFull,
    RateLimited,
    Scheduler,
    TokenBucket,
)

SPEC = SystemSpec(
    name="serve-three-chip",
    clock_hz=400_000.0,
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2),
        NodeSpec("b", short_prefix=0x3),
    ),
)

BURST = Burst("m", Address.short(0x2, 5), bytes(range(4)), count=2)


def campaign_doc(name="serve-study", counts=(1, 2)):
    return Campaign(
        spec=SPEC,
        workload=BURST,
        grid=Grid.product(**{"workload.count": list(counts)}),
        name=name,
    ).to_dict()


def request(name="serve-study", client="alice", counts=(1, 2)):
    return SubmitRequest(
        campaign=campaign_doc(name, counts=counts), client=client
    )


def run_to_terminal(scheduler, job, timeout_s=30.0):
    """Drive the scheduler's loop until ``job`` is terminal."""
    async def main():
        await scheduler.start()
        for _ in range(int(timeout_s / 0.02)):
            if job.terminal:
                break
            await asyncio.sleep(0.02)
        await scheduler.stop()
    asyncio.run(main())
    assert job.terminal, job.state


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=3, rate_per_s=1.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, rate_per_s=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.now += 0.5   # 1 token back at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, rate_per_s=10.0, clock=clock)
        clock.now += 100.0
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_retry_after_names_the_gap(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=1, rate_per_s=4.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.retry_after_s == pytest.approx(0.25)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            TokenBucket(capacity=0, rate_per_s=1.0)


class TestSubmission:
    def test_rate_limited_past_burst(self):
        clock = FakeClock()
        scheduler = Scheduler(
            queue_depth=100, rate_per_s=1.0, burst=2.0, clock=clock
        )
        scheduler.submit(request(name="a", counts=(1,)))
        scheduler.submit(request(name="b", counts=(2,)))
        with pytest.raises(RateLimited) as exc:
            scheduler.submit(request(name="c", counts=(3,)))
        assert exc.value.retry_after_s > 0
        # Another client has its own bucket.
        job, created = scheduler.submit(
            request(name="c", client="bob", counts=(3,))
        )
        assert created

    def test_queue_full_backpressure(self):
        scheduler = Scheduler(queue_depth=2)
        scheduler.submit(request(name="a", counts=(1,)))
        scheduler.submit(request(name="b", counts=(2,)))
        with pytest.raises(QueueFull, match="capacity"):
            scheduler.submit(request(name="c", counts=(3,)))

    def test_identical_inflight_submission_coalesces(self):
        scheduler = Scheduler()
        job, created = scheduler.submit(request())
        again, created_again = scheduler.submit(request())
        assert created and not created_again
        assert again is job
        assert len(scheduler.jobs()) == 1
        # A different client's identical campaign is its own job.
        other, other_created = scheduler.submit(request(client="bob"))
        assert other_created and other is not job

    def test_uncompilable_campaign_rejected_not_queued(self):
        scheduler = Scheduler()
        bad = SubmitRequest(campaign={"system": {"nodes": []}})
        with pytest.raises(ConfigurationError):
            scheduler.submit(bad)
        assert scheduler.jobs() == []

    def test_job_id_is_stable_content_hash_plus_serial(self):
        scheduler = Scheduler()
        job, _ = scheduler.submit(request())
        assert job.job_id == f"{request().key}-0"

    def test_submit_hashes_no_earlier_job(self, monkeypatch):
        """Submission cost does not grow with job history: a submit
        after N jobs computes only its own request's key."""
        scheduler = Scheduler(queue_depth=100, burst=100.0)
        for i in range(12):
            job, _ = scheduler.submit(request(name=f"j{i}", counts=(1,)))
            job.state = "done"
        hashed = []
        real_key = SubmitRequest.key

        def counting_key(self):
            hashed.append(self)
            return real_key.fget(self)

        monkeypatch.setattr(SubmitRequest, "key", property(counting_key))
        fresh = request(name="j-new", counts=(1,))
        scheduler.submit(fresh)
        # Resubmitting a finished document makes a new job, still
        # without touching history.
        scheduler.submit(request(name="j0", counts=(1,)))
        assert len(hashed) == 2
        assert hashed[0] is fresh


class TestExecution:
    def test_pool_workers_capped_at_cpu_count(self, monkeypatch):
        """A submission asking for a million workers gets at most one
        per CPU.  ``Campaign.run`` is stubbed, so no process starts."""
        received = {}

        def fake_run(campaign, **kwargs):
            received.update(kwargs)
            return ResultSet([], executor=kwargs["executor"], planned=0)

        monkeypatch.setattr(Campaign, "run", fake_run)
        scheduler = Scheduler()
        huge = SubmitRequest(
            campaign=campaign_doc(),
            options=SubmitOptions(executor="process", workers=10**6),
        )
        job, _ = scheduler.submit(huge)
        run_to_terminal(scheduler, job)
        assert received["executor"] == "process"
        assert received["workers"] == (os.cpu_count() or 1)

    def test_runs_to_done_with_accounting(self):
        scheduler = Scheduler()
        job, _ = scheduler.submit(request())
        run_to_terminal(scheduler, job)
        assert job.state == "done"
        assert job.n_trials == 2
        assert job.done == 2
        assert job.executed == 2
        assert job.cached == 0
        assert job.outcomes == {"ok": 2}
        assert len(job.lines) == 2

    def test_resubmission_serves_from_shared_store(self):
        scheduler = Scheduler()
        first, _ = scheduler.submit(request())
        run_to_terminal(scheduler, first)
        with obs.observe(trace=False, profile=False) as session:
            second, created = scheduler.submit(request())
            assert created   # the first job is terminal: a new job
            run_to_terminal(scheduler, second)
        assert second.state == "done"
        assert second.cached == 2
        assert second.executed == 0
        # Per-client dedupe accounting reaches the obs registry.
        counters = session.metrics.to_dict()["counters"]
        assert counters.get("serve.dedupe_hits{client=alice}") == 2
        # And the record lines are byte-identical across the two jobs.
        assert second.lines == first.lines


    def test_jobs_decode_no_record(self, monkeypatch):
        """Outcomes come from the store's index and lines go to the
        job as stored: neither a new job nor its resubmission decodes
        a record on the server."""
        import json

        decodes = []
        real = json.loads

        def counting(text, *args, **kwargs):
            decodes.append(text)
            return real(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        scheduler = Scheduler()
        first, _ = scheduler.submit(request())
        run_to_terminal(scheduler, first)
        assert first.executed == 2 and first.outcomes == {"ok": 2}
        second, _ = scheduler.submit(request())
        run_to_terminal(scheduler, second)
        assert second.cached == 2 and second.outcomes == {"ok": 2}
        assert second.lines == first.lines
        assert decodes == []


class TestJournalRecovery:
    def test_queued_job_survives_restart(self, tmp_path):
        root = tmp_path / "serve"
        scheduler = Scheduler(root=root)
        job, _ = scheduler.submit(request())

        recovered = Scheduler(root=root)
        twin = recovered.get(job.job_id)
        assert twin.state == "queued"
        assert twin.resumptions == 1
        assert twin.request == job.request

    def test_terminal_job_survives_restart_with_results(self, tmp_path):
        root = tmp_path / "serve"
        scheduler = Scheduler(root=root)
        job, _ = scheduler.submit(request())
        run_to_terminal(scheduler, job)
        lines = list(job.lines)

        recovered = Scheduler(root=root)
        twin = recovered.get(job.job_id)
        assert twin.state == "done"
        assert twin.done == twin.n_trials == 2
        assert twin.outcomes == {"ok": 2}
        # Results materialise from the shared store by trial key.
        assert recovered.materialize(twin) == lines

    def test_submission_is_durable_before_it_returns(
        self, tmp_path, monkeypatch
    ):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        scheduler = Scheduler(root=tmp_path / "serve")
        scheduler.submit(request())
        assert len(synced) == 1   # the journal line, before the 202

    def test_job_ids_unchanged_across_journal_replay(self, tmp_path):
        """Serials continue where the journal left off, so a replayed
        scheduler hands out exactly the ids an uninterrupted one
        would."""
        root = tmp_path / "serve"
        live = Scheduler(root=root)
        straight = Scheduler()
        for scheduler in (live, straight):
            for name in ("a", "b", "a", "a"):
                job, _ = scheduler.submit(request(name=name, counts=(1,)))
                job.state = "done"   # let the next identical one in
                scheduler._journal_put(job)
        replayed = Scheduler(root=root)
        assert [j.job_id for j in replayed.jobs()] == [
            j.job_id for j in straight.jobs()
        ]
        # Still-live jobs coalesce; finished ones get the next serial.
        again, created = replayed.submit(request(name="a", counts=(1,)))
        expected, _ = straight.submit(request(name="a", counts=(1,)))
        assert created and again.job_id == expected.job_id
        assert again.job_id.endswith("-3")
        twin, coalesced = replayed.submit(request(name="a", counts=(1,)))
        assert twin is again and not coalesced

    def test_recovered_queued_job_resumes_and_completes(self, tmp_path):
        root = tmp_path / "serve"
        first = Scheduler(root=root)
        job, _ = first.submit(request())
        # Never started: the journal holds it as queued.
        recovered = Scheduler(root=root)
        twin = recovered.get(job.job_id)
        run_to_terminal(recovered, twin)
        assert twin.state == "done"
        assert twin.done == 2
