"""Crash consistency of the campaign server's job journal.

A :class:`~repro.serve.Scheduler` journals every accepted submission,
and every terminal or interrupted job, to ``jobs/results.jsonl`` (a
:class:`~repro.campaign.ResultStore` keyed by job id; the newest line
of a job wins).  Power loss can cut that file anywhere, so this
mirrors ``test_store_crash.py``: a finished reference journal is
truncated at every record boundary and at a seeded set of mid-line
byte offsets, and a fresh scheduler is started on each cut.

On every cut the recovered scheduler must hold exactly the jobs of
the surviving whole lines, under their ids: a job whose newest line
is terminal keeps its state and ``resumptions``; any other job is
re-queued with ``resumptions + 1``.  The per-submission serials must
continue where the surviving lines leave off.  Every re-queued job
must then finish with result lines equal to an uninterrupted run of
its campaign.
"""

import asyncio
import json
import random

import pytest

from repro.campaign import Campaign, Grid
from repro.core import Address
from repro.scenario import Burst, NodeSpec, SystemSpec
from repro.serve import Scheduler
from repro.serve.protocol import SubmitRequest, TERMINAL_STATES
from repro.serve.scheduler import JOBS_DIR

JOURNAL = "results.jsonl"

SPEC = SystemSpec(
    name="journal-crash",
    clock_hz=400_000.0,
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2),
    ),
)


def request(name):
    counts = {"a": (1, 2), "b": (3,), "c": (2, 4), "d": (1,)}[name]
    campaign = Campaign(
        spec=SPEC,
        workload=Burst("m", Address.short(0x2, 5), bytes(range(4))),
        grid=Grid.product(**{"workload.count": list(counts)}),
        name=f"journal-{name}",
    )
    return SubmitRequest(campaign=campaign.to_dict(), client=name)


def drive(scheduler, jobs, timeout_s=30.0):
    """Run ``scheduler``'s worker until every job in ``jobs`` is
    terminal."""
    async def main():
        await scheduler.start()
        for _ in range(int(timeout_s / 0.01)):
            if all(job.terminal for job in jobs):
                break
            await asyncio.sleep(0.01)
        await scheduler.stop()
    asyncio.run(main())
    assert all(job.terminal for job in jobs), [j.state for j in jobs]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A journal with every kind of line: jobs submitted and left
    queued, finished, resubmitted under the next serial, and finished
    after a restart (``resumptions`` 1).  Returns its raw bytes, its
    lines, and the result lines an uninterrupted run streams for each
    campaign."""
    root = tmp_path_factory.mktemp("serve")
    first = Scheduler(root=root)
    a0, _ = first.submit(request("a"))
    b0, _ = first.submit(request("b"))
    drive(first, [a0, b0])
    a1, created = first.submit(request("a"))
    assert created and a1.job_id.endswith("-1")
    drive(first, [a1])
    c0, _ = first.submit(request("c"))
    second = Scheduler(root=root)          # recovers c0 as queued
    c0 = second.get(c0.job_id)
    drive(second, [c0])
    assert c0.resumptions == 1
    second.submit(request("d"))            # left queued
    raw = (root / JOBS_DIR / JOURNAL).read_bytes()
    lines = raw.splitlines(keepends=True)
    assert len(lines) == 9
    expected = {}
    for name in "abcd":
        straight = Scheduler()
        job, _ = straight.submit(request(name))
        drive(straight, [job])
        assert job.state == "done" and job.lines
        expected[request(name).key] = job.lines
    return raw, lines, expected


def _mid_line_cuts(count=12, seed=20150614):
    """Seeded (record index, fraction of that line) pairs; a cut
    never lands on a boundary."""
    rng = random.Random(seed)
    return [(rng.randrange(9), rng.random()) for _ in range(count)]


MID_LINE_CUTS = _mid_line_cuts()


def _recover(tmp_path, reference, offset, complete):
    raw, lines, expected = reference
    jobs_dir = tmp_path / "serve" / JOBS_DIR
    jobs_dir.mkdir(parents=True)
    (jobs_dir / JOURNAL).write_bytes(raw[:offset])
    # What the surviving whole lines say: each job's newest line, in
    # first-seen order.
    newest = {}
    for line in lines[:complete]:
        record = json.loads(line)
        newest[record["key"]] = record
    scheduler = Scheduler(root=tmp_path / "serve")
    jobs = scheduler.jobs()
    assert [job.job_id for job in jobs] == list(newest)
    serials = {}
    requeued = []
    for job in jobs:
        record = newest[job.job_id]
        key, _dash, serial = job.job_id.rpartition("-")
        assert job.request.key == key
        serials[key] = max(serials.get(key, 0), int(serial) + 1)
        if record["state"] in TERMINAL_STATES:
            assert job.state == record["state"]
            assert job.resumptions == record["resumptions"]
        else:
            assert job.state == "queued"
            assert job.resumptions == record["resumptions"] + 1
            requeued.append(job)
    assert scheduler._serials == serials
    drive(scheduler, requeued)
    for job in requeued:
        assert job.state == "done"
        assert job.lines == expected[job.request.key]
    # The finished jobs are journaled again, done, with the
    # resumption that brought them back.
    again = Scheduler(root=tmp_path / "serve")
    for job in requeued:
        twin = again.get(job.job_id)
        assert twin.state == "done"
        assert twin.resumptions == job.resumptions


class TestJournalTruncation:
    @pytest.mark.parametrize("complete", range(10))
    def test_cut_at_record_boundary(self, tmp_path, reference, complete):
        _raw, lines, _expected = reference
        offset = sum(len(line) for line in lines[:complete])
        _recover(tmp_path, reference, offset, complete)

    @pytest.mark.parametrize(
        "index,fraction",
        MID_LINE_CUTS,
        ids=[f"record{i}-{f:.2f}" for i, f in MID_LINE_CUTS],
    )
    def test_cut_mid_line(self, tmp_path, reference, index, fraction):
        _raw, lines, _expected = reference
        start = sum(len(line) for line in lines[:index])
        offset = start + 1 + int(fraction * (len(lines[index]) - 1))
        assert start < offset < start + len(lines[index])
        _recover(tmp_path, reference, offset, index)
