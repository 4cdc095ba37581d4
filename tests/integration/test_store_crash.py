"""Crash consistency of the result store: resume converges everywhere.

``ResultStore.put`` flushes each record to the kernel but fsyncs only
at checkpoints and every ``SYNC_EVERY`` records, so two kinds of crash
matter:

* **power loss / kernel crash** — the unsynced tail of
  ``results.jsonl`` is gone, possibly cut mid-line.  Emulated by
  truncating a finished 40-trial store at every record boundary and
  at a seeded set of mid-line byte offsets.
* **process kill** — a SIGKILL'd campaign loses nothing that ``put``
  returned from.  Exercised by killing a serial campaign subprocess
  right after its k-th trial resolves (gated on the ``progress``
  callback, no sleeps).

Either way, a resume must execute exactly the missing trials and
leave records byte-identical to an uninterrupted run.
"""

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import RESULTS_FILENAME, load_campaign

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

N_TRIALS = 40

CAMPAIGN_DOC = {
    "name": "store-crash",
    "system": {
        "name": "store-crash",
        "clock_hz": 400000.0,
        "nodes": [
            {"name": "m", "short_prefix": 1, "is_mediator": True},
            {"name": "a", "short_prefix": 2},
        ],
    },
    "workload": {
        "kind": "burst",
        "source": "m",
        "dest": {"short_prefix": 2, "full_prefix": None, "fu_id": 5},
        "payload": "0001020304050607",
        "count": 1,
        "gap_s": 0.0,
    },
    "backend": "batch",
    "grid": {"workload.count": list(range(1, N_TRIALS + 1))},
}


def _mid_line_cuts(count=24, seed=20150613):
    """Seeded (record index, position inside the line as a fraction of
    its length) pairs; a cut never lands on a boundary."""
    rng = random.Random(seed)
    return [(rng.randrange(N_TRIALS), rng.random()) for _ in range(count)]


MID_LINE_CUTS = _mid_line_cuts()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """An uninterrupted run: the store file's bytes, line by line."""
    store_dir = tmp_path_factory.mktemp("reference")
    results = load_campaign(CAMPAIGN_DOC).run(store=str(store_dir))
    assert results.executed == N_TRIALS and results.failed == 0
    raw = (store_dir / RESULTS_FILENAME).read_bytes()
    lines = raw.splitlines(keepends=True)
    assert len(lines) == N_TRIALS
    return raw, lines


def _resume(store_dir, reference, complete):
    """Resume the campaign on ``store_dir`` holding ``complete`` whole
    records; assert it converges to the reference bytes."""
    raw, _lines = reference
    results = load_campaign(CAMPAIGN_DOC).run(store=str(store_dir))
    assert results.executed == N_TRIALS - complete
    assert results.cached == complete
    assert (store_dir / RESULTS_FILENAME).read_bytes() == raw


def _cut(tmp_path, raw, offset):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    (store_dir / RESULTS_FILENAME).write_bytes(raw[:offset])
    return store_dir


class TestPowerLossTruncation:
    @pytest.mark.parametrize("complete", range(N_TRIALS + 1))
    def test_cut_at_record_boundary(self, tmp_path, reference, complete):
        raw, lines = reference
        offset = sum(len(line) for line in lines[:complete])
        _resume(_cut(tmp_path, raw, offset), reference, complete)

    @pytest.mark.parametrize(
        "index,fraction",
        MID_LINE_CUTS,
        ids=[f"record{i}-{f:.2f}" for i, f in MID_LINE_CUTS],
    )
    def test_cut_mid_line(self, tmp_path, reference, index, fraction):
        raw, lines = reference
        start = sum(len(line) for line in lines[:index])
        # Anywhere from one byte in up to the missing newline.
        offset = start + 1 + int(fraction * (len(lines[index]) - 1))
        assert start < offset < start + len(lines[index])
        _resume(_cut(tmp_path, raw, offset), reference, index)


CHILD = """
import json, sys, threading
from repro.campaign import load_campaign

doc, store, kill_at = json.loads(sys.argv[1]), sys.argv[2], int(sys.argv[3])

def progress(done, total, result):
    if done == kill_at:
        print(done, flush=True)
        threading.Event().wait()   # parked here until SIGKILL

load_campaign(doc).run(executor="serial", store=store, progress=progress)
"""


class TestProcessKill:
    @pytest.mark.parametrize("kill_at", [1, 23, N_TRIALS - 1])
    def test_sigkill_after_k_trials(self, tmp_path, reference, kill_at):
        store_dir = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [
                sys.executable, "-c", CHILD,
                json.dumps(CAMPAIGN_DOC), str(store_dir), str(kill_at),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert child.stdout.readline().strip() == str(kill_at)
        finally:
            child.send_signal(signal.SIGKILL)
            child.communicate(timeout=60)
        assert child.returncode == -signal.SIGKILL
        # The k-th trial resolved after its put: all k are on disk.
        _resume(store_dir, reference, kill_at)
