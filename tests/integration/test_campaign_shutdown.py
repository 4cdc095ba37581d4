"""Graceful shutdown: SIGINT checkpoints; restart loses nothing.

The contract: an interrupted campaign run stops at the next trial
boundary, leaves every *completed* trial durably in the store, exits
130 through the CLI, and a restarted run executes exactly the missing
trials — no trial lost, none executed twice, cache accounting exact.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import RESULTS_FILENAME, load_campaign

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

N_TRIALS = 12

CAMPAIGN_DOC = {
    "name": "shutdown-drill",
    "system": {
        "name": "shutdown-drill",
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
        "payload": "00010203",
        "count": 4,
        "gap_s": 0.0,
    },
    # Edge backend + distinct large counts: every trial key is unique
    # and each trial takes a few hundred ms, leaving a wide interrupt
    # window (the fast backend would race the SIGINT).
    "backend": "edge",
    "grid": {"workload.count": [200 + i for i in range(N_TRIALS)]},
}


def _store_lines(store_dir) -> list:
    path = Path(store_dir) / RESULTS_FILENAME
    if not path.exists():
        return []
    return [
        line for line in path.read_text().splitlines() if line.strip()
    ]


@pytest.fixture
def drill(tmp_path):
    doc_path = tmp_path / "campaign.json"
    doc_path.write_text(json.dumps(CAMPAIGN_DOC))
    return doc_path, tmp_path / "store"


def _launch(doc_path, store_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "run",
            str(doc_path), "--store", str(store_dir), "--json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


class TestSigintCheckpointing:
    def test_interrupt_checkpoint_resume(self, drill):
        doc_path, store_dir = drill
        process = _launch(doc_path, store_dir)
        # Wait until at least two trials are durably checkpointed,
        # then interrupt mid-campaign.
        deadline = time.time() + 60
        while time.time() < deadline and len(_store_lines(store_dir)) < 2:
            if process.poll() is not None:
                pytest.fail(
                    "campaign finished before it could be interrupted: "
                    + process.stderr.read()
                )
            time.sleep(0.02)
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 130, stderr

        # The interrupted run reported a partial, interrupted set.
        document = json.loads(stdout)
        assert document["interrupted"] is True
        checkpointed = len(_store_lines(store_dir))
        assert 2 <= checkpointed < N_TRIALS
        assert document["n_trials"] == checkpointed
        assert document["executed"] == checkpointed

        # Every checkpointed line is a complete, distinct record.
        keys = [json.loads(line)["key"] for line in _store_lines(store_dir)]
        assert len(set(keys)) == checkpointed

        # Restart: exactly the missing trials execute, nothing twice.
        campaign = load_campaign(str(doc_path))
        resumed = campaign.run(executor="serial", store=str(store_dir))
        assert not resumed.interrupted
        assert len(resumed) == N_TRIALS
        assert resumed.cached == checkpointed
        assert resumed.executed == N_TRIALS - checkpointed
        final_keys = [
            json.loads(line)["key"] for line in _store_lines(store_dir)
        ]
        assert len(final_keys) == N_TRIALS          # no duplicates
        assert set(keys) <= set(final_keys)          # nothing lost
        assert resumed.failed == 0

    def test_interrupted_resultset_summary_says_so(self, drill):
        doc_path, store_dir = drill
        process = _launch(doc_path, store_dir)
        deadline = time.time() + 60
        while time.time() < deadline and len(_store_lines(store_dir)) < 1:
            if process.poll() is not None:
                pytest.fail("campaign finished before interrupt")
            time.sleep(0.02)
        process.send_signal(signal.SIGTERM)   # TERM drains identically
        stdout, _stderr = process.communicate(timeout=60)
        assert process.returncode == 130
        document = json.loads(stdout)
        assert document["interrupted"] is True


class TestStopEvent:
    def test_external_stop_event_checkpoints_in_process(self, tmp_path):
        # The programmatic face of the same contract: a stop event
        # set after the second completion halts at the next boundary.
        import threading

        campaign = load_campaign(CAMPAIGN_DOC)
        stop = threading.Event()
        seen = []
        original_put = None

        from repro.campaign import ResultStore

        store = ResultStore(tmp_path / "store")
        original_put = store.put

        def counting_put(record=None, line=None):
            seen.append(line)
            if len(seen) == 2:
                stop.set()
            return original_put(record, line)

        store.put = counting_put
        results = campaign.run(executor="serial", store=store, stop=stop)
        assert results.interrupted
        assert len(results) == 2
        assert results.planned == N_TRIALS
        assert "INTERRUPTED" in results.summary()

        # Resume without the stop event: the remaining ten run.
        resumed = campaign.run(executor="serial", store=store)
        assert resumed.cached == 2
        assert resumed.executed == N_TRIALS - 2
