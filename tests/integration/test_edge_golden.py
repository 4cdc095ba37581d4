"""Golden digests of the edge-accurate engine.

The edge engine is the reference the fast and batch tiers are checked
against and the only engine that runs faults, so any change to its
event core must leave every observable byte where it was.  These
SHA-256 constants pin three views of it:

* (a) the canonical campaign records of a faults-pool-shaped grid
  (the ``recovery_campaign.json`` topology, glitch rates
  0/1k/4k/16k Hz x four fixed glitch seeds, one fixed payload), each
  executed through ``run_trial_document`` exactly as a pool worker
  does;
* (b) a fault-free three-node mixed workload run with ``trace=True``:
  every recorded net transition, and the run report including
  ``events_processed``;
* (c) every line controller's ``forward_transitions`` and
  ``drive_transitions`` from that run.

A refactor that only makes the engine faster passes unchanged.  A
change that is meant to alter behaviour must say so by updating the
constants, with the reason in its change notes.
"""

import hashlib
import json
import os

import pytest

from repro.campaign import Campaign, canonical_json
from repro.campaign.trial import run_trial_document
from repro.core import Address
from repro.scenario import (
    Broadcast,
    Burst,
    Interrupt,
    NodeSpec,
    RandomTraffic,
    SystemSpec,
    run,
)

EXAMPLES = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "scenarios"
)

GLITCH_RATES_HZ = (0.0, 1000.0, 4000.0, 16000.0)
GLITCH_SEEDS = (1813382119, 827308000, 1627694679, 1911784258)
PAYLOAD_HEX = "a55a0ff0c33c9669"

FAULT_GRID_RECORDS_SHA256 = (
    "3c590e335a536d2185d4f2ed0d13ad17e3c3ddd67c22c5a9144ff367d8dafc2e"
)
MIXED_TRANSITIONS_SHA256 = (
    "57e0c993ddd8893cc4f279faff89b48de0c3c7184f6f2d1b68a5178ac82997b0"
)
MIXED_REPORT_SHA256 = (
    "1d7bdd0f9497e05236f6ff7ecbfd16f96e5034504c5a49395d67ed0a3b209e73"
)
MIXED_LINE_COUNTS_SHA256 = (
    "c300441e4c6ac001382112ba64c060493c9e57173887b6ae8dd2fc9d83e39b83"
)


def _sha256(document) -> str:
    return hashlib.sha256(canonical_json(document).encode()).hexdigest()


def _fault_grid_trials():
    with open(os.path.join(EXAMPLES, "recovery_campaign.json")) as handle:
        doc = json.load(handle)
    doc["workload"]["payload"] = PAYLOAD_HEX
    doc["grid"] = {
        "kind": "product",
        "axes": {
            "faults.faults.0.rate_hz": list(GLITCH_RATES_HZ),
            "faults.faults.0.seed": list(GLITCH_SEEDS),
        },
    }
    return Campaign.from_dict(doc).trials()


def _mixed_spec():
    return SystemSpec(
        name="edge-golden-mixed",
        clock_hz=400_000,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
            NodeSpec("g", short_prefix=0x3, power_gated=True),
        ),
    )


def _mixed_workload():
    """Arbitration races, priority, broadcast, a gated receiver that
    wakes and auto-sleeps, and an interrupt-driven null transaction."""
    return (
        Burst("m", Address.short(0x2, 5), bytes(range(6)), count=3)
        + Burst("a", Address.short(0x3, 1), b"\x5a\xa5", count=2,
                priority=True)
        + RandomTraffic(seed=11, count=10, mean_gap_s=2e-4, start_s=1e-4,
                        max_bytes=6, priority_fraction=0.3)
        + Broadcast("a", channel=0, payload=b"\x01\x02", at_s=1.5e-3)
        + Interrupt("g", at_s=2.5e-3)
    )


@pytest.fixture(scope="module")
def mixed_report():
    return run(_mixed_spec(), _mixed_workload(), backend="edge", trace=True)


def test_fault_grid_records_are_pinned():
    trials = _fault_grid_trials()
    assert len(trials) == len(GLITCH_RATES_HZ) * len(GLITCH_SEEDS)
    records = [run_trial_document(trial.to_dict())[1] for trial in trials]
    assert all(record["outcome"] == "ok" for record in records)
    assert _sha256(records) == FAULT_GRID_RECORDS_SHA256


def test_mixed_trace_is_pinned(mixed_report):
    transitions = [
        (t.time, t.net, t.value)
        for t in mixed_report.system.tracer.transitions
    ]
    assert transitions
    assert _sha256(transitions) == MIXED_TRANSITIONS_SHA256


def test_mixed_report_is_pinned(mixed_report):
    doc = mixed_report.to_dict()
    doc.pop("wall_s")
    doc.pop("wall_throughput_tps")
    assert 0 < doc["n_ok"] < doc["n_transactions"]   # null transactions
    assert _sha256(doc) == MIXED_REPORT_SHA256


def test_mixed_line_controller_counts_are_pinned(mixed_report):
    counts = [
        (node.name, ctl.forward_transitions, ctl.drive_transitions)
        for node in mixed_report.system.nodes
        for ctl in (node.data_ctl, node.clk_ctl)
    ]
    assert _sha256(counts) == MIXED_LINE_COUNTS_SHA256
