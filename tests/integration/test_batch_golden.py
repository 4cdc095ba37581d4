"""Golden digests of batch campaign records and trial keys.

A batch campaign trial's stored record is the canonical JSON of its
``trial_record``: the trial envelope around the batch run's report,
every transaction row included.  These SHA-256 constants pin those
bytes for five shapes, each run serially into a store exactly as
``Campaign.run`` does it:

* a 40-trial fig14 grid (one 2-node ring, six 8-byte posts per trial,
  one fixed payload per trial through a ``workload.payload`` axis);
* a burst to a power-gated receiver, which the batch executor
  resolves as one wake/auto-sleep limit cycle replayed per round;
* a spaced burst whose ``timeout_s`` falls midway, so the later posts
  never fire;
* priority, broadcast and interrupt traffic on one 3-node ring;
* the 100-node fleet (99 members x 102 posts = 10,098 transactions).

They also pin :attr:`Trial.key` for three fixed documents, one of
them patched through a ``system.*`` grid axis.

A change that only makes records cheaper to build passes unchanged.
A change meant to alter record bytes must update the constants and
say why in its change notes.
"""

import hashlib
import json

import pytest

from repro.campaign import Campaign, Grid, ResultStore, canonical_json
from repro.core import Address
from repro.obs import observe
from repro.scenario import (
    Broadcast,
    Burst,
    Interrupt,
    NodeSpec,
    OneShot,
    RandomTraffic,
    SystemSpec,
)

FIG14_TRIALS = 40
FLEET_NODES = 100
FLEET_BURST = 102

RECORDS_SHA256 = {
    "fig14_grid": (
        "9eec2288c98b2db628a989aa2761e76746471689ba40a762aec23f61a6e259f4"
    ),
    "gated_limit_cycle": (
        "40bd6a31d95f0fa388a342429184bb1b1fe9dd45972535fbcd38eb253f1cc4c7"
    ),
    "timeout_midway": (
        "ce26dd97faafd32020a20a584840d1aa0bc26ba75cead88f9a0428fdd742b584"
    ),
    "mixed_traffic": (
        "1b2024aff4965dcc8658eebe767590138625cde1069c20b5be2eef11e93a39fa"
    ),
    "fleet": (
        "42d3c567ecb31a566850751f3ed4f32457a8e7d58c7674c0099773ee41764af1"
    ),
}

TRIAL_KEYS = {
    "fig14_first": (
        "808e7b5ccb754771dfe3e935c8df2d086c89ce1b5b13fb3808b11aa7675311d7"
    ),
    "gated_patched": (
        "accd7d7a115c2f484da5dec163ad58a2e9371f886616d9d1319a0bcf6a915b5c"
    ),
    "mixed": (
        "d38ceb30cf19f08e84c14564ce98ee763f89075e20c8e2ed71fc78b52ed4447c"
    ),
}


def fixed_payload(i: int, size: int = 8) -> bytes:
    """A payload that depends only on ``i`` (no RNG state)."""
    return hashlib.sha256(f"batch-golden-{i}".encode()).digest()[:size]


def fig14_spec():
    return SystemSpec(
        name="fig14-burst",
        clock_hz=400_000.0,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
        ),
    )


def fig14_grid():
    return Campaign(
        spec=fig14_spec(),
        workload=Burst("m", Address.short(0x2, 5), bytes(8), count=6),
        grid=Grid.product(**{
            "workload.payload": [
                fixed_payload(i).hex() for i in range(FIG14_TRIALS)
            ],
        }),
        backend="batch",
        name="fig14-grid",
    )


def gated_spec():
    return SystemSpec(
        name="gated-receiver",
        clock_hz=400_000,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("g", short_prefix=0x2, power_gated=True),
        ),
    )


def gated_limit_cycle():
    return Campaign(
        spec=gated_spec(),
        workload=Burst("m", Address.short(0x2, 1), fixed_payload(1, 4),
                       count=24),
        backend="batch",
        name="gated-limit-cycle",
    )


def timeout_midway():
    # Posts every 1 ms; the 5.5 ms horizon lets six of the twelve
    # fire and drain, and the bus is idle when time runs out.
    return Campaign(
        spec=fig14_spec(),
        workload=Burst("m", Address.short(0x2, 5), fixed_payload(2),
                       count=12, gap_s=1e-3),
        backend="batch",
        timeout_s=5.5e-3,
        name="timeout-midway",
    )


def mixed_spec():
    return SystemSpec(
        name="batch-golden-mixed",
        clock_hz=400_000,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
            NodeSpec("g", short_prefix=0x3, power_gated=True),
        ),
    )


def mixed_traffic():
    workload = (
        Burst("m", Address.short(0x2, 5), bytes(range(6)), count=3)
        + Burst("a", Address.short(0x3, 1), b"\x5a\xa5", count=2,
                priority=True)
        + RandomTraffic(seed=11, count=10, mean_gap_s=2e-4, start_s=1e-4,
                        max_bytes=6, priority_fraction=0.3)
        + Broadcast("a", channel=0, payload=b"\x01\x02", at_s=1.5e-3)
        + Broadcast("m", channel=0, payload=b"\x03", at_s=1.6e-3,
                    priority=True)
        + Interrupt("g", at_s=2.5e-3)
        + OneShot("g", Address.short(0x1, 2), b"\x7e", at_s=2.6e-3)
    )
    return Campaign(
        spec=mixed_spec(),
        workload=workload,
        backend="batch",
        name="mixed-traffic",
    )


def fleet():
    spec = SystemSpec(
        name="fleet",
        clock_hz=400_000,
        nodes=(NodeSpec("m", short_prefix=0x1, is_mediator=True),)
        + tuple(
            NodeSpec(f"n{i}", full_prefix=0x10000 + i)
            for i in range(FLEET_NODES - 1)
        ),
    )
    workload = None
    for i in range(FLEET_NODES - 1):
        burst = Burst(
            source="m",
            dest=Address.full(0x10000 + i, 5),
            payload=fixed_payload(i, 2),
            count=FLEET_BURST,
            at_s=i * 1e-6,
        )
        workload = burst if workload is None else workload + burst
    return Campaign(spec=spec, workload=workload, backend="batch",
                    name="fleet")


SHAPES = {
    "fig14_grid": fig14_grid,
    "gated_limit_cycle": gated_limit_cycle,
    "timeout_midway": timeout_midway,
    "mixed_traffic": mixed_traffic,
    "fleet": fleet,
}


def stored_lines(campaign):
    """Run ``campaign`` serially into a fresh store; return the stored
    lines in trial order (and check each against its record)."""
    store = ResultStore.memory()
    results = campaign.run(store=store)
    assert not results.interrupted
    lines = []
    for result in results:
        assert result.record["outcome"] == "ok"
        line = store.entries()[store.keys().index(result.trial.key)]
        assert line == canonical_json(result.record)
        lines.append(line)
    return lines


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_records_are_pinned(shape):
    lines = stored_lines(SHAPES[shape]())
    assert digest(lines) == RECORDS_SHA256[shape]


def test_shapes_reach_what_they_name():
    with observe() as session:
        gated = json.loads(stored_lines(gated_limit_cycle())[0])["report"]
    assert gated["n_ok"] == 24
    assert gated["power"]["g"]["bus_wakeups"] == 24
    counters = session.metrics.to_dict()["counters"]
    assert counters["batch.steady_rounds"] == 22
    cut = json.loads(stored_lines(timeout_midway())[0])["report"]
    assert 0 < cut["n_transactions"] < 12
    mixed = json.loads(stored_lines(mixed_traffic())[0])["report"]
    assert 0 < mixed["n_ok"] < mixed["n_transactions"]
    assert any(t["tx_node"] == "g" for t in mixed["transactions"])


def test_trial_keys_are_pinned():
    first = fig14_grid().trials()[0]
    patched = Campaign(
        spec=gated_spec(),
        workload=Burst("m", Address.short(0x2, 1), b"\x01", count=2),
        grid=Grid.product(**{"system.nodes.1.power_gated": [False]}),
        backend="batch",
    ).trials()[0]
    assert patched.spec_doc["nodes"][1]["power_gated"] is False
    mixed = mixed_traffic().trials()[0]
    assert {
        "fig14_first": first.key,
        "gated_patched": patched.key,
        "mixed": mixed.key,
    } == TRIAL_KEYS
