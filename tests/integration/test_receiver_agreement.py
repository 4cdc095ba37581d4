"""Three-way receiver agreement beyond short-prefix, channel-0 traffic.

The generated fuzz (:mod:`repro.diffcheck.generators`) builds 2-5
node rings of short-prefixed members that keep the default broadcast
channels ``{0}``, and it broadcasts on channel 0 only, so it never
checks how a tier picks the receivers of a full address or of a
channel some nodes do not listen on.  This module draws its own
scenarios: rings of 3-11 nodes mixing short-prefixed, full-prefixed
and dual-addressed members (some sharing a chip's full prefix, some
power-gated), a broadcast channel subset of 0-3 per node (the
mediator's too, empty subsets included), and bursts to full, short
and unclaimed addresses plus broadcasts on channels 0-3.  Edge, fast
and batch must agree on every scenario.

The builder is separate from the generator on purpose: the
generator's seed-to-scenario map pins the strict xfails in
``test_diffcheck.py``.
"""

import random

import pytest

from repro.core import Address
from repro.diffcheck import examine_scenario
from repro.scenario import Broadcast, Burst, Interrupt, NodeSpec, SystemSpec

SEED = 1900
N_SCENARIOS = 100
CHANNELS = (0, 1, 2, 3)
BACKENDS = ("edge", "fast", "batch")
#: A full prefix no node in any scenario holds.
UNCLAIMED = Address.full(0xFFFFF, 3)


def _channels(rng):
    return frozenset(rng.sample(CHANNELS, rng.randint(0, len(CHANNELS))))


def _payload(rng, max_bytes):
    return bytes(rng.randrange(256) for _ in range(rng.randint(1, max_bytes)))


def mixed_scenario(seed):
    """One scenario document (the fuzz harness's shape) for ``seed``."""
    rng = random.Random(seed)
    n_members = rng.randint(2, 10)
    mediator_full = 0x20000 if rng.random() < 0.3 else None
    nodes = [NodeSpec(
        "m", short_prefix=0x1, full_prefix=mediator_full,
        broadcast_channels=_channels(rng), is_mediator=True,
    )]
    full_prefixes = []
    for i in range(n_members):
        kind = rng.choice(("short", "full", "both"))
        short = 0x2 + i if kind != "full" else None
        full = None
        if kind != "short":
            if full_prefixes and rng.random() < 0.25:
                full = rng.choice(full_prefixes)   # a second such chip
            else:
                full = 0x10000 + i
                full_prefixes.append(full)
        nodes.append(NodeSpec(
            f"n{i}",
            short_prefix=short,
            full_prefix=full,
            broadcast_channels=_channels(rng),
            power_gated=rng.random() < 0.3,
        ))
    spec = SystemSpec(
        name=f"receivers-{seed}",
        nodes=tuple(nodes),
        clock_hz=rng.choice((400_000, 1_000_000)),
    )

    names = [node.name for node in nodes]

    def pick_dest(source):
        target = nodes[names.index(
            rng.choice([name for name in names if name != source])
        )]
        roll = rng.random()
        if roll < 0.1:
            return UNCLAIMED
        fu_id = rng.randint(0, 15)
        if target.full_prefix is not None and (
            target.short_prefix is None or roll < 0.55
        ):
            return Address.full(target.full_prefix, fu_id)
        return Address.short(target.short_prefix, fu_id)

    workload = None
    for _ in range(rng.randint(2, 4)):
        source = rng.choice(names)
        at_s = rng.choice((0.0, 0.0005, 0.002, 0.01))
        priority = rng.random() < 0.25
        if rng.random() < 0.4:
            piece = Broadcast(
                source, channel=rng.choice(CHANNELS),
                payload=_payload(rng, 6), at_s=at_s, priority=priority,
            )
        else:
            piece = Burst(
                source, pick_dest(source), _payload(rng, 8),
                count=rng.randint(1, 3), at_s=at_s, priority=priority,
            )
        workload = piece if workload is None else workload + piece
    gated = [node.name for node in nodes if node.power_gated]
    if gated and rng.random() < 0.3:
        workload = workload + Interrupt(rng.choice(gated), at_s=0.005)
    return {
        "seed": seed,
        "system": spec.to_dict(),
        "workload": workload.to_dict(),
        "faults": None,
    }


def mixed_scenarios(count=N_SCENARIOS, seed=SEED):
    return [mixed_scenario(seed * 1_000 + i) for i in range(count)]


def test_builder_covers_the_addressing_space():
    """The draw reaches every case the generated fuzz leaves out."""
    scenarios = mixed_scenarios()
    nodes = [node for s in scenarios for node in s["system"]["nodes"]]
    events = [
        piece for s in scenarios
        for piece in s["workload"].get("parts", [s["workload"]])
    ]
    assert {len(s["system"]["nodes"]) for s in scenarios} >= {3, 11}
    assert any(n["full_prefix"] and not n["short_prefix"] for n in nodes)
    assert any(n["full_prefix"] and n["short_prefix"] for n in nodes)
    assert any(not n["broadcast_channels"] for n in nodes)
    assert any(
        n["is_mediator"] and n["broadcast_channels"] != [0] for n in nodes
    )
    assert any(n["power_gated"] for n in nodes)
    kinds = {piece["kind"] for piece in events}
    assert {"burst", "broadcast"} <= kinds
    assert {
        piece["channel"] for piece in events if piece["kind"] == "broadcast"
    } == set(CHANNELS)
    assert any(
        piece["dest"]["full_prefix"] is not None
        for piece in events if piece["kind"] == "burst"
    )


@pytest.mark.parametrize("block", range(4))
def test_three_way_receivers_agree(block):
    per_block = N_SCENARIOS // 4
    failures = []
    for scenario in mixed_scenarios()[block * per_block:][:per_block]:
        divergences = examine_scenario(
            scenario, invariants=False, backends=BACKENDS
        )
        if divergences:
            failures.append((scenario["seed"], divergences[:3]))
    assert not failures, failures
