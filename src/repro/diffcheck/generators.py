"""Seeded scenario generation over topology × workload × fault space.

A *scenario* is one plain-JSON document::

    {
      "seed":     <int>,           # the generator seed it came from
      "system":   SystemSpec.to_dict(),
      "workload": Workload.to_dict(),
      "faults":   FaultSpec.to_dict() | None,
    }

Every scenario is a pure function of its seed: the generator draws
from a private :class:`random.Random`, so ``generate_scenario(7)`` is
the same document on every host, forever — the property that makes a
fuzz finding a *repro* instead of an anecdote.

Fault-free scenarios (the default ``faults_fraction`` leaves most of
the space clean) are the cross-backend differential surface: they run
on both the edge-accurate and the fast transaction-level engine.
Faulty scenarios force the edge engine (the fast path has no wires to
disturb) and feed the replay-determinism invariant instead.

The generated space deliberately mirrors the paper's experiments:
2–5 node systems (one mediator), bus clocks spanning the supported
range, one-shot / burst / periodic / seeded-random / broadcast
traffic with contending sources, and the fault primitives from
:mod:`repro.faults.primitives` at bounded rates, plus faults-pool's
16 kHz DATA glitch storm, which starts transfers that no node drives.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional

from repro.campaign.trial import canonical_json
from repro.core.addresses import Address
from repro.faults.primitives import (
    BitFlip,
    DropEdge,
    FaultSpec,
    NodePowerLoss,
    RandomGlitches,
)
from repro.scenario.spec import NodeSpec, SystemSpec
from repro.scenario.workload import (
    Broadcast,
    Burst,
    Interrupt,
    OneShot,
    Periodic,
    RandomTraffic,
    Workload,
)

#: Bus clocks the generator draws from (Hz) — brackets the paper's
#: 400 kHz operating point and the software-bitbang ceiling.
CLOCK_CHOICES = (100_000, 120_000, 200_000, 400_000, 600_000, 1_000_000)

WORKLOAD_SHAPES = (
    "one_shot",
    "burst",
    "periodic",
    "random",
    "broadcast",
    "contending",
)


def _derive(seed: int, label: str) -> random.Random:
    """An independent, stable stream per (seed, label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _random_payload(rng: random.Random, max_bytes: int = 8) -> bytes:
    return bytes(
        rng.randrange(256) for _ in range(rng.randint(1, max_bytes))
    )


def generate_system(seed: int) -> SystemSpec:
    """A 2–5 node topology: one short-addressed mediator plus members
    with randomised power gating."""
    rng = _derive(seed, "system")
    n_members = rng.randint(1, 4)
    nodes = [NodeSpec("m0", short_prefix=0x1, is_mediator=True)]
    for i in range(n_members):
        nodes.append(
            NodeSpec(
                f"n{i + 1}",
                short_prefix=0x2 + i,
                power_gated=rng.random() < 0.5,
            )
        )
    return SystemSpec(
        name=f"fuzz-{seed}",
        nodes=tuple(nodes),
        clock_hz=rng.choice(CLOCK_CHOICES),
    )


def generate_workload(seed: int, spec: SystemSpec) -> Workload:
    """Traffic over ``spec``, shaped by the seed."""
    rng = _derive(seed, "workload")
    names = [node.name for node in spec.nodes]
    prefixes = {
        node.name: node.short_prefix
        for node in spec.nodes
        if node.short_prefix is not None
    }

    def pick_dest(source: str) -> Address:
        target = rng.choice([n for n in names if n != source])
        return Address.short(prefixes[target], rng.randint(0, 15))

    shape = rng.choice(WORKLOAD_SHAPES)
    if shape == "one_shot":
        source = rng.choice(names)
        return OneShot(
            source,
            pick_dest(source),
            _random_payload(rng),
            priority=rng.random() < 0.3,
        )
    if shape == "burst":
        source = rng.choice(names)
        return Burst(
            source,
            pick_dest(source),
            _random_payload(rng),
            count=rng.randint(2, 6),
            gap_s=rng.choice([0.0, 0.001, 0.01]),
        )
    if shape == "periodic":
        source = rng.choice(names)
        return Periodic(
            source,
            pick_dest(source),
            _random_payload(rng),
            period_s=rng.choice([0.01, 0.02, 0.05]),
            count=rng.randint(2, 5),
        )
    if shape == "random":
        return RandomTraffic(
            seed=rng.randrange(2**31),
            count=rng.randint(4, 12),
            mean_gap_s=rng.choice([0.005, 0.01, 0.02]),
            min_bytes=1,
            max_bytes=rng.randint(2, 8),
            priority_fraction=rng.choice([0.0, 0.25, 0.5]),
        )
    if shape == "broadcast":
        source = rng.choice(names)
        workload = Broadcast(
            source,
            channel=0,
            payload=_random_payload(rng, max_bytes=4),
            priority=rng.random() < 0.5,
        )
        if rng.random() < 0.5 and len(names) > 1:
            waker = rng.choice([n for n in names if n != source])
            workload = workload + Interrupt(waker, at_s=0.02)
            workload = workload + OneShot(
                waker, pick_dest(waker), _random_payload(rng), at_s=0.03
            )
        return workload
    # "contending": several sources posting overlapping bursts.
    sources = rng.sample(names, min(len(names), rng.randint(2, 3)))
    workload: Optional[Workload] = None
    for source in sources:
        piece = Burst(
            source,
            pick_dest(source),
            _random_payload(rng, max_bytes=4),
            count=rng.randint(1, 3),
            at_s=rng.choice([0.0, 0.0005, 0.001]),
        )
        workload = piece if workload is None else workload + piece
    return workload


def generate_faults(seed: int, spec: SystemSpec) -> Optional[FaultSpec]:
    """A bounded fault set over ``spec`` (None for the clean draw)."""
    rng = _derive(seed, "faults")
    members = [
        node.name for node in spec.nodes if not node.is_mediator
    ]
    if not members:
        return None
    # The order decides which seeds draw which kind.  Listed first,
    # the storm is drawn by 6 of the 17 fault scenarios of CI's
    # fuzz-smoke corpus (60 scenarios at seed 1; listed last, by
    # none), which must reach the edge engine's elided cycles
    # (benchmarks/test_perf_engine.py).
    kind = rng.choice(
        ("storm", "glitches", "drop_edge", "power_loss", "bit_flip")
    )
    if kind == "glitches":
        fault = RandomGlitches(
            seed=rng.randrange(2**31),
            rate_hz=rng.choice([50.0, 200.0, 1000.0]),
            duration_s=0.02,
            wire=rng.choice(["data", "clk"]),
        )
    elif kind == "drop_edge":
        fault = DropEdge(
            node=rng.choice(members),
            at_s=rng.choice([0.001, 0.005, 0.01]),
            count=rng.randint(1, 3),
        )
    elif kind == "power_loss":
        fault = NodePowerLoss(
            node=rng.choice(members),
            at_s=rng.choice([0.001, 0.005]),
            duration_s=rng.choice([0.002, 0.01]),
        )
    elif kind == "bit_flip":
        fault = BitFlip(
            node=rng.choice(members),
            at_s=rng.choice([0.001, 0.005]),
            duration_s=0.001,
        )
    else:
        # faults-pool's DATA storm: single-edge glitches at 16 kHz for
        # 2 ms.  It often starts a transfer no node drives (a runaway),
        # which the edge engine advances in whole cycles.
        fault = RandomGlitches(
            seed=rng.randrange(2**31),
            rate_hz=16000.0,
            duration_s=0.002,
            wire="data",
        )
    return FaultSpec(faults=(fault,))


def generate_scenario(seed: int, faults_fraction: float = 0.25) -> Dict:
    """The scenario document for one seed (see module docs)."""
    rng = _derive(seed, "scenario")
    spec = generate_system(seed)
    workload = generate_workload(seed, spec)
    faults = None
    if rng.random() < faults_fraction:
        faults = generate_faults(seed, spec)
    return {
        "seed": seed,
        "system": spec.to_dict(),
        "workload": workload.to_dict(),
        "faults": None if faults is None else faults.to_dict(),
    }


def generate_scenarios(
    count: int, seed: int = 0, faults_fraction: float = 0.25
) -> List[Dict]:
    """``count`` scenarios from consecutive sub-seeds of ``seed``."""
    return [
        generate_scenario(seed * 1_000_003 + i, faults_fraction)
        for i in range(count)
    ]


def scenario_key(scenario: Dict) -> str:
    """Content address of a scenario (sans seed — two seeds that
    happen to draw the same documents are the same test)."""
    body = {k: v for k, v in scenario.items() if k != "seed"}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()[:16]
