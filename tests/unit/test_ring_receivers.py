"""The planner's receiver index against the matching predicate.

:meth:`RingTopology.receivers` looks a round's receivers up by short
prefix, full prefix or broadcast channel instead of asking every node
:meth:`Address.matches`.  It must return exactly the positions the
predicate accepts, in ring order, on any ring and any address.
"""

import random

from repro.core import constants
from repro.core.addresses import Address
from repro.core.node import NodeConfig
from repro.core.tlm_engine import RingTopology

CHANNELS = range(4)


def random_ring(rng):
    nodes = []
    shorts = rng.sample(range(0x1, 0xF), 14)
    fulls = [rng.randrange(1 << 20) for _ in range(3)]
    for pos in range(rng.randint(2, 16)):
        short = shorts[pos] if pos < 14 and rng.random() < 0.6 else None
        full = rng.choice(fulls) if rng.random() < 0.5 else None
        if short is None and full is None and pos:
            full = rng.choice(fulls)
        nodes.append(NodeConfig(
            name=f"n{pos}",
            short_prefix=short,
            full_prefix=full,
            broadcast_channels=frozenset(
                rng.sample(CHANNELS, rng.randint(0, len(CHANNELS)))
            ),
            rx_buffer_bytes=1024,
            is_mediator=pos == 0,
            node_delay_ps=1000,
        ))
    return nodes, shorts, fulls


def random_address(rng, shorts, fulls):
    fu_id = rng.randrange(16)
    kind = rng.choice(("broadcast", "short", "full"))
    if kind == "broadcast":
        return Address.broadcast(fu_id)
    if kind == "short":
        return Address.short(rng.choice(shorts), fu_id)
    return Address.full(rng.choice(fulls + [0xFFFFF]), fu_id)


def test_receivers_equal_the_matches_scan():
    rng = random.Random(19)
    timing = constants.MBusTiming()
    for _ in range(300):
        nodes, shorts, fulls = random_ring(rng)
        topology = RingTopology(nodes, timing)
        for _ in range(20):
            address = random_address(rng, shorts, fulls)
            scan = tuple(
                pos for pos, node in enumerate(nodes)
                if address.matches(
                    node.short_prefix, node.full_prefix,
                    node.broadcast_channels,
                )
            )
            assert topology.receivers(address) == scan, (address, nodes)
