"""Round templates by message shape: the split loses nothing.

A :class:`~repro.core.tlm_engine.RoundTable` plans one round per
message shape (each request's destination, length and priority, plus
the one driven bit the plan reads at its cut) and serves another
payload of that shape as an overlay: the message, the delivered
prefix and the DATA transitions of ``wire_row`` recomputed, every
other field the plan's.  These tests pin that such an overlay equals
a fresh :func:`~repro.core.tlm_engine.plan_round` of the same key in
every dataclass field but the record builder's ``row``:

* on every key the 300 generated scenarios of ``test_round_table.py``
  (seed 11) plan;
* on targeted keys: end of message sent by the mediator and by a
  member, receive-buffer aborts at 1-5 bytes, the runaway watchdog, a
  broadcast, priority contention, gated receivers and pulsers;
* and a receiver with an ``ack_policy`` keeps its round keyed by
  content: it is planned per payload, never overlaid.

If the planner starts reading more of the payload than the cut bit,
these fail, so templates cannot be shared silently.
"""

import dataclasses
import random
from contextlib import contextmanager

import pytest

import repro.batch.executor as batch_executor
import repro.core.tlm_engine as tlm_engine
import repro.sim.fastpath as fastpath
from repro.batch import clear_cache
from repro.core import Address, MBusSystem
from repro.core.messages import Message
from repro.core.tlm_engine import RoundTable, RoundTemplate
from repro.diffcheck.generators import generate_scenarios
from repro.obs import observe
from repro.scenario import (
    Interrupt,
    NodeSpec,
    OneShot,
    PostEvent,
    SystemSpec,
    run,
)
from repro.scenario.workload import workload_from_dict

#: Every RoundTemplate field an overlay must share with a fresh plan.
COMPARED = [
    f.name for f in dataclasses.fields(RoundTemplate) if f.name != "row"
]


@contextmanager
def planned_keys():
    """Record ``(ctx, key)`` of every round either tier plans inside
    the block."""
    keys = []
    plan = tlm_engine.plan_round

    def recording(ctx, key):
        keys.append((ctx, key))
        return plan(ctx, key)

    fastpath.plan_round = batch_executor.plan_round = recording
    try:
        yield keys
    finally:
        fastpath.plan_round = batch_executor.plan_round = plan


def same_shape(key, plan, rng):
    """``key`` with every request's payload redrawn at its length,
    keeping the winner's driven bit at ``plan.cut``."""
    requests = []
    for pos, message in key.requests:
        payload = bytearray(rng.randbytes(message.n_bytes))
        bit = -1 if plan.cut is None else plan.cut - message.dest.n_bits
        if pos == plan.winner and bit >= 0:
            mask = 0x80 >> (bit % 8)
            byte = bit // 8
            payload[byte] = (
                (payload[byte] & ~mask) | (message.payload[byte] & mask)
            )
        requests.append(
            (pos, Message(message.dest, bytes(payload), message.priority))
        )
    return key._replace(requests=tuple(requests))


def resolve_after(ctx, first, key):
    """Resolve ``first`` then ``key`` in a new table: ``key``'s
    template, and the plans and shape hits that took."""
    table = RoundTable(ctx)
    with observe(trace=False, profile=False) as session:
        table.resolve(first, tlm_engine.plan_round)
        tpl = table.resolve(key, tlm_engine.plan_round)
    counters = session.metrics.to_dict()["counters"]
    return (
        tpl,
        counters.get("tlm.plan_round_calls", 0),
        counters.get("tlm.shape_hits", 0),
    )


def fields_of(tpl):
    return {name: getattr(tpl, name) for name in COMPARED}


def check_lossless(ctx, key, rng):
    """Overlay ``key`` on a plan of another payload of its shape and
    compare with a fresh plan.  Returns whether it was overlaid (False
    for a null round, or a key no other payload shares)."""
    fresh = tlm_engine._plan_round_impl(ctx, key)
    if fresh.winner is None:
        return False
    other = same_shape(key, fresh, rng)
    if other == key:
        return False
    tpl, plans, shape_hits = resolve_after(ctx, other, key)
    assert (plans, shape_hits) == (1, 1), key
    assert fields_of(tpl) == fields_of(fresh), key
    return True


def planned_by(runs):
    """``(ctx, key)`` of every round ``runs()`` plans from cold caches."""
    with planned_keys() as keys:
        runs()
    assert keys
    return keys


def batch_runs(*cases):
    def runs():
        for spec, workload in cases:
            clear_cache()
            run(spec, workload, backend="batch")
    return runs


def test_generated_scenarios_split_losslessly():
    def runs():
        for scenario in generate_scenarios(300, seed=11, faults_fraction=0):
            clear_cache()
            try:
                run(
                    SystemSpec.from_dict(scenario["system"]),
                    workload_from_dict(scenario["workload"]),
                    backend="batch",
                )
            except Exception:   # refused alike on every tier
                pass

    rng = random.Random(11)
    keys = planned_by(runs)
    overlaid = sum(check_lossless(ctx, key, rng) for ctx, key in keys)
    assert overlaid >= len(keys) // 2, (overlaid, len(keys))


def ring(*nodes):
    return SystemSpec(name="shapes", nodes=nodes)


def mab(receiver=None, **receiver_kwargs):
    """``m``, ``a``, ``b`` (short 0x1-0x3); ``receiver`` takes the
    keyword arguments."""
    return ring(*(
        NodeSpec(
            name, short_prefix=prefix, is_mediator=name == "m",
            **(receiver_kwargs if name == receiver else {}),
        )
        for name, prefix in (("m", 0x1), ("a", 0x2), ("b", 0x3))
    ))


PAYLOAD = bytes.fromhex("3a5e4842fab428f7")
TO_M, TO_A, TO_B = (Address.short(prefix, 5) for prefix in (0x1, 0x2, 0x3))

TARGETED = {
    "eom_by_mediator": batch_runs((mab(), OneShot("m", TO_A, PAYLOAD))),
    "eom_by_member": batch_runs((mab(), OneShot("a", TO_M, PAYLOAD))),
    "aborts_at_members": batch_runs(*(
        (mab("b", rx_buffer_bytes=size), OneShot("a", TO_B, PAYLOAD))
        for size in range(1, 6)
    )),
    "aborts_at_the_mediator": batch_runs(*(
        (mab("m", rx_buffer_bytes=size), OneShot("a", TO_M, PAYLOAD))
        for size in range(1, 6)
    )),
    "runaway_watchdog": batch_runs(
        (mab("b", rx_buffer_bytes=2048), OneShot("a", TO_B, bytes(1100))),
        (mab("m", rx_buffer_bytes=2048),
         OneShot("a", TO_M, bytes(range(256)) * 5)),
    ),
    "broadcast": batch_runs((
        ring(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2, broadcast_channels={0, 1}),
            NodeSpec("b", short_prefix=0x3, broadcast_channels={1}),
        ),
        OneShot("m", Address.broadcast(1), PAYLOAD)
        + OneShot("a", Address.broadcast(1), PAYLOAD[:3], at_s=1e-3),
    )),
    "priority_contention": batch_runs((
        mab(),
        [
            PostEvent(0.0, "a", TO_M, PAYLOAD),
            PostEvent(0.0, "b", TO_M, PAYLOAD[:5], priority=True),
            PostEvent(1e-3, "a", TO_B, PAYLOAD, priority=True),
            PostEvent(1e-3, "b", TO_A, PAYLOAD[:2]),
        ],
    )),
    "gated_receivers_and_pulsers": batch_runs((
        ring(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2, power_gated=True),
            NodeSpec("b", short_prefix=0x3, power_gated=True),
        ),
        OneShot("m", TO_A, PAYLOAD)
        + Interrupt("b", at_s=0.0)
        + OneShot("b", TO_A, PAYLOAD[:4], at_s=1e-3)
        + OneShot("a", TO_B, PAYLOAD, at_s=2e-3),
    )),
}


@pytest.mark.parametrize("case", sorted(TARGETED))
def test_targeted_keys_split_losslessly(case):
    rng = random.Random(case)
    keys = planned_by(TARGETED[case])
    assert any(check_lossless(ctx, key, rng) for ctx, key in keys)


def test_ack_policy_receiver_stays_keyed_by_content():
    def runs():
        system = MBusSystem(mode="fast")
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node(
            "a", short_prefix=0x2, ack_policy=lambda p: p[:1] == b"\xa5"
        )
        system.build()
        system.send("m", TO_A, PAYLOAD)

    (ctx, key), = planned_by(runs)
    fresh = tlm_engine._plan_round_impl(ctx, key)
    for first in (b"\xa5" + PAYLOAD[1:], PAYLOAD[:-1] + b"\x00"):
        other = key._replace(requests=((0, Message(TO_A, first)),))
        tpl, plans, shape_hits = resolve_after(ctx, other, key)
        assert (plans, shape_hits) == (2, 0)
        assert fields_of(tpl) == fields_of(fresh)
