"""One round resolver for the fast path and the batch tier.

Both transaction-level tiers resolve each bus round from a
:class:`~repro.core.tlm_engine.RoundTable`: a round planned once at
``t0 = 0``, keyed by the requests (with their messages), the
non-default power and interrupt states and the null-pulse raisers,
and replayed at every later round with the same key.  These tests pin
what that sharing must not change:

* ring settings outside the key (the arbitration anchor, the runaway
  watchdog) changed mid-run on the fast path still give the edge
  engine's answers;
* a payload-dependent ACK policy still decides per payload;
* a caller's ``bytearray`` is copied at post time on every backend;
* the fast table stays bounded on a stream of one-off payloads;
* from a cold cache, fast plans exactly as many rounds as batch.
"""

import pytest

from repro.batch import clear_cache
from repro.core import Address, MBusSystem
from repro.core.messages import ControlCode
from repro.core.tlm_engine import MAX_TEMPLATES
from repro.diffcheck.generators import generate_scenarios
from repro.obs import observe
from repro.scenario import NodeSpec, PostEvent, SystemSpec, run
from repro.scenario.workload import workload_from_dict

TO_MEDIATOR = Address.short(0x1, 5)


def outcomes(system):
    """Every exactly-comparable field of a system's transactions."""
    return [
        (
            t.ok, t.control, t.tx_node, t.clock_cycles, t.general_error,
            t.error_reason,
            None if t.message is None else t.message.payload,
            sorted((name, rx.payload, rx.control)
                   for name, rx in t.rx_deliveries),
        )
        for t in system.transactions
    ]


def on_both(build, drive):
    """``drive`` each mode's built system; the fast and edge outcomes."""
    results = {}
    for mode in ("edge", "fast"):
        system = MBusSystem(mode=mode)
        build(system)
        system.build()
        drive(system)
        results[mode] = outcomes(system)
    return results["fast"], results["edge"]


def test_mid_run_anchor_changes_match_edge():
    def build(system):
        system.add_mediator_node("m", short_prefix=0x1)
        for prefix, name in enumerate("abc", start=2):
            system.add_node(name, short_prefix=prefix)

    def drive(system):
        for anchor in (None, "b", None, "c"):
            system.set_arbitration_anchor(anchor)
            system.post("a", TO_MEDIATOR, b"\x0a")
            system.post("c", TO_MEDIATOR, b"\x0c")
            system.run_until_idle()

    fast, edge = on_both(build, drive)
    assert fast == edge
    # The same contended round, won by the node nearest downstream of
    # each break point.
    assert [row[2] for row in fast] == ["a", "c", "c", "a"] * 2


def test_mid_run_watchdog_changes_match_edge():
    def build(system):
        system.add_mediator_node("m", short_prefix=0x1, rx_buffer_bytes=2048)
        system.add_node("a", short_prefix=0x2)

    def drive(system):
        for limit in (1024, 2048):
            system.set_max_message_bytes(limit)
            system.send("a", TO_MEDIATOR, bytes(1100))

    fast, edge = on_both(build, drive)
    assert fast == edge
    runaway, delivered = fast
    assert runaway[4:6] == (True, "runaway-message")
    assert delivered[0] is True


def test_payload_dependent_ack_policy_matches_edge():
    def build(system):
        system.add_mediator_node("m", short_prefix=0x1)
        system.add_node(
            "a", short_prefix=0x2, ack_policy=lambda p: p[:1] == b"\xa5"
        )

    def drive(system):
        for payload in (b"\xa5\x01", b"\x00\x01") * 3:
            system.send("m", Address.short(0x2, 5), payload)

    fast, edge = on_both(build, drive)
    assert fast == edge
    assert [row[1] for row in fast] == [
        ControlCode.EOM_ACK, ControlCode.EOM_NAK
    ] * 3


@pytest.mark.parametrize("mode", ["edge", "fast"])
def test_bytearray_payload_is_copied_at_post(mode):
    system = MBusSystem(mode=mode)
    system.add_mediator_node("m", short_prefix=0x1)
    system.add_node("a", short_prefix=0x2)
    dest = Address.short(0x2, 5)
    buf = bytearray(b"\x01\x02")
    system.post("m", dest, buf)
    buf[0] = 0xEE           # posted, not yet on the wire
    system.run_until_idle()
    result = system.send("m", dest, buf)
    buf[0] = 0xFF           # sent and delivered
    payloads = [t.message.payload for t in system.transactions]
    assert payloads == [b"\x01\x02", b"\xee\x02"]
    assert result.message.payload == b"\xee\x02"
    inbox = [m.payload for m in system.node("a").inbox]
    assert inbox == payloads
    assert all(type(payload) is bytes for payload in payloads + inbox)


def test_fast_table_stays_bounded_and_matches_batch():
    spec = SystemSpec(
        name="one-off-payloads",
        clock_hz=400_000,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
        ),
    )
    events = [
        PostEvent(0.0, "m", Address.short(0x2, 5), i.to_bytes(2, "big"))
        for i in range(2 * MAX_TEMPLATES)
    ]
    sizes = []

    def watch(system):
        backend = system.node("m").fast_backend
        system.on_transaction_complete.append(
            lambda _result: sizes.append(len(backend.templates))
        )

    fast = run(spec, events, backend="fast", setup=watch)
    batch = run(spec, events, backend="batch")
    assert len(sizes) == 2 * MAX_TEMPLATES
    assert max(sizes) == MAX_TEMPLATES
    assert fast.transactions == batch.transactions
    assert fast.power == batch.power
    assert fast.wire_activity == batch.wire_activity


def planned(spec, workload, backend):
    """``plan_round`` calls of one run from a cold cache (or the
    error it raised)."""
    clear_cache()
    with observe(trace=False, profile=False) as session:
        try:
            run(spec, workload, backend=backend)
        except Exception as exc:   # both tiers must refuse alike
            return type(exc).__name__
    counters = session.metrics.to_dict()["counters"]
    return counters.get("tlm.plan_round_calls", 0)


def test_fast_plans_as_many_rounds_as_batch():
    counts = []
    for scenario in generate_scenarios(300, seed=11, faults_fraction=0):
        spec = SystemSpec.from_dict(scenario["system"])
        workload = workload_from_dict(scenario["workload"])
        fast = planned(spec, workload, "fast")
        assert fast == planned(spec, workload, "batch"), scenario["seed"]
        counts.append(fast)
    assert sum(isinstance(c, int) for c in counts) >= 250
