"""Tier-3 batch backend integration: three-way equivalence and policy.

The acceptance bar for the compiled tier: ``backend="batch"`` must
produce byte-identical transaction signatures, delivery sets and wake
counts against both event-loop backends for every scenario shape in
``test_scenario_runner.SHAPES``, survive a 60-scenario fixed-seed
three-way fuzz with zero divergence, refuse the capabilities it does
not implement (setup hooks, fault injection, tracing) with clear
errors, and slot into :mod:`repro.campaign` unchanged.
"""

import dataclasses
import random

import pytest

from repro.batch import (
    BatchExecutor,
    cache_stats,
    clear_cache,
    compile_system_cached,
    compile_workload,
)
from repro.core import Address, constants
from repro.core.errors import BusLockedError, ConfigurationError
from repro.core.messages import ControlCode
from repro.scenario import (
    Burst,
    Interrupt,
    NodeSpec,
    OneShot,
    SystemSpec,
    run,
)

from tests.integration.test_scenario_runner import SHAPES


def staggered_fleet(members=8, posts=5):
    """A small fleet: the mediator bursts to each full-prefix member in
    turn, one microsecond apart, so its queue holds a run of rounds
    per member (the benchmark fleet's shape, scaled down)."""
    spec = SystemSpec(
        name="staggered-fleet",
        clock_hz=400_000,
        nodes=(NodeSpec("m", short_prefix=0x1, is_mediator=True),)
        + tuple(
            NodeSpec(f"n{i}", full_prefix=0x10000 + i)
            for i in range(members)
        ),
    )
    workload = Burst("m", Address.full(0x10000, 5), b"\x00\x01", count=posts)
    for i in range(1, members):
        workload = workload + Burst(
            "m", Address.full(0x10000 + i, 5), bytes([i, i + 1]),
            count=posts, at_s=i * 1e-6,
        )
    return spec, workload


BATCH_SHAPES = {**SHAPES, "staggered_fleet": staggered_fleet()}


def fields_of(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def timing_free_doc(report):
    """``to_dict()`` without the backend name and host wall times."""
    return {
        key: value for key, value in report.to_dict().items()
        if key != "backend" and not key.startswith("wall_")
    }


def run_matrix(spec, workload, **kwargs):
    return {
        backend: run(spec, workload, backend=backend, **kwargs)
        for backend in ("edge", "fast", "batch")
    }


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_identical_results_across_all_tiers(self, shape):
        spec, workload = SHAPES[shape]
        reports = run_matrix(spec, workload)
        edge = reports["edge"]
        assert edge.n_transactions > 0
        for backend in ("fast", "batch"):
            other = reports[backend]
            assert (
                edge.transaction_signatures()
                == other.transaction_signatures()
            ), backend
            assert edge.delivery_set() == other.delivery_set(), backend
            for node in spec.node_names:
                for counter in ("bus_wakeups", "layer_wakeups"):
                    assert (
                        edge.power[node][counter]
                        == other.power[node][counter]
                    ), (backend, node, counter)

    @pytest.mark.parametrize("shape", sorted(BATCH_SHAPES))
    def test_batch_matches_fast_exactly(self, shape):
        """Beyond the cross-tier contract, batch replays the fast
        path's event loop perfectly: every field of every transaction
        and delivery (times included), the same wire totals, simulated
        end time and event count, and the same report document."""
        spec, workload = BATCH_SHAPES[shape]
        fast = run(spec, workload, backend="fast")
        batch = run(spec, workload, backend="batch")
        assert batch.wire_activity == fast.wire_activity
        assert batch.sim_time_s == fast.sim_time_s
        assert batch.events_processed == fast.events_processed
        assert batch.power == fast.power
        assert len(batch.transactions) == len(fast.transactions)
        for f, b in zip(fast.transactions, batch.transactions):
            f_fields, b_fields = fields_of(f), fields_of(b)
            f_rx = f_fields.pop("rx_deliveries")
            b_rx = b_fields.pop("rx_deliveries")
            assert b_fields == f_fields, f.index
            assert [(name, fields_of(m)) for name, m in b_rx] == [
                (name, fields_of(m)) for name, m in f_rx
            ], f.index
        assert timing_free_doc(batch) == timing_free_doc(fast)

    def test_timeout_semantics_match_fast(self):
        spec, workload = SHAPES["burst"]
        # A timeout far too short to drain the burst must lock the
        # bus identically on both tiers.
        with pytest.raises(BusLockedError):
            run(spec, workload, backend="fast", timeout_s=1e-9)
        with pytest.raises(BusLockedError):
            run(spec, workload, backend="batch", timeout_s=1e-9)

    @pytest.mark.parametrize("backend", ["edge", "fast", "batch"])
    def test_horizon_inside_a_round_locks_the_bus(self, backend):
        spec, workload = SHAPES["one_shot"]
        (txn,) = run(spec, workload, backend="fast").transactions
        # The round starts before the horizon and ends after it: every
        # tier stops with it in flight.
        mid_s = (txn.start_ps + txn.duration_ps // 2) / 1e12
        with pytest.raises(BusLockedError):
            run(spec, workload, backend=backend, timeout_s=mid_s)


def boundary_spec(gated):
    return SystemSpec(
        name="round-boundary",
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
            NodeSpec("b", short_prefix=0x3, power_gated=gated),
        ),
    )


#: Twelve identical rounds: after the first, batch replays the rest as
#: a steady run unless a workload event lands among them.
STEADY = Burst("m", Address.short(0x2, 5), b"\x5a\xa5", count=12)

#: Workloads whose last round ends a run that a time budget cuts just
#: after that round's finalize.
LAST_ROUND_WORKLOADS = {
    "burst": Burst("m", Address.short(0x2, 5), b"\x01\x02", count=3),
    "one_shot": OneShot("m", Address.short(0x2, 5), b"\x01\x02"),
}
#: Horizons past the last finalize (ps) at which the edge engine is
#: still busy (it settles after its own end); at 1,000,000 ps it is not.
JUST_AFTER_FINALIZE_PS = (0, 10, 1_000, 10_000)


def round_spans(spec, workload):
    """``(start, fin)`` in ps of each round of a batch run, where
    ``fin`` is the round's last observed end (its finalize)."""
    csys = compile_system_cached(spec)
    result = BatchExecutor(
        csys, compile_workload(workload.compile(spec), csys)
    ).run()
    return [
        (t0, t0 + tpl.fin_off)
        for t0, tpl in zip(result.starts, result.rounds)
    ]


def last_finalize_plus(shape, margin_ps):
    """The always-on boundary ring, ``LAST_ROUND_WORKLOADS[shape]`` and
    a ``timeout_s`` ``margin_ps`` after its last round's finalize."""
    spec = boundary_spec(False)
    workload = LAST_ROUND_WORKLOADS[shape]
    fin = round_spans(spec, workload)[-1][1]
    return spec, workload, (fin + margin_ps) / 1e12


class TestRoundBoundaries:
    """Batch absorbs a workload event into a round when it lands at or
    before the round's finalize (``<= fin``, which the fast path gets
    from workload events' lower sequence numbers at equal times), and
    bounds each steady run by the next workload event and the horizon.
    Each case must agree on all three tiers, and batch must fire the
    fast path's event count."""

    def agree(self, spec, workload, **kwargs):
        reports = run_matrix(spec, workload, **kwargs)
        edge, fast, batch = (
            reports["edge"], reports["fast"], reports["batch"]
        )
        assert (
            edge.transaction_signatures() == fast.transaction_signatures()
        )
        assert edge.delivery_set() == fast.delivery_set()
        assert batch.transactions == fast.transactions
        assert batch.power == fast.power
        assert batch.wire_activity == fast.wire_activity
        assert batch.events_processed == fast.events_processed
        return fast

    @pytest.mark.parametrize("gated", [False, True], ids=["on", "gated"])
    def test_post_at_a_rounds_finalize(self, gated):
        spec = boundary_spec(gated)
        fin = round_spans(spec, STEADY)[2][1]
        post = OneShot("b", Address.short(0x2, 5), b"\x01", at_s=fin / 1e12)
        fast = self.agree(spec, STEADY + post)
        assert fast.n_transactions == 13

    @pytest.mark.parametrize("gated", [False, True], ids=["on", "gated"])
    def test_interrupt_at_a_rounds_finalize(self, gated):
        spec = boundary_spec(gated)
        fin = round_spans(spec, STEADY)[2][1]
        self.agree(spec, STEADY + Interrupt("b", at_s=fin / 1e12))

    @pytest.mark.parametrize("gated", [False, True], ids=["on", "gated"])
    def test_interrupt_during_a_steady_run(self, gated):
        spec = boundary_spec(gated)
        spans = round_spans(spec, STEADY)
        mid = (spans[6][0] + spans[6][1]) // 2
        gap = (spans[5][1] + spans[6][0]) // 2
        for at in (mid, gap):
            self.agree(spec, STEADY + Interrupt("b", at_s=at / 1e12))

    @pytest.mark.parametrize("backend", ["edge", "fast", "batch"])
    def test_timeout_cutting_a_steady_run_locks_the_bus(self, backend):
        spec = boundary_spec(False)
        spans = round_spans(spec, STEADY)
        # Inside round 6, and between rounds 5 and 6: either way the
        # burst is still queued at the horizon.
        for at in (
            (spans[6][0] + spans[6][1]) // 2,
            (spans[5][1] + spans[6][0]) // 2,
        ):
            with pytest.raises(BusLockedError):
                run(spec, STEADY, backend=backend, timeout_s=at / 1e12)

    def test_timeout_after_a_steady_run_agrees(self):
        spec = boundary_spec(False)
        start, fin = round_spans(spec, STEADY)[-1]
        # One round's length past the last finalize: clear of the edge
        # engine's settle after its own end.
        horizon = (2 * fin - start) / 1e12
        fast = self.agree(spec, STEADY, timeout_s=horizon)
        assert fast.n_transactions == 12
        assert fast.sim_time_s == horizon

    @pytest.mark.parametrize("margin_ps", JUST_AFTER_FINALIZE_PS)
    @pytest.mark.parametrize("shape", sorted(LAST_ROUND_WORKLOADS))
    def test_timeout_just_after_the_last_finalize(self, shape, margin_ps):
        spec, workload, horizon = last_finalize_plus(shape, margin_ps)
        fast = run(spec, workload, backend="fast", timeout_s=horizon)
        batch = run(spec, workload, backend="batch", timeout_s=horizon)
        assert fast.n_ok == fast.n_transactions == len(workload.compile(spec))
        assert batch.transactions == fast.transactions
        assert batch.events_processed == fast.events_processed
        assert batch.sim_time_s == fast.sim_time_s == horizon

    @pytest.mark.xfail(
        raises=BusLockedError, strict=True,
        reason="edge stays busy for a settle after its own end of the "
        "last round, so a horizon there finds its bus not yet idle",
    )
    @pytest.mark.parametrize("margin_ps", JUST_AFTER_FINALIZE_PS)
    @pytest.mark.parametrize("shape", sorted(LAST_ROUND_WORKLOADS))
    def test_edge_locks_on_a_timeout_just_after_the_last_finalize(
        self, shape, margin_ps
    ):
        spec, workload, horizon = last_finalize_plus(shape, margin_ps)
        run(spec, workload, backend="edge", timeout_s=horizon)

    @pytest.mark.parametrize("shape", sorted(LAST_ROUND_WORKLOADS))
    def test_timeout_a_microsecond_after_the_last_finalize(self, shape):
        spec, workload, horizon = last_finalize_plus(shape, 1_000_000)
        fast = self.agree(spec, workload, timeout_s=horizon)
        assert fast.n_ok == fast.n_transactions == len(workload.compile(spec))


def abort_spec(receiver, buffer_bytes):
    """``m``, ``a``, ``b`` (short 0x1-0x3) with ``receiver``'s receive
    buffer cut to ``buffer_bytes``."""
    return SystemSpec(
        name="buffer-abort",
        nodes=tuple(
            NodeSpec(
                name, short_prefix=prefix, is_mediator=name == "m",
                **({"rx_buffer_bytes": buffer_bytes}
                   if name == receiver else {}),
            )
            for name, prefix in (("m", 0x1), ("a", 0x2), ("b", 0x3))
        ),
    )


#: 64 seeded random 8-byte payloads.
_PAYLOADS = random.Random(23)
ABORT_PAYLOADS = [_PAYLOADS.randbytes(8) for _ in range(64)]


class TestReceiveBufferAborts:
    """``a`` sends 8 bytes into a 1-5-byte receive buffer, which aborts
    the round inside the payload: the last bit ``a`` drove there moves
    the round's end, so a payload of a known shape is overlaid on the
    plan made for that bit (``RoundTable.resolve``)."""

    @pytest.mark.parametrize("buffer_bytes", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("receiver, prefix", [("b", 0x3), ("m", 0x1)])
    def test_fast_and_batch_agree(self, receiver, prefix, buffer_bytes):
        spec = abort_spec(receiver, buffer_bytes)
        clear_cache()
        for payload in ABORT_PAYLOADS:
            workload = OneShot("a", Address.short(prefix, 5), payload)
            fast = run(spec, workload, backend="fast")
            batch = run(spec, workload, backend="batch")
            assert timing_free_doc(batch) == timing_free_doc(fast), payload
            assert batch.events_processed == fast.events_processed
            (txn,) = batch.transactions
            assert txn.control is ControlCode.RX_ABORT, payload

    @pytest.mark.xfail(
        raises=BusLockedError, strict=True,
        reason="a receive-buffer overrun at a member can leave the edge "
        "engine's receiver in transfer and its mediator in control",
    )
    def test_edge_locks_on_a_members_overrun(self):
        spec = abort_spec("b", 4)
        run(
            spec,
            OneShot("a", Address.short(0x3, 5),
                    bytes.fromhex("3a5e4842fab428f7")),
            backend="edge",
        )


#: Rings where the edge engine locks and fast and batch deliver: name
#: -> (spec, workload, timeout_s).
EDGE_LOCKS = {
    # Detectors that fire on a second DATA edge.
    "threshold-2": (
        SystemSpec(
            name="threshold-2",
            clock_hz=400_000,
            interjection_threshold=2,
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
                NodeSpec("b", short_prefix=0x3, power_gated=True),
                NodeSpec("c", short_prefix=0x4),
            ),
        ),
        OneShot("a", Address.short(0x4, 5),
                bytes.fromhex("a55a0ff0c33c9669")),
        0.01,
    ),
    # 14 nodes at 6.67 MHz, below Figure 9's f_max of 7.14 MHz for 14
    # nodes but above half of it.
    "max-clock": (
        SystemSpec(
            name="max-clock",
            clock_hz=constants.MAX_IMPLEMENTED_CLOCK_HZ,
            nodes=tuple(
                NodeSpec(f"n{i}", short_prefix=0x1 + i, is_mediator=i == 0)
                for i in range(14)
            ),
        ),
        OneShot("n0", Address.short(0x6, 5), b"\x12\x34"),
        0.002,
    ),
}


class TestKnownEdgeLocks:
    """Two rings the generated fuzz never draws, where the edge engine
    locks and fast and batch deliver the one message."""

    @pytest.mark.parametrize("case", sorted(EDGE_LOCKS))
    def test_fast_and_batch_deliver(self, case):
        spec, workload, timeout_s = EDGE_LOCKS[case]
        fast = run(spec, workload, backend="fast", timeout_s=timeout_s)
        batch = run(spec, workload, backend="batch", timeout_s=timeout_s)
        assert timing_free_doc(batch) == timing_free_doc(fast)
        assert batch.events_processed == fast.events_processed
        (txn,) = batch.transactions
        assert txn.control is ControlCode.EOM_ACK

    def delivers_on_edge(self, case):
        spec, workload, timeout_s = EDGE_LOCKS[case]
        edge = run(spec, workload, backend="edge", timeout_s=timeout_s)
        (txn,) = edge.transactions
        assert txn.control is ControlCode.EOM_ACK

    @pytest.mark.xfail(
        raises=BusLockedError, strict=True,
        reason="at interjection threshold 2 the edge engine ends a "
        "member's every transaction in a general error at the "
        "arbitration latch and retries it without end",
    )
    def test_edge_locks_at_interjection_threshold_2(self):
        self.delivers_on_edge("threshold-2")

    @pytest.mark.xfail(
        raises=BusLockedError, strict=True,
        reason="the edge engine delivers nothing on a ring clocked above "
        "about half of Figure 9's f_max, 1/(n x 10 ns)",
    )
    def test_edge_locks_on_14_nodes_at_the_max_clock(self):
        self.delivers_on_edge("max-clock")


class TestBatchReport:
    def test_report_shape(self):
        spec, workload = SHAPES["burst"]
        report = run(spec, workload, backend="batch")
        assert report.backend == "batch"
        # No live objects exist on the compiled tier.
        assert report.system is None
        assert report.faults is None
        assert report.reliability is None
        doc = report.to_dict()
        assert doc["backend"] == "batch"
        assert doc["wall_throughput_tps"] == report.wall_throughput_tps
        assert report.wall_throughput_tps > 0
        assert "txn/s wall" in report.summary()

    def test_wall_throughput_guard_on_zero_wall(self):
        spec, workload = SHAPES["one_shot"]
        report = run(spec, workload, backend="batch")
        report.wall_s = 0.0
        assert report.wall_throughput_tps == 0.0


class TestBatchPolicy:
    def test_setup_hooks_are_refused(self):
        spec, workload = SHAPES["one_shot"]
        with pytest.raises(ConfigurationError, match="setup"):
            run(
                spec, workload, backend="batch",
                setup=lambda system: None,
            )

    def test_faults_are_refused_even_empty(self):
        from repro.faults.primitives import normalize_faults

        spec, workload = SHAPES["one_shot"]
        with pytest.raises(ConfigurationError, match="batch"):
            run(
                spec, workload, backend="batch",
                faults=normalize_faults(()),
            )

    def test_trace_is_refused(self):
        spec, workload = SHAPES["one_shot"]
        with pytest.raises(ConfigurationError, match="trac"):
            run(spec, workload, backend="batch", trace=True)


class TestBatchCampaign:
    def test_campaign_over_batch_backend(self):
        from repro.campaign import Campaign

        spec, workload = SHAPES["burst"]
        clear_cache()
        results = Campaign(
            spec, workload, grid={"clock_hz": [100e3, 400e3]},
            backend="batch",
        ).run()
        assert [r.params["clock_hz"] for r in results] == [100e3, 400e3]
        assert all(r.report["backend"] == "batch" for r in results)
        # Wall-clock noise never enters the content-addressed record.
        assert all(
            "wall_s" not in r.report
            and "wall_throughput_tps" not in r.report
            for r in results
        )

    def test_campaign_matches_fast_records(self):
        from repro.campaign import Campaign

        spec, workload = SHAPES["seeded_random"]
        grid = {"clock_hz": [100e3, 400e3]}
        fast = Campaign(spec, workload, grid=grid, backend="fast").run()
        batch = Campaign(spec, workload, grid=grid, backend="batch").run()
        for f, b in zip(fast, batch):
            for field in (
                "transactions", "power", "wire_activity", "sim_time_s",
            ):
                assert f.report[field] == b.report[field], field

    def test_spec_compiles_once_per_campaign(self):
        from repro.campaign import Campaign

        spec, workload = SHAPES["burst"]
        clear_cache()
        Campaign(
            spec, workload,
            grid={"workload.count": [2, 3, 4]},
            backend="batch",
        ).run()
        stats = cache_stats()
        # One topology, three trials: one miss, the rest cache hits —
        # and the warm template cache carries across trials.
        assert stats["misses"] == 1
        assert stats["hits"] >= 2
        assert stats["templates"] > 0


class TestTemplateReuse:
    def test_repeated_rounds_share_templates(self):
        spec = SystemSpec(
            name="repeat",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2, power_gated=True),
            ),
        )
        clear_cache()
        csys = compile_system_cached(spec)
        run(
            spec,
            Burst("m", Address.short(0x2, 5), b"\xAB", count=50),
            backend="batch",
        )
        # 50 identical transactions cannot need anywhere near 50
        # distinct round shapes.
        assert 0 < len(csys.template_list) < 10


class TestThreeWayFuzz:
    def test_sixty_scenarios_zero_divergence(self):
        from repro.diffcheck import fuzz

        report = fuzz(
            count=60,
            seed=1,
            faults_fraction=0.0,
            repro_dir=None,
            minimize=False,
            invariants=False,
            backends=("edge", "fast", "batch"),
        )
        assert report.n_scenarios == 60
        assert report.ok, report.summary()
        assert report.to_dict()["backends"] == ["edge", "fast", "batch"]


class TestOneShotStillWorks:
    def test_minimal_scenario(self):
        report = run(
            SystemSpec(
                name="pair",
                nodes=(
                    NodeSpec("m", short_prefix=0x1, is_mediator=True),
                    NodeSpec("a", short_prefix=0x2),
                ),
            ),
            OneShot("m", Address.short(0x2, 5), b"\x2A"),
            backend="batch",
        )
        assert report.n_ok == 1
        assert report.deliveries == [("a", b"\x2A")]
