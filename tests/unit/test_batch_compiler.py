"""Unit tests for the tier-3 batch compiler and its caches.

The compiler lowers specs and schedules to flat integer arrays; these
tests pin the ring layout (mediator-rooted rotation, the auto-sleep
default), message interning, scheduler-compatible time quantization,
validation-error parity across all three backends, the
content-addressed compiled-system cache, and the table-driven backend
registry.
"""

import dataclasses

import pytest

from repro.batch import (
    KIND_INTERRUPT,
    KIND_POST,
    CompiledSystem,
    cache_stats,
    clear_cache,
    compile_system_cached,
    compile_workload,
    spec_digest,
)
from repro.core import Address, Message
from repro.core.errors import ConfigurationError
from repro.scenario import (
    BACKEND_REGISTRY,
    BACKENDS,
    Burst,
    Interrupt,
    NodeSpec,
    OneShot,
    SystemSpec,
    backend_help,
    run,
    select_backend,
)


def three_chip(**kwargs):
    return SystemSpec(
        name="three-chip",
        nodes=(
            NodeSpec("sensor", short_prefix=0x2, power_gated=True),
            NodeSpec("cpu", short_prefix=0x1, is_mediator=True),
            NodeSpec("radio", short_prefix=0x3, power_gated=True),
        ),
        **kwargs,
    )


class TestCompiledSystem:
    def test_mediator_rooted_rotation(self):
        csys = CompiledSystem(three_chip())
        # The mediator rotates to position 0; ring order is preserved.
        assert csys.names == ("cpu", "radio", "sensor")
        assert csys.spec_order_names == ("sensor", "cpu", "radio")
        assert csys.position_of == {"cpu": 0, "radio": 1, "sensor": 2}
        nodes = csys.topology.nodes
        assert [node.name for node in nodes] == ["cpu", "radio", "sensor"]
        assert [node.short_prefix for node in nodes] == [0x1, 0x3, 0x2]
        assert csys.power_gated == (0, 1, 1)
        assert csys.n == 3

    def test_full_prefix_sentinel_and_auto_sleep_default(self):
        spec = SystemSpec(
            name="full",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("f", full_prefix=0xAB0CD, power_gated=True),
            ),
        )
        nodes = CompiledSystem(spec).topology.nodes
        assert [node.short_prefix for node in nodes] == [0x1, None]
        assert [node.full_prefix for node in nodes] == [None, 0xAB0CD]
        # auto_sleep defaults to the node's power gating.
        assert [node.auto_sleep for node in nodes] == [False, True]

    def test_template_cache_starts_empty_and_is_mutable(self):
        csys = CompiledSystem(three_chip())
        assert csys.templates == {}
        assert csys.template_list == []

    def test_anchor_resolution(self):
        spec = SystemSpec(
            name="anchored",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
            ),
            arbitration_anchor="a",
        )
        assert CompiledSystem(spec).anchor_pos == 1
        # Anchoring at the mediator is the default: no override.
        spec_m = SystemSpec(
            name="anchored-m",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
            ),
            arbitration_anchor="m",
        )
        assert CompiledSystem(spec_m).anchor_pos is None


class TestValidationParity:
    """Every backend refuses a bad spec with the same exception type
    and message — the compiler runs the core's own construction
    checks — so error symmetry holds in the differential harness."""

    def _parity(self, spec, workload):
        messages = set()
        for backend in ("edge", "fast", "batch"):
            with pytest.raises(ConfigurationError) as err:
                run(spec, workload, backend=backend)
            messages.add(str(err.value))
        assert len(messages) == 1, messages

    def test_duplicate_short_prefix(self):
        spec = SystemSpec(
            name="dup",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
                NodeSpec("b", short_prefix=0x2),
            ),
        )
        self._parity(spec, OneShot("m", Address.short(0x2, 5), b"\x01"))

    def test_reserved_short_prefix(self):
        spec = SystemSpec(
            name="reserved",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0xF),
            ),
        )
        self._parity(spec, OneShot("m", Address.short(0x1, 5), b"\x01"))

    def test_short_address_budget(self):
        spec = SystemSpec(
            name="crowded",
            nodes=tuple(
                [NodeSpec("m", short_prefix=0x1, is_mediator=True)]
                + [
                    NodeSpec(f"n{i}", short_prefix=0x2 + i)
                    for i in range(14)
                ]
            ),
        )
        self._parity(spec, OneShot("m", Address.short(0x2, 5), b"\x01"))

    def test_prefixless_member(self):
        spec = SystemSpec(
            name="prefixless",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("ghost"),
            ),
        )
        self._parity(spec, OneShot("m", Address.short(0x1, 5), b"\x01"))

    def test_gated_mediator(self):
        spec = SystemSpec(
            name="gated-mediator",
            nodes=(
                NodeSpec(
                    "m", short_prefix=0x1, is_mediator=True,
                    power_gated=True,
                ),
                NodeSpec("a", short_prefix=0x2),
            ),
        )
        self._parity(spec, OneShot("m", Address.short(0x2, 5), b"\x01"))

    def test_gated_anchor(self):
        spec = SystemSpec(
            name="gated-anchor",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2, power_gated=True),
            ),
            arbitration_anchor="a",
        )
        self._parity(spec, OneShot("m", Address.short(0x2, 5), b"\x01"))

    def test_unknown_workload_source(self):
        self._parity(
            three_chip(), OneShot("nobody", Address.short(0x2, 5), b"\x01")
        )


class TestCompiledWorkload:
    def test_arrays_and_interning(self):
        spec = three_chip()
        csys = CompiledSystem(spec)
        workload = (
            Burst("cpu", Address.short(0x2, 5), b"\xAA", count=3)
            + Interrupt("radio", at_s=0.02)
        )
        cwl = compile_workload(workload.compile(spec), csys)
        assert len(cwl) == 4
        assert cwl.kind == (
            KIND_POST, KIND_POST, KIND_POST, KIND_INTERRUPT,
        )
        # Three identical posts intern to a single message on the
        # compiled system...
        assert csys.message_table == [
            Message(Address.short(0x2, 5), b"\xAA")
        ]
        assert cwl.ref == (0, 0, 0, -1)
        # ...and positions are mediator-rooted (cpu=0, radio=1).
        assert cwl.pos == (0, 0, 0, 1)
        # A later workload on the same system reuses the interned id
        # and appends only its new message.
        again = compile_workload(
            (
                OneShot("radio", Address.short(0x2, 5), b"\xAA")
                + OneShot("cpu", Address.short(0x2, 5), b"\xAA",
                          priority=True)
            ).compile(spec),
            csys,
        )
        assert again.ref == (0, 1)
        assert csys.message_table[1] == Message(
            Address.short(0x2, 5), b"\xAA", priority=True
        )
        assert len(csys.message_table) == 2

    @pytest.mark.parametrize("workload", [
        Burst("cpu", Address.short(0x2, 5), b"\xAA", count=4),
        Burst("cpu", Address.short(0x2, 5), b"\xAA", count=3, at_s=0.01)
        + Interrupt("radio", at_s=0.01)
        + Burst("radio", Address.short(0x1, 5), b"\xBB", count=2,
                at_s=0.01),
    ])
    def test_shared_events_compile_like_distinct_ones(self, workload):
        spec = three_chip()
        csys = CompiledSystem(spec)
        shared = workload.compile(spec)
        # The gap-free bursts share one event object per burst.
        assert len({id(event) for event in shared}) < len(shared)
        distinct = tuple(dataclasses.replace(event) for event in shared)
        assert distinct == shared
        a = compile_workload(shared, csys)
        b = compile_workload(distinct, csys)
        for column in ("t_ps", "pos", "kind", "ref"):
            assert getattr(a, column) == getattr(b, column), column

    def test_quantization_matches_event_loop_runner(self):
        spec = three_chip()
        csys = CompiledSystem(spec)
        # Includes the half-way cases, where rounding is half-to-even.
        seconds = (0.0, 1e-12, 2.5e-12, 3.5e-12, 0.0123456789)
        workload = OneShot(
            "cpu", Address.short(0x2, 5), b"\x01", at_s=seconds[0]
        )
        for at_s in seconds[1:]:
            workload = workload + OneShot(
                "cpu", Address.short(0x2, 5), b"\x01", at_s=at_s
            )
        cwl = compile_workload(workload.compile(spec), csys)
        assert cwl.t_ps == tuple(int(round(s * 1e12)) for s in seconds)
        assert cwl.t_ps[2:4] == (2, 4)


class TestCompiledSystemCache:
    def test_content_addressed_reuse(self):
        clear_cache()
        spec = three_chip()
        first = compile_system_cached(spec)
        # A *different* spec object with equal content hits the cache.
        second = compile_system_cached(
            SystemSpec.from_dict(spec.to_dict())
        )
        assert first is second
        stats = cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        clear_cache()
        assert cache_stats()["entries"] == 0

    def test_digest_is_canonical(self):
        spec = three_chip()
        assert spec_digest(spec) == spec_digest(
            SystemSpec.from_dict(spec.to_dict())
        )

    def test_validation_errors_do_not_poison_cache(self):
        clear_cache()
        bad = SystemSpec(
            name="dup",
            nodes=(
                NodeSpec("m", short_prefix=0x1, is_mediator=True),
                NodeSpec("a", short_prefix=0x2),
                NodeSpec("b", short_prefix=0x2),
            ),
        )
        with pytest.raises(ConfigurationError):
            compile_system_cached(bad)
        assert cache_stats()["entries"] == 0


class TestBackendRegistry:
    def test_registry_drives_backends_tuple(self):
        assert BACKENDS == tuple(BACKEND_REGISTRY)
        assert set(BACKENDS) == {"auto", "edge", "fast", "batch"}

    def test_backend_help_mentions_every_backend(self):
        text = backend_help()
        for name in BACKENDS:
            assert f"{name}:" in text

    def test_batch_is_auto_without_a_live_system(self):
        assert select_backend("batch") == "batch"
        assert select_backend("auto") == "batch"
        assert select_backend("auto", live_system=True) == "fast"
        assert select_backend("auto", trace=True) == "edge"

    def test_unknown_backend_lists_the_registry(self):
        with pytest.raises(ConfigurationError) as err:
            select_backend("warp")
        assert str(BACKENDS) in str(err.value)

    def test_batch_rejects_trace_and_faults(self):
        with pytest.raises(ConfigurationError, match="trac"):
            select_backend("batch", trace=True)
        with pytest.raises(ConfigurationError, match="edge"):
            select_backend("batch", faults_active=True)
