"""Unit tests for the fault primitives: schemas, compilation, validation."""

import pytest

from repro.core.errors import ConfigurationError
from repro.faults import (
    ClockDrift,
    FaultSpec,
    NodePowerLoss,
    RandomGlitches,
    StuckAt,
    WireGlitch,
    fault_from_dict,
    load_faults,
    normalize_faults,
)
from repro.scenario import NodeSpec, SystemSpec


@pytest.fixture
def spec():
    return SystemSpec(
        name="faults-unit",
        clock_hz=400_000.0,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
            NodeSpec("b", short_prefix=0x3),
        ),
    )


class TestJsonRoundTrip:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            fault_from_dict({"kind": "gamma_ray"})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="bad wire_glitch"):
            fault_from_dict(
                {"kind": "wire_glitch", "node": "a", "at_s": 0.0, "bogus": 1}
            )

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown FaultSpec"):
            FaultSpec.from_dict({"faults": [], "seed": 3})

    def test_load_faults_accepts_wrapper_document(self):
        fault_spec = FaultSpec((ClockDrift("m", ppm=10.0),), name="w")
        assert load_faults({"faults": fault_spec.to_dict()}) == fault_spec
        assert load_faults(fault_spec.to_dict()) == fault_spec


class TestCompilation:
    def test_schedule_is_time_sorted_and_indexed(self, spec):
        fault_spec = FaultSpec(
            (
                StuckAt("b", at_s=2e-3, duration_s=1e-4),
                WireGlitch("a", at_s=1e-3, edges=3, width_s=1e-7),
            )
        )
        schedule = fault_spec.compile(spec)
        times = [action.at_ps for action in schedule]
        assert times == sorted(times)
        assert {action.fault_index for action in schedule} == {0, 1}
        # The glitch (index 1) fires before the stuck window (index 0).
        assert schedule[0].fault_index == 1
        assert schedule[0].kind == "glitch_edge"

    def test_random_glitches_are_seed_deterministic(self, spec):
        one = FaultSpec((RandomGlitches(seed=5, rate_hz=1e4),)).compile(spec)
        two = FaultSpec((RandomGlitches(seed=5, rate_hz=1e4),)).compile(spec)
        other = FaultSpec((RandomGlitches(seed=6, rate_hz=1e4),)).compile(spec)
        assert one == two
        assert one != other
        assert one, "a 10 kHz rate over 10 ms must produce events"

    def test_random_glitches_zero_rate_is_empty(self, spec):
        assert FaultSpec(
            (RandomGlitches(seed=1, rate_hz=0.0),)
        ).compile(spec) == ()

    def test_clock_drift_compiles_to_bind_time_action(self, spec):
        (action,) = FaultSpec((ClockDrift("m", ppm=100.0),)).compile(spec)
        assert action.kind == "clock_drift"
        assert action.at_ps == 0
        assert action.value == 100.0


class TestValidation:
    def test_unknown_node_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="unknown node"):
            FaultSpec((WireGlitch("ghost", at_s=0.0),)).compile(spec)

    def test_bad_wire_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="wire"):
            FaultSpec((WireGlitch("a", at_s=0.0, wire="power"),)).compile(spec)

    def test_negative_time_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="non-negative"):
            FaultSpec((WireGlitch("a", at_s=-1.0),)).compile(spec)

    def test_stuck_value_must_be_binary(self, spec):
        with pytest.raises(ConfigurationError, match="0 or 1"):
            FaultSpec(
                (StuckAt("a", at_s=0.0, duration_s=1e-3, value=2),)
            ).compile(spec)

    def test_mediator_power_loss_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="mediator"):
            FaultSpec((NodePowerLoss("m", at_s=0.0),)).compile(spec)

    def test_drift_bound(self, spec):
        with pytest.raises(ConfigurationError, match="ppm"):
            FaultSpec((ClockDrift("m", ppm=2e6),)).compile(spec)

    def test_glitch_needs_edges(self, spec):
        with pytest.raises(ConfigurationError, match="edge"):
            FaultSpec((WireGlitch("a", at_s=0.0, edges=0),)).compile(spec)


class TestContainer:
    def test_truthiness(self):
        assert not FaultSpec()
        assert FaultSpec((ClockDrift("m", ppm=1.0),))

    def test_addition_concatenates(self):
        left = FaultSpec((ClockDrift("m", ppm=1.0),), name="l")
        right = FaultSpec((ClockDrift("a", ppm=2.0),))
        combined = left + right
        assert combined.faults == left.faults + right.faults
        assert combined.name == "l"

    def test_normalize(self):
        assert normalize_faults(None) is None
        spec = FaultSpec((ClockDrift("m", ppm=1.0),))
        assert normalize_faults(spec) is spec
        assert normalize_faults(ClockDrift("m", ppm=1.0)) == spec
        assert normalize_faults([ClockDrift("m", ppm=1.0)]) == spec
