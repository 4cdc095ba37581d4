"""``materialize`` pauses automatic garbage collection while it builds
a batch run's transaction list, and leaves the collector as it found
it: enabled stays enabled and disabled stays disabled, also when the
build raises.  A run's round log is two arrays, ``starts`` and
``rounds``; ``round_log`` is a read-only ``(t0, template)`` view of
them."""

import gc

import pytest

from repro.batch import (
    BatchExecutor,
    compile_system_cached,
    compile_workload,
    materialize,
)
from repro.core import Address
from repro.scenario import Burst, NodeSpec, SystemSpec


def executed():
    spec = SystemSpec(
        name="gc-pause",
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2, power_gated=True),
        ),
    )
    csys = compile_system_cached(spec)
    workload = Burst("m", Address.short(0x2, 5), b"\x01\x02", count=3)
    cwl = compile_workload(workload.compile(spec), csys)
    return csys, BatchExecutor(csys, cwl).run()


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def collecting(request):
    """Set the collector's state for a test, and restore the caller's."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_build_runs_with_collection_paused(collecting):
    csys, result = executed()
    rounds = result.rounds
    seen = []

    def watched():
        for tpl in rounds:
            seen.append(gc.isenabled())
            yield tpl

    result.rounds = watched()
    transactions, _power, _wire = materialize(csys, result)
    assert seen == [False] * len(rounds)
    assert gc.isenabled() is collecting
    result.rounds = rounds
    assert transactions == materialize(csys, result)[0]
    assert [t.index for t in transactions] == list(range(len(rounds)))
    assert [t.start_ps for t in transactions] == result.starts


def test_collector_restored_when_the_build_raises(collecting):
    csys, result = executed()
    result.starts = [0]
    result.rounds = [None]   # not a template: the build raises
    with pytest.raises(AttributeError):
        materialize(csys, result)
    assert gc.isenabled() is collecting


def test_round_log_is_a_view_of_the_two_arrays():
    _csys, result = executed()
    assert len(result.starts) == len(result.rounds) == 3
    assert len(result.round_log) == len(result.rounds)
    assert list(result.round_log) == list(
        zip(result.starts, result.rounds)
    )
    with pytest.raises(AttributeError):
        result.round_log = []
