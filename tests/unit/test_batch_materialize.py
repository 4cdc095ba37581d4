"""``materialize`` pauses automatic garbage collection while it builds
a batch run's transaction list, and leaves the collector as it found
it: enabled stays enabled and disabled stays disabled, also when the
build raises."""

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
    log = result.round_log
    seen = []

    def watched():
        for entry in log:
            seen.append(gc.isenabled())
            yield entry

    result.round_log = watched()
    transactions, _power, _wire = materialize(csys, result)
    assert seen == [False] * len(log)
    assert gc.isenabled() is collecting
    result.round_log = log
    assert transactions == materialize(csys, result)[0]
    assert [t.index for t in transactions] == list(range(len(log)))


def test_collector_restored_when_the_build_raises(collecting):
    csys, result = executed()
    result.round_log = [(0, None)]   # not a template: the build raises
    with pytest.raises(AttributeError):
        materialize(csys, result)
    assert gc.isenabled() is collecting
