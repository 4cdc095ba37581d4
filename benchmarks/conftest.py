"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure from the paper's
evaluation, printing the reproduced rows/series (visible with
``pytest benchmarks/ --benchmark-only -s``) and asserting the
paper's qualitative claims (orderings, crossovers, magnitudes).

The session-scoped perf smoke guard below keeps the two-tier engine
honest: every benchmark session reruns the Figure 14 burst on both
backends and fails outright if the transaction-level fast path stops
doing far less work than the edge-accurate engine.  It counts work
(simulator events and planned rounds) rather than timing it, so it
cannot race a loaded host; ``test_perf_engine.py`` prints the wall
clock for information.
"""

import sys

import pytest

#: The fast path fires fewer than one event per this many edge events.
EVENT_RATIO = 20
#: Each transaction-level tier plans at most one round in this many
#: from a cold cache.
ROUNDS_PER_PLAN = 10

#: The Figure 14 burst-saturation workload, shared by the smoke guard
#: below and by benchmarks/test_perf_engine.py (via the burst_runner
#: fixture) so both always time the same thing.
BURST_MESSAGES = 6
BURST_PAYLOAD_BYTES = 8
BURST_CLOCK_HZ = 400_000


@pytest.fixture
def report(capsys):
    """Print a reproduction artifact, bypassing capture."""

    def _report(text: str) -> None:
        with capsys.disabled():
            sys.stdout.write("\n" + text + "\n")

    return _report


def burst_spec():
    """The two-node fig14 topology as a declarative spec."""
    from repro.scenario import NodeSpec, SystemSpec

    return SystemSpec(
        name="fig14-burst",
        clock_hz=BURST_CLOCK_HZ,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
        ),
    )


def burst_workload(n_messages: int = BURST_MESSAGES):
    """The saturating burst as a backend-agnostic workload object."""
    from repro.core import Address
    from repro.scenario import Burst

    return Burst(
        source="m",
        dest=Address.short(0x2, 5),
        payload=bytes(range(BURST_PAYLOAD_BYTES)),
        count=n_messages,
    )


def run_burst(mode: str, n_messages: int = BURST_MESSAGES):
    """One fig14 burst; returns (wall_s, events, txns, sim_seconds).

    The same Burst workload object drives both backends through the
    scenario runner, so edge/fast timings always measure identical
    traffic (``report.wall_s`` times only ``run_until_idle``).
    """
    from repro.scenario import run

    report = run(burst_spec(), burst_workload(n_messages), backend=mode)
    assert report.n_transactions == n_messages
    assert report.n_ok == n_messages
    return (
        report.wall_s,
        report.events_processed,
        n_messages,
        report.sim_time_s,
    )


def burst_counts(mode: str, n_messages: int = 10 * BURST_MESSAGES):
    """One burst from a cold batch cache with metrics on: its
    simulator events, rounds and ``plan_round`` calls."""
    import repro.batch
    from repro.obs import observe
    from repro.scenario import run

    repro.batch.clear_cache()
    with observe(trace=False, profile=False) as session:
        report = run(burst_spec(), burst_workload(n_messages), backend=mode)
    counters = session.metrics.to_dict()["counters"]
    return (
        report.events_processed,
        report.n_transactions,
        counters.get("tlm.plan_round_calls", 0),
    )


def measure_burst(mode: str, repeats: int = 3):
    """Best-of-N run of the burst to shed scheduler noise."""
    best = None
    for _ in range(repeats):
        sample = run_burst(mode)
        if best is None or sample[0] < best[0]:
            best = sample
    return best


@pytest.fixture(scope="session")
def burst_runner():
    """Expose the shared burst workload to benchmark modules.

    A fixture (rather than a cross-module import) because conftest
    modules are not import-safe by name when several live in one
    test tree.
    """
    return {
        "run": run_burst,
        "measure": measure_burst,
        "counts": burst_counts,
        "spec": burst_spec,
        "workload": burst_workload,
        "messages": BURST_MESSAGES,
        "payload_bytes": BURST_PAYLOAD_BYTES,
        "clock_hz": BURST_CLOCK_HZ,
    }


@pytest.fixture(scope="session", autouse=True)
def fastpath_perf_guard():
    """Fail the benchmark session if the fast path stops doing far
    less work than the edge engine.

    On a 60-message burst the fast path fires fewer than one
    simulator event per :data:`EVENT_RATIO` edge events and plans at
    most one round in :data:`ROUNDS_PER_PLAN` (it plans one: every
    round has the same shape).  Both are counts, so one run decides.
    """
    edge_events, _, _ = burst_counts("edge")
    fast_events, rounds, plans = burst_counts("fast")
    if fast_events * EVENT_RATIO >= edge_events:
        pytest.fail(
            f"perf smoke guard: the fast path fired {fast_events} events "
            f"against the edge engine's {edge_events} on the burst "
            f"benchmark (at most 1/{EVENT_RATIO} allowed) — the "
            "transaction-level backend has regressed",
            pytrace=False,
        )
    if plans * ROUNDS_PER_PLAN > rounds:
        pytest.fail(
            f"perf smoke guard: the fast path planned {plans} of its "
            f"{rounds} rounds (at most 1/{ROUNDS_PER_PLAN} allowed) — "
            "it no longer resolves rounds from its template table",
            pytrace=False,
        )
    yield
