"""Disabled-observability no-op guard: the strict-no-op contract.

Every instrumentation site on a hot path hides behind a single
``if OBS.enabled`` attribute check.  With observability off (the
default, and the only state benchmarks and campaigns run in) such a
site must do no obs work at all.  This guard checks that
deterministically, on all three backends, with a Figure 14 burst:

* **no facet is touched** — ``OBS.metrics``, ``OBS.profiler`` and
  ``OBS.tracer`` are swapped for tripwires that fail on any use for
  the length of the run;
* **the per-round wrapper is a tail call** — the per-round sites are
  in :meth:`repro.core.tlm_engine.RoundTable.resolve`, which both
  transaction-level tiers call per round (the edge engine never): the
  :func:`~repro.core.tlm_engine.plan_round` wrapper each tier passes
  it, once per round it plans, and the ``tlm.shape_hits`` count, once
  per round it overlays on a message shape's plan.  Disabled, the
  wrapper must call ``_plan_round_impl`` exactly once per call, and
  be called exactly as often as an observed run of the same burst
  counts in ``tlm.plan_round_calls`` — from a cold cache, at most
  once per ten transactions;
* **overlays touch no facet either** — a burst of one-off payloads,
  which an observed run resolves as one plan and the rest shape hits,
  runs with every facet tripwired.

Wall-clock rows are printed for information only: the shipped
guarded path against ``plan_round`` re-linked to its unwrapped
implementation, interleaved best-of-N.  The two arms differ by one
attribute check per round, far below the per-process code-layout
noise of a millisecond-scale burst, so a ratio between them cannot be
asserted without racing the host.  The rows are reported, not written
to any file: ``perfbench/`` is the benchmark record.
"""

from contextlib import contextmanager

from conftest import run_burst

#: (backend, burst size) measurement points.
POINTS = (
    ("fast", 60),
    ("batch", 960),
    ("edge", 6),
)

#: Best-of-N for the information-only wall-clock rows.
INFO_REPEATS = 7


class _Tripwire:
    """Stands in for an obs facet; any attribute use fails the test."""

    def __init__(self, facet: str) -> None:
        self._facet = facet

    def __getattr__(self, name: str):
        raise AssertionError(
            f"OBS.{self._facet}.{name} used while observability is "
            "disabled: an instrumentation site is missing its "
            "`if OBS.enabled` guard"
        )


@contextmanager
def tripwired_facets():
    """Swap every obs facet for a tripwire (``OBS.enabled`` stays
    False), restoring the originals afterwards."""
    from repro.obs.state import OBS

    saved = (OBS.tracer, OBS.metrics, OBS.profiler)
    OBS.tracer = _Tripwire("tracer")
    OBS.metrics = _Tripwire("metrics")
    OBS.profiler = _Tripwire("profiler")
    try:
        yield
    finally:
        OBS.tracer, OBS.metrics, OBS.profiler = saved


@contextmanager
def counted_plan_round():
    """Count calls of the ``plan_round`` wrapper (in every module that
    imported it by name) and of the ``_plan_round_impl`` it wraps."""
    import repro.batch.executor as batch_executor
    import repro.core.tlm_engine as tlm_engine
    import repro.sim.fastpath as fastpath

    counts = {"wrapper": 0, "impl": 0}
    wrapper = tlm_engine.plan_round
    impl = tlm_engine._plan_round_impl

    def counted_wrapper(ctx, key):
        counts["wrapper"] += 1
        return wrapper(ctx, key)

    def counted_impl(ctx, key):
        counts["impl"] += 1
        return impl(ctx, key)

    saved = (fastpath.plan_round, batch_executor.plan_round)
    fastpath.plan_round = batch_executor.plan_round = counted_wrapper
    tlm_engine._plan_round_impl = counted_impl
    try:
        yield counts
    finally:
        fastpath.plan_round, batch_executor.plan_round = saved
        tlm_engine._plan_round_impl = impl


@contextmanager
def bypassed_plan_round():
    """Re-link ``plan_round`` to its unwrapped implementation in every
    importer, emulating the pre-observability build."""
    import repro.batch.executor as batch_executor
    import repro.core.tlm_engine as tlm_engine
    import repro.sim.fastpath as fastpath

    saved = (
        tlm_engine.plan_round,
        fastpath.plan_round,
        batch_executor.plan_round,
    )
    tlm_engine.plan_round = tlm_engine._plan_round_impl
    fastpath.plan_round = tlm_engine._plan_round_impl
    batch_executor.plan_round = tlm_engine._plan_round_impl
    try:
        yield
    finally:
        (
            tlm_engine.plan_round,
            fastpath.plan_round,
            batch_executor.plan_round,
        ) = saved


def cold_burst(mode: str, n_messages: int):
    """One burst with the batch compile cache cleared, so every run
    plans the same round templates."""
    import repro.batch

    repro.batch.clear_cache()
    return run_burst(mode, n_messages)


def measure_pair(mode: str, n_messages: int, repeats: int):
    """Interleaved best-of-N of the guarded and bypassed arms."""
    guarded = bypassed = float("inf")
    for _ in range(repeats):
        with bypassed_plan_round():
            bypassed = min(bypassed, run_burst(mode, n_messages)[0])
        guarded = min(guarded, run_burst(mode, n_messages)[0])
    return guarded, bypassed


def test_disabled_obs_does_no_obs_work(report):
    from repro.obs.state import OBS, observe

    assert OBS.enabled is False, (
        "benchmark must run with observability disabled"
    )
    lines = ["Disabled observability (guarded vs bypassed plan_round)"]
    for mode, n_messages in POINTS:
        with observe(trace=False, profile=False) as session:
            cold_burst(mode, n_messages)
        planned = session.metrics.to_dict()["counters"].get(
            "tlm.plan_round_calls", 0
        )
        with tripwired_facets(), counted_plan_round() as counts:
            txns = cold_burst(mode, n_messages)[2]
        assert counts["wrapper"] == counts["impl"] == planned, (
            f"{mode}: disabled plan_round wrapper ran {counts['wrapper']} "
            f"times and its implementation {counts['impl']} times; an "
            f"observed run planned {planned} rounds"
        )
        assert planned * 10 <= txns, (
            f"{mode}: planned {planned} of {txns} rounds from a cold cache"
        )
        guarded, bypassed = measure_pair(mode, n_messages, INFO_REPEATS)
        lines.append(
            f"  [info] {mode:<6} {n_messages:>4} msg  "
            f"{planned:>3} plan_round calls  "
            f"guarded {guarded * 1e3:8.4f} ms  "
            f"bypassed {bypassed * 1e3:8.4f} ms  "
            f"ratio {guarded / bypassed - 1.0:+7.2%}"
        )
    report("\n".join(lines))


def test_disabled_shape_hits_do_no_obs_work(burst_runner):
    import repro.batch
    from repro.core import Address
    from repro.obs.state import observe
    from repro.scenario import PostEvent, run

    n_messages = 12
    one_offs = [
        PostEvent(i * 1e-3, "m", Address.short(0x2, 5), i.to_bytes(8, "big"))
        for i in range(n_messages)
    ]
    for mode in ("fast", "batch"):
        repro.batch.clear_cache()
        with observe(trace=False, profile=False) as session:
            observed = run(burst_runner["spec"](), one_offs, backend=mode)
        counters = session.metrics.to_dict()["counters"]
        assert counters.get("tlm.plan_round_calls", 0) == 1, mode
        assert counters.get("tlm.shape_hits", 0) == n_messages - 1, mode
        repro.batch.clear_cache()
        with tripwired_facets():
            report = run(burst_runner["spec"](), one_offs, backend=mode)
        assert report.transactions == observed.transactions, mode


def test_enabled_metrics_only_run_still_correct():
    """Sanity: flipping OBS on must not change simulation outcomes
    (the guard above only checks the disabled state)."""
    from repro.obs.state import observe

    baseline = run_burst("fast", 12)
    with observe(trace=False, profile=False):
        observed = run_burst("fast", 12)
    assert observed[1] == baseline[1]   # events
    assert observed[2] == baseline[2]   # transactions
    assert observed[3] == baseline[3]   # sim seconds
