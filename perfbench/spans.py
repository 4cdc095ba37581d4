"""In-memory span recording around the public entry points of each layer.

Only the traced run (``--trace 1``) installs these wrappers; the
untraced run measures the program exactly as a user calls it.  A span
is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span (or -1), in ``time.perf_counter`` seconds.  Spans stay
in memory and are written once, at the end of the run.

The benchmark opens one *root* span around each measured operation
(``op``) and around each in-process re-execution of work that ran in
another process (``replay``).  Wrapped calls outside a root record
nothing, so output checks never pollute the figures.  A layer's self
time is its spans' duration minus the part covered by their child
spans; summed over every span under a root, self times give back the
root's wall time, and the root's own self time is what no wrapper
claims (``unattributed_ms``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """Spans plus per-root counters, fed by :meth:`wrap`."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent]
        self.counts = defaultdict(float)  # (root, counter) -> value
        self._stack = []

    @property
    def root(self):
        return self.spans[self._stack[0]][0] if self._stack else None

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end):
        """A span timed by the caller (e.g. at the HTTP boundary)."""
        self.spans.append([name, start, end, self._stack[-1]])

    def count(self, key, value=1):
        self.counts[(self.root, key)] += value

    def totals(self):
        """``{(root, name): self seconds}`` and ``{(root, name): calls}``."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        roots = []
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            roots.append(name if parent < 0 else roots[parent])
            self_s[(roots[i], name)] += (end - start) - covered[i]
            calls[(roots[i], name)] += 1
        return self_s, calls

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent}
                ) + "\n")

    def wrap(self, owner, attr, name, observe=None):
        """Replace ``owner.attr`` with a spanned wrapper.

        ``observe(result)`` runs after each call under a root, to
        count work from the result.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return func(*args, **kwargs)
            with self.span(name):
                result = func(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)
        return wrapper


def install(recorder):
    """Wrap the public entry point of every layer.  Span names follow
    the modules: scenario, batch, core, sim, faults, campaign.

    Functions that callers import by name are patched at every module
    that holds a reference, so the wrapper sees every call.
    """
    import repro.batch
    import repro.batch.executor
    import repro.campaign.campaign
    import repro.campaign.trial
    import repro.scenario
    import repro.scenario.runner
    import repro.scenario.workload
    import repro.sim.fastpath
    from repro.batch import BatchExecutor
    from repro.campaign import Campaign, ProcessPool, ResultStore
    from repro.core.bus import MBusSystem
    from repro.faults.injector import FaultInjector
    from repro.faults.primitives import FaultSpec
    from repro.scenario.runner import RunReport
    from repro.scenario.spec import SystemSpec

    count = recorder.count
    wrap = recorder.wrap

    def on_report(report):
        count("sim.events", report.events_processed)

    def on_batch(result):
        count("batch.rounds", len(result.round_log))
        count("batch.templates_used", len(result.hit_counts))

    def on_get(record):
        count("campaign.store_get_hits", record is not None)

    # cache_stats() counters reset on clear_cache(), so hits are
    # counted per lookup rather than read as a before/after delta.
    compile_system_cached = repro.batch.compile_system_cached

    def counted_compile_system(spec):
        before = repro.batch.cache_stats()["hits"]
        csys = compile_system_cached(spec)
        if recorder.root is not None:
            count("batch.compile_cache_hits",
                  repro.batch.cache_stats()["hits"] > before)
        return csys

    repro.batch.compile_system_cached = counted_compile_system

    repro.scenario.run = wrap(
        repro.scenario.runner, "run", "scenario.run", observe=on_report
    )
    wrap(SystemSpec, "from_dict", "scenario.decode")
    wrap(FaultSpec, "from_dict", "scenario.decode")
    repro.campaign.campaign.workload_from_dict = wrap(
        repro.scenario.workload, "workload_from_dict", "scenario.decode"
    )
    wrap(RunReport, "to_dict", "scenario.to_dict")

    wrap(repro.batch, "compile_system_cached", "batch.compile_system")
    wrap(repro.batch, "compile_workload", "batch.compile_workload")
    wrap(BatchExecutor, "run", "batch.execute", observe=on_batch)
    wrap(repro.batch, "materialize", "batch.materialize")

    repro.batch.executor.plan_round = wrap(
        repro.sim.fastpath, "plan_round", "core.plan_round"
    )
    wrap(SystemSpec, "build", "sim.build")
    wrap(MBusSystem, "run_until_idle", "sim.run_until_idle")

    wrap(FaultInjector, "arm", "faults.arm")
    wrap(repro.scenario.runner, "build_reliability_report",
         "faults.report")

    wrap(Campaign, "run", "campaign.run")
    wrap(Campaign, "trials", "campaign.trials_compile")
    wrap(repro.campaign.trial, "trial_record", "campaign.record")
    wrap(ResultStore, "__init__", "campaign.store_load")
    wrap(ResultStore, "put", "campaign.store_put")
    wrap(ResultStore, "get", "campaign.store_get", observe=on_get)
    wrap(ProcessPool, "run", "campaign.pool")
