"""CLI backends for ``python -m repro trace`` and ``python -m repro stats``.

``trace`` executes one declarative scenario under a scoped
:func:`~repro.obs.state.observe` session and records everything the
session collected — spans, metrics, per-phase profile — as a
deterministic JSONL trace file (plus an optional Chrome
``trace_event`` JSON for chrome://tracing / Perfetto).

``stats`` is the offline half: load one recorded trace and print its
phase profile, how its rounds resolved (planned, or overlaid on a
message shape's plan) and how many edge-engine events fired or were
elided in whole clock cycles, or load several (e.g. the same
scenario traced on ``edge``, ``fast`` and ``batch``) and print a
side-by-side phase diff — the backend-comparison workflow
EXPERIMENTS.md walks through.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

from repro.obs.profiler import diff_profiles, format_profile
from repro.obs.state import observe
from repro.obs.tracer import (
    TraceDoc,
    chrome_trace,
    load_trace,
    trace_records,
    validate_trace,
    write_records,
)


def write_chrome(path: str, records: List[Dict]) -> None:
    """Write the Chrome ``trace_event`` export for a record stream."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(records), handle)
        handle.write("\n")


def cmd_trace(args) -> int:
    """Run a scenario with observability on; record the trace."""
    from repro.scenario import load_scenario, run

    spec, workload, _grid = load_scenario(args.scenario)
    faults = None
    if getattr(args, "faults", None):
        from repro.faults import load_faults

        faults = load_faults(args.faults)
    with observe() as session:
        report = run(
            spec, workload, backend=args.backend, faults=faults
        )
    label = args.label or (
        f"{spec.name or 'scenario'}:{report.backend}"
    )
    meta = {"label": label, "backend": report.backend}
    profile = session.profiler.to_dict() if session.profiler else None
    records = trace_records(
        session.tracer,
        meta=meta,
        metrics=session.metrics.snapshot() if session.metrics else None,
        profile=profile,
    )
    n_spans = sum(1 for r in records if r.get("type") == "span")
    write_records(args.output, records)
    print(
        f"recorded {n_spans} span(s) over {report.n_transactions} "
        f"transaction(s) [{report.backend} backend]"
    )
    print(f"wrote {len(records)} trace record(s) to {args.output}")
    if args.chrome:
        write_chrome(args.chrome, records)
        print(f"wrote Chrome trace JSON to {args.chrome} "
              "(open in chrome://tracing or Perfetto)")
    if profile:
        print()
        print(format_profile(label, profile))
    return 0


def _load_docs(paths: List[str]) -> List[TraceDoc]:
    docs = []
    for path in paths:
        try:
            docs.append(load_trace(path))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: cannot load trace {path}: {exc}")
    return docs


def cmd_stats(args) -> int:
    """Summarize one recorded trace, or diff several."""
    from repro.analysis import format_table

    docs = _load_docs(args.traces)
    if args.json:
        print(json.dumps(
            [
                {
                    "label": doc.label,
                    "meta": doc.meta,
                    "n_spans": len(doc.spans),
                    "profile": doc.profile,
                    "metrics": doc.metrics,
                }
                for doc in docs
            ],
            indent=2,
        ))
        return 0
    problems: List[str] = []
    for path, doc in zip(args.traces, docs):
        doc_problems = validate_trace(
            [doc.meta] + doc.spans if doc.meta else doc.spans
        )
        problems.extend(f"{path}: {p}" for p in doc_problems)
        counters = doc.metrics.get("counters", {})
        print(
            f"{doc.label}: {len(doc.spans)} span(s), "
            f"{len(counters)} counter(s) [{path}]"
        )
        if "tlm.plan_round_calls" in counters:
            print(
                f"  rounds: {counters['tlm.plan_round_calls']} planned "
                "(tlm.plan_round_calls), "
                f"{counters.get('tlm.shape_hits', 0)} overlaid on a "
                "message shape's plan (tlm.shape_hits)"
            )
        if "sim.events_elided" in counters:
            print(
                f"  events: {counters.get('sim.events_fired', 0)} fired, "
                f"{counters['sim.events_elided']} elided in "
                f"{counters.get('sim.cycles_elided', 0)} whole clock "
                "cycles (sim.events_elided)"
            )
    if problems:
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)
    print()
    if len(docs) == 1:
        print(format_profile(docs[0].label, docs[0].profile))
        return 0
    header, rows = diff_profiles(
        [(doc.label, doc.profile) for doc in docs]
    )
    print(format_table(
        header, rows, title="Phase profile diff (first trace = reference)"
    ))
    return 0
