"""Span-based structured tracing: deterministic JSONL + Chrome JSON.

A :class:`Tracer` records a tree of nested spans —

    campaign > trial > run > (compile, execute, serialize,
                              bus-round > transaction)

— in emission order, with integer ids assigned sequentially so two
identical runs emit byte-identical span records.  Every span carries
two time domains, strictly separated by field naming:

* **deterministic fields** — ``t0_ps`` / ``dur_ps`` (integer sim
  time, for bus rounds and transactions) plus ``name`` / ``cat`` /
  ``args``; identical runs produce identical bytes;
* **wall fields** — ``wall_t0_s`` / ``wall_dur_s`` (relative host
  seconds from :mod:`repro.obs.wallclock`); these are measurement
  noise by definition, and :func:`strip_wall_fields` removes every
  key containing ``wall`` so traces can be byte-compared.

The JSONL trace file is the storage format (one canonical-JSON record
per line: a ``meta`` header, then ``span`` / ``metrics`` / ``profile``
records); :func:`chrome_trace` converts loaded records to the Chrome
``trace_event`` format for chrome://tracing or Perfetto, with wall
spans and sim spans on separate process tracks.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.schema import REPORT_SCHEMA_VERSION
from repro.obs.wallclock import wall_now

#: Span categories: ``phase`` (wall-timed execution phases),
#: ``sim`` (integer-ps bus activity), ``campaign`` (trial scheduling).
SPAN_CATEGORIES = ("phase", "sim", "campaign")


class Span:
    """One node of the trace tree.  Times may be sim-ps, wall, or both."""

    __slots__ = (
        "id", "parent", "name", "cat", "args",
        "t0_ps", "dur_ps", "wall_t0_s", "wall_dur_s",
    )

    def __init__(
        self,
        span_id: int,
        parent: Optional[int],
        name: str,
        cat: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.cat = cat
        self.args: Dict[str, Any] = {} if args is None else dict(args)
        self.t0_ps: Optional[int] = None
        self.dur_ps: Optional[int] = None
        self.wall_t0_s: Optional[float] = None
        self.wall_dur_s: Optional[float] = None

    # lint: disable=schema -- one-way trace record; traces are read back as plain dicts by load_trace, never as Span objects
    def to_dict(self) -> Dict:
        return {
            "type": "span",
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "cat": self.cat,
            "t0_ps": self.t0_ps,
            "dur_ps": self.dur_ps,
            "args": self.args,
            "wall_t0_s": self.wall_t0_s,
            "wall_dur_s": self.wall_dur_s,
        }


class Tracer:
    """Collects spans with a nesting stack; emission order is stable."""

    __slots__ = ("spans", "_stack", "_next_id", "wall_epoch_s")

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        #: Relative epoch for Chrome timestamps; all wall_t0_s values
        #: are offsets from process-local perf_counter origin.
        self.wall_epoch_s = wall_now()

    # -- core emission -------------------------------------------------
    def _open(
        self, name: str, cat: str, args: Optional[Dict[str, Any]]
    ) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, parent, name, cat, args)
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        popped = self._stack.pop()
        if popped != span.id:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span {popped} closed out of order (expected {span.id})"
            )

    @contextmanager
    def span(
        self, name: str, cat: str = "phase", **args: Any
    ) -> Iterator[Span]:
        """A wall-timed span around a code region (phases, trials)."""
        span = self._open(name, cat, args)
        span.wall_t0_s = wall_now()
        try:
            yield span
        finally:
            span.wall_dur_s = wall_now() - span.wall_t0_s
            self._close(span)

    @contextmanager
    def sim_span(
        self,
        name: str,
        t0_ps: int,
        dur_ps: int,
        cat: str = "sim",
        **args: Any,
    ) -> Iterator[Span]:
        """A deterministic span on the simulated timeline (no wall
        reads — sim spans must be byte-identical across runs)."""
        span = self._open(name, cat, args)
        span.t0_ps = t0_ps
        span.dur_ps = dur_ps
        try:
            yield span
        finally:
            self._close(span)

    def emit(
        self,
        name: str,
        cat: str = "campaign",
        t0_ps: Optional[int] = None,
        dur_ps: Optional[int] = None,
        wall_dur_s: Optional[float] = None,
        **args: Any,
    ) -> Span:
        """A leaf span under the current parent (e.g. a trial outcome
        delivered by a worker process, whose execution happened
        elsewhere).  ``wall_dur_s``, when known, back-dates the span's
        wall start so Chrome renders it with its true width."""
        span = Span(
            self._next_id,
            self._stack[-1] if self._stack else None,
            name,
            cat,
            args,
        )
        self._next_id += 1
        span.t0_ps = t0_ps
        span.dur_ps = dur_ps
        if wall_dur_s is not None:
            span.wall_dur_s = wall_dur_s
            span.wall_t0_s = wall_now() - wall_dur_s
        self.spans.append(span)
        return span

    # -- presentation --------------------------------------------------
    def records(self) -> List[Dict]:
        return [span.to_dict() for span in self.spans]

    def __len__(self) -> int:
        return len(self.spans)


# ----------------------------------------------------------------------
# Trace files.
# ----------------------------------------------------------------------
@dataclass
class TraceDoc:
    """A loaded trace file, split by record type."""

    meta: Dict = field(default_factory=dict)
    spans: List[Dict] = field(default_factory=list)
    metrics: Dict = field(default_factory=dict)
    profile: Dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return str(
            self.meta.get("label")
            or self.meta.get("backend")
            or "trace"
        )


def canonical_line(record: Dict) -> str:
    """One trace record as canonical JSON (sorted keys, compact)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def trace_records(
    tracer: Optional[Tracer],
    meta: Optional[Dict] = None,
    metrics: Optional[Dict] = None,
    profile: Optional[Dict] = None,
) -> List[Dict]:
    """Assemble the full record stream for one trace file."""
    header: Dict[str, Any] = {
        "type": "meta",
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "repro-trace",
    }
    if meta:
        header.update(meta)
    records = [header]
    if tracer is not None:
        records.extend(tracer.records())
    if metrics is not None:
        records.append({"type": "metrics", "values": metrics})
    if profile is not None:
        records.append({"type": "profile", **profile})
    return records


def write_trace(
    path: str,
    tracer: Optional[Tracer],
    meta: Optional[Dict] = None,
    metrics: Optional[Dict] = None,
    profile: Optional[Dict] = None,
) -> int:
    """Write a trace JSONL file; returns the number of records."""
    return write_records(path, trace_records(tracer, meta, metrics, profile))


def write_records(path: str, records: List[Dict]) -> int:
    """Write trace records as JSONL, one canonical line each; returns
    the number of records."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(canonical_line(record))
            handle.write("\n")
    return len(records)


def load_trace(path: str) -> TraceDoc:
    """Load a trace JSONL file back into its record groups."""
    doc = TraceDoc()
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "meta":
                doc.meta = record
            elif kind == "span":
                doc.spans.append(record)
            elif kind == "metrics":
                doc.metrics = record.get("values", {})
            elif kind == "profile":
                doc.profile = {
                    k: v for k, v in record.items() if k != "type"
                }
    return doc


def strip_wall_fields(value: Any) -> Any:
    """Recursively drop every dict key containing ``wall``.

    The single rule that separates the deterministic content of a
    trace (span names, nesting, sim times, event counts) from host-
    time noise: all wall-derived fields and metric names carry
    ``wall`` by convention (enforced by review and the determinism
    tests, which byte-compare stripped traces).
    """
    if isinstance(value, dict):
        return {
            k: strip_wall_fields(v)
            for k, v in value.items()
            if "wall" not in str(k)
        }
    if isinstance(value, list):
        return [strip_wall_fields(item) for item in value]
    return value


def validate_trace(records: List[Dict]) -> List[str]:
    """Well-formedness check for a span stream (the CI contract).

    Returns a list of problems (empty = well-formed): the header must
    come first, span ids must be unique and increasing, every parent
    must reference an already-emitted span, and categories must be
    known.
    """
    problems: List[str] = []
    if not records:
        return ["empty trace"]
    if records[0].get("type") != "meta":
        problems.append("first record is not the meta header")
    seen: Dict[int, Dict] = {}
    last_id = -1
    for record in records:
        if record.get("type") != "span":
            continue
        span_id = record.get("id")
        if not isinstance(span_id, int):
            problems.append(f"span without integer id: {record!r}")
            continue
        if span_id <= last_id:
            problems.append(
                f"span id {span_id} not strictly increasing"
            )
        last_id = max(last_id, span_id)
        if span_id in seen:
            problems.append(f"duplicate span id {span_id}")
        parent = record.get("parent")
        if parent is not None and parent not in seen:
            problems.append(
                f"span {span_id} references parent {parent} "
                "which was not emitted before it"
            )
        if record.get("cat") not in SPAN_CATEGORIES:
            problems.append(
                f"span {span_id} has unknown category "
                f"{record.get('cat')!r}"
            )
        seen[span_id] = record
    return problems


def span_structure(spans: List[Any]) -> Tuple:
    """The structural shape of a span tree: nested ``(name, children)``
    tuples in emission order, ignoring args and all timing.  Two
    backends executing the same scenario must produce equal
    structures (the cross-backend acceptance contract).  Accepts
    loaded span records or live :class:`Span` objects."""
    spans = [
        span.to_dict() if isinstance(span, Span) else span
        for span in spans
    ]
    children: Dict[Optional[int], List[Dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)

    def build(span: Dict) -> Tuple:
        kids = children.get(span["id"], [])
        return (span["name"], tuple(build(kid) for kid in kids))

    return tuple(build(root) for root in children.get(None, []))


# ----------------------------------------------------------------------
# Chrome trace_event export.
# ----------------------------------------------------------------------
#: Synthetic pids separating the two time domains in chrome://tracing.
WALL_PID = 1
SIM_PID = 2


def chrome_trace(
    records: List[Dict], epoch_s: Optional[float] = None
) -> Dict:
    """Convert trace records to Chrome ``trace_event`` JSON.

    Wall-timed spans land on the ``wall`` process track (timestamps
    relative to the earliest wall start in the trace); sim spans land
    on the ``sim`` track at their simulated microsecond.  Zero-width
    events get a 1 us floor so they stay clickable.
    """
    spans = [r for r in records if r.get("type") == "span"]
    if epoch_s is None:
        starts = [
            s["wall_t0_s"] for s in spans
            if s.get("wall_t0_s") is not None
        ]
        epoch_s = min(starts) if starts else 0.0
    events: List[Dict] = [
        {
            "ph": "M", "name": "process_name", "pid": WALL_PID, "tid": 0,
            "args": {"name": "wall (phases & campaign)"},
        },
        {
            "ph": "M", "name": "process_name", "pid": SIM_PID, "tid": 0,
            "args": {"name": "sim (bus rounds, simulated time)"},
        },
    ]
    for span in spans:
        args = dict(span.get("args") or {})
        args["span_id"] = span["id"]
        if span.get("t0_ps") is not None:
            events.append({
                "ph": "X",
                "name": span["name"],
                "cat": span["cat"],
                "pid": SIM_PID,
                "tid": 1,
                "ts": span["t0_ps"] / 1e6,
                "dur": max(span.get("dur_ps") or 0, 1) / 1e6,
                "args": args,
            })
        if span.get("wall_t0_s") is not None:
            events.append({
                "ph": "X",
                "name": span["name"],
                "cat": span["cat"],
                "pid": WALL_PID,
                "tid": 1,
                "ts": (span["wall_t0_s"] - epoch_s) * 1e6,
                "dur": max(span.get("wall_dur_s") or 0.0, 1e-6) * 1e6,
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
