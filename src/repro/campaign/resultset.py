"""Queryable campaign results: figures become queries, not loops.

:meth:`Campaign.run` returns a :class:`ResultSet` — an ordered,
immutable sequence of :class:`TrialResult` (one per compiled trial,
whether executed or served from the store).  Instead of iterating
reports and hand-rolling accumulators, studies query:

* ``rs.filter(clock_hz=400e3)`` / ``rs.filter(lambda r: ...)``
* ``rs.group_by("glitch_rate_hz")`` -> ``{rate: ResultSet}``
* ``rs.aggregate("report.goodput_bps", agg="mean", by=("clock_hz",))``
* ``rs.series("glitch_rate_hz", "report.reliability.recovery_rate")``
* ``rs.to_table()`` / ``rs.to_jsonl(path)``

Metrics address the stored record by dotted path (``report.n_ok``,
``report.reliability.recovery_rate``, ``params.clock_hz``) or by a
callable ``TrialResult -> value``; bare names are looked up in
``params`` first, then at the top of the report — so the common cases
read naturally.  Each result decodes its record only when a query
reads it (see :class:`TrialResult`).
"""

from __future__ import annotations

import functools
import json
import statistics
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.campaign.failures import TrialFailure, record_outcome
from repro.campaign.trial import Trial
from repro.core.errors import ConfigurationError

Metric = Union[str, Callable[["TrialResult"], Any]]

_MISSING = object()

AGGREGATIONS: Dict[str, Callable[[List[Any]], Any]] = {
    "mean": statistics.fmean,
    "median": statistics.median,
    "min": min,
    "max": max,
    "sum": sum,
    "count": len,
}


def decode_record(line: str, key: str, where: str) -> Dict:
    """Decode a stored record line.  One that does not decode (a
    corrupt line a store indexed by its prefix) raises a
    :class:`ConfigurationError` naming where it is stored and its key."""
    try:
        return json.loads(line)
    except ValueError as exc:
        raise ConfigurationError(
            f"{where}: the stored line of key {key} does not decode "
            f"({exc}); compacting the store drops it, and the next "
            "resume re-executes its trial"
        ) from None


@dataclass(frozen=True)
class TrialResult:
    """One trial's outcome: its record, and how it was obtained.

    A result holds the record's canonical line, as the store does
    (:meth:`~repro.campaign.store.ResultStore.result` builds it), and
    decodes the record on first read of :attr:`record`.  ``ok`` comes
    from the store's index, so :attr:`ok`, :attr:`outcome` and
    :attr:`failure` of an ok trial decode nothing.
    """

    trial: Trial
    #: The record's canonical JSON line.
    line: str
    #: Whether the record is an ok outcome.
    ok: bool
    #: True when the record came from the store (or from an earlier
    #: identical trial in the same run) instead of being executed.
    cached: bool = False
    #: Wall-clock cost of *this* execution; 0.0 for cache hits.  Kept
    #: off the record so cached bytes stay content-addressed.
    wall_s: float = 0.0
    #: The store holding the line, for an error about it.
    where: str = field(default="a store", compare=False, repr=False)

    @functools.cached_property
    def record(self) -> Dict:
        """The JSON record, decoded from the line on first read."""
        return decode_record(self.line, self.key, self.where)

    @property
    def key(self) -> str:
        return self.trial.key

    @property
    def params(self) -> Dict[str, Any]:
        return self.trial.params

    @property
    def report(self) -> Dict:
        """The stored report; empty for failed trials (their record
        carries a ``failure`` document instead)."""
        return self.record.get("report") or {}

    @property
    def reliability(self) -> Optional[Dict]:
        return self.report.get("reliability")

    @property
    def outcome(self) -> str:
        """``"ok"`` / ``"error"`` / ``"timeout"`` / ``"crashed"``."""
        return "ok" if self.ok else record_outcome(self.record)

    @property
    def failure(self) -> Optional[TrialFailure]:
        """The structured failure, or None for successful trials."""
        doc = None if self.ok else self.record.get("failure")
        if doc is None:
            return None
        return TrialFailure.from_dict(doc, lenient=True)

    def value(self, metric: Metric, default: Any = _MISSING) -> Any:
        """Resolve a metric against this result (see module docs)."""
        if callable(metric):
            return metric(self)
        if not isinstance(metric, str):
            raise ConfigurationError(
                f"a metric is a dotted path or a callable, not {metric!r}"
            )
        # Parameters always win, even dotted ones: grid axes like
        # "faults.faults.0.rate_hz" are parameter *names*, and must
        # stay addressable after compilation.
        if metric in self.params:
            return self.params[metric]
        if "." not in metric:
            if metric in self.report:
                return self.report[metric]
            if metric in self.record:
                return self.record[metric]
            if default is not _MISSING:
                return default
            raise ConfigurationError(
                f"metric {metric!r} names neither a parameter nor a "
                "top-level report field"
            )
        target: Any = self.record
        for part in metric.split("."):
            if isinstance(target, dict) and part in target:
                target = target[part]
            elif isinstance(target, list):
                try:
                    target = target[int(part)]
                except (ValueError, IndexError):
                    target = _MISSING
            else:
                target = _MISSING
            if target is _MISSING:
                if default is not _MISSING:
                    return default
                raise ConfigurationError(
                    f"metric path {metric!r} does not resolve in this "
                    "record"
                )
        return target


class ResultSet(Sequence):
    """An ordered, immutable, queryable set of trial results."""

    def __init__(
        self,
        results: Sequence[TrialResult],
        executor: str = "serial",
        wall_s: float = 0.0,
        name: str = "",
        interrupted: bool = False,
        planned: Optional[int] = None,
    ):
        self._results: Tuple[TrialResult, ...] = tuple(results)
        self.executor = executor
        #: Wall-clock of the whole campaign run (including scheduling
        #: and cache lookups), not the sum of per-trial walls.
        self.wall_s = wall_s
        self.name = name
        #: True when the run was stopped early (SIGINT/SIGTERM): the
        #: set holds only the trials that finished before the stop.
        self.interrupted = interrupted
        #: How many trials the campaign compiled; equals ``len(self)``
        #: unless the run was interrupted.
        self.planned = len(self._results) if planned is None else planned

    # -- sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[TrialResult]:
        return iter(self._results)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._derive(self._results[index])
        return self._results[index]

    def _derive(self, results: Sequence[TrialResult]) -> "ResultSet":
        return ResultSet(
            results, executor=self.executor, wall_s=self.wall_s,
            name=self.name, interrupted=self.interrupted,
            planned=self.planned,
        )

    # -- provenance --------------------------------------------------------
    @property
    def executed(self) -> int:
        return sum(1 for r in self._results if not r.cached)

    @property
    def cached(self) -> int:
        return sum(1 for r in self._results if r.cached)

    @property
    def cache_hit_rate(self) -> float:
        if not self._results:
            return 0.0
        return self.cached / len(self._results)

    @property
    def failed(self) -> int:
        """Trials whose outcome is not ``"ok"``."""
        return sum(1 for r in self._results if not r.ok)

    @property
    def quarantined(self) -> int:
        """Failed trials whose retryable class exhausted its attempts."""
        return sum(
            1
            for r in self._results
            if r.failure is not None and r.failure.quarantined
        )

    def failures(self) -> "ResultSet":
        """The failed trials, as a queryable subset."""
        return self._derive([r for r in self._results if not r.ok])

    def oks(self) -> "ResultSet":
        """The successful trials (safe to feed metric queries that
        assume a report is present)."""
        return self._derive([r for r in self._results if r.ok])

    def records(self) -> List[Dict]:
        return [r.record for r in self._results]

    # -- queries -----------------------------------------------------------
    def filter(
        self,
        predicate: Optional[Callable[[TrialResult], bool]] = None,
        **params: Any,
    ) -> "ResultSet":
        """Results matching ``predicate`` and/or parameter equality."""
        absent = object()   # a missing key never equals, so the row drops
        kept = []
        for result in self._results:
            if predicate is not None and not predicate(result):
                continue
            if any(
                result.value(key, default=absent) != value
                for key, value in params.items()
            ):
                continue
            kept.append(result)
        return self._derive(kept)

    def group_by(self, *keys: Metric) -> Dict[Any, "ResultSet"]:
        """Partition by metric value(s); single key -> scalar group
        keys, several keys -> tuples.  Insertion-ordered."""
        if not keys:
            raise ConfigurationError("group_by needs at least one key")
        groups: Dict[Any, List[TrialResult]] = {}
        for result in self._results:
            values = tuple(result.value(key) for key in keys)
            group = values[0] if len(keys) == 1 else values
            groups.setdefault(group, []).append(result)
        return {
            group: self._derive(members)
            for group, members in groups.items()
        }

    def aggregate(
        self,
        metric: Metric,
        agg: Union[str, Callable[[List[Any]], Any]] = "mean",
        by: Sequence[Metric] = (),
    ) -> Any:
        """Reduce ``metric`` over the set (or per ``by``-group)."""
        if callable(agg):
            reducer = agg
        else:
            reducer = AGGREGATIONS.get(agg)
            if reducer is None:
                raise ConfigurationError(
                    f"agg must be a callable or one of "
                    f"{sorted(AGGREGATIONS)}, not {agg!r}"
                )
        if by:
            return {
                group: reducer([r.value(metric) for r in members])
                for group, members in self.group_by(*by).items()
            }
        return reducer([r.value(metric) for r in self._results])

    def series(self, x: Metric, y: Metric) -> List[Tuple[Any, Any]]:
        """(x, y) pairs, chart-ready (``repro.analysis.ascii_chart``)."""
        return [(r.value(x), r.value(y)) for r in self._results]

    # -- presentation ------------------------------------------------------
    def param_keys(self) -> List[str]:
        keys: List[str] = []
        for result in self._results:
            for key in result.params:
                if key not in keys:
                    keys.append(key)
        return keys

    def _default_columns(self) -> List[Tuple[str, Metric]]:
        columns: List[Tuple[str, Metric]] = [
            (key, key) for key in self.param_keys()
        ]
        columns += [
            (
                "ok",
                lambda r: (
                    f"{r.report['n_ok']}/{r.report['n_transactions']}"
                    if r.ok
                    else "-"
                ),
            ),
            ("txn/s", "report.throughput_tps"),
            (
                "kbit/s",
                lambda r: r.report["goodput_bps"] / 1e3 if r.ok else "",
            ),
        ]
        if any(r.reliability for r in self._results):
            columns.append(
                ("recovery", "report.reliability.recovery_rate")
            )
        if any(not r.ok for r in self._results):
            columns.append(
                (
                    "outcome",
                    lambda r: r.outcome
                    + (
                        " (q)"
                        if r.failure is not None and r.failure.quarantined
                        else ""
                    ),
                )
            )
        columns.append(("cached", lambda r: "yes" if r.cached else "no"))
        return columns

    @staticmethod
    def _format_cell(value: Any) -> str:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return str(value)
        if isinstance(value, int):
            return str(value)
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.4g}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")

    def to_table(
        self,
        columns: Optional[Sequence[Union[Metric, Tuple[str, Metric]]]] = None,
        title: str = "",
    ) -> str:
        """Render as text via :func:`repro.analysis.format_table`."""
        from repro.analysis import format_table

        if columns is None:
            resolved = self._default_columns()
        else:
            resolved = [
                column if isinstance(column, tuple) else (str(column), column)
                for column in columns
            ]
        rows = [
            tuple(
                self._format_cell(result.value(metric, default=""))
                for _, metric in resolved
            )
            for result in self._results
        ]
        return format_table(
            [header for header, _ in resolved],
            rows,
            title=title or (self.name and f"campaign: {self.name}") or "",
        )

    def to_jsonl(self, path: str) -> int:
        """Write each result's canonical record line, as the store
        holds it; returns the number of lines written."""
        with open(path, "w") as handle:
            for result in self._results:
                handle.write(result.line + "\n")
        return len(self._results)

    def summary(self) -> str:
        label = self.name or "campaign"
        text = (
            f"{label}: {len(self)} trial(s) via {self.executor} executor — "
            f"{self.executed} executed, {self.cached} from cache "
            f"({self.cache_hit_rate:.0%}) in {self.wall_s * 1e3:.0f} ms"
        )
        if self.failed:
            text += (
                f"; {self.failed} FAILED"
                f" ({self.quarantined} quarantined)"
            )
        if self.interrupted:
            pending = self.planned - len(self)
            text += f"; INTERRUPTED with {pending} trial(s) pending"
        return text
