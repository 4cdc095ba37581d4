"""The Campaign: a declarative, executable experiment study.

A :class:`Campaign` binds together everything one parameter study
needs — a base :class:`~repro.scenario.spec.SystemSpec`, a workload
(fixed :class:`~repro.scenario.workload.Workload` or a factory
``params -> Workload``), an optional fault set (fixed or factory),
and a :class:`~repro.campaign.grid.Grid` of parameter points — and
compiles it to an explicit list of content-addressed
:class:`~repro.campaign.trial.Trial` documents.

Grid axes are consumed, per point, in this order:

1. axes naming :class:`SystemSpec` fields (``clock_hz``,
   ``max_message_bytes``, ...) override the spec;
2. dotted axes patch the compiled documents in place:
   ``workload.<path>``, ``faults.<path>`` and ``system.<path>``
   (integer segments index lists, e.g.
   ``faults.faults.0.rate_hz``);
3. every axis is passed to callable workload/fault factories via the
   point's ``params`` dict;
4. a non-dotted, non-spec axis with *neither* factory present is a
   compile error — it would sweep nothing.

With ``seed=`` set, each point's params also gain a ``trial_seed``
(a pure function of campaign seed and point — see
:func:`~repro.campaign.trial.derive_trial_seed`), so randomised
workloads stay execution-order independent.

Execution (:meth:`Campaign.run`) is memoised through a
:class:`~repro.campaign.store.ResultStore`, *failure-isolating* (a
trial that raises, times out, or kills its worker becomes a
structured failure record — see :mod:`repro.campaign.failures` — and
the campaign keeps going) and pluggable.  A campaign carries data,
never code: every trial runs through
:func:`~repro.campaign.trial.execute_trial`, documents in and the
record's store line out, on either executor:

* ``executor="serial"`` — in-process, in trial order;
* ``executor="process"`` — the crash-isolating
  :class:`~repro.campaign.executors.ProcessPool`: trials cross the
  boundary as JSON documents and record lines come back, so results
  are identical to serial execution byte for byte; a worker that dies
  mid-trial is replaced and only its trial records ``crashed``.

A study that needs code — a ``setup`` hook, an edge waveform trace, a
live :class:`~repro.scenario.runner.RunReport` — calls
:func:`repro.scenario.run` itself.

Future sharded/async backends plug in at the same seam: a list of
:class:`Trial` documents in, records keyed by content hash out.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.campaign.executors import ProcessPool, run_serial
from repro.campaign.failures import (
    RetryPolicy,
    normalize_retry,
    record_is_quarantined,
)
from repro.campaign.grid import Grid, GridLike, as_grid
from repro.campaign.resultset import ResultSet, TrialResult
from repro.campaign.store import ResultStore
from repro.campaign.trial import (
    Trial,
    canonical_json,
    decode_spec,
    derive_trial_seed,
    encode_spec,
    patch_document,
)
from repro.core.errors import ConfigurationError
from repro.core.schema import take_keys
from repro.faults.primitives import FaultSpec, normalize_faults
from repro.obs.state import OBS
from repro.scenario.runner import BACKENDS, check_timeouts
from repro.scenario.spec import SystemSpec
from repro.scenario.workload import Workload, workload_from_dict

EXECUTORS = ("serial", "process")

StoreLike = Union[ResultStore, str, None]

#: progress callback: (completed_so_far, total_planned, latest_result)
ProgressCallback = Callable[[int, int, TrialResult], None]


def _as_store(store: StoreLike, readonly: bool = False) -> ResultStore:
    if store is None:
        return ResultStore.memory()
    if isinstance(store, ResultStore):
        return store
    return ResultStore(store, readonly=readonly)


@dataclass
class Campaign:
    """A declarative experiment study over a parameter grid."""

    spec: SystemSpec
    workload: Union[Workload, Callable[[Dict[str, Any]], Workload]]
    grid: Optional[GridLike] = None
    faults: Any = None
    backend: str = "auto"
    name: str = ""
    timeout_s: Optional[float] = None
    #: When set, injects a deterministic ``trial_seed`` into every
    #: point's params (for factories building seeded workloads).
    seed: Optional[int] = None
    #: Per-trial wall-clock budget (host seconds): the simulator
    #: raises :class:`~repro.core.errors.WallClockTimeout` past it,
    #: and the process executor SIGKILLs a worker that overshoots the
    #: hard deadline.  Execution policy — never part of trial keys.
    wall_timeout_s: Optional[float] = None
    #: Retry policy for failing trials: a
    #: :class:`~repro.campaign.failures.RetryPolicy`, a dict of its
    #: fields, or None for the defaults.
    retry: Any = None

    # ------------------------------------------------------------------
    # Compilation.
    # ------------------------------------------------------------------
    def _workload_is_factory(self) -> bool:
        return callable(self.workload) and not isinstance(
            self.workload, Workload
        )

    def _faults_is_factory(self) -> bool:
        return callable(self.faults) and not isinstance(
            self.faults, (FaultSpec,)
        )

    def trials(self) -> List[Trial]:
        """Compile the campaign to its explicit, ordered trial list."""
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, not {self.backend!r}"
            )
        check_timeouts(
            timeout_s=self.timeout_s, wall_timeout_s=self.wall_timeout_s
        )
        grid = None if self.grid is None else as_grid(self.grid)
        points = [{}] if grid is None else grid.points()
        spec_fields = {
            f.name for f in dataclasses.fields(SystemSpec)
        } - {"nodes"}
        workload_factory = self._workload_is_factory()
        faults_factory = self._faults_is_factory()
        if not workload_factory and not isinstance(self.workload, Workload):
            raise ConfigurationError(
                "a campaign workload must be a Workload or a factory "
                f"params -> Workload, got {self.workload!r}"
            )
        trials: List[Trial] = []
        # One validated spec, document and encoding per distinct set
        # of spec-field overrides (keyed by their canonical JSON), not
        # per point: trials of one spec share them, and execution
        # reuses the spec itself (see encode_spec).
        point_specs: Dict[str, Tuple[SystemSpec, Dict, str]] = {}
        for index, point in enumerate(points):
            params = dict(point)
            if self.seed is not None:
                params["trial_seed"] = derive_trial_seed(self.seed, point)
            overrides = {
                k: v for k, v in params.items() if k in spec_fields
            }
            overrides_key = canonical_json(overrides) if overrides else ""
            entry = point_specs.get(overrides_key)
            if entry is None:
                point_spec = (
                    self.spec.replace(**overrides) if overrides
                    else self.spec
                )
                point_spec.validate()
                entry = point_specs[overrides_key] = (
                    point_spec, point_spec.to_dict(), encode_spec(point_spec)
                )
            point_spec, spec_doc, spec_json = entry

            workload = (
                self.workload(params) if workload_factory else self.workload
            )
            if not isinstance(workload, Workload):
                raise ConfigurationError(
                    "the workload factory must return a Workload, got "
                    f"{workload!r} for params {params!r}"
                )
            workload_doc = workload.to_dict()

            point_faults = (
                self.faults(params)
                if faults_factory
                else normalize_faults(self.faults)
            )
            if point_faults is not None and not isinstance(
                point_faults, FaultSpec
            ):
                point_faults = normalize_faults(point_faults)
            faults_doc = (
                None if point_faults is None else point_faults.to_dict()
            )

            patched_spec = any(key.startswith("system.") for key in params)
            if patched_spec:
                spec_doc = point_spec.to_dict()   # patched in place below
            consumed = set(overrides)
            for key, value in params.items():
                root, dot, rest = key.partition(".")
                if not dot:
                    continue
                if root == "workload":
                    patch_document(workload_doc, rest, value, "workload")
                elif root == "faults":
                    if faults_doc is None:
                        raise ConfigurationError(
                            f"grid axis {key!r} patches the faults "
                            "document, but the campaign has no faults"
                        )
                    patch_document(faults_doc, rest, value, "faults")
                elif root == "system":
                    patch_document(spec_doc, rest, value, "system")
                else:
                    raise ConfigurationError(
                        f"dotted grid axis {key!r} must start with "
                        "'workload.', 'faults.' or 'system.'"
                    )
                consumed.add(key)
            if patched_spec:
                spec_json = canonical_json(spec_doc)
                decode_spec(spec_json, spec_doc).validate()

            leftover = [
                k
                for k in params
                if k not in consumed and k != "trial_seed"
            ]
            if leftover and not workload_factory and not faults_factory:
                raise ConfigurationError(
                    f"grid key(s) {leftover!r} are not SystemSpec fields "
                    "or document patches, and neither the workload nor "
                    "the faults argument is a factory; they would have "
                    "no effect"
                )

            trials.append(
                Trial(
                    index=index,
                    params=params,
                    spec_doc=spec_doc,
                    workload_doc=workload_doc,
                    faults_doc=faults_doc,
                    backend=self.backend,
                    timeout_s=self.timeout_s,
                    wall_timeout_s=self.wall_timeout_s,
                    spec_json=spec_json,
                )
            )
        return trials

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(
        self,
        executor: str = "serial",
        workers: Optional[int] = None,
        store: StoreLike = None,
        resume: bool = True,
        order: Optional[Sequence[int]] = None,
        dedupe: bool = True,
        retry: Any = None,
        retry_failed: bool = False,
        retry_quarantined: bool = False,
        wall_timeout_s: Optional[float] = None,
        stop: Optional[threading.Event] = None,
        install_signal_handlers: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> ResultSet:
        """Execute the campaign and return its :class:`ResultSet`.

        ``store`` — a :class:`ResultStore`, a directory path, or
        ``None`` for an in-memory scratch store.  ``resume=True``
        serves any trial whose key is already stored from cache —
        including stored *failures*: a failed trial is not re-executed
        unless ``retry_failed=True`` (or, for quarantined failures,
        ``retry_quarantined=True``).

        ``order`` — an optional permutation of trial indices fixing
        *execution* order (results always come back in trial order);
        the sharding hook, and the lever the determinism tests use.

        ``dedupe=False`` re-executes trials whose documents are
        identical instead of aliasing them to one execution.

        ``retry`` / ``wall_timeout_s`` override the campaign-level
        fields for this run.  ``stop`` is an optional external stop
        event; ``install_signal_handlers=True`` (main thread only)
        wires SIGINT/SIGTERM to it, so an interrupted run checkpoints
        every completed trial and returns a partial, resumable
        :class:`ResultSet` with ``interrupted=True`` instead of dying
        mid-write.

        ``progress`` — an optional callback invoked as
        ``progress(done, total, result)`` each time a trial resolves
        (cache hit, fresh outcome, or alias), from the calling
        thread; the CLI's progress line rides on it.
        """
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTORS}, not {executor!r}"
            )
        check_timeouts(wall_timeout_s=wall_timeout_s)
        start = time.perf_counter()
        policy = (
            normalize_retry(retry)
            or normalize_retry(self.retry)
            or RetryPolicy()
        )
        effective_wall = (
            self.wall_timeout_s if wall_timeout_s is None else wall_timeout_s
        )
        trials = self.trials()
        if wall_timeout_s is not None:
            trials = [
                dataclasses.replace(trial, wall_timeout_s=wall_timeout_s)
                for trial in trials
            ]
        live_store = _as_store(store)

        exec_order = list(range(len(trials)))
        if order is not None:
            order = list(order)
            if sorted(order) != exec_order:
                raise ConfigurationError(
                    "order must be a permutation of the trial indices "
                    f"0..{len(trials) - 1}"
                )
            exec_order = order

        total = len(trials)
        results: Dict[int, TrialResult] = {}

        def _resolved(result: TrialResult) -> None:
            results[result.trial.index] = result
            if progress is not None:
                progress(len(results), total, result)

        def _execute() -> ResultSet:
            pending: List[Trial] = []
            for index in exec_order:
                trial = trials[index]
                if resume:
                    cached = live_store.result(trial)
                    if cached is not None and not self._should_redo(
                        cached, retry_failed, retry_quarantined
                    ):
                        if OBS.enabled:
                            OBS.metrics.inc("campaign.cache_hits")
                        _resolved(cached)
                        continue
                pending.append(trial)

            # Within one run, identical documents mean identical
            # results: execute the first occurrence, alias the rest
            # (unless the caller asked for brute-force re-execution).
            to_execute: List[Trial] = []
            aliases: List[Trial] = []
            if dedupe:
                seen: Dict[str, Trial] = {}
                for trial in pending:
                    if trial.key in seen:
                        aliases.append(trial)
                    else:
                        seen[trial.key] = trial
                        to_execute.append(trial)
            else:
                to_execute = pending

            fresh: Set[str] = set()

            def on_outcome(trial: Trial, line: str, wall_s: float) -> None:
                live_store.put(line=line)
                fresh.add(trial.key)
                result = live_store.result(trial, cached=False, wall_s=wall_s)
                assert result is not None
                if OBS.enabled:
                    OBS.metrics.inc(
                        "campaign.outcomes",
                        labels={"outcome": result.outcome},
                    )
                    if not result.ok and record_is_quarantined(
                        result.record
                    ):
                        OBS.metrics.inc("campaign.quarantined")
                _resolved(result)

            stop_event = stop or threading.Event()
            restore: List = []
            if (
                install_signal_handlers
                and threading.current_thread() is threading.main_thread()
            ):
                def _graceful(_signum, _frame):
                    stop_event.set()

                for signum in (signal.SIGINT, signal.SIGTERM):
                    restore.append(
                        (signum, signal.signal(signum, _graceful))
                    )
            interrupted = False
            try:
                if executor == "serial":
                    interrupted = run_serial(
                        to_execute, on_outcome, policy, stop_event
                    )
                elif to_execute:
                    pool = ProcessPool(
                        workers=workers,
                        policy=policy,
                        wall_timeout_s=effective_wall,
                    )
                    interrupted = pool.run(
                        to_execute, on_outcome, stop_event
                    )
            finally:
                live_store.sync()
                for signum, previous in restore:
                    signal.signal(signum, previous)
            for trial in aliases:
                # An alias only resolves if its twin actually finished
                # (an interrupted run may have left it pending); the
                # twin's line is then in the store.
                if trial.key not in fresh:
                    continue
                alias = live_store.result(trial)
                assert alias is not None
                if OBS.enabled:
                    OBS.metrics.inc("campaign.aliases")
                _resolved(alias)

            return ResultSet(
                [
                    results[index]
                    for index in range(len(trials))
                    if index in results
                ],
                executor=executor,
                wall_s=time.perf_counter() - start,
                name=self.name,
                interrupted=interrupted,
                planned=len(trials),
            )

        if not OBS.enabled:
            return _execute()
        OBS.metrics.inc("campaign.runs")
        OBS.metrics.set("campaign.trials_planned", total)
        tracer = OBS.tracer
        if tracer is None:
            return _execute()
        with tracer.span(
            "campaign",
            cat="campaign",
            label=self.name or "campaign",
            executor=executor,
            trials=total,
        ):
            return _execute()

    @staticmethod
    def _should_redo(
        cached: TrialResult, retry_failed: bool, retry_quarantined: bool
    ) -> bool:
        """Resume policy: is this cached result stale enough to
        re-execute?  Successes never are (and are not decoded to
        tell); failures only on request, and quarantined failures only
        on *explicit* request."""
        if cached.ok:
            return False
        if record_is_quarantined(cached.record):
            return retry_quarantined
        return retry_failed or retry_quarantined

    # ------------------------------------------------------------------
    # Status.
    # ------------------------------------------------------------------
    def status(self, store: StoreLike) -> "CampaignStatus":
        """How much of this campaign the store already holds, split
        by outcome: per-outcome counts (``ok`` / ``error`` /
        ``timeout`` / ``crashed``), total retries spent (attempts
        beyond the first, summed over failure records), and the
        quarantine list (trial indices).

        A path store is opened *readonly*: status is an observer, and
        must tolerate (never truncate) the torn tail of a log another
        process — a running campaign, the campaign server — is
        actively appending to."""
        live_store = _as_store(store, readonly=True)
        trials = self.trials()
        cached = failed = retries = 0
        outcomes = {"ok": 0, "error": 0, "timeout": 0, "crashed": 0}
        quarantined_trials: List[int] = []
        for trial in trials:
            result = live_store.result(trial)
            if result is None:
                continue
            cached += 1
            outcome = result.outcome   # an ok one decodes nothing
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if result.ok:
                continue
            failed += 1
            record = result.record
            failure = record.get("failure")
            if failure:
                retries += max(0, int(failure.get("attempts", 1)) - 1)
            if record_is_quarantined(record):
                quarantined_trials.append(trial.index)
        return CampaignStatus(
            name=self.name,
            n_trials=len(trials),
            cached=cached,
            failed=failed,
            quarantined=len(quarantined_trials),
            store_path=(
                None if live_store.path is None else str(live_store.path)
            ),
            outcomes=outcomes,
            retries=retries,
            quarantined_trials=tuple(quarantined_trials),
        )

    # ------------------------------------------------------------------
    # Serialisation (data campaigns only — factories are code).
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        if self._workload_is_factory() or self._faults_is_factory():
            raise ConfigurationError(
                "a campaign with workload/fault factories is code, not "
                "data; express the variation as grid document patches "
                "(workload.*, faults.*) to serialise it"
            )
        faults = normalize_faults(self.faults)
        return {
            "name": self.name,
            "system": self.spec.to_dict(),
            "workload": self.workload.to_dict(),
            "faults": None if faults is None else faults.to_dict(),
            "grid": (
                None if self.grid is None else as_grid(self.grid).to_dict()
            ),
            "backend": self.backend,
            "timeout_s": self.timeout_s,
            "seed": self.seed,
            "wall_timeout_s": self.wall_timeout_s,
            "retry": (
                None
                if self.retry is None
                else normalize_retry(self.retry).to_dict()
            ),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], lenient: bool = False
    ) -> "Campaign":
        # The document is the fields, with ``spec`` written as
        # ``system``.
        allowed = {f.name for f in dataclasses.fields(cls)} - {"spec"}
        data = take_keys(data, allowed | {"system"}, "Campaign", lenient)
        for required in ("system", "workload"):
            if required not in data:
                raise ConfigurationError(
                    f"a campaign document needs a {required!r} key"
                )
        faults_doc = data.get("faults")
        grid_doc = data.get("grid")
        return cls(
            spec=SystemSpec.from_dict(data["system"], lenient=lenient),
            workload=workload_from_dict(data["workload"], lenient=lenient),
            faults=(
                None
                if faults_doc is None
                else FaultSpec.from_dict(faults_doc, lenient=lenient)
            ),
            grid=None if grid_doc is None else as_grid(grid_doc),
            backend=data.get("backend", "auto"),
            name=data.get("name", ""),
            timeout_s=data.get("timeout_s"),
            seed=data.get("seed"),
            wall_timeout_s=data.get("wall_timeout_s"),
            retry=normalize_retry(data.get("retry")),
        )


@dataclass(frozen=True)
class CampaignStatus:
    """Cache coverage of a campaign against one store."""

    name: str
    n_trials: int
    cached: int
    failed: int = 0
    quarantined: int = 0
    store_path: Optional[str] = None
    #: Per-outcome record counts over the cached trials.
    outcomes: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Attempts beyond the first, summed over stored failure records.
    retries: int = 0
    #: Trial indices whose stored failure is quarantined.
    quarantined_trials: Sequence[int] = ()

    @property
    def pending(self) -> int:
        return self.n_trials - self.cached

    @property
    def complete(self) -> bool:
        return self.cached == self.n_trials

    # lint: disable=schema -- one-way analytic report; records are re-derived from runs, never loaded back
    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "n_trials": self.n_trials,
            "cached": self.cached,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "pending": self.pending,
            "complete": self.complete,
            "store": self.store_path,
            "outcomes": dict(self.outcomes),
            "retries": self.retries,
            "quarantined_trials": list(self.quarantined_trials),
        }

    def summary(self) -> str:
        label = self.name or "campaign"
        where = f" in {self.store_path}" if self.store_path else ""
        text = (
            f"{label}: {self.cached}/{self.n_trials} trial(s) cached"
            f"{where}, {self.pending} pending"
        )
        counted = {
            k: v for k, v in self.outcomes.items() if v and k != "ok"
        }
        if self.failed:
            breakdown = ", ".join(
                f"{count} {outcome}"
                for outcome, count in sorted(counted.items())
            )
            text += (
                f"; {self.failed} FAILED ({breakdown}; "
                f"{self.quarantined} quarantined)"
            )
        if self.retries:
            text += f"; {self.retries} retr{'y' if self.retries == 1 else 'ies'} spent"
        if self.quarantined_trials:
            shown = ", ".join(
                str(index) for index in list(self.quarantined_trials)[:10]
            )
            more = len(self.quarantined_trials) - 10
            if more > 0:
                shown += f", ... +{more} more"
            text += f"\n  quarantined trial(s): {shown}"
        return text


def load_campaign(
    source: Union[str, Dict], lenient: bool = False
) -> Campaign:
    """Load a :class:`Campaign` from a JSON file or parsed dict."""
    if isinstance(source, str):
        with open(source) as handle:
            document = json.load(handle)
    else:
        document = source
    if not isinstance(document, dict):
        raise ConfigurationError("a campaign document must be a JSON object")
    return Campaign.from_dict(document, lenient=lenient)
