"""Trials: the compiled, content-addressed unit of campaign work.

A :class:`Trial` is one fully-resolved experiment: plain JSON
documents for the topology (``spec_doc``), traffic (``workload_doc``)
and adversity (``faults_doc``), plus the requested backend and
timeout.  Compiling campaigns down to documents *before* execution is
what buys every property the campaign layer promises:

* **determinism / order independence** — executing a trial is a pure
  function of its documents (workload and fault factories already ran
  in the parent, seeds and all), so serial, process-parallel and
  shuffled executions produce identical records;
* **parallelism** — documents pickle trivially across process
  boundaries; no simulator state, factory closure or live object
  ever crosses;
* **memoisation** — :attr:`Trial.key` is a SHA-256 over the canonical
  JSON of the spec/workload/faults/backend documents, giving the
  :class:`~repro.campaign.store.ResultStore` a content address that
  survives interpreter restarts and is insensitive to dict ordering.

Documents in, lines out: :func:`execute_trial` is the only way a
trial runs, and it returns the trial's *record* as its canonical JSON
line.  A record is a JSON document holding the trial's key, parameters
and the :meth:`RunReport.to_dict` report with its ``wall_s`` /
``wall_throughput_tps`` fields removed (wall-clock noise must never
enter a content-addressed record — two byte-identical runs would
otherwise hash the weather of the host machine).  Wall time is
reported separately, per execution, on the
:class:`~repro.campaign.resultset.TrialResult`.

Each record is encoded once.  A trial carries the canonical JSON of
its spec (:attr:`Trial.spec_json`), which the campaign compiler makes
once per distinct spec; :attr:`Trial.key` splices it in, and
:func:`execute_trial` finds the spec in a memo keyed by that JSON
(:func:`encode_spec` / :func:`decode_spec`), so the compiled-system
cache's digest and the record's embedded spec come from one encoding
per campaign.  A trial that runs on the batch tier — ``"batch"``, or
``"auto"`` with no faults document — builds its line straight from
the batch tier's round log
(:func:`repro.scenario.runner.run_batch_record`), and no record dict
exists at all.  A pool worker sends the line back to the parent, the
store appends it as it is, and nothing decodes it until a reader asks
for the record.

A record's ``backend`` field names the tier that ran the trial (an
ok record) or the requested backend (a failure record, which may
have failed before any tier was chosen).  :attr:`Trial.key` hashes
the requested backend, so ``auto`` keys are independent of the tier
it resolves to; a store that holds ``auto`` records written while
``auto`` resolved to ``"fast"`` keeps serving them under the same
keys, and they differ from batch-written ones only in ``backend``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.schema import (
    REPORT_SCHEMA_VERSION,
    Encoded,
    canonical_json,
    splice_json,
    take_keys,
)

if TYPE_CHECKING:
    from repro.scenario.spec import SystemSpec

#: Decoded specs kept by :func:`decode_spec`; past this many distinct
#: specs the memo starts afresh.
MAX_DECODED_SPECS = 64

_decoded_specs: Dict[str, "SystemSpec"] = {}


def derive_trial_seed(campaign_seed: int, point: Dict[str, Any]) -> int:
    """A per-trial seed that is a pure function of (campaign seed,
    grid point) — stable across interpreters, processes and execution
    order (unlike ``hash()``, which is salted per process)."""
    digest = hashlib.sha256(
        canonical_json([campaign_seed, point]).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Trial:
    """One fully-resolved experiment, ready to execute anywhere."""

    index: int
    params: Dict[str, Any]
    spec_doc: Dict
    workload_doc: Dict
    faults_doc: Optional[Dict] = None
    backend: str = "auto"
    timeout_s: Optional[float] = None
    #: Per-trial wall-clock budget (host seconds).  Execution policy,
    #: not content: two trials differing only in their wall budget are
    #: the same experiment, so this field never enters :attr:`key`.
    wall_timeout_s: Optional[float] = None
    #: ``canonical_json(spec_doc)``.  The campaign compiler passes the
    #: one encoding it makes of each distinct spec; left empty, it is
    #: derived from ``spec_doc`` on construction.  Never compared:
    #: it is the same content as ``spec_doc``.
    spec_json: str = field(default="", compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.spec_json:
            object.__setattr__(
                self, "spec_json", canonical_json(self.spec_doc)
            )

    @functools.cached_property
    def key(self) -> str:
        """Content address: SHA-256 of the canonical trial documents.

        ``params`` are deliberately excluded — they are provenance
        (how the grid named this point), not content; two grids that
        compile to the same documents share one cache entry.
        ``wall_timeout_s`` is excluded for the same reason: a
        wall-clock budget is how the trial is *executed*, not what it
        *is*.  The spec's bytes are :attr:`spec_json`, spliced in.
        """
        return hashlib.sha256(
            splice_json(
                {
                    "spec": Encoded(self.spec_json),
                    "workload": self.workload_doc,
                    "faults": self.faults_doc,
                    "backend": self.backend,
                    "timeout_s": self.timeout_s,
                }
            ).encode()
        ).hexdigest()

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "params": dict(self.params),
            "spec": self.spec_doc,
            "workload": self.workload_doc,
            "faults": self.faults_doc,
            "backend": self.backend,
            "timeout_s": self.timeout_s,
            "wall_timeout_s": self.wall_timeout_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Trial":
        # The document is the fields, each ``*_doc`` written without
        # its suffix; ``spec_json`` is derived from ``spec_doc``.
        allowed = {
            f.name.removesuffix("_doc") for f in dataclasses.fields(cls)
        } - {"spec_json"}
        data = take_keys(data, allowed, "Trial", lenient=False)
        return cls(
            index=data["index"],
            params=data["params"],
            spec_doc=data["spec"],
            workload_doc=data["workload"],
            faults_doc=data.get("faults"),
            backend=data.get("backend", "auto"),
            timeout_s=data.get("timeout_s"),
            wall_timeout_s=data.get("wall_timeout_s"),
        )


def decode_spec(spec_json: str, spec_doc: Dict) -> "SystemSpec":
    """``SystemSpec.from_dict(spec_doc)``, decoded once per distinct
    spec: memoised by ``spec_json`` (the document's canonical JSON, so
    by content, never by object identity).  The shared instance also
    encodes and hashes itself once (:attr:`SystemSpec.encoded`,
    :attr:`SystemSpec.digest`) for every trial that uses it."""
    spec = _decoded_specs.get(spec_json)
    if spec is None:
        from repro.scenario.spec import SystemSpec

        spec = SystemSpec.from_dict(spec_doc)
        _remember(spec_json, spec)
    return spec


def encode_spec(spec: "SystemSpec") -> str:
    """``spec``'s canonical JSON (:attr:`SystemSpec.encoded`), with
    ``spec`` remembered as its decoding: a spec round-trips through
    its document, so :func:`decode_spec` may hand back this instance,
    and the campaign compiler's one encoding is the only one."""
    _remember(spec.encoded, spec)
    return spec.encoded


def _remember(spec_json: str, spec: "SystemSpec") -> None:
    if len(_decoded_specs) >= MAX_DECODED_SPECS:
        _decoded_specs.clear()
    _decoded_specs[spec_json] = spec


def _envelope(trial: Trial, backend: Any, report: Any) -> Dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "key": trial.key,
        "params": dict(trial.params),
        "backend": backend,
        "outcome": "ok",
        "report": report,
    }


def trial_record(trial: Trial, report_doc: Dict) -> Dict:
    """The store record for one executed trial.

    ``report_doc`` is :meth:`RunReport.to_dict` output; its
    ``wall_s`` is dropped so the record is a pure function of the
    trial documents (the byte-identity contract tested by
    ``tests/integration/test_campaign.py``).
    """
    doc = dict(report_doc)
    doc.pop("wall_s", None)
    doc.pop("wall_throughput_tps", None)
    return _envelope(trial, doc.get("backend"), doc)


def execute_trial(trial: Trial) -> Tuple[str, float]:
    """Run one trial in this process: the only way a campaign trial
    runs, on the serial executor, in a pool worker and under serve.

    Returns ``(line, wall_s)``: the trial's record as the canonical
    JSON line the store appends, and the wall-clock cost of this
    execution.

    The trial's tier is :func:`~repro.scenario.runner.select_backend`'s
    choice, exactly as :func:`~repro.scenario.runner.run` makes it for
    the trial's documents, so an ``"auto"`` trial with no faults
    document runs on the batch tier.  A batch trial never builds a
    live report or a record dict: its line comes straight from the
    batch tier's round log, byte-identical to
    ``canonical_json(trial_record(trial, run(...).to_dict()))``.
    Every other trial runs through :func:`~repro.scenario.runner.run`.
    """
    from repro.faults.primitives import FaultSpec
    from repro.scenario.runner import run, run_batch_record, select_backend
    from repro.scenario.workload import workload_from_dict

    spec = decode_spec(trial.spec_json, trial.spec_doc)
    workload = workload_from_dict(trial.workload_doc)
    faults = (
        None
        if trial.faults_doc is None
        else FaultSpec.from_dict(trial.faults_doc)
    )
    mode = select_backend(
        trial.backend,
        faults_active=bool(faults),
        live_system=faults is not None,
    )
    if mode == "batch":
        report_json, wall_s = run_batch_record(
            spec,
            workload,
            timeout_s=trial.timeout_s,
            wall_timeout_s=trial.wall_timeout_s,
        )
        line = splice_json(
            _envelope(trial, "batch", Encoded(report_json))
        )
        return line, wall_s
    report = run(
        spec,
        workload,
        backend=mode,
        timeout_s=trial.timeout_s,
        faults=faults,
        wall_timeout_s=trial.wall_timeout_s,
    )
    return (
        canonical_json(trial_record(trial, report.to_dict())),
        report.wall_s,
    )


def run_trial_document(trial_doc: Dict) -> Tuple[int, Dict, str, float]:
    """Execute a trial shipped as a document, as a pool worker does,
    and decode its record: ``(index, record, line, wall_s)``.

    For in-process replays and tests that read the record.  A pool
    worker calls :func:`execute_trial` itself and sends only the line
    and the wall time back, so neither side decodes the record.
    """
    trial = Trial.from_dict(trial_doc)
    line, wall_s = execute_trial(trial)
    return trial.index, json.loads(line), line, wall_s


def patch_document(document: Any, path: str, value: Any, what: str) -> None:
    """Set ``path`` (dotted, with integer segments indexing lists) in
    a JSON document in place — the mechanism behind ``workload.*`` /
    ``faults.*`` / ``system.*`` grid axes.

    Only *existing* dict keys may be patched: a typo in an axis name
    must fail compilation, not silently sweep nothing.
    """
    parts = path.split(".")
    target = document
    trail = what
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if isinstance(target, list):
            try:
                index = int(part)
            except ValueError:
                raise ConfigurationError(
                    f"{trail} is a list; {part!r} is not an index"
                ) from None
            if not -len(target) <= index < len(target):
                raise ConfigurationError(
                    f"{trail} has {len(target)} entries; "
                    f"index {index} is out of range"
                )
            if last:
                target[index] = value
            else:
                target = target[index]
        elif isinstance(target, dict):
            if part not in target:
                raise ConfigurationError(
                    f"{trail} has no field {part!r} "
                    f"(existing: {', '.join(sorted(map(str, target)))})"
                )
            if last:
                target[part] = value
            else:
                target = target[part]
        else:
            raise ConfigurationError(
                f"{trail} is a {type(target).__name__}; cannot descend "
                f"into {part!r}"
            )
        trail = f"{trail}.{part}"
