"""Chaos drill workload: trials that fail on purpose.

Hardened infrastructure needs a way to be *drilled*: the acceptance
bar for failure-as-data execution is a campaign whose trials raise,
hang past their wall-clock budget, and kill their worker process —
and the only honest way to express that under the campaign layer's
"execution is a pure function of the trial documents" rule is a
workload document that misbehaves when compiled.  :class:`Chaos` is
that document: a registered workload kind, so it crosses process
boundaries and content-hashes like any other workload.

Behaviours (``behavior=``):

* ``"ok"`` — post one normal message (a healthy control trial);
* ``"raise"`` — raise ``RuntimeError`` during compilation (a
  deterministic in-process failure → ``error`` outcome, no retry);
* ``"transient"`` — raise :class:`~repro.core.errors.TransientTrialError`
  (→ retried with backoff; deterministic, so retries exhaust and the
  failure is recorded with its attempt count);
* ``"flaky"`` — raise :class:`TransientTrialError` until ``token``
  (a scratch-file path) exists, creating it on the way out — the
  first retry then succeeds (the retry-recovers drill);
* ``"hang"`` — burn wall-clock in a sleep loop (bounded at
  ``hang_s``) so per-trial timeouts and worker kills can be
  exercised without a real runaway simulation;
* ``"crash"`` — ``os._exit(13)``: the worker dies without
  reporting, which only the process executor survives.

These are drills, not simulations: ``hang`` and ``crash`` trials
never produce a report and exist purely to exercise the executors'
failure paths (tests, CI smoke, and operator fire drills via
``workload: {"kind": "chaos", ...}`` campaign documents).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.addresses import Address
from repro.core.errors import ConfigurationError, TransientTrialError
from repro.scenario.workload import (
    PostEvent,
    Workload,
    register_workload_kind,
)

BEHAVIORS = ("ok", "raise", "transient", "flaky", "hang", "crash")


@register_workload_kind
@dataclass(frozen=True)
class Chaos(Workload):
    """A workload that misbehaves on compile — the failure drill."""

    behavior: str = "ok"
    #: Scratch-file path for ``"flaky"``: the failure clears once the
    #: file exists (the workload creates it as it raises).
    token: Optional[str] = None
    #: Wall-clock ceiling for ``"hang"`` — a backstop so a drill can
    #: never hang an un-timed campaign forever.
    hang_s: float = 60.0
    #: The healthy message posted by ``"ok"`` (and after a ``"flaky"``
    #: failure clears): first short-addressed non-mediator node.
    payload: bytes = b"\xc4\xa0\x5e"
    kind = "chaos"

    def _events(self, spec):
        if self.behavior not in BEHAVIORS:
            raise ConfigurationError(
                f"chaos behavior must be one of {BEHAVIORS}, "
                f"not {self.behavior!r}"
            )
        if self.behavior == "raise":
            raise RuntimeError("chaos: injected deterministic failure")
        if self.behavior == "transient":
            raise TransientTrialError("chaos: injected transient failure")
        if self.behavior == "flaky":
            if self.token is None:
                raise ConfigurationError(
                    "chaos 'flaky' needs a token file path"
                )
            if not os.path.exists(self.token):
                with open(self.token, "w") as handle:
                    handle.write("chaos\n")
                raise TransientTrialError(
                    "chaos: flaky failure (clears on retry)"
                )
        elif self.behavior == "hang":
            deadline = time.perf_counter() + self.hang_s
            while time.perf_counter() < deadline:
                time.sleep(0.01)
            raise TransientTrialError(
                f"chaos: hang drill outlived its {self.hang_s}s backstop "
                "without being timed out or killed"
            )
        elif self.behavior == "crash":
            os._exit(13)
        source = spec.mediator_name
        target = next(
            (
                node
                for node in spec.nodes
                if node.short_prefix is not None and node.name != source
            ),
            None,
        )
        if target is None:
            raise ConfigurationError(
                "chaos 'ok' needs a short-addressed non-mediator node"
            )
        yield PostEvent(
            at_s=0.0,
            source=source,
            dest=Address.short(target.short_prefix, 0),
            payload=self.payload,
        )
