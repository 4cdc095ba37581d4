"""Determinism pass: no ambient entropy in simulation paths.

Trial records are content-addressed (SHA-256 over canonical JSON) and
byte-compared across backends and executors; any read of ambient
state — the global RNG, the wall clock, the process environment —
poisons the cache and the equivalence contract.  Seeded
``random.Random(seed)`` instances are the sanctioned randomness;
host-time reads are confined to the wall-clock module whitelist
below (executors measuring wall cost, schedulers enforcing wall
deadlines), which may use *relative* clocks (``perf_counter`` /
``monotonic``) but never absolute ones (``time.time``,
``datetime.now``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.astutil import call_name, dotted_name
from repro.lint.framework import FileContext, Finding, lint_pass

#: Modules allowed to read *relative* host clocks: they time trials,
#: enforce wall deadlines, or stage chaos drills — wall readings there
#: are reported separately and never enter content-addressed records.
WALL_CLOCK_MODULES: Set[str] = {
    "campaign/executors.py",
    "campaign/campaign.py",
    "campaign/chaos.py",
    "sim/scheduler.py",
    "scenario/runner.py",
    "batch/executor.py",
    "obs/wallclock.py",
    "serve/scheduler.py",   # token-bucket refill over time.monotonic
    "serve/client.py",      # watch polling deadlines
}

#: ``random.<attr>`` calls that hit the *global*, unseeded RNG.
#: ``random.Random`` (a seeded instance) is the sanctioned spelling.
_GLOBAL_RNG_OK = {"Random", "SystemRandom"}

#: Relative clocks: allowed in WALL_CLOCK_MODULES only.
_RELATIVE_CLOCKS = {"time.perf_counter", "time.monotonic",
                    "time.process_time", "time.thread_time"}

#: Absolute clocks: never allowed without a suppression.
_ABSOLUTE_CLOCKS = {"time.time", "time.time_ns", "time.localtime",
                    "time.gmtime", "time.ctime"}

_DATETIME_NOW = {"now", "utcnow", "today", "fromtimestamp"}


def _is_serialization_file(ctx: FileContext) -> bool:
    """Files where iteration order becomes bytes: anything defining a
    ``to_dict`` / signature projection, plus the canonical-JSON and
    content-addressing modules."""
    if ctx.relpath in {"campaign/trial.py", "batch/cache.py"}:
        return True
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "to_dict" or "signature" in node.name:
                return True
    return False


def _set_iteration_findings(ctx: FileContext) -> Iterator[Finding]:
    """Iterating a set in a serialisation path bakes hash order into
    output bytes.  ``sorted(...)`` over the set is the fix."""
    for node in ast.walk(ctx.tree):
        is_set = isinstance(node, (ast.Set, ast.SetComp)) or (
            isinstance(node, ast.Call)
            and call_name(node) in {"set", "frozenset"}
        )
        if not is_set:
            continue
        parent = ctx.parent(node)
        ordered_sink = None
        if isinstance(parent, (ast.For, ast.comprehension)) and \
                parent.iter is node:
            ordered_sink = "iterated"
        elif isinstance(parent, ast.Call) and node in parent.args:
            sink = call_name(parent)
            if sink in {"list", "tuple"} or (
                sink is not None and sink.endswith(".join")
            ):
                ordered_sink = f"passed to {sink}()"
        if ordered_sink is None:
            continue
        yield ctx.finding(
            "determinism",
            node,
            f"set {ordered_sink} in a serialisation path: iteration "
            "order is hash-order, which varies across interpreters "
            "and poisons content-addressed records",
            hint="wrap the set in sorted(...)",
        )


@lint_pass(
    "determinism",
    "no unseeded RNG, wall-clock or environment reads in sim paths",
)
def determinism(ctx: FileContext) -> Iterator[Finding]:
    in_wall_module = ctx.relpath in WALL_CLOCK_MODULES
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is None:
                continue
            if (
                name.startswith("random.")
                and name.split(".", 1)[1] not in _GLOBAL_RNG_OK
            ):
                yield ctx.finding(
                    "determinism",
                    node,
                    f"{name}() draws from the process-global RNG; "
                    "replays of the same trial will diverge",
                    hint="use a seeded random.Random(seed) instance",
                )
            elif name in _ABSOLUTE_CLOCKS:
                yield ctx.finding(
                    "determinism",
                    node,
                    f"{name}() reads the absolute wall clock; records "
                    "containing it can never be byte-identical across "
                    "runs",
                    hint="sim time is integer picoseconds from t=0; "
                         "wall cost belongs in the executor's wall_s",
                )
            elif name in _RELATIVE_CLOCKS and not in_wall_module:
                yield ctx.finding(
                    "determinism",
                    node,
                    f"{name}() outside the wall-clock module whitelist "
                    f"({', '.join(sorted(WALL_CLOCK_MODULES))})",
                    hint="time trials in the executor layer, or add a "
                         "justified suppression",
                )
            elif name == "os.getenv":
                yield ctx.finding(
                    "determinism",
                    node,
                    "os.getenv() makes results depend on the host "
                    "environment",
                    hint="thread configuration through documents/specs",
                )
            elif (
                name.startswith("datetime.")
                and name.split(".")[-1] in _DATETIME_NOW
            ):
                yield ctx.finding(
                    "determinism",
                    node,
                    f"{name}() reads the absolute wall clock",
                    hint="sim time is integer picoseconds from t=0",
                )
        elif isinstance(node, ast.Attribute):
            name = dotted_name(node)
            if name == "os.environ":
                yield ctx.finding(
                    "determinism",
                    node,
                    "os.environ read makes results depend on the host "
                    "environment",
                    hint="thread configuration through documents/specs",
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                bad = [
                    alias.name for alias in node.names
                    if alias.name not in _GLOBAL_RNG_OK
                ]
                if bad:
                    yield ctx.finding(
                        "determinism",
                        node,
                        "importing global-RNG functions from random "
                        f"({', '.join(bad)})",
                        hint="import random; use random.Random(seed)",
                    )
    if _is_serialization_file(ctx):
        yield from _set_iteration_findings(ctx)
