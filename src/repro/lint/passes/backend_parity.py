"""Backend-parity pass: the backend registry is internally consistent.

Checks that ``BACKEND_TABLE`` has unique names and exactly one
selector whose capability flags are the union of the concrete tiers,
that every backend ``select_backend`` can return is registered, and
that CLI backend-name defaults name registered backends.  (The tiers
share the core's construction checks, so a bad spec fails with the
same error everywhere by construction; ``TestValidationParity`` in
``tests/unit/test_batch_compiler.py`` checks that end to end.)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.astutil import assigned_name, call_name, string_template
from repro.lint.framework import FileContext, Finding, lint_pass

_RUNNER_FILE = "scenario/runner.py"
_CLI_FILE = "__main__.py"

_CAPABILITY_FLAGS = ("supports_trace", "supports_faults", "supports_setup")


def _backend_table(
    ctx: FileContext,
) -> Optional[Tuple[ast.Assign, List[Dict[str, object]]]]:
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and \
                assigned_name(node) == "BACKEND_TABLE":
            value = node.value
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name) and \
                node.target.id == "BACKEND_TABLE":
            value = node.value
        else:
            continue
        if not isinstance(value, (ast.Tuple, ast.List)):
            return None
        entries: List[Dict[str, object]] = []
        for element in value.elts:
            if not (
                isinstance(element, ast.Call)
                and call_name(element) == "BackendInfo"
            ):
                continue
            entry: Dict[str, object] = {"_node": element}
            if element.args and isinstance(element.args[0], ast.Constant):
                entry["name"] = element.args[0].value
            for kw in element.keywords:
                if isinstance(kw.value, ast.Constant):
                    entry[kw.arg] = kw.value.value
            entries.append(entry)
        return node, entries
    return None


def _selector_returns(ctx: FileContext) -> List[Tuple[ast.AST, str]]:
    fn = ctx.find_function("select_backend")
    if fn is None:
        return []
    literals: List[Tuple[ast.AST, str]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and \
                        isinstance(sub.value, str):
                    literals.append((node, sub.value))
    return literals


def _registry_findings(ctx: FileContext) -> Iterator[Finding]:
    table = _backend_table(ctx)
    if table is None:
        yield ctx.finding(
            "backend-parity",
            ctx.tree,
            "BACKEND_TABLE literal not found in scenario/runner.py; "
            "the registry consistency checks cannot run",
            hint="keep BACKEND_TABLE a module-level tuple of "
                 "BackendInfo(...) literals",
        )
        return
    node, entries = table
    names = [e.get("name") for e in entries]
    seen = set()
    for entry in entries:
        name = entry.get("name")
        if name in seen:
            yield ctx.finding(
                "backend-parity",
                entry["_node"],
                f"duplicate backend name {name!r} in BACKEND_TABLE",
                hint="backend names key BACKEND_REGISTRY; keep them "
                     "unique",
            )
        seen.add(name)
    selectors = [e for e in entries if e.get("selector")]
    concrete = [e for e in entries if not e.get("selector")]
    if len(selectors) != 1:
        yield ctx.finding(
            "backend-parity",
            node,
            f"BACKEND_TABLE declares {len(selectors)} selector "
            "entries; exactly one ('auto') is expected",
            hint="mark only the auto pseudo-backend selector=True",
        )
    for selector in selectors:
        for flag in _CAPABILITY_FLAGS:
            claimed = bool(selector.get(flag))
            available = any(bool(e.get(flag)) for e in concrete)
            if claimed != available:
                yield ctx.finding(
                    "backend-parity",
                    selector["_node"],
                    f"selector {selector.get('name')!r} claims "
                    f"{flag}={claimed} but the concrete tiers "
                    f"offer {flag}={available}; the auto entry must "
                    "advertise exactly the union of what it can "
                    "resolve to",
                    hint="keep the selector's capability flags the "
                         "OR of the concrete entries",
                )
    concrete_names = {e.get("name") for e in concrete}
    for ret, literal in _selector_returns(ctx):
        if literal not in concrete_names | set(names):
            yield ctx.finding(
                "backend-parity",
                ret,
                f"select_backend can return {literal!r}, which is "
                "not a registered concrete backend",
                hint="selector targets must be BACKEND_TABLE entries",
            )


def _cli_findings(
    cli_ctx: FileContext, runner_ctx: FileContext
) -> Iterator[Finding]:
    table = _backend_table(runner_ctx)
    if table is None:
        return
    _, entries = table
    registered = {e.get("name") for e in entries}
    for node in ast.walk(cli_ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "--backends"
        ):
            continue
        for kw in node.keywords:
            if kw.arg != "default":
                continue
            default = string_template(kw.value)
            if default is None:
                continue
            unknown = [
                name.strip() for name in default.split(",")
                if name.strip() and name.strip() not in registered
            ]
            for name in unknown:
                yield cli_ctx.finding(
                    "backend-parity",
                    kw.value,
                    f"CLI --backends default names unregistered "
                    f"backend {name!r}",
                    hint="defaults must be BACKEND_TABLE names",
                )


@lint_pass(
    "backend-parity",
    "backend registry internally consistent; CLI defaults name "
    "registered backends",
    scope="project",
)
def backend_parity(contexts: List[FileContext]) -> Iterator[Finding]:
    by_path = {ctx.relpath: ctx for ctx in contexts}
    runner_ctx = by_path.get(_RUNNER_FILE)
    if runner_ctx is not None:
        yield from _registry_findings(runner_ctx)
        cli_ctx = by_path.get(_CLI_FILE)
        if cli_ctx is not None:
            yield from _cli_findings(cli_ctx, runner_ctx)
