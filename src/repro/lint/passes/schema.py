"""Schema pass: serialised documents stay round-trippable and canonical.

The resumable store, the campaign cache and the differential harness
all treat documents as the source of truth; this pass pins the
source-level conventions that keep them loadable and content-stable:

* a class shipping ``to_dict`` must be loadable again — a
  ``from_dict`` classmethod in the class, or a module-level
  ``*_from_dict`` dispatcher (one-way analytic reports carry a
  justified suppression instead);
* ``schema_version`` stamps come from the shared
  ``REPORT_SCHEMA_VERSION`` constant, never an inline literal that
  can drift per document type;
* ``json.dumps`` that feeds ``hashlib`` (content addressing) must
  pass ``sort_keys=True``, and the designated canonical-JSON modules
  must do so for *every* dump;
* wall-clock report fields (``wall_*``) never enter trial records:
  every ``wall_*`` key RunReport.to_dict emits must be popped by
  ``trial_record`` before the record is hashed/stored.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.astutil import call_name, dict_literal_keys
from repro.lint.framework import FileContext, Finding, lint_pass

#: Modules whose every ``json.dumps`` must be canonical: they produce
#: the bytes that get hashed or byte-compared.
CANONICAL_JSON_MODULES: Set[str] = {
    "core/schema.py",
    "campaign/trial.py",
    "campaign/store.py",
    "batch/cache.py",
}

#: The report producer and the record builder of the wall-exclusion
#: contract.
_REPORT_FILE = "scenario/runner.py"
_RECORD_FILE = "campaign/trial.py"


def _class_of(ctx: FileContext, node: ast.AST) -> Optional[ast.ClassDef]:
    parent = ctx.parent(node)
    if isinstance(parent, ast.ClassDef):
        return parent
    return None


def _pairing_findings(ctx: FileContext) -> Iterator[Finding]:
    module_loaders = {
        node.name
        for node in ctx.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_from_dict")
    }
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "to_dict" not in methods:
            continue
        if "from_dict" in methods or module_loaders:
            continue
        to_dict = next(
            item for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "to_dict"
        )
        yield ctx.finding(
            "schema",
            to_dict,
            f"class {node.name} defines to_dict but no from_dict "
            "(and the module has no *_from_dict loader); its "
            "documents cannot be loaded back",
            hint="add a from_dict classmethod, or suppress with a "
                 "justification if the document is a one-way report",
        )


def _version_findings(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if not (
                isinstance(key, ast.Constant)
                and key.value == "schema_version"
            ):
                continue
            if isinstance(value, ast.Constant):
                yield ctx.finding(
                    "schema",
                    value,
                    "schema_version stamped with an inline literal; "
                    "versions drift per document type unless they all "
                    "come from one constant",
                    hint="use repro.core.schema.REPORT_SCHEMA_VERSION",
                )


def _canonical_json_findings(ctx: FileContext) -> Iterator[Finding]:
    must_sort_everywhere = ctx.relpath in CANONICAL_JSON_MODULES
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and call_name(node) == "json.dumps"
        ):
            continue
        sorts = any(
            kw.arg == "sort_keys"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
        if sorts:
            continue
        if must_sort_everywhere:
            yield ctx.finding(
                "schema",
                node,
                "json.dumps without sort_keys=True in a canonical-"
                "JSON module; key order would leak into hashed bytes",
                hint="pass sort_keys=True (see canonical_json)",
            )
        elif _feeds_hashlib(ctx, node):
            yield ctx.finding(
                "schema",
                node,
                "json.dumps feeding a hash without sort_keys=True; "
                "the content address would depend on dict insertion "
                "order",
                hint="pass sort_keys=True",
            )


def _feeds_hashlib(ctx: FileContext, node: ast.AST) -> bool:
    current: Optional[ast.AST] = ctx.parent(node)
    while current is not None:
        if isinstance(current, ast.Call):
            name = call_name(current)
            if name is not None and name.startswith("hashlib."):
                return True
        if isinstance(current, ast.stmt):
            return False
        current = ctx.parent(current)
    return False


def _report_wall_keys(ctx: FileContext) -> List[str]:
    to_dict = ctx.find_function("to_dict", classname="RunReport")
    if to_dict is None:
        return []
    keys: List[str] = []
    for node in ast.walk(to_dict):
        if isinstance(node, ast.Dict):
            keys.extend(
                key for key in dict_literal_keys(node)
                if key.startswith("wall")
            )
    return keys


def _record_popped_keys(ctx: FileContext) -> Set[str]:
    record_fn = ctx.find_function("trial_record")
    if record_fn is None:
        return set()
    popped: Set[str] = set()
    for node in ast.walk(record_fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            popped.add(node.args[0].value)
    return popped


@lint_pass(
    "schema",
    "to_dict/from_dict pairing, shared schema_version constant, "
    "canonical JSON for hashes, wall-clock fields out of records",
    scope="project",
)
def schema(contexts: List[FileContext]) -> Iterator[Finding]:
    by_path = {ctx.relpath: ctx for ctx in contexts}
    for ctx in contexts:
        yield from _pairing_findings(ctx)
        yield from _version_findings(ctx)
        yield from _canonical_json_findings(ctx)
    report_ctx = by_path.get(_REPORT_FILE)
    record_ctx = by_path.get(_RECORD_FILE)
    if report_ctx is not None and record_ctx is not None:
        wall_keys = _report_wall_keys(report_ctx)
        popped = _record_popped_keys(record_ctx)
        record_fn = record_ctx.find_function("trial_record")
        for key in wall_keys:
            if key not in popped:
                yield record_ctx.finding(
                    "schema",
                    record_fn if record_fn is not None
                    else record_ctx.tree,
                    f"RunReport.to_dict emits wall-clock field "
                    f"{key!r} but trial_record never pops it; "
                    "wall noise would enter content-addressed records "
                    "and break byte-identity of cached reruns",
                    hint=f'add doc.pop("{key}", None) in trial_record',
                )
