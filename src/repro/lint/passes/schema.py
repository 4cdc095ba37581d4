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
  must do so for *every* dump.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.lint.astutil import call_name
from repro.lint.framework import FileContext, Finding, lint_pass

#: Modules whose every ``json.dumps`` must be canonical: they produce
#: the bytes that get hashed or byte-compared.
CANONICAL_JSON_MODULES: Set[str] = {
    "core/schema.py",
    "campaign/trial.py",
    "campaign/store.py",
    "batch/cache.py",
}


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


@lint_pass(
    "schema",
    "to_dict/from_dict pairing, shared schema_version constant, "
    "canonical JSON for hashes",
)
def schema(ctx: FileContext) -> Iterator[Finding]:
    yield from _pairing_findings(ctx)
    yield from _version_findings(ctx)
    yield from _canonical_json_findings(ctx)
