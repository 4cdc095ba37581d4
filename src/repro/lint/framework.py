"""The lint framework: contexts, registry, suppressions, reporting.

Every runtime guarantee the simulator sells — content-addressed trial
caching, byte-identical cross-backend results, resumable stores —
rests on *source-level* invariants: seeded randomness, integer-ps
time arithmetic, canonical serialisation, a consistent backend
registry.  The fuzzers and equivalence suites check those invariants
dynamically; this package checks them *statically*, at commit time,
before a 1k-node campaign silently produces an uncacheable or
divergent record.

Architecture
------------
* A **pass** is a named analysis registered with :func:`lint_pass`;
  it receives one :class:`FileContext` per source file.
* A :class:`FileContext` wraps one parsed file: source lines, the
  AST annotated with parent links, and the file's inline
  suppressions.
* A **finding** is a structured :class:`Finding` with ``file:line``
  anchoring, the offending pass name, a message, and a fix hint.
* **Suppressions** are inline comments of the form::

      x = time.time()  # lint: disable=determinism -- wall-clock banner only

  The justification after ``--`` is *required*: a bare
  ``# lint: disable=NAME`` is itself reported (pass ``suppression``).
  A comment on its own line suppresses the line below it.

:func:`run_lint` drives everything and is what ``python -m repro
lint`` calls; it works on any directory tree laid out like
``src/repro`` (the fixture tests exploit this by linting synthetic
trees).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Files the linter analyses, relative to the lint root.
_PY_GLOB = "**/*.py"

#: The linter does not lint itself for schema/backend rules — its own
#: fixtures deliberately contain violations as string literals.
_EXCLUDED_PARTS = ("lint",)

_DISABLE_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Za-z0-9_,-]+)"
    r"(?:\s+--\s+(?P<why>\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One lint violation, anchored to a source location."""

    pass_name: str
    path: str            # path relative to the lint root (posix)
    line: int            # 1-based
    col: int             # 0-based, ast convention
    message: str
    hint: str = ""

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: " \
               f"[{self.pass_name}] {self.message}"
        if self.hint:
            text += f"  (fix: {self.hint})"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "pass": self.pass_name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# lint: disable=`` comment."""

    line: int                    # the line the comment sits on
    names: Tuple[str, ...]       # pass names it disables
    justification: str           # text after ``--`` (may be empty)
    own_line: bool               # comment line holds nothing else


class FileContext:
    """One parsed source file plus the lookups passes need."""

    def __init__(self, root: Path, path: Path) -> None:
        self.root = root
        self.path = path
        self.relpath = path.relative_to(root).as_posix()
        self.source = path.read_text()
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.suppressions = _parse_suppressions(self.lines)

    # -- navigation --------------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.FunctionDef]:
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self._parents.get(current)
        return None

    # -- findings ----------------------------------------------------------
    def finding(
        self,
        pass_name: str,
        node: ast.AST,
        message: str,
        hint: str = "",
    ) -> Finding:
        return Finding(
            pass_name=pass_name,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=hint,
        )

    def is_suppressed(self, finding: Finding) -> bool:
        for supp in self.suppressions:
            if finding.pass_name not in supp.names:
                continue
            if supp.line == finding.line:
                return True
            if supp.own_line and supp.line == finding.line - 1:
                return True
        return False


def _parse_suppressions(lines: List[str]) -> List[Suppression]:
    found: List[Suppression] = []
    for number, text in enumerate(lines, start=1):
        match = _DISABLE_RE.search(text)
        if match is None:
            continue
        names = tuple(
            name.strip() for name in match.group(1).split(",")
            if name.strip()
        )
        justification = (match.group("why") or "").strip()
        own_line = text[: match.start()].strip() == ""
        found.append(Suppression(
            line=number,
            names=names,
            justification=justification,
            own_line=own_line,
        ))
    return found


# ----------------------------------------------------------------------
# Pass registry.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LintPass:
    """One registered analysis."""

    name: str
    description: str
    fn: Callable = field(compare=False, repr=False, default=None)

    def run(self, contexts: List[FileContext]) -> Iterator[Finding]:
        for ctx in contexts:
            yield from self.fn(ctx)


PASS_REGISTRY: Dict[str, LintPass] = {}


def lint_pass(name: str, description: str) -> Callable[[Callable], Callable]:
    """Register a pass function (taking a :class:`FileContext`) under
    ``name``."""

    def decorate(fn: Callable) -> Callable:
        if name in PASS_REGISTRY:
            raise ValueError(f"duplicate lint pass {name!r}")
        PASS_REGISTRY[name] = LintPass(
            name=name, description=description, fn=fn
        )
        return fn

    return decorate


def _load_builtin_passes() -> None:
    # Importing the package registers every built-in pass.
    from repro.lint import passes  # noqa: F401


def available_passes() -> Dict[str, LintPass]:
    _load_builtin_passes()
    return dict(PASS_REGISTRY)


# ----------------------------------------------------------------------
# The driver.
# ----------------------------------------------------------------------

def default_root() -> Path:
    """The installed ``repro`` package directory (what ``python -m
    repro lint`` analyses when no path is given)."""
    import repro

    return Path(repro.__file__).resolve().parent


def _lintable_files(root: Path) -> List[Path]:
    files = []
    for path in sorted(root.glob(_PY_GLOB)):
        rel = path.relative_to(root)
        if rel.parts and rel.parts[0] in _EXCLUDED_PARTS:
            continue
        files.append(path)
    return files


def _suppression_findings(ctx: FileContext) -> Iterator[Finding]:
    """A disable comment without a justification is itself a finding."""
    for supp in ctx.suppressions:
        if not supp.justification:
            yield Finding(
                pass_name="suppression",
                path=ctx.relpath,
                line=supp.line,
                col=0,
                message=(
                    "lint suppression without a justification: "
                    f"disable={','.join(supp.names)}"
                ),
                hint="append ' -- <why this violation is intentional>'",
            )
        unknown = [
            name for name in supp.names
            if name not in PASS_REGISTRY and name != "suppression"
        ]
        if unknown:
            yield Finding(
                pass_name="suppression",
                path=ctx.relpath,
                line=supp.line,
                col=0,
                message=(
                    f"suppression names unknown pass(es): "
                    f"{', '.join(unknown)}"
                ),
                hint=f"known passes: {', '.join(sorted(PASS_REGISTRY))}",
            )


def run_lint(
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the (selected) passes over every Python file under ``root``.

    Returns surviving findings sorted by location; suppressed findings
    are dropped, and malformed suppressions are reported as findings
    of the built-in ``suppression`` pass.
    """
    _load_builtin_passes()
    root = default_root() if root is None else Path(root)
    if select is None:
        selected = list(PASS_REGISTRY.values())
    else:
        names = list(select)
        unknown = [n for n in names if n not in PASS_REGISTRY]
        if unknown:
            raise KeyError(
                f"unknown lint pass(es): {', '.join(unknown)}; "
                f"available: {', '.join(sorted(PASS_REGISTRY))}"
            )
        selected = [PASS_REGISTRY[n] for n in names]

    contexts = [FileContext(root, path) for path in _lintable_files(root)]
    by_path = {ctx.relpath: ctx for ctx in contexts}
    findings: List[Finding] = []
    for lp in selected:
        for finding in lp.run(contexts):
            ctx = by_path.get(finding.path)
            if ctx is not None and ctx.is_suppressed(finding):
                continue
            findings.append(finding)
    for ctx in contexts:
        findings.extend(_suppression_findings(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.pass_name))
    return findings


def format_findings(
    findings: List[Finding], fmt: str = "text"
) -> str:
    """Render findings as ``text`` (one line each) or ``json``."""
    if fmt == "json":
        return json.dumps(
            {
                "n_findings": len(findings),
                "findings": [f.to_dict() for f in findings],
            },
            indent=2,
            sort_keys=True,
        )
    if not findings:
        return "lint: clean"
    lines = [f.format() for f in findings]
    lines.append(f"lint: {len(findings)} finding(s)")
    return "\n".join(lines)
