"""The ``python -m repro lint`` command (its options are declared in
:func:`repro.__main__.build_parser`).

Exit codes (the CI contract): 0 — no findings; 1 — findings
reported; 2 — usage error (unknown pass, bad path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.framework import (
    available_passes,
    default_root,
    format_findings,
    run_lint,
)


def run(args: argparse.Namespace) -> int:
    """Lint as the parsed options say; returns the exit code."""
    passes = available_passes()
    if args.list:
        for name in sorted(passes):
            print(f"{name}: {passes[name].description}")
        return 0
    select = None
    if args.select is not None:
        select = [
            name.strip() for name in args.select.split(",")
            if name.strip()
        ]
        unknown = [name for name in select if name not in passes]
        if unknown:
            print(
                f"lint: unknown pass(es): {', '.join(unknown)}; "
                f"available: {', '.join(sorted(passes))}",
                file=sys.stderr,
            )
            return 2
    root = default_root() if args.path is None else Path(args.path)
    if not root.is_dir():
        print(f"lint: {root} is not a directory", file=sys.stderr)
        return 2
    findings = run_lint(root=root, select=select)
    print(format_findings(findings, fmt=args.format))
    return 1 if findings else 0
