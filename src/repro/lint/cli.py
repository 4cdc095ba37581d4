"""The ``python -m repro lint`` entry point.

Exit codes (the CI contract): 0 — no findings; 1 — findings
reported; 2 — usage error (unknown pass, bad path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.framework import (
    available_passes,
    default_root,
    format_findings,
    run_lint,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based determinism & invariant linter over the repro "
            "sources"
        ),
        epilog="exit codes: 0 clean, 1 findings reported, 2 usage error",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="package root to lint (default: the installed repro "
             "package)",
    )
    parser.add_argument(
        "--select",
        metavar="PASS[,PASS...]",
        default=None,
        help="run only the named passes (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format (default: text)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered passes and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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
