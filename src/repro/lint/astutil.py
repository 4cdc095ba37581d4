"""Small AST helpers shared by the lint passes."""

from __future__ import annotations

import ast
from typing import List, Optional


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's callee, else ``None``."""
    return dotted_name(node.func)


def terminal_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a Name/Attribute target (``x.at_ps``
    -> ``at_ps``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None

