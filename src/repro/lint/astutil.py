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


def string_template(node: ast.AST) -> Optional[str]:
    """A comparable template for a string expression.

    Plain strings map to themselves; f-strings map to the literal
    text with every interpolation replaced by ``{}``.  String
    concatenation with ``+`` concatenates templates.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts.append("{}")
            else:
                return None
        return "".join(parts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = string_template(node.left)
        right = string_template(node.right)
        if left is not None and right is not None:
            return left + right
    return None


def dict_literal_keys(node: ast.Dict) -> List[str]:
    """String keys of a dict literal (non-string keys skipped)."""
    keys: List[str] = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
    return keys


def assigned_name(node: ast.Assign) -> Optional[str]:
    """The single Name target of an assignment, else ``None``."""
    if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None
