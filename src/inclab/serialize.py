"""Deterministic plain-text serialization for reports and tables.

All emitters are hand-rolled so that repeated runs with the same inputs
produce byte-identical output: dict insertion order fixes the field order,
floats are always printed with 17 significant digits, and no environment
state (locale, hash seed) can leak into the bytes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["format_number", "to_json", "to_jsonl", "to_csv"]


def format_number(x) -> str:
    """Canonical text for one number: %.17g floats, plain ints."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        return "null"
    return f"{x:.17g}"


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def _render(obj, indent: int | None, level: int) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer, float, np.floating)):
        return format_number(obj)
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), indent, level)
    if isinstance(obj, dict):
        items = [
            f'"{_escape(str(k))}":{" " if indent is not None else ""}'
            + _render(v, indent, level + 1)
            for k, v in obj.items()
        ]
        return _wrap(items, "{", "}", indent, level)
    if isinstance(obj, (list, tuple)):
        items = [_render(v, indent, level + 1) for v in obj]
        return _wrap(items, "[", "]", indent, level)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _wrap(items: list[str], open_ch: str, close_ch: str, indent, level: int) -> str:
    if not items:
        return open_ch + close_ch
    if indent is None:
        return open_ch + ",".join(items) + close_ch
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    body = (",\n" + pad).join(items)
    return f"{open_ch}\n{pad}{body}\n{closing}{close_ch}"


def to_json(obj) -> str:
    """Deterministic JSON with fixed field order and 17-digit floats."""
    return _render(obj, 2, 0)


def to_jsonl(records) -> str:
    """One compact JSON object per line."""
    return "\n".join(_render(r, None, 0) for r in records) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, str):
        if any(c in value for c in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return format_number(value)


def to_csv(header, rows) -> str:
    """Comma-separated table with the same float formatting as the JSON."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"
