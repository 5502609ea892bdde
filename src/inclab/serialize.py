"""Deterministic plain-text serialization for reports and tables.

String escapes come from the standard library's ``json`` and CSV quoting
from its ``csv``; numbers, nulls and field order are the program's own: dict
insertion order fixes the field order, floats print with 17 significant
digits (null if non-finite), and no environment state (locale, hash seed)
can leak into the bytes.
"""

from __future__ import annotations

import csv
import json
import math
from types import SimpleNamespace

import numpy as np

__all__ = ["format_number", "to_json", "to_jsonl", "to_csv"]


def format_number(x) -> str:
    """Canonical text for one number: %.17g floats, plain ints, JSON booleans."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        return "null"
    return f"{x:.17g}"


def _render(obj, indent: int | None, level: int) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), indent, level)
    if isinstance(obj, dict):
        items = [
            f'{json.dumps(str(k), ensure_ascii=False)}:{" " if indent is not None else ""}'
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


def to_csv(header, rows) -> str:
    """Comma-separated table with the same number text as the JSON."""
    lines = []
    # a "\r\n" terminator has the writer quote a bare "\r" too (before Python
    # 3.12 it quotes no other line break); one write per row, ending in "\n"
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    for row in (header, *rows):
        writer.writerow([v if isinstance(v, str) else format_number(v) for v in row])
    return "".join(line[:-2] + "\n" for line in lines)
