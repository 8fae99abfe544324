"""Deterministic text output: fixed field order, 17-significant-digit floats.

Two runs with the same inputs must produce byte-identical files. All float
formatting funnels through :func:`fmt_float` (round-trip precision), and the
JSON writer emits keys in insertion order without ever re-sorting, so every
byte of every result file is a pure function of the run's inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["fmt_float", "write_csv", "dumps_json", "dump_json"]


def fmt_float(x) -> str:
    """Seventeen significant digits: enough to round-trip every float
    exactly, though not always the shortest form (0.1 -> 0.10000000000000001)."""
    value = float(x)
    if not math.isfinite(value):
        raise ValueError("refusing to format a non-finite float")
    return format(value, ".17g")


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    text = str(value)
    if "," in text or "\n" in text:
        raise ValueError(f"CSV cell may not contain commas or newlines: {text!r}")
    return text


def write_csv(path, header, rows) -> int:
    """Write rows under a fixed header; returns the number of data rows."""
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        cells = [_cell(v) for v in row]
        if len(cells) != width:
            raise ValueError("row width does not match header")
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
    return len(lines) - 1


def dumps_json(obj) -> str:
    buf: list[str] = []
    _emit(obj, buf, 0)
    buf.append("\n")
    return "".join(buf)


def dump_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj))


def _emit(obj, buf: list[str], depth: int) -> None:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(obj, dict):
        if not obj:
            buf.append("{}")
            return
        buf.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            buf.append(f"{inner}{json.dumps(str(key))}: ")
            _emit(value, buf, depth + 1)
            buf.append(",\n" if k < len(obj) - 1 else "\n")
        buf.append(pad + "}")
        return
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            buf.append("[]")
            return
        buf.append("[\n")
        for k, value in enumerate(items):
            buf.append(inner)
            _emit(value, buf, depth + 1)
            buf.append(",\n" if k < len(items) - 1 else "\n")
        buf.append(pad + "]")
        return
    if obj is None:
        buf.append("null")
        return
    if isinstance(obj, (bool, np.bool_)):
        buf.append("true" if obj else "false")
        return
    if isinstance(obj, (int, np.integer)):
        buf.append(str(int(obj)))
        return
    if isinstance(obj, (float, np.floating)):
        buf.append(fmt_float(obj))
        return
    if isinstance(obj, str):
        buf.append(json.dumps(obj))
        return
    raise TypeError(f"cannot serialize {type(obj).__name__}")
