"""Deterministic text output: fixed field order, 17-significant-digit floats.

Two runs with the same inputs must produce byte-identical files. Every value
written takes its text from one rule chosen by numpy dtype (`_rule`), once per
CSV column and once per JSON value; each distinct value in a block of CSV rows
is formatted once. JSON keys keep insertion order, never re-sorted, so every
byte of every result file is a pure function of the run's inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["fmt_float", "write_csv", "dumps_json", "dump_json"]

# rows formatted per write: only one block's text is held at a time
_BLOCK_ROWS = 8192


def _rule(values: np.ndarray):
    """The function that gives one value of `values` its text, picked once
    by dtype: true/false, decimal, 17 significant digits, or the text itself.
    Refuses a non-finite float, and text holding a comma or a newline."""
    kind = values.dtype.kind
    if kind == "b":
        return {True: "true", False: "false"}.__getitem__
    if kind in "iu":
        return str
    if kind == "f":
        if not np.isfinite(values).all():
            raise ValueError("refusing to format a non-finite float")
        # the same digits as format(v, ".17g"), and faster per value
        return "%.17g".__mod__
    for text in map(str, values.flat):
        if "," in text or "\n" in text:
            raise ValueError(f"CSV cell may not contain commas or newlines: {text!r}")
    return str


def _text(value) -> str:
    array = np.asarray(value)
    return _rule(array)(array.item())


def fmt_float(x) -> str:
    """Seventeen significant digits: enough to round-trip every float
    exactly, though not always the shortest form (0.1 -> 0.10000000000000001)."""
    return _text(float(x))


def write_csv(path, columns) -> int:
    """Write named columns, the header being their names in order; returns
    the number of data rows."""
    arrays = [np.asarray(values) for values in columns.values()]
    n_rows = arrays[0].size if arrays else 0
    if any(array.shape != (n_rows,) for array in arrays):
        raise ValueError("CSV columns must be one-dimensional and of equal length")
    rules = [_rule(array) for array in arrays]
    with open(path, "w") as out:
        out.write(",".join(columns) + "\n")
        for lo in range(0, n_rows, _BLOCK_ROWS):
            cells = np.empty((min(_BLOCK_ROWS, n_rows - lo), 2 * len(arrays)), object)
            cells[:, 1::2] = ","
            cells[:, -1] = "\n"
            for j, (rule, array) in enumerate(zip(rules, arrays)):
                _put_texts(cells[:, 2 * j], rule, array[lo:lo + _BLOCK_ROWS])
            out.write("".join(cells.ravel().tolist()))
    return n_rows


def _put_texts(dest: np.ndarray, rule, values: np.ndarray) -> None:
    """Put each value's text in `dest`, formatting each distinct key once;
    a float's key is its float64 bits, so that -0.0 and 0.0 stay apart, and
    an object's its text, as objects need not be orderable."""
    kind = values.dtype.kind
    keys = (np.asarray(values, float).view(np.int64) if kind == "f"
            else values.astype(str) if kind == "O" else values)
    order = keys.argsort()
    first = np.concatenate(([True], keys[order[1:]] != keys[order[:-1]]))
    texts = map(rule, values[order[first]].tolist())
    dest[order] = np.fromiter(texts, object)[first.cumsum() - 1]


def dumps_json(obj) -> str:
    buf: list[str] = []
    _emit(obj, buf, 0)
    buf.append("\n")
    return "".join(buf)


def dump_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj))


def _emit(obj, buf: list[str], depth: int) -> None:
    # a container is its (key text, value) pairs; an array's key texts are empty
    if isinstance(obj, dict):
        brackets, pairs = "{}", [(f"{json.dumps(str(k))}: ", v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple, np.ndarray)):
        brackets, pairs = "[]", [("", v) for v in obj]
    else:
        buf.append(_scalar(obj))
        return
    buf.append(brackets[0])
    for k, (key, value) in enumerate(pairs):
        buf.append(",\n" if k else "\n")
        buf.append("  " * (depth + 1) + key)
        _emit(value, buf, depth + 1)
    buf.append("\n" + "  " * depth + brackets[1] if pairs else brackets[1])


def _scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, int, float, np.bool_, np.integer, np.floating)):
        return _text(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
