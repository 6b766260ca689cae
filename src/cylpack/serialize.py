"""Deterministic text of builtin values, and the reader of lines documents.

JSON floats get 17 significant digits, which parse back to the same double, and
-0.0 is written ``-0.0``, since ``json.loads`` reads ``-0`` as the int 0; CSV and OBJ
numbers get 12.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

import numpy as np

from .lines import Configuration, TangentLine

JSON_SIG = 17
CSV_SIG = 12


def fmt_float(value: float, sig: int = JSON_SIG) -> str:
    """Format the number ``value`` (not a bool) with ``sig`` significant digits as a JSON number."""
    if isinstance(value, bool):
        raise TypeError("format booleans explicitly before output")
    if not math.isfinite(value):
        raise ValueError("cannot format a non-finite value")
    return f"{value:.{sig}g}"


def json_dumps(obj: Any) -> str:
    """Serialize nested dicts, lists and tuples of str, int, float, bool and None.

    Floats get exactly JSON_SIG significant digits, so repeated runs write identical
    bytes, and -0.0 keeps its sign; other values go to :func:`json.dumps`, which refuses
    every other type.
    """
    if isinstance(obj, float):
        return "-0.0" if obj == 0.0 and math.copysign(1.0, obj) < 0.0 else fmt_float(obj)
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be strings")
        return "{" + ", ".join(f"{json.dumps(k)}: {json_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(json_dumps, obj)) + "]"
    return json.dumps(obj)


def csv_line(values: Iterable[float]) -> str:
    """Join numbers into one CSV row (no trailing newline), each to CSV_SIG digits."""
    return ",".join(fmt_float(value, CSV_SIG) for value in values)


def _vector3(data: Any, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"'{name}' must be a list of 3 numbers")
    return arr


def line_from_dict(data: Any) -> TangentLine:
    if not isinstance(data, dict) or "base" not in data or "dir" not in data:
        raise ValueError("a line document needs 'base' and 'dir' entries")
    return TangentLine(_vector3(data["base"], "base"), _vector3(data["dir"], "dir"))


def config_from_dict(data: Any) -> Configuration:
    """Build a configuration from a ``{"lines": [{"base": [x, y, z],
    "dir": [x, y, z]}, ...]}`` document: two or more tangent lines, used as
    given, poles included.  A document that carries ``coords`` (a free
    chart, which the command line reads itself) is refused.
    """
    if not isinstance(data, dict):
        raise ValueError("a configuration document must be a JSON object")
    if "coords" in data:
        raise ValueError(
            "a lines document must not carry 'coords' (a chart document carries it alone)"
        )
    lines = data.get("lines")
    if not isinstance(lines, list) or len(lines) < 2:
        raise ValueError("'lines' must list at least two tangent lines")
    return Configuration(tuple(line_from_dict(item) for item in lines))
