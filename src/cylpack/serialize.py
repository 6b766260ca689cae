"""Deterministic text formatting and configuration round-tripping.

JSON output uses 17 significant digits so every float survives a
parse round trip bit-exactly; CSV and OBJ output use 12, enough for
any downstream geometry while keeping rows readable.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

import numpy as np

from .lines import Configuration, TangentLine

JSON_SIG = 17
CSV_SIG = 12


def fmt_float(value: float, sig: int = JSON_SIG) -> str:
    """Format ``value`` with ``sig`` significant digits as a JSON number."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError("cannot format a non-finite value")
    return f"{value:.{sig}g}"


def json_dumps(obj: Any) -> str:
    """Serialize nested dicts/lists with fixed-precision floats.

    Unlike :func:`json.dumps`, floats are written with exactly JSON_SIG
    significant digits, so repeated runs produce identical bytes and
    numpy scalars serialize like their Python counterparts.
    """
    pieces: list[str] = []
    _write_json(obj, pieces)
    return "".join(pieces)


def _write_json(obj: Any, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _write_json(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        out.append("[")
        for i, value in enumerate(list(obj)):
            if i:
                out.append(", ")
            _write_json(value, out)
        out.append("]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def csv_line(values: Iterable[Any]) -> str:
    """Join values into one CSV row (no trailing newline), floats to CSV_SIG digits."""
    parts: list[str] = []
    for value in values:
        if isinstance(value, str):
            if "," in value or "\n" in value:
                raise ValueError("CSV cells must not contain separators")
            parts.append(value)
        elif isinstance(value, (bool, np.bool_)):
            raise TypeError("format booleans explicitly before CSV output")
        elif isinstance(value, (int, np.integer)):
            parts.append(str(int(value)))
        else:
            parts.append(fmt_float(float(value), CSV_SIG))
    return ",".join(parts)


def line_to_dict(line: TangentLine) -> dict:
    """Plain-data form of a tangent line, in canonical orientation."""
    canon = line.canonical()
    return {
        "base": [float(x) for x in canon.base],
        "dir": [float(x) for x in canon.dir],
    }


def config_to_dict(config: Configuration) -> dict:
    return {"lines": [line_to_dict(line) for line in config]}


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
    """Rebuild a configuration from the ``{"lines": [{base, dir}, ...]}``
    document config_to_dict writes: two or more tangent lines, used as
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
