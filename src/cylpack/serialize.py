"""The CSV and OBJ text of numbers, each to 12 significant digits, and the reader of every
document's numbers.  JSON is written by :func:`json.dumps`, whose floats read back as the
same doubles, -0.0 included.
"""

from __future__ import annotations

import math
from contextlib import suppress
from typing import Any, Iterable

from .lines import Configuration, FreeConfig, TangentLine

CSV_SIG = 12


def fmt_float(value: float) -> str:
    """Format the finite number ``value`` (not a bool) to CSV_SIG significant digits, as CSV and
    OBJ records write it."""
    if isinstance(value, bool):
        raise TypeError("format booleans explicitly before output")
    if not math.isfinite(value):
        raise ValueError("cannot format a non-finite value")
    return f"{value:.{CSV_SIG}g}"


def csv_line(values: Iterable[float]) -> str:
    """Join numbers into one CSV row (no trailing newline), each to CSV_SIG digits."""
    return ",".join(fmt_float(value) for value in values)


def _numbers(data: Any, name: str, count: int | None = None) -> list[float]:
    """The floats of a document's array ``name``: a list or tuple of ``count`` (any if None) ints
    and floats, never booleans, strings, objects, null, nested arrays or ints past the largest
    double, whose float() raises OverflowError."""
    if isinstance(data, (list, tuple)) and count in (None, len(data)) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in data):
        with suppress(OverflowError):
            return [float(v) for v in data]
    raise ValueError(f"'{name}' must be a list of {'' if count is None else f'{count} '}numbers")


def line_from_dict(data: Any) -> TangentLine:
    if not isinstance(data, dict) or "base" not in data or "dir" not in data:
        raise ValueError("a line document needs 'base' and 'dir' entries")
    return TangentLine(_numbers(data["base"], "base", 3), _numbers(data["dir"], "dir", 3))


def config_from_dict(data: Any) -> Configuration:
    """Build the configuration of a document: a ``{"coords": [...]}`` chart of 3n numbers
    (n >= 2 lines) gives its FreeConfig, bit for bit, and a ``{"lines": [{"base": [x, y, z],
    "dir": [x, y, z]}, ...]}`` document its two or more tangent lines, used as given, poles
    included.  A document that carries both is refused.
    """
    if not isinstance(data, dict):
        raise ValueError("a configuration document must be a JSON object")
    if "coords" in data:
        if "lines" in data:
            raise ValueError("a lines document must not carry 'coords' (a chart document carries it alone)")
        return FreeConfig(_numbers(data["coords"], "coords"))
    lines = data.get("lines")
    if not isinstance(lines, list) or len(lines) < 2:
        raise ValueError("'lines' must list at least two tangent lines")
    return Configuration(tuple(line_from_dict(item) for item in lines))
