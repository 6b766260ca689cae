"""Triangle meshes for ball-and-cylinder scenes.

A configuration of tangent lines becomes a 3D scene: the unit sphere
plus one truncated cylinder per line.  Each cylinder axis is the
tangent line pushed radially outward by the cylinder radius along the
sphere normal at its base point, so a cylinder of radius r touches the
unit sphere, and two cylinders around lines at distance d have surface
gap (1 + r) d - 2 r.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import chain

import numpy as np

from .lines import Configuration, _count, _positive_finite, min_pairwise_distance
from .serialize import fmt_float

MAX_SEGMENTS = 1024  # a sphere of about 0.5M vertices


def _segments(value) -> int:
    """value as a mesh resolution: an integer in [8, MAX_SEGMENTS]."""
    segments = _count("segments", value, 8)
    if segments > MAX_SEGMENTS:
        raise ValueError(f"segments must be at most {MAX_SEGMENTS}: {value!r}")
    return segments


def _sizes(radius, cyl_length) -> None:
    """Refuse sizes not positive and finite, or overflowing 1 + 2 radius + length, every vertex's bound."""
    _positive_finite("radius", radius)
    _positive_finite("cyl_length", cyl_length)
    if not math.isfinite(1.0 + 2.0 * radius + cyl_length):
        name, value = ("radius", radius) if 2.0 * radius >= cyl_length else ("cyl_length", cyl_length)
        raise ValueError(f"{name} must keep the mesh bound 1 + 2 radius + length finite: {value!r}")


def _vertex(x: float, y: float, z: float) -> str:
    """The OBJ vertex record of a point, each coordinate to CSV_SIG digits."""
    return f"v {fmt_float(x)} {fmt_float(y)} {fmt_float(z)}\n"


def _sphere_records(segments: int) -> Iterator[str]:
    """OBJ records of the UV sphere: ``segments`` meridians, ``segments // 2`` latitude bands,
    ``segments`` as scene_obj checked it.

    Yields its 2 + (segments // 2 - 1) * segments vertices, each of unit norm, then its faces
    (triangle fans at the poles, quads in between) by 1-based index, as the file's first object.
    """
    bands = segments // 2
    yield "o sphere\n"
    yield _vertex(0.0, 0.0, 1.0)
    for i in range(1, bands):
        polar = math.pi * i / bands
        z = math.cos(polar)
        rho = math.sin(polar)
        for j in range(segments):
            ang = 2.0 * math.pi * j / segments
            yield _vertex(rho * math.cos(ang), rho * math.sin(ang), z)
    yield _vertex(0.0, 0.0, -1.0)
    first, last = 2, 2 + (bands - 2) * segments  # the first vertex of ring 1 and of ring bands - 1
    south = last + segments
    for j in range(segments):
        yield f"f 1 {first + j} {first + (j + 1) % segments}\n"
    for a in range(first, last, segments):
        b = a + segments
        for j in range(segments):
            jn = (j + 1) % segments
            yield f"f {a + j} {b + j} {b + jn} {a + jn}\n"
    for j in range(segments):
        yield f"f {south} {last + (j + 1) % segments} {last + j}\n"


def _tube_records(name: str, base: np.ndarray, direction: np.ndarray, radius: float,
                  half_length: float, segments: int, offset: int) -> Iterator[str]:
    """OBJ records of an open tube of given radius around the outward-shifted tangent line, sizes
    and segments as scene_obj checked them.  The axis runs through ``base * (1 + radius)`` along
    ``direction``, ``half_length`` to each side of that point.  Two rings of ``segments``
    vertices, quad faces indexed past the ``offset`` vertices before them, no caps."""
    axis_point = (1.0 + radius) * base
    v = np.cross(direction, base)
    yield f"o {name}\n"
    for side in (-1.0, 1.0):
        center = axis_point + side * half_length * direction
        for j in range(segments):
            ang = 2.0 * math.pi * j / segments
            yield _vertex(*(center + radius * (math.cos(ang) * base + math.sin(ang) * v)).tolist())
    for j in range(segments):
        a, b = offset + 1 + j, offset + 1 + (j + 1) % segments
        yield f"f {a} {b} {b + segments} {a + segments}\n"


def min_surface_gap(config: Configuration, radius: float) -> float:
    """Smallest surface gap (1 + radius) d - 2 radius over the configuration's line
    distances d: zero means touching, negative overlap."""
    return (1.0 + radius) * min_pairwise_distance(config) - 2.0 * radius


def scene_obj(config: Configuration, radius: float, cyl_length: float, segments: int) -> Iterator[str]:
    """The unit sphere and one tube of the given radius and half-length per line of the
    configuration as deterministic OBJ records (``o``, ``v`` and ``f`` lines, each ending in a
    newline), yielded one at a time; the sphere and each tube have ``segments`` around, an
    integer in [8, MAX_SEGMENTS].  The inputs are checked at the call, before any record."""
    segments = _segments(segments)
    _sizes(radius, cyl_length)
    sphere = 2 + (segments // 2 - 1) * segments  # the sphere's vertex count
    tubes = (_tube_records(f"cylinder_{idx + 1}", row[:3], row[3:], radius, cyl_length, segments,
                           sphere + 2 * segments * idx) for idx, row in enumerate(config.table))
    return chain(_sphere_records(segments), chain.from_iterable(tubes))
