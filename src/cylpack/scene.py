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

import numpy as np

from .lines import Configuration, _count, _positive_finite, min_pairwise_distance
from .serialize import CSV_SIG, fmt_float

Mesh = tuple[np.ndarray, list[tuple[int, ...]]]
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


def _sphere_mesh(segments: int) -> Mesh:
    """UV sphere: ``segments`` meridians, ``segments // 2`` latitude bands, ``segments`` as
    scene_obj checked it.

    Returns vertices of unit norm and faces as tuples of 0-based vertex
    indices (triangle fans at the poles, quads in between).
    """
    bands = segments // 2
    verts: list[tuple[float, float, float]] = [(0.0, 0.0, 1.0)]
    for i in range(1, bands):
        polar = math.pi * i / bands
        z = math.cos(polar)
        rho = math.sin(polar)
        for j in range(segments):
            ang = 2.0 * math.pi * j / segments
            verts.append((rho * math.cos(ang), rho * math.sin(ang), z))
    verts.append((0.0, 0.0, -1.0))
    south = len(verts) - 1

    def ring(i: int) -> int:
        return 1 + (i - 1) * segments

    faces: list[tuple[int, ...]] = []
    for j in range(segments):
        faces.append((0, ring(1) + j, ring(1) + (j + 1) % segments))
    for i in range(1, bands - 1):
        a, b = ring(i), ring(i + 1)
        for j in range(segments):
            jn = (j + 1) % segments
            faces.append((a + j, b + j, b + jn, a + jn))
    last = ring(bands - 1)
    for j in range(segments):
        faces.append((south, last + (j + 1) % segments, last + j))
    return np.array(verts), faces


def _tube_mesh(base: np.ndarray, direction: np.ndarray, radius: float, half_length: float,
               segments: int) -> Mesh:
    """Open tube of given radius around the outward-shifted tangent line, sizes and segments as
    scene_obj checked them.  The axis runs through ``base * (1 + radius)`` along ``direction``,
    ``half_length`` to each side of that point.  Two rings of ``segments`` vertices, quad faces,
    no caps."""
    axis_point = (1.0 + radius) * base
    v = np.cross(direction, base)
    verts: list[np.ndarray] = []
    for side in (-1.0, 1.0):
        center = axis_point + side * half_length * direction
        for j in range(segments):
            ang = 2.0 * math.pi * j / segments
            verts.append(center + radius * (math.cos(ang) * base + math.sin(ang) * v))
    faces: list[tuple[int, ...]] = []
    for j in range(segments):
        jn = (j + 1) % segments
        faces.append((j, jn, segments + jn, segments + j))
    return np.array(verts), faces


def min_surface_gap(config: Configuration, radius: float) -> float:
    """Smallest surface gap (1 + radius) d - 2 radius over the configuration's line
    distances d: zero means touching, negative overlap."""
    return (1.0 + radius) * min_pairwise_distance(config) - 2.0 * radius


def scene_obj(config: Configuration, radius: float, cyl_length: float, segments: int) -> str:
    """Render the unit sphere and one tube of the given radius and half-length per line of the
    configuration as deterministic OBJ text (``v`` and ``f`` records); the sphere and each tube
    have ``segments`` around, an integer in [8, MAX_SEGMENTS]."""
    segments = _segments(segments)
    _sizes(radius, cyl_length)
    out: list[str] = []
    offset = 0

    def emit(name: str, mesh: Mesh) -> None:
        nonlocal offset
        verts, faces = mesh
        out.append(f"o {name}")
        for vert in verts:
            out.append("v " + " ".join(fmt_float(c, CSV_SIG) for c in vert))
        for face in faces:
            out.append("f " + " ".join(str(i + 1 + offset) for i in face))
        offset += len(verts)

    emit("sphere", _sphere_mesh(segments))
    for idx, row in enumerate(config.table):
        emit(f"cylinder_{idx + 1}", _tube_mesh(row[:3], row[3:], radius, cyl_length, segments))
    return "\n".join(out) + "\n"
