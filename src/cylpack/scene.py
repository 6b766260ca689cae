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
from dataclasses import dataclass

import numpy as np

from .lines import Configuration, TangentLine, _positive_finite, distance, min_pairwise_distance
from .serialize import CSV_SIG, fmt_float

Mesh = tuple[np.ndarray, list[tuple[int, ...]]]


def _check_segments(segments) -> None:
    if not isinstance(segments, int):
        raise ValueError("segments must be an integer")
    if segments < 8:
        raise ValueError("segments must be at least 8")


@dataclass(frozen=True)
class SceneSpec:
    """A renderable scene: which lines, how thick, how long, how fine."""

    configuration: Configuration
    radius: float
    cyl_length: float = 6.0
    segments: int = 64

    def __post_init__(self) -> None:
        _check_segments(self.segments)
        _positive_finite("radius", self.radius)
        _positive_finite("cyl_length", self.cyl_length)


def sphere_mesh(segments: int) -> Mesh:
    """UV sphere: ``segments`` meridians, ``segments // 2`` latitude bands.

    Returns vertices of unit norm and faces as tuples of 0-based vertex
    indices (triangle fans at the poles, quads in between).
    """
    _check_segments(segments)
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


def tube_mesh(
    line: TangentLine, radius: float, half_length: float, segments: int
) -> Mesh:
    """Open tube of given radius around the outward-shifted line.

    The axis runs through ``base * (1 + radius)`` along ``line.dir``;
    the tube spans ``half_length`` to each side of that point.  Two
    rings of ``segments`` vertices, quad faces, no caps.
    """
    _check_segments(segments)
    _positive_finite("radius", radius)
    _positive_finite("half_length", half_length)
    axis_point = (1.0 + radius) * line.base
    u = line.base
    v = np.cross(line.dir, u)
    verts: list[np.ndarray] = []
    for side in (-1.0, 1.0):
        center = axis_point + side * half_length * line.dir
        for j in range(segments):
            ang = 2.0 * math.pi * j / segments
            verts.append(center + radius * (math.cos(ang) * u + math.sin(ang) * v))
    faces: list[tuple[int, ...]] = []
    for j in range(segments):
        jn = (j + 1) % segments
        faces.append((j, jn, segments + jn, segments + j))
    return np.array(verts), faces


def surface_gap(line_a: TangentLine, line_b: TangentLine, radius: float) -> float:
    """Closest distance between the two cylinder surfaces.

    Scaling a tangent line outward by (1 + radius) scales the pairwise
    line distance by the same factor, so the gap is
    (1 + radius) * distance - 2 * radius; zero means touching and
    negative means overlap.
    """
    return (1.0 + radius) * distance(line_a, line_b) - 2.0 * radius


def min_surface_gap(config: Configuration, radius: float) -> float:
    """Smallest surface_gap over all cylinder pairs of the configuration."""
    return (1.0 + radius) * min_pairwise_distance(config) - 2.0 * radius


def scene_obj(spec: SceneSpec) -> str:
    """Render the scene as deterministic OBJ text (``v`` and ``f`` records)."""
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

    emit("sphere", sphere_mesh(spec.segments))
    for idx, line in enumerate(spec.configuration):
        emit(
            f"cylinder_{idx + 1}",
            tube_mesh(line, spec.radius, spec.cyl_length, spec.segments),
        )
    return "\n".join(out) + "\n"
