"""Scene meshes: unit sphere plus touching cylinders."""

import math
from itertools import combinations

import numpy as np
import pytest

from cylpack.curve import gamma_point, record
from cylpack.lines import make_tangent_line, SphericalPoint
from cylpack.scene import (
    SceneSpec,
    min_surface_gap,
    scene_obj,
    sphere_mesh,
    surface_gap,
    tube_mesh,
)
from cylpack.symmetric import D3Params, build_c6

C6_INITIAL = build_c6(D3Params(0.0, 0.0, 0.0))


class TestSceneSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(C6_INITIAL, radius=1.0, segments=4)
        with pytest.raises(ValueError):
            SceneSpec(C6_INITIAL, radius=0.0)
        with pytest.raises(ValueError):
            SceneSpec(C6_INITIAL, radius=1.0, cyl_length=-1.0)
        with pytest.raises(ValueError):
            SceneSpec(C6_INITIAL, radius=1.0, segments=16.0)

    def test_defaults(self):
        spec = SceneSpec(C6_INITIAL, radius=1.0)
        assert spec.cyl_length == 6.0 and spec.segments == 64


class TestSphereMesh:
    def test_counts_and_norms(self):
        segments = 16
        verts, faces = sphere_mesh(segments)
        bands = segments // 2
        assert len(verts) == 2 + (bands - 1) * segments
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-12)
        assert len(faces) == 2 * segments + (bands - 2) * segments

    def test_indices_in_range(self):
        verts, faces = sphere_mesh(12)
        flat = [i for face in faces for i in face]
        assert min(flat) == 0 and max(flat) == len(verts) - 1

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            sphere_mesh(4)

    def test_float_segments(self):
        with pytest.raises(ValueError, match="segments must be an integer"):
            sphere_mesh(16.0)


class TestTubeMesh:
    def test_geometry(self):
        line = make_tangent_line(SphericalPoint(0.4, 1.1), 0.7)
        radius, half_length, segments = 0.8, 5.0, 24
        verts, faces = tube_mesh(line, radius, half_length, segments)
        assert len(verts) == 2 * segments
        assert len(faces) == segments
        axis_point = (1.0 + radius) * line.base
        rel = verts - axis_point
        along = rel @ line.dir
        radial = rel - np.outer(along, line.dir)
        assert np.allclose(np.linalg.norm(radial, axis=1), radius, atol=1e-12)
        assert np.allclose(np.sort(np.unique(np.round(along, 9))), [-5.0, 5.0])

    def test_touches_unit_sphere(self):
        line = make_tangent_line(SphericalPoint(-0.3, 2.0), -0.2)
        segments = 64
        verts, _ = tube_mesh(line, 0.5, 2.0, segments)
        # each ring vertex spans a straight generator of the cylinder;
        # the innermost generator runs through the tangency point, so its
        # distance to the origin is exactly 1
        starts = verts[:segments]
        radial = starts - np.outer(starts @ line.dir, line.dir)
        generator_dists = np.linalg.norm(radial, axis=1)
        assert generator_dists.min() == pytest.approx(1.0, abs=1e-12)
        assert generator_dists.max() == pytest.approx(2.0, abs=1e-12)

    def test_validation(self):
        line = make_tangent_line(SphericalPoint(0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            tube_mesh(line, 0.0, 1.0, 16)
        with pytest.raises(ValueError):
            tube_mesh(line, 1.0, 1.0, 4)

    def test_float_segments(self):
        line = make_tangent_line(SphericalPoint(0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="segments must be an integer"):
            tube_mesh(line, 1.0, 1.0, 16.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["radius", "half_length"])
    def test_non_finite_sizes_rejected(self, name, value):
        line = make_tangent_line(SphericalPoint(0.0, 0.0), 0.0)
        sizes = {"radius": 0.5, "half_length": 6.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite: {value!r}$"):
            tube_mesh(line, sizes["radius"], sizes["half_length"], 8)


class TestSurfaceGap:
    def test_initial_configuration_touching_pairs(self):
        # at radius 1 the six nearest pairs touch and none overlap
        gaps = [
            surface_gap(a, b, 1.0) for a, b in combinations(C6_INITIAL.lines, 2)
        ]
        touching = sum(1 for g in gaps if abs(g) <= 1e-9)
        assert touching == 6
        assert min(gaps) >= -1e-12

    def test_record_configuration(self):
        rep = record()
        config = build_c6(gamma_point(0.5).params)
        assert min_surface_gap(config, rep.r_m) >= -1e-6
        assert abs(min_surface_gap(config, rep.r_m)) <= 1e-12
        # any thicker and the nearest pairs overlap
        assert min_surface_gap(config, rep.r_m + 1e-6) < 0.0


class TestSceneObj:
    def test_deterministic_and_well_formed(self):
        spec = SceneSpec(C6_INITIAL, radius=1.0, cyl_length=3.0, segments=12)
        text = scene_obj(spec)
        assert text == scene_obj(spec)
        assert text.startswith("o sphere\n")
        assert text.endswith("\n")
        lines = text.splitlines()
        n_verts = sum(1 for ln in lines if ln.startswith("v "))
        bands = 12 // 2
        expected = (2 + (bands - 1) * 12) + 6 * 2 * 12
        assert n_verts == expected
        assert sum(1 for ln in lines if ln.startswith("o ")) == 7
        face_indices = [
            int(tok)
            for ln in lines
            if ln.startswith("f ")
            for tok in ln.split()[1:]
        ]
        assert min(face_indices) == 1 and max(face_indices) == n_verts

    def test_vertex_lines_parse(self):
        spec = SceneSpec(C6_INITIAL, radius=1.0, segments=8)
        for ln in scene_obj(spec).splitlines():
            if ln.startswith("v "):
                parts = ln.split()
                assert len(parts) == 4
                assert all(math.isfinite(float(p)) for p in parts[1:])
