"""Scene meshes: unit sphere plus touching cylinders."""

import math
import re
import warnings

import numpy as np
import pytest

from cylpack.curve import gamma_point, record
from cylpack.lines import make_tangent_line, SphericalPoint
from cylpack.scene import (
    MAX_SEGMENTS,
    SceneSpec,
    min_surface_gap,
    scene_obj,
    sphere_mesh,
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

    @pytest.mark.parametrize("radius, length, larger", [
        (1e308, 6.0, "radius"), (2.0**1023, 6.0, "radius"), (1e307, 1.7e308, "length")])
    @pytest.mark.parametrize("build, length_name", [
        (lambda r, h: SceneSpec(C6_INITIAL, radius=r, cyl_length=h), "cyl_length"),
        (lambda r, h: tube_mesh(make_tangent_line(SphericalPoint(0.0, 0.0), 0.0), r, h, 8), "half_length"),
    ], ids=["spec", "tube"])
    def test_a_mesh_past_float_range_is_refused(self, radius, length, larger, build, length_name):
        # every coordinate lies within 1 + 2 radius + length of 0; past float range numpy
        # overflowed, warning, and the OBJ writer refused the inf
        name, value = ("radius", radius) if larger == "radius" else (length_name, length)
        message = f"{name} must keep the mesh bound 1 + 2 radius + length finite: {value!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(radius, length)

    def test_the_largest_length_renders(self):
        spec = SceneSpec(C6_INITIAL, radius=1.0, cyl_length=1.7976931348623157e308, segments=8)
        assert "inf" not in scene_obj(spec)

    def test_defaults(self):
        spec = SceneSpec(C6_INITIAL, radius=1.0)
        assert spec.cyl_length == 6.0 and spec.segments == 64


class TestSegmentsBound:
    # every count of segments has one upper bound, so a typo fails at once, not after minutes
    LINE = make_tangent_line(SphericalPoint(0.0, 0.0), 0.0)
    BUILDERS = {
        "spec": lambda n: SceneSpec(C6_INITIAL, radius=1.0, segments=n),
        "sphere": sphere_mesh,
        "tube": lambda n: tube_mesh(TestSegmentsBound.LINE, 1.0, 1.0, n),
    }

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    @pytest.mark.parametrize("segments", [MAX_SEGMENTS + 1, 10**11, np.int64(10**11)])
    def test_past_the_bound(self, build, segments):
        with pytest.raises(ValueError, match=f"^segments must be at most 1024: {re.escape(repr(segments))}$"):
            build(segments)

    def test_the_bound_itself(self):
        assert MAX_SEGMENTS == 1024
        assert SceneSpec(C6_INITIAL, radius=1.0, segments=MAX_SEGMENTS).segments == MAX_SEGMENTS
        assert len(tube_mesh(self.LINE, 1.0, 1.0, MAX_SEGMENTS)[0]) == 2 * MAX_SEGMENTS


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
        # at radius 1 the six nearest pairs touch and none overlap: a pair at
        # line distance d has surface gap (1 + 1) d - 2
        gaps = 2.0 * np.sqrt(C6_INITIAL.dsq) - 2.0
        touching = int((np.abs(gaps) <= 1e-9).sum())
        assert touching == 6
        assert gaps.min() >= -1e-12
        assert min_surface_gap(C6_INITIAL, 1.0) == gaps.min()

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
