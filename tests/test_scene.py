"""Scene meshes: unit sphere plus touching cylinders."""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cylpack import scene
from cylpack.curve import gamma_point, record
from cylpack.lines import FreeConfig, SphericalPoint, make_tangent_line, min_pairwise_distance, radius_from_distance
from cylpack.scene import MAX_SEGMENTS, _segments, _sphere_records, _tube_records, min_surface_gap, scene_obj
from cylpack.symmetric import D3Params, build_c6
from helpers import traced_peak_mb

C6_INITIAL = build_c6(D3Params(0.0, 0.0, 0.0))


def records(radius=1.0, cyl_length=6.0, segments=8):
    return scene_obj(C6_INITIAL, radius, cyl_length, segments)


def export(radius=1.0, cyl_length=6.0, segments=8):
    return "".join(records(radius, cyl_length, segments))


def unrounded(builder, *args):
    """A mesh builder's vertices as an (n, 3) array of the floats it formats, caught before
    formatting, and its faces as tuples of 1-based indices."""
    with mock.patch.object(scene, "_vertex", lambda *point: point):
        made = list(builder(*args))
    verts = np.array([r for r in made if isinstance(r, tuple)])
    faces = [tuple(map(int, r.split()[1:])) for r in made if isinstance(r, str) and r.startswith("f ")]
    return verts, faces


class TestSceneChecks:
    # scene_obj checks segments, then the sizes, once per export and at the call, before any
    # record is read; the mesh builders check nothing
    @pytest.mark.parametrize("kwargs, message", [
        ({"segments": 4}, "segments must be at least 8: 4"),
        ({"segments": 16.0}, "segments must be an integer: 16.0"),
        ({"radius": 0.0}, "radius must be positive and finite: 0.0"),
        ({"cyl_length": -1.0}, "cyl_length must be positive and finite: -1.0"),
        # two bad values: segments is refused first, then radius
        ({"radius": 0.0, "cyl_length": -1.0, "segments": 4}, "segments must be at least 8: 4"),
        ({"radius": math.nan, "cyl_length": math.inf}, "radius must be positive and finite: nan"),
    ], ids=["coarse", "float-segments", "radius", "cyl_length", "segments-first", "radius-first"])
    def test_refusals(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            records(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["radius", "cyl_length"])
    def test_non_finite_sizes_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite: {value!r}$"):
            export(**{name: value})

    @pytest.mark.parametrize("radius, length, larger", [
        (1e308, 6.0, "radius"), (2.0**1023, 6.0, "radius"), (1e307, 1.7e308, "cyl_length")])
    def test_a_mesh_past_float_range_is_refused(self, radius, length, larger):
        # every coordinate lies within 1 + 2 radius + length of 0; past float range numpy
        # overflowed, warning, and the OBJ writer refused the inf
        value = radius if larger == "radius" else length
        message = f"{larger} must keep the mesh bound 1 + 2 radius + length finite: {value!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                export(radius, length)

    def test_the_largest_length_renders(self):
        assert "inf" not in export(cyl_length=1.7976931348623157e308)

    def test_each_check_runs_once_per_export(self):
        # one sphere and six tubes, one check of segments and one of the sizes
        with mock.patch.object(scene, "_segments", wraps=scene._segments) as segments, \
                mock.patch.object(scene, "_sizes", wraps=scene._sizes) as sizes:
            export(0.5, 2.0, 8)
        assert segments.call_args_list == [mock.call(8)]
        assert sizes.call_args_list == [mock.call(0.5, 2.0)]


class TestSegmentsBound:
    # every count of segments has one upper bound, so a typo fails at once, not after minutes
    @pytest.mark.parametrize("segments", [MAX_SEGMENTS + 1, 10**11, np.int64(10**11)])
    def test_past_the_bound(self, segments):
        with pytest.raises(ValueError, match=f"^segments must be at most 1024: {re.escape(repr(segments))}$"):
            records(segments=segments)

    def test_the_bound_itself(self):
        assert MAX_SEGMENTS == 1024 and _segments(MAX_SEGMENTS) == MAX_SEGMENTS
        line = make_tangent_line(SphericalPoint(0.0, 0.0), 0.0)
        made = _tube_records("cylinder_1", line.base, line.dir, 1.0, 1.0, MAX_SEGMENTS, 0)
        assert sum(r.startswith("v ") for r in made) == 2 * MAX_SEGMENTS


class TestSphereMesh:
    def test_counts_and_norms(self):
        segments = 16
        verts, faces = unrounded(_sphere_records, segments)
        bands = segments // 2
        assert len(verts) == 2 + (bands - 1) * segments
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-12)
        assert len(faces) == 2 * segments + (bands - 2) * segments

    def test_indices_in_range(self):
        verts, faces = unrounded(_sphere_records, 12)
        flat = [i for face in faces for i in face]
        assert min(flat) == 1 and max(flat) == len(verts)


class TestTubeMesh:
    def test_geometry(self):
        line = make_tangent_line(SphericalPoint(0.4, 1.1), 0.7)
        radius, half_length, segments = 0.8, 5.0, 24
        verts, faces = unrounded(_tube_records, "cylinder_1", line.base, line.dir, radius,
                                 half_length, segments, 100)
        assert len(verts) == 2 * segments
        assert len(faces) == segments
        # 1-based, past the 100 vertices before the tube
        assert sorted({i for face in faces for i in face}) == list(range(101, 101 + 2 * segments))
        axis_point = (1.0 + radius) * line.base
        rel = verts - axis_point
        along = rel @ line.dir
        radial = rel - np.outer(along, line.dir)
        assert np.allclose(np.linalg.norm(radial, axis=1), radius, atol=1e-12)
        assert np.allclose(np.sort(np.unique(np.round(along, 9))), [-5.0, 5.0])

    def test_touches_unit_sphere(self):
        line = make_tangent_line(SphericalPoint(-0.3, 2.0), -0.2)
        segments = 64
        verts, _ = unrounded(_tube_records, "cylinder_1", line.base, line.dir, 0.5, 2.0, segments, 0)
        # each ring vertex spans a straight generator of the cylinder;
        # the innermost generator runs through the tangency point, so its
        # distance to the origin is exactly 1
        starts = verts[:segments]
        radial = starts - np.outer(starts @ line.dir, line.dir)
        generator_dists = np.linalg.norm(radial, axis=1)
        assert generator_dists.min() == pytest.approx(1.0, abs=1e-12)
        assert generator_dists.max() == pytest.approx(2.0, abs=1e-12)


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
        r = record()["computed"]["r"]
        config = build_c6(gamma_point(0.5).params)
        assert min_surface_gap(config, r) >= -1e-6
        assert abs(min_surface_gap(config, r)) <= 1e-12
        # any thicker and the nearest pairs overlap
        assert min_surface_gap(config, r + 1e-6) < 0.0

    @given(st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(0.0, 2 * math.pi), st.floats(-math.pi, math.pi)),
                    min_size=2, max_size=7))
    @settings(max_examples=500)
    def test_lines_touch_at_their_radius(self, rows):
        # at the radius of its smallest line distance d, a chart's nearest cylinders touch: the
        # gap (1 + r) d - 2r is zero to 1e-15 of the diameter 2r
        config = FreeConfig(rows)
        d = min_pairwise_distance(config)
        assume(0.0 < d < 2.0)
        r = radius_from_distance(d)
        assert abs(min_surface_gap(config, r)) <= 1e-15 * 2.0 * r


class TestSceneObj:
    def test_deterministic_and_well_formed(self):
        text = export(1.0, 3.0, 12)
        assert text == export(1.0, 3.0, 12)
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
        for ln in export().splitlines():
            if ln.startswith("v "):
                parts = ln.split()
                assert len(parts) == 4
                assert all(math.isfinite(float(p)) for p in parts[1:])

    def test_memory_flat_in_segments(self):
        # records are made as they are read: the joined text at 256 segments is 2.4 MB
        assert len(export(segments=256)) > 2 * 2**20
        assert traced_peak_mb(lambda: sum(map(len, records(segments=256)))) < 1.0
