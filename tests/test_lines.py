"""Tangent-line geometry: constructions, distances, radius conversions."""

import itertools
import math
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cylpack import lines as lines_module
from cylpack.lines import (
    Configuration,
    FreeConfig,
    PARALLEL_TOL,
    SphericalPoint,
    TangentLine,
    _BLOCK,
    _chart_index,
    _charts_dsq,
    _frame_table,
    _frame_xyz,
    _pair_kernel,
    _pairs,
    _reduce_lon,
    chart_from_configuration,
    distance_sq,
    make_tangent_line,
    min_pairwise_distance,
    radius_from_distance,
)
from cylpack.search import chart_record, objective
from cylpack.symmetric import _ORBIT_COLS, D3Params, _generic_rows, build_c6, triplets_generic

from helpers import batched_dsq, ref_chart, ref_lines_table

RNG = np.random.default_rng(90)  # fixed stream for the property tests


def random_point(rng):
    return SphericalPoint(rng.uniform(-1.4, 1.4), rng.uniform(0.0, 2 * math.pi))


def random_rotation(rng):
    """A random rotation matrix: the Q of a Gaussian 3x3's QR, its sign fixed so det = +1."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q if np.linalg.det(q) > 0 else -q


def rotated(line, r):
    return TangentLine(r @ line.base, r @ line.dir)


class TestSphericalPoint:
    def test_longitude_reduction(self):
        assert SphericalPoint(0.0, 2 * math.pi).kappa == 0.0
        assert math.isclose(SphericalPoint(0.0, -math.pi / 6).kappa, 11 * math.pi / 6, rel_tol=1e-15)
        # a longitude epsilon below zero must wrap to 0.0, not 2*pi
        assert SphericalPoint(0.0, -1e-18).kappa == 0.0

    def test_latitude_range(self):
        SphericalPoint(math.pi / 2, 0.0)
        SphericalPoint(-math.pi / 2, 0.0)
        with pytest.raises(ValueError):
            SphericalPoint(math.pi / 2 + 1e-9, 0.0)
        with pytest.raises(ValueError):
            SphericalPoint(math.nan, 0.0)
        with pytest.raises(ValueError):
            SphericalPoint(0.0, math.inf)

    # a point embeds as the base of its tangent lines; delta = 0 points them north
    def test_embed_examples(self):
        half = math.sqrt(0.5)
        for (phi, kappa), want in (((0.0, 0.0), [1, 0, 0]), ((0.0, math.pi / 2), [0, 1, 0]),
                                   ((-math.pi / 4, 3 * math.pi / 2), [0, -half, -half])):
            line = make_tangent_line(SphericalPoint(phi, kappa), 0.3)
            assert np.allclose(line.base, want, atol=1e-15)

    def test_embed_unit_norm(self):
        for _ in range(50):
            line = make_tangent_line(random_point(RNG), RNG.uniform(-math.pi, math.pi))
            assert math.isclose(float(np.linalg.norm(line.base)), 1.0, abs_tol=1e-15)

    def test_north_tangent(self):
        assert np.allclose(make_tangent_line(SphericalPoint(0.0, 0.0), 0.0).dir, [0, 0, 1], atol=1e-15)
        p = SphericalPoint(0.7, 2.1)
        line = make_tangent_line(p, 0.0)
        assert math.isclose(float(np.linalg.norm(line.dir)), 1.0, abs_tol=1e-15)
        assert abs(float(line.dir @ line.base)) < 1e-15
        # due north: in the meridian plane of the base, rising toward the pole
        assert abs(float(np.cross(line.base, [0.0, 0.0, 1.0]) @ line.dir)) < 1e-15
        assert math.isclose(float(line.dir[2]), math.cos(0.7), rel_tol=1e-15)
        with pytest.raises(ValueError):
            make_tangent_line(SphericalPoint(math.pi / 2, 0.0), 0.0)


class TestTangentLine:
    def test_snaps_to_exact_unit_and_tangent(self):
        base = np.array([1.0 + 3e-10, 0.0, 0.0])
        direction = np.array([1e-10, 0.0, 1.0])
        line = TangentLine(base, direction)
        assert math.isclose(float(np.linalg.norm(line.base)), 1.0, abs_tol=1e-14)
        assert math.isclose(float(np.linalg.norm(line.dir)), 1.0, abs_tol=1e-14)
        assert abs(float(line.base @ line.dir)) < 1e-14

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            TangentLine(np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            TangentLine(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.5]))
        with pytest.raises(ValueError):
            # unit but far from tangent
            TangentLine(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            TangentLine(np.array([1.0, 0.0]), np.array([0.0, 0.0, 1.0]))

    def test_arrays_read_only(self):
        line = make_tangent_line(SphericalPoint(0.2, 0.3), 0.4)
        with pytest.raises(ValueError):
            line.base[0] = 0.0
        with pytest.raises(ValueError):
            line.dir[0] = 0.0

    def test_negation_is_bit_exact(self):
        line = make_tangent_line(SphericalPoint(0.37, 1.91), -0.82)
        flipped = TangentLine(line.base, -line.dir)
        assert np.array_equal(flipped.base, line.base)
        assert np.array_equal(flipped.dir, -line.dir)

    def test_canonical(self):
        flipped = lines_module._canonical(np.array([0.0, 0.0, -1.0]))
        assert np.array_equal(flipped, [0.0, 0.0, 1.0])
        assert np.array_equal(lines_module._canonical(flipped), flipped)


class TestMakeTangentLine:
    def test_meridian_tangent(self):
        line = make_tangent_line(SphericalPoint(0.0, 0.0), 0.0)
        assert np.allclose(line.base, [1, 0, 0], atol=1e-15)
        assert np.allclose(line.dir, [0, 0, 1], atol=1e-15)

    def test_quarter_turn_points_east(self):
        line = make_tangent_line(SphericalPoint(0.0, 0.0), math.pi / 2)
        assert np.allclose(line.dir, [0, 1, 0], atol=1e-15)

    def test_matches_rotation_about_radius(self):
        # independent oracle: the north tangent turned about the base radius by
        # delta toward east, cos(delta) N + sin(delta) E, in a frame written out here
        for _ in range(50):
            p = random_point(RNG)
            delta = RNG.uniform(-math.pi, math.pi)
            line = make_tangent_line(p, delta)
            sp, cp, sk, ck = math.sin(p.phi), math.cos(p.phi), math.sin(p.kappa), math.cos(p.kappa)
            base = np.array([cp * ck, cp * sk, sp])
            north = np.array([-sp * ck, -sp * sk, cp])
            east = np.array([-sk, ck, 0.0])
            frame = np.array([base, north, east])  # orthonormal, east = north x base
            assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-15)
            assert np.allclose(np.cross(north, base), east, atol=1e-15)
            assert np.allclose(line.dir, math.cos(delta) * north + math.sin(delta) * east, atol=1e-14)
            assert np.allclose(line.base, base, atol=1e-15)

    def test_pole_rejected(self):
        with pytest.raises(ValueError, match="north direction undefined"):
            make_tangent_line(SphericalPoint(math.pi / 2, 0.0), 0.0)
        with pytest.raises(ValueError, match="north direction undefined"):
            make_tangent_line(SphericalPoint(-math.pi / 2, 2.0), 1.0)


def vertical(lon):
    return make_tangent_line(SphericalPoint(0.0, lon), 0.0)


class TestDistance:
    def test_neighbor_verticals(self):
        # vertical tangents a sixth of a turn apart: chord 2 sin(pi/6) = 1
        assert math.isclose(distance_sq(vertical(math.pi / 6), vertical(math.pi / 2)), 1.0, abs_tol=1e-14)

    def test_parallel_verticals_chord_oracle(self):
        # opposite-ish verticals are exactly parallel; the distance is the
        # chord between tangency points, 2 sin(delta_lon / 2)
        u, v = vertical(math.pi / 6), vertical(5 * math.pi / 6)
        chord = 2 * math.sin(math.pi / 3)
        assert math.isclose(distance_sq(u, v), chord * chord, abs_tol=1e-14)
        assert math.isclose(distance_sq(u, v), 3.0, abs_tol=1e-14)

    def test_coincident_line_is_zero(self):
        u = make_tangent_line(SphericalPoint(0.3, 1.2), 0.7)
        assert distance_sq(u, u) == 0.0

    def test_symmetry_exact(self):
        for _ in range(100):
            u = make_tangent_line(random_point(RNG), RNG.uniform(-1.5, 1.5))
            v = make_tangent_line(random_point(RNG), RNG.uniform(-1.5, 1.5))
            assert distance_sq(u, v) == distance_sq(v, u)

    def test_orientation_invariance_exact(self):
        for _ in range(100):
            u = make_tangent_line(random_point(RNG), RNG.uniform(-1.5, 1.5))
            v = make_tangent_line(random_point(RNG), RNG.uniform(-1.5, 1.5))
            d = distance_sq(u, v)
            assert distance_sq(TangentLine(u.base, -u.dir), v) == d
            assert distance_sq(u, TangentLine(v.base, -v.dir)) == d

    def test_rotation_invariance(self):
        for _ in range(50):
            u = make_tangent_line(random_point(RNG), RNG.uniform(-1.5, 1.5))
            v = make_tangent_line(random_point(RNG), RNG.uniform(-1.5, 1.5))
            r = random_rotation(RNG)
            d = distance_sq(u, v)
            dr = distance_sq(rotated(u, r), rotated(v, r))
            assert math.isclose(dr, d, rel_tol=1e-10, abs_tol=1e-10)

    def test_near_parallel_consistency(self):
        # generic formula versus parallel fallback on a nearly parallel
        # pair whose tilt is perpendicular to the base offset; for a tilt
        # with a component along the offset the two genuinely differ (the
        # closest approach of almost-parallel lines can sit far away).
        # Tangency only allows a vertical line to tilt eastward, and east
        # is perpendicular to the offset exactly for antipodal bases.
        u = vertical(0.0)
        theta = 2e-6
        v = make_tangent_line(SphericalPoint(0.0, math.pi), theta)
        dot = float(u.dir @ v.dir)
        assert 1.0 - dot * dot > PARALLEL_TOL  # generic branch is live
        generic = distance_sq(u, v)
        w = v.base - u.base
        wp = w - float(w @ u.dir) * u.dir
        fallback = float(wp @ wp)
        assert math.isclose(generic, fallback, rel_tol=1e-6)

    def test_exactly_parallel_uses_fallback(self):
        u, v = vertical(0.1), vertical(0.9)
        chord = 2 * math.sin(0.4)
        assert math.isclose(distance_sq(u, v), chord * chord, rel_tol=1e-14)


class TestConfiguration:
    def test_requires_two_lines(self):
        with pytest.raises(ValueError):
            Configuration((vertical(0.0),))
        with pytest.raises(TypeError):
            Configuration((vertical(0.0), "not a line"))

    def test_distance_matrix(self):
        # the configuration's pair distances through the batched kernel on its own stacks,
        # in pair order (0, 1), (0, 2), (1, 2)
        c = Configuration((vertical(0.0), vertical(math.pi / 3), vertical(math.pi)))
        out = batched_dsq(c.table[:, :3], c.table[:, 3:])
        assert out.shape == (3,)
        assert math.isclose(out[0], 1.0, abs_tol=1e-14)
        assert math.isclose(out[1], 4.0, abs_tol=1e-14)
        assert math.isclose(out[2], 3.0, abs_tol=1e-14)
        assert np.array_equal(batched_dsq(c.table[::-1, :3], c.table[::-1, 3:]), out[::-1])

    def test_min_pairwise(self):
        c = Configuration((vertical(0.0), vertical(math.pi / 3), vertical(math.pi)))
        assert math.isclose(min_pairwise_distance(c), 1.0, abs_tol=1e-14)


class TestRadius:
    def test_examples(self):
        assert radius_from_distance(1.0) == 1.0
        assert math.isclose(radius_from_distance(math.sqrt(2.0)), 1.0 + math.sqrt(2.0), rel_tol=1e-15)

    def test_round_trip(self):
        # cylinders of radius r touch at line distance 2r/(1+r)
        for d in np.linspace(0.0, 1.9, 96):
            r = radius_from_distance(float(d))
            assert math.isclose(2.0 * r / (1.0 + r), float(d), rel_tol=1e-12, abs_tol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="radius unbounded"):
            radius_from_distance(2.0)
        with pytest.raises(ValueError, match="invalid distance"):
            radius_from_distance(-0.1)


# ---------------------------------------------------------------- kernel properties

LAT = st.floats(-1.5, 1.5)
LON = st.floats(0.0, 2 * math.pi)
ANG = st.floats(-math.pi, math.pi)
# equatorial lines tilted 0 or pi are vertical, so any two are exactly parallel
EQUATORIAL = st.tuples(st.just(0.0), LON, st.sampled_from([0.0, math.pi]))
ROW = st.one_of(st.tuples(LAT, LON, ANG), EQUATORIAL)
ROWS = st.lists(ROW, min_size=2, max_size=7)
# two configurations of n lines each
BATCH = st.integers(2, 7).flatmap(lambda n: st.lists(ROW, min_size=2 * n, max_size=2 * n))


def frame_stacks(lat, lon, ang):
    """(n, 3) stacks of tangency points and directions of the lines at these chart angles."""
    xyz = _frame_xyz(np.array([lat, lon, ang]))
    return np.stack(xyz[:3], axis=-1), np.stack(xyz[3:], axis=-1)


def kernel_input(rows):
    lat, lon, ang = np.array(rows).T
    return frame_stacks(lat, lon, ang)


def pair_index(n):
    """Position of pair (i, j), i < j, in the pair kernel's row-major output."""
    return {pair: k for k, pair in enumerate(zip(*np.triu_indices(n, 1)))}


def component_skew_dsq(bases, dirs):
    """The pair kernel's skew branch gathered component by component, x, y and z arrays
    first and pairs from each: a skew mask and the values under it."""
    i, j = np.triu_indices(bases.shape[-2], 1)
    bx, by, bz, dx, dy, dz = (a[..., k] for a in (bases, dirs) for k in range(3))
    ux, uy, uz, vx, vy, vz = (a[..., m] for m in (i, j) for a in (dx, dy, dz))
    wx, wy, wz = (a[..., j] - a[..., i] for a in (bx, by, bz))
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    denom = (cx * cx + cz * cz) + cy * cy
    det = (cx * wx + cz * wz) + cy * wy
    skew = denom > PARALLEL_TOL
    return skew, (det * det)[skew] / denom[skew]


def reference_frame_xyz(phi, kappa, ang):
    """The frame with dz written out in full, ca * nz + sa * ez, at the east tangent's ez = 0.0."""
    sp, cp = np.sin(phi), np.cos(phi)
    sk, ck = np.sin(kappa), np.cos(kappa)
    ca, sa = np.cos(ang), np.sin(ang)
    (nx, ny, nz), (ex, ey, ez) = (-sp * ck, -sp * sk, cp), (-sk, ck, 0.0)
    return cp * ck, cp * sk, sp, ca * nx + sa * ex, ca * ny + sa * ey, ca * nz + sa * ez


HALF_PI = math.pi / 2
# tangent angles at signed zeros, at +-pi, and at +-pi/2 and its neighbours, where cos is tiny
EDGE_ANG = st.sampled_from([0.0, -0.0, HALF_PI, -HALF_PI, math.pi, -math.pi,
                            *(s * math.nextafter(HALF_PI, to) for s in (1, -1) for to in (0, 4))])
FRAME_ROW = st.one_of(ROW, st.tuples(st.sampled_from([0.0, -0.0]) | LAT, LON, EDGE_ANG))
# any finite chart row
WIDE_ROW = st.tuples(*[st.floats(-1e300, 1e300)] * 3)


class TestFrameOracle:
    @settings(deadline=None)
    @given(st.lists(FRAME_ROW, min_size=1, max_size=7))
    def test_frame_matches_the_full_dz_bytewise(self, rows):
        # over arrays, as charts and batches frame them, and over scalars, as one line does
        chart = np.array(rows).T
        assert same_bits(_frame_xyz(chart), reference_frame_xyz(*chart))
        for row in rows:
            assert same_bits(_frame_xyz(np.array(row)), reference_frame_xyz(*row))

    def test_nan_angle_stays_nan(self):
        for xyz in (_frame_xyz(np.array([0.3, 1.0, math.nan])), reference_frame_xyz(0.3, 1.0, math.nan)):
            assert np.isnan(xyz[3:]).all() and np.isfinite(xyz[:3]).all()


class TestKernelProperties:
    @settings(deadline=None)
    @given(ROWS, st.data())
    def test_permutation_invariance_exact(self, rows, data):
        n = len(rows)
        perm = data.draw(st.permutations(range(n)))
        bases, dirs = kernel_input(rows)
        out = batched_dsq(bases, dirs)
        permuted = batched_dsq(bases[perm], dirs[perm])
        index = pair_index(n)
        for (i, j), k in index.items():
            a, b = perm[i], perm[j]
            assert permuted[k] == out[index[min(a, b), max(a, b)]]

    @settings(deadline=None)
    @given(ROWS, st.data())
    def test_orientation_invariance_exact(self, rows, data):
        bases, dirs = kernel_input(rows)
        flips = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        signs = np.where(flips, -1.0, 1.0)[:, None]
        assert np.array_equal(batched_dsq(bases, signs * dirs), batched_dsq(bases, dirs))

    @settings(deadline=None)
    @given(BATCH)
    def test_memory_layout_does_not_change_bits(self, rows):
        # the batched branch takes operands along the table's first axis; a (6n, 2) table of
        # two charts, one component-major column each, gives the same bits in Fortran and in C order
        bases, dirs = kernel_input(rows)
        n = len(rows) // 2
        charts = np.concatenate((bases, dirs), axis=-1).reshape(2, n, 6)
        table = charts.transpose(0, 2, 1).reshape(2, -1).T
        index = _chart_index(n)
        out = _pair_kernel(table, index)
        assert _pair_kernel(np.ascontiguousarray(table), index).tobytes() == out.tobytes()

    @settings(deadline=None)
    @given(
        st.one_of(ROWS.map(lambda rows: (rows, (-1, 3))), BATCH.map(lambda rows: (rows, (2, -1, 3)))),
        st.sampled_from([np.ascontiguousarray, np.asfortranarray]),
    )
    def test_skew_bits_pinned(self, case, layout):
        # gathering u, v and w from the stacked arrays moves no skew pair's bits
        rows, shape = case
        bases, dirs = (layout(a.reshape(shape)) for a in kernel_input(rows))
        skew, want = component_skew_dsq(bases, dirs)
        assert batched_dsq(bases, dirs)[skew].tobytes() == want.tobytes()

    @settings(deadline=None)
    @given(ROWS)
    def test_scalar_matches_batch_bitwise(self, rows):
        c = FreeConfig(rows)
        out = batched_dsq(np.array([u.base for u in c]), np.array([u.dir for u in c]))
        for (i, j), k in pair_index(len(c)).items():
            assert distance_sq(c[i], c[j]) == out[k]

    @settings(deadline=None, max_examples=300)
    @given(st.lists(FRAME_ROW | WIDE_ROW, min_size=1, max_size=7))
    @example([(1e300, -1e300, 1e300), (-1e300, 1e300, HALF_PI), (1e300, 0.0, -math.pi)])
    def test_frames_orthonormal(self, rows):
        # a frame of finite coordinates is unit and tangent to rounding, so no chart's line needs
        # a check: |b.b - 1| and |d.d - 1| at most 7e-16 put each norm within 4.7e-16 of 1 after
        # rounding, short of TangentLine's 5e-16 snap, and |b.d| is held to its 1e-15
        bases, dirs = kernel_input(rows)
        assert np.all(np.abs(np.vecdot(bases, bases) - 1.0) <= 7e-16)
        assert np.all(np.abs(np.vecdot(dirs, dirs) - 1.0) <= 7e-16)
        assert np.all(np.abs(np.vecdot(bases, dirs)) <= 1e-15)
        for b, d in zip(bases, dirs):
            assert line_or_message(np.concatenate((b, d))) == b.tobytes() + d.tobytes()

    def test_parallel_pairs_exact(self):
        # vertical lines tilted 0 and pi: the fallback branch on every pair
        rows = [(0.0, 0.3, 0.0), (0.0, 1.9, math.pi), (0.0, 4.0, 0.0)]
        bases, dirs = kernel_input(rows)
        out = batched_dsq(bases, dirs)
        for (i, j), k in pair_index(3).items():
            chord = 2 * math.sin((rows[j][1] - rows[i][1]) / 2)
            assert math.isclose(out[k], chord * chord, rel_tol=1e-14)
        assert np.array_equal(batched_dsq(bases[::-1], dirs[::-1]), out[::-1])


# ---------------------------------------------------------------- line checks


@np.errstate(over="ignore")  # squares of 1e200 noise overflow to an inf norm
def one_line_check(base, direction):
    """Reference copy of TangentLine's checks as they ran one line at a
    time, with np.linalg.norm and the 1-D `@`.  Returns (base, dir), or
    (stage, offset, message) of the first failing check."""
    if not (np.all(np.isfinite(base)) and np.all(np.isfinite(direction))):
        return 0, math.inf, "base and dir must be finite"
    nb = float(np.linalg.norm(base))
    if abs(nb - 1.0) > 1e-9:
        return 1, abs(nb - 1.0), f"base must be a unit vector, |base| = {nb!r}"
    if abs(nb - 1.0) > 5e-16:
        base = base / nb
    dot = float(direction @ base)
    if abs(dot) > 1e-9:
        return 2, abs(dot), f"dir must be tangent at base, base . dir = {dot!r}"
    if abs(dot) > 1e-15:
        direction = direction - dot * base
    nd = float(np.linalg.norm(direction))
    if abs(nd - 1.0) > 1e-9:
        return 3, abs(nd - 1.0), f"dir must be a unit vector, |dir| = {nd!r}"
    if abs(nd - 1.0) > 5e-16:
        direction = direction / nd
    return base, direction


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# per-row perturbation sizes: clean, snapped at each threshold, out of range
# (past 1e-9), so large that squared norms overflow, and nan
NOISE = st.sampled_from([0.0, 1e-16, 5e-16, 3e-15, 1e-12, 1e-10, 3e-9, 1e-6, 1e200, math.nan])
# (latitude, longitude, tangent angle, base noise, dir noise)
NOISY_ROWS = st.lists(st.tuples(LAT, LON, ANG, NOISE, NOISE), min_size=1, max_size=7)


def noisy_table(rows, seed):
    """(n, 6) frame table of [base | dir] rows, perturbed row by row."""
    lat, lon, ang, base_noise, dir_noise = np.array(rows).T
    bases, dirs = frame_stacks(lat, lon, ang)
    rng = np.random.default_rng(seed)
    bases = bases + base_noise[:, None] * rng.uniform(-1.0, 1.0, bases.shape)
    dirs = dirs + dir_noise[:, None] * rng.uniform(-1.0, 1.0, dirs.shape)
    return np.concatenate((bases, dirs), axis=1)


def line_or_message(row):
    """TangentLine's base and dir bits for a [base | dir] row, or its message; it warns about nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            line = TangentLine(row[:3], row[3:])
        except ValueError as exc:
            return str(exc)
    return line.base.tobytes() + line.dir.tobytes()


def oracle_line_or_message(row):
    """one_line_check's base and dir bits for a [base | dir] row, or its message."""
    result = one_line_check(row[:3].copy(), row[3:].copy())
    return result[2] if len(result) == 3 else result[0].tobytes() + result[1].tobytes()


class TestLineChecks:
    @settings(deadline=None, max_examples=300)
    @given(NOISY_ROWS, st.integers(0, 2**32 - 1))
    def test_matches_one_line_oracle(self, rows, seed):
        for row in noisy_table(rows, seed):
            assert line_or_message(row) == oracle_line_or_message(row)

    def test_forced_snaps_match_one_line_oracle(self):
        rng = np.random.default_rng(94)
        charts = rng.uniform([-1.5, 0.0, -4.0], [1.5, 7.0, 4.0], (3000, 3))
        rows = np.column_stack([charts, np.full((3000, 2), 1e-10)])
        for row in noisy_table(rows, 95):
            got = line_or_message(row)
            assert got == oracle_line_or_message(row) and got != row.tobytes()  # snapped

    def test_single_line_messages_name_plain_floats(self):
        with pytest.raises(ValueError, match=r"\|base\| = 2\.0$"):
            TangentLine(np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match=r"base \. dir = 1\.0$"):
            TangentLine(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="must be finite"):
            TangentLine(np.array([1e200, 0.0, 0.0]), np.array([math.nan, 0.0, 1.0]))
        with pytest.raises(ValueError, match="must be finite"):
            TangentLine(np.array([1.0, 0.0, 0.0]), np.array([0.0, math.inf, 1.0]))
        # finite components whose squares overflow are not called non-finite
        with pytest.raises(ValueError, match=r"\|base\| = inf$"):
            TangentLine(np.array([1e200, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match=r"\|dir\| = inf$"):
            TangentLine(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1e200, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", range(3))
    def test_charts_refuse_a_non_finite_coordinate(self, bad, column):
        # a chart is refused before it is framed, so no line of it needs a check
        rows = [[0.3, 1.0, 0.5], [-0.2, 2.0, 1.0]]
        rows[1][column] = bad
        with pytest.raises(ValueError, match="^chart coordinates must be finite$"):
            FreeConfig(rows)
        with pytest.raises(ValueError, match="^chart coordinates must be finite$"):
            make_tangent_line(SphericalPoint(0.3, 1.0), bad)

    @settings(deadline=None)
    @given(st.lists(st.tuples(LAT, st.floats(-20.0, 20.0), ANG), min_size=2, max_size=7))
    def test_rows_frame_as_make_tangent_line(self, rows):
        # make_tangent_line(p, ang) is the line of the chart row (p.phi, p.kappa, ang)
        points = [SphericalPoint(lat, lon) for lat, lon, _ in rows]
        c = FreeConfig([(p.phi, p.kappa, ang) for p, (_, _, ang) in zip(points, rows)])
        for p, (_, _, ang), line in zip(points, rows, c):
            ref = make_tangent_line(p, ang)
            assert same_bits(line.base, ref.base) and same_bits(line.dir, ref.dir)
            assert not (line.base.flags.writeable or line.dir.flags.writeable)

    @settings(deadline=None)
    @given(ROWS)
    def test_configuration_stacks_are_read_only_line_vectors(self, rows):
        built = FreeConfig(rows)
        rebuilt = Configuration(tuple(TangentLine(u.base, u.dir) for u in built))
        for c in (built, rebuilt):
            assert c.table[:, :3].shape == c.table[:, 3:].shape == (len(rows), 3)
            assert same_bits(c.table[:, :3], [u.base for u in c])
            assert same_bits(c.table[:, 3:], [u.dir for u in c])
            with pytest.raises(ValueError):
                c.table[0, 0] = 0.0
            with pytest.raises(ValueError):
                c.table[0, 3] = 0.0


def near(value):
    """The double nearest value and its two neighbours."""
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


# |base| and |dir| at the doubles around 1 -+ 5e-16 and 1 -+ 1e-15, and base . dir at the doubles
# around -+5e-16 and -+1e-15: each one ulp inside, at, or outside a snap threshold
NORMS = [1.0] + [v for t in (5e-16, 1e-15) for s in (-1, 1) for v in near(1 + s * t)]
DOTS = [0.0] + [v for t in (5e-16, 1e-15) for s in (-1, 1) for v in near(s * t)]


def threshold_row(nb, nd, t, k, s):
    """[base | dir] row on the axes: base = nb e_k, dir = t e_k + nd s e_(k+1), so that
    |base| = nb exactly, and base . dir = nb t, |dir| = nd to within an ulp."""
    row = np.zeros(6)
    row[k], row[3 + k], row[3 + (k + 1) % 3] = nb, t, s * nd
    return row


class TestThresholdNeighbours:
    def test_every_row_matches_the_one_line_oracle(self):
        # (|base|, |dir|, base . dir, which axis base lies on, sign of dir)
        for args in itertools.product(NORMS, NORMS, DOTS, range(3), (-1, 1)):
            row = threshold_row(*args)
            assert line_or_message(row) == oracle_line_or_message(row), args

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
    @pytest.mark.parametrize("column", range(6))
    def test_nonfinite_rows_raise_the_oracle_message_without_a_warning(self, bad, column):
        # 1e200 is finite, but its square overflows
        row = threshold_row(1.0, 1.0, 0.0, 0, 1)
        row[column] = bad
        message = line_or_message(row)
        assert message == oracle_line_or_message(row)
        assert (message == "base and dir must be finite") is (bad != 1e200)


# ---------------------------------------------------------------- parallel fallback and longitudes


def einsum_canonical(d):
    """Reference copy of the earlier (m, 3)-stack canonical flip."""
    first = np.take_along_axis(d, np.argmax(d != 0.0, axis=-1)[:, None], axis=-1)
    return np.where(first < 0.0, -d, d)


def einsum_parallel_dsq(du, dv, w):
    """Reference copy of the earlier einsum fallback on C-ordered (m, 3) stacks."""
    a, b = einsum_canonical(du), einsum_canonical(dv)
    k = np.argmax(a != b, axis=-1)[:, None]
    n = np.where(np.take_along_axis(a, k, axis=-1) >= np.take_along_axis(b, k, axis=-1), a, b)
    wp = w - np.einsum("...k,...k->...", w, n)[:, None] * n
    return np.einsum("...k,...k->...", wp, wp)


# components that are often exactly zero, of either sign
COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))
VECTOR = st.tuples(COMPONENT, COMPONENT, COMPONENT)
# one direction and 2-7 lines along it or against it, each tilted off it by 0 or by
# 1e-9 times a vector: every pair exactly parallel, or within PARALLEL_TOL of it
TILT = st.tuples(st.sampled_from([0.0, 1e-9]), VECTOR)
PARALLEL_STACK = st.tuples(
    VECTOR, st.lists(st.tuples(VECTOR, st.booleans(), TILT), min_size=2, max_size=7)
)
# chart angles that give frames with exact zero components
SPECIAL_LAT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), LAT)
SPECIAL_ANGLE = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi]), ANG)


class TestParallelFallback:
    @settings(deadline=None, max_examples=300)
    @given(PARALLEL_STACK)
    def test_matches_einsum_fallback_bitwise(self, stack):
        d, lines = stack
        bases = np.array([b for b, _, _ in lines])
        dirs = np.array([(1.0 if along else -1.0) * (np.array(d) + eps * np.array(e))
                         for _, along, (eps, e) in lines])
        i, j = np.triu_indices(len(lines), 1)
        ref = einsum_parallel_dsq(dirs[i], dirs[j], bases[j] - bases[i])
        assert same_bits(batched_dsq(bases, dirs), ref)
        table = np.concatenate((bases, dirs), axis=-1).T.reshape(-1)  # one chart's gather
        assert same_bits(_pair_kernel(table, _chart_index(len(lines))), ref)

    @settings(deadline=None, max_examples=300)
    @given(SPECIAL_LAT, SPECIAL_ANGLE, SPECIAL_ANGLE, st.booleans())
    def test_canonical_matches_einsum_flip(self, lat, lon, ang, negate):
        line = make_tangent_line(SphericalPoint(lat, lon), ang)
        if negate:
            line = TangentLine(line.base, -line.dir)
        assert same_bits(lines_module._canonical(line.dir), einsum_canonical(line.dir[None])[0])


# the largest latitude chart_from_configuration returns: a line based at a pole has no chart
LAT_MAX = math.nextafter(math.pi / 2, 0.0)
# a second line for the one-line cases, as a configuration holds two at least
EAST_VERTICAL = TangentLine([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])


class TestChartFromConfiguration:
    @settings(deadline=None)
    @given(st.floats(-LAT_MAX, LAT_MAX), LON, ANG)  # every latitude chart_from_configuration returns
    @example(LAT_MAX, 1.0, 0.5)
    @example(math.pi / 2 - 1e-9, 1.0, 0.5)
    @example(-math.pi / 2 + 1e-9 + 1e-7, 4.0, -2.0)
    def test_inverts_free_config_up_to_the_poles(self, lat, lon, ang):
        # within about 1.4e-6 rad of a pole, |z| >= 1 - 1e-12 and asin(z) loses up to about
        # 2e-11 of latitude: the pole rule and the latitude go by atan2(z, hypot(x, y))
        chart = chart_from_configuration(FreeConfig([(lat, lon, ang), (0.0, 0.0, 0.0)]))
        (phi, kappa, angle), _ = chart.coords.reshape(-1, 3).tolist()
        assert abs(phi - lat) <= 1e-15
        assert abs(math.remainder(kappa - lon, 2 * math.pi)) <= 4e-15
        assert abs(math.remainder(angle - ang, 2 * math.pi)) <= 4e-15


class TestLongitudeReduction:
    def test_chart_from_configuration_wraps_to_zero(self):
        chart = chart_from_configuration(Configuration((TangentLine([1.0, -1e-17, 0.0], [0.0, 0.0, 1.0]),
                                                        EAST_VERTICAL)))
        assert chart.coords[1].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("eps", [5e-324, 1e-300, 1e-17, 1e-16, 4.5e-16, 1e-15, 1e-9])
    def test_points_reduce_and_charts_frame_as_given(self, eps):
        kappa = SphericalPoint(0.0, -eps).kappa
        assert 0.0 <= kappa < 2 * math.pi
        # a base (1, -eps, 0) is unit to rounding, with longitude atan2(-eps, 1) = -eps
        chart = chart_from_configuration(Configuration((TangentLine([1.0, -eps, 0.0], [0.0, 0.0, 1.0]),
                                                        EAST_VERTICAL)))
        assert chart.coords[1].hex() == kappa.hex()
        # FreeConfig frames the longitude -eps itself, not its reduction
        built = FreeConfig([(0.0, -eps, 0.0), (0.0, 1.0, 0.0)]).table[0]
        assert same_bits(built, _frame_table(np.array([0.0, -eps, 0.0]))[0])

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(2 * math.pi)
    @example(-2 * math.pi)
    @example(1e300)
    @example(-1e300)
    def test_one_float_reduces_to_np_mods_bits(self, lon):
        want = np.mod([lon], 2 * math.pi)
        want[want >= 2 * math.pi] = 0.0
        assert _reduce_lon(lon).hex() == float(want[0]).hex()


class TestConfigurationTable:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(FRAME_ROW, min_size=2, max_size=8), st.tuples(*[st.sampled_from([0.0, -0.0])] * 3))
    def test_table_has_the_float_unpacking_bits(self, rows, zeros):
        # chart lines are views of their chart's table; a built line holds its own arrays, its
        # signed zeros kept
        lines = (*FreeConfig(rows), TangentLine((1.0, *zeros[:2]), (zeros[2], 1.0, 0.0)))
        got, want = Configuration(lines).table, ref_lines_table(lines)
        assert (got.tobytes(), got.shape, got.strides) == (want.tobytes(), want.shape, want.strides)
        assert got.dtype == want.dtype and not got.flags.writeable


# chart rows at any latitude, past the poles too, with signed zeros in any column
SIGNED_ZERO = st.sampled_from([0.0, -0.0])
CHART_ROW = st.one_of(FRAME_ROW, WIDE_ROW, st.tuples(*[st.floats(-50.0, 50.0) | SIGNED_ZERO] * 3))


class TestFreeConfig:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda n: st.lists(CHART_ROW, min_size=n, max_size=n)),
           st.booleans())
    @example([(HALF_PI, 1.0, 0.5), (math.nextafter(HALF_PI, 4.0), -0.0, -0.0)], True)
    @example([(-0.0, -0.0, -0.0), (0.0, 0.0, 0.0), (-50.0, 50.0, -HALF_PI)], False)
    def test_frames_as_the_reference_route(self, rows, flat):
        # coords, table and dsq hold the bytes, strides and read-only flags of the route that
        # framed a chart before it was a Configuration, rows given flat or as (n, 3)
        c = FreeConfig(np.array(rows).reshape(-1) if flat else rows)
        for got, want in zip((c.coords, c.table, c.dsq), ref_chart(rows)):
            assert (got.tobytes(), got.shape, got.strides) == (want.tobytes(), want.shape, want.strides)
            assert got.dtype == want.dtype and not (got.flags.writeable or want.flags.writeable)
        assert isinstance(c, Configuration) and len(c) == len(rows)

    def test_frames_once_at_construction(self, monkeypatch):
        framed, real = [], lines_module._frame_table
        monkeypatch.setattr(lines_module, "_frame_table", lambda chart: framed.append(chart) or real(chart))
        c = FreeConfig([(0.3, 1.0, 0.5), (-0.2, 2.0, 1.0), (0.1, 4.0, -0.7)])
        assert len(framed) == 1
        min_pairwise_distance(c), list(c), c.dsq, c[2]
        assert len(framed) == 1


class TestConfigurationDsq:
    @pytest.mark.parametrize("n", [2, 3, 6, 16])
    def test_pairs_are_row_major(self, n):
        assert _pairs(n) == tuple(itertools.combinations(range(n), 2))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(2, 16).flatmap(lambda n: st.lists(ROW, min_size=n, max_size=n)))
    def test_dsq_entry_k_is_the_distance_of_pair_k(self, rows):
        # the pair order of dsq is _pairs', bit for bit against distance_sq of each pair
        c = FreeConfig(rows)
        pairs = _pairs(len(rows))
        assert len(pairs) == len(c.dsq)
        for k, (i, j) in enumerate(pairs):
            assert c.dsq[k].hex() == distance_sq(c[i], c[j]).hex()

    @settings(deadline=None)
    @given(ROWS, st.booleans())
    def test_dsq_is_the_kernel_kept_read_only(self, rows, from_lines):
        # dsq is the batched kernel on the configuration's own stacks, byte for byte, measured
        # once and frozen, whether the configuration was charted or given bare lines
        c = FreeConfig(rows)
        if from_lines:
            c = Configuration(tuple(c))
        out = batched_dsq(c.table[:, :3], c.table[:, 3:])
        assert c.dsq is c.dsq
        assert c.dsq.tobytes() == out.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            c.dsq[0] = 0.0
        assert min_pairwise_distance(c) == math.sqrt(float(out.min()))

    @settings(deadline=None)
    @given(st.integers(2, 7).flatmap(
        lambda n: st.lists(st.lists(ROW, min_size=n, max_size=n), min_size=1, max_size=4)))
    @example([[(0.0, 0.3, 0.0), (0.0, 1.9, math.pi), (0.0, 4.0, 0.0)]])  # every pair parallel
    def test_one_chart_matches_the_batch_bytewise(self, charts):
        # one chart's gather against the batch's takes: the same bits, the fallback's included
        configs = [FreeConfig(rows) for rows in charts]
        tables = np.stack([c.table for c in configs])
        batch = batched_dsq(tables[..., :3], tables[..., 3:])
        for c, want in zip(configs, batch):
            assert c.dsq.tobytes() == want.tobytes()
            pairs = zip(*np.triu_indices(len(c), 1))
            assert np.array([distance_sq(c[i], c[j]) for i, j in pairs]).tobytes() == want.tobytes()


# ---------------------------------------------------------------- one frame table, one pair kernel


def oracle_canonical(x, y, z):
    """Reference copy of the earlier component-wise canonical flip."""
    flip = np.where(x != 0.0, x, np.where(y != 0.0, y, z)) < 0.0
    return tuple(np.where(flip, -c, c) for c in (x, y, z))


def oracle_parallel_dsq(ux, uy, uz, vx, vy, vz, wx, wy, wz):
    """Reference copy of the earlier component-wise parallel fallback."""
    a, b = oracle_canonical(ux, uy, uz), oracle_canonical(vx, vy, vz)
    keep_a = np.where(a[0] != b[0], a[0] > b[0], np.where(a[1] != b[1], a[1] > b[1], a[2] >= b[2]))
    nx, ny, nz = (np.where(keep_a, p, q) for p, q in zip(a, b))
    dot = (wx * nx + wz * nz) + wy * ny
    px, py, pz = wx - dot * nx, wy - dot * ny, wz - dot * nz
    return (px * px + pz * pz) + py * py


def oracle_dsq(bases, dirs):
    """Reference copy of the earlier nine-component kernel on (..., n, 3) stacks: every pair
    gathered component by component, the skew formula, and the parallel fallback under it."""
    i, j = np.triu_indices(bases.shape[-2], 1)
    ux, uy, uz, vx, vy, vz = (dirs[..., m, k] for m in (i, j) for k in range(3))
    wx, wy, wz = (bases[..., j, k] - bases[..., i, k] for k in range(3))
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    denom = (cx * cx + cz * cz) + cy * cy
    det = (cx * wx + cz * wz) + cy * wy
    parallel = denom <= PARALLEL_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        dsq = det * det / denom
    if parallel.any():
        dsq[parallel] = oracle_parallel_dsq(
            *(a[parallel] for a in (ux, uy, uz, vx, vy, vz, wx, wy, wz)))
    return dsq


def oracle_charts(n, batch, seed, special):
    """(batch, n, 3) chart rows from a seeded stream; with special, about half the lines take
    latitudes and tangent angles whose frames have exact zero components, and a quarter of the
    configurations are equatorial lines tilted 0 or pi, or within 3e-7 of it: every pair of
    them exactly parallel or within PARALLEL_TOL of it."""
    rng = np.random.default_rng(seed)
    charts = rng.uniform([-1.5, 0.0, -4.0], [1.5, 2 * math.pi, 4.0], (batch, n, 3))
    if special:
        pick = rng.random((batch, n)) < 0.5
        charts[..., 0] = np.where(pick, rng.choice([0.0, -0.0, 1.0, -1.0], (batch, n)), charts[..., 0])
        pick = rng.random((batch, n)) < 0.5
        angles = rng.choice([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi], (batch, n))
        charts[..., 2] = np.where(pick, angles, charts[..., 2])
        flat = rng.random(batch) < 0.25
        charts[flat, :, 0] = 0.0
        tilt = rng.choice([0.0, 0.0, 1e-7, -3e-7], (int(flat.sum()), n))  # within PARALLEL_TOL
        charts[flat, :, 2] = rng.choice([0.0, math.pi], (int(flat.sum()), n)) + tilt
    return charts


class TestStackedKernelOracle:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.booleans())
    def test_single_table_matches_oracle(self, n, seed, special):
        c = FreeConfig(oracle_charts(n, 1, seed, special)[0])
        want = oracle_dsq(c.table[:, :3], c.table[:, 3:])
        assert c.dsq.tobytes() == want.tobytes()
        assert batched_dsq(c.table[:, :3], c.table[:, 3:]).tobytes() == want.tobytes()
        for (i, j), k in pair_index(n).items():
            assert np.float64(distance_sq(c[i], c[j])).tobytes() == want[k].tobytes()

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 8), st.sampled_from([1, 2, _BLOCK]), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_charts_dsq_is_each_charts_dsq(self, n, batch, seed, special):
        # any line count: each chart's column of a block has the bits FreeConfig gives it alone
        charts = oracle_charts(n, batch, seed, special)
        block = _charts_dsq(charts)
        assert block.shape == (n * (n - 1) // 2, batch)
        for chart, column in zip(charts, block.T):
            assert column.tobytes() == FreeConfig(chart).dsq.tobytes()

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 8), st.sampled_from([1, 159, 160, 161, 400, _BLOCK - 1, _BLOCK + 1]),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_batched_tables_match_oracle(self, n, batch, seed, special):
        charts = oracle_charts(n, batch, seed, special)
        # checked frame tables, as FreeConfig makes them, line by line
        table = FreeConfig(charts.reshape(-1, 3)).table
        bases, dirs = table[:, :3].reshape(batch, n, 3), table[:, 3:].reshape(batch, n, 3)
        assert batched_dsq(bases, dirs).tobytes() == oracle_dsq(bases, dirs).tobytes()
        # unchecked frames, in one (6n, B) table, as _charts_dsq makes them
        xyz = _frame_xyz(np.moveaxis(charts, -1, 0))
        want = oracle_dsq(np.stack(xyz[:3], -1), np.stack(xyz[3:], -1))
        columns = _pair_kernel(np.array(xyz).transpose(0, 2, 1).reshape(6 * n, batch), _chart_index(n)).T
        assert columns.tobytes() == want.tobytes()
        assert _charts_dsq(charts).T.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kappa", [0.0, -0.0, 0.3, 2.0])
    def test_untilted_c6_is_all_parallel(self, kappa):
        p = D3Params(0.0, 0.0, kappa)
        c = build_c6(p)
        want = oracle_dsq(c.table[:, :3], c.table[:, 3:])
        i, j = np.triu_indices(6, 1)
        u, v = c.table[i, 3:], c.table[j, 3:]
        assert np.all(np.abs(np.cross(u, v)).max(axis=-1) == 0.0)  # every pair exactly parallel
        assert c.dsq.tobytes() == want.tobytes()
        assert _generic_rows([p] * 3).tobytes() == np.tile(want[_ORBIT_COLS], (3, 1)).tobytes()


class TestCachedAttributes:
    CHART = [(0.3, 0.2, 0.1), (-0.4, 2.1, 1.2), (0.1, 4.0, -0.7)]

    def test_each_is_computed_once_per_instance(self, monkeypatch):
        calls = Counter()
        kernel, checked = lines_module._pair_kernel, TangentLine._checked.__func__
        monkeypatch.setattr(lines_module, "_pair_kernel",
                            lambda *args: calls.update(["kernel"]) or kernel(*args))
        monkeypatch.setattr(TangentLine, "_checked", classmethod(
            lambda cls, row: calls.update(["line"]) or checked(cls, row)))
        c = FreeConfig(self.CHART)
        for _ in range(3):
            dsq, made = c.dsq, c.lines
            min_pairwise_distance(c)
        assert calls == {"kernel": 1, "line": 3}
        assert vars(c)["dsq"] is dsq and vars(c)["lines"] is made
        d = FreeConfig(self.CHART)  # a second instance computes its own
        assert d.dsq is not dsq and d.lines is not made and calls == {"kernel": 2, "line": 6}

    def test_dsq_stays_read_only(self):
        c = FreeConfig(self.CHART)
        with pytest.raises(ValueError, match="read-only"):
            c.dsq[0] = 0.0
        for change in (lambda: setattr(c, "dsq", np.zeros(3)), lambda: delattr(c, "dsq")):
            with pytest.raises(FrozenInstanceError):
                change()

    def test_class_access_returns_the_descriptor(self):
        assert isinstance(Configuration.dsq, lines_module._cached)
        assert isinstance(Configuration.lines, lines_module._cached)


class TestLazyLines:
    @settings(deadline=None)
    @given(ROWS)
    def test_chart_configuration_makes_lines_on_first_read(self, rows):
        c = FreeConfig(rows)
        min_pairwise_distance(c)
        assert len(c) == len(rows) and c.table.shape == (len(rows), 6)
        assert "lines" not in vars(c)  # measured without a TangentLine
        first = c[0]
        assert c.lines is c.lines and first is c.lines[0] and list(c) == list(c.lines)
        for k, line in enumerate(c):
            assert isinstance(line, TangentLine)
            assert same_bits(line.base, c.table[k, :3]) and same_bits(line.dir, c.table[k, 3:])
            assert not (line.base.flags.writeable or line.dir.flags.writeable)

    def test_trajectory_point_makes_no_line(self, monkeypatch):
        made = []
        checked = TangentLine._checked.__func__
        monkeypatch.setattr(TangentLine, "_checked", classmethod(
            lambda cls, row: made.append(row) or checked(cls, row)))
        monkeypatch.setattr(TangentLine, "__post_init__", lambda self: made.append(self))
        p = D3Params(0.4, 0.3, 0.2)
        min_pairwise_distance(build_c6(p))
        triplets_generic(p)
        objective(chart_record())
        assert made == []
        assert len(build_c6(p).lines) == 6 and len(made) == 6
