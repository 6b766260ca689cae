"""Tangent-line geometry: constructions, distances, radius conversions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylpack.lines import (
    Configuration,
    PARALLEL_TOL,
    SphericalPoint,
    TangentLine,
    _unit_tangent,
    chart_lines,
    chart_rows,
    distance_from_radius,
    distance_sq,
    embed_point,
    frames,
    make_tangent_line,
    min_pairwise_distance,
    north_tangent,
    pair_dsq,
    radius_from_distance,
    rotate_line,
    rotation_matrix,
)

RNG = np.random.default_rng(90)  # fixed stream for the property tests


def random_point(rng):
    return SphericalPoint(rng.uniform(-1.4, 1.4), rng.uniform(0.0, 2 * math.pi))


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

    def test_embed_examples(self):
        assert np.allclose(embed_point(SphericalPoint(0.0, 0.0)), [1, 0, 0], atol=1e-15)
        assert np.allclose(embed_point(SphericalPoint(0.0, math.pi / 2)), [0, 1, 0], atol=1e-15)
        assert np.allclose(embed_point(SphericalPoint(math.pi / 2, 1.3)), [0, 0, 1], atol=1e-15)

    def test_embed_unit_norm(self):
        for _ in range(50):
            p = random_point(RNG)
            assert math.isclose(float(np.linalg.norm(embed_point(p))), 1.0, abs_tol=1e-15)

    def test_north_tangent(self):
        assert np.allclose(north_tangent(SphericalPoint(0.0, 0.0)), [0, 0, 1], atol=1e-15)
        p = SphericalPoint(0.7, 2.1)
        n = north_tangent(p)
        assert math.isclose(float(np.linalg.norm(n)), 1.0, abs_tol=1e-15)
        assert abs(float(n @ embed_point(p))) < 1e-15
        with pytest.raises(ValueError):
            north_tangent(SphericalPoint(math.pi / 2, 0.0))


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
        line = TangentLine(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0]))
        c = line.canonical()
        assert np.array_equal(c.dir, [0.0, 0.0, 1.0])
        assert np.array_equal(c.canonical().dir, c.dir)

    def test_same_line_as(self):
        a = make_tangent_line(SphericalPoint(0.5, 1.0), 0.25)
        b = TangentLine(a.base, -a.dir)
        assert a.same_line_as(b)
        c = make_tangent_line(SphericalPoint(0.5, 1.0 + 1e-6), 0.25)
        assert not a.same_line_as(c)
        assert a.same_line_as(c, tol=1e-3)


class TestMakeTangentLine:
    def test_meridian_tangent(self):
        line = make_tangent_line(SphericalPoint(0.0, 0.0), 0.0)
        assert np.allclose(line.base, [1, 0, 0], atol=1e-15)
        assert np.allclose(line.dir, [0, 0, 1], atol=1e-15)

    def test_quarter_turn_points_east(self):
        line = make_tangent_line(SphericalPoint(0.0, 0.0), math.pi / 2)
        assert np.allclose(line.dir, [0, 1, 0], atol=1e-15)

    def test_matches_rotation_about_radius(self):
        # independent oracle: rotate the north tangent about the base
        # radius; delta turns it east, a negative rotation about base
        for _ in range(50):
            p = random_point(RNG)
            delta = RNG.uniform(-math.pi, math.pi)
            line = make_tangent_line(p, delta)
            expected = rotation_matrix(embed_point(p), -delta) @ north_tangent(p)
            assert np.allclose(line.dir, expected, atol=1e-14)
            assert np.allclose(line.base, embed_point(p), atol=1e-15)

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
            axis = RNG.standard_normal(3)
            r = rotation_matrix(axis, RNG.uniform(0, 2 * math.pi))
            d = distance_sq(u, v)
            dr = distance_sq(rotate_line(u, r), rotate_line(v, r))
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
        # the configuration's pair distances through pair_dsq on its own stacks,
        # in pair order (0, 1), (0, 2), (1, 2)
        c = Configuration((vertical(0.0), vertical(math.pi / 3), vertical(math.pi)))
        out = pair_dsq(c.bases, c.dirs)
        assert out.shape == (3,)
        assert math.isclose(out[0], 1.0, abs_tol=1e-14)
        assert math.isclose(out[1], 4.0, abs_tol=1e-14)
        assert math.isclose(out[2], 3.0, abs_tol=1e-14)
        assert np.array_equal(pair_dsq(c.bases[::-1], c.dirs[::-1]), out[::-1])

    def test_min_pairwise(self):
        c = Configuration((vertical(0.0), vertical(math.pi / 3), vertical(math.pi)))
        assert math.isclose(min_pairwise_distance(c), 1.0, abs_tol=1e-14)


class TestRadius:
    def test_examples(self):
        assert radius_from_distance(1.0) == 1.0
        assert math.isclose(radius_from_distance(math.sqrt(2.0)), 1.0 + math.sqrt(2.0), rel_tol=1e-15)
        assert distance_from_radius(1.0) == 1.0

    def test_round_trip(self):
        for d in np.linspace(0.0, 1.9, 96):
            r = radius_from_distance(float(d))
            assert math.isclose(distance_from_radius(r), float(d), rel_tol=1e-12, abs_tol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="radius unbounded"):
            radius_from_distance(2.0)
        with pytest.raises(ValueError, match="invalid distance"):
            radius_from_distance(-0.1)
        with pytest.raises(ValueError, match="invalid radius"):
            distance_from_radius(-1.0)


class TestRotationMatrix:
    def test_quarter_turn_about_z(self):
        r = rotation_matrix(np.array([0.0, 0.0, 1.0]), math.pi / 2)
        assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_orthogonal_determinant_one(self):
        r = rotation_matrix(RNG.standard_normal(3), RNG.uniform(0, 7))
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-14)
        assert math.isclose(float(np.linalg.det(r)), 1.0, abs_tol=1e-14)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation_matrix(np.zeros(3), 1.0)


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


def kernel_input(rows):
    lat, lon, ang = np.array(rows).T
    return frames(lat, lon, ang)


def pair_index(n):
    """Position of pair (i, j), i < j, in pair_dsq's output."""
    return {pair: k for k, pair in enumerate(zip(*np.triu_indices(n, 1)))}


class TestKernelProperties:
    @settings(deadline=None)
    @given(ROWS, st.data())
    def test_permutation_invariance_exact(self, rows, data):
        n = len(rows)
        perm = data.draw(st.permutations(range(n)))
        bases, dirs = kernel_input(rows)
        out = pair_dsq(bases, dirs)
        permuted = pair_dsq(bases[perm], dirs[perm])
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
        assert np.array_equal(pair_dsq(bases, signs * dirs), pair_dsq(bases, dirs))

    @settings(deadline=None)
    @given(BATCH)
    def test_memory_layout_does_not_change_bits(self, rows):
        bases, dirs = kernel_input(rows)
        bases, dirs = bases.reshape(2, -1, 3), dirs.reshape(2, -1, 3)
        out = pair_dsq(bases, dirs)
        assert np.array_equal(pair_dsq(np.asfortranarray(bases), np.asfortranarray(dirs)), out)

    @settings(deadline=None)
    @given(ROWS)
    def test_scalar_matches_batch_bitwise(self, rows):
        c = chart_lines(rows)
        out = pair_dsq(np.array([u.base for u in c]), np.array([u.dir for u in c]))
        for (i, j), k in pair_index(len(c)).items():
            assert distance_sq(c[i], c[j]) == out[k]

    @settings(deadline=None)
    @given(ROWS)
    def test_frames_orthonormal(self, rows):
        bases, dirs = kernel_input(rows)
        assert np.all(np.abs(np.linalg.norm(bases, axis=-1) - 1.0) <= 1e-15)
        assert np.all(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0) <= 1e-15)
        assert np.all(np.abs(np.einsum("nk,nk->n", bases, dirs)) <= 1e-15)

    def test_parallel_pairs_exact(self):
        # vertical lines tilted 0 and pi: the fallback branch on every pair
        rows = [(0.0, 0.3, 0.0), (0.0, 1.9, math.pi), (0.0, 4.0, 0.0)]
        bases, dirs = kernel_input(rows)
        out = pair_dsq(bases, dirs)
        for (i, j), k in pair_index(3).items():
            chord = 2 * math.sin((rows[j][1] - rows[i][1]) / 2)
            assert math.isclose(out[k], chord * chord, rel_tol=1e-14)
        assert np.array_equal(pair_dsq(bases[::-1], dirs[::-1]), out[::-1])


# ---------------------------------------------------------------- stacked line checks


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


def noisy_stack(rows, seed):
    lat, lon, ang, base_noise, dir_noise = np.array(rows).T
    bases, dirs = frames(lat, lon, ang)
    rng = np.random.default_rng(seed)
    bases = bases + base_noise[:, None] * rng.uniform(-1.0, 1.0, bases.shape)
    dirs = dirs + dir_noise[:, None] * rng.uniform(-1.0, 1.0, dirs.shape)
    return bases, dirs


class TestStackedValidation:
    @settings(deadline=None, max_examples=300)
    @given(NOISY_ROWS, st.integers(0, 2**32 - 1))
    def test_matches_one_line_oracle(self, rows, seed):
        bases, dirs = noisy_stack(rows, seed)
        results = [one_line_check(b.copy(), d.copy()) for b, d in zip(bases, dirs)]
        good = [k for k, r in enumerate(results) if len(r) == 2]
        out_b, out_d = _unit_tangent(bases[good], dirs[good])
        for row, k in enumerate(good):
            assert same_bits(out_b[row], results[k][0])
            assert same_bits(out_d[row], results[k][1])
        bad = [(r[0], -r[1], k, r[2]) for k, r in enumerate(results) if len(r) == 3]
        if bad:
            # the earliest failing check, on its worst row (first on ties)
            with pytest.raises(ValueError) as info:
                _unit_tangent(bases, dirs)
            assert str(info.value) == min(bad)[3]

    def test_forced_snaps_match_one_line_oracle(self):
        rng = np.random.default_rng(94)
        charts = rng.uniform([-1.5, 0.0, -4.0], [1.5, 7.0, 4.0], (3000, 3))
        rows = np.column_stack([charts, np.full((3000, 2), 1e-10)])
        bases, dirs = noisy_stack(rows, 95)
        out_b, out_d = _unit_tangent(bases, dirs)
        snapped = 0
        for k in range(len(rows)):
            ref_b, ref_d = one_line_check(bases[k].copy(), dirs[k].copy())
            assert same_bits(out_b[k], ref_b) and same_bits(out_d[k], ref_d)
            snapped += not (same_bits(ref_b, bases[k]) and same_bits(ref_d, dirs[k]))
        assert snapped == len(rows)

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

    @settings(deadline=None)
    @given(st.lists(st.tuples(LAT, st.floats(-20.0, 20.0), ANG), min_size=2, max_size=7))
    def test_chart_lines_match_make_tangent_line(self, rows):
        c = chart_lines(rows)
        for (lat, lon, ang), line in zip(rows, c):
            ref = make_tangent_line(SphericalPoint(lat, lon), ang)
            assert same_bits(line.base, ref.base) and same_bits(line.dir, ref.dir)
            assert not (line.base.flags.writeable or line.dir.flags.writeable)

    @settings(deadline=None)
    @given(ROWS)
    def test_configuration_stacks_are_read_only_line_vectors(self, rows):
        built = chart_lines(rows)
        rebuilt = Configuration(tuple(TangentLine(u.base, u.dir) for u in built))
        for c in (built, rebuilt):
            assert c.bases.shape == c.dirs.shape == (len(rows), 3)
            assert same_bits(c.bases, [u.base for u in c])
            assert same_bits(c.dirs, [u.dir for u in c])
            with pytest.raises(ValueError):
                c.bases[0, 0] = 0.0
            with pytest.raises(ValueError):
                c.dirs[0, 0] = 0.0


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
        assert same_bits(pair_dsq(bases, dirs), ref)
        assert same_bits(pair_dsq(np.asfortranarray(bases), np.asfortranarray(dirs)), ref)

    @settings(deadline=None, max_examples=300)
    @given(SPECIAL_LAT, SPECIAL_ANGLE, SPECIAL_ANGLE, st.booleans())
    def test_canonical_matches_einsum_flip(self, lat, lon, ang, negate):
        line = make_tangent_line(SphericalPoint(lat, lon), ang)
        if negate:
            line = TangentLine(line.base, -line.dir)
        c = line.canonical()
        assert same_bits(c.base, line.base)
        assert same_bits(c.dir, einsum_canonical(line.dir[None])[0])


class TestLongitudeReduction:
    def test_chart_rows_wraps_to_zero(self):
        rows = chart_rows([TangentLine([1.0, -1e-17, 0.0], [0.0, 0.0, 1.0])])
        assert rows[0, 1].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("eps", [5e-324, 1e-300, 1e-17, 1e-16, 4.5e-16, 1e-15, 1e-9])
    def test_three_reductions_agree(self, eps):
        kappa = SphericalPoint(0.0, -eps).kappa
        assert 0.0 <= kappa < 2 * math.pi
        # a base (1, -eps, 0) is unit to rounding, with longitude atan2(-eps, 1) = -eps
        rows = chart_rows([TangentLine([1.0, -eps, 0.0], [0.0, 0.0, 1.0])])
        assert rows[0, 1].hex() == kappa.hex()
        built = chart_lines([(0.0, -eps, 0.0), (0.0, 1.0, 0.0)])[0]
        assert same_bits(built.base, embed_point(SphericalPoint(0.0, kappa)))
