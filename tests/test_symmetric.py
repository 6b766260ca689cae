"""The six-line family and the three-line subfamily: construction, symmetry, closed distance forms."""

import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cylpack
from cylpack import lines, symmetric, unlocking
from cylpack.cli import main
from cylpack.curve import build_curve_point, gamma_point
from cylpack.lines import (
    _BLOCK,
    Configuration,
    DegenerateError,
    FreeConfig,
    SphericalPoint,
    TangentLine,
    _charts_dsq,
    _pairs,
    distance_sq,
    make_tangent_line,
    min_pairwise_distance,
    radius_from_distance,
)
from cylpack.serialize import config_from_dict, json_dumps
from cylpack.symmetric import (
    AlgCoords,
    D3Params,
    GeneralParams,
    PAIR_ORBITS,
    _generic_rows,
    alg_coords,
    build_c3,
    build_c6,
    c6_chart,
    ring_chart,
    triplets_alg,
    triplets_generic,
    triplets_trig,
)
from helpers import batched_dsq, lines_document, ref_c3_rows, ref_ring_chart, same_line, table_line

RNG = np.random.default_rng(91)

# closed forms of the maximizing parameters
PHI_M = math.asin(math.sqrt(3.0 / 11.0))
DELTA_M = math.atan(math.sqrt(5.0 / 11.0))
KAPPA_M = math.atan(-1.0 / math.sqrt(15.0))
RECORD = D3Params(PHI_M, DELTA_M, KAPPA_M)

F_M = 12.0 / 11.0
DAE_M = 540.0 / 143.0


def random_params(rng):
    return D3Params(rng.uniform(0.01, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2 * math.pi))


class TestBuild:
    def test_initial_configuration_layout(self):
        c = build_c6(D3Params(0.0, 0.0, 0.0))
        lons = (math.pi / 6, 5 * math.pi / 6, 3 * math.pi / 2,
                math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6)
        # the chart's twelfths of a turn, m * 2pi / 12, keep these literals' bits
        assert tuple(row[1] for row in c6_chart(D3Params(0.0, 0.0, 0.0))) == lons
        for row, lon in zip(c.table, lons):
            assert np.allclose(row[:3], [math.cos(lon), math.sin(lon), 0.0], atol=1e-15)
            assert abs(abs(float(row[5])) - 1.0) < 1e-15  # vertical

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_ring_layout(self, n):
        # upper lines first, then lower; around the equator the lines alternate, pi/n apart, so
        # the untilted ring's neighbors are its closest pairs, vertical lines 2 sin(pi/2n) apart
        rows = ring_chart(n, 0.1, 0.0, 0.0)
        assert [row[0] for row in rows] == [0.1] * n + [-0.1] * n
        lons = [row[1] for row in rows]
        assert sorted(lons) == [lons[k // 2 + n * (k % 2)] for k in range(2 * n)]
        assert lons[0] == math.pi / (2 * n) and np.allclose(np.diff(sorted(lons)), math.pi / n, atol=1e-14)
        d = min_pairwise_distance(FreeConfig(ring_chart(n, 0.0, 0.0, 0.0)))
        assert d == pytest.approx(2 * math.sin(math.pi / (2 * n)), rel=1e-14)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ring_rows_keep_their_bits(self, n):
        # the row rule lays out the m * 2pi / 4n longitudes as they were written out, signed zeros too
        draws = np.random.default_rng(n).uniform(-1.5, 1.5, (5, 3)).tolist()
        for angles in [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.3, -1.2, 2 * math.pi), *draws]:
            rows = np.array(ring_chart(n, *angles))
            assert rows.tobytes() == np.array(ref_ring_chart(n, *angles)).tobytes()

    @pytest.mark.parametrize("n", [1, 3.0, "3"])
    def test_ring_needs_an_integer_n_from_two(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            ring_chart(n, 0.0, 0.0, 0.0)

    def test_chart_matches_build(self):
        p = random_params(RNG)
        chart = c6_chart(p)
        c = build_c6(p)
        for k, (lat, lon, ang) in enumerate(chart):
            rebuilt = make_tangent_line(SphericalPoint(lat, lon), ang)
            assert same_line(table_line(c, k), rebuilt, tol=1e-14)

    def test_upper_triple_meets_axis(self):
        # at kappa = delta = 0 the upper lines run along their meridians
        # and all pass through (0, 0, 1/sin(phi))
        phi = 0.3
        c = build_c6(D3Params(phi, 0.0, 0.0))
        apex = np.array([0.0, 0.0, 1.0 / math.sin(phi)])
        for base, direction in zip(c.table[:3, :3], c.table[:3, 3:]):
            w = apex - base
            w -= float(w @ direction) * direction
            assert float(w @ w) < 1e-24
        # consequently the upper pairwise distances vanish
        assert distance_sq(table_line(c, 0), table_line(c, 1)) < 1e-16

    def test_latitude_range_enforced(self):
        with pytest.raises(ValueError, match=r"^phi must lie in \(-pi/2, pi/2\): 1\.5707963267948966$"):
            D3Params(math.pi / 2, 0.0, 0.0)
        with pytest.raises(ValueError):
            D3Params(0.0, math.nan, 0.0)


def _axis_rotation(axis, angle):
    """Rodrigues' rotation by angle about a unit axis."""
    k = np.asarray(axis, dtype=float)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    c, s = math.cos(angle), math.sin(angle)
    return c * np.eye(3) + s * kx + (1.0 - c) * np.outer(k, k)


def orbit_check_oracle(c, tol=1e-10):
    """Whether six lines have the family's symmetry, line by line: Rz(120 deg) maps (A, ..., F) to
    (B, C, A, E, F, D) and Rx(pi) to (F, E, D, C, B, A), each line rotated into a new TangentLine
    and compared with same_line, the rotations built by Rodrigues' formula."""
    rz = _axis_rotation([0.0, 0.0, 1.0], 2 * math.pi / 3)
    rx = _axis_rotation([1.0, 0.0, 0.0], math.pi)
    images = [[TangentLine(r @ row[:3], r @ row[3:]) for row in c.table] for r in (rz, rx)]
    rz_ok = all(same_line(u, table_line(c, j), tol) for u, j in zip(images[0], (1, 2, 0, 4, 5, 3)))
    return rz_ok and all(same_line(u, table_line(c, j), tol) for u, j in zip(images[1], (5, 4, 3, 2, 1, 0)))


FAMILY = st.builds(D3Params, st.floats(-1.5, 1.5), st.floats(-math.pi, math.pi),
                   st.floats(-2 * math.pi, 2 * math.pi))


def nudged(p, row, col, step):
    """The family member's chart with one coordinate (row, column) moved by step."""
    rows = np.array(c6_chart(p))
    rows[row, col] += step
    return FreeConfig(rows)


class TestOrbitCheckOracle:
    """The oracle is tier-1's statement that every build is symmetric, so it must also be able
    to refuse: a moved line, a relabelling that breaks the order, a nudge well past its tolerance."""

    @settings(deadline=None, max_examples=200)
    @given(FAMILY)
    def test_family_builds_pass(self, p):
        assert orbit_check_oracle(build_c6(p))

    def test_broken_configuration_fails(self):
        p = D3Params(0.3, 0.2, -0.1)
        c = nudged(p, 2, 1, 0.1)
        assert not orbit_check_oracle(c)
        # the orbit distances of the broken configuration no longer agree either
        spreads = [np.ptp(c.dsq[[_pairs(6).index(tuple(sorted(pair))) for pair in orbit]])
                   for orbit in PAIR_ORBITS.values()]
        assert max(spreads) > 1e-3

    def test_relabelled_upper_triple_fails(self):
        # (B, C, A, D, E, F): Rz still maps each line to the next of its triple, and Rx still
        # maps the line set onto itself, but it takes the first line, now B, to E, not to F
        c = build_c6(D3Params(0.3, 0.2, -0.1))
        assert orbit_check_oracle(c)
        assert not orbit_check_oracle(Configuration(tuple(table_line(c, k) for k in (1, 2, 0, 3, 4, 5))))

    @pytest.mark.parametrize("p", [RECORD, D3Params(0.3, 0.2, -0.1), D3Params(-1.2, 2.5, 4.0)])
    def test_exactly_six_orders_pass(self, p):
        # the six distinct lines in order s keep the symmetry exactly when s commutes with both
        # generators' actions on the labels, Rz's (1, 2, 0, 4, 5, 3) and Rx's (5, 4, 3, 2, 1, 0):
        # the centralizer of the group's regular action, six of the 720 orders
        c = build_c6(p)
        orders = list(itertools.permutations(range(6)))
        passing = [s for s in orders if orbit_check_oracle(Configuration(tuple(table_line(c, i) for i in s)))]
        generators = ((1, 2, 0, 4, 5, 3), (5, 4, 3, 2, 1, 0))
        commuting = [s for s in orders if all(g[s[i]] == s[g[i]] for g in generators for i in range(6))]
        assert passing == commuting
        assert len(passing) == 6

    @settings(deadline=None, max_examples=50)
    @given(FAMILY)
    def test_mirror_image_passes_relabelled(self, p):
        # the reflection through x = 0 reverses Rz's sense and commutes with Rx, so the
        # mirrored lines keep the symmetry in the order (A, C, B, E, D, F) and lose it in their own
        m = np.diag([-1.0, 1.0, 1.0])
        mirrored = [TangentLine(m @ row[:3], m @ row[3:]) for row in build_c6(p).table]
        assert not orbit_check_oracle(Configuration(tuple(mirrored)))
        assert orbit_check_oracle(Configuration(tuple(mirrored[i] for i in (0, 2, 1, 4, 3, 5))))

    @settings(deadline=None, max_examples=200)
    @given(FAMILY, st.integers(0, 5), st.integers(0, 2), st.sampled_from([-1.0, 1.0]))
    def test_nudged_charts(self, p, row, col, sign):
        # a step of 1e-12 stays inside the 1e-10 tolerance, one of 1e-7 moves its line well past it
        assert orbit_check_oracle(nudged(p, row, col, sign * 1e-12))
        assert not orbit_check_oracle(nudged(p, row, col, sign * 1e-7))

    @settings(deadline=None, max_examples=50)
    @given(FAMILY)
    def test_lines_documents_pass(self, p):
        # a build written as a lines document and read back is the same lines, so as symmetric
        c = build_c6(p)
        read = config_from_dict(json.loads(json_dumps(lines_document(c))))
        assert np.array_equal(read.dsq, c.dsq)
        assert orbit_check_oracle(read)


class TestOrbits:
    def test_pair_orbits_cover_all_pairs(self):
        pairs = [frozenset(p) for orbit in PAIR_ORBITS.values() for p in orbit]
        assert len(pairs) == 15
        assert len(set(pairs)) == 15

    @settings(deadline=None, max_examples=200)
    @given(FAMILY)
    def test_orbit_distances_equal(self, p):
        # each orbit's built distances spread by at most 1e-10 of the larger of 1 and their largest
        dsq = build_c6(p).dsq
        for orbit in PAIR_ORBITS.values():
            values = dsq[[_pairs(6).index(tuple(sorted(pair))) for pair in orbit]]
            assert values.max() - values.min() <= 1e-10 * max(1.0, values.max())

    def test_record_multiset(self):
        c = build_c6(RECORD)
        values = [distance_sq(table_line(c, i), table_line(c, j)) for i in range(6) for j in range(i + 1, 6)]
        near_f = sum(1 for v in values if abs(v - F_M) < 1e-9)
        near_ae = sum(1 for v in values if abs(v - DAE_M) < 1e-9)
        assert near_f == 12
        assert near_ae == 3
        assert min_pairwise_distance(c) == pytest.approx(math.sqrt(F_M), abs=1e-12)


class TestAlgCoords:
    def test_initial_values(self):
        a = alg_coords(D3Params(0.0, 0.0, 0.0))
        assert a.S == 0.0 and a.T == 0.0
        assert math.isclose(a.U, -1.0 / math.sqrt(3.0), rel_tol=1e-15)
        assert math.isclose(a.Ubar, -1.0 / math.sqrt(3.0), rel_tol=1e-15)

    def test_record_values(self):
        a = alg_coords(RECORD)
        u_m = -(math.sqrt(3.0) * (4.0 + math.sqrt(5.0))) / 11.0
        assert math.isclose(a.U, u_m, rel_tol=1e-14)
        assert math.isclose(a.S * a.S, 3.0 / 11.0, rel_tol=1e-14)
        assert math.isclose(a.T * a.T, 5.0 / 11.0, rel_tol=1e-14)

    def test_moebius_relation(self):
        for _ in range(50):
            a = alg_coords(random_params(RNG))
            u, ub = a.U, a.Ubar
            res = -math.sqrt(3.0) * u * ub + u + ub + math.sqrt(3.0)
            assert abs(res) <= 1e-10 * (1 + abs(u) + abs(ub) + abs(u * ub))

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError, match="common kappa"):
            AlgCoords(0.0, 0.0, -1.0 / math.sqrt(3.0), 1.0)

    def test_degenerate_angles_raise(self):
        with pytest.raises(DegenerateError):
            alg_coords(D3Params(0.1, math.pi / 2, 0.2))
        with pytest.raises(DegenerateError):
            alg_coords(D3Params(0.1, 0.2, math.pi / 6 + math.pi / 2))


class TestTripletsAlg:
    def test_initial_limit(self):
        u = -1.0 / math.sqrt(3.0)
        dab, dad, dbd = triplets_alg(AlgCoords(0.0, 0.0, u, u))
        assert dab == 3.0
        assert math.isclose(dad, 1.0, rel_tol=1e-15)
        assert math.isclose(dbd, 1.0, rel_tol=1e-15)

    def test_record_values(self):
        dab, dad, dbd = triplets_alg(alg_coords(RECORD))
        for v in (dab, dad, dbd):
            assert math.isclose(v, F_M, rel_tol=1e-13)


class TestTripletsTrig:
    def test_initial_values(self):
        t = triplets_trig(D3Params(0.0, 0.0, 0.0))
        assert math.isclose(t.dab_sq, 3.0, rel_tol=1e-14)
        assert math.isclose(t.dad_sq, 1.0, rel_tol=1e-14)
        assert math.isclose(t.dbd_sq, 1.0, rel_tol=1e-14)
        assert math.isclose(t.dae_sq, 4.0, rel_tol=1e-14)

    def test_record_values(self):
        t = triplets_trig(RECORD)
        assert math.isclose(t.dab_sq, F_M, rel_tol=1e-13)
        assert math.isclose(t.dad_sq, F_M, rel_tol=1e-13)
        assert math.isclose(t.dbd_sq, F_M, rel_tol=1e-13)
        assert math.isclose(t.dae_sq, DAE_M, rel_tol=1e-13)

    def test_dab_ignores_kappa(self):
        p = random_params(RNG)
        q = D3Params(p.phi, p.delta, p.kappa - 0.7)
        assert triplets_trig(p).dab_sq == triplets_trig(q).dab_sq
        assert math.isclose(
            triplets_generic(p).dab_sq, triplets_generic(q).dab_sq, rel_tol=1e-10
        )

    def test_degenerate_entries_fall_back_to_limits(self):
        # delta = 0 makes the AB form 0/0 while the pair is honestly
        # parallel or concurrent; the generic value must come back
        p = D3Params(0.4, 0.0, 0.3)
        t = triplets_trig(p)
        g = triplets_generic(p)
        assert math.isclose(t.dab_sq, g.dab_sq, rel_tol=1e-10, abs_tol=1e-12)

    @pytest.mark.parametrize(
        "angles, orbit",
        [
            ((0.0, 0.0, 0.4), "dab_sq"),
            ((0.0, 0.0, 0.4), "dad_sq"),
            ((0.0, 0.0, 0.4), "dbd_sq"),
            ((0.3, math.pi / 2, 0.0), "dae_sq"),
            ((0.656681, -1.298713, 3.495853), "dad_sq"),
        ],
    )
    def test_degenerate_forms_return_the_generic_value_exactly(self, angles, orbit):
        # each of these closed forms sits below its degeneracy tolerance,
        # so the value must be the generic one bit for bit
        p = D3Params(*angles)
        assert getattr(triplets_trig(p), orbit) == getattr(triplets_generic(p), orbit)

    def test_near_parallel_cross_pair_stays_accurate(self):
        # here the AD form's denominator 4(1 - nu^2) is about 6e-6, so
        # evaluating it directly would lose five digits to cancellation;
        # the evaluator must defer to the generic value instead
        p = D3Params(0.656681, -1.298713, 3.495853)
        t = triplets_trig(p)
        g = triplets_generic(p)
        assert math.isclose(t.dad_sq, g.dad_sq, rel_tol=1e-12)


class TestThreeWayConsistency:
    def test_trig_alg_generic_agree(self):
        count = 0
        while count < 200:
            phi = RNG.uniform(0.01, 1.5)
            delta = RNG.uniform(-1.5, 1.5)
            if abs(delta) < 1e-3:
                continue
            kappa = RNG.uniform(0.0, 2 * math.pi)
            p = D3Params(phi, delta, kappa)
            try:
                a = alg_coords(p)
            except DegenerateError:
                continue
            count += 1
            trig = triplets_trig(p)
            alg = triplets_alg(a)
            gen = triplets_generic(p)
            for x, y, z in zip(
                (trig.dab_sq, trig.dad_sq, trig.dbd_sq),
                alg,
                (gen.dab_sq, gen.dad_sq, gen.dbd_sq),
            ):
                scale = max(abs(x), abs(y), abs(z), 1e-6)
                assert abs(x - y) <= 1e-10 * scale
                assert abs(y - z) <= 1e-10 * scale
            scale = max(abs(trig.dae_sq), abs(gen.dae_sq), 1e-6)
            assert abs(trig.dae_sq - gen.dae_sq) <= 1e-10 * scale


# ---------------------------------------------------------------- built once

SIGNED_ZERO = st.sampled_from([0.0, -0.0])
PARAMS = st.builds(
    D3Params,
    st.floats(-1.57, 1.57) | SIGNED_ZERO,
    st.floats(-4.0, 4.0) | SIGNED_ZERO,
    st.floats(-2 * math.pi, 2 * math.pi) | SIGNED_ZERO,
)


def same_lines(c, d):
    return c.table.tobytes() == d.table.tobytes()


SUBFAMILY = st.builds(
    GeneralParams,
    st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
    st.floats(-math.pi / 2, math.pi / 2, exclude_min=True, exclude_max=True) | SIGNED_ZERO,
    st.floats(allow_nan=False, allow_infinity=False) | SIGNED_ZERO,
    st.floats(-2 * math.pi, 2 * math.pi) | SIGNED_ZERO,
)


class TestThreeLineSubfamily:
    @settings(deadline=None)
    @given(SUBFAMILY)
    @example(GeneralParams(math.pi / 3, -0.0, -0.0, -0.0))
    @example(GeneralParams(math.pi / 2, 0.0, -0.0, 0.0))
    @example(GeneralParams(3.0, 1.5, 1e300, -2 * math.pi))
    def test_rows_keep_their_bits(self, g):
        assert build_c3(g).table.tobytes() == FreeConfig(ref_c3_rows(g)).table.tobytes()

    def test_names_resolve_to_symmetric(self):
        for name in ("GeneralParams", "build_c3", "dists_general"):
            home = getattr(symmetric, name)
            assert getattr(cylpack, name) is home and getattr(unlocking, name) is home, name
            assert home.__module__ == "cylpack.symmetric", name


class TestCounterPair:
    @given(st.floats(0.01, 3.1), st.floats(-1.5, 1.5) | SIGNED_ZERO, st.floats(-1.5, 1.5) | SIGNED_ZERO)
    @example(0.1, 1e-4, -1e-4)
    @example(3.0, -0.0, 0.0)
    def test_rows_are_the_counter_tilted_a_and_d(self, alpha, phi, delta):
        # the ring's row rule lays out A at alpha/2 tilted by -delta and D at 3 alpha/2 below,
        # tilted by +delta, with the bits of those rows written out
        rows = ((phi, alpha / 2, -delta), (-phi, 3 * alpha / 2, delta))
        assert symmetric._counter_pair(alpha, phi, delta).coords.tobytes() == np.array(rows).tobytes()


class TestBuiltOnce:
    @settings(deadline=None)
    @given(PARAMS)
    @example(D3Params(0.0, 0.0, 0.0))
    @example(D3Params(-0.0, -0.0, -0.0))
    @example(D3Params(0.4, 0.0, 0.3))  # untilted
    def test_generic_reads_the_kept_configuration(self, p):
        c = build_c6(p)
        assert build_c6(p) is c
        assert same_lines(c, FreeConfig(c6_chart(p)))
        assert not c.dsq.flags.writeable
        assert c.dsq.tobytes() == batched_dsq(c.table[:, :3], c.table[:, 3:]).tobytes()
        assert np.array(astuple(triplets_generic(p))).tobytes() == _generic_rows([p])[0].tobytes()

    @settings(deadline=None)
    @given(st.tuples(SIGNED_ZERO, SIGNED_ZERO, SIGNED_ZERO),
           st.tuples(SIGNED_ZERO, SIGNED_ZERO, SIGNED_ZERO))
    def test_equal_params_keep_their_own_lines(self, a, b):
        # zeros of either sign compare and hash alike, so the configuration is kept
        # per instance: each one's lines are the bits its own chart builds
        p, q = D3Params(*a), D3Params(*b)
        assert p == q and hash(p) == hash(q)
        build_c6(p)
        for r in (p, q):
            assert same_lines(build_c6(r), FreeConfig(c6_chart(r)))

    def test_signed_zero_latitudes_build_different_bits(self):
        # what the test above guards against is real: the two zeros build different lines
        negative, positive = D3Params(-0.0, 0.0, 0.0), D3Params(0.0, 0.0, 0.0)
        assert negative == positive and build_c6(negative) is not build_c6(positive)
        assert not same_lines(build_c6(negative), build_c6(positive))

    def test_c6_is_built_once_per_instance(self, monkeypatch):
        built = []
        real = symmetric.FreeConfig
        monkeypatch.setattr(symmetric, "FreeConfig", lambda rows: built.append(rows) or real(rows))
        p, q = D3Params(0.4, 0.3, 0.2), D3Params(0.4, 0.3, 0.2)
        assert build_c6(p) is build_c6(p) is p._c6 and len(built) == 1
        assert build_c6(q) is not build_c6(p) and len(built) == 2

    def test_class_access_returns_the_descriptor(self):
        assert isinstance(D3Params._c6, lines._cached)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of chart framings and pair-kernel calls, wherever the package binds them, from an
    empty trajectory-build cache, so that a point built earlier in the session is built again."""
    build_curve_point.cache_clear()
    counts = Counter()
    for name in ("_frame_table", "_pair_kernel"):
        original = getattr(lines, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "cylpack" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestFramedAndMeasuredOnce:
    @pytest.mark.parametrize("x", [0.5, 0.25, 1e-3, 0.9])
    def test_trajectory_point(self, kernel_calls, x):
        # the closed forms, the min distance and the generic triplets of one point
        sample = gamma_point(x)
        p = sample.params
        config = build_c6(p)
        radius_from_distance(min_pairwise_distance(config))
        triplets_trig(p)
        triplets_alg(alg_coords(p))
        triplets_generic(p)
        assert kernel_calls == {"_frame_table": 1, "_pair_kernel": 1}

    def test_eval(self, kernel_calls, capsys):
        assert main(["eval", "--x", "0.5"]) == 0
        assert capsys.readouterr().out
        assert kernel_calls == {"_frame_table": 1, "_pair_kernel": 1}


class TestKappaDomain:
    @given(st.floats(min_value=2 * math.pi, exclude_min=True, allow_infinity=False),
           st.booleans())
    @example(2 * math.pi + 1e-15, False)
    @example(1e17, True)
    def test_refused_past_two_pi(self, kappa, negate):
        with pytest.raises(ValueError, match=r"^kappa must lie in \[-2pi, 2pi\]: "):
            D3Params(0.4, 0.3, -kappa if negate else kappa)

    @settings(deadline=None)
    @given(st.floats(-2 * math.pi, 2 * math.pi))
    @example(2 * math.pi)
    @example(-2 * math.pi)
    def test_formulations_agree_across_the_domain(self, kappa):
        # formula-consistency's measure and bound; past the domain the chart's
        # longitude offsets round away (about 1.8e-10 at kappa = 1e5 + 0.3)
        p = D3Params(0.4, 0.3, kappa)
        for a, b in zip(astuple(triplets_trig(p)), astuple(triplets_generic(p))):
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-6)
        assert orbit_check_oracle(build_c6(p))


def test_census_of_the_family_finds_only_the_record():
    """A census, not a proof: the six-line family's smallest distance is sampled on a cell-centred
    60^3 grid of (phi, delta, kappa) over phi in (-pi/2, pi/2) and the periods delta in [0, pi)
    (delta + pi turns every line around) and kappa in [0, 2pi/3) (kappa + 2pi/3 permutes each
    triple).  Every grid point with d^2 > 0.5 at least its 26 neighbours, periodic in delta and
    kappa, is refined by scipy's SLSQP on max t subject to d^2_k >= t, and each lands within 1e-9
    of sqrt(12/11).  A maximum whose basin holds no grid maximum is not seen."""
    from scipy.optimize import minimize
    n = 60
    phis = (-math.pi / 2 + (np.arange(n) + 0.5) * math.pi / n).tolist()
    deltas = ((np.arange(n) + 0.5) * math.pi / n).tolist()
    kappas = ((np.arange(n) + 0.5) * (2 * math.pi / 3) / n).tolist()
    charts = np.array([ring_chart(3, p, d, k) for p in phis for d in deltas for k in kappas])
    dsq = np.concatenate([_charts_dsq(charts[lo:lo + _BLOCK]).min(axis=0)
                          for lo in range(0, len(charts), _BLOCK)]).reshape(n, n, n)
    # no neighbour past the ends of the phi range; delta and kappa wrap around
    padded = np.pad(dsq, ((1, 1), (0, 0), (0, 0)), constant_values=-np.inf)
    peak = dsq > 0.5
    for a, b, c in itertools.product((-1, 0, 1), repeat=3):
        if (a, b, c) != (0, 0, 0):
            peak &= dsq >= np.roll(padded, (-b, -c), axis=(1, 2))[1 + a:n + 1 + a]

    def pair_dsq(v):
        return _charts_dsq(np.array([ring_chart(3, *v[:3])]))[:, 0]

    ends = []
    for i, j, k in np.argwhere(peak).tolist():
        start = [phis[i], deltas[j], kappas[k], dsq[i, j, k]]
        res = minimize(lambda v: -v[3], start, method="SLSQP", options={"ftol": 1e-15, "maxiter": 200},
                       constraints=[{"type": "ineq", "fun": lambda v: pair_dsq(v) - v[3]}])
        ends.append(math.sqrt(pair_dsq(res.x).min()))
    assert len(ends) == 52
    assert max(abs(d - math.sqrt(12 / 11)) for d in ends) <= 1e-9
