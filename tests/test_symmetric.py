"""Six-line family: construction, symmetry, closed distance forms."""

import json
import math
import sys
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cylpack import lines, symmetric
from cylpack.cli import main
from cylpack.curve import gamma_point
from cylpack.lines import (
    Configuration,
    DegenerateError,
    SphericalPoint,
    TangentLine,
    chart_lines,
    distance_sq,
    make_tangent_line,
    min_pairwise_distance,
    radius_from_distance,
)
from cylpack.serialize import config_from_dict, json_dumps
from cylpack.symmetric import (
    AlgCoords,
    D3Params,
    PAIR_ORBITS,
    _generic_rows,
    alg_coords,
    build_c6,
    c6_chart,
    ring_chart,
    d3_orbit_check,
    triplets_alg,
    triplets_generic,
    triplets_trig,
)
from helpers import batched_dsq, lines_document, same_line

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
        for line, lon in zip(c, lons):
            assert np.allclose(line.base, [math.cos(lon), math.sin(lon), 0.0], atol=1e-15)
            assert abs(abs(float(line.dir[2])) - 1.0) < 1e-15  # vertical

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_ring_layout(self, n):
        # upper lines first, then lower; around the equator the lines alternate, pi/n apart, so
        # the untilted ring's neighbors are its closest pairs, vertical lines 2 sin(pi/2n) apart
        rows = ring_chart(n, 0.1, 0.0, 0.0)
        assert [row[0] for row in rows] == [0.1] * n + [-0.1] * n
        lons = [row[1] for row in rows]
        assert sorted(lons) == [lons[k // 2 + n * (k % 2)] for k in range(2 * n)]
        assert lons[0] == math.pi / (2 * n) and np.allclose(np.diff(sorted(lons)), math.pi / n, atol=1e-14)
        d = min_pairwise_distance(chart_lines(ring_chart(n, 0.0, 0.0, 0.0)))
        assert d == pytest.approx(2 * math.sin(math.pi / (2 * n)), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 3.0, "3"])
    def test_ring_needs_an_integer_n_from_two(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            ring_chart(n, 0.0, 0.0, 0.0)

    def test_chart_matches_build(self):
        p = random_params(RNG)
        chart = c6_chart(p)
        c = build_c6(p)
        for (lat, lon, ang), line in zip(chart, c):
            rebuilt = make_tangent_line(SphericalPoint(lat, lon), ang)
            assert same_line(line, rebuilt, tol=1e-14)

    def test_upper_triple_meets_axis(self):
        # at kappa = delta = 0 the upper lines run along their meridians
        # and all pass through (0, 0, 1/sin(phi))
        phi = 0.3
        c = build_c6(D3Params(phi, 0.0, 0.0))
        apex = np.array([0.0, 0.0, 1.0 / math.sin(phi)])
        for i in range(3):
            w = apex - c[i].base
            w -= float(w @ c[i].dir) * c[i].dir
            assert float(w @ w) < 1e-24
        # consequently the upper pairwise distances vanish
        assert distance_sq(c[0], c[1]) < 1e-16

    def test_latitude_range_enforced(self):
        with pytest.raises(ValueError, match=r"^phi must lie in \(-pi/2, pi/2\): 1\.5707963267948966$"):
            D3Params(math.pi / 2, 0.0, 0.0)
        with pytest.raises(ValueError):
            D3Params(0.0, math.nan, 0.0)


class TestOrbitCheck:
    def test_family_members_pass(self):
        for _ in range(10):
            assert d3_orbit_check(build_c6(random_params(RNG)))
        assert d3_orbit_check(build_c6(RECORD))

    def test_broken_configuration_fails(self):
        p = random_params(RNG)
        lines = list(build_c6(p).lines)
        lat, lon, ang = c6_chart(p)[2]
        lines[2] = make_tangent_line(SphericalPoint(lat, lon + 0.1), ang)
        assert not d3_orbit_check(Configuration(tuple(lines)))

    def test_wrong_length_rejected(self):
        c = build_c6(random_params(RNG))
        with pytest.raises(ValueError):
            d3_orbit_check(Configuration(c.lines[:5]))


def _axis_rotation(axis, angle):
    """Rodrigues' rotation by angle about a unit axis."""
    k = np.asarray(axis, dtype=float)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    c, s = math.cos(angle), math.sin(angle)
    return c * np.eye(3) + s * kx + (1.0 - c) * np.outer(k, k)


def orbit_check_oracle(c, tol=1e-10):
    """d3_orbit_check line by line: each line rotated into a new TangentLine and compared
    with same_line, the rotations built by Rodrigues' formula."""
    if len(c) != 6:
        raise ValueError("orbit check needs exactly 6 lines")
    rz = _axis_rotation([0.0, 0.0, 1.0], 2 * math.pi / 3)
    rx = _axis_rotation([1.0, 0.0, 0.0], math.pi)
    images = [[TangentLine(r @ u.base, r @ u.dir) for u in c] for r in (rz, rx)]
    rz_ok = all(same_line(u, c[j], tol) for u, j in zip(images[0], (1, 2, 0, 4, 5, 3)))
    return rz_ok and all(any(same_line(u, v, tol) for v in c) for u in images[1])


def assert_agrees_with_oracle(c):
    # where a deviation lies within 1e-14 of the tolerance, the Rodrigues matrices'
    # rounding (cos(2pi/3) = -0.4999999999999998, sin(pi) = 1.2e-16) decides the
    # oracle, so those ties are left to test_tie_is_decided_exactly
    verdict = orbit_check_oracle(c, 1e-10 - 1e-14)
    assume(verdict == orbit_check_oracle(c, 1e-10 + 1e-14))
    assert d3_orbit_check(c) is verdict


FAMILY = st.builds(D3Params, st.floats(-1.5, 1.5), st.floats(-math.pi, math.pi),
                   st.floats(-2 * math.pi, 2 * math.pi))
# one chart coordinate (row, column) moved by 10^U(-13, -8), either sign: across the 1e-10 tolerance
NUDGE = st.tuples(st.integers(0, 5), st.integers(0, 2), st.floats(-13.0, -8.0),
                  st.sampled_from([-1, 1]))


def nudged(p, nudge):
    rows = np.array(c6_chart(p))
    if nudge is not None:
        row, col, exponent, sign = nudge
        rows[row, col] += sign * 10.0 ** exponent
    return chart_lines(rows)


class TestOrbitCheckOracle:
    @settings(deadline=None, max_examples=200)
    @given(FAMILY)
    def test_family_builds_pass(self, p):
        c = build_c6(p)
        assert d3_orbit_check(c) is orbit_check_oracle(c) is True

    @settings(deadline=None, max_examples=300)
    @given(FAMILY, NUDGE)
    def test_nudged_charts_agree(self, p, nudge):
        assert_agrees_with_oracle(nudged(p, nudge))

    @settings(deadline=None, max_examples=200)
    @given(FAMILY, st.permutations(range(6)), st.booleans())
    def test_reordered_and_mirrored_lines_agree(self, p, order, mirror):
        # mirror reflects every line through the plane x = 0, which reverses Rz's sense
        m = np.diag([-1.0 if mirror else 1.0, 1.0, 1.0])
        built = build_c6(p).lines
        assert_agrees_with_oracle(
            Configuration(tuple(TangentLine(m @ built[i].base, m @ built[i].dir) for i in order))
        )

    @settings(deadline=None, max_examples=50)
    @given(FAMILY, st.one_of(st.none(), NUDGE))
    def test_lines_documents_agree(self, p, nudge):
        document = json.loads(json_dumps(lines_document(nudged(p, nudge))))
        assert_agrees_with_oracle(config_from_dict(document))

    def test_tie_is_decided_exactly(self):
        # the untilted chart with line A's latitude moved by 1e-10: the half-turn about x
        # maps F to a base sin(1e-10), 1e-10 once rounded, off A's in z, inside the
        # tolerance; the oracle's rounded Rx adds about 6e-17 to that and refuses
        c = nudged(D3Params(0.0, 0.0, 0.0), (0, 0, -10.0, 1))
        assert d3_orbit_check(c) and not orbit_check_oracle(c)
        assert not d3_orbit_check(nudged(D3Params(0.0, 0.0, 0.0), (0, 0, math.log10(2e-10), 1)))

    def test_five_lines_rejected_alike(self):
        c = Configuration(build_c6(D3Params(0.3, 0.2, -0.4)).lines[:5])
        for check in (d3_orbit_check, orbit_check_oracle):
            with pytest.raises(ValueError, match="^orbit check needs exactly 6 lines$"):
                check(c)


class TestOrbits:
    def test_pair_orbits_cover_all_pairs(self):
        pairs = [frozenset(p) for orbit in PAIR_ORBITS.values() for p in orbit]
        assert len(pairs) == 15
        assert len(set(pairs)) == 15

    def test_orbit_distances_equal(self):
        c = build_c6(random_params(RNG))
        for orbit in PAIR_ORBITS.values():
            values = [distance_sq(c[i], c[j]) for i, j in orbit]
            assert max(values) - min(values) < 1e-10 * max(1.0, max(values))

    def test_record_multiset(self):
        c = build_c6(RECORD)
        values = [distance_sq(c[i], c[j]) for i in range(6) for j in range(i + 1, 6)]
        near_f = sum(1 for v in values if abs(v - F_M) < 1e-9)
        near_ae = sum(1 for v in values if abs(v - DAE_M) < 1e-9)
        assert near_f == 12
        assert near_ae == 3
        assert min_pairwise_distance(c) == pytest.approx(math.sqrt(F_M), abs=1e-12)


class TestAlgCoords:
    def test_initial_values(self):
        a = alg_coords(D3Params(0.0, 0.0, 0.0))
        assert a.s_var == 0.0 and a.t_var == 0.0
        assert math.isclose(a.u_var, -1.0 / math.sqrt(3.0), rel_tol=1e-15)
        assert math.isclose(a.ubar_var, -1.0 / math.sqrt(3.0), rel_tol=1e-15)

    def test_record_values(self):
        a = alg_coords(RECORD)
        u_m = -(math.sqrt(3.0) * (4.0 + math.sqrt(5.0))) / 11.0
        assert math.isclose(a.u_var, u_m, rel_tol=1e-14)
        assert math.isclose(a.s_var * a.s_var, 3.0 / 11.0, rel_tol=1e-14)
        assert math.isclose(a.t_var * a.t_var, 5.0 / 11.0, rel_tol=1e-14)

    def test_moebius_relation(self):
        for _ in range(50):
            a = alg_coords(random_params(RNG))
            u, ub = a.u_var, a.ubar_var
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


class TestBuiltOnce:
    @settings(deadline=None)
    @given(PARAMS)
    @example(D3Params(0.0, 0.0, 0.0))
    @example(D3Params(-0.0, -0.0, -0.0))
    @example(D3Params(0.4, 0.0, 0.3))  # untilted
    def test_generic_reads_the_kept_configuration(self, p):
        c = build_c6(p)
        assert build_c6(p) is c
        assert same_lines(c, chart_lines(c6_chart(p)))
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
            assert same_lines(build_c6(r), chart_lines(c6_chart(r)))

    def test_signed_zero_latitudes_build_different_bits(self):
        # what the test above guards against is real: the two zeros build different lines
        negative, positive = D3Params(-0.0, 0.0, 0.0), D3Params(0.0, 0.0, 0.0)
        assert negative == positive and build_c6(negative) is not build_c6(positive)
        assert not same_lines(build_c6(negative), build_c6(positive))

    def test_c6_is_built_once_per_instance(self, monkeypatch):
        built = []
        real = symmetric.chart_lines
        monkeypatch.setattr(symmetric, "chart_lines", lambda rows: built.append(rows) or real(rows))
        p, q = D3Params(0.4, 0.3, 0.2), D3Params(0.4, 0.3, 0.2)
        assert build_c6(p) is build_c6(p) is p._c6 and len(built) == 1
        assert build_c6(q) is not build_c6(p) and len(built) == 2

    def test_class_access_returns_the_descriptor(self):
        assert isinstance(D3Params._c6, lines._cached)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of chart framings and pair-kernel calls, wherever the package binds them."""
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
        assert d3_orbit_check(build_c6(p))
