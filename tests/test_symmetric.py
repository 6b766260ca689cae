"""Six-line family: construction, symmetry, closed distance forms."""

import math

import numpy as np
import pytest

from cylpack.lines import (
    DegenerateError,
    SphericalPoint,
    distance_sq,
    embed_point,
    make_tangent_line,
    min_pairwise_distance,
)
from cylpack.symmetric import (
    AlgCoords,
    D3Params,
    PAIR_ORBITS,
    alg_coords,
    build_c6,
    c6_chart,
    d3_orbit_check,
    triplets_alg,
    triplets_generic,
    triplets_trig,
)

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
        for line, lon in zip(c, lons):
            assert np.allclose(line.base, embed_point(SphericalPoint(0.0, lon)), atol=1e-15)
            assert abs(abs(float(line.dir[2])) - 1.0) < 1e-15  # vertical

    def test_chart_matches_build(self):
        p = random_params(RNG)
        chart = c6_chart(p)
        c = build_c6(p)
        for (lat, lon, ang), line in zip(chart, c):
            rebuilt = make_tangent_line(SphericalPoint(lat, lon), ang)
            assert line.same_line_as(rebuilt, tol=1e-14)

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
        with pytest.raises(ValueError):
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
        from cylpack.lines import Configuration

        assert not d3_orbit_check(Configuration(tuple(lines)))

    def test_wrong_length_rejected(self):
        from cylpack.lines import Configuration

        c = build_c6(random_params(RNG))
        with pytest.raises(ValueError):
            d3_orbit_check(Configuration(c.lines[:5]))


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
        q = D3Params(p.phi, p.delta, p.kappa + 0.7)
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
