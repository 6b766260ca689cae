"""Generalized ring family: distances, series, unlock verdicts, four cylinders."""

import math

import numpy as np
import pytest

from cylpack import unlocking
from cylpack.lines import chart_lines, distance_sq, radius_from_distance
from cylpack.symmetric import D3Params, alg_coords, build_c6, triplets_alg
from cylpack.unlocking import (
    FourCylSample,
    GeneralParams,
    alt_strategy_verdict,
    build_c3,
    dists_general,
    four_cyl_point,
    series_coeffs,
    taylor_coeffs_numeric,
    unlock_verdict,
)
from helpers import same_line

RNG = np.random.default_rng(93)


def random_general(rng, alpha=None):
    if alpha is None:
        alpha = rng.uniform(0.3, 2.8)
    return GeneralParams(
        alpha, rng.uniform(0.01, 1.2), rng.uniform(-1.2, 1.2), rng.uniform(-1.0, 1.0)
    )


class TestGeneralParams:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            GeneralParams(0.0, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError):
            GeneralParams(math.pi, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError):
            GeneralParams(1.0, math.pi / 2, 0.1, 0.1)

    @pytest.mark.parametrize("kappa", [1e5 + 0.3, -(1e5 + 0.3), 1e17, 2 * math.pi + 1e-9])
    def test_kappa_range(self, kappa):
        # past 2pi build_c3's longitude offsets round away: at 1e17 the built d_AB^2 read 0.0
        with pytest.raises(ValueError, match=r"^kappa must lie in \[-2pi, 2pi\]: "):
            GeneralParams(1.0, 0.4, 0.3, kappa)
        GeneralParams(1.0, 0.4, 0.3, math.copysign(2 * math.pi, kappa))


class TestDistsGeneral:
    def test_initial_point(self):
        for alpha in (0.5, math.pi / 3, math.pi / 2, 2.5):
            dab, dad, dbd = dists_general(GeneralParams(alpha, 0.0, 0.0, 0.0))
            sh = math.sin(alpha / 2)
            assert math.isclose(dad, 4 * sh * sh, rel_tol=1e-13)
            assert math.isclose(dbd, 4 * sh * sh, rel_tol=1e-13)
            assert math.isclose(dab, 4 * math.sin(alpha) ** 2, rel_tol=1e-13)
        assert math.isclose(dists_general(GeneralParams(math.pi / 2, 0, 0, 0))[1], 2.0, rel_tol=1e-15)

    def test_matches_generic_distances(self):
        for _ in range(100):
            g = random_general(RNG)
            if abs(g.delta) < 1e-3:
                continue
            c = build_c3(g)
            generic = (
                distance_sq(c[0], c[1]),
                distance_sq(c[0], c[2]),
                distance_sq(c[1], c[2]),
            )
            for closed, ref in zip(dists_general(g), generic):
                assert math.isclose(closed, ref, rel_tol=1e-9, abs_tol=1e-10)

    def test_reduces_to_six_line_forms_at_pi_third(self):
        for _ in range(50):
            phi = RNG.uniform(0.01, 1.2)
            delta = RNG.uniform(-1.2, 1.2)
            kappa = RNG.uniform(-1.0, 1.0)
            if abs(delta) < 1e-3:
                continue
            g = dists_general(GeneralParams(math.pi / 3, phi, delta, kappa))
            a = triplets_alg(alg_coords(D3Params(phi, delta, kappa)))
            for x, y in zip(g, a):
                assert math.isclose(x, y, rel_tol=1e-10, abs_tol=1e-10)

    def test_subfamily_of_six_line_build(self):
        phi, delta, kappa = 0.4, 0.3, -0.2
        c3 = build_c3(GeneralParams(math.pi / 3, phi, delta, kappa))
        c6 = build_c6(D3Params(phi, delta, kappa))
        for line3, line6 in zip(c3, (c6[0], c6[1], c6[3])):
            assert same_line(line3, line6, tol=1e-14)


class TestSeries:
    def test_within_ring_order0(self):
        out = series_coeffs(math.pi / 3, 0.0, 1.0, 0.0, 0.0)
        assert math.isclose(out["dab_sq_0"], 3.0, rel_tol=1e-15)
        out = series_coeffs(math.pi / 3, 1.0, 1.0, 0.0, 0.0)
        assert math.isclose(out["dab_sq_0"], 1.5, rel_tol=1e-15)

    def test_cross_order1(self):
        out = series_coeffs(math.pi / 3, 1.0, 0.5, 0.1, 0.0)
        assert math.isclose(out["dad_sq_1"], -0.4 * math.sin(math.pi / 3), rel_tol=1e-15)
        assert math.isclose(out["dbd_sq_1"], 0.4 * math.sin(math.pi / 3), rel_tol=1e-15)
        assert "dad_sq_2" not in out

    def test_order2_sum_identity(self):
        # the two order-2 coefficients always sum to 2 sin^2(alpha) (phi1^2 - delta1^2)
        for _ in range(20):
            alpha = RNG.uniform(0.3, 2.8)
            phi1, delta1 = RNG.uniform(-1, 1, 2)
            kappa2 = RNG.uniform(-1, 1)
            if phi1 == 0 and delta1 == 0:
                continue
            out = series_coeffs(alpha, phi1, delta1, 0.0, kappa2)
            expected = 2 * math.sin(alpha) ** 2 * (phi1 * phi1 - delta1 * delta1)
            assert math.isclose(out["dad_sq_2"] + out["dbd_sq_2"], expected, rel_tol=1e-12, abs_tol=1e-12)

    def test_degenerate_direction_rejected(self):
        with pytest.raises(ValueError, match="degenerate direction"):
            series_coeffs(1.0, 0.0, 0.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="degenerate direction"):
            taylor_coeffs_numeric(1.0, 0.0, 0.0, 0.5, 0.0)

    def test_numeric_matches_closed(self):
        for _ in range(25):
            alpha = RNG.uniform(0.3, 2.8)
            phi1 = RNG.uniform(-1, 1)
            delta1 = RNG.uniform(-1, 1)
            if phi1 * phi1 + delta1 * delta1 < 0.1:
                continue
            kappa1 = RNG.choice([0.0, RNG.uniform(0.2, 1.0) * RNG.choice([-1, 1])])
            kappa2 = RNG.uniform(-1, 1)
            closed = series_coeffs(alpha, phi1, delta1, kappa1, kappa2)
            numeric = taylor_coeffs_numeric(alpha, phi1, delta1, kappa1, kappa2)
            assert set(numeric) == set(closed)
            for key, value in closed.items():
                assert math.isclose(numeric[key], value, rel_tol=1e-6, abs_tol=1e-6), key

    def test_numeric_reads_each_key_from_its_own_distance(self, monkeypatch):
        # each distance a different quadratic in t (= phi at phi1 = 1), which the stencils
        # recover exactly up to rounding: every key must read its own component
        coeffs = ((1.0, 2.0, 3.0), (10.0, 20.0, 30.0), (100.0, 200.0, 300.0))  # AB, AD, BD
        monkeypatch.setattr(unlocking, "dists_general",
                            lambda g: tuple(a + b * g.phi + c * g.phi**2 for a, b, c in coeffs))
        numeric = taylor_coeffs_numeric(1.0, 1.0, 0.5, 0.0, 0.25)
        want = {"dab_sq_0": 1.0, "dad_sq_0": 10.0, "dbd_sq_0": 100.0, "dad_sq_1": 20.0,
                "dbd_sq_1": 200.0, "dad_sq_2": 30.0, "dbd_sq_2": 300.0}
        assert numeric.keys() == want.keys()
        for key, value in want.items():
            assert math.isclose(numeric[key], value, rel_tol=1e-8), (key, numeric[key])


class TestUnlockVerdict:
    def test_verdicts(self):
        for alpha in (math.pi / 6, math.pi / 3, 1.5):
            assert unlock_verdict(alpha)["verdict"] == "unlockable"
        assert unlock_verdict(math.pi / 2)["verdict"] == "marginal"
        for alpha in (1.6, 2.0, 3.0):
            assert unlock_verdict(alpha)["verdict"] == "blocked"

    def test_witness_grows_all_distances(self):
        w = unlock_verdict(math.pi / 3)["witness"]
        assert w is not None and w["probe_ok"]
        assert w["baseline_dist_sq"] == pytest.approx(1.0, abs=1e-15)
        assert all(v > 1.0 for v in w["probe_dists_sq"])
        assert w["delta1_window"][0] < w["delta1"] < w["delta1_window"][1]
        assert w["kappa2_window"][0] < w["kappa2"] < w["kappa2_window"][1]

    def test_witness_respects_series(self):
        # the witness direction must have positive order-2 cross terms
        # and an order-0 within-ring gain over the baseline
        for alpha in (0.5, 1.0, 1.5):
            w = unlock_verdict(alpha)["witness"]
            out = series_coeffs(alpha, w["phi1"], w["delta1"], 0.0, w["kappa2"])
            assert out["dab_sq_0"] > w["baseline_dist_sq"]
            assert out["dad_sq_2"] > 0
            assert out["dbd_sq_2"] > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            unlock_verdict(0.0)
        with pytest.raises(ValueError):
            unlock_verdict(math.pi)

    def test_marginal_tolerance(self):
        assert unlock_verdict(math.pi / 2 + 1e-13)["verdict"] == "marginal"
        assert unlock_verdict(math.pi / 2 - 1e-13)["verdict"] == "marginal"


class TestAltStrategy:
    def test_always_blocked(self):
        for alpha in np.linspace(0.1, 3.0, 20):
            report = alt_strategy_verdict(float(alpha))
            assert report["verdict"] == "blocked"
            assert report["spot_dad_sq_0"] < report["baseline_dist_sq"]

    def test_order0_formula_on_built_lines(self):
        # numeric order 0 of the A-D distance in the counter-tilted
        # family, along (phi1 t, delta1 t, 0), against the closed claim
        for alpha, phi1, delta1 in ((1.1, 0.8, 0.6), (0.7, 1.0, 1.0), (2.2, 0.5, -0.9)):
            def dad(t):
                # A as in build_c3, D with its tangent tilted by +delta instead of -delta
                a, d = chart_lines((
                    (phi1 * t, alpha / 2, -delta1 * t),
                    (-phi1 * t, 3 * alpha / 2, delta1 * t),
                ))
                return distance_sq(a, d)

            h = 1e-3
            v1 = 0.5 * (dad(h) + dad(-h))
            v2 = 0.5 * (dad(h / 2) + dad(-h / 2))
            numeric = (4 * v2 - v1) / 3
            closed = (
                4 * math.sin(alpha / 2) ** 2 * phi1 * phi1 / (phi1 * phi1 + delta1 * delta1)
            )
            assert math.isclose(numeric, closed, rel_tol=1e-6, abs_tol=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            alt_strategy_verdict(-1.0)


class TestFourCylinders:
    def test_constant_distances_formula_and_generic(self):
        for T in np.linspace(0.0, 5.0, 60):
            sample = four_cyl_point(float(T))
            for v in sample.dists_sq:
                assert abs(v - 2.0) < 1e-10
            c = build_c3(sample.params)
            assert abs(distance_sq(c[0], c[2]) - 2.0) < 1e-10
            assert abs(distance_sq(c[1], c[2]) - 2.0) < 1e-10
            if T > 0:
                assert abs(distance_sq(c[0], c[1]) - 2.0) < 1e-10

    def test_t_zero_limit_versus_parallel_pair(self):
        # the T = 0 sample reports the trajectory limit 2 for d_AB^2,
        # while the built pair is antipodal-parallel at pointwise
        # distance 2, i.e. generic squared distance 4
        sample = four_cyl_point(0.0)
        assert sample.dists_sq == (2.0, 2.0, 2.0)
        assert math.isclose(sample.u_var, -1.0, rel_tol=1e-15)
        c = build_c3(sample.params)
        assert math.isclose(distance_sq(c[0], c[1]), 4.0, rel_tol=1e-12)

    def test_counter_rotation_root(self):
        sample = four_cyl_point(1.0)
        assert math.isclose(sample.u_var, -math.sqrt(3.0), rel_tol=1e-12)
        for T in (0.3, 1.7, 4.2):
            s = four_cyl_point(T)
            S = math.sqrt(s.s_var)
            resid = s.u_var * s.u_var + 2 * S * T * s.u_var - 1.0
            assert abs(resid) < 1e-12
            # trajectory relation S^2 (1 + 2 T^2) = T^2
            assert math.isclose(s.s_var * (1 + 2 * T * T), T * T, rel_tol=1e-13)

    def test_parallel_pair_by_branch(self):
        s = four_cyl_point(0.25)
        assert s.parallel_pair == "BD"
        assert s.parallel_residual < 1e-14
        m = four_cyl_point(0.25, mirror=True)
        assert m.parallel_pair == "AD"
        assert m.parallel_residual < 1e-14
        for v in m.dists_sq:
            assert abs(v - 2.0) < 1e-10

    def test_kappa_perturbation_strictly_decreases(self):
        for T in np.linspace(0.0, 5.0, 25):
            p = four_cyl_point(float(T)).params
            for sign in (1.0, -1.0):
                q = GeneralParams(p.alpha, p.phi, p.delta, p.kappa + sign * 1e-3)
                assert min(dists_general(q)) < 2.0

    def test_realized_radius(self):
        assert math.isclose(
            radius_from_distance(math.sqrt(2.0)), 1.0 + math.sqrt(2.0), rel_tol=1e-12
        )

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            four_cyl_point(-0.1)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_distances_hold_over_the_whole_range(self, mirror):
        # -ST + sqrt(S^2 T^2 + 1) cancels as S T grows (|d^2 - 2| = 2e-8 at T = 1e4), so the
        # grid runs to the bound, where the angles' trip through atan(T) leaves 5e-11
        for T in [*np.geomspace(1e-6, 1e5, 200).tolist(), 1e5]:
            sample = four_cyl_point(T, mirror)
            assert max(abs(d - 2.0) for d in sample.dists_sq) <= 1e-9, T

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("T", [math.nextafter(1e5, math.inf), 1e15, math.inf, math.nan])
    def test_t_past_the_range_rejected(self, mirror, T):
        # past about 7e5 the distances drift beyond 1e-9, and from about 1e15 the lines degenerate
        with pytest.raises(ValueError, match=r"^trajectory parameter outside the range \[0, 1e5\]"):
            four_cyl_point(T, mirror)
