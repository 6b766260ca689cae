"""Generalized ring family: distances, series, unlock verdicts, four cylinders."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cylpack import unlocking
from cylpack.lines import FreeConfig, distance_sq, radius_from_distance
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
from helpers import same_line, table_line

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
                distance_sq(table_line(c, 0), table_line(c, 1)),
                distance_sq(table_line(c, 0), table_line(c, 2)),
                distance_sq(table_line(c, 1), table_line(c, 2)),
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
        for k3, k6 in enumerate((0, 1, 3)):
            assert same_line(table_line(c3, k3), table_line(c6, k6), tol=1e-14)


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
        assert w["kappa2_half_width"] > 0.0

    def test_kappa2_half_width(self):
        # kappa2 -+ the half-width give the window's ends the witness reported at pi/3, to an ulp;
        # at 1e-18 both ends round to kappa2 itself, while the half-width |odd|/4 stays positive
        w = unlock_verdict(math.pi / 3)["witness"]
        for end, sign in ((-0.69893495782429949, -1.0), (-0.581395128065611, 1.0)):
            assert abs(w["kappa2"] + sign * w["kappa2_half_width"] - end) <= math.ulp(end)
        tiny = unlock_verdict(1e-18)["witness"]
        assert tiny["kappa2_half_width"] == pytest.approx(9.45e-20, rel=1e-3)
        assert tiny["kappa2"] - tiny["kappa2_half_width"] == tiny["kappa2"] + tiny["kappa2_half_width"]

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

    @given(st.floats(math.log(1e-13), math.log(math.pi / 2 - 1e-7)))
    @example(math.log(math.pi / 1e5))  # t = 1e-2 read probe_ok False for n from about 1e5 to 1e10
    @example(math.log(math.pi / 2 - 1e-4))  # and within 1e-4 to 1e-11 of pi/2
    @settings(max_examples=300, deadline=None)
    def test_probe_holds_outside_the_bands(self, log_alpha):
        # log-uniform alpha in [1e-13, pi/2 - 1e-7]: the witness's probe confirms every distance grows
        alpha = math.exp(log_alpha)
        w = unlock_verdict(alpha)["witness"]
        assert w["probe_ok"], alpha
        assert w["probe_t"] == min(1e-2, 0.5 * math.sqrt(math.sin(alpha) * math.cos(alpha)))

    @pytest.mark.parametrize("alpha, ok", [(1e-13, True), (1e-16, False), (math.pi / 2 - 1e-7, True),
                                           (math.pi / 2 - 1e-10, False)])
    def test_either_side_of_the_bands(self, alpha, ok):
        # below 1e-13 and within 1e-7 of pi/2 the cross pairs' growth, about t^2 sin(alpha) cos(alpha)
        # of the baseline, nears the distances' rounding: the verdict holds, the probe may not show it
        report = unlock_verdict(alpha)
        assert report["verdict"] == "unlockable" and report["witness"]["probe_ok"] is ok

    def test_probe_step_is_1e_2_at_the_verified_angles(self):
        for alpha in (math.pi / 6, math.pi / 3, 1.5, *(math.pi / n for n in range(3, 9))):
            assert unlock_verdict(alpha)["witness"]["probe_t"] == 1e-2

    @pytest.mark.parametrize("n", [10**20, 10**100, 10**154])
    def test_tilt_window_in_closed_form(self, n):
        # 1/sqrt(1 + 2 cos alpha) squares nothing small: sin(alpha/2)/sqrt(sin^2 alpha - sin^2(alpha/2))
        # read 4.4e-6 off 1/sqrt(3) at n = 1e160 and divided by zero at 1e163
        w = unlock_verdict(math.pi / n)["witness"]
        assert w["delta1_window"] == (1.0 / math.sqrt(3.0), 1.0)
        assert w["baseline_dist_sq"] > 0.0

    def test_angles_below_the_normal_baseline_are_refused(self):
        # below alpha = sqrt(sys.float_info.min), 4 sin^2(alpha/2) is subnormal; from n = 1e161 the
        # probe's within-ring distance read 0 under "unlockable"
        least = unlocking._ALPHA_MIN
        assert 4.0 * math.sin(least / 2) ** 2 >= sys.float_info.min
        assert unlock_verdict(least)["verdict"] == "unlockable"
        for alpha in (math.nextafter(least, 0.0), math.pi / 10**163, 5e-324):
            with pytest.raises(ValueError, match=rf"^alpha must be at least {least!r}, where 4 sin"):
                unlock_verdict(alpha)


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
                c = FreeConfig((
                    (phi1 * t, alpha / 2, -delta1 * t),
                    (-phi1 * t, 3 * alpha / 2, delta1 * t),
                ))
                return distance_sq(table_line(c, 0), table_line(c, 1))

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
            assert abs(distance_sq(table_line(c, 0), table_line(c, 2)) - 2.0) < 1e-10
            assert abs(distance_sq(table_line(c, 1), table_line(c, 2)) - 2.0) < 1e-10
            if T > 0:
                assert abs(distance_sq(table_line(c, 0), table_line(c, 1)) - 2.0) < 1e-10

    def test_t_zero_limit_versus_parallel_pair(self):
        # the T = 0 sample reports the trajectory limit 2 for d_AB^2,
        # while the built pair is antipodal-parallel at pointwise
        # distance 2, i.e. generic squared distance 4
        sample = four_cyl_point(0.0)
        assert sample.dists_sq == (2.0, 2.0, 2.0)
        assert math.isclose(sample.U, -1.0, rel_tol=1e-15)
        c = build_c3(sample.params)
        assert math.isclose(distance_sq(table_line(c, 0), table_line(c, 1)), 4.0, rel_tol=1e-12)

    def test_counter_rotation_root(self):
        sample = four_cyl_point(1.0)
        assert math.isclose(sample.U, -math.sqrt(3.0), rel_tol=1e-12)
        for T in (0.3, 1.7, 4.2):
            s = four_cyl_point(T)
            S = math.sqrt(s.S2)
            resid = s.U * s.U + 2 * S * T * s.U - 1.0
            assert abs(resid) < 1e-12
            # trajectory relation S^2 (1 + 2 T^2) = T^2
            assert math.isclose(s.S2 * (1 + 2 * T * T), T * T, rel_tol=1e-13)

    @pytest.mark.parametrize("T", [0.01, 0.25, 1.0, 4.2])
    def test_parallel_pair_by_branch(self, T):
        # B-D stays parallel on the default branch and A-D on the mirror one, and the residual
        # is that pair's 1 - |cos|; the other adjacent pair is not parallel
        for mirror, (kept, other) in ((False, (1, 0)), (True, (0, 1))):
            s = four_cyl_point(T, mirror=mirror)
            c = build_c3(s.params)
            assert s.parallel_residual == 1.0 - abs(float(c.table[kept, 3:] @ c.table[2, 3:])) < 1e-14
            assert 1.0 - abs(float(c.table[other, 3:] @ c.table[2, 3:])) > 1e-6
            for v in s.dists_sq:
                assert abs(v - 2.0) < 1e-10

    @settings(deadline=None)
    @given(st.floats(0.0, 1e5), st.booleans())
    @example(0.0, False)
    @example(1e5, True)
    def test_residual_has_the_lines_bits(self, T, mirror):
        # four_cyl_point reads the residual from its frame table, with the bits of the dot
        # products of the table's dir rows
        s = four_cyl_point(T, mirror)
        c = build_c3(s.params)
        assert s.parallel_residual.hex() == min(1.0 - abs(float(c.table[k, 3:] @ c.table[2, 3:])) for k in (0, 1)).hex()

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
        # the underflow tail, where S^2 + T^2 rounds to 0 up to about 1.5e-162, reads the limit 2
        for T in [5e-324, 1e-200, 1.5e-162, *np.geomspace(1e-6, 1e5, 200).tolist(), 1e5]:
            sample = four_cyl_point(T, mirror)
            assert max(abs(d - 2.0) for d in sample.dists_sq) <= 1e-9, T

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("T", [math.nextafter(1e5, math.inf), 1e15, math.inf, math.nan])
    def test_t_past_the_range_rejected(self, mirror, T):
        # past about 7e5 the distances drift beyond 1e-9, and from about 1e15 the lines degenerate
        with pytest.raises(ValueError, match=r"^trajectory parameter outside the range \[0, 1e5\]"):
            four_cyl_point(T, mirror)
