"""Equal-distance trajectory: constraints, rational parametrization, record."""

import ast
import hashlib
import math
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cylpack import curve
from cylpack.lines import (
    DegenerateError,
    distance_sq,
    min_pairwise_distance,
    radius_from_distance,
)
from cylpack.curve import (
    CurveSample,
    _check_sample,
    f_of_x,
    gamma_point,
    k1,
    k2,
    psi,
    pure_geodetic_check,
    record,
    t_of_x,
    u_from_st,
)
from cylpack.symmetric import (
    D3Params,
    alg_coords,
    build_c6,
    triplets_alg,
    triplets_trig,
)
from helpers import ref_gamma_coords, table_line

RNG = np.random.default_rng(92)

U0 = -1.0 / math.sqrt(3.0)
U_M = -(math.sqrt(3.0) * (4.0 + math.sqrt(5.0))) / 11.0


def grid_xs(n):
    return [(i + 1) / (n + 1) for i in range(n)]


class TestPolynomials:
    def test_k1_initial_root(self):
        assert abs(k1(0.0, U0)) < 1e-15
        assert math.isclose(k1(0.0, 0.0), math.sqrt(3.0), rel_tol=1e-15)

    def test_k2_value_is_exact(self):
        # all inputs and intermediates are dyadic, so this is exact: S = 0.5, T = 1
        assert k2(0.25, 1.0, 0.5, 0.0) == 13.0 / 16.0
        assert k2(Fraction(1, 4), 1, Fraction(1, 2), 0) == Fraction(13, 16)
        s2, t2, st = 0.3 * 0.3, 0.7 * 0.7, 0.3 * 0.7
        assert k2(s2, t2, st, 0.0) == k2(s2, t2, st, -0.0)

    def test_k2_matches_distance_difference(self):
        # independent oracle: the difference of the closed distance forms
        # equals 4 (1 + T^2) k2 / (D1 D2) with D1, D2 their denominators
        for _ in range(50):
            S = RNG.uniform(-0.9, 0.9)
            T = RNG.uniform(-2.0, 2.0)
            U = RNG.uniform(-2.0, 2.0)
            s2, t2 = S * S, T * T
            if s2 + t2 < 1e-3:
                continue
            d1 = (4 - 3 * s2 + t2) * (s2 + t2)
            d2 = 1 + U * U + t2 - s2 + 2 * S * T * U
            dab = 12 * t2 * (1 - s2) ** 2 / d1
            dad = 4 * (T * S + U) ** 2 / d2
            rhs = 4 * (1 + t2) * k2(s2, t2, S * T, U) / (d1 * d2)
            assert math.isclose(dab - dad, rhs, rel_tol=1e-10, abs_tol=1e-12)

    def test_vanish_along_trajectory(self):
        worst = 0.0
        for x in grid_xs(200):
            a = gamma_point(x).coords
            worst = max(
                worst,
                abs(k1(a.S * a.T, a.U)),
                abs(k2(a.S * a.S, a.T * a.T, a.S * a.T, a.U)),
                abs(psi(a.S * a.S, a.T * a.T)),
            )
        assert worst < 1e-9

    def test_u_from_st(self):
        a = gamma_point(0.5).coords
        assert math.isclose(u_from_st(a.S * a.S, a.T * a.T, a.S * a.T), U_M, rel_tol=1e-13)
        for x in grid_xs(50):
            if x == 1.0:
                continue
            a = gamma_point(x).coords
            u = u_from_st(a.S * a.S, a.T * a.T, a.S * a.T)
            assert math.isclose(u, a.U, rel_tol=1e-9, abs_tol=1e-9)
        with pytest.raises(DegenerateError):
            u_from_st(0.0, 0.0, 0.0)


class TestPsi:
    def test_roots(self):
        assert psi(0.0, 0.0) == 0.0
        assert psi(Fraction(3, 11), Fraction(5, 11)) == 0
        assert abs(psi(3.0 / 11.0, 5.0 / 11.0)) < 1e-15

    def test_s_equals_one_slice(self):
        t = Fraction(7, 3)
        assert psi(Fraction(1), t) == (1 + t) ** 3

    def test_exact_on_ints_float_on_floats(self):
        assert psi(1, 2) == 27 and type(psi(1, 2)) is int
        assert type(psi(1, 2.0)) is float and psi(1, 2.0) == 27.0

    def test_factorization(self):
        # psi(s, t) = -(1 + t)^3 (-1 - 2x + tx + 3x^2 + 7tx^2 + 4tx^3)
        # with x = (1 - s)/(t + 1)
        for _ in range(1000):
            s = RNG.uniform(0.0, 1.0)
            t = RNG.uniform(0.0, 3.0)
            x = (1 - s) / (t + 1)
            g = -1 - 2 * x + t * x + 3 * x * x + 7 * t * x * x + 4 * t * x ** 3
            expected = -((1 + t) ** 3) * g
            scale = max(abs(expected), 1.0)
            assert abs(psi(s, t) - expected) <= 1e-10 * scale


class TestRationalForms:
    def test_t_of_x_exact(self):
        assert t_of_x(Fraction(1, 2)) == Fraction(5, 11)
        assert t_of_x(Fraction(1, 4)) == Fraction(7, 4)
        assert t_of_x(1) == 0
        assert math.isclose(t_of_x(0.5), 5.0 / 11.0, rel_tol=1e-15)

    def test_f_of_x_exact(self):
        assert f_of_x(Fraction(1, 2)) == Fraction(12, 11)
        assert f_of_x(Fraction(1, 4)) == 1
        assert f_of_x(1) == 1
        assert math.isclose(f_of_x(0.5), 12.0 / 11.0, rel_tol=1e-15)
        assert abs(f_of_x(0.25) - 1.0) < 1e-14

    def test_domain_errors(self):
        for bad in (0, -0.5, 1.5):
            with pytest.raises(ValueError):
                t_of_x(bad)
            with pytest.raises(ValueError):
                f_of_x(bad)

    @pytest.mark.parametrize(
        "fn, value",
        [
            (f_of_x, math.nan),
            (t_of_x, math.nan),
            (radius_from_distance, math.nan),
        ],
    )
    def test_nan_and_inf_outside_the_domain(self, fn, value):
        # every comparison with nan is false, so a domain check written as
        # `if x < lo` lets nan through; the checks must reject it
        with pytest.raises(ValueError):
            fn(value)


class TestGammaPoint:
    def test_record_point_values(self):
        g = gamma_point(0.5)
        a = g.coords
        assert math.isclose(a.S * a.S, 3.0 / 11.0, rel_tol=1e-14)
        assert math.isclose(a.T * a.T, 5.0 / 11.0, rel_tol=1e-14)
        assert math.isclose(math.tan(g.params.kappa), -1.0 / math.sqrt(15.0), rel_tol=1e-14)
        assert math.isclose(a.U, U_M, rel_tol=1e-14)
        assert math.isclose(g.f_value, 12.0 / 11.0, rel_tol=1e-15)

    def test_initial_point_exact(self):
        g = gamma_point(1.0)
        a = g.coords
        assert (g.x, a.S * a.S, a.T * a.T, a.S, a.T) == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert (g.params.phi, g.params.delta, g.params.kappa) == (0.0, 0.0, 0.0)
        assert math.isclose(a.U, U0, rel_tol=1e-15)
        assert (a.U, a.Ubar) == (math.tan(-math.pi / 6), -math.tan(math.pi / 6))
        assert g.f_value == 1.0
        zeros = (a.S * a.S, a.T * a.T, a.S, a.T, g.params.phi, g.params.delta, g.params.kappa)
        assert all(math.copysign(1.0, z) == 1.0 for z in zeros)

    def test_samples_pinned(self):
        # the first 16 hex digits of the sha256 of every sample's nine floats, read before sin^2(phi) and
        # tan(kappa) moved into curve._angles_of_x: x = 1, the record, the least x that can be sampled, x at
        # and near the least normal float, 20000 uniform and 20000 log-uniform draws
        rng = np.random.default_rng(54)
        xs = [1.0, 0.5, 0.25, 5.57e-309, 1e-308, 2.2250738585072014e-308, 1e-300, 1e-30, 1e-13,
              *rng.uniform(0, 1, 20000), *10 ** rng.uniform(-308, 0, 20000)]
        digest, n = hashlib.sha256(), 0
        for x in (float(x) for x in xs if x > 0):
            g = gamma_point(x)
            p, a = g.params, g.coords
            digest.update(struct.pack("<9d", x, p.phi, p.delta, p.kappa, a.S, a.T, a.U, a.Ubar, g.f_value))
            n += 1
        assert (n, digest.hexdigest()[:16]) == (40009, "b0fb55f9f3b7943b")

    def test_both_samples_read_the_one_map(self, monkeypatch):
        # gamma_point and pure_geodetic_check take their angles from curve._angles_of_x, not a copy
        calls = []
        angles = curve._angles_of_x
        monkeypatch.setattr(curve, "_angles_of_x", lambda x: calls.append(x) or angles(x))
        gamma_point(0.5)
        pure_geodetic_check(Fraction(1, 2))
        assert calls == [0.5, Fraction(1, 2)]
        assert type(calls[1]) is Fraction

    def test_branch_signs(self):
        for x in (0.2, 0.5, 0.9):
            g = gamma_point(x)
            assert g.coords.S > 0 and g.coords.T > 0
            assert -math.pi / 2 < g.params.kappa <= 0.0

    def test_distances_match_f(self):
        for x in (0.25, 0.5, 0.75):
            g = gamma_point(x)
            c = build_c6(g.params)
            for dsq in triplets_alg(alg_coords(g.params)):
                assert math.isclose(dsq, g.f_value, rel_tol=1e-11)
            # generic distances on the built lines agree as well
            assert math.isclose(distance_sq(table_line(c, 0), table_line(c, 1)), g.f_value, rel_tol=1e-10)
            assert math.isclose(distance_sq(table_line(c, 0), table_line(c, 3)), g.f_value, rel_tol=1e-10)
            assert math.isclose(distance_sq(table_line(c, 1), table_line(c, 3)), g.f_value, rel_tol=1e-10)

    def test_flat_point_distance_one(self):
        g = gamma_point(0.25)
        assert math.isclose(min_pairwise_distance(build_c6(g.params)), 1.0, rel_tol=1e-10)

    def test_domain_errors(self):
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                gamma_point(bad)

    def test_endpoint_continuity(self):
        # parameters shrink like sqrt(1 - x) toward the endpoint
        g = gamma_point(1 - 1e-8)
        assert max(abs(g.coords.S), abs(g.coords.T), abs(math.tan(g.params.kappa))) < 3e-4
        g = gamma_point(1 - 1e-13)
        assert max(abs(g.coords.S), abs(g.coords.T), abs(math.tan(g.params.kappa))) < 1e-6
        assert math.isclose(g.coords.U, U0, rel_tol=1e-6)

    # the smallest x whose t(x) ~ 1/x is a finite float, and the float below it
    X_MIN = 5.56268464626801e-309
    X_BELOW = 5.562684646268003e-309

    @settings(deadline=None)
    @given(st.floats(math.log(5e-324), 0.0).map(math.exp))
    @example(5e-324)
    @example(X_BELOW)
    @example(X_MIN)
    @example(1e-300)
    @example(1e-103)
    @example(1.0)
    def test_whole_domain(self, x):
        # every x of (0, 1] either samples, its checks included, or is
        # refused by name below the float range; nothing overflows
        if x < self.X_MIN:
            with pytest.raises(ValueError, match=r"\[5\.57e-309, 1\]"):
                gamma_point(x)
        else:
            g = gamma_point(x)
            assert g.x == x and math.isfinite(g.coords.T * g.coords.T) and g.f_value == f_of_x(x)

    @settings(deadline=None)
    @given(st.floats(5.57e-309, 1.0) | st.floats(math.log(5.57e-309), 0.0).map(math.exp))
    @example(1.0)
    @example(0.5)
    @example(5.57e-309)
    def test_coords_are_the_closed_forms(self, x):
        # the sample keeps the AlgCoords its check measures, each coordinate with the bits of
        # the form gamma_point wrote out for it; at x = 1 they are (0, 0, tan(-pi/6),
        # -tan(pi/6)), which pass the Moebius link
        a = gamma_point(x).coords
        assert [v.hex() for v in (a.S, a.T, a.U, a.Ubar)] == [v.hex() for v in ref_gamma_coords(x)]

    @settings(deadline=None)
    @given(st.floats(math.log(5.57e-309), 0.0).map(math.exp).filter(lambda x: x < 1.0))
    @example(5.57e-309)
    @example(1e-308)
    @example(1e-154)
    @example(1e-155)
    def test_alg_distances_relative_to_f(self, x):
        # d_AB^2's denominator overflows past t ~ 1e154; the sample's own
        # coordinates still give F(x) to 1e-14 relative, however small F is
        g = gamma_point(x)
        for dsq in triplets_alg(g.coords):
            assert abs(dsq - g.f_value) <= 1e-14 * g.f_value

    @pytest.mark.parametrize(
        "field, factor", [("f_value", 1.0 + 1e-8), ("f_value", math.nan), ("x", 1.0 + 1e-9)]
    )
    def test_sample_checks_are_relative(self, field, factor):
        # at x = 1e-200, F and x are ~1e-199: absolute bounds of 1e-9 and
        # 1e-10 would pass any value, a NaN included
        g = gamma_point(1e-200)
        with pytest.raises(ArithmeticError):
            _check_sample(replace(g, **{field: getattr(g, field) * factor}))

    @pytest.mark.parametrize("x", [1e-3, 1e-6])
    def test_small_x(self, x):
        # psi's terms grow like 1/x^3 here; the membership check scales with them
        g = gamma_point(x)
        assert g.f_value == f_of_x(x)
        for dsq in triplets_alg(alg_coords(g.params)):
            assert math.isclose(dsq, g.f_value, rel_tol=1e-9)
        c = build_c6(g.params)
        assert math.isclose(distance_sq(table_line(c, 0), table_line(c, 1)), g.f_value, rel_tol=1e-9)

    def test_dae_dominates_near_record(self):
        for x in np.linspace(0.4, 0.6, 21):
            g = gamma_point(float(x))
            t = triplets_trig(g.params)
            assert t.dae_sq > g.f_value + 0.1


class TestRecord:
    def test_closed_forms(self):
        rep = record()
        r = rep["computed"]
        assert r["r"] == pytest.approx((3.0 + math.sqrt(33.0)) / 8.0, abs=1e-12)
        assert r["r"] == pytest.approx(1.093070331, abs=1e-9)
        assert r["f"] == pytest.approx(12.0 / 11.0, abs=1e-12)
        assert r["d"] == pytest.approx(math.sqrt(12.0 / 11.0), abs=1e-12)
        assert r["dae_sq"] == pytest.approx(540.0 / 143.0, abs=1e-12)
        assert r["s"] == pytest.approx(3.0 / 11.0, abs=1e-12)
        assert r["t"] == pytest.approx(5.0 / 11.0, abs=1e-12)
        assert r["tan_kappa"] == pytest.approx(-1.0 / math.sqrt(15.0), abs=1e-12)
        assert set(rep["closed_form"]) == set(r) == {
            "x", "s", "t", "phi", "tan_kappa", "f", "d", "dae_sq", "r"}

    @pytest.mark.parametrize("key", ["s", "t", "phi", "tan_kappa", "f", "d", "dae_sq", "r"])
    def test_drift_past_1e_12_is_refused(self, monkeypatch, key):
        # every computed value is within 4.5e-16 of its closed form, so a 2e-12 shift passes 1e-12;
        # x is not among them: record() builds the trajectory at the closed form's x
        monkeypatch.setitem(curve._RECORD_CLOSED, key, curve._RECORD_CLOSED[key] + 2e-12)
        with pytest.raises(ArithmeticError, match=f"record value {key} drifted"):
            record()


SRC = Path(curve.__file__).parent
# the record's rational values, each to be written as a number once in src/, in _RECORD_RATIONAL
RATIONALS = {Fraction(1, 2), Fraction(3, 11), Fraction(5, 11), Fraction(5, 16), Fraction(1, 16),
             Fraction(12, 11), Fraction(540, 143)}


def _number(node, in_dict=False):
    """The value of node as a Fraction if it writes a number: a numeric constant, a signed one, a
    quotient of two, Fraction(p, q) of them, or in a dict a pair (p, q) of ints, the table's form;
    else None."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return Fraction(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _number(node.operand)
        return None if value is None else -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        terms = node.left, node.right
    elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Fraction") and len(node.args) == 2:
        terms = node.args
    elif in_dict and isinstance(node, ast.Tuple) and len(node.elts) == 2 and all(
            isinstance(e, ast.Constant) and type(e.value) is int for e in node.elts):
        terms = node.elts
    else:
        return None
    p, q = map(_number, terms)
    return None if p is None or not q else p / q


def _written(node, parent=None):
    """(value, node) of each number written under node; 0.5 as an operand of arithmetic or of a
    comparison halves or draws a fair coin, so it is not counted there."""
    value = _number(node, isinstance(parent, ast.Dict))
    if value is None:
        for child in ast.iter_child_nodes(node):
            yield from _written(child, node)
    elif not (value == Fraction(1, 2) and isinstance(parent, (ast.BinOp, ast.Compare))):
        yield value, node


def test_each_record_rational_is_written_once_in_the_table():
    # text (a docstring, a measurement's name) is not a number; each value is written once, there
    (table,) = [node for node in ast.parse((SRC / "curve.py").read_text()).body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_RECORD_RATIONAL"]
    found = {value: [] for value in RATIONALS}
    for path in sorted(SRC.glob("*.py")):
        for value, node in _written(ast.parse(path.read_text())):
            if value in found:
                found[value].append((path.name, node.lineno))
    assert {value: len(at) for value, at in found.items()} == dict.fromkeys(RATIONALS, 1)
    assert all(name == "curve.py" and table.lineno <= line <= table.end_lineno for (name, line), in found.values())
    assert {Fraction(p, q) for p, q in curve._RECORD_RATIONAL.values()} == RATIONALS


def test_the_guard_sees_each_written_form():
    # ... and no halving, fair coin or pair of line indices
    code = ("f(0.5); g(1 / 2); h(-(3.0 / 11.0)); Fraction(12, 11); y = 0.5 * z + (u < 0.5)\n"
            "d = {'f': (540, 143)}; orbits = {'ab': ((1, 2), (5, 16))}")
    assert [value for value, _ in _written(ast.parse(code)) if abs(value) in RATIONALS] == [
        Fraction(1, 2), Fraction(1, 2), Fraction(-3, 11), Fraction(12, 11), Fraction(540, 143)]


# the checks that fail when a table entry's numerator moves by 1
READERS = {"x": ["record-values", "record-configuration", "unimodality", "rational-angles"],
           "s": ["record-values", "rational-angles"], "t": ["record-values"],
           "sin_sq_delta": ["rational-angles"], "sin_sq_kappa": ["rational-angles"],
           "f": ["record-values", "record-configuration", "optimizer-cross-check"],
           "dae_sq": ["record-values", "record-configuration"]}


@pytest.mark.parametrize("key", list(curve._RECORD_RATIONAL))
def test_each_table_entry_is_verified(tmp_path, key):
    # the package copied with one entry's numerator moved by 1: the checks reading it fail
    p, q = curve._RECORD_RATIONAL[key]
    package = tmp_path / "cylpack"
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
    source, entry = (package / "curve.py").read_text(), f'"{key}": ({p}, {q})'
    assert source.count(entry) == 1
    (package / "curve.py").write_text(source.replace(entry, f'"{key}": ({p + 1}, {q})'))
    code = "from cylpack.acceptance import run_checks\nprint([r.name for r in run_checks() if not r.passed])"
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert ast.literal_eval(out) == READERS[key]


class TestPureGeodetic:
    def test_record_rationals(self):
        report = pure_geodetic_check(Fraction(1, 2))
        assert report["sin_sq_phi"] == Fraction(3, 11)
        assert report["sin_sq_delta"] == Fraction(5, 16)
        assert report["sin_sq_kappa"] == Fraction(1, 16)
        assert report["f"] == Fraction(12, 11)
        assert all(isinstance(v, Fraction) for v in report.values())

    def test_endpoint(self):
        report = pure_geodetic_check(1)
        assert report["sin_sq_phi"] == 0
        assert report["sin_sq_delta"] == 0
        assert report["sin_sq_kappa"] == 0

    def test_string_input(self):
        assert pure_geodetic_check("1/2")["sin_sq_phi"] == Fraction(3, 11)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            pure_geodetic_check(0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            pure_geodetic_check(Fraction(3, 2))

    def test_exact_angles_pinned(self):
        # the first 16 hex digits of the sha256 of every report at x = p/q, q <= 59, read before
        # sin^2(phi) and sin^2(kappa) moved into curve._angles_of_x
        digest = hashlib.sha256()
        for q in range(1, 60):
            for p in range(1, q + 1):
                digest.update(repr(sorted(pure_geodetic_check(Fraction(p, q)).items())).encode())
        assert digest.hexdigest()[:16] == "24ed74424bb14ade"

    @given(st.integers(1, 10**12).flatmap(lambda q: st.tuples(st.integers(1, q), st.just(q))))
    @example((1, 10**12))
    @example((1, 2))
    @example((1, 1))
    @example((10**12 - 1, 10**12))
    @settings(max_examples=500)
    def test_exact_angles_are_the_float_trajectory(self, pq):
        # the exact sin^2 of phi, delta and kappa at x = p/q are, as floats, those of the angles
        # gamma_point samples at float(x), to 1e-15
        x = Fraction(*pq)
        exact, params = pure_geodetic_check(x), gamma_point(float(x)).params
        for key, angle in (("sin_sq_phi", params.phi), ("sin_sq_delta", params.delta),
                           ("sin_sq_kappa", params.kappa)):
            assert abs(float(exact[key]) - math.sin(angle) ** 2) <= 1e-15, key
