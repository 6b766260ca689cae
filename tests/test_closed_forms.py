"""The closed forms that read (S^2, T^2, S T): on floats, the bits of the same forms in (S, T);
on rationals, exact values of the trajectory and of the four-cylinder slice."""

import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cylpack.curve import f_of_x, k1, k2, psi, t_of_x, u_from_st
from cylpack.symmetric import SQRT3, _neighbor_dists_sq

from helpers import ref_k1, ref_k2, ref_neighbor_dists_sq, ref_u_from_st


def signed(lo, hi):
    """0.0, or a float of magnitude in [lo, hi] of either sign."""
    return st.just(0.0) | st.floats(lo, hi) | st.floats(-hi, -lo)


# 2 (S T) is (2 S) T bit for bit unless S T is subnormal, which magnitudes of 1e-100 and more
# rule out; T up to 1e100 takes T^2 past the 1e154 where d_AB^2's denominator overflows
S_ = signed(1e-100, 1.0)
T_ = signed(1e-100, 1e100)
UNIT = st.floats(0.0, 1.0)


def outcome(f, *args):
    """The bytes of f(*args), a float or a tuple of floats, or the type of what it raised."""
    try:
        value = f(*args)
    except ArithmeticError as e:
        return type(e)
    values = value if isinstance(value, tuple) else (value,)
    return struct.pack(f"<{len(values)}d", *values)


class TestFloatBits:
    @settings(deadline=None, max_examples=300)
    @given(S_, T_, T_, T_, UNIT, UNIT)
    @example(0.0, 0.0, 0.3, -0.2, 0.75, 0.25)  # S = T = 0: d_AB^2's limit
    @example(1e-16, 0.0, 0.3, -0.2, 0.75, 0.25)  # S^2 + T^2 = 1e-32: the form, not the limit
    @example(0.5, 1e100, 0.0, 0.0, 0.75, 0.25)  # T^2 = 1e200: d_AB^2 divided through by T^2
    def test_neighbor_dists_sq(self, S, T, U, Ub, sin_sq, cos_sq):
        got = outcome(_neighbor_dists_sq, S * S, T * T, S * T, U, Ub, sin_sq, cos_sq)
        assert got == outcome(ref_neighbor_dists_sq, S, T, U, Ub, sin_sq, cos_sq)
        if T == 0.0 != S and got is not ZeroDivisionError:
            assert got[:8] == bytes(8)  # lines A and B meet on the axis: d_AB^2 = +0.0

    @settings(deadline=None, max_examples=300)
    @given(S_, T_, T_)
    def test_k2(self, S, T, U):
        assert outcome(k2, S * S, T * T, S * T, U) == outcome(ref_k2, S, T, U)

    @settings(deadline=None, max_examples=300)
    @given(S_, T_)
    @example(0.0, 0.0)  # the endpoint, where both raise
    def test_u_from_st(self, S, T):
        assert outcome(u_from_st, S * S, T * T, S * T) == outcome(ref_u_from_st, S, T)

    @settings(deadline=None, max_examples=300)
    @given(S_, T_, T_)
    def test_k1_within_rounding(self, S, T, U):
        # k1 forms sqrt(3) (S T) where the reference forms (sqrt(3) S) T; the two products
        # differ by at most 4 half-ulps of sqrt(3)|S T|, and each version's other roundings
        # (five) move it by at most half an ulp of the size of its terms each: 7 eps in all
        st = S * T
        scale = SQRT3 * U * U + 2 * abs(U) * (1 + SQRT3 * abs(st)) + 2 * abs(st) + SQRT3
        assert abs(k1(st, U) - ref_k1(S, T, U)) <= 7 * sys.float_info.epsilon * scale


def trajectory_dab(x):
    """d_AB^2 of the six-line family at trajectory parameter x, from S^2 = s and T^2 = t."""
    t = t_of_x(x)
    s = 1 - x * (t + 1)
    assert psi(s, t) == 0
    return _neighbor_dists_sq(s, t, 0, 0, 0, Fraction(3, 4), Fraction(1, 4))[0]


class TestExact:
    @settings(deadline=None, max_examples=300)
    @given(st.fractions(0, 1, max_denominator=10**40).filter(lambda x: 0 < x < 1))
    def test_trajectory_distance_is_f_of_x(self, x):
        # d_AB^2 reads only S^2 and T^2, so rational x gives it exactly, however near 1
        dab, f = trajectory_dab(x), f_of_x(x)
        assert type(dab) is type(f) is Fraction and dab == f

    @pytest.mark.parametrize("x, dab", [
        (Fraction(1, 2), Fraction(12, 11)), (Fraction(1, 4), 1), (Fraction(3, 7), Fraction(63, 58)),
        (Fraction(1), 3),  # S = T = 0: the initial configuration's skew pairs, not F(1) = 1
        (1 - Fraction(1, 10**40), f_of_x(1 - Fraction(1, 10**40))),  # S^2 + T^2 = 1e-40: F(x)
    ])
    def test_trajectory_values(self, x, dab):
        assert trajectory_dab(x) == dab

    @settings(deadline=None, max_examples=300)
    @given(st.fractions(0, max_denominator=10**6).filter(lambda T: T > 0))
    def test_four_cylinder_slice_is_two(self, T):
        # alpha = pi/2: sin^2 = 1, cos^2 = 0; S^2 = T^2/(1 + 2T^2) puts d_AB^2 at 2 for every T,
        # and d_AB^2 reads only S^2 and T^2 (S T, irrational in general, feeds the other two)
        t2 = T * T
        dab = _neighbor_dists_sq(t2 / (1 + 2 * t2), t2, 0, 0, 0, 1, 0)[0]
        assert type(dab) is Fraction and dab == 2
