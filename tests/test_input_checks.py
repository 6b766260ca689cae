"""Input checks shared by several constructors and functions: finite
angle fields, and the neighbor angle's range (0, pi)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cylpack.symmetric import AlgCoords, D3Params, DistanceTriplets, alg_coords
from cylpack.unlocking import GeneralParams, alt_strategy_verdict, series_coeffs, unlock_verdict

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
LATITUDE = st.floats(-1.5, 1.5)
# kappa within (-1, 0.5) keeps tan(kappa -+ pi/6) finite for alg_coords
KAPPA = st.floats(-1.0, 0.5)
NEIGHBOR_ANGLE = st.floats(0.01, 3.13)


@st.composite
def valid_fields(draw):
    """A class with one valid set of its fields, as keyword arguments."""
    kind = draw(st.sampled_from(["D3Params", "GeneralParams", "AlgCoords"]))
    phi, delta, kappa = draw(LATITUDE), draw(LATITUDE), draw(KAPPA)
    if kind == "D3Params":
        return D3Params, {"phi": phi, "delta": delta, "kappa": kappa}
    if kind == "GeneralParams":
        alpha = draw(NEIGHBOR_ANGLE)
        return GeneralParams, {"alpha": alpha, "phi": phi, "delta": delta, "kappa": kappa}
    return AlgCoords, vars(alg_coords(D3Params(phi, delta, kappa)))


class TestFiniteFields:
    @settings(deadline=None)
    @given(valid_fields(), st.data(), NON_FINITE)
    def test_every_field_rejects_non_finite(self, case, data, bad):
        cls, fields = case
        name = data.draw(st.sampled_from(sorted(fields)))
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            cls(**{**fields, name: bad})

    @settings(deadline=None)
    @given(st.integers(-1, 1), st.integers(-10**6, 10**6), st.integers(-6, 6), st.integers(1, 3))
    def test_int_inputs_are_stored_as_float(self, phi, delta, kappa, alpha):
        a = alg_coords(D3Params(0.3, 0.2, -0.4))
        for obj in (
            D3Params(phi, delta, kappa),  # kappa lies in [-2pi, 2pi]
            GeneralParams(alpha, phi, delta, kappa),
            AlgCoords(phi, delta, a.U, a.Ubar),
        ):
            assert all(type(v) is float for v in vars(obj).values()), obj


TRIPLET_NAMES = ("dab_sq", "dad_sq", "dbd_sq", "dae_sq")


class TestDistanceTriplets:
    @settings(deadline=None)
    @given(st.lists(st.floats(0.0, 1e308), min_size=4, max_size=4), st.sampled_from(TRIPLET_NAMES),
           NON_FINITE | st.sampled_from([-1.0, -5e-324]))
    def test_every_field_rejects_non_finite_and_negative(self, values, name, bad):
        fields = dict(zip(TRIPLET_NAMES, values))
        with pytest.raises(ValueError, match=f"^{name} must be a finite nonnegative number$"):
            DistanceTriplets(**{**fields, name: bad})

    def test_fields_are_stored_as_float(self):
        for values in ((1, np.float64(2.0), 3, 4.0), (-0.0, 0.0, 1e308, 1e308)):  # the sum overflows
            t = DistanceTriplets(*values)
            assert [type(v) for v in vars(t).values()] == [float] * 4
            assert [float(v).hex() for v in values] == [v.hex() for v in vars(t).values()]


OUT_OF_RANGE = st.floats(max_value=0.0) | st.floats(min_value=math.pi)


class TestNeighborAngle:
    @pytest.mark.parametrize(
        "check",
        [
            lambda a: series_coeffs(a, 1.0, 1.0, 0.0, 0.0),
            unlock_verdict,
            alt_strategy_verdict,
        ],
        ids=["series_coeffs", "unlock_verdict", "alt_strategy_verdict"],
    )
    @settings(deadline=None)
    @given(OUT_OF_RANGE | st.just(math.nan))
    @example(0.0)
    @example(math.pi)
    @example(-1.0)
    @example(4.0)
    @example(math.nan)
    def test_functions_reject(self, check, alpha):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, pi\): "):
            check(alpha)

    @settings(deadline=None)
    @given(OUT_OF_RANGE.filter(math.isfinite))
    @example(0.0)
    @example(math.pi)
    @example(-1.0)
    @example(4.0)
    def test_general_params_rejects(self, alpha):
        # a non-finite alpha fails the finite-field check first (TestFiniteFields)
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, pi\): "):
            GeneralParams(alpha, 0.0, 0.0, 0.0)
