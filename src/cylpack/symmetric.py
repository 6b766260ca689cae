"""The 2n-line ring, its six-line family and three-line subfamily, and their closed distance forms.

One row rule (_ring_rows) lays out every ring: upper lines at latitude phi
advanced by kappa, lower lines at -phi retarded by kappa, every tangent
tilted off its meridian by the same angle delta.  ring_chart feeds it the
longitudes m pi/2n of odd m, and the six-line family A..F is its n = 3;
the three-line subfamily (A, B, D) at neighbor angle alpha, which
unlocking analyzes, feeds it alpha/2, 5alpha/2 above and 3alpha/2 below.
The six-line family is invariant under the 120-degree rotation about the
z-axis and the half-turn about the x-axis, so its 15 pairwise distances
collapse to four orbit values: d_AB (within a triple), d_AD and d_BD
(between neighboring lines of opposite triples), and d_AE (the rest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lines import (
    DegenerateError,
    FreeConfig,
    _cached,
    _charts_dsq,
    _count,
    _finite_fields,
    _pairs,
)

SQRT3 = math.sqrt(3.0)

# pair index orbits under the symmetry group, lines ordered A..F = 0..5
PAIR_ORBITS = {
    "ab": ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)),
    "ad": ((0, 3), (1, 4), (2, 5)),
    "bd": ((1, 3), (2, 4), (0, 5)),
    "ae": ((0, 4), (1, 5), (2, 3)),
}

# below this denominator size a closed form is treated as degenerate
_DEGEN_TOL = 1e-12
# the cross-pair denominator 4(1 - nu^2) subtracts two O(1) quantities,
# so it carries absolute rounding error near 4e-16 no matter how small it
# is; below this size the closed form has lost more than five digits and
# the generic evaluation of the built pair is the more accurate one
_NEAR_PARALLEL_TOL = 1e-4


def _check_tilt_and_twist(p) -> None:
    """The family's range checks on p.phi, in (-pi/2, pi/2), and p.kappa, in [-2pi, 2pi]."""
    if abs(p.phi) >= math.pi / 2:
        raise ValueError(f"phi must lie in (-pi/2, pi/2): {p.phi!r}")
    if abs(p.kappa) > 2 * math.pi:
        raise ValueError(f"kappa must lie in [-2pi, 2pi]: {p.kappa!r}")


@dataclass(frozen=True)
class D3Params:
    """Angles (phi, delta, kappa) of the symmetric family.

    phi in (-pi/2, pi/2) tilts the two latitude circles apart, delta
    swings every tangent off its meridian (positive delta turns them
    toward decreasing longitude), kappa in [-2pi, 2pi] counter-rotates the
    triples; past that the chart's longitude offsets would round away.
    Each instance keeps the configuration build_c6 makes of it.
    """

    phi: float
    delta: float
    kappa: float

    def __post_init__(self):
        phi, delta, kappa = self.phi, self.delta, self.kappa
        if not (type(phi) is type(delta) is type(kappa) is float and math.isfinite(phi + delta + kappa)):
            _finite_fields(self, "phi", "delta", "kappa")
        _check_tilt_and_twist(self)

    # per instance, not per value: -0.0 and 0.0 compare equal but build different bits
    @_cached
    def _c6(self) -> FreeConfig:
        return FreeConfig(c6_chart(self))


@lru_cache(maxsize=8, typed=True)
def _ring_lons(n: int) -> tuple:
    """The 2n-line ring's longitudes m * 2pi / 4n for odd m: m = 1, 5, 9, ... above, 3, 7, ... below."""
    lons = [m * (2 * math.pi) / (4 * n) for m in range(1, 4 * _count("n", n, 2), 2)]
    return lons[::2], lons[1::2]


def _ring_rows(upper, lower, phi: float, delta: float, kappa: float) -> tuple:
    """Per-line (latitude, longitude, tangent angle) of a ring, upper lines first: those at the
    upper longitudes sit at latitude phi advanced by kappa, those at the lower ones at -phi
    retarded by kappa.  Each angle is -delta, as FreeConfig's angle is positive toward
    increasing longitude."""
    return tuple([(phi, lon + kappa, -delta) for lon in upper] + [(-phi, lon - kappa, -delta) for lon in lower])


def ring_chart(n: int, phi: float, delta: float, kappa: float) -> tuple:
    """The rows of the 2n-line ring of neighbor angle pi/n, n >= 2: n upper lines, then n lower."""
    upper, lower = _ring_lons(n)
    return _ring_rows(upper, lower, phi, delta, kappa)


def c6_chart(p: D3Params) -> tuple:
    """Per-line (latitude, longitude, tangent angle) triples, order A..F: the ring of n = 3."""
    return ring_chart(3, p.phi, p.delta, p.kappa)


def build_c6(p: D3Params) -> FreeConfig:
    """The six tangent lines (A, B, C, D, E, F) of the symmetric family,
    built once per D3Params instance."""
    return p._c6


def _neighbor_angle(alpha) -> float:
    """alpha as a float, checked to lie in (0, pi)."""
    alpha = float(alpha)
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha must lie in (0, pi): {alpha!r}")
    return alpha


@dataclass(frozen=True)
class GeneralParams:
    """Angles of the three-line subfamily at neighbor angle alpha.

    alpha in (0, pi); phi, delta, kappa as in the six-line family (which
    is alpha = pi/3), kappa in [-2pi, 2pi] as there.
    """

    alpha: float
    phi: float
    delta: float
    kappa: float

    def __post_init__(self):
        _finite_fields(self, "alpha", "phi", "delta", "kappa")
        _neighbor_angle(self.alpha)
        _check_tilt_and_twist(self)


def build_c3(g: GeneralParams) -> FreeConfig:
    """The lines (A, B, D) of the ring's rows: upper pair 2 alpha apart, lower line between."""
    a = g.alpha
    return FreeConfig(_ring_rows((a / 2, 5 * a / 2), (3 * a / 2,), g.phi, g.delta, g.kappa))


def _counter_pair(alpha: float, phi: float, delta: float) -> FreeConfig:
    """The pair (A, D) of build_c3 at kappa = 0 with D tilted the other way, by +delta: the ring's
    rows of the alternate strategy, which counter-tilts the lower ring."""
    return FreeConfig(_ring_rows((alpha / 2,), (), phi, delta, 0.0)
                      + _ring_rows((), (3 * alpha / 2,), phi, -delta, 0.0))


@dataclass(frozen=True)
class AlgCoords:
    """Rational coordinates (S, T, U, Ubar) of the family.

    S = sin(phi), T = tan(delta), U = tan(kappa - pi/6),
    Ubar = -tan(kappa + pi/6); the closed forms read the products S^2,
    T^2 and S T.  U and Ubar derived from one kappa are Moebius-linked:
    -sqrt(3) U Ubar + U + Ubar + sqrt(3) = 0.
    """

    S: float
    T: float
    U: float
    Ubar: float

    def __post_init__(self):
        s, t, u, ub = self.S, self.T, self.U, self.Ubar
        if not (type(s) is type(t) is type(u) is type(ub) is float and math.isfinite(s + t + u + ub)):
            _finite_fields(self, "S", "T", "U", "Ubar")
            s, u, ub = self.S, self.U, self.Ubar
        if abs(s) > 1.0:
            raise ValueError(f"S must lie in [-1, 1]: {s!r}")
        residual = -SQRT3 * u * ub + u + ub + SQRT3
        scale = 1.0 + abs(u) + abs(ub) + abs(u * ub)
        if abs(residual) > 1e-9 * scale:
            raise ValueError(
                f"U and Ubar do not come from a common kappa, residual {residual!r}"
            )


def alg_coords(p: D3Params) -> AlgCoords:
    """Coordinates (S, T, U, Ubar) of the family at given angles.

    Raises DegenerateError where a tangent hits a pole of its defining
    tangent function (delta = +-pi/2, kappa - pi/6 or kappa + pi/6 an odd
    multiple of pi/2).
    """
    return AlgCoords(*_alg_map(p.phi, p.delta, p.kappa, math.pi / 6, "pi/6"))


def _alg_map(phi: float, delta: float, kappa: float, half: float, half_name: str) -> tuple:
    """(S, T, U, Ubar) = (sin phi, tan delta, tan(kappa - half), -tan(kappa + half)) for
    half = alpha/2 named half_name; DegenerateError where a tangent's cosine is below 1e-15."""
    lo, hi = kappa - half, kappa + half
    for arg, label in ((delta, "delta"), (lo, "kappa - {}"), (hi, "kappa + {}")):
        if abs(math.cos(arg)) < 1e-15:
            raise DegenerateError(f"tan({label.format(half_name)}) undefined")
    return math.sin(phi), math.tan(delta), math.tan(lo), -math.tan(hi)


def _neighbor_dists_sq(s2, t2, st, U, Ub, sin_sq, cos_sq) -> tuple:
    """(d_AB^2, d_AD^2, d_BD^2) of the rational coordinate forms, read from the products
    s2 = S^2, t2 = T^2 and st = S T, at a neighbor angle alpha given by sin_sq = sin^2(alpha)
    and cos_sq = cos^2(alpha); U and Ub are tan(kappa - alpha/2) and -tan(kappa + alpha/2).
    Exact on rationals (int or Fraction).

    d_AB^2 degenerates to 0/0 at S = T = 0, where its limit along the
    delta direction, 4 sin^2(alpha), is returned.
    """
    r2 = s2 + t2
    if r2 == 0:
        dab = 4 * sin_sq
    else:
        num, den = 4 * sin_sq * (1 - s2) ** 2, r2 * (1 - sin_sq * s2 + cos_sq * t2)
        # past t2 ~ 1e154 den overflows: there, the same form divided through by t2
        dab = num / (r2 * ((1 - sin_sq * s2) / t2 + cos_sq)) if den == math.inf else num * t2 / den
    dad = 4 * (st + U) ** 2 / (1 - s2 + t2 + U * U + 2 * st * U)
    dbd = 4 * (-st + Ub) ** 2 / (1 - s2 + t2 + Ub * Ub - 2 * st * Ub)
    return (dab, dad, dbd)


def triplets_alg(a: AlgCoords) -> tuple:
    """(d_AB^2, d_AD^2, d_BD^2) from the rational coordinate forms.

    d_AB^2 degenerates to 0/0 at S = T = 0, where its limit along the
    delta direction, the value 3 of the initial configuration's skew
    pairs, is returned.
    """
    S, T = a.S, a.T
    # sin^2 and cos^2 of the neighbor angle pi/3
    return _neighbor_dists_sq(S * S, T * T, S * T, a.U, a.Ubar, 0.75, 0.25)


def dists_general(g: GeneralParams) -> tuple:
    """(d_AB^2, d_AD^2, d_BD^2) of the three-line subfamily, closed form.

    In S = sin(phi), T = tan(delta), U = tan(kappa - alpha/2),
    Ubar = -tan(kappa + alpha/2); at alpha = pi/3 these reduce exactly to
    the six-line family's forms.  d_AB^2 degenerates to 0/0 at
    S = T = 0; the delta-direction limit 4 sin^2(alpha) is returned
    there (limits along other curves may differ, see unlocking.four_cyl_point).
    """
    S, T, U, Ub = _alg_map(g.phi, g.delta, g.kappa, g.alpha / 2, "alpha/2")
    sa, ca = math.sin(g.alpha), math.cos(g.alpha)
    return _neighbor_dists_sq(S * S, T * T, S * T, U, Ub, sa * sa, ca * ca)


@dataclass(frozen=True)
class DistanceTriplets:
    """Squared distances of the four pair orbits of the family."""

    dab_sq: float
    dad_sq: float
    dbd_sq: float
    dae_sq: float

    def __post_init__(self):
        ab, ad, bd, ae = self.dab_sq, self.dad_sq, self.dbd_sq, self.dae_sq
        if type(ab) is type(ad) is type(bd) is type(ae) is float and (
            min(ab, ad, bd, ae) >= 0.0 and math.isfinite(ab + ad + bd + ae)
        ):
            return
        for name in ("dab_sq", "dad_sq", "dbd_sq", "dae_sq"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be a finite nonnegative number")
            object.__setattr__(self, name, v)


def triplets_trig(p: D3Params) -> DistanceTriplets:
    """Squared orbit distances from the closed trigonometric forms.

    Where a form degenerates to 0/0 (a parallel or intersecting pair,
    e.g. the initial configuration's d_AB) the generic distance on the
    built pair, which is the limit value, is substituted.
    """
    def closed(num: float, den: float, tol: float, orbit: str) -> float:
        if abs(den) < tol:
            return getattr(triplets_generic(p), orbit)
        return num / den

    sd, cd = math.sin(p.delta), math.cos(p.delta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    c2p = math.cos(2 * p.phi)
    s2d, c2d = math.sin(2 * p.delta), math.cos(2 * p.delta)

    den_ab = (6 * cd * cd * c2p + 3 * c2d + 7) * (cd * cd * sp * sp + sd * sd)
    dab = closed(48 * sd * sd * cd * cd * cp ** 4, den_ab, _DEGEN_TOL, "dab_sq")

    def cross_pair(arg: float, orbit: str) -> float:
        sa, ca = math.sin(arg), math.cos(arg)
        mu = s2d * (2 * cp * cp + (c2p - 3) * sa) + 4 * c2d * sp * ca
        nu = -sa * (sd * sd - cd * cd * sp * sp) + s2d * sp * ca - cd * cd * cp * cp
        return closed(mu * mu, 4 * (1 - nu * nu), _NEAR_PARALLEL_TOL, orbit)

    dad = cross_pair(2 * p.kappa + math.pi / 6, "dad_sq")
    dbd = cross_pair(2 * p.kappa + 5 * math.pi / 6, "dbd_sq")

    sk, ck = math.sin(p.kappa), math.cos(p.kappa)
    mu_ae = 2 * (cd * ck - sd * sp * sk)
    nu_ae = cd * cd * cp * cp + (sd * sk - cd * sp * ck) ** 2
    dae = closed(mu_ae * mu_ae, nu_ae, _DEGEN_TOL, "dae_sq")
    return DistanceTriplets(dab, dad, dbd, dae)


# each orbit's representative pair as its column in _pairs' order, in DistanceTriplets order
_ORBIT_COLS = np.array([_pairs(6).index(PAIR_ORBITS[o][0]) for o in ("ab", "ad", "bd", "ae")])


def _generic_rows(params):
    """triplets_generic of each D3Params as (len(params), 4) rows, with its bits, their charts
    measured in one _charts_dsq call; D3Params keeps every chart finite."""
    return _charts_dsq(np.array([c6_chart(p) for p in params]))[_ORBIT_COLS].T


def triplets_generic(p: D3Params) -> DistanceTriplets:
    """Squared orbit distances from the generic skew-line distance on the
    built configuration (one representative pair per orbit)."""
    return DistanceTriplets(*build_c6(p).dsq[_ORBIT_COLS].tolist())
