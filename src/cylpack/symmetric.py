"""The mirror-symmetric six-line family and its closed distance forms.

Six tangent lines, ring_chart's ring at n = 3: an upper triple at latitude
phi, longitudes pi/6, 5pi/6, 3pi/2 advanced by kappa, a lower triple at -phi,
longitudes pi/2, 7pi/6, 11pi/6 retarded by kappa, every tangent tilted off
its meridian by the same angle delta.  The family is invariant under the
120-degree rotation about the z-axis and the half-turn about the x-axis, so
the 15 pairwise distances collapse to four orbit values: d_AB (within a
triple), d_AD and d_BD (between neighboring lines of opposite triples), and
d_AE (the remaining cross pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lines import (
    Configuration,
    DegenerateError,
    _cached,
    _charts_dsq,
    _count,
    _finite_fields,
    chart_lines,
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


# d3_orbit_check's two symmetries, and the image of each line A..F under Rz
_RZ = np.array([[-0.5, -SQRT3 / 2, 0.0], [SQRT3 / 2, -0.5, 0.0], [0.0, 0.0, 1.0]])
_RZ_PERM = (1, 2, 0, 4, 5, 3)
_RX = np.diag([1.0, -1.0, -1.0])


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
    def _c6(self) -> Configuration:
        return chart_lines(c6_chart(self))


@lru_cache(maxsize=8, typed=True)
def _ring_lons(n: int) -> tuple:
    """The 2n-line ring's longitudes m * 2pi / 4n for odd m: m = 1, 5, 9, ... above, 3, 7, ... below."""
    lons = [m * (2 * math.pi) / (4 * n) for m in range(1, 4 * _count("n", n, 2), 2)]
    return lons[::2], lons[1::2]


def ring_chart(n: int, phi: float, delta: float, kappa: float) -> tuple:
    """Per-line (latitude, longitude, tangent angle) of the 2n-line ring of neighbor angle pi/n,
    n >= 2, upper lines first: n at latitude phi advanced by kappa, n at -phi retarded by kappa.
    Each angle is -delta, as chart_lines' angle is positive toward increasing longitude."""
    upper, lower = _ring_lons(n)
    return tuple([(phi, lon + kappa, -delta) for lon in upper] + [(-phi, lon - kappa, -delta) for lon in lower])


def c6_chart(p: D3Params) -> tuple:
    """Per-line (latitude, longitude, tangent angle) triples, order A..F: the ring of n = 3."""
    return ring_chart(3, p.phi, p.delta, p.kappa)


def build_c6(p: D3Params) -> Configuration:
    """The six tangent lines (A, B, C, D, E, F) of the symmetric family,
    built once per D3Params instance."""
    return p._c6


def _images_match(table: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """(6, 6) bools: whether line i of a [base | dir] table, rotated by matrix, is line j: its base
    within 1e-10 in every component, and its dir too, up to sign, since a line is unoriented."""
    rows = table.reshape(1, 6, 2, 3)
    image = table.reshape(6, 1, 2, 3) @ matrix.T
    off = np.abs(image - rows).max(-1)
    flipped = np.abs(image[..., 1, :] + rows[..., 1, :]).max(-1)
    return (off[..., 0] <= 1e-10) & (np.minimum(off[..., 1], flipped) <= 1e-10)


def d3_orbit_check(c: Configuration) -> bool:
    """Whether a six-line configuration has the family's symmetry.

    Rotates the rows of the configuration's frame table by the two fixed
    matrices Rz(120 deg) = [[-1/2, -sqrt(3)/2, 0], [sqrt(3)/2, -1/2, 0],
    [0, 0, 1]] and Rx(pi) = diag(1, -1, -1), and checks, to 1e-10 in every
    component of base and of dir up to sign, that Rz maps the lines
    (A,B,C,D,E,F) to (B,C,A,E,F,D) and that Rx maps the line set onto itself.
    """
    if len(c) != 6:
        raise ValueError("orbit check needs exactly 6 lines")
    rz_ok = _images_match(c.table, _RZ)[range(6), _RZ_PERM].all()
    return bool(rz_ok and _images_match(c.table, _RX).any(axis=1).all())


@dataclass(frozen=True)
class AlgCoords:
    """Rational coordinates (S, T, U, Ubar) of the family.

    S = sin(phi), T = tan(delta), U = tan(kappa - pi/6),
    Ubar = -tan(kappa + pi/6).  s_var and t_var hold S and T themselves,
    not squared as CurveSample.s_var and t_var are; the closed forms read
    the products S^2, T^2 and S T.  U and Ubar derived from one kappa are
    Moebius-linked: -sqrt(3) U Ubar + U + Ubar + sqrt(3) = 0.
    """

    s_var: float
    t_var: float
    u_var: float
    ubar_var: float

    def __post_init__(self):
        s, t, u, ub = self.s_var, self.t_var, self.u_var, self.ubar_var
        if not (type(s) is type(t) is type(u) is type(ub) is float and math.isfinite(s + t + u + ub)):
            _finite_fields(self, "s_var", "t_var", "u_var", "ubar_var")
            s, u, ub = self.s_var, self.u_var, self.ubar_var
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
    S, T = a.s_var, a.t_var
    # sin^2 and cos^2 of the neighbor angle pi/3
    return _neighbor_dists_sq(S * S, T * T, S * T, a.u_var, a.ubar_var, 0.75, 0.25)


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


# each orbit's representative pair as its column in row-major i < j order, in DistanceTriplets order
_ORBIT_COLS = np.array([list(zip(*np.triu_indices(6, 1))).index(PAIR_ORBITS[o][0])
                        for o in ("ab", "ad", "bd", "ae")])


def _generic_rows(params):
    """triplets_generic of each D3Params as (len(params), 4) rows, with its bits, their charts
    measured in one _charts_dsq call; D3Params keeps every chart finite."""
    return _charts_dsq(np.array([c6_chart(p) for p in params]))[_ORBIT_COLS].T


def triplets_generic(p: D3Params) -> DistanceTriplets:
    """Squared orbit distances from the generic skew-line distance on the
    built configuration (one representative pair per orbit)."""
    return DistanceTriplets(*build_c6(p).dsq[_ORBIT_COLS].tolist())
