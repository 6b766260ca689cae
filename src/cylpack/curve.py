"""The equal-distance trajectory of the six-line family.

Requiring the three neighbor distance squares d_AB^2 = d_AD^2 = d_BD^2
of the symmetric family cuts out a curve in (phi, delta, kappa) space.
In the coordinates S = sin(phi), T = tan(delta), U = tan(kappa - pi/6)
the two differences reduce to polynomials K1 and K2 in (S^2, T^2, S T),
the arguments of k1, k2 and u_from_st: k2 is exact on rationals, and k1
and u_from_st wait for an exact sqrt(3).  Eliminating U leaves one
planar constraint psi(s, t) = 0 in s = S^2, t = T^2, and that constraint
factors so the curve is rational in the single parameter
x = cos^2(phi) cos^2(delta).  The common squared distance along the
curve is F(x) = 12x/(1 + 7x + 4x^2), maximized at x = 1/2 with value
12/11, which yields the cylinder radius (3 + sqrt(33))/8.  _angles_of_x
states the map x -> (t, s, tan kappa) once, read in floats by gamma_point
and in Fractions by pure_geodetic_check.  build_curve_point builds a
point once per x, so the record's readers share one build of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .lines import DegenerateError, min_pairwise_distance, radius_from_distance
from .symmetric import SQRT3, AlgCoords, D3Params, build_c6, triplets_alg, triplets_generic


def k1(st, U):
    """First equal-distance polynomial in st = S T; vanishes on the trajectory.
    Float-only: it needs sqrt(3)."""
    return -SQRT3 * U * U + 2 * U * (1 - SQRT3 * st) + 2 * st + SQRT3


def k2(s2, t2, st, U):
    """Second equal-distance polynomial in s2 = S^2, t2 = T^2, st = S T; vanishes on the
    trajectory.  Exact on rationals."""
    return (-4 * s2 + 3 * s2 * s2 - t2) * (U + st) ** 2 - 3 * t2 * (s2 - 1) ** 3


def u_from_st(s2, t2, st):
    """The counter-rotation coordinate U forced by the trajectory at s2 = S^2, t2 = T^2,
    st = S T.  Float-only: it needs sqrt(3).

    Solves the elimination of U from k1 = k2 = 0; valid on the trajectory
    away from its endpoint, where the denominator 4S^2 - 3S^4 + T^2
    vanishes and the constraint surface is singular.
    """
    den = 4 * s2 - 3 * s2 * s2 + t2
    if abs(den) < 1e-15:
        raise DegenerateError("trajectory coordinate U undefined at S = T = 0")
    return (-3 * SQRT3 * t2 * (s2 - 1) ** 3 / den - SQRT3 - 2 * st - SQRT3 * s2 * t2) / 2


def _psi_terms(s, t, v=1) -> list:
    """Terms of v^3 psi(s, t/v), psi homogenized to degree 3 in t."""
    return [
        4 * s * v ** 3,
        -8 * t * v * v,
        -3 * s * s * v ** 3,
        29 * s * t * v * v,
        -4 * t * t * v,
        -22 * s * s * t * v * v,
        14 * s * t * t * v,
        4 * s ** 3 * t * v * v,
        -7 * s * s * t * t * v,
        s * t ** 3,
    ]


def psi(s, t):
    """Planar trajectory constraint in s = sin^2(phi), t = tan^2(delta).

    Exact for rational inputs (int or Fraction); with a float input the
    terms are floats, summed with fsum.
    """
    terms = _psi_terms(s, t)
    if isinstance(s, float) or isinstance(t, float):
        return math.fsum(terms)
    return sum(terms)


def _check_x(x) -> None:
    if not 0 < x <= 1:
        raise ValueError(f"trajectory parameter must lie in (0, 1]: {x!r}")


def t_of_x(x):
    """Solve psi = 0 for t at given x = (1 - s)/(t + 1):
    t = (1 + 3x)(1 - x) / (x (1 + 7x + 4x^2)).  Exact for Fractions."""
    _check_x(x)
    return (1 + 3 * x) * (1 - x) / (x * (1 + 7 * x + 4 * x * x))


def f_of_x(x):
    """Common squared neighbor distance along the trajectory:
    F(x) = 12x / (1 + 7x + 4x^2).  Exact for Fractions."""
    _check_x(x)
    return 12 * x / (1 + 7 * x + 4 * x * x)


def _angles_of_x(x) -> tuple:
    """(t, s, rise, run_sq) at x: t = tan^2(delta), s = sin^2(phi) and tan(kappa) = rise/sqrt(run_sq), where
    rise = x - 1 keeps kappa +0.0 at x = 1.  Exact for Fractions."""
    return t_of_x(x), 4 * ((1 - x) * x * (1 + x)) / (1 + 7 * x + 4 * x * x), x - 1, (1 + x) * (1 + 3 * x)


@dataclass(frozen=True)
class CurveSample:
    """One point of the trajectory.

    x is the curve parameter cos^2(phi) cos^2(delta); params the angles of
    the sampled configuration; coords their rational coordinates (S, T, U,
    Ubar); f_value the common squared neighbor distance F(x).
    """

    x: float
    params: D3Params
    coords: AlgCoords
    f_value: float


def _check_sample(sample: CurveSample) -> None:
    S, T = sample.coords.S, sample.coords.T
    s, t = S * S, T * T
    # t grows like 1/x, so the terms grow like 1/x^3 as x -> 0: bound the
    # residual relative to their size, and past t = 1 test psi / t^3, whose
    # terms cannot overflow; the bound is at least 1e-9 v^3, so the sum of |terms| is
    # needed only past that
    th, v = (1.0, 1.0 / t) if t > 1.0 else (t, 1.0)
    terms = _psi_terms(s, th, v)
    residual = math.fsum(terms)
    off = abs(residual)
    if off > 1e-9 * v ** 3 and off > 1e-9 * max(v ** 3, math.fsum(map(abs, terms))):
        raise ArithmeticError(f"trajectory sample off the constraint: psi = {residual!r}")
    # both bounds relative, since x and F(x) ~ 12x shrink together, and failed by a NaN
    if not abs(sample.x - (1 - s) / (t + 1)) <= 1e-10 * sample.x:
        raise ArithmeticError("trajectory sample breaks the x relation")
    if sample.x < 1.0:
        dists = triplets_alg(sample.coords)
        f = sample.f_value
        tol = 1e-9 * f
        dab, dad, dbd = dists
        if not (abs(dab - f) <= tol and abs(dad - f) <= tol and abs(dbd - f) <= tol):
            raise ArithmeticError(f"trajectory sample distances off F(x): {dists!r} vs {f!r}")


def gamma_point(x) -> CurveSample:
    """Sample the trajectory at parameter x in (0, 1].

    Branch: S >= 0 and T >= 0 (phi and delta nonnegative), kappa in
    (-pi/2, 0].  x = 1 is the initial configuration (0, 0, 0) exactly;
    there the within-triple pairs are parallel (d_AB^2 = 3) while the
    neighbor value F(1) = 1 is attained by the cross pairs only, so the
    three-way distance equality is checked for x < 1.  t grows like 1/x
    and overflows a float below x = 1/sys.float_info.max, so the range
    that can be sampled is [5.57e-309, 1]; smaller x raise ValueError.
    """
    xf = float(x)
    t, s, rise, run_sq = _angles_of_x(xf)
    if t == math.inf:
        raise ValueError(
            f"trajectory parameter below the range [5.57e-309, 1] that can be sampled: {x!r}"
        )
    S, T = math.sqrt(s), math.sqrt(t)
    kappa = math.atan(rise / math.sqrt(run_sq))
    coords = AlgCoords(S, T, math.tan(kappa - math.pi / 6), -math.tan(kappa + math.pi / 6))
    sample = CurveSample(xf, D3Params(math.asin(S), math.atan(T), kappa), coords, float(f_of_x(xf)))
    _check_sample(sample)
    return sample


@lru_cache(maxsize=8)
def build_curve_point(x) -> tuple:
    """gamma_point(x) and the configuration build_c6 makes of its angles, built once per x and
    shared: the sample is frozen and the configuration's arrays read-only, and a refusal is not kept.

    Below about x = 2e-13 delta = atan(T) rounds toward pi/2 and the built
    lines leave the trajectory although the sample's own checks, on S, T
    and U, pass; where the built min distance^2 is not F(x) within 1e-9
    relative, ValueError.
    """
    sample = gamma_point(x)
    config = build_c6(sample.params)
    d = min_pairwise_distance(config)
    dsq = d * d
    if not math.isclose(dsq, sample.f_value, rel_tol=1e-9):
        raise ValueError(
            f"trajectory parameter {x!r} is too small to build: the built configuration's "
            f"min distance^2 / F(x) is {dsq / sample.f_value:.10g}, not 1 within 1e-9"
        )
    return sample, config


# the record x = 1/2's rational values as (numerator, denominator), each stated once: s = sin^2(phi),
# t = tan^2(delta), f = F(1/2) and dae_sq the ae orbit's d^2; the exact checks read them as Fractions
_RECORD_RATIONAL = {"x": (1, 2), "s": (3, 11), "t": (5, 11), "sin_sq_delta": (5, 16), "sin_sq_kappa": (1, 16),
                    "f": (12, 11), "dae_sq": (540, 143)}
# the record's closed forms as floats, its rational values p / q and the irrational ones built from them
_RECORD_CLOSED = {key: p / q for key, (p, q) in _RECORD_RATIONAL.items()}
_RECORD_CLOSED.update(phi=math.asin(math.sqrt(_RECORD_CLOSED["s"])), tan_kappa=-1.0 / math.sqrt(15.0),
                      d=math.sqrt(_RECORD_CLOSED["f"]), r=(3.0 + math.sqrt(33.0)) / 8.0)


def record() -> dict:
    """The trajectory maximum x = _RECORD_RATIONAL's: the values computed through gamma_point and the
    built configuration under "computed", their closed forms from _RECORD_CLOSED under the same keys
    in "closed_form".  A computed value more than 1e-12 from its closed form raises ArithmeticError."""
    sample, c = build_curve_point(_RECORD_CLOSED["x"])
    p, a = sample.params, sample.coords
    d = min_pairwise_distance(c)
    computed = {
        "x": sample.x,
        "s": a.S * a.S,
        "t": a.T * a.T,
        "phi": p.phi,
        "tan_kappa": math.tan(p.kappa),
        "f": sample.f_value,
        "d": d,
        "dae_sq": triplets_generic(p).dae_sq,  # pair (0, 4) of c, which p keeps
        "r": radius_from_distance(d),
    }
    for key, value in computed.items():
        if abs(value - _RECORD_CLOSED[key]) > 1e-12:
            raise ArithmeticError(f"record value {key} drifted: {value!r} vs {_RECORD_CLOSED[key]!r}")
    return {"computed": computed, "closed_form": {key: _RECORD_CLOSED[key] for key in computed}}


def pure_geodetic_check(x) -> dict:
    """Exact-rational squared sines of the trajectory angles at rational x, read from _angles_of_x: sin^2(phi),
    sin^2(delta) = t/(1+t) and sin^2(kappa) = tan^2/(1 + tan^2) are rational whenever x is, the sense in which
    trajectory configurations at rational x are exactly constructible.  Floats are rejected: pass a Fraction
    (or int, or a string like '1/2')."""
    from fractions import Fraction  # imported on use, to keep it out of the package import

    if isinstance(x, float):
        raise TypeError("pass an exact rational, not a float")
    x = Fraction(x)
    t, s, rise, run_sq = _angles_of_x(x)
    return {
        "x": x,
        "sin_sq_phi": s,
        "sin_sq_delta": t / (1 + t),
        "sin_sq_kappa": rise * rise / (rise * rise + run_sq),
        "f": f_of_x(x),
    }
