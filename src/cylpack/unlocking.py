"""Unlocking analysis for 2n equal cylinders around the unit ball.

2n cylinders with neighbor angle alpha = pi/n start as vertical tangent
lines spaced alpha apart, neighbors at distance 2 sin(alpha/2).  By the
ring's symmetry it is enough to follow one three-line subfamily: two
lines A, B of the upper ring (2 alpha apart) and the lower line D
between them, moved along curves
(phi, delta, kappa) = (phi1 t, delta1 t, kappa1 t + kappa2 t^2).
The family unlocks, meaning all pairwise distances can grow to first
useful order, exactly when alpha < pi/2 (more than four cylinders); the
four-cylinder case alpha = pi/2 instead slides along a trajectory that
keeps every distance constant at sqrt(2), which realizes the radius
1 + sqrt(2) but never exceeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lines import Configuration, _finite_fields, chart_lines
from .symmetric import _alg_map, _check_tilt_and_twist, _neighbor_dists_sq

_MARGINAL_TOL = 1e-12
_T_MAX = "1e5"  # four_cyl_point's largest T, as printed


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


def build_c3(g: GeneralParams) -> Configuration:
    """The lines (A, B, D): upper pair 2 alpha apart, lower line between.

    Longitudes alpha/2 + kappa, 5 alpha/2 + kappa at latitude phi and
    3 alpha/2 - kappa at latitude -phi, all tangents tilted by the family
    delta (toward decreasing longitude, as in the six-line build).
    """
    a, k, d = g.alpha, g.kappa, g.delta
    return chart_lines(((g.phi, a / 2 + k, -d), (g.phi, 5 * a / 2 + k, -d), (-g.phi, 3 * a / 2 - k, -d)))


def dists_general(g: GeneralParams) -> tuple:
    """(d_AB^2, d_AD^2, d_BD^2) of the three-line subfamily, closed form.

    In S = sin(phi), T = tan(delta), U = tan(kappa - alpha/2),
    Ubar = -tan(kappa + alpha/2); at alpha = pi/3 these reduce exactly to
    the six-line family's forms.  d_AB^2 degenerates to 0/0 at
    S = T = 0; the delta-direction limit 4 sin^2(alpha) is returned
    there (limits along other curves may differ, see four_cyl_point).
    """
    S, T, U, Ub = _alg_map(g.phi, g.delta, g.kappa, g.alpha / 2, "alpha/2")
    sa, ca = math.sin(g.alpha), math.cos(g.alpha)
    return _neighbor_dists_sq(S * S, T * T, S * T, U, Ub, sa * sa, ca * ca)


def series_coeffs(alpha: float, phi1: float, delta1: float, kappa1: float, kappa2: float) -> dict:
    """Closed Taylor coefficients of the three squared distances along
    (phi, delta, kappa) = (phi1 t, delta1 t, kappa1 t + kappa2 t^2).

    Orders 0 and 1 are returned always (the d_AB expansion starts even,
    so only its order 0 appears); the order-2 coefficients of d_AD and
    d_BD are closed only when kappa1 = 0 and are included exactly then.
    The direction must not be degenerate: (phi1, delta1) != (0, 0).
    """
    alpha = _neighbor_angle(alpha)
    if phi1 == 0.0 and delta1 == 0.0:
        raise ValueError("degenerate direction: phi1 = delta1 = 0")
    sa, ca = math.sin(alpha), math.cos(alpha)
    sh = math.sin(alpha / 2)
    d2, p2 = delta1 * delta1, phi1 * phi1
    out = {
        "dab_sq_0": 4.0 * d2 * sa * sa / (d2 + p2),
        "dad_sq_0": 4.0 * sh * sh,
        "dbd_sq_0": 4.0 * sh * sh,
        "dad_sq_1": -4.0 * kappa1 * sa,
        "dbd_sq_1": 4.0 * kappa1 * sa,
    }
    if kappa1 == 0.0:
        mixed = 2.0 * delta1 * phi1 * (1.0 + ca) + 4.0 * kappa2
        odd = sa * (d2 - p2)
        out["dad_sq_2"] = -sa * (mixed + odd)
        out["dbd_sq_2"] = sa * (mixed - odd)
    return out


def taylor_coeffs_numeric(
    alpha: float, phi1: float, delta1: float, kappa1: float, kappa2: float
) -> dict:
    """Taylor coefficients of the same curves extracted by finite
    differences: central stencils at steps 1e-3 and 5e-4 combined by one
    Richardson step.  Returns the same keys as series_coeffs.
    """
    if phi1 == 0.0 and delta1 == 0.0:
        raise ValueError("degenerate direction: phi1 = delta1 = 0")

    def dists(t: float) -> tuple:
        return dists_general(
            GeneralParams(alpha, phi1 * t, delta1 * t, kappa1 * t + kappa2 * t * t)
        )

    h1 = 1e-3
    h2 = h1 / 2.0
    fp1, fm1 = dists(h1), dists(-h1)
    fp2, fm2 = dists(h2), dists(-h2)
    f0 = dists(0.0)

    def rich(v1: float, v2: float) -> float:
        return (4.0 * v2 - v1) / 3.0

    def order0(i: int) -> float:
        return rich(0.5 * (fp1[i] + fm1[i]), 0.5 * (fp2[i] + fm2[i]))

    def order1(i: int) -> float:
        return rich((fp1[i] - fm1[i]) / (2 * h1), (fp2[i] - fm2[i]) / (2 * h2))

    def order2(i: int) -> float:
        return 0.5 * rich(
            (fp1[i] - 2 * f0[i] + fm1[i]) / (h1 * h1),
            (fp2[i] - 2 * f0[i] + fm2[i]) / (h2 * h2),
        )

    out = {
        "dab_sq_0": order0(0),
        "dad_sq_0": order0(1),
        "dbd_sq_0": order0(2),
        "dad_sq_1": order1(1),
        "dbd_sq_1": order1(2),
    }
    if kappa1 == 0.0:
        out["dad_sq_2"] = order2(1)
        out["dbd_sq_2"] = order2(2)
    return out


def unlock_verdict(alpha: float) -> dict:
    """Whether 2n cylinders at neighbor angle alpha can start growing: {"alpha", "verdict",
    "witness"}, the verdict "unlockable", "marginal" or "blocked".

    Growth requires kappa1 = 0 (the order-1 cross terms have opposite
    signs), then a tilt ratio delta1/phi1 large enough for the
    within-ring distance yet small enough for the order-2 cross terms;
    the window (sin(alpha/2)/sqrt(sin^2 alpha - sin^2(alpha/2)), 1) is
    nonempty exactly when alpha < pi/2.

    For an unlockable angle, witness holds a concrete curve direction
    with every distance growing: kappa1 = 0, phi1 = 1, delta1 inside
    (delta_lo, 1) so the within-ring distance grows at order 0 while
    both order-2 cross coefficients stay positive, kappa2 at the center
    of its admissible window, plus a finite-t numeric confirmation;
    otherwise witness is None.
    """
    alpha = _neighbor_angle(alpha)
    if abs(alpha - math.pi / 2) <= _MARGINAL_TOL:
        return {"alpha": alpha, "verdict": "marginal", "witness": None}
    if alpha > math.pi / 2:
        return {"alpha": alpha, "verdict": "blocked", "witness": None}

    sa, ca = math.sin(alpha), math.cos(alpha)
    sh = math.sin(alpha / 2)
    baseline = 4.0 * sh * sh
    delta_lo = sh / math.sqrt(sa * sa - sh * sh)
    delta1 = 0.5 * (delta_lo + 1.0)
    phi1 = 1.0
    # kappa2 window keeping both order-2 cross coefficients positive
    mixed = 2.0 * delta1 * phi1 * (1.0 + ca)
    odd = sa * (delta1 * delta1 - phi1 * phi1)
    window = (0.25 * (-mixed + odd), 0.25 * (-mixed - odd))
    kappa2 = 0.5 * (window[0] + window[1])

    t = 1e-2
    probe = dists_general(GeneralParams(alpha, phi1 * t, delta1 * t, kappa2 * t * t))
    witness = {
        "phi1": phi1,
        "delta1": delta1,
        "delta1_window": (delta_lo, 1.0),
        "kappa1": 0.0,
        "kappa2": kappa2,
        "kappa2_window": window,
        "baseline_dist_sq": baseline,
        "probe_t": t,
        "probe_dists_sq": probe,
        "probe_ok": all(v > baseline for v in probe),
    }
    return {"alpha": alpha, "verdict": "unlockable", "witness": witness}


def alt_strategy_verdict(alpha: float) -> dict:
    """The counter-tilted variant (lower tangents swung the other way)
    never unlocks, for any neighbor angle.

    Its A-D distance at order 0 is
    4 sin^2(alpha/2) phi1^2 / (phi1^2 + delta1^2) <= 4 sin^2(alpha/2),
    strict unless delta1 = 0; but delta1 = 0 zeroes the order-0 growth
    of the within-ring distance, which forces phi1 = 0 and the curve
    dies.  The report carries that forcing chain and a spot evaluation
    of the order-0 coefficient at phi1 = delta1 = 1.
    """
    alpha = _neighbor_angle(alpha)
    sh = math.sin(alpha / 2)
    baseline = 4.0 * sh * sh
    return {
        "verdict": "blocked",
        "forcing_chain": (
            "order 0 of d_AD^2 is 4 sin^2(alpha/2) phi1^2/(phi1^2 + delta1^2),"
            " below the start unless delta1 = 0",
            "with delta1 = 0 the within-ring order 0 is 0 unless phi1 = 0",
        ),
        "baseline_dist_sq": baseline,
        "spot_direction": (1.0, 1.0),
        "spot_dad_sq_0": 0.5 * baseline,
    }


@dataclass(frozen=True)
class FourCylSample:
    """One point of the four-cylinder constant-distance trajectory.

    t_var is T = tan(delta) and s_var is S^2 = sin^2(phi), squared unlike
    t_var; u_var is the counter-rotation root U.  dists_sq holds d_AB^2,
    d_AD^2, d_BD^2; parallel_pair names the adjacent pair that stays
    parallel ("AD" or "BD") and parallel_residual is 1 - |cos| of its angle.
    """

    t_var: float
    s_var: float
    u_var: float
    params: GeneralParams
    dists_sq: tuple
    parallel_pair: str
    parallel_residual: float


def four_cyl_point(T: float, mirror: bool = False) -> FourCylSample:
    """Sample the alpha = pi/2 trajectory at T = tan(delta) in [0, 1e5].

    The trajectory is S^2 = T^2/(1 + 2 T^2) with the counter-rotation
    root U = -ST - sqrt(S^2 T^2 + 1); the mirror flag picks the other
    root of U^2 + 2STU - 1 = 0, taken as 1/(ST + sqrt(S^2 T^2 + 1)) since
    the roots multiply to -1, so that it does not cancel as ST grows.
    Along it all three squared distances are identically 2.  At T = 0
    the A-B pair is antipodal-parallel with pointwise distance 2 while
    the skew distance tends to sqrt(2) (the closest points run off to
    infinity), and the sample reports the trajectory limit 2 for d_AB^2.
    One adjacent pair stays exactly parallel along the trajectory: B-D on
    the default branch, A-D on the mirror branch.

    The angles pass through atan(T), so the distances drift from 2 as T grows: over [0, 1e5]
    both branches hold |d^2 - 2| <= 1e-9, past about 7e5 they do not, near 1e15 the lines
    degenerate, and T outside [0, _T_MAX] raises ValueError.
    """
    T = float(T)
    if not 0.0 <= T <= float(_T_MAX):
        raise ValueError(f"trajectory parameter outside the range [0, {_T_MAX}]: {T!r}")
    alpha = math.pi / 2
    S = T / math.sqrt(1.0 + 2.0 * T * T)
    root = math.sqrt(S * S * T * T + 1.0)
    U = 1.0 / (S * T + root) if mirror else -S * T - root
    kappa = math.atan(U) + alpha / 2
    params = GeneralParams(alpha, math.asin(S), math.atan(T), kappa)
    if T == 0.0:
        dists = (2.0, 2.0, 2.0)
    else:
        dists = dists_general(params)
    c = build_c3(params)
    res_ad = 1.0 - abs(float(c[0].dir @ c[2].dir))
    res_bd = 1.0 - abs(float(c[1].dir @ c[2].dir))
    pair = "AD" if res_ad <= res_bd else "BD"
    return FourCylSample(T, S * S, U, params, dists, pair, min(res_ad, res_bd))
