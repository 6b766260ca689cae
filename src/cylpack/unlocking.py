"""Unlocking analysis for 2n equal cylinders around the unit ball.

2n cylinders with neighbor angle alpha = pi/n start as vertical tangent
lines spaced alpha apart, neighbors at distance 2 sin(alpha/2).  By the
ring's symmetry it is enough to follow one three-line subfamily: two
lines A, B of the upper ring (2 alpha apart) and the lower line D
between them, which symmetric builds (GeneralParams, build_c3) and
measures in closed form (dists_general).  This module analyzes it along
curves (phi, delta, kappa) = (phi1 t, delta1 t, kappa1 t + kappa2 t^2).
The family unlocks, meaning all pairwise distances can grow to first
useful order, exactly when alpha < pi/2 (more than four cylinders); the
four-cylinder case alpha = pi/2 instead slides along a trajectory that
keeps every distance constant at sqrt(2), which realizes the radius
1 + sqrt(2) but never exceeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .symmetric import GeneralParams, _neighbor_angle, build_c3, dists_general

_MARGINAL_TOL = 1e-12
_T_MAX = "1e5"  # four_cyl_point's largest T, as printed
_ALPHA_MIN = 2.0 ** -511  # unlock_verdict's least alpha, from which 4 sin^2(alpha/2) is a normal float


def _cross_terms(alpha: float, phi1: float, delta1: float) -> tuple:
    """sin(alpha); the cross pairs' order 0, 4 sin^2(alpha/2), the start's neighbor distance^2; and
    along kappa1 = 0 the parts of their order 2 that kappa2 leaves, mixed = 2 delta1 phi1 (1 + cos alpha)
    and odd = sin(alpha) (delta1^2 - phi1^2): d_AD^2's is -sin(alpha) (mixed + 4 kappa2 + odd) and
    d_BD^2's sin(alpha) (mixed + 4 kappa2 - odd)."""
    sa, sh = math.sin(alpha), math.sin(alpha / 2)
    return sa, 4.0 * sh * sh, 2.0 * delta1 * phi1 * (1.0 + math.cos(alpha)), sa * (delta1 * delta1 - phi1 * phi1)


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
    sa, baseline, mixed, odd = _cross_terms(alpha, phi1, delta1)
    d2, p2 = delta1 * delta1, phi1 * phi1
    out = {"dab_sq_0": 4.0 * d2 * sa * sa / (d2 + p2), "dad_sq_0": baseline, "dbd_sq_0": baseline,
           "dad_sq_1": -4.0 * kappa1 * sa, "dbd_sq_1": 4.0 * kappa1 * sa}
    if kappa1 == 0.0:
        mixed += 4.0 * kappa2
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

    out = {"dab_sq_0": order0(0), "dad_sq_0": order0(1), "dbd_sq_0": order0(2), "dad_sq_1": order1(1),
           "dbd_sq_1": order1(2)}
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
    the window (1/sqrt(1 + 2 cos alpha), 1) is nonempty exactly when
    alpha < pi/2.

    For an unlockable angle, witness holds a concrete curve direction
    with every distance growing: kappa1 = 0, phi1 = 1, delta1 inside
    (delta_lo, 1) so the within-ring distance grows at order 0 while
    both order-2 cross coefficients stay positive, kappa2 at the center
    of its admissible window and that window's half-width, plus a
    finite-t numeric confirmation; otherwise witness is None.

    The probe step t = min(1e-2, 0.5 sqrt(sin alpha cos alpha)) keeps the orders past 2 below the cross
    pairs' growth, about (1 - delta1^2) cos^2(alpha/2) t^2 of the baseline; below alpha = 1e-13 and within
    1e-7 of pi/2 that growth nears the distances' rounding, and probe_ok may read False under "unlockable".
    alpha below _ALPHA_MIN raises ValueError.
    """
    alpha = _neighbor_angle(alpha)
    if alpha < _ALPHA_MIN:
        raise ValueError(f"alpha must be at least {_ALPHA_MIN!r}, where 4 sin^2(alpha/2) is normal: {alpha!r}")
    if abs(alpha - math.pi / 2) <= _MARGINAL_TOL:
        return {"alpha": alpha, "verdict": "marginal", "witness": None}
    if alpha > math.pi / 2:
        return {"alpha": alpha, "verdict": "blocked", "witness": None}

    delta_lo = 1.0 / math.sqrt(1.0 + 2.0 * math.cos(alpha))
    delta1 = 0.5 * (delta_lo + 1.0)
    phi1 = 1.0
    # kappa2 at the center of the window keeping both order-2 cross coefficients positive, of
    # half-width |odd|/4: below alpha of about 3e-16 the window's two ends round to one float
    sa, baseline, mixed, odd = _cross_terms(alpha, phi1, delta1)
    kappa2 = 0.5 * (0.25 * (-mixed + odd) + 0.25 * (-mixed - odd))

    t = min(1e-2, 0.5 * math.sqrt(sa * math.cos(alpha)))
    probe = dists_general(GeneralParams(alpha, phi1 * t, delta1 * t, kappa2 * t * t))
    witness = {
        "phi1": phi1,
        "delta1": delta1,
        "delta1_window": (delta_lo, 1.0),
        "kappa1": 0.0,
        "kappa2": kappa2,
        "kappa2_half_width": 0.25 * abs(odd),
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
    baseline = _cross_terms(alpha, 1.0, 1.0)[1]
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

    T = tan(delta), S2 = S^2 = sin^2(phi) and U, the counter-rotation
    root, are named as the four-cyl columns.  dists_sq holds d_AB^2,
    d_AD^2, d_BD^2; parallel_residual is 1 - |cos| of the angle of the
    adjacent pair that stays parallel, B-D on the default branch and A-D
    on the mirror one.
    """

    T: float
    S2: float
    U: float
    params: GeneralParams
    dists_sq: tuple
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
    infinity), and the sample reports the trajectory limit 2 there and wherever S^2 + T^2 underflows
    to 0 (T up to about 1.5e-162), where dists_general would read d_AB^2's delta-direction limit, 4.
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
    dists = (2.0, 2.0, 2.0) if S * S + T * T == 0.0 else dists_general(params)
    dirs = build_c3(params).table[:, 3:]
    residual = min(1.0 - abs(float(dirs[k] @ dirs[2])) for k in (0, 1))  # A-D, then B-D
    return FourCylSample(T, S * S, U, params, dists, residual)
