"""Comparisons shared by the test modules."""

import math

import numpy as np

from cylpack.lines import DegenerateError, _chart_index, _pair_kernel
from cylpack.symmetric import SQRT3

# the largest latitude a chart takes: FreeConfig's range is open at the poles, and the search
# walks latitudes unbounded and folds the charts it returns into it, so one may lie this close
LAT_MAX = math.nextafter(math.pi / 2, 0.0)


def same_line(a, b, tol=1e-10):
    """Whether two tangent lines coincide: base within tol in every component, and dir within
    tol in every component up to sign, since a line is unoriented."""
    if float(np.max(np.abs(a.base - b.base))) > tol:
        return False
    straight = float(np.max(np.abs(a.dir - b.dir)))
    flipped = float(np.max(np.abs(a.dir + b.dir)))
    return min(straight, flipped) <= tol


def lines_document(config):
    """The lines document config_from_dict reads, {"lines": [{"base": [x, y, z], "dir": [x, y,
    z]}, ...]}, of a configuration's lines, each as stored."""
    return {"lines": [{"base": line.base.tolist(), "dir": line.dir.tolist()} for line in config]}


def batched_dsq(bases, dirs):
    """The pair kernel's batched branch on (..., n, 3) base and dir stacks: the squared distances
    of all pairs i < j, row-major, of each configuration, shaped (..., n(n-1)/2)."""
    table = np.concatenate((bases, dirs), axis=-1)
    n = table.shape[-2]
    return _pair_kernel(table.reshape(-1, 6 * n).T, _chart_index(n)).T.reshape(*table.shape[:-2], -1)


# The closed forms written in (S, T), squaring S and T and forming S T themselves: references
# for the forms that take (S^2, T^2, S T), whose float bits must match them.


def ref_neighbor_dists_sq(S, T, U, Ub, sin_sq, cos_sq):
    """(d_AB^2, d_AD^2, d_BD^2) of symmetric._neighbor_dists_sq, in (S, T)."""
    s2, t2 = S * S, T * T
    st = s2 + t2
    if st == 0.0:
        dab = 4.0 * sin_sq
    else:
        num, den = 4.0 * sin_sq * (1.0 - s2) ** 2, st * (1.0 - sin_sq * s2 + cos_sq * t2)
        dab = num / (st * ((1.0 - sin_sq * s2) / t2 + cos_sq)) if den == math.inf else num * t2 / den
    dad = 4.0 * (S * T + U) ** 2 / (1.0 - s2 + t2 + U * U + 2.0 * S * T * U)
    dbd = 4.0 * (-S * T + Ub) ** 2 / (1.0 - s2 + t2 + Ub * Ub - 2.0 * S * T * Ub)
    return (dab, dad, dbd)


def ref_k1(S, T, U):
    """curve.k1 in (S, T)."""
    return -SQRT3 * U * U + 2.0 * U * (1.0 - SQRT3 * S * T) + 2.0 * S * T + SQRT3


def ref_k2(S, T, U):
    """curve.k2 in (S, T)."""
    s2, t2 = S * S, T * T
    return (-4.0 * s2 + 3.0 * s2 * s2 - t2) * (U + S * T) ** 2 - 3.0 * t2 * (s2 - 1.0) ** 3


def ref_u_from_st(S, T):
    """curve.u_from_st in (S, T)."""
    s2, t2 = S * S, T * T
    den = 4.0 * s2 - 3.0 * s2 * s2 + t2
    if abs(den) < 1e-15:
        raise DegenerateError("trajectory coordinate U undefined at S = T = 0")
    return 0.5 * (
        -3.0 * SQRT3 * t2 * (s2 - 1.0) ** 3 / den - SQRT3 - 2.0 * S * T - SQRT3 * s2 * t2
    )
