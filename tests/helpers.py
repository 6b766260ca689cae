"""Comparisons and measurements shared by the test modules."""

import math
import tracemalloc

import numpy as np

from cylpack.lines import DegenerateError, TangentLine, _chart_index, _frame_table, _pair_kernel
from cylpack.symmetric import SQRT3


def traced_peak_mb(call):
    """Peak traced allocation of call(), in MiB (2**20 bytes), after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def same_line(a, b, tol=1e-10):
    """Whether two tangent lines coincide: base within tol in every component, and dir within
    tol in every component up to sign, since a line is unoriented."""
    if float(np.max(np.abs(a.base - b.base))) > tol:
        return False
    straight = float(np.max(np.abs(a.dir - b.dir)))
    flipped = float(np.max(np.abs(a.dir + b.dir)))
    return min(straight, flipped) <= tol


def table_line(config, k):
    """Line k of a configuration as a TangentLine wrapping row k of its frame table, for
    distance_sq and same_line: base and dir are views of the row, with its bits."""
    return TangentLine._checked(config.table[k])


def lines_document(config):
    """The lines document config_from_dict reads, {"lines": [{"base": [x, y, z], "dir": [x, y,
    z]}, ...]}, of a configuration's lines, each as its table row stores it."""
    return {"lines": [{"base": row[:3].tolist(), "dir": row[3:].tolist()} for row in config.table]}


def ref_lines_table(lines):
    """Configuration's frame table of tangent lines as it was built, each vector unpacked into
    Python floats: the reference for the table built from the line arrays."""
    return np.array([(*u.base, *u.dir) for u in lines], order="F")


def ref_chart(rows):
    """A chart's coordinates, frame table and pair distances by the route that framed it before a
    chart was a Configuration: the flat copy of the rows, _frame_table of the rows' float array
    transposed, and one kernel call on that table's flat (6n,) transpose, each read-only."""
    rows = np.array(rows, dtype=float)
    coords, table = rows.reshape(-1), _frame_table(rows.T)
    dsq = _pair_kernel(table.T.reshape(-1), _chart_index(len(table)))
    coords.flags.writeable = dsq.flags.writeable = False
    return coords, table, dsq


def batched_dsq(bases, dirs):
    """The pair kernel's batched branch on (..., n, 3) base and dir stacks, each configuration a
    component-major column of one (6n, B) table: the squared distances of all pairs i < j,
    row-major, of each configuration, shaped (..., n(n-1)/2)."""
    table = np.concatenate((bases, dirs), axis=-1)
    n = table.shape[-2]
    columns = table.reshape(-1, n, 6).T.reshape(6 * n, -1)
    return _pair_kernel(columns, _chart_index(n)).T.reshape(*table.shape[:-2], -1)


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


# The ring's rows as each builder wrote them out before both called symmetric._ring_rows:
# references for the rule, whose float bits must match them.


def ref_ring_chart(n, phi, delta, kappa):
    """ring_chart's rows: longitudes m * 2pi / 4n for odd m, alternately upper and lower."""
    lons = [m * (2 * math.pi) / (4 * n) for m in range(1, 4 * n, 2)]
    return tuple([(phi, lon + kappa, -delta) for lon in lons[::2]]
                 + [(-phi, lon - kappa, -delta) for lon in lons[1::2]])


def ref_c3_rows(g):
    """build_c3's rows (A, B, D) of a GeneralParams."""
    a, k, d = g.alpha, g.kappa, g.delta
    return ((g.phi, a / 2 + k, -d), (g.phi, 5 * a / 2 + k, -d), (-g.phi, 3 * a / 2 - k, -d))


# gamma_point's coordinates as it wrote them out before its sample kept one AlgCoords: a
# reference for the sample's coords, whose float bits must match it.


def ref_gamma_coords(x):
    """(S, T, U, -tan(kappa + pi/6)) of the trajectory at x, T through t_of_x's form."""
    t = (1 + 3 * x) * (1 - x) / (x * (1 + 7 * x + 4 * x * x))
    S = 2.0 * math.sqrt((1.0 - x) * x * (1.0 + x) / (1.0 + 7.0 * x + 4.0 * x * x))
    kappa = math.atan((x - 1.0) / math.sqrt((1.0 + x) * (1.0 + 3.0 * x)))
    return S, math.sqrt(t), math.tan(kappa - math.pi / 6), -math.tan(kappa + math.pi / 6)
