"""Lines tangent to the unit sphere and distances between them.

A tangent line touches the unit ball at a single point and is unoriented:
(base, dir) and (base, -dir) describe the same line.  Equal cylinders of
radius r around a family of such lines avoid overlap exactly when every
pairwise line distance is at least 2r/(1+r), which makes the conversion
between line distances and cylinder radii the bridge between the geometry
here and the packing statements elsewhere in the package.

A chart's (latitude, longitude, tangent angle) rows may be any finite numbers: a latitude
past a pole frames the line it reaches there.  A chart's configuration, a FreeConfig, is framed
once, from its coordinates as given, into a frame table of [base | dir] rows, the (n, 6) view of
a C-ordered (6, n) array; that table is a Configuration's one form of its lines.  Framed from
finite coordinates, every row is unit and tangent to rounding, so only a line given as vectors
(a TangentLine, as a lines document gives it) is checked and snapped.
SphericalPoint and chart_from_configuration, which name a point rather than frame one, report
longitudes in [0, 2*pi).
Every table has that one component-major layout, so one pair kernel measures them all, batched or
not, at flat take indices cached per line count (_chart_index); _pair_kernel's docstring is its
one statement: formula, parallel fallback, symmetries, rounding.  A block of whole charts is
framed and measured by _charts_dsq, a chart and its slopes by _dsq_slopes.
The pairs of n lines are the (i, j) with i < j in row-major order, (0, 1), ..., (0, n - 1), (1, 2),
...: listed by _pairs alone, the order of Configuration.dsq, of every kernel index and pair list.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_TAU = 2.0 * math.pi

# Below this value of |dir x dir'|^2 = 1 - (dir . dir')^2 the skew-line
# formula is 0/0 and the point-to-line fallback is used instead.
PARALLEL_TOL = 1e-12

# configurations per kernel call in every batched path, each lockstep round's starts too: the
# kernel's (3, 15, block) gathers and its other temporaries grow with it (a warm probe's traced
# peak is 0.25 MiB at 128, 0.31 at 160, at any trial count), while smaller blocks pay numpy's
# per-call cost (at 64 a 10,000-trial probe took 1.4 times as long as at 128).
_BLOCK = 128


class DegenerateError(ArithmeticError):
    """A closed-form expression was evaluated where it degenerates."""


def _finite_fields(obj, *names: str) -> None:
    """Store each named field of a frozen dataclass as a float; "<name> must be finite" if not.
    D3Params and AlgCoords, built for every trajectory point, call it only when their one combined
    test (every field a plain float, and their sum finite) fails: to convert, or to name the field."""
    for name in names:
        v = float(getattr(obj, name))
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
        object.__setattr__(obj, name, v)


class _cached:
    """A per-instance cached property without functools.cached_property's lock, which Python 3.11
    takes on every first read: the first read computes the value and stores it in the instance
    __dict__, where every later read finds it as a plain attribute.  There is no lock because the
    values are pure: a concurrent first read computes the same value twice, and one is kept."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _positive_finite(name: str, value) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite: {value!r}")


def _count(name: str, value, least: int) -> int:
    """value as an int; refused unless operator.index takes it and it is at least least."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer: {value!r}") from None
    if n < least:
        raise ValueError(f"{name} must be at least {least}: {value!r}")
    return n


@dataclass(frozen=True)
class SphericalPoint:
    """Latitude/longitude pair naming a point of the unit sphere.

    Latitude phi lies in [-pi/2, pi/2]; longitude kappa is stored reduced
    to [0, 2*pi).  Longitude 0 is the positive-x meridian and longitude
    increases counterclockwise seen from above the north pole (0, 0, 1).
    """

    phi: float
    kappa: float

    def __post_init__(self):
        phi = float(self.phi)
        kappa = float(self.kappa)
        if not math.isfinite(phi) or abs(phi) > math.pi / 2:
            raise ValueError(f"latitude out of range: {self.phi!r}")
        if not math.isfinite(kappa):
            raise ValueError(f"longitude must be finite: {self.kappa!r}")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "kappa", _reduce_lon(kappa))


def _reduce_lon(lon: float) -> float:
    """A longitude reduced to [0, 2*pi); a tiny negative one, whose remainder rounds up to 2*pi,
    becomes 0.0."""
    lon %= _TAU
    return 0.0 if lon >= _TAU else lon


def _basis(sin, cos) -> tuple:
    """x, y, z components of tangency points, north and east unit tangents, from the sines and
    cosines of latitude and longitude, the first two entries of sin and cos."""
    sp, sk, cp, ck = sin[0], sin[1], cos[0], cos[1]
    nsp = -sp
    return (cp * ck, cp * sk, sp), (nsp * ck, nsp * sk, cp), (-sk, ck, 0.0)


def _frame_xyz(chart) -> tuple:
    """Components (bx, by, bz, dx, dy, dz) of the lines whose latitudes, longitudes and angles are
    stacked on chart's first axis, (3, ...) or (3,), each line along its north tangent rotated
    by its angle (pi/2: due east); np.sin and np.cos are called once each, over the whole stack.
    The frame is smooth at every real latitude, past the poles too.  dz drops the east tangent's
    z = 0.0 term: ca * nz + sa * 0.0 is ca * nz exactly, since the cosine of a finite double is
    never +-0 and ca * nz = cos(ang) cos(phi) cannot underflow, so the +-0 added never changes
    it (a NaN stays NaN)."""
    sin, cos = np.sin(chart), np.cos(chart)
    base, (nx, ny, nz), (ex, ey, _) = _basis(sin, cos)
    sa, ca = sin[2], cos[2]
    return (*base, ca * nx + sa * ex, ca * ny + sa * ey, ca * nz)


def _frozen(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)  # builds no flags object, as v.flags does: 0.2 us less a call (2-core x86-64)
    return v


def _off(value: float, target: float, tol: float, what: str) -> bool:
    """Whether value is more than tol off target; "<what> = <value>" raised past 1e-9."""
    if abs(value - target) > 1e-9:
        raise ValueError(f"{what} = {value!r}")
    return abs(value - target) > tol


@dataclass(frozen=True, eq=False)
class TangentLine:
    """Unoriented line tangent to the unit sphere.

    base is the tangency point and dir a unit direction along the line.
    Construction accepts vectors within 1e-9 of unit and tangent, then
    snaps them so every stored instance satisfies |base| = 1, |dir| = 1
    and base . dir = 0 to machine precision.  The snap is skipped for
    inputs already clean to ~1 ulp, so negating dir of a stored line
    yields bit-exact negated components.
    """

    base: np.ndarray
    dir: np.ndarray

    @np.errstate(over="ignore")  # a squared norm that overflows is inf, refused as such
    def __post_init__(self):
        base = np.array(self.base, dtype=float)
        direction = np.array(self.dir, dtype=float)
        if base.shape != (3,) or direction.shape != (3,):
            raise ValueError("base and dir must be 3-vectors")
        if not np.isfinite((base, direction)).all():
            raise ValueError("base and dir must be finite")
        nb = math.sqrt(base @ base)
        if _off(nb, 1.0, 5e-16, "base must be a unit vector, |base|"):
            base = base / nb
        dot = float(direction @ base)
        if _off(dot, 0.0, 1e-15, "dir must be tangent at base, base . dir"):
            direction = direction - dot * base
        nd = math.sqrt(direction @ direction)
        if _off(nd, 1.0, 5e-16, "dir must be a unit vector, |dir|"):
            direction = direction / nd
        self.__dict__.update(base=_frozen(base), dir=_frozen(direction))

    @classmethod
    def _checked(cls, row: np.ndarray) -> "TangentLine":
        """Wrap a [base | dir] row of a frozen frame table, unit and tangent to rounding, unchecked."""
        line = object.__new__(cls)
        line.__dict__.update(base=row[:3], dir=row[3:])
        return line


def make_tangent_line(p: SphericalPoint, delta: float) -> TangentLine:
    """Tangent line at p, north tangent rotated by delta in the tangent plane; delta = pi/2
    points it due east (toward increasing longitude).  Poles, where north is undefined, are
    rejected.  The line is FreeConfig's for the row (p.phi, p.kappa, delta)."""
    if abs(p.phi) == math.pi / 2:
        raise ValueError("north direction undefined at the poles")
    return TangentLine._checked(_frame_table(np.array((p.phi, p.kappa, delta)))[0])


def _take_index(i, j, n: int) -> np.ndarray:
    """(6, 3, P) flat positions of the pair kernel's operands for pairs (i[p], j[p]) in a frame
    table of n lines, component k (bx, by, bz, dx, dy, dz) of line l at l + n k: u = dir_i as
    (y, z, x), base_j, u as (z, x, y), base_i, v = dir_j as (z, x, y) and (y, z, x)."""
    yzx, zxy, xyz = (4, 5, 3), (5, 3, 4), (0, 1, 2)
    operands = ((i, yzx), (j, xyz), (i, zxy), (i, xyz), (j, zxy), (j, yzx))
    return _frozen(np.array([[[int(a) + n * k for a in at] for k in comps]
                             for at, comps in operands]))  # Python ints: no integer ufunc is mapped in


def _pairs(n: int) -> tuple:
    """The pairs (i, j) of n lines, i < j, in row-major order: the one list of a chart's pairs."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=8)
def _chart_index(n: int) -> np.ndarray:
    """_take_index of n lines' _pairs."""
    return _take_index(*zip(*_pairs(n)), n)


def _sum_xzy(m) -> np.ndarray:
    """Sum of the x, y, z components on m's first axis, rounded as (x + z) + y."""
    return (m[0] + m[2]) + m[1]


def _canonical(d) -> np.ndarray:
    """Directions, components on the first axis, flipped to a positive first nonzero component."""
    flip = np.where(d[0] != 0.0, d[0], np.where(d[1] != 0.0, d[1], d[2])) < 0.0
    return np.where(flip, -d, d)


def _parallel_dsq(u, v, w) -> np.ndarray:
    """Squared point-to-line gaps of parallel pairs, on (3, m) components of their directions u, v
    and base offsets w, projected along the lexicographically larger canonical direction."""
    a, b = _canonical(u), _canonical(v)
    keep_a = np.where(a[0] != b[0], a[0] > b[0], np.where(a[1] != b[1], a[1] > b[1], a[2] >= b[2]))
    n = np.where(keep_a, a, b)
    p = w - _sum_xzy(w * n) * n
    return _sum_xzy(p * p)


def _pair_kernel(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Squared distances of the line pairs index (from _take_index) places in a frame table flat
    on its first axis, batched by any further ones, in index's pair order.  A pair with directions
    u, v and w = base_j - base_i is at det^2[u, v, w] / |u x v|^2; |u x v|^2 equals 1 - (u . v)^2
    for unit vectors but does not cancel near parallel.  Where it is at most PARALLEL_TOL that
    form is 0/0, and the squared point-to-line gap (_parallel_dsq) is used instead.  Each value
    is exactly invariant under swapping the lines or negating either direction (both branches
    change only by exact sign flips), and every 3-term sum, the fallback's too, is rounded
    (x + z) + y, so one chart and a batch get the same bits.

    One chart's (1-D) table takes all six operands in one gather; a batch takes each when
    needed, holding four (3, P, B) arrays at most, whose pages the allocator keeps between calls.
    c = u x v, c . c and c . w are one ufunc each, written over base_j (becoming w) and u and v
    (y, z, x), so the fallback reads u and v (z, x, y) and w."""
    if table.ndim == 1:
        operand = table.take(index, axis=0).__getitem__
    else:
        operand = lambda k: table.take(index[k], axis=0)
    w, c, cc = operand(1), operand(0), operand(5)  # base_j, u, v
    np.subtract(w, operand(3), out=w)  # w = base_j - base_i
    np.multiply(c, operand(4), out=c)  # uy vz, uz vx, ux vy
    np.multiply(cc, operand(2), out=cc)  # vy uz, vz ux, vx uy
    np.subtract(c, cc, out=c)  # c = u x v
    np.multiply(c, c, out=cc)
    np.multiply(w, c, out=c)
    denom, det = _sum_xzy(cc), _sum_xzy(c)
    parallel = denom <= PARALLEL_TOL
    if not parallel.any():
        return det * det / denom
    with np.errstate(divide="ignore", invalid="ignore"):
        dsq = det * det / denom
    u, v = (operand(k)[:, parallel][[1, 2, 0]] for k in (2, 4))
    dsq[parallel] = _parallel_dsq(u, v, w[:, parallel])
    return dsq


def distance_sq(u: TangentLine, v: TangentLine) -> float:
    """Squared distance between two lines; see _pair_kernel."""
    return float(Configuration((u, v)).dsq[0])


@dataclass(frozen=True, eq=False, init=False)
class Configuration:
    """Ordered family of tangent lines (at least two), kept only as one read-only frame table, the
    (n, 6) [base | dir] view of a (6, n) array, line k at row k; dsq holds the table's pair
    distances, measured on first read, read-only."""

    table: np.ndarray

    def __init__(self, lines):
        lines = tuple(lines)
        if len(lines) < 2:
            raise ValueError("a configuration needs at least 2 lines")
        if not all(isinstance(line, TangentLine) for line in lines):
            raise TypeError("configuration members must be TangentLine")
        table = np.array([np.concatenate((u.base, u.dir)) for u in lines], order="F")
        self.__dict__.update(table=_frozen(table))

    @_cached
    def dsq(self) -> np.ndarray:
        return _frozen(_pair_kernel(self.table.T.reshape(-1), _chart_index(len(self.table))))


@dataclass(frozen=True, eq=False, init=False)
class FreeConfig(Configuration):
    """The configuration of a chart of n >= 2 lines: 3n finite coordinates, flat or as (n, 3)
    rows of (latitude, longitude, tangent angle), kept flat and read-only as given in coords and
    framed once into table, at any latitude, past a pole too, and longitudes unreduced;
    make_tangent_line(p, ang) is the line of the row (p.phi, p.kappa, ang)."""

    coords: np.ndarray

    def __init__(self, coords):
        coords = np.array(coords, dtype=float).ravel()
        if len(coords) % 3 or len(coords) < 6:
            raise ValueError(f"chart needs 3n coordinates for n >= 2 lines: {len(coords)}")
        self.__dict__.update(table=_frame_table(coords.reshape(-1, 3).T), coords=_frozen(coords))


def _frame_table(chart) -> np.ndarray:
    """Read-only frame table, the (n, 6) view of one (6, n) array, of a (3, n) or (3,) stacked chart;
    refused unless every coordinate is finite, which makes every row unit and tangent to rounding."""
    if not np.isfinite(chart).all():
        raise ValueError("chart coordinates must be finite")
    return _frozen(np.array(_frame_xyz(chart)).reshape(6, -1).T)


def _charts_dsq(block: np.ndarray) -> np.ndarray:
    """(P, B) pair distances of a (B, n, 3) block of charts, framed as FreeConfig frames them
    into one (6n, B) table for one kernel call: FreeConfig(chart).dsq's bits.  Callers pass
    finite charts, at any latitude, and blocks of at most _BLOCK."""
    table = np.array(_frame_xyz(block.T)).reshape(6 * block.shape[1], -1)
    return _pair_kernel(table, _chart_index(block.shape[1]))


@lru_cache(maxsize=8)
def _slope_index(n: int) -> tuple:
    """_dsq_slopes' tables for n lines, built in plain Python as _take_index is: each table line's
    chart line (the n lines, then copy k of line 1 + k // 3); each copy's moved entry in the flat
    (3, 4n - 3) chart table; the take index of the P _pairs, then of each copy with the chart's
    other lines; the chart pair each moves, (3n - 3, n - 1); and its Jacobian slot."""
    pairs = _pairs(n)
    moved = [(k, j) for k in range(3 * n - 3) for j in range(n) if j != 1 + k // 3]
    source = [pairs.index(tuple(sorted((1 + k // 3, j)))) for k, j in moved]
    i, j = zip(*pairs, *((n + k, j) for k, j in moved))
    return (np.array([*range(n), *(1 + k // 3 for k in range(3 * n - 3))]),
            np.array([k % 3 * (4 * n - 3) + n + k for k in range(3 * n - 3)]), _take_index(i, j, 4 * n - 3),
            np.array(source).reshape(-1, n - 1), np.array([p * (3 * n - 3) + k for p, (k, _) in zip(source, moved)]))


def _dsq_slopes(rows: np.ndarray, h: float) -> tuple:
    """Pair distances of a (B, n, 3) block of finite charts, (B, P) in FreeConfig(chart).dsq's
    order and bits, and their forward differences in the coordinates of lines 1..n-1, each moved
    by h, (B, P, 3n - 3), at any latitude: one kernel call measures each chart's lines and copy k
    of line 1 + k // 3 with column k % 3 moved against the others."""
    b, n = rows.shape[:2]
    lines, moved, index, source, slots = _slope_index(n)
    chart = rows.T.take(lines, axis=1)  # (3, 4n - 3, B), contiguous
    chart.reshape(-1, b)[moved] += h
    table = np.array(_frame_xyz(chart)).reshape(-1, b)
    dsq = _pair_kernel(table if b > 1 else table.reshape(-1), index).reshape(-1, b).T
    p = dsq.shape[1] - len(slots)
    f = dsq[:, :p]
    jac = np.zeros((b, p * (3 * n - 3)))
    jac[:, slots] = ((dsq[:, p:].reshape(b, -1, n - 1) - f.take(source, axis=1)) / h).reshape(b, -1)
    return f, jac.reshape(b, p, -1)


def min_pairwise_distance(c: Configuration) -> float:
    """Smallest distance over all line pairs of the configuration."""
    # min() of the list skips ndarray.min's reduction setup; it would be order-dependent on a NaN,
    # but none reaches here: a chart is framed from finite coordinates, a line given as vectors is
    # checked finite, and both kernel branches are finite on unit vectors (a pair at |u x v|^2 <=
    # PARALLEL_TOL takes the fallback's value)
    return math.sqrt(min(c.dsq.tolist()))


# the bench's name for min_pairwise_distance; the program calls min_pairwise_distance itself
objective = min_pairwise_distance


def chart_from_configuration(c: Configuration) -> FreeConfig:
    """The chart of tangent lines, each row in range: latitude in (-pi/2, pi/2) and longitude in
    [0, 2*pi).  Rejects a line based at a pole, where the tangent angle is undefined."""
    rows = []
    for row in c.table:
        x, y, z = row[:3].tolist()
        phi = math.atan2(z, math.hypot(x, y))  # asin(z) loses accuracy near the poles
        if abs(phi) >= math.pi / 2:
            raise ValueError("line based at a pole has no chart coordinates")
        kappa = _reduce_lon(math.atan2(y, x))
        _, north, east = _basis(np.sin((phi, kappa)), np.cos((phi, kappa)))
        rows.append((phi, kappa, math.atan2(float(row[3:] @ east), float(row[3:] @ north))))
    return FreeConfig(rows)


def radius_from_distance(d: float) -> float:
    """Largest common cylinder radius for lines at pairwise distance d: r = d/(2-d), since two unit-ball-tangent
    cylinders of radius r have axis distance (1+r) d and touch when (1+r) d = 2r.  For a subnormal d, 2 - d rounds
    to 2 and r is d/2 rounded half to even, so radius_from_distance(5e-324) is 0.0."""
    if not d >= 0:
        raise ValueError(f"invalid distance: {d!r}")
    if d >= 2:
        raise ValueError("radius unbounded at distance >= 2")
    return d / (2.0 - d)
