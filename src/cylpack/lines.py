"""Lines tangent to the unit sphere and distances between them.

A tangent line touches the unit ball at a single point and is unoriented:
(base, dir) and (base, -dir) describe the same line.  Equal cylinders of
radius r around a family of such lines avoid overlap exactly when every
pairwise line distance is at least 2r/(1+r), which makes the conversion
between line distances and cylinder radii the bridge between the geometry
here and the packing statements elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

_TAU = 2.0 * math.pi

# Below this value of |dir x dir'|^2 = 1 - (dir . dir')^2 the skew-line
# formula is 0/0 and the point-to-line fallback is used instead.
PARALLEL_TOL = 1e-12

# configurations per kernel call in every batched path: the kernel's ~35 temporaries of
# shape (block, 15) must stay small enough that the allocator keeps their pages between
# calls; larger ones go back to the OS when freed and fault in again on the next call
# (about 800 minor faults a call at 2048 configurations; some processes fault at 176).
_BLOCK = 160


class DegenerateError(ArithmeticError):
    """A closed-form expression was evaluated where it degenerates."""


def _finite_fields(obj, *names: str) -> None:
    """Store each named field of a frozen dataclass as a float; "<name> must be finite" if not."""
    for name in names:
        v = float(getattr(obj, name))
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
        object.__setattr__(obj, name, v)


def _positive_finite(name: str, value) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite: {value!r}")


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
        (kappa,) = _reduce_lon([kappa]).tolist()
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "kappa", kappa)


def _reduce_lon(lon) -> np.ndarray:
    """Longitudes (a sequence or 1-D array) as a new array reduced to [0, 2*pi);
    a tiny negative one, whose remainder rounds up to 2*pi, becomes 0.0."""
    lon = np.mod(lon, _TAU)
    lon[lon >= _TAU] = 0.0
    return lon


def _basis(phi, kappa) -> tuple:
    """x, y, z components of tangency points, north and east unit tangents."""
    sp, cp = np.sin(phi), np.cos(phi)
    sk, ck = np.sin(kappa), np.cos(kappa)
    return (cp * ck, cp * sk, sp), (-sp * ck, -sp * sk, cp), (-sk, ck, 0.0)


def _frame_xyz(phi, kappa, ang) -> tuple:
    """frames(phi, kappa, ang) as unstacked components (bx, by, bz, dx, dy, dz)."""
    base, (nx, ny, nz), (ex, ey, ez) = _basis(phi, kappa)
    ca, sa = np.cos(ang), np.sin(ang)
    return (*base, ca * nx + sa * ex, ca * ny + sa * ey, ca * nz + sa * ez)


def frames(phi, kappa, ang) -> tuple:
    """Tangency points and directions of tangent lines, over arrays.

    Line k touches the sphere at latitude phi[k], longitude kappa[k] and
    points along the north tangent rotated by ang[k] in the tangent
    plane; ang = pi/2 points due east (toward increasing longitude).
    Each output stacks 3-vectors on a new last axis: bases over the
    broadcast shape of phi and kappa, dirs over that of all three.  The
    frame degenerates at the poles, which callers must reject.
    """
    xyz = _frame_xyz(phi, kappa, ang)
    return np.stack(xyz[:3], axis=-1), np.stack(xyz[3:], axis=-1)


def _reject_poles(phi) -> None:
    if (np.abs(phi) >= math.pi / 2).any():
        raise ValueError("north direction undefined at the poles")


def embed_point(p: SphericalPoint) -> np.ndarray:
    """Unit vector (cos phi cos kappa, cos phi sin kappa, sin phi)."""
    return frames(p.phi, p.kappa, 0.0)[0]


def north_tangent(p: SphericalPoint) -> np.ndarray:
    """Unit tangent at p pointing due north; undefined at the poles."""
    _reject_poles(p.phi)
    return frames(p.phi, p.kappa, 0.0)[1]


def _frozen(v: np.ndarray) -> np.ndarray:
    v.flags.writeable = False
    return v


def _snap(v, values, target: float, tol: float, what: str, snapped) -> np.ndarray:
    """v with rows more than tol off target taken from snapped(); raises on the first worst
    row past 1e-9."""
    off = np.abs(values - target)
    if not off.size:
        return v
    k = off.argmax()
    worst = off.item(k)
    if worst > 1e-9:
        raise ValueError(f"{what} = {values.item(k)!r}")
    return v if worst <= tol else np.where(off[:, None] > tol, snapped(), v)


@np.errstate(over="ignore")  # an overflowing norm is inf, and rejected as such
def _unit_tangent(bases: np.ndarray, dirs: np.ndarray) -> tuple:
    """TangentLine's checks and snaps, in its order, on (n, 3) stacks.  np.vecdot rounds each
    row like the 1-D BLAS dot of `@`, so rows get the bits they get alone.  Components are
    checked one by one only when a squared norm is not finite (a non-finite one or overflow)."""
    nb, nd = np.sqrt(np.vecdot(bases, bases)), np.sqrt(np.vecdot(dirs, dirs))
    if not math.isfinite(sum(nb.tolist()) + sum(nd.tolist())) and not (
            np.isfinite(bases).all() and np.isfinite(dirs).all()):
        raise ValueError("base and dir must be finite")
    bases = _snap(bases, nb, 1.0, 5e-16, "base must be a unit vector, |base|",
                  lambda: bases / nb[:, None])
    dot = np.vecdot(dirs, bases)
    tangent = _snap(dirs, dot, 0.0, 1e-15, "dir must be tangent at base, base . dir",
                    lambda: dirs - dot[:, None] * bases)
    if tangent is not dirs:  # rows moved by the snap need their norms again
        nd = np.sqrt(np.vecdot(tangent, tangent))
    return bases, _snap(tangent, nd, 1.0, 5e-16, "dir must be a unit vector, |dir|",
                        lambda: tangent / nd[:, None])


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

    def __post_init__(self):
        base = np.array(self.base, dtype=float)
        direction = np.array(self.dir, dtype=float)
        if base.shape != (3,) or direction.shape != (3,):
            raise ValueError("base and dir must be 3-vectors")
        bases, dirs = map(_frozen, _unit_tangent(base[None], direction[None]))
        self.__dict__.update(base=bases[0], dir=dirs[0])

    @classmethod
    def _checked(cls, base: np.ndarray, direction: np.ndarray) -> "TangentLine":
        """Wrap frozen vectors that _unit_tangent has already checked."""
        line = object.__new__(cls)
        line.__dict__.update(base=base, dir=direction)
        return line

    def canonical(self) -> "TangentLine":
        """Copy whose dir has a positive first nonzero component.

        Gives every line one deterministic representative for printing
        and comparisons.
        """
        return TangentLine(self.base, np.array(_canonical(*self.dir)))

    def same_line_as(self, other: "TangentLine", tol: float = 1e-10) -> bool:
        """Whether the two lines coincide, ignoring dir orientation."""
        if float(np.max(np.abs(self.base - other.base))) > tol:
            return False
        straight = float(np.max(np.abs(self.dir - other.dir)))
        flipped = float(np.max(np.abs(self.dir + other.dir)))
        return min(straight, flipped) <= tol


def make_tangent_line(p: SphericalPoint, delta: float) -> TangentLine:
    """Tangent line at p, north tangent rotated by delta in the
    tangent plane; delta = pi/2 points it due east (toward increasing
    longitude).  Poles are rejected: the north direction is undefined
    there.
    """
    _reject_poles(p.phi)
    return TangentLine(*frames(p.phi, p.kappa, delta))


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """3x3 rotation by angle about axis, right-hand rule."""
    k = np.asarray(axis, dtype=float)
    n = math.sqrt(float(k @ k))
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("rotation axis must be a nonzero vector")
    k = k / n
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    c, s = math.cos(angle), math.sin(angle)
    return c * np.eye(3) + s * kx + (1.0 - c) * np.outer(k, k)


def rotate_line(line: TangentLine, matrix: np.ndarray) -> TangentLine:
    """Image of a tangent line under a rotation matrix."""
    return TangentLine(matrix @ line.base, matrix @ line.dir)


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    return np.triu_indices(n, 1)


def _canonical(x, y, z) -> tuple:
    """Components of directions flipped so the first nonzero one is positive."""
    flip = np.where(x != 0.0, x, np.where(y != 0.0, y, z)) < 0.0
    return tuple(np.where(flip, -c, c) for c in (x, y, z))


def _parallel_dsq(ux, uy, uz, vx, vy, vz, wx, wy, wz) -> np.ndarray:
    """Squared point-to-line gaps of parallel pairs, on components,
    projected along the lexicographically larger canonical direction."""
    a, b = _canonical(ux, uy, uz), _canonical(vx, vy, vz)
    keep_a = np.where(a[0] != b[0], a[0] > b[0], np.where(a[1] != b[1], a[1] > b[1], a[2] >= b[2]))
    nx, ny, nz = (np.where(keep_a, p, q) for p, q in zip(a, b))
    dot = (wx * nx + wz * nz) + wy * ny
    px, py, pz = wx - dot * nx, wy - dot * ny, wz - dot * nz
    return (px * px + pz * pz) + py * py


def _pair_dsq_xyz(bx, by, bz, dx, dy, dz) -> np.ndarray:
    """pair_dsq on the x, y, z components of (..., n) bases and dirs."""
    i, j = _pairs(dx.shape[-1])
    return _uvw_dsq(*(a[..., k] for k in (i, j) for a in (dx, dy, dz)),
                    *(a[..., j] - a[..., i] for a in (bx, by, bz)))


def _uvw_dsq(ux, uy, uz, vx, vy, vz, wx, wy, wz) -> np.ndarray:
    """pair_dsq's arithmetic on gathered pairs: directions u, v and base offset w = base_v - base_u."""
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    denom = (cx * cx + cz * cz) + cy * cy
    det = (cx * wx + cz * wz) + cy * wy
    parallel = denom <= PARALLEL_TOL
    if not parallel.any():
        return det * det / denom
    with np.errstate(divide="ignore", invalid="ignore"):
        dsq = det * det / denom
    dsq[parallel] = _parallel_dsq(*(a[parallel] for a in (ux, uy, uz, vx, vy, vz, wx, wy, wz)))
    return dsq


def pair_dsq(bases: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Squared distances of all line pairs i < j, in row-major order.

    bases and dirs are (..., n, 3) stacks of tangency points and unit
    directions; the result has shape (..., n(n-1)/2).  Skew pairs use
    det^2[du, dv, w] / |du x dv|^2 with w = base_j - base_i; the
    denominator equals 1 - (du . dv)^2 for unit vectors but is free of
    its catastrophic cancellation near parallel pairs.  Within
    PARALLEL_TOL of parallel that formula is 0/0 and the squared
    point-to-line gap is used instead.  Every value is exactly invariant
    under swapping the two lines and under negating either direction:
    both branches change only by exact floating-point sign flips under
    those operations.

    The arithmetic is fixed elementwise, on separate x, y, z arrays:
    c = du x dv is (uy vz - uz vy, uz vx - ux vz, ux vy - uy vx), and
    every 3-term dot product, the fallback's included, sums as
    (x + z) + y, the order the earlier einsum kernel rounded in, so
    search paths stay bit for bit the same.
    """
    i, j = _pairs(dirs.shape[-2])
    # one gather per side of the pairs on (base, dir) rows: fewer calls than per component
    rows = np.concatenate((bases, dirs), axis=-1)
    first, second = rows[..., i, :], rows[..., j, :]
    w = second[..., :3] - first[..., :3]
    return _uvw_dsq(*(r[..., k] for r in (first, second) for k in (3, 4, 5)),
                    *(w[..., k] for k in range(3)))


def _stack(lines) -> tuple:
    return np.array([u.base for u in lines]), np.array([u.dir for u in lines])


def distance_sq(u: TangentLine, v: TangentLine) -> float:
    """Squared distance between two lines; see pair_dsq."""
    return float(pair_dsq(*_stack((u, v)))[0])


def distance(u: TangentLine, v: TangentLine) -> float:
    """Distance between two lines; sqrt of distance_sq."""
    return math.sqrt(distance_sq(u, v))


@dataclass(frozen=True, eq=False)
class Configuration:
    """Ordered family of tangent lines (at least two), stacked read-only in bases/dirs;
    dsq holds their pair_dsq, measured on first read and kept read-only."""

    lines: tuple
    bases: np.ndarray = field(init=False, repr=False)
    dirs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lines = tuple(self.lines)
        if len(lines) < 2:
            raise ValueError("a configuration needs at least 2 lines")
        if not all(isinstance(line, TangentLine) for line in lines):
            raise TypeError("configuration members must be TangentLine")
        if "bases" not in self.__dict__:  # given bare lines, not by _checked
            bases, dirs = map(_frozen, _stack(lines))
            self.__dict__.update(bases=bases, dirs=dirs)
        self.__dict__.update(lines=lines)

    @classmethod
    def _checked(cls, bases: np.ndarray, dirs: np.ndarray) -> "Configuration":
        """Lines over frozen (n, 3) stacks that _unit_tangent has already
        checked, kept as the configuration's own bases and dirs."""
        c = object.__new__(cls)
        lines = tuple(map(TangentLine._checked, bases, dirs))
        c.__dict__.update(lines=lines, bases=bases, dirs=dirs)
        c.__post_init__()
        return c

    @cached_property
    def dsq(self) -> np.ndarray:
        return _frozen(pair_dsq(self.bases, self.dirs))

    def __len__(self):
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)

    def __getitem__(self, i):
        return self.lines[i]


def chart_lines(rows) -> Configuration:
    """Tangent lines from (latitude, longitude, tangent angle) rows.

    Row k gives the line make_tangent_line(SphericalPoint(lat, lon), ang)
    would build, longitude reduction included.  Poles are rejected.
    """
    return Configuration._checked(*map(_frozen, _chart_frames(rows)))


def _chart_frames(rows) -> tuple:
    """chart_lines' checked (n, 3) stacks of bases and dirs, without the line objects."""
    lat, lon, ang = np.array(rows, dtype=float).T
    _reject_poles(lat)
    return _unit_tangent(*frames(lat, _reduce_lon(lon), ang))


def min_pairwise_distance(c: Configuration) -> float:
    """Smallest distance over all line pairs of the configuration."""
    return math.sqrt(float(c.dsq.min()))


def chart_rows(lines) -> np.ndarray:
    """(latitude, longitude, tangent angle) rows of tangent lines.

    Inverts chart_lines, with longitudes reduced to [0, 2*pi); rejects
    lines based at a pole, where the tangent angle is undefined.
    """
    rows = []
    for line in lines:
        z = float(line.base[2])
        if abs(z) >= 1.0 - 1e-12:
            raise ValueError("line based at a pole has no chart coordinates")
        phi = math.asin(z)
        (kappa,) = _reduce_lon([math.atan2(float(line.base[1]), float(line.base[0]))]).tolist()
        _, north, east = _basis(phi, kappa)
        rows.append((phi, kappa, math.atan2(float(line.dir @ east), float(line.dir @ north))))
    return np.array(rows)


def radius_from_distance(d: float) -> float:
    """Largest common cylinder radius for lines at pairwise distance d.

    Two unit-ball-tangent cylinders of radius r have axis distance
    (1+r) d and surfaces touching when (1+r) d = 2r, so r = d/(2-d).
    """
    if not d >= 0:
        raise ValueError(f"invalid distance: {d!r}")
    if d >= 2:
        raise ValueError("radius unbounded at distance >= 2")
    return d / (2.0 - d)


def distance_from_radius(r: float) -> float:
    """Line distance at which cylinders of radius r touch: 2r/(1+r)."""
    if not 0 <= r < math.inf:
        raise ValueError(f"invalid radius: {r!r}")
    return 2.0 * r / (1.0 + r)
