"""Derivative-free maximin search over free six-line configurations.

A free configuration is six tangent lines with no imposed symmetry,
charted by 18 coordinates, (latitude, longitude, tangent angle) per
line.  The objective is the smallest pairwise line distance, a nonsmooth
function maximized by coordinate pattern search: poll all 36 coordinate
steps plus 12 random unit directions, move to the best improving
candidate, halve the step when none improves.  Several starts run in
lockstep, one poll evaluation per round for all of them, with results
identical to running them one after another.  A search writes its
rounds into one buffer allocated once, each live start's point and then
its candidates, and each start draws its random directions a block of
rounds at a time.  A round moves to the argmax of its candidates'
distances, taken after the square root: of two candidates whose squared
minima differ but round to one distance, the first wins.  A poll round
measures only the pair distances its steps move (_poll_values); seed
charts and the perturbation probe measure full charts by _charts_dsq,
_BLOCK at a time, and the probe draws its trials a block at a time too.
Both go through one pair-distance kernel, in calls whose temporaries the
allocator keeps.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .lines import (
    Configuration,
    _BLOCK,
    _charts_dsq,
    _count,
    _frame_xyz,
    _pair_kernel,
    _positive_finite,
    _take_index,
    chart_lines,
    chart_rows,
    min_pairwise_distance,
    radius_from_distance,
)
from .symmetric import D3Params, c6_chart
from .curve import build_curve_point

N_LINES = 6
N_COORDS = 3 * N_LINES

_PHI_CAP = math.pi / 2 - 1e-9
# pattern-search step schedule: first step and the step that stops a search
_STEP0, _STEP_MIN = 0.1, 1e-9


@dataclass(frozen=True, eq=False)
class FreeConfig:
    """Chart of six tangent lines: 18 coordinates, three per line in the
    order (latitude, longitude, tangent angle)."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float).reshape(-1)
        if coords.shape != (N_COORDS,):
            raise ValueError(f"chart needs {N_COORDS} coordinates")
        if not np.all(np.isfinite(coords)):
            raise ValueError("chart coordinates must be finite")
        if np.any(np.abs(coords[0::3]) >= math.pi / 2):
            raise ValueError("chart latitudes must lie strictly inside (-pi/2, pi/2)")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)


def config_lines(c: FreeConfig) -> Configuration:
    """Build the six tangent lines of a chart."""
    return chart_lines(c.coords.reshape(N_LINES, 3))


def chart_c6(p: D3Params) -> FreeConfig:
    """Chart of the symmetric six-line family at given angles."""
    return FreeConfig(np.array(c6_chart(p), dtype=float))


def chart_curve(x: float) -> FreeConfig:
    """Chart of the trajectory configuration at parameter x; refused like
    build_curve_point where its lines leave the trajectory."""
    return chart_c6(build_curve_point(x)[0].params)


def chart_record() -> FreeConfig:
    """Chart of the maximizing trajectory configuration."""
    return chart_curve(0.5)


def chart_from_configuration(c: Configuration) -> FreeConfig:
    """Recover a chart from six built tangent lines.

    Inverts config_lines; rejects lines based at a pole, where the chart
    has no angle coordinate.
    """
    if len(c) != N_LINES:
        raise ValueError(f"chart covers configurations of {N_LINES} lines")
    return FreeConfig(chart_rows(c))


def objective(c: FreeConfig) -> float:
    """Smallest pairwise distance of the chart's configuration."""
    return min_pairwise_distance(config_lines(c))


def _objective_batch(coords: np.ndarray) -> np.ndarray:
    """Objective for a (N, 18) batch of charts, returned as (N,); evaluated
    _BLOCK charts at a time, with the same bits as row by row and as objective."""
    c = coords.reshape(-1, N_LINES, 3)
    out = np.empty(len(c))
    for lo in range(0, len(c), _BLOCK):
        np.sqrt(_charts_dsq(c[lo:lo + _BLOCK]).min(axis=0), out=out[lo:lo + _BLOCK])
    return out


def _clip_latitudes(coords: np.ndarray) -> np.ndarray:
    lat = coords[..., 0::3]
    np.clip(lat, -_PHI_CAP, _PHI_CAP, out=lat)
    return coords


@dataclass(frozen=True)
class OptResult:
    """Outcome of a search: best chart, its objective and radius, the
    number of objective evaluations charged, the improvement trace as
    (iteration, objective) pairs, and the d_best each start reached, in
    start order."""

    best: FreeConfig
    d_best: float
    r_best: float
    evals: int
    trace: tuple
    start_d: tuple


# each poll round: the 36 coordinate steps +-e_k, then this many random unit directions
_AXES = np.concatenate([np.eye(N_COORDS), -np.eye(N_COORDS)])
_N_RANDOM = 12


def _poll_tables() -> tuple:
    """Index tables of a poll round's line table and the pairs it measures.

    Per start the table holds 6 + 36 + 72 = 114 lines: the current point's
    six, the one line each axis candidate moves, and the six of each random
    candidate.  Returns each table line's (lat, lon, ang) columns in the row
    [x, cand.ravel()], as (3, 114); the pair kernel's take index of the 375
    distinct pairs of the point and its 48 candidates in their (6, 114) frame
    table; and pair p of every candidate, in row-major i < j order, as an index
    into those 375, pair-major: (15, 48).  Built in plain Python up to the
    take index: each numpy function a process first calls maps in more code.
    """
    n_axes = len(_AXES)
    charts = [list(range(N_LINES))]  # the table row of each line, point first
    for k in range(n_axes):
        rows = list(range(N_LINES))
        rows[k % N_COORDS // 3] = N_LINES + k
        charts.append(rows)
    first = N_LINES + n_axes
    charts += [list(range(first + N_LINES * r, first + N_LINES * (r + 1))) for r in range(_N_RANDOM)]
    cols, pairs, chart_pairs = {}, {}, []
    for c, rows in enumerate(charts):
        for line, row in enumerate(rows):
            cols.setdefault(row, 3 * (N_LINES * c + line))
        chart_pairs.append([pairs.setdefault((rows[i], rows[j]), len(pairs))
                            for i, j in combinations(range(N_LINES), 2)])
    table = [[cols[row] + k for row in range(len(cols))] for k in range(3)]
    take = _take_index(*zip(*pairs), 1, len(cols))
    return np.array(table), take, np.array(list(zip(*chart_pairs[1:])))


_TABLE_COLS, _POLL_INDEX, _CHART_PAIRS = _poll_tables()
# starts per _poll_values call, small enough that the allocator keeps the call's
# temporaries, the kernel's (3, 375, starts) takes and the (15, 48, starts) gather of
# candidate pairs: multi_start(32, 0, 200000) after a warm-up faults about 300 pages
# at 4 starts and 5,000-10,500 at 8 (imported from a bytecode cache)
_POLL_STARTS = 4


def _poll_values(rows: np.ndarray) -> np.ndarray:
    """Objective of the (L, 48, 18) poll candidates rows[:, 1:] around the
    points rows[:, 0], as (L, 48), with the same bits as
    _objective_batch(rows[:, 1:]).

    An axis candidate moves one line, so 10 of its 15 pair distances are
    the point's: each start measures the 375 distinct pairs of its point
    and candidates, not 48 * 15, and every candidate takes the minimum of
    its own 15.  An axis candidate's unmoved lines equal the point's up to
    the sign of a zero coordinate (x + 0.0 turns -0.0 into +0.0), which
    moves no distance.
    """
    out = np.empty((len(rows), rows.shape[1] - 1))
    for lo in range(0, len(rows), _POLL_STARTS):
        src = rows[lo:lo + _POLL_STARTS]
        n = len(src)
        table = np.array(_frame_xyz(src.reshape(n, -1).T.take(_TABLE_COLS, axis=0))).reshape(-1, n)
        # one start's table is one chart's: the kernel's 1-D branch gathers it at once
        dsq = _pair_kernel(table if n > 1 else table.reshape(-1), _POLL_INDEX)
        np.sqrt(dsq.take(_CHART_PAIRS, axis=0).min(axis=0).T, out=out[lo:lo + n])
    return out


# a trace entry, (iteration, objective), as a search keeps it: 16 bytes packed, where a
# tuple of an int and a float takes about 110
_TRACE_ENTRY = struct.Struct("qd")

# start-rounds of poll directions drawn and normalised at a time (8 x 1.7 KB): 8 rounds for
# one start, one for 8 starts or more; a 32-round block raised report-all's peak memory
_DRAW_ROUNDS = 8


def _pattern_search(x0: np.ndarray, budget: int, step0: float, step_min: float, rngs) -> OptResult:
    """Pattern searches from the rows of x0 in lockstep, start i polling
    with rngs[i], merged to one OptResult: the chart, d_best and trace of
    the first start of largest d_best, evals summed over the starts, and
    every start's d_best in start order.

    Every round polls all live starts in one _poll_values call; the
    bookkeeping (move or halve the step, trace, stop test) stays per
    start, so each start takes the path it takes alone.  The live starts
    fill the first rows of one buffer, each row its point and then its
    candidates.  A start's directions come from a block drawn with one
    standard_normal call, which fills it in stream order, so a block
    holds the draws of its rounds one after another.  A start's trace is
    kept packed in one byte buffer, 16 bytes an entry, and only the
    returned start's is unpacked into (iteration, objective) pairs.
    """
    budget = _count("budget", budget, 1)
    rows = np.empty((len(x0), 1 + len(_AXES) + _N_RANDOM, N_COORDS))
    rows[:, 0] = x0
    x = _clip_latitudes(rows[:, 0])
    f = _objective_batch(x).tolist()
    step = np.full(len(x), float(step0))
    live = list(range(len(x)))  # the start behind each row of rows, f and step
    traces = [bytearray(_TRACE_ENTRY.pack(0, v)) for v in f]
    ends = [None] * len(x)  # each start's final chart, d_best and evals
    dirs, r = np.empty((len(x), 0, _N_RANDOM, N_COORDS)), 0  # drawn per live start; next round
    evals, iteration = 1, 0  # every live start has run the same rounds
    while live:
        going = [s >= step_min and evals < budget for s in step.tolist()]
        if not all(going):
            for j, i in enumerate(live):
                if not going[j]:
                    best = FreeConfig(x[j])
                    ends[i] = (best, objective(best), evals)
            rows[:sum(going), 0] = x[going]
            step, dirs = step[going], dirs[going]
            f = [v for v, g in zip(f, going) if g]
            live = [i for i, g in zip(live, going) if g]
            x = rows[:len(live), 0]
            if not live:
                break
        if r == dirs.shape[1]:
            rounds = max(1, _DRAW_ROUNDS // len(live))
            r, dirs = 0, np.empty((len(live), rounds, _N_RANDOM, N_COORDS))
            for j, i in enumerate(live):
                rngs[i].standard_normal(out=dirs[j])
            dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        cand = rows[:len(live), 1:]
        np.multiply(_AXES, step[:, None, None], out=cand[:, :len(_AXES)])
        np.multiply(dirs[:, r], step[:, None, None], out=cand[:, len(_AXES):])
        iteration, r = iteration + 1, r + 1
        cand += x[:, None]
        _clip_latitudes(cand)
        values = _poll_values(rows[:len(live)])
        evals += cand.shape[1]
        for j, k in enumerate(values.argmax(axis=1).tolist()):
            if values[j, k] > f[j]:
                x[j] = cand[j, k]
                f[j] = float(values[j, k])
                traces[live[j]] += _TRACE_ENTRY.pack(iteration, f[j])
            else:
                step[j] *= 0.5
    start_d = tuple(d for _, d, _ in ends)
    k = max(range(len(ends)), key=start_d.__getitem__)  # the first of equal maxima
    best, d, _ = ends[k]
    return OptResult(best, d, radius_from_distance(d), sum(e for *_, e in ends),
                     tuple(_TRACE_ENTRY.iter_unpack(traces[k])), start_d)


def local_maximize(
    seed: FreeConfig,
    budget: int,
    step0: float = _STEP0,
    step_min: float = _STEP_MIN,
    rng_seed: int = 0,
) -> OptResult:
    """Pattern-search ascent from one seed chart.

    Deterministic for fixed arguments; stops when the step drops below
    step_min or the evaluation budget is spent (the final poll batch may
    overrun it by at most one batch).  The reported d_best is recomputed
    with the scalar distance on the returned chart, and equals the last
    trace value, since every chart path frames the same coordinates alike.
    """
    _positive_finite("step0", step0)
    _positive_finite("step_min", step_min)
    rngs = [np.random.default_rng(rng_seed)]
    return _pattern_search(seed.coords[None], budget, step0, step_min, rngs)


def multi_start(n_starts: int, rng_seed: int, budget_each: int) -> OptResult:
    """Independent pattern searches merged to the best result.

    The first three starts seed from trajectory configurations at
    x = 0.9, 0.7, 0.5; the rest jitter the initial configuration's chart
    with Gaussian noise of spread 0.2.  Start i draws its noise and its
    poll directions from its own stream seeded rng_seed + i, so any
    prefix of starts is reproducible.  The starts run in lockstep, one
    objective batch per poll round for all of them, with results
    identical to running them one after another.  Ties in the merge go
    to the lower start index; evals is the total across starts; the
    trace is the winning start's; start_d lists every start's d_best.
    """
    n_starts = _count("n_starts", n_starts, 1)
    curve_xs = (0.9, 0.7, 0.5)
    base = chart_c6(D3Params(0.0, 0.0, 0.0)).coords
    rngs = [np.random.default_rng(rng_seed + i) for i in range(n_starts)]
    x0 = [
        chart_curve(curve_xs[i]).coords if i < len(curve_xs)
        else _clip_latitudes(base + 0.2 * rng.standard_normal(N_COORDS))
        for i, rng in enumerate(rngs)
    ]
    return _pattern_search(np.stack(x0), budget_each, _STEP0, _STEP_MIN, rngs)


def perturbation_probe(c: FreeConfig, radius: float, trials: int, rng_seed: int = 0) -> dict:
    """Sample uniform coordinate perturbations of a chart within a box
    of the given radius and report the best objective found and the
    fraction of trials that beat the unperturbed value.  Trials are drawn
    and evaluated _BLOCK at a time, in memory flat in trials: the same
    stream of draws, and the same report bit for bit, as one batch."""
    _positive_finite("perturbation radius", radius)
    trials = _count("trials", trials, 1)
    rng = np.random.default_rng(rng_seed)
    f0 = float(_objective_batch(c.coords[None])[0])
    best, exceed = -np.inf, 0
    for lo in range(0, trials, _BLOCK):
        cand = c.coords + rng.uniform(-radius, radius, (min(_BLOCK, trials - lo), N_COORDS))
        values = _objective_batch(_clip_latitudes(cand))
        best = np.maximum(best, values.max())  # carries a NaN through, as max() does
        exceed += int(np.count_nonzero(values > f0))
    return {
        "objective": f0,
        "radius": float(radius),
        "trials": trials,
        "rng_seed": int(rng_seed),
        "max_found": float(best),
        "exceed_fraction": exceed / trials,
    }
