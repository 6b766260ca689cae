"""Derivative-free maximin search over free six-line configurations.

A free configuration is six tangent lines with no imposed symmetry,
charted by 18 coordinates, (latitude, longitude, tangent angle) per
line.  The objective is the smallest pairwise line distance, a nonsmooth
function maximized by coordinate pattern search: poll all 36 coordinate
steps plus 12 random unit directions, move to the best improving
candidate, halve the step when none improves.  The searches and the
perturbation probe evaluate candidates in vectorized batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lines import (
    Configuration,
    _frame_xyz,
    _pair_dsq_xyz,
    chart_lines,
    chart_rows,
    min_pairwise_distance,
    radius_from_distance,
)
from .symmetric import D3Params, c6_chart
from .curve import gamma_point

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
    """Chart of the trajectory configuration at parameter x."""
    return chart_c6(gamma_point(x).params)


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
    """Objective for a (N, 18) batch of charts, returned as (N,)."""
    c = coords.reshape(-1, N_LINES, 3)
    return np.sqrt(_pair_dsq_xyz(*_frame_xyz(c[..., 0], c[..., 1], c[..., 2])).min(axis=-1))


def _clip_latitudes(coords: np.ndarray) -> np.ndarray:
    coords[..., 0::3] = np.clip(coords[..., 0::3], -_PHI_CAP, _PHI_CAP)
    return coords


@dataclass(frozen=True)
class OptResult:
    """Outcome of a search: best chart, its objective and radius, the
    number of objective evaluations charged, and the improvement trace
    as (iteration, objective) pairs."""

    best: FreeConfig
    d_best: float
    r_best: float
    evals: int
    trace: tuple


def _pattern_search(x0: np.ndarray, budget: int, step0: float, step_min: float, rng) -> OptResult:
    x = _clip_latitudes(np.array(x0, dtype=float))
    f = float(_objective_batch(x[None])[0])
    evals = 1
    step = step0
    trace = [(0, f)]
    iteration = 0
    eye = np.eye(N_COORDS)
    while step >= step_min and evals < budget:
        iteration += 1
        rand = rng.standard_normal((12, N_COORDS))
        rand /= np.linalg.norm(rand, axis=1, keepdims=True)
        cand = np.concatenate([x + step * eye, x - step * eye, x + step * rand])
        _clip_latitudes(cand)
        values = _objective_batch(cand)
        evals += len(cand)
        k = int(np.argmax(values))
        if values[k] > f:
            x = cand[k]
            f = float(values[k])
            trace.append((iteration, f))
        else:
            step *= 0.5
    best = FreeConfig(x)
    d = objective(best)
    return OptResult(best, d, radius_from_distance(d), evals, tuple(trace))


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
    with the scalar distance on the returned chart.
    """
    if budget < 1:
        raise ValueError(f"evaluation budget must be positive: {budget!r}")
    rng = np.random.default_rng(rng_seed)
    return _pattern_search(seed.coords, int(budget), step0, step_min, rng)


def multi_start(n_starts: int, rng_seed: int, budget_each: int) -> OptResult:
    """Independent pattern searches merged to the best result.

    The first three starts seed from trajectory configurations at
    x = 0.9, 0.7, 0.5; the rest jitter the initial configuration's chart
    with Gaussian noise of spread 0.2.  Start i draws its noise and its
    poll directions from its own stream seeded rng_seed + i, so any
    prefix of starts is reproducible; ties in the merge go to the lower
    start index.  evals is the total across starts; the trace is the
    winning start's.
    """
    if n_starts < 1:
        raise ValueError(f"need at least one start: {n_starts!r}")
    if budget_each < 1:
        raise ValueError(f"evaluation budget must be positive: {budget_each!r}")
    curve_xs = (0.9, 0.7, 0.5)
    base = chart_c6(D3Params(0.0, 0.0, 0.0)).coords
    best, evals = None, 0
    for i in range(n_starts):
        rng = np.random.default_rng(rng_seed + i)
        if i < len(curve_xs):
            x0 = chart_curve(curve_xs[i]).coords
        else:
            x0 = _clip_latitudes(base + 0.2 * rng.standard_normal(N_COORDS))
        result = _pattern_search(x0, int(budget_each), _STEP0, _STEP_MIN, rng)
        evals += result.evals
        # keep only the best so far (the lower start on ties), so the other traces are freed
        if best is None or result.d_best > best.d_best:
            best = result
    return replace(best, evals=evals)


def perturbation_probe(c: FreeConfig, radius: float, trials: int, rng_seed: int = 0) -> dict:
    """Sample uniform coordinate perturbations of a chart within a box
    of the given radius and report the best objective found and the
    fraction of trials that beat the unperturbed value."""
    if not 0 < radius < math.inf:
        raise ValueError(f"perturbation radius must be positive and finite: {radius!r}")
    if trials < 1:
        raise ValueError(f"need at least one trial: {trials!r}")
    rng = np.random.default_rng(rng_seed)
    cand = c.coords + rng.uniform(-radius, radius, (int(trials), N_COORDS))
    _clip_latitudes(cand)
    values = _objective_batch(cand)
    f0 = float(_objective_batch(c.coords[None])[0])
    return {
        "objective": f0,
        "radius": float(radius),
        "trials": int(trials),
        "rng_seed": int(rng_seed),
        "max_found": float(values.max()),
        "exceed_fraction": float(np.mean(values > f0)),
    }
