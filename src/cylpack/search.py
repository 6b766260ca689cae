"""SQP maximin search over free configurations of n >= 2 lines.

A free configuration is n tangent lines with no imposed symmetry, charted by 3n coordinates,
(latitude, longitude, tangent angle) per line: a lines.FreeConfig, the Configuration framed from
its chart, and lines.chart_from_configuration charts given lines.  Each function reads n from its
chart.  Its smallest pairwise line distance, a nonsmooth function, is maximized as max t subject
to d^2_ij >= t by sequential quadratic programming over the 3n - 3 coordinates of lines 1 to
n - 1 (_sqp), each step's QP solved in numpy without LAPACK (_dual_qp), the starts of a search in
lockstep (_lockstep).  A chart is any 3n finite numbers: latitudes run unbounded as longitudes and
angles do, and every start returns the chart it walked to.  multi_start searches six-line charts,
and certify tells an end at a first-order local maximum from one beside a nearly parallel pair or
stalled.  The lockstep measures each round's live starts by _dsq_slopes, and the perturbation
probe its trials by _charts_dsq, both _BLOCK at a time, in calls whose temporaries the allocator
keeps.  _SEARCH_RUN and _PROBE_RUN state once the two runs report-all verifies, which the CLI's
optimize and probe make with no flags.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lines import (FreeConfig, _BLOCK, _charts_dsq, _count, _dsq_slopes, _frozen, _pairs, _positive_finite,
                    min_pairwise_distance, radius_from_distance)
from .symmetric import D3Params, build_c6
from .curve import _RECORD_CLOSED, build_curve_point

# trust-radius schedule: the first radius and the one that stops a search
_STEP0, _STEP_MIN = 0.1, 1e-9


def chart_record() -> FreeConfig:
    """Chart of the maximizing trajectory configuration, at the record's x."""
    return build_curve_point(_RECORD_CLOSED["x"])[1]


@dataclass(frozen=True)
class OptResult:
    """Outcome of a search: best chart, the one the returned start walked to, its objective (the
    trace's last value) and radius, charts measured, the improvement trace as (step, objective)
    pairs, why the returned start stopped ("step": the trust radius fell below step_min; "budget";
    "steps": _MAX_STEPS; none certifies an optimum, certify does), and each start's walked chart,
    best among them, whose objective is that start's d_best: each start is kept once."""

    best: FreeConfig
    d_best: float
    r_best: float
    evals: int
    trace: tuple
    stop: str
    ends: tuple


# the Jacobian's forward-difference step; and the cap on steps: uncapped, a tenth of 80
# bench-drawn blind starts ran past 370 steps and one to 3368, while the median (142) did not move
_H = 1e-7
_MAX_STEPS = 300
# an entering pivot at or below this fraction of its diagonal entry counts as singular
_PIVOT = 1e-12
_MAX_STARTS = 1024  # multi_start's lockstep holds every start's state at once, about 24 KB a start
# the runs report-all verifies, as keywords of multi_start and of perturbation_probe at chart_record()
_SEARCH_RUN = {"n_starts": 29, "rng_seed": 0, "budget_each": 200000}
_PROBE_RUN = {"radius": 1e-3, "trials": 10000, "rng_seed": 0}


@lru_cache(maxsize=8)
def _tableau(pairs: int) -> np.ndarray:
    """The dual QP's tableau [0 | I | 1 | 1] for the pairs, before Q + rho and -f fill it."""
    return _frozen(np.hstack((np.zeros((pairs, pairs)), np.eye(pairs), np.ones((pairs, 2)))))


def _pivot(t: np.ndarray, r: int, c: int, floor: float = 0.0) -> bool:
    """One Gauss-Jordan pivot of t on entry (r, c), in place; False, t unchanged, if not above floor."""
    p = t[r, c]
    if not p > floor:
        return False
    col = t[:, c] * (1.0 / p)
    col[r] = 1.0 - 1.0 / p  # row r becomes row r / p
    t -= np.multiply.outer(col, t[r])
    return True


def _dual_qp(q: np.ndarray, f: np.ndarray, z: np.ndarray, free: list) -> None:
    """Solve the QP dual min lam . f + lam . Q lam / 2 over the simplex by a primal active set,
    updating z (lam, feasible, then the simplex multiplier) and free (lam's support) in place.
    Q_FF is singular at a maximin point (G^T lam = 0), but on 1 . lam = 1 its minimizer is that of
    A = Q_FF + rho 1 1^T.  The tableau [Q + rho | I | 1 | -f] pivoted on F's columns holds u = A^-1 1
    and v = -A^-1 f_F on F's rows, whence lam_F = v - mu u, mu = (1 . v - 1) / (1 . u), multiplier
    mu + rho; off F, mu u - v is each multiplier of lam >= 0.  An entry enters by a pivot on its
    column (a singular one ends the solve) and leaves by one on its identity column; the final lam
    is refined once, as Gauss-Jordan leaves residuals near cond(A) times rounding.  No LAPACK."""
    n, diag = len(f), q.diagonal().tolist()
    rho = sum(diag) / n
    t = _tableau(n).copy()
    np.add(q, rho, out=t[:, :n])
    np.negative(f, out=t[:, -1])
    floor = [_PIVOT * (d + rho) for d in diag]
    for k in free:
        if not _pivot(t, k, k, floor[k]):
            return
    for _ in range(4 * n):
        idx = np.array(free)
        ul, vl = t[:, -2:].take(idx, axis=0).T.tolist()  # u and v on F, in free's order
        su = sum(ul)
        mu = (sum(vl) - 1.0) / su
        target = [v - mu * u for u, v in zip(ul, vl)]
        if min(target) < 0.0:  # step toward target until an entry reaches zero; fix it there
            cur, target = z.take(idx), np.array(target)
            down = np.flatnonzero(target < cur)
            k = down[int((cur[down] / (cur[down] - target[down])).argmin())]
            z[idx] = cur + cur[k] / (cur[k] - target[k]) * (target - cur)
            z[idx[k]] = 0.0
            del free[k]
            if not _pivot(t, idx[k], n + idx[k]):  # A^-1's diagonal is positive; never seen
                return
            continue
        z[idx], z[n] = target, mu + rho
        r = t[:, -1] - mu * t[:, -2]
        r[idx] = 0.0
        k = int(r.argmax())
        if r[k] > 1e-12 and _pivot(t, k, k, floor[k]):
            free.append(k)
            continue
        # A^-1 times the residual Q lam + mu + f, from the identity block's rows on F
        y = (t[:, n:2 * n] @ (q @ z[:n] + (z[n] + f))).take(idx).tolist()
        short = 1.0 - sum(target)
        dmu = (sum(y) + short) / su
        fixed = [a - b + dmu * u for a, b, u in zip(target, y, ul)]
        if min(fixed) > 0.0:
            z[idx], z[n] = fixed, z[n] - dmu + rho * short
        return


def _sqp(x0: np.ndarray, budget: int, step0: float, step_min: float) -> tuple:
    """SQP ascent of max t subject to d^2_ij(x) >= t over the coordinates of lines 1 to n - 1
    (Nocedal & Wright, Numerical Optimization, ch. 18); line 0 stays, fixing the rotations.  A
    generator: it yields each chart to measure, takes back _dsq_slopes' values for it, and returns
    the final chart, trace, charts measured (len(x0) - 2 a step: the point and one moved copy per
    free coordinate) and stop reason.  Each step solves the QP's dual (_dual_qp), Q = G H G^T
    for the Jacobian G and H the BFGS inverse Hessian of the Lagrangian, for p = H G^T lam, capped
    in max-norm by the trust radius; the trial is accepted only if its min d^2 strictly rises.  An
    accepted step doubles the radius from |p| (to at most 1 when p hit it), a rejected one halves
    it.  H and G meet only in np.vecdot and matrix-vector @, and no step calls LAPACK."""
    x = np.array(x0, dtype=float)
    f, g = yield x
    n, fmin = len(f), float(f.min())
    trace = array("d", (0, math.sqrt(fmin)))  # (step, objective) pairs, flat
    h, per_step = np.eye(len(x) - 3), len(x) - 2
    q, z = np.empty((n, n)), np.zeros(n + 1)
    lam, free = z[:n], [int(f.argmin())]
    lam[free] = 1.0
    radius, evals, steps = float(step0), per_step, 0
    full = None  # the QP step at x, kept while trials from x are rejected
    while True:
        stop = "step" if not radius >= step_min else "budget" if evals >= budget else (
            "steps" if steps >= _MAX_STEPS else None)
        if stop:
            return x, trace, evals, stop
        if full is None:
            gh = np.vecdot(g[:, None], h)
            np.vecdot(gh[:, None], g, out=q)
            _dual_qp(q, f, z, free)
            full = lam @ gh
            size, gh = float(np.abs(full).max()), None  # a start keeps no more than it needs
        trial = x.copy()
        trial[3:] += full * (radius / size) if size > radius else full
        f_new, g_new = yield trial
        evals, steps = evals + per_step, steps + 1
        step, new_min = min(size, radius), float(f_new.min())
        if not new_min > fmin:
            radius = step / 2
            continue
        s = trial[3:] - x[3:]
        y = lam @ (g - g_new)
        sy = float(s @ y)
        if sy > 1e-12 * float(s @ s):
            hy = h @ y
            w = (0.5 + 0.5 * float(y @ hy) / sy) / sy * s - hy / sy
            h += np.multiply.outer(w, s) + np.multiply.outer(s, w)  # inverse BFGS, exactly symmetric
        radius = min(2 * step, 1.0) if size >= radius else max(2 * step, step_min)
        x, f, g, fmin, full = trial, f_new, g_new, new_min, None
        trace.extend((steps, math.sqrt(fmin)))


def _lockstep(seeds: list, budget: int, step0: float, step_min: float) -> OptResult:
    """_sqp from each seed chart's coordinates, each round measuring the live starts' charts _BLOCK
    at a time in _dsq_slopes calls, with the bits each gets alone; each start's walked end, merged to
    the first start of largest d_best, its trace's last value (min_pairwise_distance's bits: _dsq_slopes
    frames as FreeConfig does), with evals summed and every start's walked chart."""
    runs = [_sqp(seed, budget, step0, step_min) for seed in seeds]
    ends, live, charts = [None] * len(runs), list(range(len(runs))), [next(run) for run in runs]
    while live:
        rows = np.reshape(charts, (len(charts), -1, 3))
        going, charts = [], []
        for lo in range(0, len(live), _BLOCK):
            f, g = _dsq_slopes(rows[lo:lo + _BLOCK], _H)
            for j, i in enumerate(live[lo:lo + _BLOCK]):
                try:  # copies, so that no start holds a whole block's arrays
                    charts.append(runs[i].send((f[j].copy(), g[j].copy())))
                    going.append(i)
                except StopIteration as end:
                    ends[i] = end.value
        live, f, g = going, None, None
    k = max(range(len(ends)), key=lambda i: ends[i][1][-1])  # the first of equal maxima
    charts = tuple(FreeConfig(e[0]) for e in ends)
    _, trace, _, stop = ends[k]
    return OptResult(charts[k], trace[-1], radius_from_distance(trace[-1]), sum(e[2] for e in ends),
                     tuple(zip(map(int, trace[::2]), trace[1::2])), stop, charts)


def local_maximize(seed: FreeConfig, budget: int, step0: float = _STEP0, step_min: float = _STEP_MIN,
                   rng_seed: int = 0) -> OptResult:
    """SQP ascent from one seed chart (_sqp): step0 is the first trust radius and step_min the
    smallest; budget counts charts measured, 3n - 2 a step for n lines, and the last step may overrun
    it.  best is the chart the walk ended at, and d_best = min_pairwise_distance(best) is the trace's
    last value, at least that of seed, since a step is taken only if min d^2 strictly rises.
    rng_seed is unchecked and unread, as the solver draws no random numbers; bench/workloads.py
    passes it."""
    _positive_finite("step0", step0)
    _positive_finite("step_min", step_min)
    budget = _count("budget", budget, 1)
    return _lockstep([seed.coords], budget, step0, step_min)


def multi_start(n_starts: int, rng_seed: int, budget_each: int) -> OptResult:
    """Independent SQP ascents of 1 to 1024 six-line charts in lockstep (_lockstep), merged to the
    best result.  Start i jitters the untilted chart with Gaussian noise of spread 0.2 from
    default_rng([i, rng_seed]), rng_seed an integer >= 0: any prefix of starts is reproducible, and
    no two seeds share a start.  Ties go to the lower start; evals is the total; the trace and stop
    reason are the winner's; ends holds every start's walked chart, in start order."""
    n_starts = _count("n_starts", n_starts, 1)
    if n_starts > _MAX_STARTS:
        raise ValueError(f"n_starts must be at most {_MAX_STARTS}: {n_starts}")
    rng_seed = _count("rng_seed", rng_seed, 0)
    budget_each = _count("budget", budget_each, 1)
    base = build_c6(D3Params(0.0, 0.0, 0.0)).coords
    seeds = [base + 0.2 * np.random.default_rng([i, rng_seed]).standard_normal(len(base)) for i in range(n_starts)]
    return _lockstep(seeds, budget_each, _STEP0, _STEP_MIN)


def certify(c: FreeConfig) -> dict:
    """First-order certificate of a chart as a local maximum of its smallest distance: there the
    active gradients of d^2 balance with weights lam >= 0 on the simplex (Ogievetsky & Shlosman,
    Russian Math. Surveys 74, 2019).  The near-active pairs A are those with d^2 <= min d^2 (1 + 1e-3);
    G_A, over the coordinates of lines 1 to n - 1, is the mean of _dsq_slopes at h = +-1e-6, a central
    difference; lam solves _dual_qp on Q = G_A G_A^T, f = d^2_A - min d^2.  Reports d, the pairs
    (i, j) of A, lam, the residual |G_A^T lam| / max(1, |G_A|_F), the smallest sin^2 of the angle
    between an active pair's lines, and class: "parallel" if that sin^2 <= 1e-2, tested first, as
    d^2 is not smooth at parallel pairs; else "kkt" if the residual <= 1e-6; else "stalled"."""
    rows = c.coords.reshape(1, -1, 3)
    (f,), (up,) = _dsq_slopes(rows, 1e-6)
    _, (down,) = _dsq_slopes(rows, -1e-6)
    fmin = float(f.min())
    active = np.flatnonzero(f <= fmin * (1.0 + 1e-3))
    g = (up[active] + down[active]) / 2
    z, free = np.zeros(len(active) + 1), [int(f[active].argmin())]
    z[free] = 1.0
    _dual_qp(np.vecdot(g[:, None], g), f[active] - fmin, z, free)  # no BLAS gemm, as in _sqp
    lam = z[:-1]
    balance = lam @ g
    residual = math.sqrt(float(balance @ balance)) / max(1.0, math.sqrt(float((g * g).sum())))
    pairs = np.array(_pairs(rows.shape[1]))[active]
    dirs = c.table[:, 3:]
    cross = np.cross(dirs[pairs[:, 0]], dirs[pairs[:, 1]])
    sin_sq = float((cross * cross).sum(axis=1).min())
    return {"d": math.sqrt(fmin), "pairs": pairs.tolist(), "lam": lam.tolist(),
            "residual": residual, "sin_sq": sin_sq,
            "class": "parallel" if sin_sq <= 1e-2 else "kkt" if residual <= 1e-6 else "stalled"}


def perturbation_probe(c: FreeConfig, radius: float, trials: int, rng_seed: int = 0) -> dict:
    """Sample uniform coordinate perturbations of a chart within a box
    of the given radius and report the best objective found and the
    fraction of trials that beat the unperturbed value.  Trials are drawn
    and evaluated _BLOCK at a time, in memory flat in trials: the same
    stream of draws, and the same report bit for bit, as one batch."""
    _positive_finite("radius", radius)
    if 2.0 * radius == math.inf:
        raise ValueError(f"radius must keep the box width 2 * radius finite: {radius!r}")
    trials = _count("trials", trials, 1)
    rng_seed = _count("rng_seed", rng_seed, 0)
    rng = np.random.default_rng(rng_seed)
    f0 = min_pairwise_distance(c)
    best, exceed = -np.inf, 0
    for lo in range(0, trials, _BLOCK):
        cand = c.coords + rng.uniform(-radius, radius, (min(_BLOCK, trials - lo), len(c.coords)))
        values = np.sqrt(_charts_dsq(cand.reshape(len(cand), -1, 3)).min(axis=0))
        best = np.maximum(best, values.max())  # carries a NaN through, as max() does
        exceed += int(np.count_nonzero(values > f0))
    return {"objective": f0, "radius": float(radius), "trials": trials, "rng_seed": rng_seed,
            "max_found": float(best), "exceed_fraction": exceed / trials}
