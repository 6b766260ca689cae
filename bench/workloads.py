"""Workload processes of the cylpack benchmark.

Run by bench/run.py as a fresh interpreter per workload, with
PYTHONPATH pointing at the checkout's src/ and numpy's thread pools held
to one thread.  Each entry point prints one JSON document on its last
stdout line and exits 0; a crash or a non-zero exit is a benchmark error,
never a measurement.

    python3 bench/workloads.py search --seed N --seconds S
    python3 bench/workloads.py trajectory --seed N --seconds S
    python3 bench/workloads.py layers --seed N --seconds S
    python3 bench/workloads.py acceptance

Timing wraps the public functions of cylpack from the outside; nothing
inside the package is patched.  --seconds sets how much work a run does,
not when it stops: see work_count.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import statistics
import sys
import time
from collections import Counter

import numpy as np

import cylpack
from calibration import INTERVAL_S, sample
from cylpack import acceptance
from cylpack import (
    D3Params,
    FreeConfig,
    SphericalPoint,
    alg_coords,
    build_c6,
    c6_chart,
    chart_c6,
    chart_record,
    distance_sq,
    gamma_point,
    local_maximize,
    make_tangent_line,
    min_pairwise_distance,
    objective,
    perturbation_probe,
    radius_from_distance,
    triplets_alg,
    triplets_generic,
    triplets_trig,
)

D_RECORD = math.sqrt(12.0 / 11.0)
RECORD_TOL = 1e-9
SEARCH_BUDGET = 200000
START_SPREAD = 0.2
# multi_start's latitude clip, so a jittered start is always a valid chart
PHI_CAP = math.pi / 2 - 1e-9
FORMULA_RTOL = 1e-10
MIN_DISTANCE_RTOL = 1e-9
# every tenth trajectory point is drawn log-uniformly from this range
TAIL_LOG10 = (-6.0, -2.0)
# about the operations per second of the machine the benchmark was built
# on (2-core Xeon at 2.0 GHz), which ran 600 to 900 points and, over a
# hundred starts, 5 to 9 blind starts a second
POINTS_PER_S = 700.0
STARTS_PER_S = 6.0
# the traced suite runs its trajectory points in blocks, untraced and traced
TRACE_BLOCK = 64

clock = time.perf_counter


# ---------------------------------------------------------------- inputs


def work_count(seconds: float, per_second: float) -> int:
    """How many operations a run of `seconds` does: a fixed number, not as
    many as fit in the time.  A seed then always attempts the same inputs,
    so runs of the same code count the same failures at any machine speed;
    a run takes about `seconds` on the machine the rates were taken on."""
    return max(1, round(seconds * per_second))


def trajectory_xs(seed: int, n: int) -> np.ndarray:
    """The first n trajectory parameters of a seed, all in (0, 1].

    Nine in ten are uniform on (0, 1]; every tenth (index 9, 19, ...) is
    log-uniform on [1e-6, 1e-2], where gamma_point is known to fail.  A
    prefix does not depend on n.
    """
    rng = np.random.default_rng([seed, 0])
    draws = rng.random((n, 2))
    xs = 1.0 - draws[:, 0]
    tail = np.arange(n) % 10 == 9
    lo, hi = TAIL_LOG10
    xs[tail] = 10.0 ** (lo + (hi - lo) * draws[tail, 1])
    return xs


def _untilted_chart() -> np.ndarray:
    return chart_c6(D3Params(0.0, 0.0, 0.0)).coords


def search_start(seed: int, index: int, base: np.ndarray) -> tuple:
    """Start `index` of a seed: (jittered chart coordinates, poll seed).

    Drawn like multi_start's random starts: the untilted chart plus
    Gaussian noise of spread 0.2, latitudes clipped; no trajectory seeds.
    """
    rng = np.random.default_rng([seed, 1, index])
    x0 = base + START_SPREAD * rng.standard_normal(base.shape)
    x0[0::3] = np.clip(x0[0::3], -PHI_CAP, PHI_CAP)
    return x0, int(rng.integers(2**31))


# ---------------------------------------------------------------- tracing


def direct(name, fn, *args):
    """Untraced call, the same signature as Tracer.call."""
    return fn(*args)


class Tracer:
    """In-memory spans [name, start, end, parent index, error type]."""

    def __init__(self):
        self.spans = []
        self.current = -1

    def call(self, name, fn, *args):
        span = [name, clock(), 0.0, self.current, None]
        self.current = len(self.spans)
        self.spans.append(span)
        try:
            return fn(*args)
        except Exception as exc:
            span[4] = type(exc).__name__
            raise
        finally:
            span[2] = clock()
            self.current = span[3]

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def errors(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[4] is not None)


def span_cost_s(repeats: int = 20000) -> float:
    """Cost of one span over a direct call, from timing an empty function."""

    def noop():
        return None

    tracer = Tracer()
    best = math.inf
    for _ in range(5):
        t0 = clock()
        for _ in range(repeats):
            tracer.call("noop", noop)
        traced = clock() - t0
        tracer.spans.clear()
        t0 = clock()
        for _ in range(repeats):
            direct("noop", noop)
        best = min(best, (traced - (clock() - t0)) / repeats)
    return max(best, 0.0)


# ---------------------------------------------------------------- operations


def _rel(a: float, b: float, scale: float) -> float:
    return abs(a - b) / scale


def trajectory_point(x: float, call=direct) -> bool:
    """One trajectory point: sample, build, distance, radius and the three
    distance formulations.  Returns whether every output check holds;
    raises whatever the package raises."""
    sample = call("curve.gamma_point", gamma_point, x)
    p = sample.params
    config = call("symmetric.build_c6", build_c6, p)
    d = call("lines.min_pairwise_distance", min_pairwise_distance, config)
    call("lines.radius_from_distance", radius_from_distance, d)
    trig = call("symmetric.triplets_trig", triplets_trig, p)
    coords = call("symmetric.alg_coords", alg_coords, p)
    alg = call("symmetric.triplets_alg", triplets_alg, coords)
    gen = call("symmetric.triplets_generic", triplets_generic, p)
    worst = 0.0
    for a, b, c in zip(
        (trig.dab_sq, trig.dad_sq, trig.dbd_sq), alg, (gen.dab_sq, gen.dad_sq, gen.dbd_sq)
    ):
        scale = max(abs(a), abs(b), abs(c), 1e-6)
        worst = max(worst, _rel(a, b, scale), _rel(b, c, scale))
    worst = max(worst, _rel(trig.dae_sq, gen.dae_sq, max(trig.dae_sq, gen.dae_sq, 1e-6)))
    want = min(sample.f_value, trig.dae_sq)
    return worst <= FORMULA_RTOL and _rel(d * d, want, max(want, 1e-300)) <= MIN_DISTANCE_RTOL


def search_one(x0: np.ndarray, poll_seed: int, call=direct) -> dict:
    """One blind start through local_maximize, with its output checks."""
    chart = FreeConfig(x0)
    f0 = objective(chart)
    result = call("search.local_maximize", local_maximize, chart, SEARCH_BUDGET, 0.1, 1e-9, poll_seed)
    d = result.d_best
    recheck = call("search.objective", objective, result.best)
    ok = (
        recheck == d
        and result.r_best == radius_from_distance(d)
        and d >= f0 - 1e-12 * max(1.0, abs(f0))
    )
    return {"ok": ok, "d": d, "evals": result.evals}


# ---------------------------------------------------------------- workloads


def _tally() -> dict:
    return {"attempted": 0, "raised": Counter(), "mismatched": 0}


def run_point(x: float, call, tally: dict):
    """Run one trajectory point and count its outcome in tally; return its
    latency in seconds when every check held, else None."""
    tally["attempted"] += 1
    t0 = clock()
    try:
        ok = call("trajectory.point", trajectory_point, x, call)
    except Exception as exc:  # a raising point is a failed operation
        tally["raised"][type(exc).__name__] += 1
        return None
    elapsed = clock() - t0
    if not ok:
        tally["mismatched"] += 1
        return None
    return elapsed


class Calibrator:
    """Times the reference kernel between operations, at most once per
    INTERVAL_S, so the samples follow the machine's speed through a run
    and each operation can be scaled by the samples on either side of it."""

    def __init__(self):
        self.samples = [sample()]
        self.last = clock()
        self.marks = []

    def between_ops(self):
        if clock() - self.last >= INTERVAL_S:
            self.samples.append(sample())
            self.last = clock()

    def mark(self):
        """Note an operation that completed since the last sample."""
        self.marks.append(len(self.samples) - 1)

    def around_marks(self) -> list:
        """Takes a last sample; returns, for each marked operation, the mean
        of the kernel samples just before and just after it."""
        self.samples.append(sample())
        return [(self.samples[i] + self.samples[i + 1]) / 2 for i in self.marks]


def run_trajectory(seed: int, seconds: float) -> dict:
    tally, times, cal = _tally(), [], Calibrator()
    start = clock()
    for x in trajectory_xs(seed, work_count(seconds, POINTS_PER_S)).tolist():
        cal.between_ops()
        elapsed = run_point(x, direct, tally)
        if elapsed is not None:
            times.append(elapsed)
            cal.mark()
    elapsed = clock() - start
    return {
        "elapsed_s": elapsed,
        "op_times_s": times,
        "op_kernel_s": cal.around_marks(),
        "calibration_s": cal.samples,
        **tally,
    }


def run_search(seed: int, seconds: float, call=direct) -> dict:
    base = _untilted_chart()
    tally, times, ds, evals, cal = _tally(), [], [], [], Calibrator()
    start = clock()
    for index in range(work_count(seconds, STARTS_PER_S)):
        cal.between_ops()
        x0, poll_seed = search_start(seed, index, base)
        tally["attempted"] += 1
        t0 = clock()
        try:
            out = call("search.start", search_one, x0, poll_seed, call)
        except Exception as exc:  # a raising start is a failed operation
            tally["raised"][type(exc).__name__] += 1
            continue
        elapsed = clock() - t0
        if not out["ok"]:
            tally["mismatched"] += 1
            continue
        times.append(elapsed)
        cal.mark()
        ds.append(out["d"])
        evals.append(out["evals"])
        if out["d"] > D_RECORD + RECORD_TOL:
            print(
                f"FINDING: seed {seed} start {index} reached d = {out['d']!r}, "
                f"above sqrt(12/11) = {D_RECORD!r}",
                file=sys.stderr,
            )
    elapsed = clock() - start
    return {
        "elapsed_s": elapsed,
        "op_times_s": times,
        "op_kernel_s": cal.around_marks(),
        "d_best": ds,
        "evals": evals,
        "calibration_s": cal.samples,
        "record_hits": sum(1 for d in ds if abs(d - D_RECORD) <= RECORD_TOL),
        "record_exceeded": sum(1 for d in ds if d > D_RECORD + RECORD_TOL),
        **tally,
    }


def run_acceptance() -> dict:
    """Time every public check_* of cylpack.acceptance once, in definition
    order, in this fresh process (so the cached optimizer run is cold)."""
    checks = sorted(
        (fn for name, fn in inspect.getmembers(acceptance, inspect.isfunction)
         if name.startswith("check_") and fn.__module__ == acceptance.__name__),
        key=lambda fn: fn.__code__.co_firstlineno,
    )
    seconds, failed = {}, []
    for fn in checks:
        name = fn.__name__.removeprefix("check_").replace("_", "-")
        t0 = clock()
        try:
            passed = fn().passed
        except Exception:  # run_all reports a raising check as failed, and so do we
            passed = False
        seconds[name] = clock() - t0
        if not passed:
            failed.append(name)
    return {"seconds": seconds, "failed": failed}


def _median_us(values: list) -> float:
    return 1e6 * statistics.median(values)


def run_layers(seed: int, seconds: float) -> dict:
    """The traced layer suite: one span around each public call.

    A third of the work is trajectory points, each run untraced and then
    traced (order alternating by block) so the tracing overhead is
    measured on identical inputs; a third is blind starts; the rest is a
    fixed set of kernel calls and probes.
    """
    tracer, cal = Tracer(), Calibrator()
    metrics = {}

    # trajectory points, each block untraced and traced on the same inputs
    tally, ratios = _tally(), []
    blocks = work_count(seconds / 3, POINTS_PER_S / (2 * TRACE_BLOCK))
    points = trajectory_xs(seed, blocks * TRACE_BLOCK).tolist()
    for block in range(blocks):
        cal.between_ops()
        xs = points[block * TRACE_BLOCK:(block + 1) * TRACE_BLOCK]
        elapsed = {}
        for traced in (False, True) if len(ratios) % 2 == 0 else (True, False):
            # only the traced pass is counted as the run's operations
            call, counts = (tracer.call, tally) if traced else (direct, _tally())
            t0 = clock()
            for x in xs:
                run_point(x, call, counts)
            elapsed[traced] = clock() - t0
        ratios.append(elapsed[True] / elapsed[False])
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    metrics["trace.span_cost_us"] = 1e6 * span_cost_s()
    for name in (
        "curve.gamma_point",
        "symmetric.build_c6",
        "symmetric.triplets_trig",
        "symmetric.triplets_alg",
        "symmetric.triplets_generic",
        "lines.min_pairwise_distance",
    ):
        metrics[f"{name}_us"] = _median_us(tracer.durations(name))
    metrics["curve.gamma_point_failed"] = tracer.errors("curve.gamma_point")

    # single-line and single-pair kernel calls on the seed's first trajectory
    # configurations; the small-x tail is skipped here only because its
    # gamma_point failures are already counted above
    for x in trajectory_xs(seed, 100):
        if x < 1e-2:
            continue
        chart = c6_chart(gamma_point(float(x)).params)
        lines = [
            tracer.call("lines.make_tangent_line", make_tangent_line, SphericalPoint(lat, lon), ang)
            for lat, lon, ang in chart
        ]
        for i in range(6):
            for j in range(i + 1, 6):
                tracer.call("lines.distance_sq", distance_sq, lines[i], lines[j])
    metrics["lines.make_tangent_line_us"] = _median_us(tracer.durations("lines.make_tangent_line"))
    metrics["lines.distance_sq_us"] = _median_us(tracer.durations("lines.distance_sq"))

    # blind starts
    search = run_search(seed, seconds / 3, tracer.call)
    solve_s = tracer.durations("search.local_maximize")
    metrics["search.local_maximize_s"] = statistics.median(solve_s)
    metrics["search.evals_per_start"] = statistics.median(search["evals"])
    metrics["search.us_per_eval"] = 1e6 * sum(solve_s) / sum(search["evals"])
    metrics["search.best_blind_d"] = max(search["d_best"])
    metrics["search.record_hits"] = search["record_hits"]
    metrics["search.record_exceeded"] = search["record_exceeded"]

    # the batched kernel through the public probe, at the record chart
    record_chart = chart_record()
    for label, trials, repeats in (("b1", 1, 300), ("b48", 48, 300), ("b10k", 10000, 12)):
        name = f"search.probe_{label}"
        for i in range(repeats):
            tracer.call(name, perturbation_probe, record_chart, 1e-3, trials, i)
        # the probe also evaluates the unperturbed chart once per call
        metrics[f"{name}_us_per_eval"] = _median_us(tracer.durations(name)) / (trials + 1)
    for _ in range(300):
        tracer.call("search.objective_at_record", objective, record_chart)
    metrics["search.objective_us"] = _median_us(tracer.durations("search.objective_at_record"))
    raised = tally["raised"] + search["raised"]
    mismatched = tally["mismatched"] + search["mismatched"]
    ops = {
        "attempted": tally["attempted"] + search["attempted"],
        "failed": sum(raised.values()) + mismatched,
        "mismatched": mismatched,
        "raised": raised,
    }
    calibration = cal.samples + search["calibration_s"]
    return {"metrics": metrics, "ops": ops, "spans": len(tracer.spans), "calibration_s": calibration}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("section", choices=("search", "trajectory", "layers", "acceptance"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.section == "search":
        out = run_search(args.seed, args.seconds)
    elif args.section == "trajectory":
        out = run_trajectory(args.seed, args.seconds)
    elif args.section == "layers":
        out = run_layers(args.seed, args.seconds)
    else:
        out = run_acceptance()
    out["cylpack_file"] = cylpack.__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
