"""One-shot verification of every headline numeric claim.

Each check is deterministic (fixed seeds), independent of the others, and returns a CheckResult
(cylpack.measurement): its measurements, each an observed value held to a bound by a relation,
with a signed margin, negative (or NaN) where it fails, and a note of what it tallies without a
bound.  A check passes when no margin is negative or NaN, and its details are its note and its
measurements as text, so each bound is stated once.  run_checks runs all thirteen; the optimizer
and probe runs are cached per process so a report and a test suite can share them."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .curve import (
    _RECORD_CLOSED, build_curve_point, f_of_x, gamma_point, k1, k2, psi, pure_geodetic_check,
    record, scan_unimodality, u_from_st,
)
from .lines import FreeConfig, _BLOCK, _pairs, radius_from_distance
from .measurement import CheckResult, Measurement, _text
from .search import (_TRAJECTORY_SEEDS, certify, chart_c6, chart_record, multi_start, objective,
                     perturbation_probe)
from .symmetric import (
    PAIR_ORBITS, D3Params, DegenerateError, GeneralParams, _counter_pair, _generic_rows, alg_coords,
    build_c3, dists_general, ring_chart, triplets_alg, triplets_trig,
)
from .unlocking import (
    alt_strategy_verdict, four_cyl_point, series_coeffs, taylor_coeffs_numeric, unlock_verdict,
)

D_RECORD, R_RECORD = _RECORD_CLOSED["d"], _RECORD_CLOSED["r"]
R_FIRSCHING = 1.049659  # the record before the source paper's, found numerically, to six decimals: ref. [F]


def check_record_values() -> CheckResult:
    """f(1/2) = 12/11 exactly and r_m = (3 + sqrt(33))/8 = 1.093070331."""
    from fractions import Fraction  # imported on use, as in pure_geodetic_check
    r_m, printed = record()["computed"]["r"], 1.093070331
    return CheckResult("record-values", (
        Measurement("f(1/2)", f_of_x(Fraction(1, 2)), "==", Fraction(12, 11)),
        Measurement("|f(0.5) - 12/11|", abs(f_of_x(0.5) - _RECORD_CLOSED["f"]), "<=", 1e-14),
        Measurement("|r_m - (3+sqrt(33))/8|", abs(r_m - R_RECORD), "<=", 1e-14),
        Measurement(f"|r_m - {printed}|", abs(r_m - printed), "<=", 1e-9),
    ), f"r_m = {r_m}")


def check_record_configuration() -> CheckResult:
    """Of the 15 record pairwise squared distances, the 12 of orbits ab, ad and bd are 12/11 and
    the 3 of orbit ae are 540/143, each within 1e-9, pairs compared unordered."""
    config = build_curve_point(0.5)[1]
    values, tol = config.dsq, 1e-9
    near_f = np.abs(values - _RECORD_CLOSED["f"]) <= tol
    near_ae = np.abs(values - _RECORD_CLOSED["dae_sq"]) <= tol
    pairs = [frozenset(pair) for pair in _pairs(6)]  # dsq's order
    f_pairs = {pair for pair, near in zip(pairs, near_f.tolist()) if near}
    ae_pairs = {pair for pair, near in zip(pairs, near_ae.tolist()) if near}
    orbit = {name: set(map(frozenset, members)) for name, members in PAIR_ORBITS.items()}
    orbits_ok = f_pairs == orbit["ab"] | orbit["ad"] | orbit["bd"] and ae_pairs == orbit["ae"]
    within = f"within {_text(tol)}"
    return CheckResult("record-configuration", (  # 12 + 3 pairs, so the counts and the coverage follow
        Measurement(f"12/11 {within} on orbits ab, ad, bd and 540/143 {within} on orbit ae", orbits_ok),),
        f"12/11 {within}: {int(near_f.sum())} of {len(pairs)}; 540/143 {within}: {int(near_ae.sum())} "
        f"of {len(pairs)}; every pair classified: {bool((near_f | near_ae).all())}")


def _worst(*devs) -> float:
    """The largest of devs, or NaN if any is NaN: max() keeps its running value past a NaN
    argument, so a NaN measurement would read as no deviation and pass its check."""
    return math.nan if any(map(math.isnan, devs)) else max(devs)


def _family_points(seed, lo, hi, n, make, measure):
    """n points make(*row) of rows uniform in [lo, hi) from default_rng(seed), each measured, as
    (params, measures) lists of at most _BLOCK; a point with |delta| < 1e-3, or on which
    measure raises DegenerateError, is skipped and redrawn."""
    rng = np.random.default_rng(seed)
    while n:
        params, measures = [], []
        # row by row, the same stream of draws as one uniform call per coordinate
        for row in rng.uniform(lo, hi, (min(_BLOCK, n), len(lo))).tolist():
            p = make(*row)
            if abs(p.delta) < 1e-3:
                continue
            try:
                measures.append(measure(p))
            except DegenerateError:
                continue
            params.append(p)
        n -= len(params)
        yield params, measures


def _formula_points():
    """check_formula_consistency's 1000 six-line points: (D3Params, triplets_alg) blocks."""
    return _family_points(2026, (0.01, -1.5, 0.0), (1.5, 1.5, 2.0 * math.pi), 1000, D3Params,
                          lambda p: triplets_alg(alg_coords(p)))


def _ring_points():
    """check_formula_consistency's 100 2n-ring points: (GeneralParams, dists_general) blocks."""
    return _family_points(2027, (0.1, 0.01, -1.5, 0.0), (3.0, 1.5, 1.5, 2.0 * math.pi), 100,
                          GeneralParams, dists_general)


def check_formula_consistency() -> CheckResult:
    """Trig, algebraic, and generic distances agree at 1000 random points of the six-line family,
    and the 2n-ring's closed forms agree with its built lines at 100 random points."""
    worst = ring_worst = 0.0
    for params, algs in _formula_points():
        for p, alg, (*gen, gen_dae) in zip(params, algs, _generic_rows(params).tolist()):
            trig = triplets_trig(p)
            for x, y, z in zip((trig.dab_sq, trig.dad_sq, trig.dbd_sq), alg, gen):
                scale = max(abs(x), abs(y), abs(z), 1e-6)
                worst = _worst(worst, _worst(abs(x - y), abs(y - z)) / scale)
            scale = max(abs(trig.dae_sq), abs(gen_dae), 1e-6)
            worst = _worst(worst, abs(trig.dae_sq - gen_dae) / scale)
    for ring, closed in _ring_points():
        for g, xs in zip(ring, closed):
            for x, y in zip(xs, build_c3(g).dsq.tolist()):  # (AB, AD, BD): dists_general's order
                ring_worst = _worst(ring_worst, abs(x - y) / max(abs(x), abs(y), 1e-6))
    return CheckResult("formula-consistency", (
        Measurement("1000 points, worst pairwise relative deviation", worst, "<=", 1e-10),
        Measurement("100 ring points, alpha in [0.1, 3], dists_general vs build_c3 worst", ring_worst,
                    "<=", 1e-10),
    ))


def check_curve_membership() -> CheckResult:
    """Psi factors through x, Psi, K1, K2 vanish along the trajectory, and U
    there is the one its elimination u_from_st gives."""
    rng = np.random.default_rng(4)
    worst_fact = 0.0
    for s, t in rng.uniform((0.0, 0.0), (1.0, 3.0), (500, 2)).tolist():  # stream of scalar pairs
        x = (1.0 - s) / (t + 1.0)
        g = -1.0 - 2.0 * x + t * x + 3.0 * x * x + 7.0 * t * x * x + 4.0 * t * x**3
        expected = -((1.0 + t) ** 3) * g
        scale = max(abs(expected), 1.0)
        worst_fact = _worst(worst_fact, abs(psi(s, t) - expected) / scale)
    worst_vanish = 0.0
    for i in range(200):
        a = gamma_point((i + 1) / 201.0).coords
        s2, t2, st = a.S * a.S, a.T * a.T, a.S * a.T
        worst_vanish = _worst(worst_vanish, abs(psi(s2, t2)), abs(k1(st, a.U)), abs(k2(s2, t2, st, a.U)),
                              abs(a.U - u_from_st(s2, t2, st)))
    return CheckResult("curve-membership", (
        Measurement("factorization residual over 500 points", worst_fact, "<=", 1e-10),
        Measurement("max |Psi|, |K1|, |K2|, |U - u_from_st(S, T)| along 200 trajectory points",
                    worst_vanish, "<=", 1e-9),
    ))


def check_unimodality() -> CheckResult:
    """F rises to x = 1/2, falls after, and revisits 1 at x = 1/4."""
    n = 1001
    scan, quarter = scan_unimodality(n), f_of_x(0.25)
    return CheckResult("unimodality", (
        Measurement(f"strict rise/fall on {n}-point grid",
                    bool(scan["strictly_increasing_below"] and scan["strictly_decreasing_above"])),
        Measurement("argmax", scan["argmax_x"], "==", 0.5),  # the odd grid holds 1/2 exactly
        Measurement("|F(1/4) - 1|", abs(quarter - 1.0), "<=", 1e-12),
    ), f"F(1/4) = {quarter}")


def check_initial_point() -> CheckResult:
    """The untilted configuration has distance 1 and admits radius 1."""
    value, radius = objective(chart_c6(D3Params(0.0, 0.0, 0.0))), radius_from_distance(1.0)
    return CheckResult("initial-point", (
        Measurement("|objective - 1|", abs(value - 1.0), "<=", 1e-12),
        Measurement("|radius_from_distance(1) - 1|", abs(radius - 1.0), "<=", 1e-15),
    ), f"objective {value}, radius_from_distance(1) = {radius}")


def check_four_cylinder_rigidity() -> CheckResult:
    """Four cylinders keep all distances at sqrt(2) along both branches of their trajectory."""
    worst, decreases, n, step = 0.0, 0, 100, 1e-3
    for mirror in (False, True):
        for T in np.linspace(0.0, 5.0, n).tolist():
            sample = four_cyl_point(T, mirror)
            worst = _worst(worst, *(abs(d - 2.0) for d in sample.dists_sq))
            p = sample.params
            moved = (GeneralParams(p.alpha, p.phi, p.delta, p.kappa + e) for e in (-step, step))
            decreases += all(min(dists_general(g)) < min(sample.dists_sq) for g in moved)
    radius = radius_from_distance(math.sqrt(2.0))
    return CheckResult("four-cylinder-rigidity", (
        Measurement(f"max |d^2 - 2| over {n} samples of each branch", worst, "<=", 1e-10),
        Measurement(f"kappa perturbations of {_text(step)} that decrease the minimum", decreases, "==",
                    2 * n),
        Measurement("|radius_from_distance(sqrt(2)) - (1+sqrt(2))|", abs(radius - (1.0 + math.sqrt(2.0))),
                    "<=", 1e-12),
    ), f"radius_from_distance(sqrt(2)) = {radius}")


def check_unlock_verdicts() -> CheckResult:
    """Unlockable below pi/2, marginal at it, blocked above; witness grows, and so does its ring."""
    expected = [
        (math.pi / 6, "unlockable"),
        (math.pi / 3, "unlockable"),
        (1.5, "unlockable"),
        (math.pi / 2, "marginal"),
        (1.6, "blocked"),
        (2.0, "blocked"),
        (3.0, "blocked"),
    ]
    # one witness per ring of 2n = 6..16 lines; the verdict list reuses pi/3's and pi/6's
    rings = {math.pi / n: unlock_verdict(math.pi / n) for n in range(3, 9)}
    reports = [rings[a] if a in rings else unlock_verdict(a) for a, _ in expected]
    verdicts = [(round(a, 6), r["verdict"]) for (a, _), r in zip(expected, reports)]
    witnesses = [r["witness"] for r, (_, want) in zip(reports, expected) if want == "unlockable"]
    pi3 = witnesses[1]  # the six-cylinder angle
    pi3_dists = tuple(round(d, 9) for d in pi3["probe_dists_sq"])
    margins, errors = [], []  # each whole ring's smallest d^2 less the baseline, and off the subfamily's
    for n in range(3, 9):
        w = rings[math.pi / n]["witness"]
        t = w["probe_t"]
        rows = ring_chart(n, w["phi1"] * t, w["delta1"] * t, w["kappa2"] * t * t)
        dsq = float(FreeConfig(rows).dsq.min())
        margins.append(dsq - w["baseline_dist_sq"])
        errors.append(abs(dsq - min(w["probe_dists_sq"])) / dsq)
    verdict_ok = all(r["verdict"] == want for r, (_, want) in zip(reports, expected))
    return CheckResult("unlock-verdicts", (
        Measurement("verdicts as expected", verdict_ok),
        Measurement(f"probe_ok of the witnesses at t = {_text(pi3['probe_t'])} for pi/6, pi/3, 1.5",
                    all(w["probe_ok"] for w in witnesses)),
        Measurement("their smallest d^2 less its baseline",
                    min(min(d - w["baseline_dist_sq"] for d in w["probe_dists_sq"]) for w in witnesses),
                    ">", 0.0),
        Measurement("|pi/3 baseline - 1|", abs(pi3["baseline_dist_sq"] - 1.0), "<=", 1e-15),
        Measurement("whole rings of 2n = 6..16 lines at the witnesses for n = 3..8: smallest d^2 less "
                    "4 sin^2(pi/2n)", min(margins), ">", 0.0),
        Measurement("its relative deviation from the subfamily's", _worst(*errors), "<=", 1e-12),
    ), f"verdicts {verdicts}; pi/3 distances {pi3_dists}")


def check_alternate_strategy() -> CheckResult:
    """Tilting the lower ring the other way never unlocks: its reported
    order-0 A-D coefficient, below the start, matches the built pair."""
    alphas = [float(a) for a in np.linspace(0.1, 3.0, 20)]
    reports = [alt_strategy_verdict(a) for a in alphas]
    blocked = sum(1 for r in reports if r["verdict"] == "blocked")
    worst, t = 0.0, 1e-4
    for a, r in zip(alphas, reports):
        phi1, delta1 = r["spot_direction"]
        # the mean over +-t cancels order 1 and leaves order 0 up to O(t^2)
        pairs = [_counter_pair(a, phi1 * s, delta1 * s) for s in (t, -t)]
        mean = 0.5 * sum(float(pair.dsq[0]) for pair in pairs)
        worst = _worst(worst, abs(mean - r["spot_dad_sq_0"]) / r["baseline_dist_sq"])
    return CheckResult("alternate-strategy", (
        Measurement(f"blocked of the neighbor angles spanning [{min(alphas)}, {max(alphas)}]", blocked, "==",
                    len(alphas)),
        Measurement(f"spot order-0 d_AD^2 vs the built counter-tilted pair at t = +-{_text(t)}, worst "
                    "deviation of the baseline", worst, "<=", 1e-6),
    ))


def check_series_coefficients() -> CheckResult:
    """Numeric Taylor extraction reproduces the closed coefficients."""
    rng = np.random.default_rng(10)
    worst_pair, mismatches, compared, n, tol = "", 0, 0, 20, 1e-6

    def sign():
        return 1.0 if rng.uniform() < 0.5 else -1.0

    for i in range(n):
        alpha = rng.uniform(0.3, 2.8)
        phi1 = rng.uniform(0.3, 1.0) * sign()
        delta1 = rng.uniform(0.3, 1.0) * sign()
        kappa1 = 0.0 if i % 2 == 0 else rng.uniform(0.2, 1.0) * sign()
        kappa2 = rng.uniform(-1.0, 1.0)
        closed = series_coeffs(alpha, phi1, delta1, kappa1, kappa2)
        numeric = taylor_coeffs_numeric(alpha, phi1, delta1, kappa1, kappa2)
        for key, want in closed.items():
            compared += 1
            if not math.isclose(numeric[key], want, rel_tol=tol, abs_tol=tol):
                mismatches += 1
                worst_pair = f" ({key}: closed {want:.9g}, numeric {numeric[key]:.9g})"
    return CheckResult("series-coefficients", (
        Measurement(f"outside isclose(rel_tol={_text(tol)}, abs_tol={_text(tol)})", mismatches, "==", 0),
    ), f"{compared} coefficients over {n} random directions, orders 0-2{worst_pair}")


@lru_cache(maxsize=1)
def _optimizer_run():
    return multi_start(32, 0, 200000)


@lru_cache(maxsize=1)
def _record_probe():
    return perturbation_probe(chart_record(), 1e-3, 10000, 0)


def _certified(cert: dict) -> bool:
    """Whether certify's cert reads a KKT point on 12 near-active pairs with every lam > 0."""
    return (cert["class"], len(cert["pairs"])) == ("kkt", 12) and min(cert["lam"]) > 0.0


def check_optimizer_cross_check() -> CheckResult:
    """multi_start(32, 0, 200000)'s blind starts (after its trajectory seeds), each read by certify
    of its end, find both records: the best within 1e-9 of sqrt(12/11), none above it by more, at
    least 4 that close, each _certified; and at least one _certified end at Firsching's r_F to six
    decimals, r_F <= r < r_F + 1e-6, whose d the best exceeds.  The note counts certify's classes."""
    result, first, tol, decimals = _optimizer_run(), len(_TRAJECTORY_SEEDS), 1e-9, 1e-6
    certs = [certify(end) for end in result.ends[first:]]
    best = _worst(*(cert["d"] for cert in certs))  # NaN if any d is, so none hides above the record
    hits = [cert for cert in certs if abs(cert["d"] - D_RECORD) <= tol]
    prior = [cert["d"] for cert in certs if _certified(cert)
             and R_FIRSCHING <= radius_from_distance(cert["d"]) < R_FIRSCHING + decimals]
    classes = ", ".join(f"{name}: {sum(c['class'] == name for c in certs)}"
                        for name in ("kkt", "parallel", "stalled"))
    return CheckResult("optimizer-cross-check", (
        Measurement("sqrt(12/11) - best blind d", D_RECORD - best, "<=", tol),
        Measurement("best blind d - sqrt(12/11)", best - D_RECORD, "<=", tol),
        Measurement(f"blind ends within {_text(tol)} of sqrt(12/11)", len(hits), ">=", 4),
        Measurement("of them not kkt on 12 pairs, every lam > 0", sum(not _certified(c) for c in hits),
                    "==", 0),
        Measurement(f"blind ends so certified, at r_F = {R_FIRSCHING} <= r < r_F + {_text(decimals)}",
                    len(prior), ">=", 1),
        Measurement("best blind d - their best d", best - max(prior, default=math.nan), ">", 0.0),
    ), f"32 starts, budget 2e5 charts each, seed 0 ({result.evals} charts): best blind d = {best}; "
       f"{len(certs)} blind ends by class: {classes}")


def check_local_max_probe() -> CheckResult:
    """Random perturbations of the record chart never beat it."""
    report = _record_probe()
    return CheckResult("local-max-probe", (
        Measurement("max objective found - sqrt(12/11)", report["max_found"] - D_RECORD, "<=", 1e-6),
        Measurement("exceed fraction", report["exceed_fraction"], "==", 0.0),
    ), f"radius 1e-3, 10000 trials, seed 0: max objective found {report['max_found']}")


def check_rational_angles() -> CheckResult:
    """The record tilt and counter-rotation angles have rational squared sines."""
    from fractions import Fraction
    report = pure_geodetic_check(Fraction(1, 2))
    wants = {"phi": Fraction(3, 11), "delta": Fraction(5, 16), "kappa": Fraction(1, 16)}
    return CheckResult("rational-angles", tuple(Measurement(f"sin^2({a})", report[f"sin_sq_{a}"], "==", want)
                                                for a, want in wants.items()))


_CHECKS = (check_record_values, check_record_configuration, check_formula_consistency, check_curve_membership,
           check_unimodality, check_initial_point, check_four_cylinder_rigidity, check_unlock_verdicts,
           check_alternate_strategy, check_series_coefficients, check_optimizer_cross_check,
           check_local_max_probe, check_rational_angles)


def run_checks():
    """Run the thirteen checks in order, yielding each result as its check
    returns; a raising check reports one failing measurement, naming what it raised."""
    for func in _CHECKS:
        try:
            yield func()
        except Exception as exc:
            name = func.__name__.removeprefix("check_").replace("_", "-")
            yield CheckResult(name, (Measurement(f"raised {exc!r}", False),))
