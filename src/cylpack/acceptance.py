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
    _RECORD_CLOSED, _RECORD_RATIONAL, f_of_x, gamma_point, k1, k2, psi, pure_geodetic_check, record, u_from_st,
)
from .lines import FreeConfig, _BLOCK, _pairs, min_pairwise_distance, radius_from_distance
from .measurement import CheckResult, Measurement, _text
from .search import _PROBE_RUN, _SEARCH_RUN, certify, chart_record, multi_start, perturbation_probe
from .symmetric import (
    PAIR_ORBITS, D3Params, GeneralParams, _counter_pair, _generic_rows, alg_coords, build_c3, build_c6,
    dists_general, ring_chart, triplets_alg, triplets_trig,
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
        Measurement("f(1/2)", f_of_x(Fraction(*_RECORD_RATIONAL["x"])), "==", Fraction(*_RECORD_RATIONAL["f"])),
        Measurement("|f(0.5) - 12/11|", abs(f_of_x(_RECORD_CLOSED["x"]) - _RECORD_CLOSED["f"]), "<=", 1e-14),
        Measurement("|r_m - (3+sqrt(33))/8|", abs(r_m - R_RECORD), "<=", 1e-14),
        Measurement(f"|r_m - {printed}|", abs(r_m - printed), "<=", 1e-9),
    ), f"r_m = {r_m}")


def check_record_configuration() -> CheckResult:
    """Each of the 15 record pairs is listed in exactly one orbit of PAIR_ORBITS, pairs unordered, and each
    listed pair's squared distance is its orbit's value within 1e-9: 12/11 on ab, ad and bd, 540/143 on ae."""
    value = dict.fromkeys(("ab", "ad", "bd"), _RECORD_CLOSED["f"]) | {"ae": _RECORD_CLOSED["dae_sq"]}
    listed = [(tuple(sorted(pair)), value[orbit]) for orbit, pairs in PAIR_ORBITS.items() for pair in pairs]
    column = {pair: k for k, pair in enumerate(_pairs(6))}  # dsq's order
    dsq, names = chart_record().dsq.tolist(), [pair for pair, _ in listed]
    return CheckResult("record-configuration", (
        Measurement(f"of the {len(column)} pairs, listed in exactly one orbit",
                    sum(names.count(pair) == 1 for pair in column), "==", len(column)),
        Measurement("worst |d^2 - its orbit's value|, 12/11 on ab, ad and bd, 540/143 on ae",
                    _worst(*(abs(dsq[column[pair]] - want) for pair, want in listed)), "<=", 1e-9),
    ))


def _worst(*devs) -> float:
    """The largest of devs, or NaN if any is NaN: max() keeps its running value past a NaN
    argument, so a NaN measurement would read as no deviation and pass its check."""
    return math.nan if any(map(math.isnan, devs)) else max(devs)


def _family_points(seed, lo, hi, n, make, measure):
    """n points make(*row) of rows uniform in [lo, hi) from default_rng(seed), each measured, as
    (params, measures) lists of at most _BLOCK: the first n draws, none skipped, so a point that
    measure refuses (DegenerateError) fails the check by name."""
    rng = np.random.default_rng(seed)
    for done in range(0, n, _BLOCK):
        # row by row, the same stream of draws as one uniform call per coordinate
        params = [make(*row) for row in rng.uniform(lo, hi, (min(_BLOCK, n - done), len(lo))).tolist()]
        yield params, [measure(p) for p in params]


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
    """F rises to x = 1/2, falls after, and revisits 1 at x = 1/4: on the n interior points
    x_i = (i + 1)/(n + 1), F strictly rises to its argmax and strictly falls after it."""
    n = 1001
    xs = [(i + 1) / (n + 1) for i in range(n)]
    fs, quarter = [f_of_x(x) for x in xs], f_of_x(0.25)
    k = max(range(n), key=fs.__getitem__)
    return CheckResult("unimodality", (
        Measurement(f"strict rise/fall on {n}-point grid",
                    all(fs[i] < fs[i + 1] for i in range(k)) and all(fs[i] > fs[i + 1] for i in range(k, n - 1))),
        Measurement("argmax", xs[k], "==", _RECORD_CLOSED["x"]),  # the odd grid holds 1/2 exactly
        Measurement("|F(1/4) - 1|", abs(quarter - 1.0), "<=", 1e-12),
    ), f"F(1/4) = {quarter}")


def check_initial_point() -> CheckResult:
    """The untilted configuration has distance 1 and admits radius 1."""
    value, radius = min_pairwise_distance(build_c6(D3Params(0.0, 0.0, 0.0))), radius_from_distance(1.0)
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
        errors.append(abs(dsq + _worst(*(-d for d in w["probe_dists_sq"]))) / dsq)
    verdict_ok = all(r["verdict"] == want for r, (_, want) in zip(reports, expected))
    return CheckResult("unlock-verdicts", (
        Measurement("verdicts as expected", verdict_ok),
        Measurement(f"probe_ok of the witnesses at t = {_text(pi3['probe_t'])} for pi/6, pi/3, 1.5",
                    all(w["probe_ok"] for w in witnesses)),
        Measurement("their smallest d^2 less its baseline",
                    -_worst(*(w["baseline_dist_sq"] - d for w in witnesses for d in w["probe_dists_sq"])),
                    ">", 0.0),
        Measurement("|pi/3 baseline - 1|", abs(pi3["baseline_dist_sq"] - 1.0), "<=", 1e-15),
        Measurement("whole rings of 2n = 6..16 lines at the witnesses for n = 3..8: smallest d^2 less "
                    "4 sin^2(pi/2n)", -_worst(*(-m for m in margins)), ">", 0.0),
        Measurement("its relative deviation from the subfamily's", _worst(*errors), "<=", 1e-12),
    ), f"verdicts {verdicts}; pi/3 distances {pi3_dists}")


def check_alternate_strategy() -> CheckResult:
    """Tilting the lower ring the other way never unlocks: along the reported spot direction and two
    seeded ones, the built counter-tilted pair's order-0 d_AD^2 is 4 sin^2(alpha/2) phi1^2/(phi1^2 +
    delta1^2), below the start for delta1 != 0, and the reported spot coefficient is the built one."""
    alphas = [float(a) for a in np.linspace(0.1, 3.0, 20)]
    seeded = np.random.default_rng(0).uniform(-1.0, 1.0, (2, 2)).tolist()  # (phi1, delta1), delta1 != 0
    worst, spot, t = 0.0, 0.0, 1e-4
    for a in alphas:
        r, start = alt_strategy_verdict(a), 4.0 * math.sin(a / 2) ** 2
        directions = (r["spot_direction"], *seeded)
        # the mean over +-t cancels order 1 and leaves order 0 up to O(t^2)
        means = [0.5 * sum(float(_counter_pair(a, phi1 * s, delta1 * s).dsq[0]) for s in (t, -t))
                 for phi1, delta1 in directions]
        worst = _worst(worst, *(abs(m - start * p * p / (p * p + d * d)) / start
                                for m, (p, d) in zip(means, directions)))
        spot = _worst(spot, abs(means[0] - r["spot_dad_sq_0"]) / r["baseline_dist_sq"])
    return CheckResult("alternate-strategy", (
        Measurement(f"order-0 d_AD^2 of the built counter-tilted pair vs 4 sin^2(alpha/2) phi1^2/(phi1^2 + "
                    f"delta1^2) at {len(alphas)} angles in [{min(alphas)}, {max(alphas)}] and {len(directions)} "
                    "directions, worst deviation of the baseline", worst, "<=", 1e-6),
        Measurement(f"spot order-0 d_AD^2 vs the built counter-tilted pair at t = +-{_text(t)}, worst "
                    "deviation of the baseline", spot, "<=", 1e-6),
    ))


def check_series_coefficients() -> CheckResult:
    """Numeric Taylor extraction reproduces the closed coefficients."""
    rng = np.random.default_rng(10)
    devs, n, tol = [], 20, 1e-6  # devs: (relative deviation, the pair) of each coefficient

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
        devs += [(abs(numeric[key] - want) / max(abs(numeric[key]), abs(want), 1.0),
                  f" ({key}: closed {want:.9g}, numeric {numeric[key]:.9g})") for key, want in closed.items()]
    # the bound of isclose(a, b, rel_tol=tol, abs_tol=tol), |a - b| <= tol max(|a|, |b|, 1); a NaN fails
    worst = _worst(*(dev for dev, _ in devs))
    # the pair named NaN-first, as _worst folds: max() of the tuples would skip past a NaN
    worst_pair = max(devs, key=lambda dev: (math.isnan(dev[0]), dev))[1] if not worst <= tol else ""
    return CheckResult("series-coefficients", (
        Measurement("worst |numeric - closed| / max(|numeric|, |closed|, 1)", worst, "<=", tol),
    ), f"{len(devs)} coefficients over {n} random directions, orders 0-2{worst_pair}")


def _sci(value) -> str:
    """value in the shortest e-notation, its exponent unpadded and unsigned where positive: 2e5, 1e-3."""
    return np.format_float_scientific(value, trim="-", exp_digits=1).replace("+", "")


@lru_cache(maxsize=1)
def _optimizer_run():
    return multi_start(**_SEARCH_RUN)


@lru_cache(maxsize=1)
def _record_probe():
    return perturbation_probe(chart_record(), **_PROBE_RUN)


def _certified(cert: dict) -> bool:
    """Whether certify's cert reads a KKT point on 12 near-active pairs with every lam > 0."""
    return (cert["class"], len(cert["pairs"])) == ("kkt", 12) and all(lam > 0.0 for lam in cert["lam"])


def check_optimizer_cross_check() -> CheckResult:
    """The verified search's (_SEARCH_RUN's) blind starts, each read by certify of its end, find both
    records: the best within 1e-9 of sqrt(12/11), none above it by more, at least 4 that close, each
    _certified; and at least one _certified end at Firsching's r_F to six decimals, r_F <= r < r_F +
    1e-6, whose d the best exceeds.  The note counts certify's classes."""
    result, run, tol, decimals = _optimizer_run(), _SEARCH_RUN, 1e-9, 1e-6
    certs = [certify(end) for end in result.ends]
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
    ), f"{run['n_starts']} starts, budget {_sci(run['budget_each'])} charts each, seed {run['rng_seed']} "
       f"({result.evals} charts): best blind d = {best}; {len(certs)} blind ends by class: {classes}")


def check_local_max_probe() -> CheckResult:
    """Random perturbations of the record chart never beat it."""
    report = _record_probe()
    return CheckResult("local-max-probe", (
        Measurement("max objective found - sqrt(12/11)", report["max_found"] - D_RECORD, "<=", 1e-6),
        Measurement("exceed fraction", report["exceed_fraction"], "==", 0.0),
    ), f"radius {_sci(report['radius'])}, {report['trials']} trials, seed {report['rng_seed']}: max objective "
       f"found {report['max_found']}")


def check_rational_angles() -> CheckResult:
    """The record tilt and counter-rotation angles have rational squared sines."""
    from fractions import Fraction
    x, phi, delta, kappa = (Fraction(*_RECORD_RATIONAL[key]) for key in ("x", "s", "sin_sq_delta", "sin_sq_kappa"))
    report = pure_geodetic_check(x)
    wants = {"phi": phi, "delta": delta, "kappa": kappa}
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
