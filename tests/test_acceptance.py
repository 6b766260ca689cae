"""Acceptance gate: the thirteen headline claims, one test each.

Each test prints one PASS/FAIL line with the numbers behind the
verdict and asserts it, so `pytest -v tests/test_acceptance.py` reads
as a checklist.  The expensive optimizer and probe runs are cached in
the acceptance module, so this file and the CLI's report-all share one
computation per process.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import types
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from cylpack import acceptance, cli, curve, search, unlocking
from cylpack.acceptance import run_checks
from cylpack.lines import FreeConfig, _BLOCK, _chart_index, _pair_kernel, radius_from_distance
from cylpack.symmetric import (
    PAIR_ORBITS,
    D3Params,
    DegenerateError,
    build_c6,
    c6_chart,
    triplets_generic,
)

from helpers import batched_dsq, ref_c3_rows, traced_peak_mb

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@lru_cache(maxsize=1)
def _results():
    return {r.name: r for r in run_checks()}


def _measured(result, name):
    """result's one measurement called name."""
    (measurement,) = [m for m in result.measurements if m.name == name]
    return measurement


def _gate(name):
    result = _results()[name]
    print(f"{'PASS' if result.passed else 'FAIL'} {name}: {result.details}")
    assert result.passed, f"{name}: {result.details}"


def test_01_record_values():
    _gate("record-values")


def test_02_record_configuration():
    _gate("record-configuration")


def test_03_formula_consistency():
    _gate("formula-consistency")


def test_04_curve_membership():
    _gate("curve-membership")


def test_05_unimodality():
    _gate("unimodality")


def test_06_initial_point():
    _gate("initial-point")


def test_07_four_cylinder_rigidity():
    _gate("four-cylinder-rigidity")


def test_08_unlock_verdicts():
    _gate("unlock-verdicts")


def test_09_alternate_strategy():
    _gate("alternate-strategy")


def test_10_series_coefficients():
    _gate("series-coefficients")


def test_11_optimizer_cross_check():
    _gate("optimizer-cross-check")


def test_12_local_max_probe():
    _gate("local-max-probe")


def test_13_rational_angles():
    _gate("rational-angles")


def test_every_check_ran_exactly_once():
    assert len(_results()) == 13


def test_run_checks_runs_every_check_once_in_definition_order():
    # bench/workloads.py times the public check_* functions in definition
    # order, while run_checks reads _CHECKS; both must name the same checks
    checks = sorted(
        (fn for name, fn in inspect.getmembers(acceptance, inspect.isfunction)
         if name.startswith("check_") and fn.__module__ == acceptance.__name__),
        key=lambda fn: fn.__code__.co_firstlineno,
    )
    names = [fn.__name__.removeprefix("check_").replace("_", "-") for fn in checks]
    assert len(names) == 13
    assert [r.name for r in run_checks()] == names
    layers = json.loads(BENCHMARK.read_text())["per_layer"]
    timed = [m["name"] for m in layers if m["name"].startswith("acceptance.")]
    assert timed == [f"acceptance.{name}_s" for name in names]


def test_error_injection_hook_flips_the_record_check(monkeypatch):
    monkeypatch.setattr(acceptance, "R_RECORD", acceptance.R_RECORD + 1e-6)
    flagged = {r.name: r for r in run_checks()}
    assert not flagged["record-values"].passed
    others = [n for n, r in flagged.items() if n != "record-values" and not r.passed]
    assert others == []


def test_record_values_fails_on_a_radius_off_by_2e_14(monkeypatch):
    real = acceptance.record

    def shifted():
        document = real()
        document["computed"]["r"] += 2e-14
        return document

    monkeypatch.setattr(acceptance, "record", shifted)
    result = acceptance.check_record_values()
    assert _measured(result, "|r_m - (3+sqrt(33))/8|").margin < 0.0
    assert not result.passed


def test_initial_point_fails_on_an_objective_off_by_2e_12(monkeypatch):
    monkeypatch.setattr(acceptance, "objective", lambda chart: 1.0 + 2e-12)
    result = acceptance.check_initial_point()
    assert _measured(result, "|objective - 1|").margin < 0.0
    assert not result.passed


SERIES = "worst |numeric - closed| / max(|numeric|, |closed|, 1)"


@pytest.mark.parametrize("key", ["dab_sq_0", "dad_sq_0", "dbd_sq_0", "dad_sq_1", "dbd_sq_1",
                                 "dad_sq_2", "dbd_sq_2"])
def test_series_coefficients_fails_on_one_scaled_coefficient(monkeypatch, key):
    real = acceptance.series_coeffs

    def scaled(*direction):
        closed = real(*direction)
        if key in closed:
            closed[key] *= 1 + 1e-5
        return closed

    monkeypatch.setattr(acceptance, "series_coeffs", scaled)
    result = acceptance.check_series_coefficients()
    assert _measured(result, SERIES).margin < 0.0
    assert f" ({key}: closed " in result.note
    assert not result.passed


@pytest.mark.parametrize("planted, margin", [(2e-6, -1e-6), (math.nan, math.nan)], ids=["2e-6", "nan"])
def test_series_coefficients_fails_on_one_planted_deviation(monkeypatch, planted, margin):
    # a coefficient off by 2e-6 of max(|closed|, 1) reads a margin of about -1e-6, and a NaN
    # coefficient a NaN margin: max() would have kept its running value past the NaN
    real, calls = acceptance.series_coeffs, []

    def off(*direction):
        closed = real(*direction)
        calls.append(direction)
        if len(calls) == 7:
            value = closed["dbd_sq_1"]
            closed["dbd_sq_1"] = value + planted * max(abs(value), 1.0)
        return closed

    monkeypatch.setattr(acceptance, "series_coeffs", off)
    result = acceptance.check_series_coefficients()
    assert _measured(result, SERIES).margin == pytest.approx(margin, rel=0.01, nan_ok=True)
    assert not result.passed


def test_series_coefficients_note_names_the_worst_mismatch(monkeypatch):
    # a large deviation planted in the first direction and a small one in the last: the note
    # names the large one, not the last one seen
    real, calls = acceptance.series_coeffs, []

    def planted(*direction):
        closed = real(*direction)
        calls.append(direction)
        if len(calls) == 1:
            closed["dad_sq_0"] *= 1.5
        if len(calls) == 20:
            closed["dab_sq_0"] *= 1 + 1e-5
        return closed

    monkeypatch.setattr(acceptance, "series_coeffs", planted)
    result = acceptance.check_series_coefficients()
    assert _measured(result, SERIES).margin < 0.0
    assert " (dad_sq_0: closed " in result.note and "dab_sq_0" not in result.note


ONCE = "of the 15 pairs, listed in exactly one orbit"
WORST = "worst |d^2 - its orbit's value|, 12/11 on ab, ad and bd, 540/143 on ae"


def test_record_configuration_worst_pair_is_near_its_orbits_value():
    # the chart's worst pair lies 1.1e-15 from its orbit's value, against a bound of 1e-9
    result = _results()["record-configuration"]
    assert _measured(result, ONCE).observed == 15
    assert 0.0 < _measured(result, WORST).observed < 2e-15


@pytest.mark.parametrize("moved, into", [((1, 5), (1, 2)), ((2, 3), (2, 5)), ((0, 4), (5, 3))])
def test_record_configuration_fails_on_a_pair_in_the_wrong_orbit(monkeypatch, moved, into):
    # the record's distances with an orbit-ae pair's value swapped with a 12/11 pair's: the
    # counts (12 and 3) still hold, only the orbits are wrong
    config = acceptance.chart_record()
    column = {pair: k for k, pair in enumerate(zip(*np.triu_indices(6, 1)))}
    a, b = column[moved], column[tuple(sorted(into))]
    dsq = config.dsq.copy()
    dsq[[a, b]] = dsq[[b, a]]
    monkeypatch.setattr(acceptance, "chart_record", lambda: types.SimpleNamespace(dsq=dsq))
    result = acceptance.check_record_configuration()
    assert _measured(result, ONCE).margin == 0.0
    assert _measured(result, WORST).margin < 0.0
    assert not result.passed


@pytest.mark.parametrize("orbit, slot", [(o, k) for o in PAIR_ORBITS for k in range(1, len(PAIR_ORBITS[o]))])
def test_record_configuration_fails_on_a_wrong_orbit_entry(monkeypatch, orbit, slot):
    # one non-first entry of one orbit replaced by the first pair of the next orbit
    names = list(PAIR_ORBITS)
    other = PAIR_ORBITS[names[(names.index(orbit) + 1) % len(names)]][0]
    members = list(PAIR_ORBITS[orbit])
    members[slot] = other
    monkeypatch.setattr(acceptance, "PAIR_ORBITS", {**PAIR_ORBITS, orbit: tuple(members)})
    assert not acceptance.check_record_configuration().passed


@pytest.mark.parametrize("orbits", [
    {**PAIR_ORBITS, "bd": (*PAIR_ORBITS["bd"], (3, 0))},  # (0, 3) also in ad, of the same value
    {**PAIR_ORBITS, "ae": (*PAIR_ORBITS["ae"], (0, 4))},  # (0, 4) twice in its own orbit
    {**PAIR_ORBITS, "ab": PAIR_ORBITS["ab"][1:]},  # (0, 1) in none
])
def test_record_configuration_fails_on_a_pair_listed_twice_or_not_at_all(monkeypatch, orbits):
    # every listed pair at its orbit's value: only the listing is wrong
    monkeypatch.setattr(acceptance, "PAIR_ORBITS", orbits)
    result = acceptance.check_record_configuration()
    assert _measured(result, ONCE).observed == 14
    assert _measured(result, WORST).margin > 0.0
    assert not result.passed


ORDER_0 = ("order-0 d_AD^2 of the built counter-tilted pair vs 4 sin^2(alpha/2) phi1^2/(phi1^2 + delta1^2) "
           "at 20 angles in [0.1, 3.0] and 3 directions, worst deviation of the baseline")


def test_alternate_strategy_fails_on_the_same_tilt_pair(monkeypatch):
    # D tilted as the unlocking family tilts it keeps order 0 at the start, off the claimed formula
    # by delta1^2/(phi1^2 + delta1^2) of it: 0.739 in the worst of the three directions
    def same_tilt(alpha, phi, delta):
        return FreeConfig(((phi, alpha / 2, -delta), (-phi, 3 * alpha / 2, -delta)))

    monkeypatch.setattr(acceptance, "_counter_pair", same_tilt)
    result = acceptance.check_alternate_strategy()
    assert _measured(result, ORDER_0).observed == pytest.approx(0.739, abs=1e-3)
    assert _measured(result, ORDER_0).margin < 0.0 and not result.passed


def test_alternate_strategy_fails_on_a_wrong_spot_coefficient(monkeypatch):
    # the family's own tilt gives order 0 = the baseline, not half of it
    real = acceptance.alt_strategy_verdict

    def same_tilt(alpha):
        report = real(alpha)
        return {**report, "spot_dad_sq_0": report["baseline_dist_sq"]}

    monkeypatch.setattr(acceptance, "alt_strategy_verdict", same_tilt)
    assert not acceptance.check_alternate_strategy().passed


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 3, 1.5])
@pytest.mark.parametrize("broken", ["probe_ok", "probe_dists_sq"])
def test_unlock_verdicts_fails_on_any_bad_witness(monkeypatch, alpha, broken):
    real = acceptance.unlock_verdict

    def spoiled(a):
        report = real(a)
        if a != alpha:
            return report
        w = report["witness"]
        bad = False if broken == "probe_ok" else (w["baseline_dist_sq"], *w["probe_dists_sq"][1:])
        return {**report, "witness": {**w, broken: bad}}

    monkeypatch.setattr(acceptance, "unlock_verdict", spoiled)
    assert not acceptance.check_unlock_verdicts().passed


def test_unlock_verdicts_builds_each_witness_once(monkeypatch):
    # the six ring angles pi/3..pi/8, then 1.5, pi/2, 1.6, 2.0 and 3.0; pi/6 and pi/3 serve both
    alphas = []
    real = acceptance.unlock_verdict
    monkeypatch.setattr(acceptance, "unlock_verdict", lambda a: alphas.append(a) or real(a))
    assert acceptance.check_unlock_verdicts().passed
    assert alphas == [math.pi / n for n in range(3, 9)] + [1.5, math.pi / 2, 1.6, 2.0, 3.0]


@pytest.mark.parametrize("n", [3, 8])
def test_unlock_verdicts_fails_on_a_ring_with_one_longitude_moved(monkeypatch, n):
    real = acceptance.ring_chart

    def moved(m, phi, delta, kappa):
        rows = [list(row) for row in real(m, phi, delta, kappa)]
        if m == n:
            rows[0][1] += 1e-6
        return tuple(map(tuple, rows))

    monkeypatch.setattr(acceptance, "ring_chart", moved)
    result = acceptance.check_unlock_verdicts()
    assert not result.passed and _measured(result, "its relative deviation from the subfamily's").margin < 0.0


def test_curve_membership_fails_on_a_wrong_u(monkeypatch):
    real = acceptance.u_from_st
    monkeypatch.setattr(acceptance, "u_from_st", lambda s2, t2, st: real(s2, t2, st) + 1e-8)
    assert not acceptance.check_curve_membership().passed


def test_rational_angles_fails_on_a_wrong_kappa(monkeypatch):
    real = acceptance.pure_geodetic_check

    def tan_for_sin(x):
        report = real(x)
        return {**report, "sin_sq_kappa": report["sin_sq_kappa"] / (1 - report["sin_sq_kappa"])}

    monkeypatch.setattr(acceptance, "pure_geodetic_check", tan_for_sin)
    assert not acceptance.check_rational_angles().passed


def test_local_max_probe_fails_on_any_exceeding_trial(monkeypatch):
    # one trial of 10000 above the record, by less than the 1e-6 cap on the largest
    report = {**acceptance._record_probe(), "exceed_fraction": 1e-4}
    monkeypatch.setattr(acceptance, "_record_probe", lambda: report)
    assert report["max_found"] <= acceptance.D_RECORD + 1e-6
    result = acceptance.check_local_max_probe()
    assert not result.passed
    # each condition reports its own verdict: the maximum holds, the fraction does not
    assert _measured(result, "max objective found - sqrt(12/11)").margin >= 0.0
    exceed = _measured(result, "exceed fraction")
    assert (exceed.observed, exceed.margin) == (1e-4, -1.0)


HITS = "blind ends within 1e-9 of sqrt(12/11)"
PRIOR = "blind ends so certified, at r_F = 1.049659 <= r < r_F + 1e-6"


def _seed_returning_solver(x0, budget, step0, step_min):
    """A solver that measures its seed chart and returns it unchanged, as _sqp does its end."""
    x = np.array(x0, dtype=float)
    f, _ = yield x
    return x, [0, math.sqrt(f.min())], 16, "step"  # the trace, flat; 16 charts a six-line step


def test_cross_check_fails_when_the_solver_returns_its_seed(monkeypatch, capsys):
    # the x = 0.5 trajectory seed is the record, so only the blind starts can fail it
    monkeypatch.setattr(search, "_sqp", _seed_returning_solver)
    monkeypatch.setattr(acceptance, "_optimizer_run", lambda: search.multi_start(32, 0, 200000))
    result = acceptance.check_optimizer_cross_check()
    assert not result.passed and _measured(result, HITS).observed == 0 and "; 29 blind ends " in result.note
    assert cli.main(["report-all"]) == 3
    assert "\nFAIL optimizer-cross-check: " in capsys.readouterr().out


def _plant(monkeypatch, planted):
    """Let the cross-check's certify report, for the end of each start in planted, what it measures
    there overridden by that start's entries; every other end reads as measured."""
    run, real = acceptance._optimizer_run(), acceptance.certify
    by_end = {id(run.ends[i]): entries for i, entries in planted.items()}
    monkeypatch.setattr(acceptance, "certify", lambda end: {**real(end), **by_end.get(id(end), {})})
    return run


@pytest.mark.parametrize("d", [acceptance.D_RECORD + 2e-9, math.nan])
def test_cross_check_fails_on_a_start_above_the_record(monkeypatch, d):
    # a blind start above sqrt(12/11) + 1e-9 (or NaN) fails the best d's upper bound, never clipped
    _plant(monkeypatch, {20: {"d": d}})
    result = acceptance.check_optimizer_cross_check()
    assert not result.passed and not _measured(result, "best blind d - sqrt(12/11)").margin >= 0.0


def test_cross_check_fails_on_three_hits(monkeypatch):
    # the floor is four blind starts within 1e-9 of the record, about half the run's seven
    run = acceptance._optimizer_run()
    hits = [i for i, end in enumerate(run.ends) if i >= len(search._TRAJECTORY_SEEDS)
            and abs(search.objective(end) - acceptance.D_RECORD) <= 1e-9]
    _plant(monkeypatch, {i: {"d": 1.0} for i in hits[3:]})
    result = acceptance.check_optimizer_cross_check()
    assert not result.passed and _measured(result, HITS).observed == 3


@pytest.mark.parametrize("entries", [{"class": "parallel"}, {"class": "stalled"}, {"pairs": [[0, 1]] * 11},
                                     {"lam": [1 / 12] * 11 + [0.0]}],
                         ids=["parallel", "stalled", "11-pairs", "a-zero-lam"])
def test_cross_check_fails_on_a_hit_that_is_not_a_kkt_point(monkeypatch, entries):
    # start 8 reaches the record, so its d still counts it a hit, but its certificate does not
    _plant(monkeypatch, {8: entries})
    result = acceptance.check_optimizer_cross_check()
    assert not result.passed and _measured(result, "of them not kkt on 12 pairs, every lam > 0").observed == 1
    hits = _measured(result, HITS)
    assert (hits.observed, hits.margin) == (7, 3.0)


def test_cross_check_takes_every_trajectory_seed_as_a_seed(monkeypatch):
    # a fourth trajectory seed at x = 0.5, the record itself, is a seed and not a blind start.  At
    # budget 1 each start stays at its seed chart, so the blind starts 4 to 7 are jittered charts
    # far below the record, and the check fails; acceptance binds the seed list search defines,
    # as one edit to search.py would leave them both
    for module in (search, acceptance):
        monkeypatch.setattr(module, "_TRAJECTORY_SEEDS", (0.9, 0.7, 0.5, 0.5))
    monkeypatch.setattr(acceptance, "_optimizer_run", lambda: search.multi_start(8, 0, 1))
    result = acceptance.check_optimizer_cross_check()
    assert not result.passed and _measured(result, HITS).observed == 0 and "; 4 blind ends " in result.note
    assert "best blind d = 0.1758" in result.note


# the blind ends that certify at Firsching's r = 1.0496595125, the run's second basin
PRIOR_ENDS = [4, 13, 16, 22, 23, 24, 26, 31]


def test_cross_check_finds_the_prior_record():
    run = acceptance._optimizer_run()
    window = [i for i, end in enumerate(run.ends) if i >= len(search._TRAJECTORY_SEEDS)
              and acceptance.R_FIRSCHING <= radius_from_distance(search.objective(end)) < acceptance.R_FIRSCHING + 1e-6]
    assert window == PRIOR_ENDS
    prior = _measured(_results()["optimizer-cross-check"], PRIOR)
    assert (prior.observed, prior.margin) == (8, 7.0)


@pytest.mark.parametrize("planted", [{"class": "parallel"}, {"d": 1e-6}, {"d": -1e-6}],
                         ids=["parallel", "d-up-1e-6", "d-down-1e-6"])
def test_cross_check_fails_without_a_prior_record_end(monkeypatch, planted):
    # every end at r_F planted parallel, or its d moved so that its r leaves r_F's six decimals;
    # the clause this replaced, best blind d > 1.0242, held under each planting
    run = acceptance._optimizer_run()
    moved = {i: {"d": search.objective(run.ends[i]) + planted["d"]} for i in PRIOR_ENDS} if "d" in planted else {}
    _plant(monkeypatch, moved or {i: planted for i in PRIOR_ENDS})
    result = acceptance.check_optimizer_cross_check()
    failed = [m for m in result.measurements if not m.margin >= 0.0]
    assert not result.passed and [m.name for m in failed] == [PRIOR, "best blind d - their best d"]
    assert failed[0].observed == 0 and math.isnan(failed[1].margin)


def test_cross_check_fails_when_the_best_only_ties_the_prior_record(monkeypatch):
    # with r_F moved to the record's own six decimals, the record hits are the prior-record ends:
    # the best d then equals theirs, and a tie does not exceed
    monkeypatch.setattr(acceptance, "R_FIRSCHING", 1.093070)
    result = acceptance.check_optimizer_cross_check()
    exceeds = _measured(result, "best blind d - their best d")
    assert not result.passed and exceeds.observed == 0.0 and exceeds.margin < 0.0
    assert [m.name for m in result.measurements if not m.margin >= 0.0] == [exceeds.name]


def _refuse(constant):
    raise ValueError(f"not JSON: {constant}")


def test_json_report_writes_a_nan_measurement_as_null(monkeypatch, capsys):
    # json_dumps refuses NaN, so this report exited 2 where it must fail its check with exit 3
    _plant(monkeypatch, {20: {"d": math.nan}})
    assert cli.main(["report-all", "--json"]) == 3
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse)
    check = {c["name"]: c for c in doc["checks"]}["optimizer-cross-check"]
    measured = {m["name"]: m for m in check["measurements"]}
    assert measured["best blind d - sqrt(12/11)"] == {"name": "best blind d - sqrt(12/11)", "observed": None,
                                                     "relation": "<=", "bound": 1e-9, "margin": None}
    assert check["passed"] is False and doc["all_passed"] is False


def test_cross_check_details_pinned():
    assert _results()["optimizer-cross-check"].details == (
        "32 starts, budget 2e5 charts each, seed 0 (61696 charts): best blind d = 1.0444659357341717; "
        "29 blind ends by class: kkt: 15, parallel: 14, stalled: 0; sqrt(12/11) - best blind d: "
        "1.53e-14 <= 1e-9; best blind d - sqrt(12/11): -1.53e-14 <= 1e-9; blind ends within 1e-9 of "
        "sqrt(12/11): 7 >= 4; of them not kkt on 12 pairs, every lam > 0: 0 == 0; blind ends so "
        "certified, at r_F = 1.049659 <= r < r_F + 1e-6: 8 >= 1; best blind d - their best d: 0.0202 > 0.0"
    )


def test_local_max_probe_details_pinned():
    assert _results()["local-max-probe"].details == (
        "radius 1e-3, 10000 trials, seed 0: max objective found 1.0441449650842853; max objective "
        "found - sqrt(12/11): -0.000321 <= 1e-6; exceed fraction: 0.0 == 0.0"
    )


def test_one_report_builds_the_record_once(monkeypatch):
    # record-values, record-configuration, the probe's chart and multi_start's last trajectory seed
    # read one build of x = 1/2; each built it afresh, 4 calls of gamma_point(0.5) a report
    calls, real = [], curve.gamma_point
    monkeypatch.setattr(curve, "gamma_point", lambda x: calls.append(x) or real(x))
    for cached in (curve.build_curve_point, acceptance._optimizer_run, acceptance._record_probe):
        cached.cache_clear()
    assert all(r.passed for r in run_checks())
    assert calls.count(0.5) == 1


@pytest.mark.parametrize("check, run, key, value, note, argv, field", [
    (acceptance.check_optimizer_cross_check, "_SEARCH_RUN", "n_starts", 8,
     "8 starts, budget 2e5 charts each, seed 0 (", ["optimize", "--budget", "16"], "starts"),
    (acceptance.check_local_max_probe, "_PROBE_RUN", "trials", 100, "radius 1e-3, 100 trials, seed 0: ",
     ["probe"], "trials"),
])
def test_each_verified_run_is_named_once(monkeypatch, capsys, check, run, key, value, note, argv, field):
    # the run a check verifies, its note, and the flagless command's run read one statement of it
    monkeypatch.setitem(getattr(search, run), key, value)
    runs = (acceptance._optimizer_run, acceptance._record_probe)
    for cached in runs:
        cached.cache_clear()
    try:
        assert check().note.startswith(note)
    finally:
        for cached in runs:
            cached.cache_clear()
    assert cli.main(argv) == 0 and json.loads(capsys.readouterr().out)[field] == value


def test_unimodality_details_pinned():
    assert _results()["unimodality"].details == (
        "F(1/4) = 1.0; strict rise/fall on 1001-point grid: True; argmax: 0.5 == 0.5; "
        "|F(1/4) - 1|: 0 <= 1e-12"
    )


def test_unimodality_fails_on_a_rescaled_grid(monkeypatch):
    # scan_unimodality with its grid rescaled to (i + 1) / (grid_size + 2): 1001 points that
    # miss 1/2, the argmax 502/1003 within one step of it, and F still rising then falling
    source = inspect.getsource(curve.scan_unimodality)
    assert source.count("(i + 1) / (grid_size + 1)") == 1
    namespace = dict(vars(curve))
    exec(source.replace("(i + 1) / (grid_size + 1)", "(i + 1) / (grid_size + 2)"), namespace)
    rescaled = namespace["scan_unimodality"]
    scan = rescaled(1001)
    assert scan["argmax_x"] == 502 / 1003 and abs(scan["argmax_x"] - 0.5) <= scan["step"]
    assert scan["strictly_increasing_below"] and scan["strictly_decreasing_above"]
    monkeypatch.setattr(acceptance, "scan_unimodality", rescaled)
    result = acceptance.check_unimodality()
    assert not result.passed
    argmax = _measured(result, "argmax")
    assert (argmax.observed, argmax.margin) == (502 / 1003, -1.0)


def test_four_cylinder_rigidity_fails_on_a_wrong_mirror_root(monkeypatch):
    # the mirror branch with the sign of S T flipped in its root U = -S T + sqrt(S^2 T^2 + 1)
    real = acceptance.four_cyl_point

    def flipped(T, mirror=False):
        sample = real(T, mirror)
        if not mirror or T == 0.0:
            return sample
        S = math.sqrt(sample.S2)
        p = sample.params
        U = S * T + math.sqrt(S * S * T * T + 1.0)
        moved = dataclasses.replace(p, kappa=math.atan(U) + p.alpha / 2)
        return dataclasses.replace(sample, params=moved, dists_sq=acceptance.dists_general(moved))

    monkeypatch.setattr(acceptance, "four_cyl_point", flipped)
    assert not acceptance.check_four_cylinder_rigidity().passed


def _nan_generic_rows(real):
    return lambda params: np.full_like(real(params), math.nan)


def _nan_last_ring_distance(real):
    return lambda g: (*real(g)[:-1], math.nan)


def _nan_spot_coefficient(real):
    return lambda alpha: {**real(alpha), "spot_dad_sq_0": math.nan}


def _nan_last_four_cyl_distance(real):
    def spoiled(T, mirror=False):
        sample = real(T, mirror)
        return dataclasses.replace(sample, dists_sq=(*sample.dists_sq[:-1], math.nan))
    return spoiled


# one formulation at a time returns NaN: each fold of the check must carry it into its measurement,
# where max() dropped it (the NaN-last distances also pass the four-cylinder decrease count)
@pytest.mark.parametrize("check, name, spoil, measured", [
    ("formula_consistency", "_generic_rows", _nan_generic_rows,
     "1000 points, worst pairwise relative deviation"),
    ("formula_consistency", "dists_general", _nan_last_ring_distance,
     "100 ring points, alpha in [0.1, 3], dists_general vs build_c3 worst"),
    ("curve_membership", "psi", lambda real: lambda s, t: math.nan,
     "factorization residual over 500 points"),
    ("curve_membership", "k1", lambda real: lambda st, U: math.nan,
     "max |Psi|, |K1|, |K2|, |U - u_from_st(S, T)| along 200 trajectory points"),
    ("alternate_strategy", "alt_strategy_verdict", _nan_spot_coefficient,
     "spot order-0 d_AD^2 vs the built counter-tilted pair at t = +-0.0001, worst deviation of the baseline"),
    ("four_cylinder_rigidity", "four_cyl_point", _nan_last_four_cyl_distance,
     "max |d^2 - 2| over 100 samples of each branch"),
], ids=["generic", "ring", "psi", "k1", "spot", "four-cyl"])
def test_a_nan_measurement_fails_its_check(monkeypatch, check, name, spoil, measured):
    monkeypatch.setattr(acceptance, name, spoil(getattr(acceptance, name)))
    result = getattr(acceptance, f"check_{check}")()
    m = _measured(result, measured)
    assert not result.passed and math.isnan(m.observed) and math.isnan(m.margin), result.details
    assert f"{measured}: nan {m.relation} " in result.details


def test_a_raising_check_reports_a_failing_measurement(monkeypatch):
    def broken():
        raise ArithmeticError("planted")

    monkeypatch.setattr(acceptance, "record", broken)
    result = next(run_checks())
    assert (result.name, result.passed) == ("record-values", False)
    assert result.details == "raised ArithmeticError('planted'): False"


@pytest.mark.parametrize("observed, relation, bound, margin", [
    (0.25, "<=", 1.0, 0.75), (1.5, "<=", 1.0, -0.5), (7, ">=", 4, 3.0), (3, ">=", 4, -1.0),
    (4, ">=", 4, 0.0), (0.5, ">", 0.0, 0.5), (0.0, ">", 0.0, -5e-324), (True, "==", True, 0.0),
    (False, "==", True, -1.0), (Fraction(3, 11), "==", Fraction(3, 11), 0.0), (0.5, "==", 0.25, -1.0),
    (math.nan, "==", 0.5, -1.0),
])
def test_margin_is_signed_by_the_relation(observed, relation, bound, margin):
    # >= 0 where the relation holds; > passes only past its bound, so a tie reads one float below 0
    m = acceptance.Measurement("x", observed, relation, bound)
    assert (m.margin, type(m.margin)) == (margin, float)


@pytest.mark.parametrize("relation", ["<=", ">=", ">"])
def test_a_nan_observation_has_a_nan_margin(relation):
    m = acceptance.Measurement("x", math.nan, relation, 0.0)
    assert math.isnan(m.margin) and not acceptance.CheckResult("c", (m,)).passed


# each check's (measurement, relation, bound), the bounds those of the checks' literals before they
# carried measurements; the cross-check's last two replace its clause best blind d > 1.0242
BOUNDS = {
    "record-values": [
        ("f(1/2)", "==", Fraction(12, 11)),
        ("|f(0.5) - 12/11|", "<=", 1e-14),
        ("|r_m - (3+sqrt(33))/8|", "<=", 1e-14),
        ("|r_m - 1.093070331|", "<=", 1e-9),
    ],
    "record-configuration": [(ONCE, "==", 15), (WORST, "<=", 1e-9)],
    "formula-consistency": [
        ("1000 points, worst pairwise relative deviation", "<=", 1e-10),
        ("100 ring points, alpha in [0.1, 3], dists_general vs build_c3 worst", "<=", 1e-10),
    ],
    "curve-membership": [
        ("factorization residual over 500 points", "<=", 1e-10),
        ("max |Psi|, |K1|, |K2|, |U - u_from_st(S, T)| along 200 trajectory points", "<=", 1e-9),
    ],
    "unimodality": [
        ("strict rise/fall on 1001-point grid", "==", True),
        ("argmax", "==", 0.5),
        ("|F(1/4) - 1|", "<=", 1e-12),
    ],
    "initial-point": [
        ("|objective - 1|", "<=", 1e-12),
        ("|radius_from_distance(1) - 1|", "<=", 1e-15),
    ],
    "four-cylinder-rigidity": [
        ("max |d^2 - 2| over 100 samples of each branch", "<=", 1e-10),
        ("kappa perturbations of 0.001 that decrease the minimum", "==", 2 * 100),
        ("|radius_from_distance(sqrt(2)) - (1+sqrt(2))|", "<=", 1e-12),
    ],
    "unlock-verdicts": [
        ("verdicts as expected", "==", True),
        ("probe_ok of the witnesses at t = 0.01 for pi/6, pi/3, 1.5", "==", True),
        ("their smallest d^2 less its baseline", ">", 0.0),
        ("|pi/3 baseline - 1|", "<=", 1e-15),
        ("whole rings of 2n = 6..16 lines at the witnesses for n = 3..8: smallest d^2 less 4 sin^2(pi/2n)",
         ">", 0.0),
        ("its relative deviation from the subfamily's", "<=", 1e-12),
    ],
    "alternate-strategy": [
        (ORDER_0, "<=", 1e-6),
        ("spot order-0 d_AD^2 vs the built counter-tilted pair at t = +-0.0001, worst deviation of the "
         "baseline", "<=", 1e-6),
    ],
    "series-coefficients": [(SERIES, "<=", 1e-6)],
    "optimizer-cross-check": [
        ("sqrt(12/11) - best blind d", "<=", 1e-9),
        ("best blind d - sqrt(12/11)", "<=", 1e-9),
        (HITS, ">=", 4),
        ("of them not kkt on 12 pairs, every lam > 0", "==", 0),
        (PRIOR, ">=", 1),
        ("best blind d - their best d", ">", 0.0),
    ],
    "local-max-probe": [
        ("max objective found - sqrt(12/11)", "<=", 1e-6),
        ("exceed fraction", "==", 0.0),
    ],
    "rational-angles": [
        ("sin^2(phi)", "==", Fraction(3, 11)),
        ("sin^2(delta)", "==", Fraction(5, 16)),
        ("sin^2(kappa)", "==", Fraction(1, 16)),
    ],
}


def test_bounds_pinned():
    table = {name: [(m.name, m.relation, m.bound) for m in r.measurements] for name, r in _results().items()}
    assert table == BOUNDS
    # a bool bound is a boolean clause, never the int 1 or 0 it equals
    assert all(type(bound) is type(want) for name, rows in BOUNDS.items()
               for (*_, bound), (*_, want) in zip(table[name], rows))


def test_no_number_is_written_into_an_f_string():
    # each bound is stated once, in its measurement, and the text is formatted from it
    tree = ast.parse(Path(acceptance.__file__).read_text())
    numbers = [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
               and any(isinstance(c, ast.Constant) and type(c.value) in (int, float, complex) for c in ast.walk(node))]
    assert numbers == []


def _points(blocks) -> list:
    """The points of a _family_points stream of (points, measures) blocks, in order."""
    return [p for points, _ in blocks for p in points]


def test_formula_points_are_the_scalar_draws():
    # the check draws its angles in blocks of at most _BLOCK rows; the points are the first 1000
    # draws of one uniform call per angle, none skipped, as the ring's are its first 100
    rng = np.random.default_rng(2026)
    want = [D3Params(rng.uniform(0.01, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(1000)]
    blocks = list(acceptance._formula_points())
    assert _points(blocks) == want
    assert [len(points) for points, _ in blocks] == [_BLOCK] * 7 + [104]
    assert all(len(points) == len(measures) for points, measures in blocks)


def test_a_degenerate_draw_fails_formula_consistency_by_name(monkeypatch):
    # no draw is skipped or redrawn: one the algebraic triplets refuse raises, and the check fails
    real = acceptance.triplets_alg
    calls = []

    def refuse_the_fifth(coords):
        calls.append(coords)
        if len(calls) == 5:
            raise DegenerateError("planted")
        return real(coords)

    monkeypatch.setattr(acceptance, "triplets_alg", refuse_the_fifth)
    monkeypatch.setattr(acceptance, "_CHECKS", (acceptance.check_formula_consistency,))
    (result,) = run_checks()
    assert [m.name for m in result.measurements] == ["raised DegenerateError('planted')"]
    assert not result.passed


def test_formula_consistency_batch_is_triplets_generic():
    # the 1000 configurations measured in one call; each point gets the bits
    # triplets_generic gives it alone, and those of its own built
    # configuration's pair distances
    params = _points(acceptance._formula_points())
    rows = acceptance._generic_rows(params)
    assert len(params) == 1000 and rows.shape == (1000, 4)
    pairs = list(zip(*np.triu_indices(6, 1)))
    cols = [pairs.index(PAIR_ORBITS[o][0]) for o in ("ab", "ad", "bd", "ae")]
    for p, row in zip(params, rows):
        t = triplets_generic(p)
        c = build_c6(p)
        batched = batched_dsq(c.table[:, :3], c.table[:, 3:])[cols]
        for want in ([t.dab_sq, t.dad_sq, t.dbd_sq, t.dae_sq], batched):
            assert row.tobytes() == np.array(want).tobytes()


def test_generic_rows_blocks_match_one_batch():
    # the check's blocks of at most _BLOCK configurations, one kernel call each, give the
    # bits of one kernel call over all 1000 framed into one table
    params = _points(acceptance._formula_points())
    table = FreeConfig([row for p in params for row in c6_chart(p)]).table
    pairs = list(zip(*np.triu_indices(6, 1)))
    cols = [pairs.index(PAIR_ORBITS[o][0]) for o in ("ab", "ad", "bd", "ae")]
    one_call = _pair_kernel(table.reshape(-1, 6, 6).T.reshape(36, -1), _chart_index(6))[cols].T
    rows = np.concatenate([acceptance._generic_rows(p) for p, _ in acceptance._formula_points()])
    assert rows.tobytes() == one_call.tobytes()


def test_formula_consistency_memory_is_one_block():
    # the 1000 points are drawn, framed and measured _BLOCK at a time, and each block is
    # folded before the next is drawn; all at once the kernel's temporaries alone passed
    # 2 MB, a list of the 1000 trig triplets held the peak at 0.73 MB, and the 1000 points
    # with their algebraic triplets at 540 KiB (streamed: 295 KiB)
    assert traced_peak_mb(acceptance.check_formula_consistency) < 384 / 2**10


def test_formula_consistency_details_pinned():
    assert _results()["formula-consistency"].details == (
        "1000 points, worst pairwise relative deviation: 4.9e-12 <= 1e-10; 100 ring points, "
        "alpha in [0.1, 3], dists_general vs build_c3 worst: 3.04e-14 <= 1e-10"
    )
    # no ring point skipped at this seed: the points are the first 100 draws
    rows = np.random.default_rng(2027).uniform(
        (0.1, 0.01, -1.5, 0.0), (3.0, 1.5, 1.5, 2.0 * math.pi), (100, 4)
    )
    assert _points(acceptance._ring_points()) == [unlocking.GeneralParams(*row) for row in rows.tolist()]


@pytest.mark.parametrize("line", [0, 1, 2])
def test_formula_consistency_fails_on_a_wrong_ring_longitude(monkeypatch, line):
    # build_c3's rows (A, B, D) with one line's longitude scaled by 1.001: the six-line points
    # never build the ring, so only its own rows can catch this; moving symmetric's FreeConfig
    # or _ring_rows instead would move the six-line charts too
    def moved(g):
        rows = [list(row) for row in ref_c3_rows(g)]
        rows[line][1] *= 1.001
        return FreeConfig(rows)

    monkeypatch.setattr(acceptance, "build_c3", moved)
    result = acceptance.check_formula_consistency()
    assert not result.passed
    assert _measured(result, "1000 points, worst pairwise relative deviation").margin >= 0.0
    assert _measured(result, "100 ring points, alpha in [0.1, 3], dists_general vs build_c3 worst").margin < 0.0


def test_package_import_loads_the_checks_on_first_use():
    # a fresh interpreter: the package import loads no submodule and not numpy
    code = (
        "import sys, cylpack\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('cylpack') or m == 'numpy')\n"
        "print(loaded()); cylpack.run_checks\n"
        # the exact checks import fractions (and with it decimal) when they run, not on import
        "print(sorted({'cylpack.acceptance', 'fractions', 'decimal'} & set(sys.modules)))\n"
        "print(cylpack.scene.scene_obj is cylpack.scene_obj, cylpack.serialize.__name__)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(acceptance.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split("\n") == ["['cylpack']", "['cylpack.acceptance']", "True cylpack.serialize", ""]

    import cylpack

    for module, names in cylpack._EXPORTS.items():
        home = importlib.import_module(f"cylpack.{module}")
        assert getattr(cylpack, module) is home, module
        for name in names:
            assert getattr(cylpack, name) is getattr(home, name), name
            assert vars(cylpack)[name] is getattr(home, name), name  # bound: later reads skip __getattr__
            assert getattr(getattr(home, name), "__module__", home.__name__) == home.__name__, name
    assert cylpack.__all__ == sorted(cylpack._HOME) + ["__version__"]
    namespace = {}
    exec("from cylpack import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(cylpack.__all__)
    with pytest.raises(AttributeError, match="^module 'cylpack' has no attribute 'no_such_name'$"):
        cylpack.no_such_name
    assert set(cylpack.__all__) | set(cylpack._EXPORTS) <= set(dir(cylpack))
