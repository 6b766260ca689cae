"""Acceptance gate: the thirteen headline claims, one test each.

Each test prints one PASS/FAIL line with the numbers behind the
verdict and asserts it, so `pytest -v tests/test_acceptance.py` reads
as a checklist.  The expensive optimizer and probe runs are cached in
the acceptance module, so this file and the CLI's report-all share one
computation per process.
"""

import dataclasses
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from cylpack import acceptance, cli, curve, search, unlocking
from cylpack.acceptance import run_checks
from cylpack.lines import FreeConfig, _BLOCK, _chart_index, _pair_kernel
from cylpack.symmetric import (
    PAIR_ORBITS,
    D3Params,
    DegenerateError,
    alg_coords,
    build_c6,
    c6_chart,
    triplets_alg,
    triplets_generic,
)

from helpers import batched_dsq, ref_c3_rows

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@lru_cache(maxsize=1)
def _results():
    return {r.name: r for r in run_checks()}


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
    assert "|r_m - (3+sqrt(33))/8| <= 1e-14: False;" in result.details
    assert not result.passed


def test_initial_point_fails_on_an_objective_off_by_2e_12(monkeypatch):
    monkeypatch.setattr(acceptance, "objective", lambda chart: 1.0 + 2e-12)
    result = acceptance.check_initial_point()
    assert "|objective - 1| <= 1e-12: False;" in result.details
    assert not result.passed


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
    assert f" ({key}: closed " in result.details
    assert not result.passed


@pytest.mark.parametrize("moved, into", [((1, 5), (1, 2)), ((2, 3), (2, 5)), ((0, 4), (5, 3))])
def test_record_configuration_fails_on_a_pair_in_the_wrong_orbit(monkeypatch, moved, into):
    # the record's distances with an orbit-ae pair's value swapped with a 12/11 pair's: the
    # counts (12 and 3) and the coverage still hold, only the orbits are wrong
    sample, config = acceptance.build_curve_point(0.5)
    column = {pair: k for k, pair in enumerate(zip(*np.triu_indices(6, 1)))}
    a, b = column[moved], column[tuple(sorted(into))]
    dsq = config.dsq.copy()
    dsq[[a, b]] = dsq[[b, a]]
    monkeypatch.setattr(acceptance, "build_curve_point",
                        lambda x: (sample, types.SimpleNamespace(dsq=dsq)))
    result = acceptance.check_record_configuration()
    assert "12 of 15; 540/143 within 1e-9: 3 of 15; every pair classified: True" in result.details
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
    assert not result.passed and result.details.endswith(": False")


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
    assert result.details.endswith(
        " <= sqrt(12/11) + 1e-6: True; exceed fraction 0.0001 == 0: False"
    )


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
    assert not result.passed and "blind starts within 1e-9: 0 of 29 >= 4: False" in result.details
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
    # a blind start above sqrt(12/11) + 1e-9 (or NaN) is named in the details, never clipped
    _plant(monkeypatch, {20: {"d": d}})
    result = acceptance.check_optimizer_cross_check()
    assert not result.passed and "above sqrt(12/11) + 1e-9: [20];" in result.details


def test_cross_check_fails_on_three_hits(monkeypatch):
    # the floor is four blind starts within 1e-9 of the record, about half the run's seven
    run = acceptance._optimizer_run()
    hits = [i for i, end in enumerate(run.ends) if i >= len(search._TRAJECTORY_SEEDS)
            and abs(search.objective(end) - acceptance.D_RECORD) <= 1e-9]
    _plant(monkeypatch, {i: {"d": 1.0} for i in hits[3:]})
    result = acceptance.check_optimizer_cross_check()
    assert not result.passed and "blind starts within 1e-9: 3 of 29 >= 4: False" in result.details


@pytest.mark.parametrize("entries", [{"class": "parallel"}, {"class": "stalled"}, {"pairs": [[0, 1]] * 11},
                                     {"lam": [1 / 12] * 11 + [0.0]}],
                         ids=["parallel", "stalled", "11-pairs", "a-zero-lam"])
def test_cross_check_fails_on_a_hit_that_is_not_a_kkt_point(monkeypatch, entries):
    # start 8 reaches the record, so its d still counts it a hit, but its certificate does not
    _plant(monkeypatch, {8: entries})
    result = acceptance.check_optimizer_cross_check()
    assert not result.passed and "; of them not kkt on 12 pairs with lam > 0: [8]; " in result.details
    assert "blind starts within 1e-9: 7 of 29 >= 4: True" in result.details


def test_cross_check_takes_every_trajectory_seed_as_a_seed(monkeypatch):
    # a fourth trajectory seed at x = 0.5, the record itself, is a seed and not a blind start.  At
    # budget 1 each start stays at its seed chart, so the blind starts 4 to 7 are jittered charts
    # far below the record, and the check fails; acceptance binds the seed list search defines,
    # as one edit to search.py would leave them both
    for module in (search, acceptance):
        monkeypatch.setattr(module, "_TRAJECTORY_SEEDS", (0.9, 0.7, 0.5, 0.5))
    monkeypatch.setattr(acceptance, "_optimizer_run", lambda: search.multi_start(8, 0, 1))
    result = acceptance.check_optimizer_cross_check()
    assert not result.passed and "blind starts within 1e-9: 0 of 4 >= 4: False" in result.details
    assert "best blind start d = 0.1758" in result.details


def test_cross_check_details_pinned():
    assert _results()["optimizer-cross-check"].details == (
        "32 starts, budget 2e5 charts each, seed 0 (61696 charts): best blind start d = "
        "1.0444659357341717 within 1e-9 of sqrt(12/11): True; blind starts within 1e-9: 7 of "
        "29 >= 4: True; of them not kkt on 12 pairs with lam > 0: none; blind starts above "
        "sqrt(12/11) + 1e-9: none; exceeds the prior record distance 1.0242: True; blind ends by "
        "class: kkt: 15, parallel: 14, stalled: 0"
    )


def test_local_max_probe_details_pinned():
    assert _results()["local-max-probe"].details == (
        "radius 1e-3, 10000 trials, seed 0: max objective found 1.0441449650842853 "
        "<= sqrt(12/11) + 1e-6: True; exceed fraction 0 == 0: True"
    )


def test_unimodality_details_pinned():
    assert _results()["unimodality"].details == (
        "strict rise/fall on 1001-point grid: True; argmax 0.5 == 1/2: True; "
        "F(1/4) = 1, |F(1/4) - 1| <= 1e-12: True"
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
    assert "; argmax 0.500499 == 1/2: False; " in result.details


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


# one formulation at a time returns NaN: each fold of the check must carry it into its figure,
# where max() dropped it (the NaN-last distances also pass the four-cylinder decrease count)
@pytest.mark.parametrize("check, name, spoil, figure", [
    ("formula_consistency", "_generic_rows", _nan_generic_rows,
     "worst pairwise relative deviation nan <= 1e-10"),
    ("formula_consistency", "dists_general", _nan_last_ring_distance,
     "dists_general vs build_c3 worst nan <= 1e-10"),
    ("curve_membership", "psi", lambda real: lambda s, t: math.nan,
     "factorization residual nan <= 1e-10"),
    ("curve_membership", "k1", lambda real: lambda st, U: math.nan,
     "along 200 trajectory points nan <= 1e-9"),
    ("alternate_strategy", "alt_strategy_verdict", _nan_spot_coefficient,
     "worst deviation nan of the baseline"),
    ("four_cylinder_rigidity", "four_cyl_point", _nan_last_four_cyl_distance,
     "max |d^2 - 2| = nan <= 1e-10"),
], ids=["generic", "ring", "psi", "k1", "spot", "four-cyl"])
def test_a_nan_measurement_fails_its_check(monkeypatch, check, name, spoil, figure):
    monkeypatch.setattr(acceptance, name, spoil(getattr(acceptance, name)))
    result = getattr(acceptance, f"check_{check}")()
    assert not result.passed and figure in result.details, result.details


def _points(blocks) -> list:
    """The points of a _family_points stream of (points, measures) blocks, in order."""
    return [p for points, _ in blocks for p in points]


def test_formula_points_are_the_scalar_draws():
    # the check draws its angles in blocks of at most _BLOCK rows; the points are
    # those of one uniform call per angle, with the same rejections
    rng = np.random.default_rng(2026)
    want = []
    while len(want) < 1000:
        p = D3Params(
            rng.uniform(0.01, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2.0 * math.pi)
        )
        if abs(p.delta) < 1e-3:
            continue
        try:
            triplets_alg(alg_coords(p))
        except DegenerateError:
            continue
        want.append(p)
    blocks = list(acceptance._formula_points())
    assert _points(blocks) == want
    assert all(len(points) == len(measures) <= _BLOCK for points, measures in blocks)


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
    # with their algebraic triplets at 540 KiB (streamed: 299 KiB)
    acceptance.check_formula_consistency()
    tracemalloc.start()
    try:
        acceptance.check_formula_consistency()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 384 * 2**10


def test_formula_consistency_details_pinned():
    assert _results()["formula-consistency"].details == (
        "1000 points, worst pairwise relative deviation 4.9e-12 <= 1e-10; 100 ring points, "
        "alpha in [0.1, 3], dists_general vs build_c3 worst 3.04e-14 <= 1e-10"
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
    assert result.details.startswith("1000 points, worst pairwise relative deviation 4.9e-12 <= 1e-10;")


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
