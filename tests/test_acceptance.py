"""Acceptance gate: the thirteen headline claims, one test each.

Each test prints one PASS/FAIL line with the numbers behind the
verdict and asserts it, so `pytest -v tests/test_acceptance.py` reads
as a checklist.  The expensive optimizer and probe runs are cached in
the acceptance module, so this file and the CLI's report-all share one
computation per process.
"""

import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from cylpack import acceptance
from cylpack.acceptance import run_all
from cylpack.lines import pair_dsq
from cylpack.symmetric import (
    PAIR_ORBITS,
    D3Params,
    DegenerateError,
    alg_coords,
    build_c6,
    triplets_alg,
    triplets_generic,
)

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@lru_cache(maxsize=1)
def _results():
    return {r.name: r for r in run_all()}


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


def test_run_all_runs_every_check_once_in_definition_order():
    # bench/workloads.py times the public check_* functions in definition
    # order, while run_all reads _CHECKS; both must name the same checks
    checks = sorted(
        (fn for name, fn in inspect.getmembers(acceptance, inspect.isfunction)
         if name.startswith("check_") and fn.__module__ == acceptance.__name__),
        key=lambda fn: fn.__code__.co_firstlineno,
    )
    names = [fn.__name__.removeprefix("check_").replace("_", "-") for fn in checks]
    assert len(names) == 13
    assert [r.name for r in run_all()] == names
    layers = json.loads(BENCHMARK.read_text())["per_layer"]
    timed = [m["name"] for m in layers if m["name"].startswith("acceptance.")]
    assert timed == [f"acceptance.{name}_s" for name in names]


def test_error_injection_hook_flips_the_record_check(monkeypatch):
    monkeypatch.setattr(acceptance, "R_RECORD", acceptance.R_RECORD + 1e-6)
    flagged = {r.name: r for r in run_all()}
    assert not flagged["record-values"].passed
    others = [n for n, r in flagged.items() if n != "record-values" and not r.passed]
    assert others == []


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
        w = report.witness
        bad = False if broken == "probe_ok" else (w["baseline_dist_sq"], *w["probe_dists_sq"][1:])
        return dataclasses.replace(report, witness={**w, broken: bad})

    monkeypatch.setattr(acceptance, "unlock_verdict", spoiled)
    assert not acceptance.check_unlock_verdicts().passed


def test_curve_membership_fails_on_a_wrong_u(monkeypatch):
    real = acceptance.u_from_st
    monkeypatch.setattr(acceptance, "u_from_st", lambda S, T: real(S, T) + 1e-8)
    assert not acceptance.check_curve_membership().passed


def test_formula_points_are_the_scalar_draws():
    # the check draws its angles in blocks; the points are those of one
    # uniform call per angle, with the same rejections
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
    assert acceptance._formula_points()[0] == want


def test_formula_consistency_batch_is_triplets_generic():
    # the check builds its 1000 configurations in one batch; each point gets
    # the bits triplets_generic gives it alone, and those of its own built
    # configuration's pair distances
    params, _, _ = acceptance._formula_points()
    rows = acceptance._generic_rows(params)
    assert len(params) == 1000 and rows.shape == (1000, 4)
    pairs = list(zip(*np.triu_indices(6, 1)))
    cols = [pairs.index(PAIR_ORBITS[o][0]) for o in ("ab", "ad", "bd", "ae")]
    for p, row in zip(params, rows):
        t = triplets_generic(p)
        c = build_c6(p)
        for want in ([t.dab_sq, t.dad_sq, t.dbd_sq, t.dae_sq], pair_dsq(c.bases, c.dirs)[cols]):
            assert row.tobytes() == np.array(want).tobytes()


def test_formula_consistency_details_pinned():
    assert _results()["formula-consistency"].details == (
        "1000 points, worst pairwise relative deviation 4.9e-12 <= 1e-10"
    )


def test_package_import_loads_the_checks_on_first_use():
    code = (
        "import sys, cylpack; print(sorted({'cylpack.acceptance', 'fractions'} & set(sys.modules)));"
        "cylpack.run_all; print(sorted({'cylpack.acceptance', 'fractions'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(acceptance.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split("\n") == ["[]", "['cylpack.acceptance', 'fractions']", ""]
