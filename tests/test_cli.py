"""Command-line interface: outputs, determinism, exit codes."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cylpack
from cylpack import chart_c6, cli, objective, unlocking
from cylpack.acceptance import run_checks
from cylpack.cli import CURVE_HEADER, FOUR_CYL_HEADER, build_parser, main
from cylpack.curve import build_curve_point, f_of_x, record
from cylpack.lines import FreeConfig, chart_from_configuration, min_pairwise_distance, radius_from_distance
from cylpack.scene import scene_obj
from cylpack.search import _PROBE_RUN, chart_record, local_maximize, multi_start, perturbation_probe
from cylpack.symmetric import D3Params, build_c6, triplets_generic
from cylpack.serialize import _numbers, config_from_dict

from helpers import lines_document

D_RECORD = math.sqrt(12.0 / 11.0)
R_RECORD = (3.0 + math.sqrt(33.0)) / 8.0

# lines documents no six-line chart covers: four vertical lines a quarter turn
# apart (pairwise sqrt(2), radius 1 + sqrt(2)), which a four-line chart does, and
# the record with its last line moved to the north pole, which no chart does
FOUR_VERTICALS = {"lines": [
    {"base": base, "dir": [0.0, 0.0, 1.0]}
    for base in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0])
]}
POLE_TANGENT = {"lines": [
    *lines_document(chart_record())["lines"][:5],
    {"base": [0.0, 0.0, 1.0], "dir": [1.0, 0.0, 0.0]},
]}


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_failing(capsys, *argv):
    """Exit code and stderr of a run, which must warn about nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(list(argv))
    assert [str(w.message) for w in caught] == []
    return rc, capsys.readouterr().err


def cold_imports(*argv):
    """A fresh interpreter's run of the command under -X importtime, which names on stderr every
    module the process imports: the finished process and the set of those names."""
    env = dict(os.environ, PYTHONPATH=str(Path(cylpack.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "cylpack.cli", *argv],
                         env=env, capture_output=True, text=True)
    return run, {ln.rpartition("|")[2].strip() for ln in run.stderr.splitlines()}


def raise_on_call(monkeypatch, name, k, *argv):
    """Exit code of a run with cli.<name> patched to raise ArithmeticError on its k-th call."""
    calls, real = [], getattr(cli, name)

    def failing(*args):
        calls.append(args)
        if len(calls) == k:
            raise ArithmeticError("stopped")
        return real(*args)

    monkeypatch.setattr(cli, name, failing)
    return main(list(argv))


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    assert out.endswith("\n")
    return rc, json.loads(out)


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1


class TestEval:
    def test_record_point(self, capsys):
        rc, doc = run_json(capsys, "eval", "--x", "0.5")
        assert rc == 0
        assert doc["min_distance"] == pytest.approx(D_RECORD, abs=1e-12)
        assert doc["radius"] == pytest.approx(R_RECORD, abs=1e-12)
        assert list(doc) == ["params", "distances_sq", "min_distance", "radius"]
        assert doc["distances_sq"]["dae"] == pytest.approx(540.0 / 143.0, abs=1e-9)

    def test_initial_point(self, capsys):
        rc, doc = run_json(capsys, "eval", "--phi", "0", "--delta", "0", "--kappa", "0")
        assert rc == 0
        assert doc["min_distance"] == pytest.approx(1.0, abs=1e-12)
        assert doc["radius"] == pytest.approx(1.0, abs=1e-12)

    def test_quarter_point_returns_to_one(self, capsys):
        rc, doc = run_json(capsys, "eval", "--x", "0.25")
        assert rc == 0
        assert doc["min_distance"] == pytest.approx(1.0, abs=1e-12)

    def test_degrees_conversion(self, capsys):
        _, doc_deg = run_json(
            capsys, "eval", "--phi", "10", "--delta", "20", "--kappa", "30", "--degrees"
        )
        _, doc_rad = run_json(
            capsys,
            "eval",
            "--phi", str(math.radians(10)),
            "--delta", str(math.radians(20)),
            "--kappa", str(math.radians(30)),
        )
        assert doc_deg["params"] == doc_rad["params"]
        assert doc_deg["min_distance"] == doc_rad["min_distance"]

    def test_input_validation(self, capsys):
        assert main(["eval", "--x", "0.5", "--phi", "1"]) == 1
        assert main(["eval"]) == 1
        assert main(["eval", "--x", "0"]) == 1
        assert main(["eval", "--x", "1.5"]) == 1
        assert main(["eval", "--x", "5e-324"]) == 1  # t(x) ~ 1/x is no float

    def test_kappa_domain(self, capsys):
        # kappa past 2pi would print a collapsed d_AB; refused
        assert main(["eval", "--kappa", "1e17"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --kappa must lie in [-2pi, 2pi]: 1e+17\n"
        rc, doc = run_json(capsys, "eval", "--kappa", "-360", "--degrees")
        assert rc == 0 and doc["params"]["kappa"] == -2 * math.pi

    @pytest.mark.parametrize("degrees", [False, True])
    def test_negative_zero_angle_is_kept(self, capsys, degrees):
        # -0.0 and 0.0 build different bits (D3Params), so a given -0.0 is not read as "no angle"
        rc, doc = run_json(capsys, "eval", "--phi", "-0.0", "--delta", "0.3", "--kappa", "0.2",
                           *["--degrees"] * degrees)
        angle = math.radians if degrees else float
        p = D3Params(-0.0, angle(0.3), angle(0.2))
        trip, d = triplets_generic(p), min_pairwise_distance(build_c6(p))
        assert rc == 0 and math.copysign(1.0, doc["params"]["phi"]) == -1.0
        assert doc["params"] == {"phi": -0.0, "delta": p.delta, "kappa": p.kappa}
        assert doc["distances_sq"] == {"dab": trip.dab_sq, "dad": trip.dad_sq, "dbd": trip.dbd_sq,
                                       "dae": trip.dae_sq}
        assert (doc["min_distance"], doc["radius"]) == (d, radius_from_distance(d))

    @staticmethod
    def assert_refused(capsys, x, *argv):
        # below about x = 2e-13 the built configuration's min distance^2 can
        # leave F(x) by more than 1e-9 relative: refused, not printed wrong
        rc, err = run_failing(capsys, *(argv or ("eval", "--x", x)))
        assert rc == 1
        assert err.startswith(f"error: trajectory parameter {float(x)!r} is too small to build: ")
        assert err.endswith(", not 1 within 1e-9\n")

    def test_tiny_x(self, capsys):
        self.assert_refused(capsys, "1e-300")

    @pytest.mark.parametrize("x", ["1e-20", "1e-32"])
    def test_small_x_refused(self, capsys, x):
        self.assert_refused(capsys, x)

    @pytest.mark.parametrize("command", ["optimize --from", "probe --at", "export-scene --at"])
    def test_small_curve_source_refused(self, capsys, tmp_path, command):
        # every configuration source of the form curve:<x> is refused like eval --x
        out_path = tmp_path / "scene.obj"
        argv = [*command.split(), "curve:1e-20"]
        if argv[0] == "export-scene":
            argv += ["--out", str(out_path)]
        self.assert_refused(capsys, "1e-20", *argv)
        assert not out_path.exists()

    def test_small_x_above_the_refusals(self, capsys):
        rc, doc = run_json(capsys, "eval", "--x", "1e-12")
        assert rc == 0
        assert math.isclose(doc["min_distance"] ** 2, f_of_x(1e-12), rel_tol=1e-9)


class TestCurve:
    def test_header_and_grid(self, capsys):
        rc, out = run(capsys, "curve", "--samples", "3")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 4
        for i, row in enumerate(lines[1:]):
            cells = row.split(",")
            x = (i + 1) / 4
            assert float(cells[0]) == pytest.approx(x, abs=1e-12)
            assert float(cells[7]) == pytest.approx(f_of_x(x), rel=1e-9)

    def test_deterministic(self, capsys):
        _, first = run(capsys, "curve", "--samples", "20")
        _, second = run(capsys, "curve", "--samples", "20")
        assert first == second

    def test_validation(self, capsys):
        assert main(["curve", "--samples", "0"]) == 1

    def test_fine_grid_reaches_small_x(self, capsys):
        # the grid starts at x = 1/1002, inside the small-x range
        rc, out = run(capsys, "curve", "--samples", "1001")
        assert rc == 0
        assert len(out.splitlines()) == 1002

    def test_rows_are_written_as_they_are_made(self, capsys, monkeypatch):
        # the header and the first k - 1 rows are out before the k-th point fails
        rows = run(capsys, "curve", "--samples", "9")[1].splitlines()
        assert raise_on_call(monkeypatch, "gamma_point", 4, "curve", "--samples", "9") == 2
        assert capsys.readouterr().out.splitlines() == rows[:4]


class TestRecord:
    def test_computed_matches_closed(self, capsys):
        rc, doc = run_json(capsys, "record")
        assert rc == 0
        assert set(doc) == {"computed", "closed_form"}
        assert set(doc["computed"]) == set(doc["closed_form"])
        for key, value in doc["computed"].items():
            assert value == pytest.approx(doc["closed_form"][key], abs=1e-12), key
        assert doc["closed_form"]["r"] == pytest.approx(R_RECORD, abs=1e-15)


class TestOptimize:
    def test_polish_from_record(self, capsys):
        rc, doc = run_json(capsys, "optimize", "--from", "record", "--budget", "500")
        assert rc == 0
        assert doc["d_best"] == pytest.approx(D_RECORD, abs=1e-9)
        assert doc["r_best"] == pytest.approx(R_RECORD, abs=1e-9)
        assert len(doc["coords"]) == 18
        assert doc["evals"] >= 1 and doc["stop"] == "step"
        assert "seed" not in doc  # the polish draws no random numbers

    def test_polish_never_loads_numpy_random(self):
        # local_maximize draws no random numbers, and importing numpy.random loads secrets, hmac
        # and _hashlib (libcrypto): 6.1 MB of peak RSS on a 2-core x86-64 machine, numpy 2.4.6
        run, imported = cold_imports("optimize", "--from", "record", "--budget", "100")
        assert run.returncode == 0 and "numpy" in imported
        assert "numpy.random" not in imported

    def test_d_best_is_the_last_trace_value(self, capsys):
        rc, doc = run_json(capsys, "optimize", "--from", "curve:0.1", "--budget", "20000")
        assert rc == 0 and doc["d_best"] == doc["trace"][-1][1]

    def test_small_multi_start(self, capsys):
        # every start is blind and ends no lower than its seed chart, the end of a budget-1 run
        rc, doc = run_json(
            capsys, "optimize", "--starts", "2", "--budget", "2000", "--seed", "0"
        )
        assert rc == 0 and (doc["starts"], doc["seed"]) == (2, 0)
        assert doc["d_best"] == doc["trace"][-1][1] >= max(map(objective, multi_start(2, 0, 1).ends))
        assert doc["trace"][0][0] == 0

    def test_deterministic(self, capsys):
        argv = ("optimize", "--starts", "2", "--budget", "1500", "--seed", "3")
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_starts_default_to_29(self, capsys):
        rc, doc = run_json(capsys, "optimize", "--budget", "100")
        assert (rc, doc["starts"], doc["budget_each"]) == (0, 29, 100)

    def test_budget_stop_is_reported(self, capsys):
        # budget counts charts, 16 a step, and the last step may overrun it
        rc, doc = run_json(capsys, "optimize", "--from", "curve:0.9", "--budget", "100")
        assert (rc, doc["stop"], doc["evals"]) == (0, "budget", 112)

    def test_validation(self, capsys):
        assert main(["optimize", "--starts", "0"]) == 1
        assert main(["optimize", "--budget", "0", "--from", "record"]) == 1

    def test_starts_past_the_bound(self, capsys):
        rc, err = run_failing(capsys, "optimize", "--starts", "1025")
        assert (rc, err) == (1, "error: --starts must be at most 1024: 1025\n")


class TestProbe:
    def test_record_probe(self, capsys):
        rc, doc = run_json(capsys, "probe", "--trials", "200")
        assert rc == 0
        assert doc["at"] == "record"
        assert doc["exceed_fraction"] == 0.0
        assert doc["max_found"] <= doc["objective"]

    def test_curve_source(self, capsys):
        rc, doc = run_json(capsys, "probe", "--at", "curve:0.3", "--trials", "50")
        assert rc == 0
        assert doc["objective"] == pytest.approx(math.sqrt(f_of_x(0.3)), abs=1e-12)

    def test_bad_source(self, capsys):
        assert main(["probe", "--at", "nonsense"]) == 1

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_non_finite_radius_is_a_validation_error(self, capsys, radius):
        assert main(["probe", "--radius", radius, "--trials", "5"]) == 1
        assert "--radius must be positive and finite" in capsys.readouterr().err


class TestUnlockCheck:
    def test_ring_of_three(self, capsys):
        rc, doc = run_json(capsys, "unlock-check", "--n", "3")
        assert rc == 0
        assert doc["verdict"] == "unlockable"
        assert doc["witness"]["probe_ok"] is True
        assert doc["alternate_strategy"]["verdict"] == "blocked"

    def test_blocked_angle(self, capsys):
        rc, doc = run_json(capsys, "unlock-check", "--alpha", "2.0")
        assert rc == 0
        assert doc["verdict"] == "blocked"
        assert doc["witness"] is None

    def test_marginal_in_degrees(self, capsys):
        rc, doc = run_json(capsys, "unlock-check", "--alpha", "90", "--degrees")
        assert rc == 0
        assert doc["verdict"] == "marginal"

    def test_validation(self, capsys):
        assert main(["unlock-check"]) == 1
        assert main(["unlock-check", "--alpha", "1.0", "--n", "3"]) == 1
        assert main(["unlock-check", "--n", "1"]) == 1
        assert main(["unlock-check", "--alpha", "4.0"]) == 1


class TestFourCyl:
    def test_constant_distances(self, capsys):
        rc, out = run(capsys, "four-cyl", "--samples", "10")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == FOUR_CYL_HEADER == "T,S2,U,kappa,dab_sq,dad_sq,dbd_sq,parallel_residual"
        assert len(lines) == 11
        for row in lines[1:]:
            cells = [float(c) for c in row.split(",")]
            assert cells[1] == pytest.approx(cells[0] ** 2 / (1 + 2 * cells[0] ** 2), rel=1e-11)
            assert cells[4] == pytest.approx(2.0, abs=1e-10)
            assert cells[5] == pytest.approx(2.0, abs=1e-10)
            assert cells[6] == pytest.approx(2.0, abs=1e-10)
            assert cells[7] <= 1e-12

    def test_mirror_branch(self, capsys):
        rc, out = run(capsys, "four-cyl", "--samples", "5", "--mirror")
        assert rc == 0
        assert len(out.splitlines()) == 6

    def test_validation(self, capsys):
        assert main(["four-cyl", "--samples", "1"]) == 1
        assert main(["four-cyl", "--t-max", "0"]) == 1

    @pytest.mark.parametrize("mirror", [[], ["--mirror"]])
    def test_underflowing_tilts_report_the_limit(self, capsys, mirror):
        # S^2 + T^2 underflows to 0 at T = 1e-320, where d_AB^2's delta-direction limit read 4
        rc, out = run(capsys, "four-cyl", "--samples", "2", "--t-max", "1e-320", *mirror)
        assert rc == 0 and [row.split(",")[4:7] for row in out.splitlines()[1:]] == [["2", "2", "2"]] * 2

    @pytest.mark.parametrize("mirror", [[], ["--mirror"]])
    @pytest.mark.parametrize("t_max, samples", [("2e5", "100"), ("1e8", "2")])
    def test_t_max_past_the_range(self, capsys, mirror, t_max, samples):
        # a T whose distances are not held to 1e-9 is refused, not printed with a wrong d^2;
        # the error names the flag and its value, not the first grid point past the range
        rc, err = run_failing(capsys, "four-cyl", "--t-max", t_max, "--samples", samples, *mirror)
        assert rc == 1
        assert err == f"error: --t-max must be at most 1e5: {float(t_max)!r}\n"
        rc, out = run(capsys, "four-cyl", "--t-max", "1e5", "--samples", "2", *mirror)
        assert rc == 0 and len(out.splitlines()) == 3

    def test_rows_are_written_as_they_are_made(self, capsys, monkeypatch):
        rows = run(capsys, "four-cyl", "--samples", "9")[1].splitlines()
        assert raise_on_call(monkeypatch, "four_cyl_point", 6, "four-cyl", "--samples", "9") == 2
        assert capsys.readouterr().out.splitlines() == rows[:6]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 5000), st.floats(5e-324, 1e5))
    @example(5000, 5e-324)  # step = t_max / (n - 1) underflows to 0
    @example(3, 1e-323)
    @example(4999, 2.2250738585072014e-308)
    @example(100, 1e5)
    def test_grid_is_linspace_bit_for_bit(self, n, t_max):
        made = []
        point = cli.four_cyl_point(0.0, False)
        with mock.patch.object(cli, "four_cyl_point", lambda T, mirror: made.append(T) or point), \
                contextlib.redirect_stdout(io.StringIO()):
            assert main(["four-cyl", "--samples", str(n), "--t-max", repr(t_max)]) == 0
        assert [T.hex() for T in made] == [T.hex() for T in np.linspace(0.0, t_max, n).tolist()]


class TestExportScene:
    def test_record_scene(self, capsys, tmp_path):
        out_path = tmp_path / "scene.obj"
        rc, doc = run_json(
            capsys, "export-scene", "--segments", "8", "--out", str(out_path)
        )
        assert rc == 0
        assert doc["radius"] == pytest.approx(R_RECORD, abs=1e-12)
        assert abs(doc["min_surface_gap"]) <= 1e-12
        text = out_path.read_text()
        assert text.startswith("o sphere\n") and text.endswith("\n")

    @pytest.mark.parametrize("existing", [None, b"o kept\n"], ids=["no-file", "existing-file"])
    def test_segments_past_the_bound(self, capsys, tmp_path, existing):
        # refused before any mesh is built or --out is opened: no file, an existing one
        # untouched, and no wait on a typo
        out_path = tmp_path / "scene.obj"
        if existing is not None:
            out_path.write_bytes(existing)
        rc, err = run_failing(capsys, "export-scene", "--segments", "100000000000",
                              "--out", str(out_path))
        assert (rc, err) == (1, "error: --segments must be at most 1024: 100000000000\n")
        assert (out_path.read_bytes() if out_path.exists() else None) == existing

    @pytest.mark.parametrize("existing", [None, b"o kept\n"], ids=["no-file", "existing-file"])
    def test_segments_are_refused_first(self, capsys, tmp_path, existing):
        out_path = tmp_path / "scene.obj"
        if existing is not None:
            out_path.write_bytes(existing)
        rc, err = run_failing(capsys, "export-scene", "--segments", "4", "--radius", "0",
                              "--length", "-1", "--out", str(out_path))
        assert (rc, err) == (1, "error: --segments must be at least 8: 4\n")
        rc, err = run_failing(capsys, "export-scene", "--radius", "0", "--length", "-1",
                              "--out", str(out_path))
        assert (rc, err) == (1, "error: --radius must be positive and finite: 0.0\n")
        assert (out_path.read_bytes() if out_path.exists() else None) == existing

    def test_defaults(self, capsys, tmp_path):
        # without --length and --segments the tubes have half-length 6 and the meshes 64 segments
        out_path = tmp_path / "scene.obj"
        rc, doc = run_json(capsys, "export-scene", "--at", "c6", "--out", str(out_path))
        assert rc == 0 and doc["segments"] == 64
        config = chart_c6(D3Params(0.0, 0.0, 0.0))
        assert out_path.read_text() == "".join(scene_obj(config, doc["radius"], 6.0, 64))

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        run(capsys, "export-scene", "--at", "c6", "--segments", "8", "--out", str(a))
        run(capsys, "export-scene", "--at", "c6", "--segments", "8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_file_sources(self, capsys, tmp_path):
        coords_doc = tmp_path / "chart.json"
        coords_doc.write_text(
            json.dumps({"coords": [float(c) for c in chart_record().coords]})
        )
        out_path = tmp_path / "from_coords.obj"
        rc, doc = run_json(
            capsys,
            "export-scene",
            "--at", f"file:{coords_doc}",
            "--segments", "8",
            "--out", str(out_path),
        )
        assert rc == 0
        assert doc["radius"] == pytest.approx(R_RECORD, abs=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(0.0, 2 * math.pi),
                              st.floats(-math.pi, math.pi)), min_size=6, max_size=6))
    def test_lines_document_exported_as_given(self, rows):
        # a lines document of six lines off the poles: export-scene uses its lines,
        # probe their chart, each bit for bit
        with tempfile.TemporaryDirectory() as tmp:
            doc_path, out_path = Path(tmp) / "lines.json", Path(tmp) / "scene.obj"
            doc_path.write_text(json.dumps(lines_document(FreeConfig(rows))))
            config = config_from_dict(json.loads(doc_path.read_text()))
            source = f"file:{doc_path}"
            with contextlib.redirect_stdout(io.StringIO()) as out:
                rc = main(["export-scene", "--at", source, "--segments", "8",
                           "--out", str(out_path)])
                rc_probe = main(["probe", "--at", source, "--trials", "5"])
            d = min_pairwise_distance(config)
            if d == 0.0:  # coincident or crossing lines leave no cylinder radius
                assert (rc, out_path.exists()) == (1, False)
                out_text = out.getvalue()
            else:
                assert rc == 0
                scene_doc, out_text = out.getvalue().split("\n", 1)
                radius = radius_from_distance(d)
                assert json.loads(scene_doc)["radius"] == radius
                assert out_path.read_bytes() == "".join(scene_obj(config, radius, 6.0, 8)).encode()
            assert rc_probe == 0
            want = objective(chart_from_configuration(config))
            assert json.loads(out_text)["objective"] == want

    @pytest.mark.parametrize("doc", [FOUR_VERTICALS, POLE_TANGENT], ids=["four-lines", "pole-tangent"])
    def test_documents_no_chart_covers(self, capsys, tmp_path, doc):
        doc_path, out_path = tmp_path / "lines.json", tmp_path / "scene.obj"
        doc_path.write_text(json.dumps(doc))
        rc, out = run_json(capsys, "export-scene", "--at", f"file:{doc_path}",
                           "--segments", "8", "--out", str(out_path))
        assert rc == 0
        config = config_from_dict(doc)
        assert out["radius"] == radius_from_distance(min_pairwise_distance(config))
        text = out_path.read_text()
        assert sum(ln.startswith("o ") for ln in text.splitlines()) == 1 + len(doc["lines"])
        assert text == "".join(scene_obj(config, out["radius"], 6.0, 8))
        if doc is FOUR_VERTICALS:
            assert out["radius"] == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("bases, dirs, d", [
        (([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0]), "0.0"),
        (([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]), ([0.0, 0.0, 1.0], [0.0, 0.0, 1.0]), "2.0"),
    ], ids=["meeting-lines", "antipodal-parallels"])
    def test_default_radius_refused_at_either_end(self, capsys, tmp_path, bases, dirs, d):
        # without --radius a smallest distance of 0 or 2 gives no touching radius: the refusal
        # names the source and its distance, not a flag that was not given
        doc_path, out_path = tmp_path / "pair.json", tmp_path / "pair.obj"
        doc_path.write_text(json.dumps({"lines": [{"base": b, "dir": u} for b, u in zip(bases, dirs)]}))
        rc, err = run_failing(capsys, "export-scene", "--at", f"file:{doc_path}", "--segments", "8",
                              "--out", str(out_path))
        assert (rc, err) == (1, f"error: without --radius, the smallest distance of file:{doc_path} "
                                f"must lie in (0, 2): {d}\n")
        assert not out_path.exists()

    def test_four_line_document_is_charted(self, capsys, tmp_path):
        # optimize --from and probe --at chart its four lines; 10 charts a step, 3n - 2
        doc_path = tmp_path / "lines.json"
        doc_path.write_text(json.dumps(FOUR_VERTICALS))
        rc, out = run_json(capsys, "optimize", "--from", f"file:{doc_path}")
        assert (rc, out["evals"], out["stop"], len(out["coords"])) == (0, 70, "step", 12)
        assert out["d_best"] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        rc, out = run_json(capsys, "probe", "--at", f"file:{doc_path}", "--trials", "100")
        assert rc == 0 and out["objective"] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_document_with_both_keys_refused(self, capsys, tmp_path):
        doc = lines_document(chart_record())
        doc["coords"] = [float(c) for c in chart_record().coords]
        doc_path = tmp_path / "both.json"
        doc_path.write_text(json.dumps(doc))
        for argv in (["export-scene", "--segments", "8", "--out", str(tmp_path / "x.obj")],
                     ["probe", "--trials", "5"]):
            rc, err = run_failing(capsys, *argv, "--at", f"file:{doc_path}")
            assert rc == 1 and "'coords'" in err
        assert not (tmp_path / "x.obj").exists()

    def test_validation_and_io(self, capsys, tmp_path):
        assert main(
            ["export-scene", "--segments", "4", "--out", str(tmp_path / "x.obj")]
        ) == 1
        assert main(
            ["export-scene", "--out", str(tmp_path / "no" / "dir" / "x.obj")]
        ) == 2


class TestReportAll:
    def test_text_report_passes(self, capsys):
        rc, out = run(capsys, "report-all")
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1] == "13/13 checks passed"
        assert sum(1 for ln in lines if ln.startswith("PASS ")) == 13
        assert not any(ln.startswith("FAIL ") for ln in lines)

    def test_json_report(self, capsys):
        rc, doc = run_json(capsys, "report-all", "--json")
        assert rc == 0
        assert doc["all_passed"] is True
        assert len(doc["checks"]) == 13
        names = [c["name"] for c in doc["checks"]]
        assert names[0] == "record-values" and len(set(names)) == 13
        # each check's measurements, with their margins, beside its verdict and its text
        results = list(run_checks())
        for check, result in zip(doc["checks"], results):
            assert list(check) == ["name", "passed", "details", "measurements"]
            assert (check["name"], check["passed"], check["details"]) == (result.name, True, result.details)
            assert [list(m) for m in check["measurements"]] == [
                ["name", "observed", "relation", "bound", "margin"]] * len(result.measurements)
            for m, want in zip(check["measurements"], result.measurements):
                assert (m["name"], m["relation"], m["margin"]) == (want.name, want.relation, want.margin)
                assert m["margin"] >= 0 and not isinstance(m["margin"], bool)
                for key in ("observed", "bound"):  # a Fraction reads as its text, every other value as itself
                    value = getattr(want, key)
                    number = isinstance(value, (int, float))
                    assert m[key] == (value if number else str(value))
                    assert isinstance(m[key], bool) == isinstance(value, bool) and isinstance(m[key], str) != number

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_timings_go_to_stderr_only(self, capsys, fmt):
        rc, out = run(capsys, "report-all", *fmt)
        rc_timed = main(["report-all", *fmt, "--timings"])
        timed = capsys.readouterr()
        assert (rc_timed, timed.out) == (rc, out)
        first, *rows = [ln.split(": ") for ln in timed.err.splitlines()]
        assert first[0] == "imports" and re.fullmatch(r"peak \d+\.\d MB", first[1])
        assert [name for name, _ in rows] == [r.name for r in run_checks()]
        assert all(re.fullmatch(r"\d+\.\d{4} s, peak \+\d+\.\d MB", rest) for _, rest in rows)

    def test_text_report_loads_no_writer(self):
        # a cold text report writes no JSON, CSV or OBJ, so it never imports their writers
        run, imported = cold_imports("report-all")
        assert run.returncode == 0 and run.stdout.endswith("\n13/13 checks passed\n")
        assert {"cylpack.acceptance", "numpy"} <= imported
        assert not {"json", "cylpack.scene", "cylpack.serialize"} & imported

    def test_json_report_loads_only_json(self):
        # json.dumps writes the report, so serialize, which writes CSV and reads documents, stays out
        run, imported = cold_imports("report-all", "--json")
        assert run.returncode == 0 and json.loads(run.stdout)["all_passed"] is True
        assert "json" in imported
        assert not {"cylpack.scene", "cylpack.serialize"} & imported

    def test_injected_error_fails(self, capsys):
        rc, out = run(capsys, "report-all", "--inject-record-error")
        assert rc == 3
        assert "FAIL record-values" in out


# every float-valued flag, by subcommand
FLOAT_FLAGS = [(command, action.option_strings[0])
               for command, parser in next(a for a in build_parser()._actions if a.choices).choices.items()
               for action in parser._actions if action.type is float]


class TestDirectErrors:
    @pytest.mark.parametrize("argv", [
        ["optimize", "--starts", "2", "--budget", "100"],
        ["probe", "--trials", "5"],
    ])
    def test_negative_seed_names_the_flag(self, capsys, argv):
        # the library refuses rng_seed; optimize --from refuses any --seed
        # (test_flags_the_mode_ignores_are_refused)
        rc, err = run_failing(capsys, *argv, "--seed", "-1")
        assert (rc, err) == (1, "error: --seed must be at least 0: -1\n")

    @pytest.mark.parametrize("argv, message", [
        (["curve", "--samples", "0"], "--samples must be at least 1: 0"),
        (["four-cyl", "--samples", "1"], "--samples must be at least 2: 1"),
        (["unlock-check", "--n", "1"], "--n must be at least 2: 1"),
    ])
    def test_cli_counts_read_like_library_counts(self, capsys, argv, message):
        assert run_failing(capsys, *argv) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["curve", "--samples"], ["four-cyl", "--samples"], ["unlock-check", "--n"]])
    def test_counts_past_the_float_range_name_the_flag(self, capsys, argv):
        # each command divides by its count: unlock-check and four-cyl exited 2 with "int too large
        # to convert to float", and curve wrote its header before refusing its first x, 0.0
        big = 10 ** 400
        assert main([*argv, str(big)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {argv[1]} must be at most {sys.float_info.max!r}: {big}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["four-cyl", "--t-max", "inf"], "--t-max must be positive and finite: inf"),
            (["four-cyl", "--t-max", "nan"], "--t-max must be positive and finite: nan"),
            (["export-scene", "--radius", "inf"], "--radius must be positive and finite: inf"),
            (["export-scene", "--length", "inf"], "--length must be positive and finite: inf"),
            (["export-scene", "--length", "nan"], "--length must be positive and finite: nan"),
            # mesh coordinates that overflow: numpy warned, then the OBJ writer refused an inf
            (["export-scene", "--at", "c6", "--radius", "1e308"],
             "--radius must keep the mesh bound 1 + 2 radius + length finite: 1e+308"),
            (["export-scene", "--radius", "1e307", "--length", "1.7e308"],
             "--length must keep the mesh bound 1 + 2 radius + length finite: 1.7e+308"),
            # a box 2 * radius wide that overflows: numpy's uniform refused it, exit 2
            (["probe", "--radius", "1e308", "--trials", "3"],
             "--radius must keep the box width 2 * radius finite: 1e+308"),
            (["eval", "--phi", "nan"], "--phi must be finite"),
            (["eval", "--delta", "inf"], "--delta must be finite"),
            (["eval", "--kappa", "nan"], "--kappa must be finite"),
            (["eval", "--kappa", "-inf"], "--kappa must be finite"),
        ],
    )
    def test_non_finite_inputs_fail_before_numpy(self, capsys, tmp_path, argv, message):
        out_path = tmp_path / "scene.obj"
        if argv[0] == "export-scene":
            argv = [*argv, "--segments", "8", "--out", str(out_path)]
        assert run_failing(capsys, *argv) == (1, f"error: {message}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["optimize", "--starts", "0"],
        ["optimize", "--budget", "0"],
        ["probe", "--trials", "0"],
        ["probe", "--radius", "0"],
        ["export-scene", "--length", "-1"],
        ["eval", "--phi", "1.6"],
        ["eval", "--phi", "-90", "--degrees"],
        ["eval", "--kappa", "7"],
        ["unlock-check", "--alpha", "4.0"],
        ["unlock-check", "--alpha", "1e-160"],
    ])
    def test_library_checks_name_the_flag(self, capsys, tmp_path, argv):
        # the library checks these values under its own names; the error line names the flag
        out = ["--out", str(tmp_path / "scene.obj")] if argv[0] == "export-scene" else []
        rc, err = run_failing(capsys, *argv, *out)
        assert rc == 1 and err.startswith(f"error: {argv[1]} must ")

    def test_unlock_check_refuses_a_subnormal_baseline_by_the_flag_given(self, capsys):
        # from n = 1e162 the probe's distances read 0 under "unlockable", and 1e163 divided by zero
        n, least = 10**163, unlocking._ALPHA_MIN
        assert run_failing(capsys, "unlock-check", "--n", str(n)) == (
            1, f"error: --n must be at most pi / {least!r}: {n}\n")
        assert run_failing(capsys, "unlock-check", "--alpha", repr(math.pi / n)) == (
            1, f"error: --alpha must be at least {least!r}, where 4 sin^2(alpha/2) is normal: {math.pi / n!r}\n")
        rc, doc = run_json(capsys, "unlock-check", "--n", str(10**154))
        assert rc == 0 and doc["witness"]["delta1_window"] == [1.0 / math.sqrt(3.0), 1.0]

    @pytest.mark.parametrize("argv, message", [
        (["optimize", "--from", "c6", "--starts", "5"], "--starts has no effect with --from"),
        (["optimize", "--from", "record", "--seed", "0"], "--seed has no effect with --from"),
        (["optimize", "--from", "record", "--seed", "-1"], "--seed has no effect with --from"),
        (["eval", "--x", "0.5", "--degrees"], "--degrees has no effect with --x"),
        (["unlock-check", "--n", "3", "--degrees"], "--degrees has no effect with --n"),
    ])
    def test_flags_the_mode_ignores_are_refused(self, capsys, argv, message):
        assert run_failing(capsys, *argv) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS, ids=[" ".join(f) for f in FLOAT_FLAGS])
    def test_negative_floats_with_an_exponent_are_values(self, capsys, tmp_path, command, flag):
        # argparse reads only -1 and -1.5 as negative numbers unless told otherwise, and took -1e-3
        # for a flag: "expected one argument"
        out = ["--segments", "8", "--out", str(tmp_path / "scene.obj")] if command == "export-scene" else []
        results = []
        for argv in ([command, flag, "-1e-3", *out], [command, f"{flag}=-1e-3", *out]):
            rc = main(argv)
            results.append((rc, *capsys.readouterr()))
        assert results[0] == results[1] and "expected one argument" not in results[0][2]

    def test_overflowing_base_is_one_error_line(self, capsys, tmp_path):
        doc = tmp_path / "lines.json"
        doc.write_text(json.dumps({"lines": [
            {"base": [1e200, 0.0, 0.0], "dir": [0.0, 0.0, 1.0]},
            {"base": [0.0, 1.0, 0.0], "dir": [0.0, 0.0, 1.0]},
        ]}))
        rc, err = run_failing(capsys, "probe", "--at", f"file:{doc}", "--trials", "5")
        assert (rc, err) == (1, "error: base must be a unit vector, |base| = inf\n")


# documents whose numbers are not all JSON numbers, and the error line each gives
LINE = {"base": [1.0, 0.0, 0.0], "dir": [0.0, 0.0, 1.0]}
OTHER_LINE = {"base": [0.0, 1.0, 0.0], "dir": [0.0, 0.0, 1.0]}
COORDS_REFUSED = "'coords' must be a list of numbers"
MALFORMED = {
    "coords-object": ({"coords": {"phi": 0.0}}, COORDS_REFUSED),
    "coords-holding-an-object": ({"coords": [{"phi": 0.0}, *[0.0] * 17]}, COORDS_REFUSED),
    "coords-holding-true": ({"coords": [True, *[0.0] * 17]}, COORDS_REFUSED),
    "coords-holding-a-numeric-string": ({"coords": ["1", *[0.0] * 17]}, COORDS_REFUSED),
    "coords-of-booleans-and-strings": ({"coords": [True, False, True, "1", 0, *[0.5] * 13]}, COORDS_REFUSED),
    "coords-nested": ({"coords": [[0.0, 0.0, 0.0]] * 6}, COORDS_REFUSED),
    "coords-holding-an-int-past-the-largest-double": ({"coords": [10**400, *[0.0] * 17]},
                                                      COORDS_REFUSED),
    "base-object": ({"lines": [{**LINE, "base": {"x": 1.0}}, OTHER_LINE]},
                    "'base' must be a list of 3 numbers"),
    "dir-holding-true": ({"lines": [{**LINE, "dir": [0.0, 0.0, True]}, OTHER_LINE]},
                         "'dir' must be a list of 3 numbers"),
    "base-holding-an-int-past-the-largest-double": ({"lines": [{**LINE, "base": [10**400, 0, 0]}, OTHER_LINE]},
                                                    "'base' must be a list of 3 numbers"),
    "dir-holding-an-int-past-the-largest-double": ({"lines": [{**LINE, "dir": [0, 0, -10**400]}, OTHER_LINE]},
                                                   "'dir' must be a list of 3 numbers"),
}
# any JSON value: null, booleans, numbers and text inside arrays and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=20,
)


class TestDocumentNumbers:
    @pytest.mark.parametrize("command", ["probe --at", "optimize --from", "export-scene --at"])
    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_document_is_one_error_line(self, capsys, tmp_path, command, name):
        # objects crashed with a TypeError traceback; true and "1" were read as 1.0, a nested
        # coords list as its flattened numbers, and an int past the largest double exited 2
        # with float()'s OverflowError, naming no key
        doc, message = MALFORMED[name]
        doc_path, out_path = tmp_path / "doc.json", tmp_path / "scene.obj"
        doc_path.write_text(json.dumps(doc))
        argv = [*command.split(), f"file:{doc_path}"]
        if argv[0] == "export-scene":
            argv += ["--out", str(out_path)]
        assert run_failing(capsys, *argv) == (1, f"error: {message}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["probe --at", "optimize --from", "export-scene --at"])
    @pytest.mark.parametrize("content, reason", [
        (b'{"coords": [1, 2, ', "Expecting value: line 1 column 19 (char 18)"),
        (b'\xff{"coords": []}', "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[" * 100000 + b"]" * 100000,
         "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    ], ids=["not-json", "not-utf-8", "too-deep"])
    def test_unreadable_document_is_one_line_naming_its_path(self, capsys, tmp_path, command,
                                                              content, reason):
        # the decoder's message alone named no file, and a too deeply nested document printed
        # json.load's RecursionError traceback
        doc_path, out_path = tmp_path / "doc.json", tmp_path / "scene.obj"
        doc_path.write_bytes(content)
        argv = [*command.split(), f"file:{doc_path}"]
        if argv[0] == "export-scene":
            argv += ["--out", str(out_path)]
        assert run_failing(capsys, *argv) == (1, f"error: {doc_path} is not a UTF-8 JSON document: {reason}\n")
        assert not out_path.exists()

    @settings(deadline=None, max_examples=300)
    @given(JSON_VALUES | st.lists(st.integers() | st.floats(), max_size=20), st.integers(0, 4))
    @example([10**400, *[0.0] * 17], 0)  # st.integers() draws none past the largest double
    @example([0, 0, -10**400], 3)
    def test_any_value_reads_or_is_refused(self, value, place):
        # under each key that holds numbers, any JSON value reads or raises one of the
        # errors main reports on one line
        doc = [{"coords": value}, {"lines": value}, {"lines": [{**LINE, "base": value}, OTHER_LINE]},
               {"lines": [{**LINE, "dir": value}, OTHER_LINE]}, value][place]
        with tempfile.TemporaryDirectory() as tmp:
            doc_path = Path(tmp) / "doc.json"
            doc_path.write_text(json.dumps(doc))
            try:
                cli._source(f"file:{doc_path}")
            except (ValueError, OSError):
                pass

    def test_cli_reads_no_number_itself(self):
        # numbers reach floats only through serialize._numbers: cli.py imports no numpy
        nodes = list(ast.walk(ast.parse(Path(cli.__file__).read_text())))
        imported = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
        assert [name for name in imported if name.partition(".")[0] == "numpy"] == []
        # and it reads a document only through config_from_dict, which alone tells its kind
        assert [alias.name for node in nodes if isinstance(node, ast.ImportFrom) and node.module == "serialize"
                for alias in node.names if alias.name.startswith("_")] == []

    @given(st.lists(st.integers(-2**80, 2**80) | st.floats(allow_nan=False, allow_infinity=False),
                    min_size=3, max_size=3))
    def test_numbers_read_as_numpy_read_them(self, values):
        # every well-formed document reads to the bits np.asarray(..., dtype=float) gave
        assert np.array(_numbers(values, "base", 3)).tobytes() == np.asarray(values, dtype=float).tobytes()


# sha256 of the stdout, and the exit code, of each command, taken before the writers were cut
# down to builtin values (the optimize and report-all ones since the SQP search replaced the
# pattern search, the optimize --from ones since their documents dropped the unread seed, the
# report-all ones since latitudes crossed the poles, since record-values bounded r by 1e-14 and
# since unlock-verdicts built the whole rings, since the cross-check certified its blind ends and
# since each check's bounds became measurements and the cross-check compared Firsching's r, and
# since record-configuration measured its worst pair, and since alternate-strategy measured order 0
# on built pairs in three directions, and since series-coefficients measured its worst relative
# deviation in place of a count; optimize --starts 4 and report-all since every start of multi_start
# is blind; optimize --from c6 since -0.0 kept its sign, the unlock-check
# ones since alternate_strategy dropped its copy of alpha, and --alpha 40 since the tilt window's
# lower end took its closed form, an ulp of delta1 away, and --n 3 and --alpha 40 since the witness
# reported kappa2's half-width in place of its window's ends; the export-scene ones
# of a pole line and of curve:0.3 before scene_obj meshed the configuration's table rows; the lines-document probe and optimize --from ones before
# a chart became a Configuration; eval of a -0.0 angle since it kept the zero's sign; every eval
# one since it dropped d3_symmetric, which read true on every configuration eval builds; eval --x 1
# before gamma_point read its angles from curve._angles_of_x, whose rise x - 1 keeps kappa +0.0 there);
# every JSON one since JSON is written by json.dumps, whose floats read back as floats with their bits;
# paths are relative, so no digest depends on where the tests run
GOLDEN = [
    (["eval", "--x", "0.5"], "0e8a429fc3deeddf216535651b14d29e3e964db9d4f7908d74bdd2688ca7752e"),
    (["eval", "--x", "1"], "3841f7fdfa042def4e8edaf702a38b3c81a38698ff64320a44e169ec2213fc1b"),
    (["eval", "--x", "0.25"], "43fcce41b5275253d7fd476bf975499e4d7d7674bad440d3f78c658539be1e53"),
    (["eval", "--phi", "0.3", "--delta", "0.2", "--kappa", "-0.4"],
     "d4857536d325cb17da688ba38e3d5406ed9819ac04b9ae85e85d9efdb0d03968"),
    (["eval", "--phi", "10", "--degrees"],
     "8b7cd3a95e228b74caf8ae180f9a628d754c726e4e486b9b4880c1dfbb0c719e"),
    (["eval", "--phi", "-0.0", "--delta", "0.3", "--kappa", "0.2"],
     "e9e7237f931decf50ca8e33c1491431ace4b1857fa690f67cd06cfb795efaa50"),
    (["curve", "--samples", "101"], "4839fdb5696fffec3d79b4846c74600e9c132730416a78e97bb3e9db463ffdcf"),
    (["curve", "--samples", "3"], "c237900d54cfc969c07c86eadf37bef10562b4437553faee5525eb38e4cda0ee"),
    (["curve", "--samples", "1"], "0e8bd072db05e6b28f11863ee13aa175a44367405a451ca4b80ebcba6293ab56"),
    (["record"], "c94526aa25330029f814bb19ea3404f82226d70e08aac3bb1d7f651687552de8"),
    (["optimize", "--starts", "4", "--budget", "20000"],
     "59e9158458c8301ac26120a531a89f858c5013003c392c0aa7e3cbd78370ba96"),
    (["optimize", "--from", "c6", "--budget", "20000"],
     "65ebaa7058f428be0b1cfc930a6d4c64f48e9f175c857c38f05c36c54f4aa7e4"),
    (["optimize", "--from", "file:record.json", "--budget", "20000"],
     "ad28cb60248e22dd0696f5e8f1f272adb96490a38be1e1c19471bec52303aa79"),
    (["optimize", "--from", "file:lines.json", "--budget", "20000"],
     "1c606f3673df4ab3a402a25dbb14e4a79ff6c7506fb326a9a0ac35ac9a9187aa"),
    (["probe", "--at", "record"], "58be749ce3a7fa8e11d9cd8a41f52c1b1dca22198f62ce582eb909adde1c02ea"),
    (["probe", "--at", "curve:0.3"], "699e01b1b5fd547fab9a776dcd31721cc1acfc3d0614431b27e810c20ca312dc"),
    (["probe", "--at", "file:lines.json"], "4e06e7fee7cfee94724c4790a4f3340617cab942b1d1a0e4e310410a920ec58e"),
    (["unlock-check", "--n", "3"], "b1099959094545f174f83071620698638c874c8c6c86a9174414f22cbecc563a"),
    (["unlock-check", "--n", "2"], "c46cfb481f64b108897bab5e2f01a64b129c5daafb092b14ceb0cf0194efbea2"),
    (["unlock-check", "--alpha", "1.6"],
     "549e869b4a0002be10e3619d92791508f903828d0b5c86526d26971683212481"),
    (["unlock-check", "--alpha", "40", "--degrees"],
     "d62001a32a86772ea6089339fff56388c4d3830b88823ec6523fe015fdbaf07a"),
    (["four-cyl"], "44033c16ccf5b0cd187342356033026d6cad0a54693b45ab5c9512e6c5e1d6b8"),
    (["four-cyl", "--mirror"], "1d165f0a210bb56098edaf7c3458a6de0725c303b79aa3c4e9ffb4d3ca42f520"),
    (["four-cyl", "--samples", "2"], "5f53758d0998af34a9c1a7153754e9c5c0c894219c6f5798206d56cbda5552f9"),
    (["four-cyl", "--samples", "7", "--t-max", "1e5", "--mirror"],
     "f4390c4cfa01f6d1073c762e0af262222cc6c25833a026d22bfd653b3482c04e"),
    (["export-scene", "--segments", "8", "--out", "scene.obj"],
     "9aec634a5bc5a5c1bb948e8f3e8b221143e782849675d1bd90c8584b245561f0"),
    (["export-scene", "--at", "file:pole.json", "--segments", "8", "--out", "pole.obj"],
     "8e4192f9247ca6bc801f62daffd69af1bb91217b0a2b3efbc06a0113d3850d81"),
    (["export-scene", "--at", "curve:0.3", "--segments", "9", "--radius", "0.5", "--length", "2",
      "--out", "curve.obj"], "00c00721ad7a5b3b1001c4539c3fb0e0235c7c272eb72cadf90fd8d1be1a8548"),
    (["report-all", "--json"], "84d9b6b20aea3572fa48bf160de4fd25ea9e67748a4cb627ef6f1240225ebf9f"),
    (["report-all"], "29cd171a1344196d2810af01ccd678adf5a3ae1d4d3e773a55db1ef2ca7bf414"),
]
SCENE_OBJ = "414d2a14bdcceab96b7edf99de472a3c45d5cda58a436e892620183991cce6eb"  # scene.obj's
# sha256 of each export-scene golden's OBJ file, by --out
OBJ_DIGESTS = {"scene.obj": SCENE_OBJ,
               "pole.obj": "c8f7e727b88ec5f69cbceb30a2dc571e59aa42f96541300d1d898b0fa3f834c1",
               "curve.obj": "10305325db67adff01284058e1e1f829769d06a6905ed40ed3bfea95efd8856e"}


def test_optimize_coords_read_back_bit_for_bit(capsys):
    # the c6 chart's nine -0.0 coordinates read back as -0.0, not as the int 0 that "-0" reads as
    rc, out = run(capsys, "optimize", "--from", "c6", "--budget", "2000")
    coords = json.loads(out)["coords"]
    want = local_maximize(chart_c6(D3Params(0.0, 0.0, 0.0)), 2000).best.coords
    assert rc == 0 and np.array(coords, dtype=float).tobytes() == want.tobytes()
    assert sum(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in coords) == 9


def _eval_doc(x: float) -> dict:
    sample, config = build_curve_point(x)
    p, trip, d = sample.params, triplets_generic(sample.params), min_pairwise_distance(config)
    return {"params": {"phi": p.phi, "delta": p.delta, "kappa": p.kappa},
            "distances_sq": {"dab": trip.dab_sq, "dad": trip.dad_sq, "dbd": trip.dbd_sq, "dae": trip.dae_sq},
            "min_distance": d, "radius": radius_from_distance(d)}


def _optimize_c6_doc(budget: int) -> dict:
    result = local_maximize(chart_c6(D3Params(0.0, 0.0, 0.0)), budget)
    return {"from": "c6", "budget": budget, "d_best": result.d_best, "r_best": result.r_best,
            "evals": result.evals, "stop": result.stop, "trace": result.trace, "coords": result.best.coords.tolist()}


def assert_reads_back(got, want, path="doc"):
    """``got``, as json.loads read it, is ``want`` with every tuple a list: each float a float with
    the same bits, -0.0 and integral floats included, each int an int and each bool a bool."""
    if isinstance(want, dict):
        assert type(got) is dict and list(got) == list(want), path
        for key, value in want.items():
            assert_reads_back(got[key], value, f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert type(got) is list and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_reads_back(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float and got.hex() == float.hex(want), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


# JSON commands and the library's values for the same call; eval --x 1 has phi, delta and kappa 0.0,
# unlock-check --n 3 phi1 1.0, the probe an exceed_fraction of 0.0 and the c6 chart nine -0.0s, floats
# that must not read back as ints
DOCUMENTS = [
    (["eval", "--x", "1"], lambda: _eval_doc(1.0)),
    (["unlock-check", "--n", "3"], lambda: {**unlocking.unlock_verdict(math.pi / 3),
                                            "alternate_strategy": unlocking.alt_strategy_verdict(math.pi / 3)}),
    (["probe", "--at", "record"],
     lambda: {"at": "record", **perturbation_probe(chart_record(), _PROBE_RUN["radius"], _PROBE_RUN["trials"],
                                                   _PROBE_RUN["rng_seed"])}),
    (["optimize", "--from", "c6", "--budget", "2000"], lambda: _optimize_c6_doc(2000)),
    (["record"], record),
]


@pytest.mark.parametrize("argv, want", DOCUMENTS, ids=[" ".join(argv) for argv, _ in DOCUMENTS])
def test_json_reads_back_as_the_library_values(capsys, argv, want):
    rc, out = run(capsys, *argv)
    assert rc == 0
    assert_reads_back(json.loads(out), want())


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_golden_output(capsys, tmp_path, monkeypatch, argv, digest):
    monkeypatch.chdir(tmp_path)
    Path("record.json").write_text(json.dumps({"coords": chart_record().coords.tolist()}))
    Path("lines.json").write_text(json.dumps(lines_document(chart_record())))
    Path("pole.json").write_text(json.dumps(POLE_TANGENT))
    rc, out = run(capsys, *argv)
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)
    if argv[0] == "export-scene":
        assert hashlib.sha256(Path(argv[-1]).read_bytes()).hexdigest() == OBJ_DIGESTS[argv[-1]]
