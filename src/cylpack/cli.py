"""Command-line interface: evaluate, trace, optimize, verify, export.

Every subcommand is deterministic given its flags (seeds included) and
writes identical bytes on repeated runs.  Exit codes: 0 success,
1 usage or validation error, 2 I/O or numerical failure, 3 verification
failure from report-all.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from .curve import build_curve_point, gamma_point, record
from .lines import Configuration, _count, _positive_finite, min_pairwise_distance, radius_from_distance
from .search import (
    FreeConfig,
    chart_c6,
    chart_curve,
    chart_from_configuration,
    chart_record,
    config_lines,
    local_maximize,
    multi_start,
    perturbation_probe,
)
from .symmetric import D3Params, build_c6, d3_orbit_check, triplets_generic
from .unlocking import _T_MAX, alt_strategy_verdict, four_cyl_point, unlock_verdict

CURVE_HEADER = "x,phi,delta,kappa,S,T,U,F,dae_sq"
FOUR_CYL_HEADER = "T,S2,U,kappa,dab_sq,dad_sq,dbd_sq,parallel_residual"  # S2 is S^2
_SOURCES = "record, c6, curve:<x>, file:<path>"
# the flag that sets each value the library checks, keyed by the name its errors start with
_FLAGS = {"n_starts": "--starts", "rng_seed": "--seed", "budget": "--budget", "trials": "--trials",
          "radius": "--radius", "cyl_length": "--length", "segments": "--segments", "phi": "--phi",
          "delta": "--delta", "kappa": "--kappa", "alpha": "--alpha"}


def _source(text: str) -> FreeConfig | Configuration:
    """Resolve a configuration source written as a flag value.

    ``record``, ``c6`` (the untilted configuration), ``curve:<x>`` for a
    trajectory point and a ``file:<path>`` JSON document of 3n chart
    ``coords`` (n >= 2 lines) give a chart; a ``file:`` document of
    ``lines`` gives its Configuration, read by config_from_dict.
    """
    if text == "record":
        return chart_record()
    if text == "c6":
        return chart_c6(D3Params(0.0, 0.0, 0.0))
    if text.startswith("curve:"):
        return chart_curve(float(text[len("curve:"):]))
    if text.startswith("file:"):
        import json
        from .serialize import config_from_dict
        with open(text[len("file:"):], encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and "coords" in data and "lines" not in data:
            return FreeConfig(np.asarray(data["coords"], dtype=float))
        return config_from_dict(data)
    raise ValueError(f"unknown configuration source {text!r}; expected {_SOURCES}")


def _chart_from_source(text: str) -> FreeConfig:
    """The chart of a source; a lines document may hold any number of lines, none at a pole."""
    source = _source(text)
    return chart_from_configuration(source) if isinstance(source, Configuration) else source


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# serialize (and json) load only where a command writes JSON or CSV: text report-all needs neither
def _emit_json(doc: dict) -> None:
    from .serialize import json_dumps
    _emit(json_dumps(doc))


def _emit_csv(header: str, rows) -> None:
    from .serialize import csv_line
    _emit("\n".join([header, *map(csv_line, rows)]))


def cmd_eval(args: argparse.Namespace) -> int:
    angles_given = any(v is not None for v in (args.phi, args.delta, args.kappa))
    if (args.x is None) == (not angles_given):
        raise ValueError("give either --x or angle flags (--phi/--delta/--kappa)")
    if args.x is not None:
        if args.degrees:
            raise ValueError("--degrees has no effect with --x")
        sample, config = build_curve_point(args.x)
        params = sample.params
    else:
        angle = math.radians if args.degrees else float
        params = D3Params(
            angle(args.phi or 0.0), angle(args.delta or 0.0), angle(args.kappa or 0.0)
        )
        config = build_c6(params)
    trip = triplets_generic(params)
    d = min_pairwise_distance(config)
    doc = {
        "params": {"phi": params.phi, "delta": params.delta, "kappa": params.kappa},
        "distances_sq": {
            "dab": trip.dab_sq,
            "dad": trip.dad_sq,
            "dbd": trip.dbd_sq,
            "dae": trip.dae_sq,
        },
        "min_distance": d,
        "radius": radius_from_distance(d),
        "d3_symmetric": d3_orbit_check(config),
    }
    _emit_json(doc)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    n = _count("--samples", args.samples, 1)

    def row(x: float) -> list:
        sample = gamma_point(x)
        p = sample.params
        return [x, p.phi, p.delta, p.kappa, sample.S, sample.T, sample.U, sample.f_value,
                triplets_generic(p).dae_sq]

    _emit_csv(CURVE_HEADER, (row((i + 1) / (n + 1)) for i in range(n)))
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    _emit_json(record())
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.from_source is None:
        starts = 32 if args.starts is None else args.starts
        seed = 0 if args.seed is None else args.seed
        result = multi_start(starts, seed, args.budget)
        run_doc = {"starts": starts, "seed": seed, "budget_each": args.budget}
    elif args.starts is not None:
        raise ValueError("--starts has no effect with --from")
    elif args.seed is not None:
        raise ValueError("--seed has no effect with --from")
    else:
        result = local_maximize(_chart_from_source(args.from_source), args.budget)
        run_doc = {"from": args.from_source, "budget": args.budget}
    doc = {
        **run_doc,
        "d_best": result.d_best,
        "r_best": result.r_best,
        "evals": result.evals,
        "stop": result.stop,
        "trace": result.trace,
        "coords": result.best.coords.tolist(),
    }
    _emit_json(doc)
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    chart = _chart_from_source(args.at)
    report = perturbation_probe(chart, args.radius, args.trials, args.seed)
    _emit_json({"at": args.at, **report})
    return 0


def cmd_unlock_check(args: argparse.Namespace) -> int:
    if (args.alpha is None) == (args.n is None):
        raise ValueError("give exactly one of --alpha or --n")
    if args.n is not None:
        if args.degrees:
            raise ValueError("--degrees has no effect with --n")
        alpha = math.pi / _count("--n", args.n, 2)
    else:
        alpha = math.radians(args.alpha) if args.degrees else args.alpha
    _emit_json({**unlock_verdict(alpha), "alternate_strategy": alt_strategy_verdict(alpha)})
    return 0


def cmd_four_cyl(args: argparse.Namespace) -> int:
    n = _count("--samples", args.samples, 2)
    _positive_finite("--t-max", args.t_max)
    if args.t_max > float(_T_MAX):
        raise ValueError(f"--t-max must be at most {_T_MAX}: {args.t_max!r}")
    samples = (four_cyl_point(T, args.mirror) for T in np.linspace(0.0, args.t_max, n).tolist())
    _emit_csv(FOUR_CYL_HEADER, ([s.t_var, s.s_var, s.u_var, s.params.kappa, *s.dists_sq,
                                 s.parallel_residual] for s in samples))
    return 0


def cmd_export_scene(args: argparse.Namespace) -> int:
    from .scene import SceneSpec, min_surface_gap, scene_obj

    config = _source(args.at)
    if isinstance(config, FreeConfig):
        config = config_lines(config)
    radius = args.radius
    if radius is None:
        radius = radius_from_distance(min_pairwise_distance(config))
    spec = SceneSpec(config, radius, args.length, args.segments)
    text = scene_obj(spec)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    doc = {
        "path": args.out,
        "radius": radius,
        "segments": args.segments,
        "min_surface_gap": min_surface_gap(config, radius),
    }
    _emit_json(doc)
    return 0


def _peak_rss_mb() -> float:
    import resource  # a Unix module, imported only for report-all --timings
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def cmd_report_all(args: argparse.Namespace) -> int:
    from .acceptance import run_checks  # only this command needs the checks

    results = []
    start, peak = time.perf_counter(), _peak_rss_mb() if args.timings else 0.0
    if args.timings:
        print(f"imports: peak {peak:.1f} MB", file=sys.stderr)
    for r in run_checks():
        results.append(r)
        if args.timings:
            now, rss = time.perf_counter(), _peak_rss_mb()
            print(f"{r.name}: {now - start:.4f} s, peak +{rss - peak:.1f} MB", file=sys.stderr)
            start, peak = now, rss
    if args.inject_record_error:  # hidden hook that tests exit code 3 and FAIL-line parsing
        results[0] = replace(results[0], passed=False, details=results[0].details + "; injected")
    all_passed = all(r.passed for r in results)
    if args.json:
        _emit_json({"checks": [asdict(r) for r in results], "all_passed": all_passed})
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.details}"
            for r in results
        ]
        lines.append(
            f"{sum(r.passed for r in results)}/{len(results)} checks passed"
        )
        _emit("\n".join(lines))
    return 0 if all_passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylpack",
        description="Six equal cylinders touching the unit ball: evaluate, "
        "trace, optimize, verify, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="distances and radius of one configuration")
    p.add_argument("--x", type=float, help="trajectory parameter in (0, 1]")
    p.add_argument("--phi", type=float, help="ring latitude")
    p.add_argument("--delta", type=float, help="tangent tilt")
    p.add_argument("--kappa", type=float, help="longitude offset")
    p.add_argument("--degrees", action="store_true", help="angles are in degrees; not with --x")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("curve", help="CSV sample of the unlocking trajectory")
    p.add_argument("--samples", type=int, default=101, help="grid points in (0, 1)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("record", help="the distance-maximizing trajectory point")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("optimize", help="maximin search over free configurations")
    p.add_argument("--starts", type=int, help="multi-start count (default 32); not with --from")
    p.add_argument("--seed", type=int, help="seed of the blind starts (default 0); not with --from")
    p.add_argument("--budget", type=int, default=200000,
                   help="charts measured per start, 3n - 2 a step for n lines, 16 for six")
    p.add_argument(
        "--from", dest="from_source", metavar="SOURCE",
        help=f"polish one seed instead ({_SOURCES})",
    )
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("probe", help="random perturbations around a configuration")
    p.add_argument(
        "--at", default="record",
        help=f"configuration source ({_SOURCES})",
    )
    p.add_argument("--radius", type=float, default=1e-3, help="perturbation box size")
    p.add_argument("--trials", type=int, default=10000, help="number of perturbations")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("unlock-check", help="can 2n cylinders start growing?")
    p.add_argument("--alpha", type=float, help="neighbor angle in (0, pi)")
    p.add_argument("--n", type=int, help="ring size n, meaning alpha = pi/n")
    p.add_argument("--degrees", action="store_true", help="--alpha is in degrees; not with --n")
    p.set_defaults(func=cmd_unlock_check)

    p = sub.add_parser("four-cyl", help="CSV trace of the four-cylinder trajectory")
    p.add_argument("--t-max", type=float, default=5.0, help="largest tilt tangent, at most 1e5")
    p.add_argument("--samples", type=int, default=100, help="grid points")
    p.add_argument("--mirror", action="store_true", help="use the mirror branch")
    p.set_defaults(func=cmd_four_cyl)

    p = sub.add_parser("export-scene", help="write an OBJ mesh of a configuration")
    p.add_argument(
        "--at", default="record",
        help=f"configuration source ({_SOURCES})",
    )
    p.add_argument(
        "--radius", type=float, default=None,
        help="cylinder radius (default: the touching radius)",
    )
    p.add_argument("--length", type=float, default=6.0, help="cylinder half-length")
    p.add_argument("--segments", type=int, default=64, help="mesh resolution")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=cmd_export_scene)

    p = sub.add_parser("report-all", help="verify every headline numeric claim")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--timings", action="store_true",
        help="each check's wall seconds and growth of peak RSS on stderr, in run order",
    )
    p.add_argument(
        "--inject-record-error", action="store_true", help=argparse.SUPPRESS
    )
    p.set_defaults(func=cmd_report_all)

    # a negative float flag value such as -1e-3 or -inf is a value, not an unknown flag: argparse
    # takes only the forms -1 and -1.5 for negative numbers
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValueError as exc:
        name, must, rest = str(exc).partition(" must ")
        print(f"error: {_FLAGS.get(name, name)}{must}{rest}", file=sys.stderr)
        return 1
    except (OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
