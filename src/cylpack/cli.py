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
from dataclasses import replace

from .curve import build_curve_point, gamma_point, record
from .lines import (Configuration, FreeConfig, _count, _positive_finite, chart_from_configuration,
                    min_pairwise_distance, radius_from_distance)
from .search import _PROBE_RUN, _SEARCH_RUN, chart_record, local_maximize, multi_start, perturbation_probe
from .symmetric import D3Params, build_c6, triplets_generic
from .unlocking import _ALPHA_MIN, _T_MAX, alt_strategy_verdict, four_cyl_point, unlock_verdict

CURVE_HEADER = "x,phi,delta,kappa,S,T,U,F,dae_sq"
FOUR_CYL_HEADER = "T,S2,U,kappa,dab_sq,dad_sq,dbd_sq,parallel_residual"  # S2 is S^2
_SOURCES = "record, c6, curve:<x>, file:<path>"
# the flag that sets each value the library checks, keyed by the name its errors start with
_FLAGS = {"n_starts": "--starts", "rng_seed": "--seed", "budget": "--budget", "trials": "--trials",
          "radius": "--radius", "cyl_length": "--length", "segments": "--segments", "phi": "--phi",
          "delta": "--delta", "kappa": "--kappa", "alpha": "--alpha"}


def _source(text: str) -> Configuration:
    """Resolve a configuration source written as a flag value.

    ``record``, ``c6`` (the untilted configuration) and ``curve:<x>`` for a
    trajectory point give a chart's FreeConfig, and a ``file:<path>`` JSON
    document what config_from_dict reads from it, a chart or its lines.
    """
    if text == "record":
        return chart_record()
    if text == "c6":
        return build_c6(D3Params(0.0, 0.0, 0.0))
    if text.startswith("curve:"):
        return build_curve_point(float(text[len("curve:"):]))[1]
    if text.startswith("file:"):
        import json
        from .serialize import config_from_dict
        path = text[len("file:"):]
        with open(path, encoding="utf-8") as handle:
            try:
                return config_from_dict(json.load(handle))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"{path} is not a UTF-8 JSON document: {exc}") from None
    raise ValueError(f"unknown configuration source {text!r}; expected {_SOURCES}")


def _chart_from_source(text: str) -> FreeConfig:
    """The chart of a source; a lines document may hold any number of lines, none at a pole.  A
    chart is kept as it is, not charted again from its lines, which would move its bits."""
    source = _source(text)
    return source if isinstance(source, FreeConfig) else chart_from_configuration(source)


def _float_count(flag: str, value, least: int) -> int:
    """_count's int for a flag that a command divides by, refused past the float range."""
    if (n := _count(flag, value, least)) > sys.float_info.max:
        raise ValueError(f"{flag} must be at most {sys.float_info.max!r}: {value!r}")
    return n


def _emit(lines) -> None:
    """Write each line as it comes, so no table is held whole."""
    sys.stdout.writelines(f"{line}\n" for line in lines)


# serialize (and json) load only where a command writes JSON or CSV: text report-all needs neither
def _emit_json(doc: dict) -> None:
    from .serialize import json_dumps
    _emit([json_dumps(doc)])


def _emit_csv(header: str, rows) -> None:
    from .serialize import csv_line
    _emit([header])
    _emit(map(csv_line, rows))


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
        params = D3Params(*(angle(0.0 if v is None else v) for v in (args.phi, args.delta, args.kappa)))
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
    }
    _emit_json(doc)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    n = _float_count("--samples", args.samples, 1)

    def row(x: float) -> list:
        sample = gamma_point(x)
        p, a = sample.params, sample.coords
        return [x, p.phi, p.delta, p.kappa, a.S, a.T, a.U, sample.f_value, triplets_generic(p).dae_sq]

    _emit_csv(CURVE_HEADER, (row((i + 1) / (n + 1)) for i in range(n)))
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    _emit_json(record())
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.from_source is None:
        starts = _SEARCH_RUN["n_starts"] if args.starts is None else args.starts
        seed = _SEARCH_RUN["rng_seed"] if args.seed is None else args.seed
        result = multi_start(starts, seed, args.budget)
        run_doc = {"starts": starts, "seed": seed, "budget_each": args.budget}
    elif args.starts is not None:
        raise ValueError("--starts has no effect with --from")
    elif args.seed is not None:
        raise ValueError("--seed has no effect with --from")
    else:
        result = local_maximize(_chart_from_source(args.from_source), args.budget)
        run_doc = {"from": args.from_source, "budget": args.budget}
    _emit_json({**run_doc, "d_best": result.d_best, "r_best": result.r_best, "evals": result.evals,
                "stop": result.stop, "trace": result.trace, "coords": result.best.coords.tolist()})
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
        alpha = math.pi / _float_count("--n", args.n, 2)
        if alpha < _ALPHA_MIN:  # unlock_verdict's refusal, named by the flag given
            raise ValueError(f"--n must be at most pi / {_ALPHA_MIN!r}: {args.n!r}")
    else:
        alpha = math.radians(args.alpha) if args.degrees else args.alpha
    _emit_json({**unlock_verdict(alpha), "alternate_strategy": alt_strategy_verdict(alpha)})
    return 0


def cmd_four_cyl(args: argparse.Namespace) -> int:
    n = _float_count("--samples", args.samples, 2)
    _positive_finite("--t-max", args.t_max)
    if args.t_max > float(_T_MAX):
        raise ValueError(f"--t-max must be at most {_T_MAX}: {args.t_max!r}")
    step = args.t_max / (n - 1)  # T as np.linspace(0, t_max, n) makes it, dividing first if step is 0
    grid = (args.t_max if i == n - 1 else i * step if step else i / (n - 1) * args.t_max for i in range(n))
    samples = (four_cyl_point(T, args.mirror) for T in grid)
    _emit_csv(FOUR_CYL_HEADER, ([s.T, s.S2, s.U, s.params.kappa, *s.dists_sq, s.parallel_residual]
                                for s in samples))
    return 0


def cmd_export_scene(args: argparse.Namespace) -> int:
    from .scene import min_surface_gap, scene_obj

    config = _source(args.at)
    radius = args.radius
    if radius is None:
        if not 0.0 < (d := min_pairwise_distance(config)) < 2.0:
            raise ValueError(f"without --radius, the smallest distance of {args.at} must lie in (0, 2): {d!r}")
        radius = radius_from_distance(d)
    records = scene_obj(config, radius, args.length, args.segments)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.writelines(records)
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
    from .acceptance import Measurement, run_checks  # only this command needs the checks

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
        planted = (*results[0].measurements, Measurement("injected", False))  # a failing one
        results[0] = replace(results[0], measurements=planted)
    all_passed = all(r.passed for r in results)
    if args.json:
        checks = [{"name": r.name, "passed": r.passed, "details": r.details,
                   "measurements": [m.doc() for m in r.measurements]} for r in results]
        _emit_json({"checks": checks, "all_passed": all_passed})
    else:
        _emit([*(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.details}" for r in results),
               f"{sum(r.passed for r in results)}/{len(results)} checks passed"])
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
    p.add_argument("--starts", type=int, help=f"multi-start count (default {_SEARCH_RUN['n_starts']}); not with --from")
    p.add_argument("--seed", type=int, help=f"starts' seed (default {_SEARCH_RUN['rng_seed']}); not with --from")
    p.add_argument("--budget", type=int, default=_SEARCH_RUN["budget_each"],
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
    p.add_argument("--radius", type=float, default=_PROBE_RUN["radius"], help="perturbation box size")
    p.add_argument("--trials", type=int, default=_PROBE_RUN["trials"], help="number of perturbations")
    p.add_argument("--seed", type=int, default=_PROBE_RUN["rng_seed"], help="random seed")
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
