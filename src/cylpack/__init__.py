"""Equal cylinders touching the unit ball.

Tools around one configuration family: six equal-radius infinite
cylinders arranged with a three-fold mirror symmetry around the unit
ball, the one-parameter trajectory along which the six can grow while
sliding, the maximizing radius (3 + sqrt(33))/8 on that trajectory, the
2n-cylinder generalization with its unlocking criterion, and a
sequential-quadratic-programming maximin search over tangent-line
configurations.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it exports; __getattr__ imports it on first use
_EXPORTS = {
    "acceptance": ("run_checks",),
    "curve": ("CurveSample", "f_of_x", "gamma_point", "pure_geodetic_check", "record",
              "scan_unimodality", "t_of_x"),
    "lines": ("Configuration", "DegenerateError", "FreeConfig", "PARALLEL_TOL", "SphericalPoint",
              "TangentLine", "chart_from_configuration", "distance_sq", "make_tangent_line",
              "min_pairwise_distance", "radius_from_distance"),
    "measurement": ("CheckResult", "Measurement"),
    "scene": ("min_surface_gap", "scene_obj"),
    "search": ("OptResult", "certify", "chart_c6", "chart_curve", "chart_record", "local_maximize",
               "multi_start", "objective", "perturbation_probe"),
    "serialize": (),
    "symmetric": ("AlgCoords", "D3Params", "DistanceTriplets", "GeneralParams", "alg_coords",
                  "build_c3", "build_c6", "c6_chart", "dists_general", "ring_chart",
                  "triplets_alg", "triplets_generic", "triplets_trig"),
    "unlocking": ("FourCylSample", "alt_strategy_verdict", "four_cyl_point", "series_coeffs",
                  "taylor_coeffs_numeric", "unlock_verdict"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
