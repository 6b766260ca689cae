"""Equal cylinders touching the unit ball.

Tools around one configuration family: six equal-radius infinite
cylinders arranged with a three-fold mirror symmetry around the unit
ball, the one-parameter trajectory along which the six can grow while
sliding, the maximizing radius (3 + sqrt(33))/8 on that trajectory, the
2n-cylinder generalization with its unlocking criterion, and a
derivative-free maximin search over unconstrained tangent-line
configurations.
"""

from .curve import (
    CurveSample,
    RecordReport,
    f_of_x,
    gamma_point,
    pure_geodetic_check,
    record,
    scan_unimodality,
    t_of_x,
)
from .lines import (
    Configuration,
    DegenerateError,
    PARALLEL_TOL,
    SphericalPoint,
    TangentLine,
    distance,
    distance_from_radius,
    distance_sq,
    embed_point,
    make_tangent_line,
    min_pairwise_distance,
    north_tangent,
    radius_from_distance,
    rotate_line,
    rotation_matrix,
)
from .scene import SceneSpec, min_surface_gap, scene_obj, surface_gap
from .search import (
    FreeConfig,
    OptResult,
    chart_c6,
    chart_curve,
    chart_from_configuration,
    chart_record,
    config_lines,
    local_maximize,
    multi_start,
    objective,
    perturbation_probe,
)
from .symmetric import (
    AlgCoords,
    D3Params,
    DistanceTriplets,
    alg_coords,
    build_c6,
    c6_chart,
    d3_orbit_check,
    triplets_alg,
    triplets_generic,
    triplets_trig,
)
from .unlocking import (
    FourCylSample,
    GeneralParams,
    UnlockReport,
    alt_strategy_verdict,
    build_c3,
    dists_general,
    four_cyl_point,
    series_coeffs,
    taylor_coeffs_numeric,
    unlock_verdict,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the checks load on first use, so importing the package does not compile them
    if name in ("CheckResult", "run_all"):
        from . import acceptance

        return getattr(acceptance, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlgCoords",
    "CheckResult",
    "Configuration",
    "CurveSample",
    "D3Params",
    "DegenerateError",
    "DistanceTriplets",
    "FourCylSample",
    "FreeConfig",
    "GeneralParams",
    "OptResult",
    "PARALLEL_TOL",
    "RecordReport",
    "SceneSpec",
    "SphericalPoint",
    "TangentLine",
    "UnlockReport",
    "alg_coords",
    "alt_strategy_verdict",
    "build_c3",
    "build_c6",
    "c6_chart",
    "chart_c6",
    "chart_curve",
    "chart_from_configuration",
    "chart_record",
    "config_lines",
    "d3_orbit_check",
    "distance",
    "distance_from_radius",
    "distance_sq",
    "dists_general",
    "embed_point",
    "f_of_x",
    "four_cyl_point",
    "gamma_point",
    "local_maximize",
    "make_tangent_line",
    "min_pairwise_distance",
    "min_surface_gap",
    "multi_start",
    "north_tangent",
    "objective",
    "perturbation_probe",
    "pure_geodetic_check",
    "radius_from_distance",
    "record",
    "rotate_line",
    "rotation_matrix",
    "run_all",
    "scan_unimodality",
    "scene_obj",
    "surface_gap",
    "t_of_x",
    "triplets_alg",
    "triplets_generic",
    "triplets_trig",
    "unlock_verdict",
    "__version__",
]
