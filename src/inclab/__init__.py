"""Numerical laboratory for inclusion problems in potential theory.

Boundary-integral machinery for a single inclusion in free space: layer
potentials and the Neumann-Poincare operator, transmission solves with
uniform-interior-field diagnostics, polarization tensors with sharp trace
bounds, Newtonian potentials and depolarization factors, elastic
single-layer trace identities, an exterior slit map for the ellipse, and
a shape search confirming the disk minimizes the tensor trace at fixed
area.
"""

from .errors import (
    ConfigError,
    DomainError,
    EmptySampleError,
    InclabError,
    InvalidShapeError,
    NearBoundaryError,
    ResolutionError,
    SolveError,
)
from .geometry import (
    Box,
    BoundaryGrid,
    Ellipse,
    Ellipsoid,
    FourierStar,
    InteriorSample,
    Polygon,
    carlson_rd,
    depolarization_factors,
    depolarization_factors_2d,
    discretize,
    interior_points,
)
from .layerpot import (
    jump_check,
    npo_matrix,
    single_layer_eval,
    single_layer_gradient,
)
from .transmission import (
    Contrast,
    decay_check,
    default_interior_sample,
    flux_continuity_check,
    interior_field,
    solve_density,
)
from .polarization import (
    PolarizationTensor,
    bound_gap_scan,
    minimal_trace_target,
    polarization_tensor,
)
from .newtonian import newtonian_potential, quadratic_interior_fit
from .elastostatics import (
    LameParams,
    conormal_linear,
    elastic_single_layer,
    kelvin_matrix,
    kolosov,
    plain_kernel_moment,
    trace_identity_check,
)
from .hodograph import (
    ExteriorMap,
    ellipse_exterior_map,
    hodograph_map,
    invert_exterior_map,
    koebe,
    leading_coefficient,
    univalence_check,
)
from .shapeopt import (
    OptProblem,
    OptTrace,
    coefficients_to_star,
    minimize_trace,
    overlay_svg,
)
from .serialize import to_csv, to_json, to_jsonl

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "EmptySampleError",
    "InclabError",
    "InvalidShapeError",
    "NearBoundaryError",
    "ResolutionError",
    "SolveError",
    "Box",
    "BoundaryGrid",
    "Ellipse",
    "Ellipsoid",
    "FourierStar",
    "InteriorSample",
    "Polygon",
    "discretize",
    "interior_points",
    "jump_check",
    "npo_matrix",
    "single_layer_eval",
    "single_layer_gradient",
    "Contrast",
    "decay_check",
    "default_interior_sample",
    "flux_continuity_check",
    "interior_field",
    "solve_density",
    "PolarizationTensor",
    "bound_gap_scan",
    "minimal_trace_target",
    "polarization_tensor",
    "carlson_rd",
    "depolarization_factors",
    "depolarization_factors_2d",
    "newtonian_potential",
    "quadratic_interior_fit",
    "LameParams",
    "conormal_linear",
    "elastic_single_layer",
    "kelvin_matrix",
    "kolosov",
    "plain_kernel_moment",
    "trace_identity_check",
    "ExteriorMap",
    "ellipse_exterior_map",
    "hodograph_map",
    "invert_exterior_map",
    "koebe",
    "leading_coefficient",
    "univalence_check",
    "OptProblem",
    "OptTrace",
    "coefficients_to_star",
    "minimize_trace",
    "overlay_svg",
    "to_csv",
    "to_json",
    "to_jsonl",
    "__version__",
]
