"""Optimal transport between tensor-valued measures.

Fields of positive semidefinite matrices are transported, interpolated
and averaged through entropic scaling iterations built on a dense
symmetric-matrix calculus.
"""

from .barycenter import (
    BarycenterProblem,
    barycenter_solve,
    bilinear_weights,
    pointwise_barycenter,
)
from .cost import GroundCost, euclidean_cost, from_distance_matrix, kernel
from .fileio import (
    FileFormatError,
    load_coupling,
    load_distance_matrix,
    load_field,
    save_coupling,
    save_field,
)
from .interpolate import (
    InterpolationParams,
    NumericalConsistencyError,
    anisotropic_diffuse,
    displacement_interpolate,
    single_dirac_distance,
)
from .measure import (
    Coupling,
    TensorMeasure,
    inner,
    marginal_cols,
    marginal_rows,
    primal_objective,
    quantum_entropy,
    quantum_kl,
)
from .render import render_field_svg, write_pgm
from .solver import (
    DualState,
    SolveReport,
    SolverConfig,
    dual_objective,
    fixed_point_residual,
    sinkhorn_solve,
    sinkhorn_solve_trace,
)
from .sym import (
    EigenPair,
    clamp_psd,
    eig_sym,
    exp_sym,
    log_sym,
    lse_reduce,
    lste_reduce,
    pack_upper,
    unpack_upper,
)

__version__ = "0.1.0"

__all__ = [
    "BarycenterProblem",
    "Coupling",
    "DualState",
    "EigenPair",
    "FileFormatError",
    "GroundCost",
    "InterpolationParams",
    "NumericalConsistencyError",
    "SolveReport",
    "SolverConfig",
    "TensorMeasure",
    "anisotropic_diffuse",
    "barycenter_solve",
    "bilinear_weights",
    "clamp_psd",
    "displacement_interpolate",
    "dual_objective",
    "eig_sym",
    "euclidean_cost",
    "exp_sym",
    "fixed_point_residual",
    "from_distance_matrix",
    "inner",
    "kernel",
    "load_coupling",
    "load_distance_matrix",
    "load_field",
    "log_sym",
    "lse_reduce",
    "lste_reduce",
    "marginal_cols",
    "marginal_rows",
    "pack_upper",
    "pointwise_barycenter",
    "primal_objective",
    "quantum_entropy",
    "quantum_kl",
    "render_field_svg",
    "save_coupling",
    "save_field",
    "single_dirac_distance",
    "sinkhorn_solve",
    "sinkhorn_solve_trace",
    "unpack_upper",
    "write_pgm",
]
