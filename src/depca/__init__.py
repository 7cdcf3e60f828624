"""Bounded, periodic and almost periodic solutions of linear differential
equations with piecewise constant argument x'(t) = A x(t) + B x([t]) + f(t),
via reduction to difference equations under exponential dichotomy."""

from . import diagnostics, signals
from .depca_engine import (
    DepcaSystem,
    HybridTrajectory,
    check_propagator_invertibility,
    forcing_integral,
    imaginary_scalar_solve,
    interval_forcing,
    massera_solve,
    propagator,
    reduce_to_difference,
    solve_bounded_depca,
)
from .difference_engine import (
    DichotomyCertificate,
    DifferenceSystem,
    GreenFunction,
    bound_check,
    certify_constant,
    solve_bounded,
    verify_certificate,
)
from .errors import DepcaError
from .matrix_core import (
    SpectralSplit,
    check_eigenvalue_condition,
    eigenvalues,
    expm,
    expm_integral,
    simultaneous_triangularize,
    spectral_split,
)
from .reduction import build_cascade, solve_by_reduction, solve_scalar_depca
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

__all__ = [
    "DEFAULT",
    "DepcaError",
    "DepcaSystem",
    "DichotomyCertificate",
    "DifferenceSystem",
    "GreenFunction",
    "HybridTrajectory",
    "SpectralSplit",
    "Tolerances",
    "bound_check",
    "build_cascade",
    "certify_constant",
    "check_eigenvalue_condition",
    "check_propagator_invertibility",
    "diagnostics",
    "eigenvalues",
    "expm",
    "expm_integral",
    "forcing_integral",
    "imaginary_scalar_solve",
    "interval_forcing",
    "massera_solve",
    "propagator",
    "reduce_to_difference",
    "signals",
    "simultaneous_triangularize",
    "solve_bounded",
    "solve_bounded_depca",
    "solve_by_reduction",
    "solve_scalar_depca",
    "spectral_split",
    "verify_certificate",
]
