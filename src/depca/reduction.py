"""Triangular cascade solver.

When A and B triangularize simultaneously by T, the companion of the
system in the basis T is T^-1 C T, upper triangular with diagonal
c_ii = scalar_companion(a_ii, b_ii): the levels y = T^-1 x decouple on the
integers from the last row up.  A change of basis moves neither the
spectrum nor the dichotomy of C, so the cascade only screens the diagonal
pairs and reports the levels; the solve itself is the direct solver's
sequence on the caller's system (one ``reduce_to_difference``, one
certificate of C, one ``solve_bounded`` sweep, ``stitch_trajectory``),
and the level samples are read back as y(n) = T^-1 x(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import signals as sig
from .depca_engine import (
    DepcaSystem,
    HybridTrajectory,
    _solve_companion,
    solve_bounded_depca,
)
from .errors import EigenConditionFailError, NoDichotomyError
from .matrix_core import (
    _phi1,
    eigenvalue_pair_failures,
    simultaneous_triangularize,
    sup_norm,
)


def scalar_companion(alpha: complex, beta: complex) -> complex:
    """c = e^alpha + beta (e^alpha - 1)/alpha, continuously 1 + beta at 0."""
    return complex(np.exp(alpha) + beta * _phi1(complex(alpha)))


@dataclass(frozen=True)
class TriangularCascade:
    """Joint triangularization plus the per-level scalar data."""

    transform: np.ndarray
    diagonal_pairs: tuple[tuple[complex, complex], ...]


def build_cascade(system: DepcaSystem, user_t=None) -> TriangularCascade:
    """Triangularize (A, B) and vet every diagonal eigenvalue pair against
    the invertibility condition."""
    t, a_upper, b_upper = simultaneous_triangularize(system.a, system.b, user_t)
    failures = eigenvalue_pair_failures(a_upper, b_upper)
    if failures:
        raise EigenConditionFailError(*failures[0])
    pairs = tuple((complex(a_upper[i, i]), complex(b_upper[i, i]))
                  for i in range(system.dimension))
    return TriangularCascade(t, pairs)


def solve_scalar_depca(alpha: complex, beta: complex, z: sig.Signal,
                       n0: int, n1: int, tol: float) -> HybridTrajectory:
    """Bounded solution of y' = alpha y + beta y([t]) + z(t).

    Delegates to the hybrid solver with 1x1 matrices; the companion
    coefficient must stay off the unit circle (NoDichotomyError otherwise).
    """
    system = DepcaSystem.build(np.array([[alpha]]), np.array([[beta]]), z)
    return solve_bounded_depca(system, n0, n1, tol)


@dataclass(frozen=True)
class LevelTrace:
    index: int
    alpha: complex
    beta: complex
    companion: complex
    sup_samples: float


@dataclass(frozen=True)
class CascadeTrace:
    transform: np.ndarray
    levels: tuple[LevelTrace, ...]


def solve_by_reduction(system: DepcaSystem, user_t=None, n0: int = 0,
                       n1: int = 1, tol: float = 1e-9) -> HybridTrajectory:
    """Solve the hybrid system through its triangular companion.

    Builds the cascade, then solves the caller's system with the direct
    solver's sequence (reduction, certificate, one Green sum, stitching),
    without its grid screen: ``build_cascade`` has already vetted every
    diagonal pair.  A level whose companion coefficient c_ii lies on the
    unit circle raises NoDichotomyError naming that level.  The result
    carries a cascade trace with each level's c_ii and the sup of its
    samples y_i(n) = (T^-1 x(n))_i over the solve window.
    """
    if n0 >= n1:
        raise ValueError("need n0 < n1")
    cascade = build_cascade(system, user_t)
    try:
        traj = _solve_companion(system, n0, n1, tol)
    except NoDichotomyError as exc:
        # the eigenvalues of C are those of T^-1 C T, its c_ii
        lam = exc.__cause__.eigenvalue
        i = int(np.argmin([abs(scalar_companion(*pair) - lam)
                           for pair in cascade.diagonal_pairs]))
        raise NoDichotomyError(f"cascade level {i}: {exc}") from exc
    # row i: y_i(n), n = n0..n1
    levels = np.linalg.solve(cascade.transform, traj.samples.T)
    traj.cascade = CascadeTrace(cascade.transform, tuple(
        LevelTrace(i, *pair, scalar_companion(*pair), sup_norm(y))
        for i, (pair, y) in enumerate(zip(cascade.diagonal_pairs, levels))))
    return traj
