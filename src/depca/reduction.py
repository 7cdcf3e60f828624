"""Triangular cascade solver.

When A and B triangularize simultaneously, the transformed system
(T^-1 A T, T^-1 B T, T^-1 f) has an upper triangular companion
C = T^-1 Z(1, 0) T, so its difference system y(n+1) = C y(n) + h(n)
decouples on the integers from the last row up: level i is the scalar
recursion y_i(n+1) = c_ii y_i(n) + [h_i(n) + sum_{j>i} c_ij y_j(n)].  That
back-substitution is exactly what the direct solver's vector Green sum
does for a triangular C, so the transformed system goes through the same
sequence as ``solve_bounded_depca``: one ``reduce_to_difference``, one
certificate of C, one ``solve_bounded`` sweep on the solve window, and
``stitch_trajectory``, which maps samples and segments back by x = T y
and checks the ODE residual against the original system.
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
    a_upper: np.ndarray
    b_upper: np.ndarray
    forcing: sig.Signal
    diagonal_pairs: tuple[tuple[complex, complex], ...]

    @property
    def dimension(self) -> int:
        return self.transform.shape[0]


def build_cascade(system: DepcaSystem, user_t=None) -> TriangularCascade:
    """Triangularize (A, B), transform the forcing, and vet every
    diagonal eigenvalue pair against the invertibility condition."""
    t, a_upper, b_upper = simultaneous_triangularize(system.a, system.b, user_t)
    transformed = sig.linear_map(np.linalg.inv(t), system.forcing)

    failures = eigenvalue_pair_failures(a_upper, b_upper)
    if failures:
        raise EigenConditionFailError(*failures[0])
    pairs = tuple((complex(a_upper[i, i]), complex(b_upper[i, i]))
                  for i in range(system.dimension))
    return TriangularCascade(t, a_upper, b_upper, transformed, pairs)


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

    Builds the cascade, then solves the transformed system with the direct
    solver's sequence (reduction, certificate, one Green sum, stitching
    back by T), without its grid screen: ``build_cascade`` has already
    vetted every diagonal pair.  A level whose companion coefficient c_ii
    lies on the unit circle raises NoDichotomyError naming that level.  The
    result carries a cascade trace with each level's c_ii and the sup of
    its samples y_i(n) over the solve window.
    """
    if n0 >= n1:
        raise ValueError("need n0 < n1")
    cascade = build_cascade(system, user_t)
    tsys = DepcaSystem.build(cascade.a_upper, cascade.b_upper, cascade.forcing)
    companions = [scalar_companion(*pair) for pair in cascade.diagonal_pairs]
    try:
        traj, ys = _solve_companion(tsys, n0, n1, tol,
                                    transform=cascade.transform, original=system)
    except NoDichotomyError as exc:
        # the eigenvalues of the triangular companion are its c_ii
        lam = exc.__cause__.eigenvalue
        i = int(np.argmin([abs(c - lam) for c in companions]))
        raise NoDichotomyError(f"cascade level {i}: {exc}") from exc
    traj.cascade = CascadeTrace(
        cascade.transform,
        tuple(LevelTrace(i, *cascade.diagonal_pairs[i], companions[i],
                         sup_norm(ys[:, i]))
              for i in range(cascade.dimension)),
    )
    return traj
