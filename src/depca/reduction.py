"""Triangular cascade solver.

When A and B triangularize simultaneously, the transformed system
(T^-1 A T, T^-1 B T, T^-1 f) has an upper triangular companion
C = T^-1 Z(1, 0) T, so its difference system y(n+1) = C y(n) + h(n)
decouples on the integers from the last row up: level i is the scalar
recursion y_i(n+1) = c_ii y_i(n) + [h_i(n) + sum_{j>i} c_ij y_j(n)], solved
by its own Green series once the levels below it are known.  C and h(n)
come from one ``reduce_to_difference`` of the transformed system, so they
use the closed forms and the quadrature of the direct solver.  Levels are
solved on nested windows sized so every truncated series only reads
samples where the lower levels are valid.  The samples x(n) = T y(n) and
the segments between them come from ``stitch_trajectory``, the direct
solver's propagation formula and checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import signals as sig
from .depca_engine import (
    DepcaSystem,
    HybridTrajectory,
    certify_companion,
    reduce_to_difference,
    solve_bounded_depca,
    stitch_trajectory,
)
from .difference_engine import (
    DichotomyCertificate,
    DifferenceSystem,
    solve_bounded,
    truncation_radius,
)
from .errors import EigenConditionFailError, WindowTooSmallError
from .matrix_core import (
    EigenConditionCheck,
    _phi1,
    check_eigenvalue_condition,
    mat_norm,
    simultaneous_triangularize,
    sup_norm,
)
from .tolerances import DEFAULT, Tolerances


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
    forcing_components: tuple[sig.Signal, ...]
    diagonal_pairs: tuple[tuple[complex, complex], ...]
    eigen_checks: tuple[EigenConditionCheck, ...]

    @property
    def dimension(self) -> int:
        return self.transform.shape[0]


def build_cascade(system: DepcaSystem, user_t=None,
                  tols: Tolerances = DEFAULT) -> TriangularCascade:
    """Triangularize (A, B), transform the forcing, and vet every
    diagonal eigenvalue pair against the invertibility condition."""
    t, a_upper, b_upper = simultaneous_triangularize(system.a, system.b,
                                                     user_t, tols)
    t_inv = np.linalg.inv(t)
    transformed = sig.linear_map(t_inv, system.forcing)
    components = tuple(sig.component(transformed, i)
                       for i in range(system.dimension))

    pairs = []
    checks = []
    for i in range(system.dimension):
        alpha = complex(a_upper[i, i])
        beta = complex(b_upper[i, i])
        check = check_eigenvalue_condition(alpha, beta, tols)
        if not check.passed:
            raise EigenConditionFailError(i, float(check.u_star))
        pairs.append((alpha, beta))
        checks.append(check)

    return TriangularCascade(t, a_upper, b_upper, transformed, components,
                             tuple(pairs), tuple(checks))


def solve_scalar_depca(alpha: complex, beta: complex, z: sig.Signal,
                       n0: int, n1: int, tol: float,
                       tols: Tolerances = DEFAULT) -> HybridTrajectory:
    """Bounded solution of y' = alpha y + beta y([t]) + z(t).

    Delegates to the hybrid solver with 1x1 matrices; the companion
    coefficient must stay off the unit circle (NoDichotomyError otherwise).
    """
    system = DepcaSystem.build(np.array([[alpha]]), np.array([[beta]]), z)
    return solve_bounded_depca(system, n0, n1, tol, tols=tols)


@dataclass(frozen=True)
class LevelTrace:
    index: int
    alpha: complex
    beta: complex
    companion: complex
    window: tuple[int, int]
    sup_samples: float


@dataclass(frozen=True)
class CascadeTrace:
    transform: np.ndarray
    levels: tuple[LevelTrace, ...]


def _window_margins(cascade: TriangularCascade, c_bar: np.ndarray,
                    certs: list[DichotomyCertificate], sup_f: float,
                    tol: float) -> list[int]:
    """Per-level window padding, from a-priori bounds on the level forcings.

    Level i's series reads g_i(n) = h_i(n) + sum_{j>i} c_ij y_j(n) up to
    ``radius_i`` + 1 integers beyond its own window, hence reads every
    level j > i there; the margins therefore accumulate toward the last
    level.  The sups are upper bounds (they only enter logarithmically):
    |h_i(n)| <= phi1(mu_i) sup|T^-1 f|, with mu_i the logarithmic sup-norm
    of the trailing block A[i:, i:]; sup g_i = sup h_i + sum_{j>i} |c_ij|
    sup y_j, and sup y_i = certs[i].solution_bound(sup g_i).
    """
    p = cascade.dimension
    a = cascade.a_upper
    sup_y = [0.0] * p
    radius = [1] * p
    for i in range(p - 1, -1, -1):
        mu = max(a[k, k].real + float(np.sum(np.abs(a[k, k + 1:])))
                 for k in range(i, p))
        sup_g = _phi1(complex(mu)).real * sup_f + sum(
            abs(c_bar[i, j]) * sup_y[j] for j in range(i + 1, p))
        sup_y[i] = certs[i].solution_bound(sup_g)
        # max(sup, 1) also covers the zero-forcing probe inside solve_bounded
        radius[i] = truncation_radius(certs[i].alpha, certs[i].K,
                                      max(sup_g, 1.0), tol)

    margins = [0] * p
    for i in range(1, p):
        margins[i] = margins[i - 1] + radius[i - 1] + 2
    return margins


def solve_by_reduction(system: DepcaSystem, user_t=None, n0: int = 0,
                       n1: int = 1, tol: float = 1e-9,
                       tols: Tolerances = DEFAULT) -> HybridTrajectory:
    """Solve the hybrid system by back-substitution on its triangular
    companion.

    Builds the cascade, reduces the transformed system once, certifies each
    diagonal companion coefficient, solves the scalar level recursions from
    the last level up on nested windows, and stitches x = T y with the
    direct solver's segments and checks.  The result carries a cascade
    trace.
    """
    if n0 >= n1:
        raise ValueError("need n0 < n1")
    cascade = build_cascade(system, user_t, tols)
    p = cascade.dimension
    t_mat = cascade.transform
    tsys = DepcaSystem.build(cascade.a_upper, cascade.b_upper, cascade.forcing)
    quad_tol = min(0.05 * tol, 1e-11)
    dsys = reduce_to_difference(tsys, quad_tol, tols)
    c_bar = dsys.constant_coefficient
    certs = [certify_companion(c_bar[i:i + 1, i:i + 1], tols) for i in range(p)]
    sup_f = mat_norm(np.linalg.inv(t_mat)) * system.forcing.sup_bound()
    margins = _window_margins(cascade, c_bar, certs, sup_f, tol)

    levels: list[np.ndarray] = [np.empty(0)] * p

    def level_sample(j: int, n: int) -> complex:
        k = n - (n0 - margins[j])
        if not 0 <= k < len(levels[j]):
            raise WindowTooSmallError(
                f"cascade level {j} is solved on "
                f"[{n0 - margins[j]}, {n1 + margins[j]}], but an upper level "
                f"reads it at n = {n}"
            )
        return levels[j][k]

    for i in range(p - 1, -1, -1):
        def g(n: int, i: int = i) -> complex:
            return dsys.h(n)[i] + sum(c_bar[i, j] * level_sample(j, n)
                                      for j in range(i + 1, p))

        level = DifferenceSystem.constant(c_bar[i:i + 1, i:i + 1], g)
        levels[i] = solve_bounded(level, certs[i], n0 - margins[i],
                                  n1 + margins[i], tol)[:, 0]

    ys = np.column_stack([levels[i][margins[i]:margins[i] + n1 - n0 + 1]
                          for i in range(p)])
    traj = stitch_trajectory(tsys, dsys, ys, n0, n1, tol, quad_tol, tols,
                             transform=t_mat, original=system)
    traj.cascade = CascadeTrace(
        t_mat,
        tuple(
            LevelTrace(i, *cascade.diagonal_pairs[i], complex(c_bar[i, i]),
                       (n0 - margins[i], n1 + margins[i]), sup_norm(levels[i]))
            for i in range(p)
        ),
    )
    return traj
