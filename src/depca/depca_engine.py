"""Hybrid solver for x'(t) = A x(t) + B x([t]) + f(t).

The equation is exact on each interval [n, n+1): the state propagates by
Z(t, n) = e^{A(t-n)} + (integral of e^{A(t-s)} ds) B applied to x(n), plus
the accumulated forcing H(t).  Matching the interval endpoints produces the
companion difference equation x(n+1) = C x(n) + h(n) with C = Z(n+1, n),
which is solved under exponential dichotomy; segments are then evaluated
with the same propagation formula, never with a time-stepping integrator.

Trajectory construction is two-phase: integer samples first (sequential),
then segment evaluation, which only reads immutable phase-one data.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import signals as sig
from .difference_engine import (
    DichotomyCertificate,
    DifferenceSystem,
    certify_constant,
    recursion_residual,
    solve_bounded,
)
from .errors import (
    BoundaryEigenvalueError,
    ContinuityBreachError,
    NoDichotomyError,
    NotTriangularizableError,
    QuadratureError,
    ResidualCheckError,
    SingularCError,
    ZInvertibilityError,
)
from .matrix_core import (
    as_square_matrix,
    check_eigenvalue_condition,
    eigenvalues,
    expm,
    expm_integral,
    mat_norm,
    simultaneous_triangularize,
    spectral_split,
    sup_norm,
)
from .tolerances import DEFAULT, Tolerances

_GL_NODES, _GL_WEIGHTS = leggauss(10)
_GL16_NODES, _GL16_WEIGHTS = leggauss(16)


def _u_key(u: float) -> float:
    return round(u, 12)


@dataclass
class DepcaSystem:
    """The triple (A, B, f) with dimension p."""

    a: np.ndarray
    b: np.ndarray
    forcing: sig.Signal
    dimension: int
    _prop_cache: dict = field(default_factory=dict, repr=False)
    _int_cache: dict = field(default_factory=dict, repr=False)
    _exp_cache: dict = field(default_factory=dict, repr=False)
    _trig_kernel_cache: dict = field(default_factory=dict, repr=False)
    _resolvent_cache: dict = field(default_factory=dict, repr=False)
    _eigs: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def build(a, b, forcing: sig.Signal) -> "DepcaSystem":
        a = as_square_matrix(a, "A")
        b = as_square_matrix(b, "B")
        if a.shape != b.shape:
            raise ValueError("A and B must share a dimension")
        if forcing.dimension != a.shape[0]:
            raise ValueError(
                f"forcing dimension {forcing.dimension} does not match p = {a.shape[0]}"
            )
        return DepcaSystem(a, b, forcing, a.shape[0])

    def a_eigenvalues(self) -> np.ndarray:
        if self._eigs is None:
            self._eigs = eigenvalues(self.a)
        return self._eigs

    def exp_a(self, u: float) -> np.ndarray:
        key = _u_key(u)
        if key not in self._exp_cache:
            self._exp_cache[key] = expm(self.a, u)
        return self._exp_cache[key]

    def integral_block(self, u: float) -> np.ndarray:
        """integral_0^u e^{As} ds, cached by u."""
        key = _u_key(u)
        if key not in self._int_cache:
            e, integ = expm_integral(self.a, np.eye(self.dimension), u)
            self._exp_cache.setdefault(key, e)
            self._int_cache[key] = integ
        return self._int_cache[key]


def propagator(system: DepcaSystem, t: float, tau: float) -> np.ndarray:
    """Z(t, tau) = e^{A(t-tau)} + (integral_0^{t-tau} e^{As} ds) B."""
    u = t - tau
    if u < -1e-12:
        raise ValueError("propagator needs t >= tau")
    u = max(u, 0.0)
    key = _u_key(u)
    if key not in system._prop_cache:
        # integral_block stores e^{Au} too, so exp_a is then a cache hit
        integral = system.integral_block(u)
        system._prop_cache[key] = system.exp_a(u) + integral @ system.b
    return system._prop_cache[key]


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature for vector integrands


def _gl(fn, a: float, b: float, nodes=_GL_NODES, weights=_GL_WEIGHTS) -> np.ndarray:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = None
    for x, w in zip(nodes, weights):
        v = w * fn(mid + half * x)
        acc = v if acc is None else acc + v
    return half * acc


def adaptive_gl(panel: Callable[[float, float], np.ndarray], a: float, b: float,
                tol: float, max_levels: int = DEFAULT.quad_max_levels) -> np.ndarray:
    """Adaptive Gauss-Legendre: bisect until the refinement stops moving.

    ``panel(lo, hi)`` is the 10-point Gauss-Legendre estimate on [lo, hi].
    """
    if b <= a:
        return 0.0 * panel(a, a)

    def recurse(lo: float, hi: float, whole: np.ndarray, budget: float,
                level: int) -> np.ndarray:
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        refined = left + right
        err = sup_norm(refined - whole)
        if err <= budget:
            return refined
        if level >= max_levels:
            raise QuadratureError(
                f"quadrature on [{lo:.6g}, {hi:.6g}] did not converge after "
                f"{max_levels} refinement levels (error {err:.3g})"
            )
        half_budget = 0.5 * budget
        return (recurse(lo, mid, left, half_budget, level + 1)
                + recurse(mid, hi, right, half_budget, level + 1))

    return recurse(a, b, panel(a, b), tol, 0)


# ---------------------------------------------------------------------------
# accumulated forcing


def _trig_kernel(system: DepcaSystem, u: float, omega: float,
                 tols: Tolerances) -> np.ndarray | None:
    """(i w I - A)^-1 (e^{i w u} I - e^{A u}), or None within the resonance
    margin of spec(A) where the resolvent is unreliable."""
    key = (_u_key(u), omega)
    cache = system._trig_kernel_cache
    if key in cache:
        return cache[key]
    if omega not in system._resolvent_cache:
        gap = float(np.min(np.abs(1j * omega - system.a_eigenvalues())))
        if gap < tols.resonance_margin:
            system._resolvent_cache[omega] = None
        else:
            p = system.dimension
            system._resolvent_cache[omega] = np.linalg.solve(
                1j * omega * np.eye(p) - system.a, np.eye(p, dtype=complex))
    resolvent = system._resolvent_cache[omega]
    if resolvent is None:
        cache[key] = None
        return None
    p = system.dimension
    kernel = resolvent @ (np.exp(1j * omega * u) * np.eye(p) - system.exp_a(u))
    cache[key] = kernel
    return kernel


def _gl_stack(system: DepcaSystem, width: float) -> np.ndarray:
    """half w_k e^{A half (1 - x_k)} for the 10 Gauss-Legendre nodes x_k of a
    panel of this width (half = width / 2), stacked and cached by width."""
    key = ("gl10", _u_key(width))
    if key not in system._exp_cache:
        half = 0.5 * width
        system._exp_cache[key] = np.stack(
            [half * w * expm(system.a, half * (1.0 - x))
             for x, w in zip(_GL_NODES, _GL_WEIGHTS)])
    return system._exp_cache[key]


def interval_forcing(system: DepcaSystem, n: int, u: float, quad_tol: float,
                     tols: Tolerances = DEFAULT) -> np.ndarray:
    """integral_n^{n+u} e^{A(n+u-s)} f(s) ds for 0 <= u <= 1.

    Signals constant on [n, n+1) integrate through the exponential-integral
    block; trigonometric terms use the resolvent closed form away from
    resonance; everything else (and near-resonant terms) goes through
    adaptive Gauss-Legendre split at the signal's breakpoints.
    """
    if u <= 0.0:
        return np.zeros(system.dimension, dtype=complex)
    f = system.forcing

    const = f.constant_on_unit_interval(n)
    if const is not None:
        return system.integral_block(u) @ const

    def quad_for(term_signal: sig.Signal) -> np.ndarray:
        t_end = n + u

        def panel(lo: float, hi: float) -> np.ndarray:
            # e^{A(t_end - s)} = e^{A(t_end - hi)} e^{A(hi - s)}: the second
            # factor depends only on the panel width and the node
            width = hi - lo
            nodes = 0.5 * (lo + hi) + 0.5 * width * _GL_NODES
            inner = np.einsum("kij,kj->i", _gl_stack(system, width),
                              term_signal.evaluate_grid(nodes))
            return system.exp_a(t_end - hi) @ inner

        cuts = [n, *(x for x in term_signal.breakpoints_in(n, t_end)), t_end]
        total = np.zeros(system.dimension, dtype=complex)
        budget = quad_tol / max(1, len(cuts) - 1)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            total = total + adaptive_gl(panel, lo, hi, budget,
                                        tols.quad_max_levels)
        return total

    terms = f.trig_terms()
    if terms is not None:
        out = np.zeros(system.dimension, dtype=complex)
        for coef, omega in terms:
            kernel = _trig_kernel(system, u, omega, tols)
            if kernel is None:
                out = out + quad_for(sig.TrigPolynomial(((coef, omega),),
                                                        system.dimension))
            else:
                out = out + np.exp(1j * omega * n) * (kernel @ coef)
        return out

    return quad_for(f)


def forcing_integral(system: DepcaSystem, t: float, quad_tol: float,
                     tols: Tolerances = DEFAULT) -> np.ndarray:
    """H(t) = integral_{[t]}^{t} e^{A(t-s)} f(s) ds."""
    if quad_tol <= 0:
        raise ValueError("quad_tol must be positive")
    n = math.floor(t)
    return interval_forcing(system, n, t - n, quad_tol, tols)


# ---------------------------------------------------------------------------
# reduction to the companion difference equation


def reduce_to_difference(system: DepcaSystem, quad_tol: float,
                         tols: Tolerances = DEFAULT) -> DifferenceSystem:
    """Companion system x(n+1) = C x(n) + h(n), C = Z(n+1, n).

    C is constant because A and B are; h(n) accumulates the forcing across
    [n, n+1].  A singular C (the invertibility condition failing at the
    interval endpoint) aborts: the equation has no backward-complete flow.
    """
    c = propagator(system, 1.0, 0.0)
    det = complex(np.linalg.det(c))
    if abs(det) < tols.det_threshold:
        raise SingularCError(det)

    def h(n: int) -> np.ndarray:
        return interval_forcing(system, n, 1.0, quad_tol, tols)

    return DifferenceSystem(system.dimension, lambda n: c, h, c)


@dataclass(frozen=True)
class ZInvertibilityReport:
    min_det: float
    argmin_u: float
    grid_points: int
    analytic_performed: bool
    analytic_failures: tuple[tuple[int, float], ...]
    threshold: float

    @property
    def passed(self) -> bool:
        return self.min_det >= self.threshold and not self.analytic_failures

    def __str__(self) -> str:
        parts = [f"min |det Z(u)| = {self.min_det:.3e} at u = {self.argmin_u:.6g} "
                 f"({self.grid_points} grid points, threshold {self.threshold:.1e})"]
        if self.analytic_performed:
            if self.analytic_failures:
                for i, u_star in self.analytic_failures:
                    parts.append(
                        f"eigenvalue invertibility condition violated for pair "
                        f"{i} at u* = {u_star:.12g}")
            else:
                parts.append("eigenvalue condition holds for every pair")
        else:
            parts.append("pair not triangularized; grid check only")
        return "; ".join(parts)


def check_propagator_invertibility(system: DepcaSystem, grid_points: int = 201,
                                   tols: Tolerances = DEFAULT
                                   ) -> ZInvertibilityReport:
    """Screen invertibility of Z(t, tau) across a unit interval.

    When A and B triangularize simultaneously, the scalar eigenvalue-pair
    condition is checked analytically for every diagonal pair; the |det Z|
    grid scan runs in every case as the general fallback.
    """
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    failures: list[tuple[int, float]] = []
    analytic = False
    try:
        _, abar, bbar = simultaneous_triangularize(system.a, system.b, None, tols)
        analytic = True
        for i in range(system.dimension):
            check = check_eigenvalue_condition(abar[i, i], bbar[i, i], tols)
            if not check.passed:
                failures.append((i, float(check.u_star)))
    except NotTriangularizableError:
        pass

    us = np.linspace(0.0, 1.0, grid_points)
    dets = np.array([abs(np.linalg.det(propagator(system, float(u), 0.0)))
                     for u in us])
    i_min = int(np.argmin(dets))
    return ZInvertibilityReport(float(dets[i_min]), float(us[i_min]),
                                grid_points, analytic, tuple(failures),
                                tols.det_threshold)


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class TrajectoryDiagnostics:
    continuity_max: float
    continuity_tol: float
    recursion_residual: float
    residual_max: float | None
    residual_tol: float | None
    certificate: DichotomyCertificate | None
    sup_samples: float


@dataclass
class HybridTrajectory:
    """Integer samples plus per-interval continuous segments.

    ``evaluate`` is exact propagation within [n, n+1): the value is
    Z(t, n) x(n) + H(t) for the direct solver, or a basis-mapped cascade
    stack for the reduction solver.  Valid for n0 <= t <= n1.
    """

    n0: int
    n1: int
    dimension: int
    integer_samples: dict[int, np.ndarray]
    _segment: Callable[[int, float], np.ndarray]
    diagnostics: TrajectoryDiagnostics | None = None
    cascade: object | None = None

    def evaluate(self, t: float) -> np.ndarray:
        if t < self.n0 - 1e-9 or t > self.n1 + 1e-9:
            raise ValueError(f"t = {t} outside the solved window [{self.n0}, {self.n1}]")
        t = min(max(t, float(self.n0)), float(self.n1))
        n = math.floor(t)
        if n >= self.n1:
            return self.integer_samples[self.n1]
        return self._segment(n, t)

    def evaluate_grid(self, ts) -> np.ndarray:
        return np.stack([self.evaluate(float(t)) for t in np.asarray(ts, dtype=float)])

    def sup_samples(self) -> float:
        return max(sup_norm(v) for v in self.integer_samples.values())

    @property
    def window(self) -> tuple[int, int]:
        return (self.n0, self.n1)


def _left_limit_defect(system: DepcaSystem, samples: dict[int, np.ndarray],
                       dsys: DifferenceSystem, n0: int, n1: int) -> float:
    """max over interior integers of |lim_{t->n^-} x(t) - x(n)|.

    The left limit at n+1 of the segment on [n, n+1) is exactly
    Z(n+1, n) x(n) + h(n), so the defect equals the recursion residual.
    """
    worst = 0.0
    c = propagator(system, 1.0, 0.0)
    for n in range(n0, n1):
        left = c @ samples[n] + dsys.h(n)
        worst = max(worst, sup_norm(left - samples[n + 1]))
    return worst


def ode_residual_check(traj: HybridTrajectory, system: DepcaSystem,
                       points_per_interval: int = 7,
                       tols: Tolerances = DEFAULT) -> tuple[float, float]:
    """Central-difference check of x' - A x - B x([t]) - f on open intervals.

    Returns (max residual, allowed tolerance); the tolerance is the
    configured scale factor times (1 + ||A|| + ||B||) times sup |x|.
    Derivatives are only probed at interior points, where the equation
    holds classically.
    """
    step = tols.central_diff_step
    worst = 0.0
    sup_x = traj.sup_samples()
    for n in range(traj.n0, traj.n1):
        x_n = traj.integer_samples[n]
        for j in range(1, points_per_interval + 1):
            t = n + j / (points_per_interval + 1)
            x_plus = traj.evaluate(t + step)
            x_minus = traj.evaluate(t - step)
            x_t = traj.evaluate(t)
            sup_x = max(sup_x, sup_norm(x_t))
            deriv = (x_plus - x_minus) / (2.0 * step)
            rhs = system.a @ x_t + system.b @ x_n + system.forcing.evaluate(t)
            worst = max(worst, sup_norm(deriv - rhs))
    allowed = tols.residual_scale * (1.0 + mat_norm(system.a)
                                     + mat_norm(system.b)) * max(sup_x, 1e-30)
    return worst, allowed


def solve_bounded_depca(system: DepcaSystem, n0: int, n1: int, tol: float,
                        grid_points: int = 201, verify_residual: bool = True,
                        tols: Tolerances = DEFAULT) -> HybridTrajectory:
    """The unique bounded trajectory, built through the companion system.

    Steps: screen Z-invertibility, reduce to x(n+1) = C x(n) + h(n), certify
    the dichotomy of C, sum the Green series for the integer samples, then
    stitch segments with the exact propagation formula.  Continuity at the
    integers and the interior ODE residual are verified before returning.
    """
    if n0 >= n1:
        raise ValueError("need n0 < n1")
    report = check_propagator_invertibility(system, grid_points, tols)
    if not report.passed:
        raise ZInvertibilityError(report)

    quad_tol = min(0.05 * tol, 1e-11)
    dsys = reduce_to_difference(system, quad_tol, tols)
    try:
        cert = certify_constant(dsys.constant_coefficient, tols)
    except BoundaryEigenvalueError as exc:
        raise NoDichotomyError(
            f"companion coefficient has no dichotomy: {exc}"
        ) from exc

    xs = solve_bounded(dsys, cert, n0, n1, tol)
    samples = {n: xs[i] for i, n in enumerate(range(n0, n1 + 1))}

    def segment(n: int, t: float) -> np.ndarray:
        u = t - n
        return (propagator(system, u, 0.0) @ samples[n]
                + interval_forcing(system, n, u, quad_tol, tols))

    continuity = _left_limit_defect(system, samples, dsys, n0, n1)
    if continuity > 10.0 * tol:
        raise ContinuityBreachError(
            f"stitching defect {continuity:.3e} exceeds 10 tol = {10 * tol:.3e}"
        )
    rec_res = recursion_residual(dsys, xs, n0)

    traj = HybridTrajectory(n0, n1, system.dimension, samples, segment)
    residual_max = residual_tol = None
    if verify_residual:
        residual_max, residual_tol = ode_residual_check(traj, system, 7, tols)
        if residual_max > residual_tol:
            raise ResidualCheckError(
                f"interior ODE residual {residual_max:.3e} exceeds "
                f"{residual_tol:.3e}"
            )
    traj.diagnostics = TrajectoryDiagnostics(
        continuity_max=continuity,
        continuity_tol=10.0 * tol,
        recursion_residual=rec_res,
        residual_max=residual_max,
        residual_tol=residual_tol,
        certificate=cert,
        sup_samples=traj.sup_samples(),
    )
    return traj


# ---------------------------------------------------------------------------
# the B = 0 path: hyperbolic A, bounded solution by split improper integrals


@dataclass
class MasseraSolution:
    """Bounded solution of x' = A x + f for hyperbolic A.

    Evaluates the two one-sided improper integrals (stable past, unstable
    future) truncated at ``radius``, by composite Gauss-Legendre split at
    integer and signal breakpoints.
    """

    a: np.ndarray
    forcing: sig.Signal
    split: object
    radius: float
    _kernel: Callable[[float], np.ndarray]
    dimension: int

    def evaluate(self, t: float) -> np.ndarray:
        p_proj = self.split.stable_projection
        q_proj = self.split.unstable_projection
        total = np.zeros(self.dimension, dtype=complex)

        def cells(lo: float, hi: float) -> list[float]:
            cuts = {lo, hi}
            cuts.update(n for n in range(math.ceil(lo), math.floor(hi) + 1)
                        if lo < n < hi)
            cuts.update(self.forcing.breakpoints_in(lo, hi))
            return sorted(cuts)

        if mat_norm(p_proj) > 1e-14:
            def stable_integrand(s: float) -> np.ndarray:
                return self._kernel(t - s) @ (p_proj @ self.forcing.evaluate(s))

            bounds = cells(t - self.radius, t)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                total = total + _gl(stable_integrand, lo, hi,
                                    _GL16_NODES, _GL16_WEIGHTS)
        if mat_norm(q_proj) > 1e-14:
            def unstable_integrand(s: float) -> np.ndarray:
                return self._kernel(t - s) @ (q_proj @ self.forcing.evaluate(s))

            bounds = cells(t, t + self.radius)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                total = total - _gl(unstable_integrand, lo, hi,
                                    _GL16_NODES, _GL16_WEIGHTS)
        return total

    def evaluate_grid(self, ts) -> np.ndarray:
        return np.stack([self.evaluate(float(t)) for t in np.asarray(ts, dtype=float)])

    def residual_check(self, ts, tols: Tolerances = DEFAULT) -> tuple[float, float]:
        step = tols.central_diff_step
        worst = 0.0
        sup_x = 0.0
        for t in ts:
            x_t = self.evaluate(t)
            sup_x = max(sup_x, sup_norm(x_t))
            deriv = (self.evaluate(t + step) - self.evaluate(t - step)) / (2 * step)
            worst = max(worst, sup_norm(deriv - (self.a @ x_t
                                                 + self.forcing.evaluate(t))))
        allowed = tols.residual_scale * (1.0 + mat_norm(self.a)) * max(sup_x, 1e-30)
        return worst, allowed


def massera_solve(a, forcing: sig.Signal, tol: float,
                  tols: Tolerances = DEFAULT) -> MasseraSolution:
    """Bounded solution of x' = A x + f when spec(A) avoids the imaginary axis.

    The truncation radius follows the tail bound of the projected semigroup
    norms: R = ln(max(K_P, K_Q) sup|f| / (tol decay)) / decay.
    """
    a = as_square_matrix(a, "A")
    split = spectral_split(a, "continuous", tols)
    p = a.shape[0]

    if p == 1:
        scalar = complex(a[0, 0])
        def kernel(u: float) -> np.ndarray:
            return np.array([[np.exp(scalar * u)]])
    else:
        def kernel(u: float) -> np.ndarray:
            return expm(a, u)

    decay = tols.alpha_safety * min(split.decay_rate_stable,
                                    split.decay_rate_unstable)
    sup_f = forcing.sup_bound()
    if sup_f <= 0.0:
        radius = 1.0
    else:
        sigma = np.arange(0.0, 40.0 / max(decay, 0.5), 0.5)
        k_p = k_q = 0.0
        if mat_norm(split.stable_projection) > 1e-14:
            k_p = max(mat_norm(kernel(s) @ split.stable_projection)
                      * math.exp(decay * s) for s in sigma)
        if mat_norm(split.unstable_projection) > 1e-14:
            k_q = max(mat_norm(kernel(-s) @ split.unstable_projection)
                      * math.exp(decay * s) for s in sigma)
        k_big = 1.1 * max(k_p, k_q, 1.0)
        radius = max(1.0, math.log(k_big * sup_f / (tol * decay)) / decay)

    return MasseraSolution(a, forcing, split, radius, kernel, p)


# ---------------------------------------------------------------------------
# the purely rotational scalar path


class _CumulativePrimitive:
    """F(t) = integral_0^t g, by composite Gauss-Legendre on fixed cells."""

    def __init__(self, g: sig.Signal, window: float, max_cell: float = 0.5):
        self.g = g
        cuts = {0.0, window, -window}
        cuts.update(float(n) for n in range(-math.ceil(window), math.ceil(window) + 1))
        cuts.update(g.breakpoints_in(-window, window))
        base = sorted(c for c in cuts if -window <= c <= window)
        nodes: list[float] = []
        for lo, hi in zip(base[:-1], base[1:]):
            m = max(1, math.ceil((hi - lo) / max_cell))
            nodes.extend(lo + (hi - lo) * j / m for j in range(m))
        nodes.append(window)
        self.nodes = np.array(sorted(set(nodes)))
        i0 = int(np.searchsorted(self.nodes, 0.0))
        values = [np.zeros(g.dimension, dtype=complex)]
        for lo, hi in zip(self.nodes[i0:-1], self.nodes[i0 + 1:]):
            values.append(values[-1] + _gl(g.evaluate, lo, hi,
                                           _GL16_NODES, _GL16_WEIGHTS))
        forward = values
        values = [np.zeros(g.dimension, dtype=complex)]
        for hi, lo in zip(self.nodes[i0::-1], self.nodes[i0 - 1::-1]):
            values.append(values[-1] - _gl(g.evaluate, lo, hi,
                                           _GL16_NODES, _GL16_WEIGHTS))
        backward = values[1:][::-1]
        self.f_nodes = np.array(backward + forward)

    def __call__(self, t: float) -> np.ndarray:
        i = bisect_right(self.nodes, t) - 1
        i = min(max(i, 0), len(self.nodes) - 1)
        base = self.f_nodes[i]
        lo = float(self.nodes[i])
        if t > lo:
            base = base + _gl(self.g.evaluate, lo, t, _GL16_NODES, _GL16_WEIGHTS)
        elif t < lo:
            base = base - _gl(self.g.evaluate, t, lo, _GL16_NODES, _GL16_WEIGHTS)
        return base


def imaginary_scalar_solve(theta: float, forcing: sig.Signal, x0: complex,
                           window: float, grid_step: float = 1e-2
                           ) -> tuple[Callable[[float], np.ndarray],
                                      sig.PrimitiveBoundednessReport]:
    """Scalar x' = i theta x + f by the rotation formula.

    x(t) = e^{i theta t} (x0 + integral_0^t e^{-i theta s} f(s) ds), with the
    cumulative integral evaluated by composite quadrature.  Boundedness of
    the trajectory reduces to boundedness of the demodulated primitive,
    which is screened on the requested window.
    """
    if forcing.dimension != 1:
        raise ValueError("the rotational path is scalar (dimension 1)")
    if window <= 0:
        raise ValueError("window must be positive")
    demodulated = sig.modulate(forcing, -theta)
    report = sig.integral_primitive_bounded(demodulated, window, grid_step)
    primitive = _CumulativePrimitive(demodulated, window + 1.0)

    def evaluate(t: float) -> np.ndarray:
        return np.exp(1j * theta * t) * (x0 + primitive(t))

    return evaluate, report
