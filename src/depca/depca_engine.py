"""Hybrid solver for x'(t) = A x(t) + B x([t]) + f(t).

The equation is exact on each interval [n, n+1): the state propagates by
Z(t, n) = e^{A(t-n)} + (integral of e^{A(t-s)} ds) B applied to x(n), plus
the accumulated forcing H(t).  Matching the interval endpoints produces the
companion difference equation x(n+1) = C x(n) + h(n) with C = Z(n+1, n),
which is solved under exponential dichotomy; segments are then evaluated
with the same propagation formula, never with a time-stepping integrator.

Every quadrature of the forcing is one kernel integral, integral_0^L
e^{M sigma} g(sigma) d sigma (``kernel_integral``): M = A gives the forcing
accumulated on [n, n+u] for every solve, the rotational one included; the
Schur blocks of a hyperbolic A give the two half-lines of Massera's formula.

A trajectory is data (system, samples, quadrature tolerance); its one
evaluator takes each group of points t = n + u with one u in one array step.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import signals as sig
from .difference_engine import (
    DichotomyCertificate,
    DifferenceSystem,
    certify_constant,
    power_sup,
    recursion_residual,
    solve_bounded,
    widen_radius,
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
    eigenvalue_pair_failures,
    eigenvalues,
    expm,
    expm_integral,
    mat_norm,
    pair_factor,
    simultaneous_triangularize,
    spectral_split,
    sup_norm,
)
from .tolerances import DEFAULT

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

    @functools.cached_property
    def kernel(self) -> "Kernel":
        """The kernel of A; it reads the e^{Au} that ``integral_block`` forms."""
        return Kernel(self.a, self._exp_cache)

    def integral_block(self, u: float) -> np.ndarray:
        """integral_0^u e^{As} ds, cached by u."""
        key = _u_key(u)
        if key not in self._int_cache:
            self._exp_cache[key], self._int_cache[key] = expm_integral(
                self.a, np.eye(self.dimension), u)
        return self._int_cache[key]


def propagator(system: DepcaSystem, t: float, tau: float) -> np.ndarray:
    """Z(t, tau) = e^{A(t-tau)} + (integral_0^{t-tau} e^{As} ds) B."""
    u = t - tau
    if u < -1e-12:
        raise ValueError("propagator needs t >= tau")
    u = max(u, 0.0)
    key = _u_key(u)
    if key not in system._prop_cache:
        # Z(0) = I exactly; integral_block runs first and stores e^{Au} too,
        # so the kernel then has it
        system._prop_cache[key] = (np.eye(system.dimension) if key == 0.0 else
                                   system.integral_block(u) @ system.b + system.kernel.exp(u))
    return system._prop_cache[key]


# ---------------------------------------------------------------------------
# the kernel integral: integral_0^L e^{M sigma} g(sigma) d sigma

# Entries of one kernel's cache: a dense grid repeats its fractional u in
# every interval, and a periodicity check at step 1e-3 keeps about 2,600.
_KERNEL_CACHE_SIZE = 4096

# nodes on [-1, 1] and weights of the 10-point Gauss-Legendre panel
GL_NODES, GL_WEIGHTS = leggauss(10)
_GL_UNIT = 0.5 * (1.0 + GL_NODES)  # the nodes as fractions of [0, 1]


class Kernel:
    """e^{M tau} and the Gauss-Legendre node stacks of one matrix M, in one
    cache keyed by the rounded tau or width, least recently used out.
    ``known`` maps rounded tau to e^{M tau} formed elsewhere (read only)."""

    def __init__(self, matrix: np.ndarray, known: dict | None = None):
        self.matrix = matrix
        self._known = {} if known is None else known
        self._cache: OrderedDict = OrderedDict()

    def _cached(self, key, make: Callable[..., np.ndarray], *args) -> np.ndarray:
        cache = self._cache
        value = cache.get(key)
        if value is None:
            value = cache[key] = make(*args)
            if len(cache) > _KERNEL_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return value

    def exp(self, tau: float) -> np.ndarray:
        key = _u_key(tau)
        known = self._known.get(key)
        if known is not None:
            return known
        return self._cached(key, expm, self.matrix, key)

    def stack(self, width: float) -> np.ndarray:
        """w_k e^{M width u_k} for the 10 Gauss-Legendre nodes at the
        fractions u_k of a panel of this width."""
        key = _u_key(width)
        return self._cached(("gl10", key), lambda: np.stack(
            [w * expm(self.matrix, key * u) for u, w in zip(_GL_UNIT, GL_WEIGHTS)]))


def adaptive_gl(kernel: Kernel, g: Callable[[float, float], np.ndarray],
                a: float, b: float, tol: float) -> np.ndarray:
    """J(a, b) = integral_a^b e^{M (sigma - a)} g(sigma) d sigma for the
    kernel M; ``g(lo, width)`` gives one row of values per node
    lo + width u_k of a panel.

    A panel is the 10-point Gauss-Legendre rule against the stack of its
    width, and halves join by J(lo, hi) = J(lo, mid) + e^{M (mid - lo)}
    J(mid, hi).  Bisect until the refinement stops moving, at most
    ``DEFAULT.quad_max_levels`` levels deep.
    """

    def panel(lo: float, hi: float) -> np.ndarray:
        width = hi - lo
        return 0.5 * width * np.einsum("kij,kj->i", kernel.stack(width), g(lo, width))

    def recurse(lo: float, hi: float, whole: np.ndarray, budget: float,
                level: int) -> np.ndarray:
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        step = kernel.exp(mid - lo)
        refined = left + step @ right
        err = sup_norm(refined - whole)
        if err <= budget:
            return refined
        if level >= DEFAULT.quad_max_levels:
            raise QuadratureError(
                f"quadrature on [{lo:.6g}, {hi:.6g}] did not converge after "
                f"{DEFAULT.quad_max_levels} refinement levels (error {err:.3g})"
            )
        half_budget = 0.5 * budget
        return (recurse(lo, mid, left, half_budget, level + 1)
                + step @ recurse(mid, hi, right, half_budget, level + 1))

    return recurse(a, b, panel(a, b), tol, 0)


def kernel_integral(kernel: Kernel, signal: sig.Signal, t: float, length: float,
                    tol: float, direction: float = 1.0,
                    right: np.ndarray | None = None) -> np.ndarray:
    """integral_0^length e^{M sigma} R f(t - d sigma) d sigma for the kernel
    M, f = ``signal``, d = ``direction`` and R = ``right`` (None for I).

    Cells end where t - d sigma is an integer or a breakpoint of f; each
    cell [c0, c1] adds e^{M c0} J(c0, c1) from ``adaptive_gl`` under an equal
    share of ``tol``.
    """
    a, b = sorted((t, t - direction * length))
    jumps = [*range(math.ceil(a), math.floor(b) + 1), *signal.breakpoints_in(a, b)]
    cuts = sorted({0.0, length, *(c for c in (direction * (t - s) for s in jumps)
                                  if 0.0 < c < length)})

    def g(lo: float, width: float) -> np.ndarray:
        values = signal.evaluate_grid((t - direction * lo) - direction * width * _GL_UNIT)
        return values if right is None else values @ right.T

    budget = tol / (len(cuts) - 1)
    try:
        total = adaptive_gl(kernel, g, cuts[0], cuts[1], budget)
        start = kernel.exp(0.0)  # e^{M c0} at the start c0 of the current cell
        for prev, c0, c1 in zip(cuts, cuts[1:], cuts[2:]):
            start = start @ kernel.exp(c0 - prev)
            total = total + start @ adaptive_gl(kernel, g, c0, c1, budget)
    except QuadratureError as exc:
        raise QuadratureError(f"forcing on [{a:.6g}, {b:.6g}], {exc}") from exc
    return total


# ---------------------------------------------------------------------------
# accumulated forcing


def _trig_kernel(system: DepcaSystem, u: float, omega: float) -> np.ndarray | None:
    """(i w I - A)^-1 (e^{i w u} I - e^{A u}), or None within the resonance
    margin of spec(A) where the resolvent is unreliable."""
    key = (_u_key(u), omega)
    cache = system._trig_kernel_cache
    if key in cache:
        return cache[key]
    if omega not in system._resolvent_cache:
        gap = float(np.min(np.abs(1j * omega - system.a_eigenvalues())))
        if gap < DEFAULT.resonance_margin:
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
    kernel = resolvent @ (np.exp(1j * omega * u) * np.eye(p) - system.kernel.exp(u))
    cache[key] = kernel
    return kernel


def interval_forcing(system: DepcaSystem, n, u: float, quad_tol: float
                     ) -> np.ndarray:
    """integral_n^{n+u} e^{A(n+u-s)} f(s) ds for 0 <= u <= 1; one row per n
    for an integer array n.

    Trigonometric terms use the resolvent closed form e^{i w n} K_w(u) c
    away from resonance, for all n at once; per n, signals constant on
    [n, n+1) integrate through the exponential-integral block, and
    everything else (and near-resonant terms) is the kernel integral of
    e^{A sigma} f(n + u - sigma) over [0, u].
    """
    ns = np.atleast_1d(n)
    out = np.zeros((ns.size, system.dimension), dtype=complex)
    f = system.forcing
    terms = f.trig_terms()
    if u > 0.0 and terms is not None and any(omega != 0.0 for _, omega in terms):
        for coef, omega in terms:
            kernel = _trig_kernel(system, u, omega)
            if kernel is not None:
                out += np.exp(1j * omega * ns)[:, None] * (kernel @ coef)
                continue
            term = sig.TrigPolynomial(((coef, omega),), system.dimension)
            for i, k in enumerate(ns.tolist()):
                out[i] += kernel_integral(system.kernel, term, k + u, u, quad_tol)
    elif u > 0.0:
        for i, k in enumerate(ns.tolist()):
            const = f.constant_on_unit_interval(k)
            out[i] = (system.integral_block(u) @ const if const is not None
                      else kernel_integral(system.kernel, f, k + u, u, quad_tol))
    return out if np.ndim(n) else out[0]


def forcing_integral(system: DepcaSystem, t: float, quad_tol: float) -> np.ndarray:
    """H(t) = integral_{[t]}^{t} e^{A(t-s)} f(s) ds."""
    if quad_tol <= 0:
        raise ValueError("quad_tol must be positive")
    n = math.floor(t)
    return interval_forcing(system, n, t - n, quad_tol)


# ---------------------------------------------------------------------------
# reduction to the companion difference equation


def log_det_factor(system: DepcaSystem, us: np.ndarray) -> np.ndarray:
    """log g(u) at every u of ``us``, where g(u) = s(u)^(1/p) and
    s(u) = |det Z(u)| e^{-u Re tr A} = |det(I + integral_0^u e^{-Ar} dr B)|;
    -inf where Z(u) is singular.

    s does not carry the e^{u tr A} of det e^{Au}: it is 1 for B = 0 at any
    scale of A, and for a triangular pair it is the product of the pair
    factors |``pair_factor``(a_ii, b_ii, u)|.  g is their geometric mean, so
    a floor on g, like the pair check's floor on each factor, does not
    compound with p.  One ``slogdet`` of the stacked Z(u) gives it in
    logarithms, which neither overflow nor underflow.  It is the screen's
    grid for a pair that does not triangularize, and the test of C = Z(1).
    """
    us = np.asarray(us, dtype=float)
    _, logdet = np.linalg.slogdet(np.stack(
        [propagator(system, u, 0.0) for u in us.tolist()]))
    return (logdet - us * np.trace(system.a).real) / system.dimension


def reduce_to_difference(system: DepcaSystem, quad_tol: float) -> DifferenceSystem:
    """Companion system x(n+1) = C x(n) + h(n), C = Z(n+1, n).

    C is constant because A and B are; h(n) accumulates the forcing across
    [n, n+1].  A singular C (the invertibility condition failing at the
    interval endpoint) aborts: the equation has no backward-complete flow.
    C counts as singular when g(1) = (|det C| e^{-Re tr A})^(1/p) of
    ``log_det_factor`` is below ``det_threshold``, the screen's floor.
    """
    log_g = float(log_det_factor(system, [1.0])[0])
    if log_g < math.log(DEFAULT.det_threshold):
        raise SingularCError(math.exp(log_g))
    c = propagator(system, 1.0, 0.0)
    return DifferenceSystem((c,), lambda n: interval_forcing(system, n, 1.0, quad_tol))


SCREEN_POINTS = 201  # the screen's grid u = k / 200


@dataclass(frozen=True)
class ZInvertibilityReport:
    """The screen's verdict.  ``min_det`` is the minimum over the
    ``SCREEN_POINTS`` grid, at ``argmin_u``, of g(u) = (|det Z(u)|
    e^{-u Re tr A})^(1/p), the geometric mean of the propagator's scale-free
    determinant factors (1 for B = 0, and at most g(0) = 1); it passes at or
    above ``det_threshold`` when no eigenvalue pair fails."""

    min_det: float
    argmin_u: float
    analytic_performed: bool
    analytic_failures: tuple[tuple[int, float], ...]

    @property
    def passed(self) -> bool:
        return self.min_det >= DEFAULT.det_threshold and not self.analytic_failures

    def __str__(self) -> str:
        parts = [f"min (|det Z(u)| e^(-u Re tr A))^(1/p) = {self.min_det:.3e} at u = "
                 f"{self.argmin_u:.6g} ({SCREEN_POINTS} grid points, "
                 f"threshold {DEFAULT.det_threshold:.1e})"]
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


def check_propagator_invertibility(system: DepcaSystem) -> ZInvertibilityReport:
    """Screen invertibility of Z(t, tau) across a unit interval.

    When A and B triangularize simultaneously, every diagonal pair is
    checked analytically, and g(u) on ``SCREEN_POINTS`` equally spaced u in
    [0, 1] is the geometric mean of the |``pair_factor``|s, with no
    exponential; otherwise g is ``log_det_factor``.  One ``det_threshold``
    floors each factor and their geometric mean, so a triangular pair that
    passes the pair check passes the grid.
    """
    us = np.linspace(0.0, 1.0, SCREEN_POINTS)
    try:
        _, abar, bbar = simultaneous_triangularize(system.a, system.b)
    except NotTriangularizableError:
        analytic, failures = False, ()
        log_g = log_det_factor(system, us)
    else:
        analytic, failures = True, eigenvalue_pair_failures(abar, bbar)
        with np.errstate(divide="ignore"):  # a zero factor gives log g = -inf
            log_g = np.log(np.abs(pair_factor(np.diag(abar), np.diag(bbar),
                                              us[:, None]))).mean(axis=1)
    i_min = int(np.argmin(log_g))
    return ZInvertibilityReport(float(np.exp(log_g[i_min])), float(us[i_min]),
                                analytic, failures)


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class TrajectoryDiagnostics:
    continuity_max: float           # the recursion residual of the samples
    continuity_tol: float
    residual_max: float
    residual_tol: float
    certificate: DichotomyCertificate
    sup_samples: float
    sup_forcing: float              # max |h(n)| over n0 - 1 <= n <= n1
    screen: ZInvertibilityReport | None = None  # None for solve_by_reduction


@dataclass
class HybridTrajectory:
    """The samples x(n), n = n0..n1, of ``system`` and the segments between
    them, valid for n0 <= t <= n1.

    ``evaluate_grid`` is exact propagation within [n, n+1): Z(u) x(n) +
    H_n(u), u = t - n, with H_n from ``interval_forcing`` at ``quad_tol``,
    for every solver; ``evaluate`` is that path on one point.
    """

    system: DepcaSystem
    n0: int
    samples: np.ndarray             # shape (n1 - n0 + 1, p)
    quad_tol: float
    diagnostics: TrajectoryDiagnostics | None = None
    cascade: object | None = None

    @property
    def n1(self) -> int:
        return self.n0 + len(self.samples) - 1

    @property
    def dimension(self) -> int:
        return self.system.dimension

    @functools.cached_property
    def integer_samples(self) -> dict[int, np.ndarray]:
        return dict(zip(range(self.n0, self.n1 + 1), self.samples))

    def evaluate(self, t: float) -> np.ndarray:
        return self.evaluate_grid([t])[0]

    def evaluate_grid(self, ts) -> np.ndarray:
        """x(t) for t in ``ts``: the rows whose u share a cache key take one
        Z(u) and one ``interval_forcing`` call, at the u of the first row."""
        ts = np.asarray(ts, dtype=float)
        outside = ~((ts >= self.n0 - 1e-9) & (ts <= self.n1 + 1e-9))
        if outside.any():
            raise ValueError(f"t = {ts[outside][0]} outside the solved window "
                             f"[{self.n0}, {self.n1}]")
        ts = np.minimum(np.maximum(ts, self.n0), self.n1)
        ns = np.floor(ts).astype(int)
        us = ts - ns
        # number the keys of the distinct u, then list each key's rows in grid order
        distinct = np.unique(us)
        ids: dict[float, int] = {}
        group = np.array([ids.setdefault(_u_key(u), len(ids)) for u in distinct.tolist()],
                         dtype=int)[np.searchsorted(distinct, us)]
        order = np.argsort(group, kind="stable")
        bounds = np.cumsum([0, *np.bincount(group)])
        out = np.empty((ts.size, self.dimension), dtype=complex)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rows = order[lo:hi]
            u, n = float(us[rows[0]]), ns[rows]
            # einsum, not @: a long stack through @ wakes threaded BLAS
            out[rows] = (np.einsum("ij,kj->ki", propagator(self.system, u, 0.0),
                                   self.samples[n - self.n0])
                         + interval_forcing(self.system, n, u, self.quad_tol))
        return out

    def sup_samples(self) -> float:
        return sup_norm(self.samples)


def ode_residual_check(traj: HybridTrajectory) -> tuple[float, float]:
    """Central-difference check of x' - A x - B x([t]) - f at the 7 points
    n + j/8 inside each interval, from one ``evaluate_grid`` call.

    Returns (max residual, allowed tolerance); the tolerance is
    ``DEFAULT.residual_scale`` times (1 + ||A|| + ||B||) times sup |x|, and
    a larger residual raises ResidualCheckError naming the worst probe.
    Derivatives are only probed where the equation holds classically: at
    interior points, moved just past any forcing jump inside the stencil.
    """
    system, step = traj.system, DEFAULT.central_diff_step
    ns = np.repeat(np.arange(traj.n0, traj.n1), 7)
    ts = ns + np.tile(np.arange(1, 8) / 8, traj.n1 - traj.n0)
    # the last forcing jump below t + step (-inf if none) moves t past it
    jumps = np.sort([-np.inf, *system.forcing.breakpoints_in(traj.n0, traj.n1)])
    last = jumps[np.searchsorted(jumps, ts + step) - 1]
    ts = np.where(ts - step < last, last + 2.0 * step, ts)
    x = traj.evaluate_grid(np.stack([ts + step, ts - step, ts], axis=1).ravel())
    x_plus, x_minus, x_t = x.reshape(len(ts), 3, -1).transpose(1, 0, 2)
    rhs = (np.einsum("ij,kj->ki", system.a, x_t)
           + np.einsum("ij,kj->ki", system.b, traj.samples[ns - traj.n0])
           + system.forcing.evaluate_grid(ts))
    residuals = np.max(np.abs((x_plus - x_minus) / (2.0 * step) - rhs), axis=1)
    i = int(np.argmax(residuals))
    sup_x = max(traj.sup_samples(), sup_norm(x_t))
    allowed = DEFAULT.residual_scale * (1.0 + mat_norm(system.a)
                                        + mat_norm(system.b)) * max(sup_x, 1e-30)
    if residuals[i] > allowed:
        raise ResidualCheckError(
            f"interior ODE residual {residuals[i]:.3e} at t = {ts[i]:.12g} "
            f"(n = {ns[i]}, u = {ts[i] - ns[i]:.12g}) exceeds {allowed:.3e}")
    return float(residuals[i]), allowed


def certify_companion(c) -> DichotomyCertificate:
    """``certify_constant`` for a companion coefficient; an eigenvalue on
    the unit circle raises NoDichotomyError."""
    try:
        return certify_constant(c)
    except BoundaryEigenvalueError as exc:
        raise NoDichotomyError(
            f"companion coefficient has no dichotomy: {exc}"
        ) from exc


def stitch_trajectory(system: DepcaSystem, dsys: DifferenceSystem,
                      xs: np.ndarray, n0: int, tol: float, quad_tol: float,
                      certificate: DichotomyCertificate) -> HybridTrajectory:
    """The trajectory through the samples ``xs`` (n = n0, n0 + 1, ...) of
    the companion system ``dsys`` of ``system``, certified by
    ``certificate``, with its checks.

    Continuity at the integers and the interior ODE residual are verified
    before returning.
    """
    # the left limit at n+1 of the segment on [n, n+1) is exactly
    # Z(n+1, n) x(n) + h(n) = C x(n) + h(n), so the continuity defect at the
    # integers is the recursion residual
    continuity = recursion_residual(dsys, xs, n0)
    if continuity > 10.0 * tol:
        worst = max(range(n0, n0 + len(xs) - 1),
                    key=lambda n: recursion_residual(dsys, xs[n - n0:n - n0 + 2], n))
        raise ContinuityBreachError(
            f"stitching defect {continuity:.3e} at n = {worst} exceeds {10 * tol:.3e}")

    traj = HybridTrajectory(system, n0, xs, quad_tol)
    residual_max, residual_tol = ode_residual_check(traj)
    traj.diagnostics = TrajectoryDiagnostics(
        continuity_max=continuity,
        continuity_tol=10.0 * tol,
        residual_max=residual_max,
        residual_tol=residual_tol,
        certificate=certificate,
        sup_samples=traj.sup_samples(),
        sup_forcing=dsys.sup_h(n0 - 1, traj.n1 + 1),
    )
    return traj


def quad_tol_for(tol: float) -> float:
    """Tolerance of the forcing quadrature inside a solve at ``tol``."""
    return min(0.05 * tol, 1e-11)


def _solve_companion(system: DepcaSystem, n0: int, n1: int, tol: float
                     ) -> HybridTrajectory:
    """Reduce to x(n+1) = C x(n) + h(n), certify the dichotomy of C, sum
    the Green series once for the samples x(n), n = n0..n1, and stitch."""
    quad_tol = quad_tol_for(tol)
    dsys = reduce_to_difference(system, quad_tol)
    cert = certify_companion(dsys.constant_coefficient)
    xs = solve_bounded(dsys, cert, n0, n1, tol)
    return stitch_trajectory(system, dsys, xs, n0, tol, quad_tol, cert)


def solve_bounded_depca(system: DepcaSystem, n0: int, n1: int, tol: float
                        ) -> HybridTrajectory:
    """The unique bounded trajectory, built through the companion system.

    Steps: screen Z-invertibility, reduce to x(n+1) = C x(n) + h(n), certify
    the dichotomy of C, sum the Green series for the integer samples, then
    stitch segments with the exact propagation formula.  Continuity at the
    integers and the interior ODE residual are verified before returning;
    the screen's report is kept as ``diagnostics.screen``.
    """
    if n0 >= n1:
        raise ValueError("need n0 < n1")
    report = check_propagator_invertibility(system)
    if not report.passed:
        raise ZInvertibilityError(report)
    traj = _solve_companion(system, n0, n1, tol)
    traj.diagnostics.screen = report
    return traj


# ---------------------------------------------------------------------------
# the B = 0 path: hyperbolic A, Massera's formula with Schur-projected kernels


@dataclass
class _HalfLine:
    """One side of Massera's formula, L times the kernel integral
    integral_0^radius e^{M sigma} R f(t - d sigma) d sigma.

    From the ordered Schur form A = U [[T11, T12], [0, T22]] U*, U = [U1 U2],
    with T11 X - X T22 = T12: the stable side has M = T11, L = U1,
    R = [I X] U*, d = 1; the unstable side has M = -T22, L = U1 X - U2,
    R = U2*, d = -1.  Both M are stable, so every exponential formed decays.
    """

    name: str
    kernel: Kernel
    left: np.ndarray
    right: np.ndarray
    direction: float
    budget: float

    def integral(self, forcing: sig.Signal, t: float, radius: float) -> np.ndarray:
        d = self.direction
        # the far end moves out to the next integer, so the last cell is whole
        far = d * math.floor(d * (t - d * radius))
        return self.left @ kernel_integral(self.kernel, forcing, t, d * (t - far),
                                           self.budget, d, self.right)


@dataclass
class MasseraSolution:
    """Bounded solution of x' = A x + f for hyperbolic A.

    x(t) = integral_0^inf e^{A s} P f(t - s) ds
           - integral_0^inf e^{-A s} Q f(t + s) ds,
    each side a kernel integral truncated at ``radius``, with its kernel
    from the ordered Schur form of A.
    """

    a: np.ndarray
    forcing: sig.Signal
    split: object
    radius: float
    dimension: int
    _sides: tuple[_HalfLine, ...]

    def evaluate(self, t: float) -> np.ndarray:
        total = np.zeros(self.dimension, dtype=complex)
        for side in self._sides:
            try:
                total = total + side.integral(self.forcing, t, self.radius)
            except QuadratureError as exc:
                raise QuadratureError(
                    f"{side.name} Massera integral at t = {t}: {exc}") from exc
        return total

    def evaluate_grid(self, ts) -> np.ndarray:
        return sig.stack_points(self.evaluate, ts, self.dimension)


def massera_solve(a, forcing: sig.Signal, tol: float) -> MasseraSolution:
    """Bounded solution of x' = A x + f when spec(A) avoids the imaginary axis.

    The truncation radius follows the tail bound of the projected semigroup
    norms: R = ln(max(K_P, K_Q) sup|f| / (tol decay)) / decay, with K_P and
    K_Q taken over sigma = 0, 0.5, 1, ...  sup|f| is the larger of the
    declared ``forcing.sup_bound()`` and |f| sampled at step 1/16 on
    [-R-1, R+1], recomputed by ``widen_radius`` until R stops growing.
    Each side gets half of ``tol`` for its quadrature.
    """
    a = as_square_matrix(a, "A")
    split = spectral_split(a, "continuous")
    p = a.shape[0]
    k = len(split.stable_eigenvalues)
    tri, x = split.schur_form, split.coupling
    u1, u2 = split.schur_basis[:, :k], split.schur_basis[:, k:]
    sides = []
    if k > 0:
        sides.append(("stable", tri[:k, :k], u1, u1.conj().T + x @ u2.conj().T, 1.0))
    if k < p:
        sides.append(("unstable", -tri[k:, k:], u1 @ x - u2, u2.conj().T, -1.0))
    sides = tuple(_HalfLine(name, Kernel(m), left, right, d,
                            0.5 * tol / mat_norm(left))
                  for name, m, left, right, d in sides)

    decay = DEFAULT.alpha_safety * min(split.decay_rate_stable,
                                       split.decay_rate_unstable)
    # K = max over the sides of sup_j ||L e^{M j/2} R|| e^{decay j/2},
    # the powers of N = e^{decay/2} L e^{M/2} R times L R, as R L = +-I
    k_big = max(power_sup(math.exp(0.5 * decay) * side.left
                          @ side.kernel.exp(0.5) @ side.right,
                          side.left @ side.right) for side in sides)

    def radius_for(sup_f: float) -> float:
        return max(1.0, math.log(max(1.1 * k_big * sup_f / (tol * decay), 1.0))
                   / decay)

    declared = forcing.sup_bound()

    def sup_within(radius: float) -> float:
        reach = radius + 1.0
        sampled = forcing.evaluate_grid(np.arange(-reach, reach + 1e-9, 1.0 / 16))
        return max(declared, float(np.max(np.abs(sampled))))

    radius = widen_radius(radius_for, sup_within, declared)
    return MasseraSolution(a, forcing, split, radius, p, sides)


# ---------------------------------------------------------------------------
# the purely rotational scalar path


ROTATION_QUAD_TOL = 1e-11  # quad_tol of the rotation path's h(n) and segments
# the screen also reads F at n + ROTATION_PROBE_U: a term e^{i 2 pi k t} of
# e^{-i theta t} f(t) integrates to 0 over every [0, n], never to n + 1/sqrt(2)
ROTATION_PROBE_U = 1.0 / math.sqrt(2.0)


def imaginary_scalar_solve(theta: float, forcing: sig.Signal, x0: complex,
                           window: float
                           ) -> tuple[Callable[[float], np.ndarray],
                                      sig.PrimitiveBoundednessReport]:
    """Scalar x' = i theta x + f with x(0) = x0, on the companion recursion.

    With A = i theta and B = 0 the companion system is
    x(n+1) = e^{i theta} x(n) + h(n).  |e^{i theta}| = 1 gives no dichotomy,
    so the samples are the recursion's solution from x(0) = x0,
    x(n) = e^{i theta n} (x0 + F(n)) with F(n) = integral_0^n e^{-i theta s}
    f(s) ds summed from its steps F(n+1) - F(n) = e^{-i theta (n+1)} h(n),
    over the integers covering [-(window + 1), window + 1].  The segments
    between them are ``HybridTrajectory``'s, whose evaluator raises
    ValueError outside that span.  The trajectory is bounded when F is:
    ``signals.integral_primitive_bounded`` screens F on [-window, window]
    at the integers and at n + ``ROTATION_PROBE_U``.
    """
    if forcing.dimension != 1:
        raise ValueError("the rotational path is scalar (dimension 1)")
    if not 0.0 < window < math.inf:
        raise ValueError("window must be positive and finite")
    x0 = sig._as_coef(x0, 1)
    system = DepcaSystem.build([[1j * theta]], [[0.0]], forcing)
    n1 = math.ceil(window + 1.0)
    ns = np.arange(-n1, n1 + 1)
    hs = interval_forcing(system, ns[:-1], 1.0, ROTATION_QUAD_TOL)
    steps = np.exp(-1j * theta * ns[1:, None]) * hs  # F(n+1) - F(n)
    # F accumulates outwards from F(0) = 0
    prim = np.concatenate([-np.cumsum(steps[:n1][::-1], axis=0)[::-1],
                           np.zeros((1, 1)), np.cumsum(steps[n1:], axis=0)])
    # F(n + u) = F(n) + e^{-i theta (n + u)} H_n(u)
    probes = ns[:-1] + ROTATION_PROBE_U
    segments = interval_forcing(system, ns[:-1], ROTATION_PROBE_U, ROTATION_QUAD_TOL)
    prim_probes = prim[:-1] + np.exp(-1j * theta * probes[:, None]) * segments
    report = sig.integral_primitive_bounded(np.concatenate([ns, probes]),
                                            np.concatenate([prim, prim_probes]), window)
    xs = np.exp(1j * theta * ns[:, None]) * (x0 + prim)
    return HybridTrajectory(system, -n1, xs, ROTATION_QUAD_TOL).evaluate, report
