"""Bounded solutions of x(n+1) = C(n) x(n) + h(n) under exponential dichotomy.

Certificates (alpha, K, P) are constructed for constant coefficients and
verified for periodic ones.  The dichotomy is the pair of contractive steps
MP and M^-1 Q of the monodromy M held by ``GreenFunction``: for constant C,
K is the exact supremum of their scaled powers, and the bounded solution is
one forward and one backward sweep with them, truncated with an explicit
geometric tail bound.

Certificates and systems are immutable once built; caches are populated
lazily and are safe under CPython's sequential test usage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidCertificateError, SingularCoefficientError, WindowTooSmallError
from .matrix_core import as_square_matrix, is_singular, mat_norm, spectral_split, sup_norm
from .tolerances import DEFAULT

POWER_CAP = 10**6  # largest power of a scaled dichotomy step searched


@dataclass
class DifferenceSystem:
    """The pair (C(.), h(.)) over the integers, C(n) = coefficients[n mod q]
    for the q matrices of one period."""

    coefficients: tuple[np.ndarray, ...]
    forcing: Callable[[int], np.ndarray]
    _h_cache: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def constant(c, h: Callable[[int], np.ndarray]) -> "DifferenceSystem":
        return DifferenceSystem.periodic([c], h)

    @staticmethod
    def periodic(coefficients, h: Callable[[int], np.ndarray]) -> "DifferenceSystem":
        """The system of one period of coefficients; SingularCoefficientError
        for a C(j) that ``is_singular`` at its own scale,
        sigma_min(C(j)) <= p eps sigma_max(C(j))."""
        mats = tuple(as_square_matrix(c, "C") for c in coefficients)
        if not mats:
            raise ValueError("need the coefficient matrices of one period")
        for j, m in enumerate(mats):
            if is_singular(m):
                raise SingularCoefficientError(
                    f"C({j}) is singular: sigma_min <= p eps sigma_max")
        return DifferenceSystem(mats, h)

    @property
    def dimension(self) -> int:
        return self.coefficients[0].shape[0]

    @property
    def constant_coefficient(self) -> np.ndarray | None:
        return self.coefficients[0] if len(self.coefficients) == 1 else None

    def c(self, n: int) -> np.ndarray:
        return self.coefficients[n % len(self.coefficients)]

    def h(self, n: int) -> np.ndarray:
        if n not in self._h_cache:
            v = np.atleast_1d(np.asarray(self.forcing(n), dtype=complex))
            if v.shape != (self.dimension,):
                raise ValueError(f"h({n}) has shape {v.shape}")
            self._h_cache[n] = v
        return self._h_cache[n]

    def sup_h(self, lo: int, hi: int) -> float:
        """max |h(k)| over lo <= k < hi, 0 for an empty range."""
        return sup_norm(np.array([self.h(k) for k in range(lo, hi)]))


@dataclass
class DichotomyCertificate:
    """(alpha, K, P) for the system with the q matrices ``coefficients`` of
    one period, C(n) = coefficients[n mod q].

    Claims |G(m, l)| <= K e^{-alpha |m-l|} for all m, l, in the max-row-sum
    norm, for the Green function G built from P.  That operator norm
    dominates the entrywise supremum, so the certificate also bounds entries,
    and it feeds the solution bound sup|x| <= K (1+e^-a)/(1-e^-a).
    """

    alpha: float
    K: float
    projection: np.ndarray
    coefficients: tuple[np.ndarray, ...]

    @property
    def constant_coefficient(self) -> np.ndarray | None:
        return self.coefficients[0] if len(self.coefficients) == 1 else None

    def green_function(self) -> "GreenFunction":
        return GreenFunction(self)

    def solution_bound(self, sup_forcing: float) -> float:
        a = self.alpha
        return self.K * (1.0 + math.exp(-a)) / (1.0 - math.exp(-a)) * sup_forcing


class GreenFunction:
    """G(m, l) = Y(m) P Y^-1(l) (m >= l), -Y(m) Q Y^-1(l) (m < l), Q = I - P.

    On the Floquet lift m = kq + i, l = jq + r, with Y(0) = I and monodromy
    M = C(q-1)...C(0), Y(m) = Y(i) M^k.  For P commuting with M that gives
    Y(i) (MP)^(k-j) P Y^-1(r) and -Y(i) (M^-1 Q)^(j-k) Y^-1(r), (M^-1 Q)^0 = Q:
    only the contractive steps ``stable_step`` = MP and ``unstable_step`` =
    M^-1 Q are powered, and G(m+q, l+q) = G(m, l) exactly.  For q = 1, M = C.
    """

    def __init__(self, certificate: DichotomyCertificate):
        self.certificate = certificate
        p = certificate.projection
        ident = np.eye(p.shape[0])
        mats = certificate.coefficients
        self._ys = [ident]  # Y(0), ..., Y(q-1)
        for c in mats[:-1]:
            self._ys.append(c @ self._ys[-1])
        self.monodromy = mats[0] if len(mats) == 1 else mats[-1] @ self._ys[-1]
        self._yinvs = [ident] + [np.linalg.solve(y, ident) for y in self._ys[1:]]
        self.stable_step = self.monodromy @ p
        self.unstable_step = np.linalg.solve(self.monodromy, ident - p)
        # (MP)^d P and (M^-1 Q)^d at index d
        self._stable = [p.copy()]
        self._unstable = [ident - p, self.unstable_step.copy()]

    def __call__(self, m: int, l: int) -> np.ndarray:
        q = len(self._ys)
        (k, i), (j, r) = divmod(m, q), divmod(l, q)
        powers, step, d = ((self._stable, self.stable_step, k - j) if m >= l
                           else (self._unstable, self.unstable_step, j - k))
        while len(powers) <= d:
            powers.append(step @ powers[-1])
        core = powers[d] if m >= l else -powers[d]
        return core if q == 1 else self._ys[i] @ core @ self._yinvs[r]


def power_sup(m: np.ndarray, s: np.ndarray) -> float:
    """sup_{d>=0} ||M^d S|| exactly: at the first d0 >= 1 with ||M^d0|| <= 1,
    ||M^(d0+j) S|| <= ||M^j S||, so it is the maximum over d < d0."""
    power, best = np.eye(m.shape[0]), 0.0
    for _ in range(POWER_CAP):
        best = max(best, mat_norm(power @ s))
        power = m @ power
        if mat_norm(power) <= 1.0:
            return best
    raise InvalidCertificateError(f"no dichotomy step power <= {POWER_CAP} has norm <= 1")


def certify_constant(c) -> DichotomyCertificate:
    """Dichotomy certificate for a constant, hyperbolic coefficient matrix.

    P and the spectral decay rate come from the discrete spectral split,
    which raises BoundaryEigenvalueError for an eigenvalue on the unit
    circle; alpha is that rate scaled by a 0.9 safety factor.  With
    M = e^alpha CP and M' = e^alpha C^-1 Q, K is the exact
    max(sup_{d>=0} ||M^d P||, sup_{d>=1} ||M'^d||)
    = sup_d ||G(d, 0)|| e^{alpha |d|}, times
    ``k_headroom`` for round-off; no factor e^{alpha d} is ever formed.
    """
    dsys = DifferenceSystem.constant(c, lambda n: np.zeros(dsys.dimension))
    c = dsys.constant_coefficient
    split = spectral_split(c, "discrete")
    alpha = DEFAULT.alpha_safety * min(split.decay_rate_stable,
                                       split.decay_rate_unstable)
    cert = DichotomyCertificate(alpha, math.inf, split.stable_projection,
                                dsys.coefficients)
    green = cert.green_function()  # K is not read by the step operators
    back = math.exp(alpha) * green.unstable_step
    cert.K = DEFAULT.k_headroom * max(
        power_sup(math.exp(alpha) * green.stable_step, cert.projection),
        power_sup(back, back))
    return cert


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    window: int
    worst_decay_margin: float          # min over pairs of bound - |G|
    worst_pair: tuple[int, int]
    invariance_defect: float           # ||MP - PM|| / (1 + ||M|| ||P||)
    projection_defect: float           # ||P^2 - P||
    failed_invariant: str | None = None

    def __str__(self) -> str:
        state = "pass" if self.passed else f"FAIL ({self.failed_invariant})"
        return (f"certificate check on window {self.window}: {state}; "
                f"worst decay margin {self.worst_decay_margin:.3e} at "
                f"{self.worst_pair}, invariance defect "
                f"{self.invariance_defect:.3e}, projection defect "
                f"{self.projection_defect:.3e}")


def verify_certificate(cert: DichotomyCertificate, window: int) -> CertificateReport:
    """Check P idempotency, the invariance MP = PM that the Green function's
    lift rests on, and the decay inequality on [-window, window]^2, where
    G(m + q, l + q) = G(m, l) leaves only the pairs with min(m, l) < q - window."""
    if window < 1:
        raise ValueError("window must be at least 1")
    p = cert.projection
    proj_defect = float(np.max(np.abs(p @ p - p)))
    green = cert.green_function()
    mono = green.monodromy
    invariance = mat_norm(mono @ p - p @ mono) / (1.0 + mat_norm(mono) * mat_norm(p))

    worst = math.inf
    worst_pair = (0, 0)
    rng = range(-window, window + 1)
    first = len(cert.coefficients) - window  # m, l >= first repeats (m - q, l - q)
    for m in rng:
        for l in (rng if m < first else range(-window, first)):
            bound = cert.K * math.exp(-cert.alpha * abs(m - l))
            margin = bound - mat_norm(green(m, l))
            if margin < worst:
                worst = margin
                worst_pair = (m, l)

    failed = None
    if proj_defect > DEFAULT.projection_idem:
        failed = "dichotomy.projection_idempotent"
    elif invariance > DEFAULT.projection_idem:
        failed = "dichotomy.projection_invariant"
    elif worst < -1e-12 * cert.K:
        failed = "dichotomy.green_decay"
    return CertificateReport(failed is None, window, worst, worst_pair,
                             invariance, proj_defect, failed)


def _finite_sup(sup: float, radius: float) -> float:
    if not math.isfinite(sup):
        raise WindowTooSmallError(
            f"forcing supremum is not finite (truncation radius {radius:.6g})")
    return sup


def widen_radius(radius_for: Callable[[float], float],
                 sup_within: Callable[[float], float], sup: float) -> float:
    """Widen a truncation radius R until it covers its own forcing.

    ``radius_for(s)`` is the radius a forcing supremum s needs and
    ``sup_within(R)`` the supremum over the reach of R.  R starts at
    radius_for(sup) and becomes radius_for(sup_within(R)) until that stops
    growing; WindowTooSmallError if it still grows after 4 rounds, or if a
    supremum is not finite or cannot be sampled.
    """
    radius = radius_for(_finite_sup(sup, 0.0))
    for _ in range(4):
        try:
            sup = sup_within(radius)
        except (OverflowError, ValueError) as exc:
            raise WindowTooSmallError(
                f"forcing cannot be sampled within the truncation radius "
                f"{radius:.6g}: {exc}") from exc
        wider = radius_for(_finite_sup(sup, radius))
        if wider <= radius:
            return radius
        radius = wider
    raise WindowTooSmallError(
        f"forcing supremum kept growing while sizing the truncation radius "
        f"(radius {radius:.6g})")


def truncation_radius(alpha: float, k_const: float, sup_forcing: float,
                      tol: float) -> int:
    """Summation radius making the discarded geometric tail at most tol."""
    if sup_forcing <= 0.0:
        return 1
    value = (math.log(k_const) + math.log(sup_forcing)
             - math.log(tol * (1.0 - math.exp(-alpha)))) / alpha
    return max(1, int(math.ceil(value)))


def solve_bounded(sys: DifferenceSystem, cert: DichotomyCertificate,
                  n0: int, n1: int, tol: float) -> np.ndarray:
    """The bounded solution x(n) = sum_k G(n, k+1) h(k) on [n0, n1].

    Summed as x = s + u by two sweeps with the dichotomy steps, forward
    s(k+1) = CP s(k) + P h(k) and backward u(k) = C^-1 Q (u(k+1) - h(k)),
    from R = ``truncation_radius`` steps outside the window, so the discarded
    tail stays below tol and the recursion residual below 3 tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n0 > n1:
        raise ValueError("need n0 <= n1")
    if cert.constant_coefficient is None:
        raise InvalidCertificateError("solve_bounded needs a constant C certificate")
    green = cert.green_function()

    sup_h = sys.sup_h(n0 - 1, n1 + 1)
    if sup_h == 0.0:
        radius_probe = truncation_radius(cert.alpha, cert.K, 1.0, tol)
        sup_h = sys.sup_h(n0 - 1 - radius_probe, n1 + radius_probe)
        if sup_h == 0.0:
            return np.zeros((n1 - n0 + 1, sys.dimension), dtype=complex)

    radius = widen_radius(
        lambda sup: truncation_radius(cert.alpha, cert.K, sup, tol),
        lambda r: sys.sup_h(n0 - 1 - r, n1 + r), sup_h)

    out = np.zeros((n1 - n0 + 1, sys.dimension), dtype=complex)
    s = u = np.zeros(sys.dimension, dtype=complex)
    for k in range(n0 - 1 - radius, n1):
        s = green.stable_step @ s + cert.projection @ sys.h(k)
        if k >= n0 - 1:
            out[k + 1 - n0] = s
    for k in range(n1 - 1 + radius, n0 - 1, -1):
        u = green.unstable_step @ (u - sys.h(k))
        if k <= n1:
            out[k - n0] += u
    return out


def recursion_residual(sys: DifferenceSystem, x: np.ndarray, n0: int) -> float:
    """max_n ||x(n+1) - C(n) x(n) - h(n)|| over the sampled window."""
    return max((sup_norm(x[i + 1] - sys.c(n0 + i) @ x[i] - sys.h(n0 + i))
                for i in range(x.shape[0] - 1)), default=0.0)


@dataclass(frozen=True)
class BoundReport:
    sup_solution: float
    certified_bound: float
    passed: bool
    alpha: float
    K: float

    def __str__(self) -> str:
        rel = "<=" if self.passed else ">"
        return (f"sup|x| = {self.sup_solution:.6g} {rel} certified bound "
                f"{self.certified_bound:.6g} (alpha={self.alpha:.4g}, K={self.K:.4g})")


def bound_check(x: np.ndarray, cert: DichotomyCertificate, sup_forcing: float,
                slack: float = 0.0) -> BoundReport:
    """Check sup|x| against K (1+e^-a)(1-e^-a)^-1 sup|h| plus slack."""
    sup_x = float(np.max(np.abs(x))) if x.size else 0.0
    bound = cert.solution_bound(sup_forcing)
    return BoundReport(sup_x, bound, sup_x <= bound + slack, cert.alpha, cert.K)
