"""Bounded solutions of x(n+1) = C(n) x(n) + h(n) under exponential dichotomy.

Certificates (alpha, K, P, Y) are constructed for constant coefficients and
verified for periodic ones.  For constant C the dichotomy is the pair of
contractive steps CP and C^-1 Q held by ``GreenFunction``: K is the exact
supremum of their scaled powers, and the bounded solution is one forward and
one backward sweep with them, truncated with an explicit geometric tail
bound.

Certificates and systems are immutable once built; caches are populated
lazily and are safe under CPython's sequential test usage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidCertificateError, SingularCoefficientError, WindowTooSmallError
from .matrix_core import as_square_matrix, mat_norm, spectral_split, sup_norm
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
        mats = tuple(as_square_matrix(c, "C") for c in coefficients)
        if not mats:
            raise ValueError("need the coefficient matrices of one period")
        for j, m in enumerate(mats):
            det = abs(np.linalg.det(m))
            if det < DEFAULT.det_floor:
                raise SingularCoefficientError(
                    f"|det C({j})| = {det:.3g} below the invertibility floor")
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


def build_fundamental(sys: DifferenceSystem) -> Callable[[int], np.ndarray]:
    """Y(n) with Y(0) = I, Y(n+1) = C(n) Y(n), cached in both directions."""
    cache: dict[int, np.ndarray] = {0: np.eye(sys.dimension)}

    def y(n: int) -> np.ndarray:
        if n not in cache:
            if n > 0:
                top = max(cache)
                for k in range(top, n):
                    cache[k + 1] = sys.c(k) @ cache[k]
            else:
                bottom = min(cache)
                for k in range(bottom - 1, n - 1, -1):
                    cache[k] = np.linalg.solve(sys.c(k), cache[k + 1])
        return cache[n]

    return y


@dataclass
class DichotomyCertificate:
    """(alpha, K, P) plus the fundamental-matrix accessor Y (Y(0) = I).

    Claims |G(m, l)| <= K e^{-alpha |m-l|} for all m, l, in the max-row-sum
    norm, for the Green function G built from P and Y.  That operator norm
    dominates the entrywise supremum, so the certificate also bounds entries,
    and it feeds the solution bound sup|x| <= K (1+e^-a)/(1-e^-a).
    """

    alpha: float
    K: float
    projection: np.ndarray
    fundamental: Callable[[int], np.ndarray]
    constant_coefficient: np.ndarray | None = None

    def green_function(self) -> "GreenFunction":
        return GreenFunction(self)

    def solution_bound(self, sup_forcing: float) -> float:
        a = self.alpha
        return self.K * (1.0 + math.exp(-a)) / (1.0 - math.exp(-a)) * sup_forcing


class GreenFunction:
    """Evaluator for G(m, l) = Y(m) P Y^-1(l) (m >= l), -Y(m)(I-P)Y^-1(l) (m < l).

    For constant coefficients only contractive products are formed, from the
    dichotomy steps ``stable_step`` = CP and ``unstable_step`` = C^-1(I-P):
    C^d P = (CP)^d P and C^-d (I-P) = (C^-1(I-P))^d, both with spectral
    radius below one, so long-range evaluations stay stable.
    """

    def __init__(self, certificate: DichotomyCertificate):
        self.certificate = certificate
        p = certificate.projection
        self._ident = np.eye(p.shape[0])
        c = certificate.constant_coefficient
        if c is not None:
            self._stable = {0: p.copy()}
            self.stable_step = c @ p
            self.unstable_step = np.linalg.solve(c, self._ident - p)
            self._unstable = {1: self.unstable_step.copy()}
        else:
            self._stable = None
        self._yinv_cache: dict[int, np.ndarray] = {}

    def __call__(self, m: int, l: int) -> np.ndarray:
        if self._stable is not None:
            d = m - l
            if d >= 0:
                top = max(self._stable)
                for k in range(top, d):
                    self._stable[k + 1] = self.stable_step @ self._stable[k]
                return self._stable[d]
            d = -d
            top = max(self._unstable)
            for k in range(top, d):
                self._unstable[k + 1] = self.unstable_step @ self._unstable[k]
            return -self._unstable[d]

        cert = self.certificate
        ym = cert.fundamental(m)
        if l not in self._yinv_cache:
            self._yinv_cache[l] = np.linalg.solve(cert.fundamental(l), self._ident)
        yinv = self._yinv_cache[l]
        if m >= l:
            return ym @ cert.projection @ yinv
        return -(ym @ (self._ident - cert.projection) @ yinv)


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
                                build_fundamental(dsys), c)
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
    max_recursion_residual: float      # max ||Y(n+1) - C(n) Y(n)||
    projection_defect: float           # ||P^2 - P||
    failed_invariant: str | None = None

    def __str__(self) -> str:
        state = "pass" if self.passed else f"FAIL ({self.failed_invariant})"
        return (f"certificate check on window {self.window}: {state}; "
                f"worst decay margin {self.worst_decay_margin:.3e} at "
                f"{self.worst_pair}, recursion residual "
                f"{self.max_recursion_residual:.3e}, projection defect "
                f"{self.projection_defect:.3e}")


def verify_certificate(sys: DifferenceSystem, cert: DichotomyCertificate,
                       window: int) -> CertificateReport:
    """Check the decay inequality, the Y recursion and P idempotency."""
    if window < 1:
        raise ValueError("window must be at least 1")
    p = cert.projection
    proj_defect = float(np.max(np.abs(p @ p - p)))

    rec_res = 0.0
    for n in range(-window, window):
        y_next = cert.fundamental(n + 1)
        defect = float(np.max(np.abs(y_next - sys.c(n) @ cert.fundamental(n))))
        # relative: Y spans huge scales across a wide window
        rec_res = max(rec_res, defect / (1.0 + mat_norm(y_next)))

    green = cert.green_function()
    worst = math.inf
    worst_pair = (0, 0)
    rng = range(-window, window + 1)
    for m in rng:
        for l in rng:
            bound = cert.K * math.exp(-cert.alpha * abs(m - l))
            margin = bound - mat_norm(green(m, l))
            if margin < worst:
                worst = margin
                worst_pair = (m, l)

    failed = None
    if proj_defect > DEFAULT.projection_idem:
        failed = "dichotomy.projection_idempotent"
    elif rec_res > DEFAULT.projection_idem:
        failed = "dichotomy.fundamental_recursion"
    elif worst < -1e-12 * cert.K:
        failed = "dichotomy.green_decay"
    return CertificateReport(failed is None, window, worst, worst_pair,
                             rec_res, proj_defect, failed)


@dataclass(frozen=True)
class BiShiftReport:
    max_deviation: float
    deviations: dict
    window: int
    exact_by_translation_invariance: bool

    def __str__(self) -> str:
        kind = ("exact by translation invariance"
                if self.exact_by_translation_invariance else "sampled")
        return (f"bi-shift invariance on window {self.window}: max deviation "
                f"{self.max_deviation:.3e} ({kind})")


def bi_shift_invariance_check(green: GreenFunction, shifts, window: int
                              ) -> BiShiftReport:
    """Deviation of G(m+s, l+s) from G(m, l) along a shift sequence.

    Constant-coefficient Green functions depend on m - l only, so the
    deviation vanishes identically; non-autonomous systems get a sampled
    finite-window screen of the simultaneous-shift regularity.
    """
    shifts = [int(s) for s in shifts]
    if not shifts:
        raise ValueError("need at least one shift")
    if green.certificate.constant_coefficient is not None:
        return BiShiftReport(0.0, {s: 0.0 for s in shifts}, window, True)

    devs: dict[int, float] = {}
    rng = range(-window, window + 1)
    for s in shifts:
        worst = 0.0
        for m in rng:
            for l in rng:
                worst = max(worst, float(np.max(np.abs(green(m + s, l + s) - green(m, l)))))
        devs[s] = worst
    return BiShiftReport(max(devs.values()), devs, window, False)


def widen_radius(radius_for: Callable[[float], float],
                 sup_within: Callable[[float], float], radius: float) -> float:
    """Widen a truncation radius R until it covers its own forcing.

    ``radius_for(s)`` is the radius a forcing supremum s needs and
    ``sup_within(R)`` the supremum over the reach of R.  R becomes
    radius_for(sup_within(R)) until that stops growing;
    WindowTooSmallError if it still grows after 4 rounds.
    """
    for _ in range(4):
        wider = radius_for(sup_within(radius))
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

    sup_h = max((sup_norm(sys.h(k)) for k in range(n0 - 1, n1 + 1)), default=0.0)
    if sup_h == 0.0:
        radius_probe = truncation_radius(cert.alpha, cert.K, 1.0, tol)
        sup_h = max((sup_norm(sys.h(k))
                     for k in range(n0 - 1 - radius_probe, n1 + radius_probe)),
                    default=0.0)
        if sup_h == 0.0:
            return np.zeros((n1 - n0 + 1, sys.dimension), dtype=complex)

    radius = widen_radius(
        lambda sup: truncation_radius(cert.alpha, cert.K, sup, tol),
        lambda r: max(sup_norm(sys.h(k)) for k in range(n0 - 1 - r, n1 + r)),
        truncation_radius(cert.alpha, cert.K, sup_h, tol))

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
    worst = 0.0
    for i in range(x.shape[0] - 1):
        n = n0 + i
        worst = max(worst, sup_norm(x[i + 1] - sys.c(n) @ x[i] - sys.h(n)))
    return worst


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
