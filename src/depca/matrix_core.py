"""Dense small-matrix linear algebra for the hybrid solvers.

Matrix exponentials, joint exponential-integral blocks, spectral splitting
along a stability boundary, the scalar eigenvalue-pair invertibility check,
and simultaneous triangularization of a matrix pair.  All routines target
dense systems of dimension p <= 16 and are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    BoundaryEigenvalueError,
    EigenvalueError,
    ExpmOverflowError,
    NotTriangularizableError,
    UserTInvalidError,
)
from .tolerances import DEFAULT

MAX_DIMENSION = 16


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a square 2-d array (real or complex, finite)."""
    m = np.atleast_2d(np.asarray(a))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] > MAX_DIMENSION:
        raise ValueError(f"{name} exceeds the supported dimension {MAX_DIMENSION}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    if np.iscomplexobj(m) and not m.imag.any():
        m = m.real
    return m.astype(complex if np.iscomplexobj(m) else float)


def mat_norm(m: np.ndarray) -> float:
    """Max-absolute-row-sum norm (the operator norm for sup-norm vectors)."""
    m = np.atleast_2d(m)
    return float(np.max(np.sum(np.abs(m), axis=1)))


def sup_norm(v) -> float:
    return float(np.max(np.abs(np.asarray(v)))) if np.asarray(v).size else 0.0


def is_singular(m: np.ndarray) -> bool:
    """sigma_min(M) <= p eps sigma_max(M): numerically rank-deficient, by
    the tolerance of ``np.linalg.matrix_rank``.  The verdict reads the
    conditioning of M alone, so it does not change with M -> c M and, unlike
    a floor on |det M|, does not compound a moderate spread of singular
    values over p; the zero matrix is singular."""
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv[-1] <= m.shape[0] * np.finfo(float).eps * sv[0])


# ---------------------------------------------------------------------------
# matrix exponential, degree-13 Pade with scaling and squaring

_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a, t: float = 1.0) -> np.ndarray:
    """e^{A t} by scaling and squaring with the degree-13 Pade approximant.

    The squaring count is capped; exceeding the cap means the propagation
    window is ill-posed for this matrix and an ExpmOverflowError is raised.
    """
    return _expm(as_square_matrix(a, "A") * t)


def _expm(m: np.ndarray) -> np.ndarray:
    """Pade-13 kernel of ``expm`` on an already validated square array;
    exactly I for the zero matrix, so Z(0) = I to the bit."""
    p = m.shape[0]
    if not m.any():
        return np.eye(p, dtype=m.dtype)
    norm1 = float(np.linalg.norm(m, 1)) if p else 0.0
    squarings = 0
    if norm1 > _THETA13:
        squarings = int(np.ceil(np.log2(norm1 / _THETA13)))
        if squarings > DEFAULT.max_squarings:
            raise ExpmOverflowError(
                f"||A t||_1 = {norm1:.3g} needs {squarings} squarings "
                f"(cap {DEFAULT.max_squarings}): ill-posed window"
            )
        m = m / (2.0 ** squarings)

    ident = np.eye(p, dtype=m.dtype)
    b = _PADE13
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m2 @ m4
    u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
             + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * ident)
    v = (m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
         + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * ident)
    f = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        f = f @ f
    return f


def expm_integral(a, b, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Jointly compute (e^{Au}, (integral_0^u e^{As} ds) B).

    Both blocks are read off one exponential of the augmented matrix
    [[A, I], [0, 0]] scaled by u, so a singular A needs no special case
    (no resolvent inversion anywhere).
    """
    a = as_square_matrix(a, "A")
    b = as_square_matrix(b, "B")
    if a.shape != b.shape:
        raise ValueError(f"A and B must share a shape, got {a.shape}, {b.shape}")
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    p = a.shape[0]
    dtype = complex if (np.iscomplexobj(a) or np.iscomplexobj(b)) else float
    w = np.zeros((2 * p, 2 * p), dtype=dtype)
    w[:p, :p] = a
    w[:p, p:] = np.eye(p)
    e = _expm(w * u)
    # copies, so a cached block does not keep the whole 2p x 2p array alive
    return e[:p, :p].astype(dtype), e[:p, p:] @ b


# ---------------------------------------------------------------------------
# eigenvalues and spectral splitting


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues with multiplicity, in no particular order."""
    a = as_square_matrix(a, "A")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # iteration cap exceeded
        raise EigenvalueError(f"eigenvalue iteration did not converge: {exc}") from exc


@dataclass(frozen=True)
class SpectralSplit:
    """Invariant-subspace splitting of a matrix along a stability boundary.

    ``stable_projection`` projects onto the stable invariant subspace along
    the unstable one (a genuine spectral projector, not an orthogonal one),
    so it commutes with the split matrix and P + Q = I.

    It is built from the ordered Schur form M = U [[T11, T12], [0, T22]] U*,
    with T11 of size k = len(stable_eigenvalues): P = U [[I, X], [0, 0]] U*,
    where ``coupling`` X solves T11 X - X T22 = T12.
    """

    stable_projection: np.ndarray
    unstable_projection: np.ndarray
    stable_eigenvalues: tuple[complex, ...]
    unstable_eigenvalues: tuple[complex, ...]
    decay_rate_stable: float
    decay_rate_unstable: float
    mode: str
    schur_form: np.ndarray
    schur_basis: np.ndarray
    coupling: np.ndarray


def _boundary_distance(lam: complex, mode: str) -> float:
    if mode == "continuous":
        return abs(lam.real)
    return abs(abs(lam) - 1.0)


def _is_stable(lam: complex, mode: str) -> bool:
    if mode == "continuous":
        return lam.real < 0.0
    return abs(lam) < 1.0


def spectral_split(m, mode: str) -> SpectralSplit:
    """Split a matrix into stable/unstable spectral projectors.

    mode 'continuous' splits along the imaginary axis, 'discrete' along the
    unit circle.  Projectors come from the ordered complex Schur form: the
    stable cluster is reordered first, and the coupling block of the
    projector solves a small Sylvester equation.
    """
    if mode not in ("continuous", "discrete"):
        raise ValueError(f"unknown mode {mode!r}")
    m = as_square_matrix(m, "M")
    p = m.shape[0]
    evals = eigenvalues(m)
    for lam in evals:
        dist = _boundary_distance(complex(lam), mode)
        if dist < DEFAULT.boundary_margin:
            raise BoundaryEigenvalueError(complex(lam), dist, mode)

    t, u, sdim = sla.schur(m.astype(complex), output="complex",
                           sort=lambda lam: _is_stable(lam, mode))
    k = int(sdim)
    x = np.zeros((k, p - k), dtype=complex)
    if k == 0:
        proj = np.zeros((p, p))
    elif k == p:
        proj = np.eye(p)
    else:
        # spectral projector of the leading cluster: [[I, X],[0, 0]] in the
        # Schur basis, with T11 X - X T22 = T12
        x = sla.solve_sylvester(t[:k, :k], -t[k:, k:], t[:k, k:])
        pi = np.zeros((p, p), dtype=complex)
        pi[:k, :k] = np.eye(k)
        pi[:k, k:] = x
        proj = u @ pi @ u.conj().T
        if not np.iscomplexobj(m):
            proj = proj.real

    diag = np.diag(t)
    stable = tuple(complex(z) for z in diag[:k])
    unstable = tuple(complex(z) for z in diag[k:])

    def rate(lams):
        if not lams:
            return np.inf
        if mode == "continuous":
            return float(min(abs(z.real) for z in lams))
        return float(min(abs(np.log(abs(z))) for z in lams))

    q = np.eye(p) - proj
    return SpectralSplit(
        stable_projection=proj,
        unstable_projection=q,
        stable_eigenvalues=stable,
        unstable_eigenvalues=unstable,
        decay_rate_stable=rate(stable),
        decay_rate_unstable=rate(unstable),
        mode=mode,
        schur_form=t,
        schur_basis=u,
        coupling=x,
    )


# ---------------------------------------------------------------------------
# eigenvalue-pair invertibility condition


@dataclass(frozen=True)
class EigenConditionCheck:
    """Outcome of scanning the scalar invertibility condition on u in [0,1]:
    a violation means the pair factor ``pair_factor`` vanishes, which makes
    the scalar interval propagator singular at u_star."""

    passed: bool
    u_star: float | None


def _phi1(z):
    """(e^z - 1) / z, with the value 1 at z = 0; elementwise on arrays."""
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    return np.where(zero, 1.0, np.expm1(z) / np.where(zero, 1.0, z))[()]


def pair_factor(a, b, u):
    """1 + b u phi1(-a u), the factor of the eigenvalue pair (a, b) of a
    triangular pair in det(I + integral_0^u e^{-Ar} dr B); broadcasts."""
    return 1.0 + b * u * _phi1(-u * a)


def check_eigenvalue_condition(lambda_a: complex, lambda_b: complex
                               ) -> EigenConditionCheck:
    """Scan u in [0, 1] for a zero of ``pair_factor``.

    phi1(0) = 1 covers the lambda_A = 0 branch continuously.  The scan
    locates the minimum of |factor| on a 2049-point grid and refines it by
    bisecting the derivative of |factor|^2, which pins the violating u* far
    below 1e-12.  |factor| is the scalar propagator's scale-free
    determinant, so it fails at or below ``det_threshold``, the floor the
    grid screen puts on the geometric mean of the factors.
    """
    la = complex(lambda_a)
    lb = complex(lambda_b)

    def dphi(u: float) -> complex:
        # d/du of lb*u*phi1(-u la) is lb * e^{-u la} for every la
        return lb * np.exp(-u * la)

    def slope(u: float) -> float:
        # derivative of |factor|^2
        return 2.0 * (np.conj(pair_factor(la, lb, u)) * dphi(u)).real

    us = np.linspace(0.0, 1.0, 2049)
    mods = np.abs(pair_factor(la, lb, us))
    i = int(np.argmin(mods))

    if 0 < i < len(us) - 1:
        lo, hi = us[i - 1], us[i + 1]
        if slope(lo) < 0.0 < slope(hi):
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if slope(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
        u_min = 0.5 * (lo + hi)
    else:
        u_min = float(us[i])
    modulus = float(abs(pair_factor(la, lb, u_min)))
    # the boundary u = 1 may host the violation even when an interior grid
    # point came out marginally smaller
    if abs(pair_factor(la, lb, 1.0)) < modulus:
        u_min, modulus = 1.0, float(abs(pair_factor(la, lb, 1.0)))

    if modulus <= DEFAULT.det_threshold:
        return EigenConditionCheck(False, u_min)
    return EigenConditionCheck(True, None)


def eigenvalue_pair_failures(a_upper: np.ndarray, b_upper: np.ndarray
                             ) -> tuple[tuple[int, float], ...]:
    """(i, u*) for every diagonal pair (a_ii, b_ii) of a triangular pair that
    violates the invertibility condition, in increasing i."""
    failures = []
    for i in range(a_upper.shape[0]):
        check = check_eigenvalue_condition(a_upper[i, i], b_upper[i, i])
        if not check.passed:
            failures.append((i, float(check.u_star)))
    return tuple(failures)


# ---------------------------------------------------------------------------
# simultaneous triangularization


def _is_upper(m: np.ndarray, tol: float) -> bool:
    return bool(np.all(np.abs(np.tril(m, -1)) <= tol))


def _common_eigenvector(a: np.ndarray, b: np.ndarray, tol: float
                        ) -> np.ndarray | None:
    """A joint eigenvector of (a, b), or None.

    Scans all eigenvalue pairs and checks the stacked null space of
    [a - la I; b - lb I]; the smallest singular value measures the joint
    eigenvector residual directly.
    """
    p = a.shape[0]
    ident = np.eye(p)

    def cluster(vals):
        out: list[complex] = []
        for v in vals:
            if all(abs(v - w) > 1e-8 for w in out):
                out.append(complex(v))
        return out

    best: tuple[float, np.ndarray] | None = None
    for la in cluster(np.linalg.eigvals(a)):
        for lb in cluster(np.linalg.eigvals(b)):
            stacked = np.vstack([a - la * ident, b - lb * ident])
            _, s, vh = np.linalg.svd(stacked)
            resid = float(s[-1])
            if best is None or resid < best[0]:
                best = (resid, vh[-1].conj())
    if best is not None and best[0] <= tol:
        return best[1]
    return None


def simultaneous_triangularize(a, b, user_t=None
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Find T with T^-1 A T and T^-1 B T both upper triangular.

    A user-supplied T is validated and used as-is: it is refused when it
    ``is_singular`` or leaves either matrix not upper triangular.  Otherwise
    the pair is screened by its commutator: if AB - BA is not nilpotent the
    pair is certainly not triangularizable; if it is (including the
    commuting case), a basis is built by iterated common-eigenvector
    deflation, which may still fail for non-commuting pairs since the
    screen is only necessary.
    """
    a = as_square_matrix(a, "A")
    b = as_square_matrix(b, "B")
    if a.shape != b.shape:
        raise ValueError("A and B must share a dimension")
    p = a.shape[0]
    scale = max(1.0, mat_norm(a), mat_norm(b))

    if user_t is not None:
        t = as_square_matrix(user_t, "userT")
        if is_singular(t):
            raise UserTInvalidError("supplied T is singular")
        abar = np.linalg.solve(t, a @ t)
        bbar = np.linalg.solve(t, b @ t)
        tol = DEFAULT.triangular_tol * scale
        if not (_is_upper(abar, tol) and _is_upper(bbar, tol)):
            raise UserTInvalidError(
                "supplied T does not make both matrices upper triangular"
            )
        return t, np.triu(abar), np.triu(bbar)

    tol = DEFAULT.triangular_tol * scale
    if _is_upper(a, tol) and _is_upper(b, tol):
        return (np.eye(p, dtype=complex), np.triu(a).astype(complex),
                np.triu(b).astype(complex))

    comm = a @ b - b @ a
    comm_norm = mat_norm(comm)
    if comm_norm > DEFAULT.commute_tol * scale:
        # necessary condition: the commutator of a triangularizable pair is
        # nilpotent.  Test (AB - BA)^p, not its eigenvalues: a nilpotent
        # Jordan block of size k has computed eigenvalues of order eps^(1/k)
        power = np.linalg.matrix_power(comm, p)
        if mat_norm(power) > 1e-8 * max(1.0, comm_norm) ** p:
            raise NotTriangularizableError(
                "commutator AB - BA is not nilpotent"
            )

    t_total = np.eye(p, dtype=complex)
    ak = a.astype(complex)
    bk = b.astype(complex)
    for k in range(p - 1):
        m = p - k
        v = _common_eigenvector(ak, bk, DEFAULT.common_eigvec_tol * scale)
        if v is None:
            raise NotTriangularizableError(
                f"no common eigenvector at deflation stage {k}"
            )
        # a unitary Q whose first column is a multiple of v
        q = np.linalg.qr(v[:, None], mode="complete")[0]
        ak = q.conj().T @ ak @ q
        bk = q.conj().T @ bk @ q
        expanded = np.eye(p, dtype=complex)
        expanded[k:, k:] = q
        t_total = t_total @ expanded
        ak = ak[1:, 1:]
        bk = bk[1:, 1:]

    abar = t_total.conj().T @ a @ t_total
    bbar = t_total.conj().T @ b @ t_total
    if not (_is_upper(abar, tol) and _is_upper(bbar, tol)):
        raise NotTriangularizableError(
            "deflation produced a basis that is not triangularizing "
            "(below-diagonal residue above tolerance)"
        )
    if np.max(np.abs(t_total.imag)) < 1e-14 and not np.iscomplexobj(a):
        t_total = t_total.real.astype(complex)
    return t_total, np.triu(abar), np.triu(bbar)
