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
from .tolerances import DEFAULT, Tolerances

MAX_DIMENSION = 16


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a square 2-d array (real or complex, finite)."""
    m = np.atleast_2d(np.asarray(a))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] > MAX_DIMENSION:
        raise ValueError(f"{name} exceeds the supported dimension {MAX_DIMENSION}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} has non-finite entries")
    if np.iscomplexobj(m) and np.all(m.imag == 0.0):
        m = m.real
    return m.astype(complex if np.iscomplexobj(m) else float)


def mat_norm(m: np.ndarray) -> float:
    """Max-absolute-row-sum norm (the operator norm for sup-norm vectors)."""
    m = np.atleast_2d(m)
    return float(np.max(np.sum(np.abs(m), axis=1)))


def sup_norm(v) -> float:
    return float(np.max(np.abs(np.asarray(v)))) if np.asarray(v).size else 0.0


# ---------------------------------------------------------------------------
# matrix exponential, degree-13 Pade with scaling and squaring

_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a, t: float = 1.0, tols: Tolerances = DEFAULT) -> np.ndarray:
    """e^{A t} by scaling and squaring with the degree-13 Pade approximant.

    The squaring count is capped; exceeding the cap means the propagation
    window is ill-posed for this matrix and an ExpmOverflowError is raised.
    """
    return _expm(as_square_matrix(a, "A") * t, tols)


def _expm(m: np.ndarray, tols: Tolerances = DEFAULT) -> np.ndarray:
    """Pade-13 kernel of ``expm`` on an already validated square array."""
    p = m.shape[0]
    norm1 = float(np.linalg.norm(m, 1)) if p else 0.0
    squarings = 0
    if norm1 > _THETA13:
        squarings = int(np.ceil(np.log2(norm1 / _THETA13)))
        if squarings > tols.max_squarings:
            raise ExpmOverflowError(
                f"||A t||_1 = {norm1:.3g} needs {squarings} squarings "
                f"(cap {tols.max_squarings}): ill-posed window"
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


def expm_integral(a, b, u: float, tols: Tolerances = DEFAULT
                  ) -> tuple[np.ndarray, np.ndarray]:
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
    e = _expm(w * u, tols)
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
    """

    stable_projection: np.ndarray
    unstable_projection: np.ndarray
    stable_eigenvalues: tuple[complex, ...]
    unstable_eigenvalues: tuple[complex, ...]
    decay_rate_stable: float
    decay_rate_unstable: float
    mode: str


def _boundary_distance(lam: complex, mode: str) -> float:
    if mode == "continuous":
        return abs(lam.real)
    return abs(abs(lam) - 1.0)


def _is_stable(lam: complex, mode: str) -> bool:
    if mode == "continuous":
        return lam.real < 0.0
    return abs(lam) < 1.0


def spectral_split(m, mode: str, tols: Tolerances = DEFAULT) -> SpectralSplit:
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
        if dist < tols.boundary_margin:
            raise BoundaryEigenvalueError(complex(lam), dist, mode)

    t, u, sdim = sla.schur(m.astype(complex), output="complex",
                           sort=lambda lam: _is_stable(lam, mode))
    k = int(sdim)
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
    )


# ---------------------------------------------------------------------------
# eigenvalue-pair invertibility condition


@dataclass(frozen=True)
class EigenConditionCheck:
    """Outcome of scanning the scalar invertibility condition on u in [0,1].

    The scanned quantity is (lambda_B / lambda_A)(1 - e^{-u lambda_A}),
    read as lambda_B * u when lambda_A = 0; a violation means it hits -1,
    which makes the scalar interval propagator singular at u_star.
    """

    passed: bool
    u_star: float | None
    min_modulus: float
    at_u: float


def _phi1(z: complex) -> complex:
    """(e^z - 1) / z, stable near z = 0."""
    if abs(z) < 1e-5:
        return 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
    return (np.exp(z) - 1.0) / z


def check_eigenvalue_condition(lambda_a: complex, lambda_b: complex,
                               tols: Tolerances = DEFAULT,
                               grid: int = 2049) -> EigenConditionCheck:
    """Scan u in [0, 1] for the invertibility condition expr(u) != -1.

    expr(u) = lambda_B * u * phi1(-u lambda_A) covers both branches of the
    condition continuously (phi1(0) = 1 gives the lambda_A = 0 case).  The
    scan locates the minimum of |expr + 1| on a grid and refines it by
    bisecting the derivative of |expr + 1|^2, which pins the violating u*
    far below 1e-12.
    """
    la = complex(lambda_a)
    lb = complex(lambda_b)

    def phi(u: float) -> complex:
        return 1.0 + lb * u * _phi1(-u * la)

    def dphi(u: float) -> complex:
        # d/du of lb*u*phi1(-u la) is lb * e^{-u la} for every la
        return lb * np.exp(-u * la)

    def slope(u: float) -> float:
        # derivative of |phi|^2
        return 2.0 * (np.conj(phi(u)) * dphi(u)).real

    us = np.linspace(0.0, 1.0, grid)
    mods = np.abs([phi(u) for u in us])
    i = int(np.argmin(mods))

    if 0 < i < grid - 1:
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
    modulus = float(abs(phi(u_min)))
    # the boundary u = 1 may host the violation even when an interior grid
    # point came out marginally smaller
    if abs(phi(1.0)) < modulus:
        u_min, modulus = 1.0, float(abs(phi(1.0)))

    if modulus <= tols.eigen_condition_tol:
        return EigenConditionCheck(False, u_min, modulus, u_min)
    return EigenConditionCheck(True, None, modulus, u_min)


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


def _embed_first_column(v: np.ndarray) -> np.ndarray:
    """Unitary matrix whose first column is v (Gram-Schmidt completion)."""
    p = v.shape[0]
    cols = [v / np.linalg.norm(v)]
    for e in np.eye(p, dtype=complex):
        w = e.copy()
        for c in cols:
            w -= np.vdot(c, w) * c
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            cols.append(w / norm)
        if len(cols) == p:
            break
    return np.column_stack(cols)


def simultaneous_triangularize(a, b, user_t=None, tols: Tolerances = DEFAULT
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Find T with T^-1 A T and T^-1 B T both upper triangular.

    A user-supplied T is validated and used as-is.  Otherwise the pair is
    screened by its commutator: if AB - BA is not nilpotent the pair is
    certainly not triangularizable; if it is (including the commuting case),
    a basis is built by iterated common-eigenvector deflation, which may
    still fail for non-commuting pairs since the screen is only necessary.
    """
    a = as_square_matrix(a, "A")
    b = as_square_matrix(b, "B")
    if a.shape != b.shape:
        raise ValueError("A and B must share a dimension")
    p = a.shape[0]
    scale = max(1.0, mat_norm(a), mat_norm(b))

    if user_t is not None:
        t = as_square_matrix(user_t, "userT")
        if abs(np.linalg.det(t)) < 1e-12:
            raise UserTInvalidError("supplied T is singular")
        abar = np.linalg.solve(t, a @ t)
        bbar = np.linalg.solve(t, b @ t)
        tol = tols.triangular_tol * scale
        if not (_is_upper(abar, tol) and _is_upper(bbar, tol)):
            raise UserTInvalidError(
                "supplied T does not make both matrices upper triangular"
            )
        return t, np.triu(abar), np.triu(bbar)

    tol = tols.triangular_tol * scale
    if _is_upper(a, tol) and _is_upper(b, tol):
        return (np.eye(p, dtype=complex), np.triu(a).astype(complex),
                np.triu(b).astype(complex))

    comm = a @ b - b @ a
    if mat_norm(comm) > tols.commute_tol * scale:
        # necessary condition: the commutator of a triangularizable pair is
        # nilpotent (all eigenvalues zero)
        comm_eigs = np.linalg.eigvals(comm)
        if np.max(np.abs(comm_eigs)) > 1e-8 * max(1.0, mat_norm(comm)):
            raise NotTriangularizableError(
                "commutator AB - BA is not nilpotent"
            )

    t_total = np.eye(p, dtype=complex)
    ak = a.astype(complex)
    bk = b.astype(complex)
    for k in range(p - 1):
        m = p - k
        v = _common_eigenvector(ak, bk, tols.common_eigvec_tol * scale)
        if v is None:
            raise NotTriangularizableError(
                f"no common eigenvector at deflation stage {k}"
            )
        q = _embed_first_column(v)
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
