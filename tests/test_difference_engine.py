"""Tests for dichotomy certificates, Green functions and the bounded series."""

import functools
import math
from typing import Callable

import mpmath as mp
import numpy as np
import pytest

from depca import difference_engine
from depca.difference_engine import (
    CertificateReport,
    DichotomyCertificate,
    DifferenceSystem,
    GreenFunction,
    bound_check,
    certify_constant,
    recursion_residual,
    solve_bounded,
    verify_certificate,
)
from depca.errors import (
    BoundaryEigenvalueError,
    InvalidCertificateError,
    SingularCoefficientError,
    WindowTooSmallError,
)
from depca.matrix_core import as_square_matrix, eigenvalues, mat_norm, sup_norm
from depca.tolerances import DEFAULT


def oracle_direct_sum(c, h: Callable[[int], np.ndarray], n0: int, n1: int,
                      term_floor: float = 1e-14) -> np.ndarray:
    """Brute-force one-sided series for purely stable or purely unstable C.

    Stable spectrum sums the causal branch sum_{k<=n-1} C^{n-1-k} h(k);
    unstable spectrum sums the anti-causal branch -sum_{k>=n} C^{n-1-k} h(k).
    Terms are added until they drop below ``term_floor``.  Mixed spectra are
    refused: this oracle exists to cross-check the Green-series solver on
    cases simple enough to sum directly.
    """
    c = as_square_matrix(c, "C")
    moduli = np.abs(eigenvalues(c))
    if np.all(moduli < 1.0):
        stable = True
    elif np.all(moduli > 1.0):
        stable = False
    else:
        raise ValueError("oracle only handles purely stable or purely unstable spectra")

    p = c.shape[0]
    out = np.zeros((n1 - n0 + 1, p), dtype=complex)
    c_inv = np.linalg.solve(c, np.eye(p))
    for i, n in enumerate(range(n0, n1 + 1)):
        acc = np.zeros(p, dtype=complex)
        if stable:
            power = np.eye(p)
            for j in range(10000):
                term = power @ np.atleast_1d(np.asarray(h(n - 1 - j), dtype=complex))
                acc = acc + term
                power = power @ c
                if sup_norm(term) < term_floor and j > 2:
                    break
        else:
            power = c_inv.copy()
            for j in range(10000):
                term = power @ np.atleast_1d(np.asarray(h(n + j), dtype=complex))
                acc = acc - term
                power = power @ c_inv
                if sup_norm(term) < term_floor and j > 2:
                    break
        out[i] = acc
    return out


def const_h(v):
    vec = np.atleast_1d(np.asarray(v, dtype=complex))
    return lambda n: vec


def mixed_3x3():
    rng = np.random.default_rng(7)
    v = rng.standard_normal((3, 3)) + 0.5 * np.eye(3)
    return v @ np.diag([0.3, 0.6, 1.8]) @ np.linalg.inv(v)


def mp_stable_projector(m: mp.matrix) -> tuple[mp.matrix, list]:
    """The spectral projector of a diagonalizable m onto its eigenvalues
    inside the unit circle, and the moduli of all its eigenvalues."""
    vals, vecs = mp.eig(m)
    inside = mp.diag([1 if abs(v) < 1 else 0 for v in vals])
    return vecs * inside * mp.inverse(vecs), [abs(v) for v in vals]


def to_float(m: mp.matrix) -> np.ndarray:
    return np.array(m.tolist(), dtype=complex).real


class TestCertifyConstant:
    def test_scalar_stable(self):
        cert = certify_constant(np.array([[0.5]]))
        np.testing.assert_allclose(cert.projection, [[1.0]])
        assert cert.alpha <= np.log(2.0)
        assert cert.K == pytest.approx(1.05, abs=0.01)
        green = cert.green_function()
        for d in range(0, 10):
            assert abs(green(d, 0)[0, 0] - 0.5 ** d) < 1e-14

    def test_scalar_unstable_anticausal_branch(self):
        cert = certify_constant(np.array([[2.0]]))
        np.testing.assert_allclose(cert.projection, [[0.0]])
        green = cert.green_function()
        # G(m, l) = -2^{m-l} for m < l, so |G| = 2^{-|m-l|}
        for d in range(1, 10):
            assert green(-d, 0)[0, 0] == pytest.approx(-2.0 ** (-d))

    def test_diagonal_split(self):
        cert = certify_constant(np.diag([0.5, 3.0]))
        np.testing.assert_allclose(cert.projection, np.diag([1.0, 0.0]),
                                   atol=1e-12)

    def test_unit_circle_rejected(self):
        with pytest.raises(BoundaryEigenvalueError):
            certify_constant(np.array([[1.0]]))

    def test_singular_rejected(self):
        with pytest.raises(SingularCoefficientError):
            certify_constant(np.array([[0.0]]))

    def test_singularity_is_judged_at_the_scale_of_c(self):
        # det C = 1e-14 for a perfectly conditioned C = 1e-7 I; a rank-one
        # C of any size is refused
        cert = certify_constant(1e-7 * np.eye(2))
        np.testing.assert_array_equal(cert.projection, np.eye(2))
        with pytest.raises(SingularCoefficientError):
            certify_constant(1e6 * np.ones((2, 2)))

    def test_a_moderate_spread_is_not_singular(self):
        # cond C = e^6 and det C = 1, though |det C| is far below
        # eps ||C||^16: the spread of singular values does not compound over p
        c = np.diag([np.e**3] * 8 + [np.e**-3] * 8)
        cert = certify_constant(c)
        np.testing.assert_allclose(cert.projection, np.diag([0.0] * 8 + [1.0] * 8), atol=1e-12)

    def test_green_decay_certified(self):
        c = mixed_3x3()
        cert = certify_constant(c)
        green = cert.green_function()
        for d in range(-80, 81):
            bound = cert.K * np.exp(-cert.alpha * abs(d))
            assert np.max(np.abs(green(d, 0))) <= bound * (1 + 1e-12)


class TestVerifyCertificate:
    def test_own_certificate_passes(self):
        c = np.array([[0.5]])
        cert = certify_constant(c)
        report = verify_certificate(cert, 20)
        assert report.passed
        assert report.worst_decay_margin >= 0.0

    def test_inflated_alpha_fails(self):
        c = np.array([[0.5]])
        cert = certify_constant(c)
        bad = DichotomyCertificate(cert.alpha + 1.0, cert.K, cert.projection,
                                   cert.coefficients)
        report = verify_certificate(bad, 20)
        assert not report.passed
        assert report.failed_invariant == "dichotomy.green_decay"
        assert report.worst_decay_margin < 0.0

    def test_degenerate_window(self):
        c = np.array([[0.5]])
        assert verify_certificate(certify_constant(c), 1).passed

    def test_periodic_system_user_certificate(self):
        # alternating scalar coefficients 0.5, 0.25: Y decays like sqrt(1/8)^n
        mats = [np.array([[0.5]]), np.array([[0.25]])]
        cert = DichotomyCertificate(0.5 * np.log(8.0), 2.1, np.array([[1.0]]), mats)
        assert verify_certificate(cert, 15).passed

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_double_loop_over_every_pair(self, seed):
        # C(k) = I + 0.6 N(0, 1), q = 1, 2, 3, P the stable projector of the
        # monodromy; alpha and K drawn so that some certificates fail
        rng = np.random.default_rng(seed)
        q, p, window = seed % 3 + 1, int(rng.integers(1, 4)), int(rng.integers(1, 9))
        mats = [np.eye(p) + 0.6 * rng.standard_normal((p, p)) for _ in range(q)]
        vals, vecs = np.linalg.eig(functools.reduce(np.matmul, mats[::-1]))
        proj = (vecs @ np.diag(np.abs(vals) < 1.0) @ np.linalg.inv(vecs)).real
        cert = DichotomyCertificate(rng.uniform(0.01, 1.0), rng.uniform(0.5, 5.0),
                                    proj, mats)

        # the reference: the decay margin of every pair, in (m, l) order
        green = cert.green_function()
        mono = green.monodromy
        worst, worst_pair = math.inf, (0, 0)
        for m in range(-window, window + 1):
            for l in range(-window, window + 1):
                margin = cert.K * math.exp(-cert.alpha * abs(m - l)) - mat_norm(green(m, l))
                if margin < worst:
                    worst, worst_pair = margin, (m, l)
        invariance = (mat_norm(mono @ proj - proj @ mono)
                      / (1.0 + mat_norm(mono) * mat_norm(proj)))
        proj_defect = float(np.max(np.abs(proj @ proj - proj)))
        failed = ("dichotomy.projection_idempotent" if proj_defect > DEFAULT.projection_idem
                  else "dichotomy.projection_invariant" if invariance > DEFAULT.projection_idem
                  else "dichotomy.green_decay" if worst < -1e-12 * cert.K else None)
        expected = CertificateReport(failed is None, window, worst, worst_pair,
                                     invariance, proj_defect, failed)
        assert verify_certificate(cert, window) == expected


def shift_deviation(green: GreenFunction, shifts, window: int) -> float:
    """max |G(m+s, l+s) - G(m, l)| over the shifts s and |m|, |l| <= window."""
    rng = range(-window, window + 1)
    return max(float(np.max(np.abs(green(m + s, l + s) - green(m, l))))
               for s in shifts for m in rng for l in rng)


class TestBiShiftInvariance:
    """G(m+s, l+s) = G(m, l) for every shift s that is a multiple of the
    period, the discrete Bi-almost-automorphy of a periodic system."""

    TWO_PERIODIC = [np.array([[0.5]]), np.array([[0.25]])]

    def test_constant_exact(self):
        cert = certify_constant(np.array([[0.5]]))
        assert shift_deviation(cert.green_function(), [1, 2, 5], 10) == 0.0

    def test_periodic_even_shifts_invariant(self):
        cert = DichotomyCertificate(0.5 * np.log(8.0), 2.1, np.array([[1.0]]),
                                    self.TWO_PERIODIC)
        assert shift_deviation(cert.green_function(), [2, 4, -6], 8) < 1e-12

    def test_periodic_odd_shift_detected(self):
        cert = DichotomyCertificate(0.5 * np.log(8.0), 2.1, np.array([[1.0]]),
                                    self.TWO_PERIODIC)
        # G(1, 0) is c(0) = 0.5 but G(2, 1) is c(1) = 0.25
        assert shift_deviation(cert.green_function(), [1], 8) >= 0.2


class TestGreenFunctionLift:
    """G on the Floquet lift equals Y(m) P Y^-1(l) of the periodic system."""

    @pytest.mark.parametrize("seed", [1, 2, 14, 17, 19, 21])
    def test_matches_the_fundamental_matrix_in_40_digits(self, seed):
        # C(k) = I + 0.6 N(0, 1): q in 2..4, p in 2..3, a mixed spectrum of
        # M, P the exact projector of M
        rng = np.random.default_rng(seed)
        q, p = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        mats = [np.eye(p) + 0.6 * rng.standard_normal((p, p)) for _ in range(q)]
        with mp.workdps(40):
            cs = [mp.matrix(c.tolist()) for c in mats]
            ys = {0: mp.eye(p)}
            for n in range(10):
                ys[n + 1] = cs[n % q] * ys[n]
                ys[-n - 1] = mp.inverse(cs[(-n - 1) % q]) * ys[-n]
            yinvs = {n: mp.inverse(y) for n, y in ys.items()}
            proj, moduli = mp_stable_projector(ys[q])
            assert min(moduli) < 1 < max(moduli)
            green = DichotomyCertificate(0.1, 1.0, to_float(proj), mats).green_function()
            for m in range(-10, 11):
                for l in range(-10, 11):
                    ref = to_float(ys[m] * (proj if m >= l else proj - mp.eye(p))
                                   * yinvs[l])
                    assert mat_norm(green(m, l) - ref) <= 1e-12 * mat_norm(ref)

    def test_constant_lift_keeps_the_coefficient(self):
        c = mixed_3x3()
        green = certify_constant(c).green_function()
        np.testing.assert_array_equal(green.monodromy, c)
        np.testing.assert_array_equal(green.stable_step,
                                      green.monodromy @ green.certificate.projection)


class TestSolveBounded:
    def test_zero_forcing(self):
        c = np.array([[0.5]])
        sys = DifferenceSystem.constant(c, const_h([0.0]))
        xs = solve_bounded(sys, certify_constant(c), -10, 10, 1e-10)
        np.testing.assert_allclose(xs, 0.0)

    def test_stable_fixed_point(self):
        # oracle: sum_{j>=0} 0.5^j = 2; recursion fixed point 2 = 0.5*2 + 1
        c = np.array([[0.5]])
        sys = DifferenceSystem.constant(c, const_h([1.0]))
        xs = solve_bounded(sys, certify_constant(c), -50, 50, 1e-10)
        np.testing.assert_allclose(xs, 2.0, atol=5e-10)

    def test_unstable_anticausal_fixed_point(self):
        # anti-causal branch: sum_{k>=n} -2^{n-1-k} = -1; -1 = 2*(-1) + 1
        c = np.array([[2.0]])
        sys = DifferenceSystem.constant(c, const_h([1.0]))
        xs = solve_bounded(sys, certify_constant(c), -50, 50, 1e-10)
        np.testing.assert_allclose(xs, -1.0, atol=5e-10)

    @pytest.mark.parametrize("cmat,hfn", [
        (np.array([[0.5]]), const_h([1.0])),
        (np.array([[2.0]]), lambda n: np.array([np.cos(0.7 * n)])),
        (np.diag([0.5, 3.0]), lambda n: np.array([1.0, np.sin(n)])),
        (mixed_3x3(), lambda n: np.array([np.cos(n), 1.0, (-1.0) ** n])),
    ])
    def test_recursion_residual(self, cmat, hfn):
        tol = 1e-10
        sys = DifferenceSystem.constant(cmat, hfn)
        xs = solve_bounded(sys, certify_constant(cmat), -50, 50, tol)
        assert recursion_residual(sys, xs, -50) <= 3.0 * tol

    def test_sup_h_is_the_max_over_the_range(self):
        sys = DifferenceSystem.constant(np.diag([0.5, 3.0]),
                                        lambda n: np.array([np.cos(n), 0.3j * n]))
        assert sys.sup_h(-7, 5) == max(sup_norm(sys.h(k)) for k in range(-7, 5))
        assert sys.sup_h(3, 3) == 0.0

    @pytest.mark.parametrize("cval", [0.5, 2.0])
    def test_oracle_equivalence(self, cval):
        tol = 1e-10
        c = np.array([[cval]])
        h = lambda n: np.array([(-1.0) ** n * 0.8 + 0.1])
        sys = DifferenceSystem.constant(c, h)
        xs = solve_bounded(sys, certify_constant(c), -20, 20, tol)
        oracle = oracle_direct_sum(c, h, -20, 20)
        assert np.max(np.abs(xs - oracle)) <= 5.0 * tol

    def test_alternating_oracle_closed_form(self):
        # x(n) = (-1)^{n-1} * 2/3 for C = 0.5, h(k) = (-1)^k
        oracle = oracle_direct_sum(np.array([[0.5]]),
                                   lambda n: np.array([(-1.0) ** n]), 0, 3)
        expected = [-(2 / 3), 2 / 3, -(2 / 3), 2 / 3]
        np.testing.assert_allclose(oracle[:, 0], expected, atol=1e-13)

    def test_oracle_refuses_mixed_spectrum(self):
        with pytest.raises(ValueError):
            oracle_direct_sum(np.diag([0.5, 3.0]), const_h([1.0, 1.0]), 0, 1)

    def test_translation_covariance(self):
        tol = 1e-10
        c = np.array([[0.5]])
        h = lambda n: np.array([np.cos(0.9 * n) + 0.2])
        s = 7
        sys = DifferenceSystem.constant(c, h)
        sys_shifted = DifferenceSystem.constant(c, lambda n: h(n + s))
        cert = certify_constant(c)
        xs = solve_bounded(sys, cert, -10 + s, 10 + s, tol)
        ys = solve_bounded(sys_shifted, cert, -10, 10, tol)
        assert np.max(np.abs(ys - xs)) <= tol

    def test_uniqueness_probe(self):
        tol = 1e-8
        c = mixed_3x3()
        h = lambda n: np.array([np.cos(n), 1.0, np.sin(2 * n)])
        sys = DifferenceSystem.constant(c, h)
        cert = certify_constant(c)
        coarse = solve_bounded(sys, cert, -15, 15, tol)
        fine = solve_bounded(sys, cert, -15, 15, tol / 10.0)
        assert np.max(np.abs(coarse - fine)) <= 1.1 * tol

    @pytest.mark.parametrize("n1", [0, 800])
    def test_overflowing_forcing_fails_typed(self, n1):
        # e^|n| overflows to inf past n = 709: on [0, 800] already, and on
        # [0, 0] at the second radius, as alpha = 0.9 ln(1/0.9) is small
        sys = DifferenceSystem.constant([[0.9]], lambda n: np.array([np.exp(abs(n))]))
        with np.errstate(over="ignore"), pytest.raises(WindowTooSmallError):
            solve_bounded(sys, certify_constant([[0.9]]), 0, n1, 1e-10)

    def test_growing_forcing_fails_typed(self):
        # with alpha = 0.9 ln 2 each round's radius reaches e^|n| large enough
        # to need about 1.6 times the radius again, so it never settles
        sys = DifferenceSystem.constant([[0.5]], lambda n: np.array([np.exp(abs(n))]))
        with pytest.raises(WindowTooSmallError):
            solve_bounded(sys, certify_constant([[0.5]]), 0, 0, 1e-10)


class TestBoundCheck:
    def test_scalar_bound_arithmetic(self):
        # with K = 1, alpha = ln 2 the bound is (1 + 0.5)/(1 - 0.5) = 3 >= 2
        cert = DichotomyCertificate(np.log(2.0), 1.0, np.array([[1.0]]),
                                    (np.array([[0.5]]),))
        xs = np.full((21, 1), 2.0 + 0j)
        report = bound_check(xs, cert, 1.0)
        assert report.certified_bound == pytest.approx(3.0)
        assert report.passed

    def test_zero_forcing_trivial(self):
        cert = certify_constant(np.array([[0.5]]))
        report = bound_check(np.zeros((5, 1), dtype=complex), cert, 0.0)
        assert report.passed

    def test_solution_bound_against_a_30_digit_green_sum(self):
        # h(n) = v cos(0.7 n) = Re(v e^{0.7 i n}), so the Green sum
        # x(n) = sum_k G(n, k+1) h(k) is Re(e^{0.7 i n} w) with
        # w = sum_{j>=0} (CP)^j P v e^{-0.7 i (j+1)} - sum_{j>=1} (C^-1 Q)^j v e^{0.7 i (j-1)}
        c = mixed_3x3()
        v = np.array([1.0, -0.5, 0.25])
        cert = certify_constant(c)
        sys = DifferenceSystem.constant(c, lambda n: v * np.cos(0.7 * n))
        xs = solve_bounded(sys, cert, -30, 30, 1e-12)
        with mp.workdps(30):
            cm, vm = mp.matrix(c.tolist()), mp.matrix(v.tolist())
            proj, _ = mp_stable_projector(cm)
            stable = cm * proj
            unstable = mp.inverse(cm) * (mp.eye(3) - proj)
            w, s_term, u_term = mp.matrix(3, 1), proj * vm, vm
            for j in range(200):
                u_term = unstable * u_term
                w += s_term * mp.expj(-0.7 * (j + 1)) - u_term * mp.expj(0.7 * j)
                s_term = stable * s_term
            assert mp.mnorm(s_term, 1) + mp.mnorm(u_term, 1) < mp.mpf(10) ** -28
            exact = np.array([to_float(mp.expj(0.7 * n) * w).ravel()
                              for n in range(-30, 31)])
        np.testing.assert_allclose(xs.real, exact, rtol=0, atol=1e-10)
        sup_x = float(np.max(np.abs(exact)))
        # alpha = 0.460 and K = 2.00 give the bound 8.86 for sup|h| = |v| = 1,
        # against sup|x| = 1.81 on [-30, 30]
        bound = cert.solution_bound(sup_norm(v))
        assert sup_x <= bound <= 10.0 * sup_x

    def test_unstable_plugin(self):
        cert = certify_constant(np.array([[2.0]]))
        sys = DifferenceSystem.constant(np.array([[2.0]]), const_h([1.0]))
        xs = solve_bounded(sys, cert, -20, 20, 1e-10)
        report = bound_check(xs, cert, 1.0)
        assert report.sup_solution == pytest.approx(1.0, abs=1e-9)
        assert report.certified_bound >= 1.5
        assert report.passed


class TestExactDichotomyConstant:
    """K is the supremum over every d, not over a sampled window."""

    SLOW_JORDAN = np.array([[0.97, 1.0], [0.0, 0.97]])

    def test_slow_jordan_supremum_beyond_any_short_window(self):
        # ||C^d|| e^{alpha d} peaks at d = 327; direct powering to 3000
        c = self.SLOW_JORDAN
        cert = certify_constant(c)
        power, direct = np.eye(2), 0.0
        for d in range(3001):
            direct = max(direct, mat_norm(power) * np.exp(cert.alpha * d))
            power = c @ power
        assert direct > 124.0
        assert cert.K >= direct

    def test_slow_jordan_green_decay_for_every_d(self):
        cert = certify_constant(self.SLOW_JORDAN)
        green = cert.green_function()
        for d in range(-3000, 3001):
            bound = cert.K * np.exp(-cert.alpha * abs(d))
            assert mat_norm(green(d, 0)) <= bound

    def test_power_cap_raises_typed(self, monkeypatch):
        # the slow Jordan block first reaches ||(e^alpha C)^d|| <= 1 at d = 2591
        monkeypatch.setattr(difference_engine, "POWER_CAP", 2590)
        with pytest.raises(InvalidCertificateError):
            certify_constant(self.SLOW_JORDAN)
        monkeypatch.setattr(difference_engine, "POWER_CAP", 2591)
        assert certify_constant(self.SLOW_JORDAN).K > 124.0

    def test_two_sweeps_make_no_green_function_calls(self, monkeypatch):
        # h(n) = v e^{0.9 i n} has the bounded solution (e^{0.9i} I - C)^-1 h(n)
        calls = []
        original = GreenFunction.__call__

        def counting(self, m, l):
            calls.append((m, l))
            return original(self, m, l)

        monkeypatch.setattr(GreenFunction, "__call__", counting)
        c = mixed_3x3()
        v = np.array([1.0, -0.5, 2.0])
        sys = DifferenceSystem.constant(c, lambda n: v * np.exp(0.9j * n))
        xs = solve_bounded(sys, certify_constant(c), -200, 200, 1e-10)
        w = np.linalg.solve(np.exp(0.9j) * np.eye(3) - c, v)
        expected = np.array([w * np.exp(0.9j * n) for n in range(-200, 201)])
        assert np.max(np.abs(xs - expected)) <= 1e-9
        assert calls == []

    def test_non_constant_certificate_rejected(self):
        mats = [np.array([[0.5]]), np.array([[0.25]])]
        sys = DifferenceSystem.periodic(mats, const_h([1.0]))
        cert = DichotomyCertificate(0.5 * np.log(8.0), 2.1, np.array([[1.0]]), mats)
        with pytest.raises(InvalidCertificateError):
            solve_bounded(sys, cert, -5, 5, 1e-10)
