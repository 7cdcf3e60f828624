"""Tests for the dense linear algebra kernel."""

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from depca.errors import (
    BoundaryEigenvalueError,
    ExpmOverflowError,
    NotTriangularizableError,
    UserTInvalidError,
)
from depca.matrix_core import (
    _expm,
    _phi1,
    check_eigenvalue_condition,
    eigenvalues,
    expm,
    expm_integral,
    mat_norm,
    simultaneous_triangularize,
    spectral_split,
)


class TestStackedExpm:
    """A (N, q, q) stack through ``_expm`` gives every slice the bits of the
    kernel on that slice alone, with its own squaring count."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16), st.floats(0.01, 60.0), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_stack_is_bit_equal_per_slice(self, p, scale, complex_a, seed):
        rng = np.random.default_rng(seed)
        a = scale * rng.standard_normal((p, p))
        if complex_a:
            a = a + 1j * scale * rng.standard_normal((p, p))
        us = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 6)])
        stack = _expm(a * us[:, None, None])
        exps, ints = expm_integral(a, us)
        assert stack.shape == exps.shape == ints.shape == (8, p, p)
        # u = 0 is exactly I and 0
        assert np.array_equal(stack[0], np.eye(p)) and np.array_equal(exps[0], np.eye(p))
        assert not ints[0].any()
        for k, u in enumerate(us.tolist()):
            assert np.array_equal(stack[k], _expm(a * u))
            e, w = expm_integral(a, u)
            assert np.array_equal(exps[k], e) and np.array_equal(ints[k], w)

    def test_one_overflowing_slice_fails_the_stack(self):
        a = np.array([[800.0]])
        with pytest.raises(ExpmOverflowError, match="overflows at .* = 800"):
            _expm(a * np.array([0.0, 0.5, 1.0])[:, None, None])
        with pytest.raises(ExpmOverflowError, match="squarings"):
            _expm(a * np.array([0.5, 1e12])[:, None, None])


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_allclose(expm(np.zeros((1, 1)), 1.0), [[1.0]])

    def test_scalar_closed_form(self):
        # e^{-1} = 0.36787944117144233
        np.testing.assert_allclose(expm(np.array([[-1.0]]), 1.0),
                                   [[0.36787944117144233]], atol=1e-10)

    def test_nilpotent_series_terminates(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(expm(a, 2.0), [[1.0, 2.0], [0.0, 1.0]],
                                   atol=1e-14)

    def test_identity_at_t_zero(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        np.testing.assert_allclose(expm(a, 0.0), np.eye(4), atol=1e-15)

    def test_zero_exponent_is_exactly_the_identity(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 4, 4))
        assert np.array_equal(expm(a, 0.0), np.eye(4))
        e, integ = expm_integral(a, 0.0)
        assert np.array_equal(e, np.eye(4)) and not (integ @ b).any()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5))
        np.testing.assert_allclose(expm(a, 1.3), sla.expm(1.3 * a),
                                   rtol=1e-12, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.integers(0, 100))
    def test_group_property(self, s, t, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3))
        a *= 2.0 / max(mat_norm(a), 1e-3)
        left = expm(a, s) @ expm(a, t)
        np.testing.assert_allclose(left, expm(a, s + t), atol=1e-8)

    def test_overflow_cap(self):
        with pytest.raises(ExpmOverflowError):
            expm(np.array([[1.0]]), 1e20)

    def test_complex_input(self):
        a = np.array([[1j]])
        np.testing.assert_allclose(expm(a, np.pi), [[-1.0]], atol=1e-12)


class TestExpmIntegral:
    def test_zero_a(self):
        e, integ = expm_integral(np.zeros((2, 2)), 1.0)
        np.testing.assert_allclose(e, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(integ, np.eye(2), atol=1e-14)

    def test_scalar_antiderivative(self):
        e, integ = expm_integral(np.array([[-1.0]]), 1.0)
        np.testing.assert_allclose(e, [[0.36787944117144233]], atol=1e-12)
        np.testing.assert_allclose(integ, [[0.6321205588285577]], atol=1e-12)

    def test_empty_interval(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        e, integ = expm_integral(a, 0.0)
        np.testing.assert_allclose(e, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(integ @ b, np.zeros((3, 3)), atol=1e-14)

    def test_negative_u_rejected(self):
        with pytest.raises(ValueError):
            expm_integral(np.eye(2), -0.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_derivative_of_integral_block(self, seed):
        # d/du [ integral_0^u e^{As} ds B ] = e^{Au} B, central differences
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        u, h = 0.7, 1e-4
        _, hi = expm_integral(a, u + h)
        _, lo = expm_integral(a, u - h)
        np.testing.assert_allclose((hi - lo) @ b / (2 * h), expm(a, u) @ b,
                                   atol=1e-6)


class TestEigenvalues:
    def test_diagonal(self):
        vals = sorted(eigenvalues(np.diag([2.0, 3.0])).real)
        np.testing.assert_allclose(vals, [2.0, 3.0])

    def test_rotation_generator(self):
        vals = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sorted(vals.imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(vals.real, 0.0, atol=1e-12)

    def test_jordan_block(self):
        vals = eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(vals, [1.0, 1.0])


class TestSpectralSplit:
    def test_diagonal_continuous(self):
        s = spectral_split(np.diag([-1.0, 2.0]), "continuous")
        np.testing.assert_allclose(s.stable_projection, np.diag([1.0, 0.0]),
                                   atol=1e-12)
        assert s.decay_rate_stable == pytest.approx(1.0)
        assert s.decay_rate_unstable == pytest.approx(2.0)

    def test_scalar_discrete(self):
        s = spectral_split(np.array([[0.5]]), "discrete")
        np.testing.assert_allclose(s.stable_projection, [[1.0]])
        np.testing.assert_allclose(s.unstable_projection, [[0.0]])

    def test_nonnormal_discrete_projector(self):
        # explicit eigenvectors: e1 for 0.5; (1, 1.5) for 2 -> P = [[1,-2/3],[0,0]]
        m = np.array([[0.5, 1.0], [0.0, 2.0]])
        s = spectral_split(m, "discrete")
        p = s.stable_projection
        np.testing.assert_allclose(p, [[1.0, -2.0 / 3.0], [0.0, 0.0]], atol=1e-10)
        np.testing.assert_allclose(p @ p, p, atol=1e-9)
        np.testing.assert_allclose(p @ m, m @ p, atol=1e-9)
        # spectrum of M restricted to range(P) is {0.5}
        assert np.trace(m @ p) == pytest.approx(0.5, abs=1e-9)

    def test_projection_sum_and_idempotency(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = rng.standard_normal((4, 4))
            if min(abs(abs(lam) - 1) for lam in eigenvalues(m)) < 1e-6:
                continue
            s = spectral_split(m, "discrete")
            p, q = s.stable_projection, s.unstable_projection
            np.testing.assert_allclose(p + q, np.eye(4), atol=1e-10)
            np.testing.assert_allclose(p @ p, p, atol=1e-9)
            np.testing.assert_allclose(p @ m, m @ p, atol=1e-9)

    def test_boundary_eigenvalue_rejected(self):
        with pytest.raises(BoundaryEigenvalueError):
            spectral_split(np.array([[0.0, -1.0], [1.0, 0.0]]), "continuous")
        with pytest.raises(BoundaryEigenvalueError):
            spectral_split(np.array([[1.0]]), "discrete")

    def test_stable_decay_envelope(self):
        # ||e^{Mt} P v|| decays at the stable rate (modest transient headroom)
        m = np.array([[-1.0, 3.0], [0.0, -2.0]])
        s = spectral_split(m, "continuous")
        v = np.array([0.6, 0.8])
        pv = s.stable_projection @ v
        for t in np.linspace(0.0, 10.0, 21):
            norm = np.linalg.norm(expm(m, t) @ pv)
            assert norm <= 10.0 * np.exp(-s.decay_rate_stable * t) * np.linalg.norm(pv) + 1e-12


def _eigen_expr(la, lb, u):
    if la == 0:
        return lb * u
    return (lb / la) * (1.0 - np.exp(-u * la))


class TestEigenCondition:
    def test_violation_at_endpoint(self):
        check = check_eigenvalue_condition(0.0, -1.0)
        assert not check.passed
        assert check.u_star == pytest.approx(1.0, abs=1e-10)

    def test_positive_lambda_b_passes(self):
        assert check_eigenvalue_condition(0.0, 1.0).passed

    def test_zero_lambda_b_passes(self):
        assert check_eigenvalue_condition(1.0, 0.0).passed

    def test_interior_violation_located(self):
        # lb chosen so the expression hits -1 exactly at u = 0.6
        u_star = 0.6
        lb = -1.0 / (1.0 - np.exp(-u_star))
        check = check_eigenvalue_condition(1.0, lb)
        assert not check.passed
        assert check.u_star == pytest.approx(u_star, abs=1e-10)

    def test_complex_interior_violation(self):
        la = 1.0 + 1.0j
        u_star = 0.4
        lb = -la / (1.0 - np.exp(-u_star * la))
        check = check_eigenvalue_condition(la, lb)
        assert not check.passed
        assert check.u_star == pytest.approx(u_star, abs=1e-9)

    @pytest.mark.parametrize("la,lb", [
        (0.0, -1.0), (0.0, 1.0), (1.0, 0.0), (-2.0, 1.5), (0.3, -4.0),
        (1.0 + 1.0j, 2.0 - 0.5j), (2.0j, -1.0), (0.0, -0.999),
    ])
    def test_agrees_with_brute_force_grid(self, la, lb):
        us = np.linspace(0.0, 1.0, 100_001)
        brute = np.min(np.abs(np.array([_eigen_expr(la, lb, u) for u in us]) + 1.0))
        check = check_eigenvalue_condition(la, lb)
        if brute < 1e-7:
            assert not check.passed
        if brute > 1e-3:
            assert check.passed


class TestSimultaneousTriangularize:
    def test_already_triangular_returns_identity(self):
        a = np.array([[1.0, 2.0], [0.0, 3.0]])
        b = np.array([[4.0, 5.0], [0.0, 6.0]])
        t, abar, bbar = simultaneous_triangularize(a, b)
        np.testing.assert_allclose(t, np.eye(2))
        np.testing.assert_allclose(abar, a)
        np.testing.assert_allclose(bbar, b)

    def test_nilpotent_commutator_pair_succeeds(self):
        # AB - BA = [[0,-1],[0,0]] is nilpotent; common eigenvector e1
        a = np.diag([1.0, 2.0])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        t, abar, bbar = simultaneous_triangularize(a, b)
        np.testing.assert_allclose(np.linalg.solve(t, a @ t), abar, atol=1e-9)
        np.testing.assert_allclose(np.linalg.solve(t, b @ t), bbar, atol=1e-9)
        assert np.max(np.abs(np.tril(abar, -1))) <= 1e-9
        assert np.max(np.abs(np.tril(bbar, -1))) <= 1e-9

    def test_non_nilpotent_commutator_rejected(self):
        # AB - BA = diag(1, -1) is not nilpotent
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NotTriangularizableError):
            simultaneous_triangularize(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_commuting_pair_triangularizes(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        b = a @ a - 3.0 * a + np.eye(4)  # polynomial in A commutes with A
        t, abar, bbar = simultaneous_triangularize(a, b)
        np.testing.assert_allclose(np.linalg.solve(t, a @ t), abar, atol=1e-9)
        np.testing.assert_allclose(np.linalg.solve(t, b @ t), bbar, atol=1e-9)
        assert np.max(np.abs(np.tril(np.linalg.solve(t, a @ t), -1))) <= 1e-9

    def test_user_t_validated_and_used(self):
        t_user = np.array([[1.0, 1.0], [0.0, 1.0]])
        abar = np.array([[1.0, 0.5], [0.0, 2.0]])
        bbar = np.array([[3.0, 0.0], [0.0, 4.0]])
        a = t_user @ abar @ np.linalg.inv(t_user)
        b = t_user @ bbar @ np.linalg.inv(t_user)
        t, got_a, got_b = simultaneous_triangularize(a, b, user_t=t_user)
        np.testing.assert_allclose(t, t_user)
        np.testing.assert_allclose(got_a, abar, atol=1e-12)
        np.testing.assert_allclose(got_b, bbar, atol=1e-12)

    def test_invalid_user_t_rejected(self):
        a = np.array([[1.0, 0.0], [2.0, 3.0]])  # lower triangular
        b = np.eye(2)
        with pytest.raises(UserTInvalidError):
            simultaneous_triangularize(a, b, user_t=np.eye(2))

    def test_small_user_t_accepted(self):
        # det T = 1e-16 but T = 1e-4 I is perfectly conditioned: singularity
        # is judged by the conditioning of T, sigma_min <= p eps sigma_max
        a = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
        b = np.triu(np.ones((4, 4)))
        t, got_a, got_b = simultaneous_triangularize(a, b, user_t=1e-4 * np.eye(4))
        np.testing.assert_array_equal(t, 1e-4 * np.eye(4))
        np.testing.assert_allclose(got_a, a, rtol=1e-14)
        np.testing.assert_allclose(got_b, b, rtol=1e-14)

    def test_well_conditioned_user_t_accepted(self):
        # cond T = 100 and det T = 1, while |det T| is far below ||T||^16 eps
        t = np.diag([10.0] * 8 + [0.1] * 8)
        a = np.triu(np.arange(1.0, 257.0).reshape(16, 16))
        got_t, got_a, _ = simultaneous_triangularize(a, np.eye(16), user_t=t)
        np.testing.assert_array_equal(got_t, t)
        np.testing.assert_allclose(got_a, np.linalg.solve(t, a @ t), rtol=1e-14)

    def test_singular_user_t_rejected(self):
        a, b = np.diag([1.0, 2.0]), np.eye(2)
        with pytest.raises(UserTInvalidError, match="singular"):
            simultaneous_triangularize(a, b, user_t=np.ones((2, 2)))


class TestEigenConditionSeriesBranch:
    def test_violation_located_through_the_phi1_series(self):
        # |u lambda_A| < 1e-5 on all of [0, 1], so every value of
        # 1 + lambda_B u phi1(-u lambda_A) comes from the series branch;
        # expm1 keeps lambda_B accurate where 1 - e^{-u lambda_A} cancels
        la, u_star = 1e-7, 0.7
        lb = la / np.expm1(-u_star * la)
        check = check_eigenvalue_condition(la, lb)
        assert not check.passed
        assert check.u_star == pytest.approx(u_star, abs=1e-10)

    def test_phi1_on_arrays_matches_mpmath(self):
        # both branches in one array: |z| < 1e-5 takes the series; beyond
        # it (e^z - 1)/z loses about eps/|z| to cancellation
        zs = np.array([0.0, 3e-6 - 2e-6j, -9e-6, 2e-5, 0.7 - 1.3j, -20.0, 5.0j])
        got = _phi1(zs)
        for z, value in zip(zs, got):
            zm = mp.mpc(z.real, z.imag)
            ref = complex(mp.expm1(zm) / zm) if z != 0 else 1.0
            loss = 1.0 if abs(z) < 1e-5 else max(1.0, 1.0 / abs(z))
            assert abs(value - ref) <= 4e-16 * loss * abs(ref)
            assert _phi1(complex(z)) == value

    def test_phi1_matches_mpmath_on_a_log_spread(self):
        # |z| from 1e-12 to 30 in every direction, through 1e-5 < |z| < 1e-3
        # where a series cut-over or (e^z - 1)/z loses accuracy
        radii = np.logspace(-12, np.log10(30.0), 2011)
        zs = radii * np.exp(1j * np.linspace(0.0, 2 * np.pi, 2011, endpoint=False))
        zs = np.concatenate([zs, radii, -radii])
        with mp.workdps(40):
            for z, value in zip(zs, _phi1(zs)):
                zm = mp.mpc(z.real, z.imag)
                ref = mp.expm1(zm) / zm
                assert abs(mp.mpc(value.real, value.imag) - ref) <= 1e-15 * abs(ref)
