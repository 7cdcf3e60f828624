"""Tests for the triangular cascade solver."""

import numpy as np
import pytest

from depca import signals as sig
from depca.depca_engine import (
    DepcaSystem,
    check_propagator_invertibility,
    solve_bounded_depca,
)
from depca.errors import EigenConditionFailError, NoDichotomyError, ZInvertibilityError
from depca.matrix_core import simultaneous_triangularize
from depca.reduction import (
    build_cascade,
    scalar_companion,
    solve_by_reduction,
    solve_scalar_depca,
)

A_TRI = np.array([[-1.0, 1.0], [0.0, -2.0]])
B_TRI = np.array([[-0.5, 0.0], [0.0, -0.25]])
B_COUPLED = np.array([[-0.5, 0.3], [0.0, -0.25]])


def forcing_2d():
    return sig.Sum.of(
        sig.TrigPolynomial.cosine([1.0, 0.0], 2 * np.pi),
        sig.TrigPolynomial.constant([0.0, 1.0]),
    )


def assert_same_solution(red, direct, ts):
    """Both solvers take one path, so their integer samples agree exactly;
    segments agree to round-off, as the propagator caches keep the value of
    whichever u first reached a rounded key."""
    assert red.integer_samples.keys() == direct.integer_samples.keys()
    for n, x in direct.integer_samples.items():
        np.testing.assert_allclose(red.integer_samples[n], x, rtol=0, atol=0)
    np.testing.assert_allclose(red.evaluate_grid(ts), direct.evaluate_grid(ts),
                               rtol=0, atol=1e-14)


class TestScalarCompanion:
    def test_zero_alpha_limit(self):
        assert scalar_companion(0.0, -0.5) == pytest.approx(0.5)

    def test_pure_alpha(self):
        assert scalar_companion(np.log(2.0), 0.0) == pytest.approx(2.0)

    def test_general(self):
        alpha, beta = -1.0, -0.5
        expected = np.exp(alpha) + beta * (np.exp(alpha) - 1.0) / alpha
        assert scalar_companion(alpha, beta) == pytest.approx(expected)


class TestBuildCascade:
    def test_diagonal_pair_decouples(self):
        system = DepcaSystem.build(np.diag([-1.0, -2.0]), np.diag([-0.5, -0.25]),
                                   forcing_2d())
        cascade = build_cascade(system)
        np.testing.assert_allclose(cascade.transform, np.eye(2))
        assert cascade.diagonal_pairs == ((-1 + 0j, -0.5 + 0j), (-2 + 0j, -0.25 + 0j))

    def test_triangular_pair_read_off(self):
        t, a_upper, b_upper = simultaneous_triangularize(A_TRI, B_TRI)
        np.testing.assert_allclose(t, np.eye(2))
        np.testing.assert_allclose(a_upper, A_TRI)
        np.testing.assert_allclose(b_upper, B_TRI)
        cascade = build_cascade(DepcaSystem.build(A_TRI, B_TRI, forcing_2d()))
        np.testing.assert_allclose(cascade.transform, np.eye(2))
        assert cascade.diagonal_pairs == ((-1 + 0j, -0.5 + 0j), (-2 + 0j, -0.25 + 0j))

    def test_a_zero_before_an_overflowing_factor_is_refused(self):
        # 1 - (e^{800 u} - 1)/800 vanishes at u* = ln(801)/800; past u = 0.887
        # phi1 overflows, and the NaN there neither hides u* nor passes
        system = DepcaSystem.build(np.array([[-800.0]]), np.array([[-1.0]]),
                                   sig.TrigPolynomial.cosine([1.0], 1.0))
        u_star = np.log(801.0) / 800.0
        with pytest.raises(EigenConditionFailError) as err:
            solve_by_reduction(system, None, -2, 2)
        assert abs(err.value.u_star - u_star) <= 1e-12
        assert not err.value.overflow and "hits -1" in str(err.value)
        screen = check_propagator_invertibility(system)
        assert not screen.passed
        [(i, u)] = screen.analytic_failures
        assert i == 0 and abs(u - u_star) <= 1e-12 and screen.overflows == ()
        # the grid minimum is taken among the finite factors
        assert screen.min_det == pytest.approx(0.933, abs=1e-3) and screen.argmin_u == 0.005
        with pytest.raises(ZInvertibilityError):
            solve_bounded_depca(system, -2, 2, 1e-9)

    def test_an_overflowing_factor_is_refused_as_not_finite(self):
        # 1 + u phi1(800 u) / 2 > 1 never vanishes, but is not finite past
        # u = 0.887, where it can no longer be checked
        system = DepcaSystem.build(np.array([[-800.0]]), np.array([[0.5]]),
                                   sig.TrigPolynomial.cosine([1.0], 1.0))
        with pytest.raises(EigenConditionFailError) as err:
            solve_by_reduction(system, None, -2, 2)
        assert err.value.overflow and err.value.u_star == 0.8876953125
        assert "not finite from u = 0.8876953125" in str(err.value)
        assert "hits -1" not in str(err.value)
        screen = check_propagator_invertibility(system)
        assert not screen.passed and screen.overflows == (0,)
        assert screen.analytic_failures == ((0, 0.8876953125),)
        assert screen.min_det == 1.0
        assert "factor not finite from u = 0.8876953125" in str(screen)

    def test_eigen_condition_failure_surfaces(self):
        system = DepcaSystem.build(np.array([[0.0]]), np.array([[-1.0]]),
                                   sig.TrigPolynomial.constant([1.0]))
        with pytest.raises(EigenConditionFailError) as err:
            build_cascade(system)
        assert err.value.index == 0
        assert err.value.u_star == pytest.approx(1.0, abs=1e-10)


class TestSolveScalar:
    def test_fixed_point_with_zero_alpha(self):
        # c = 0.5, h = 1: discrete fixed point 2 = 0.5 * 2 + 1, and the
        # segment formula keeps x(t) = 2 between integers as well
        z = sig.TrigPolynomial.constant([1.0])
        traj = solve_scalar_depca(0.0, -0.5, z, -8, 8, 1e-10)
        for n in range(-8, 9):
            np.testing.assert_allclose(traj.integer_samples[n], [2.0], atol=1e-9)
        for t in (-3.3, 0.25, 4.75):
            np.testing.assert_allclose(traj.evaluate(t), [2.0], atol=1e-9)

    def test_zero_forcing(self):
        z = sig.TrigPolynomial.constant([0.0])
        traj = solve_scalar_depca(0.0, -0.5, z, -5, 5, 1e-10)
        assert traj.sup_samples() <= 1e-12

    def test_unstable_anticausal_value(self):
        # c = 2, h = int_0^1 e^{ln2 (1-s)} ds = 1/ln 2; x = -h/(c-1) = -1/ln 2
        z = sig.TrigPolynomial.constant([1.0])
        traj = solve_scalar_depca(np.log(2.0), 0.0, z, -5, 5, 1e-10)
        expected = -1.0 / np.log(2.0)
        for n in range(-5, 6):
            np.testing.assert_allclose(traj.integer_samples[n], [expected],
                                       atol=1e-9)

    def test_unit_circle_refused(self):
        z = sig.TrigPolynomial.constant([1.0])
        with pytest.raises(NoDichotomyError):
            solve_scalar_depca(0.0, 0.0, z, -3, 3, 1e-9)


class TestSolveByReduction:
    def test_zero_forcing_diagonal(self):
        system = DepcaSystem.build(np.diag([-1.0, -2.0]), np.diag([-0.5, -0.25]),
                                   sig.TrigPolynomial.constant([0.0, 0.0]))
        traj = solve_by_reduction(system, None, -4, 4, 1e-9)
        assert traj.sup_samples() <= 1e-10

    def test_matches_direct_solver(self):
        tol = 1e-9
        system = DepcaSystem.build(A_TRI, B_TRI, forcing_2d())
        direct = solve_bounded_depca(system, -6, 6, tol)
        red = solve_by_reduction(system, None, -6, 6, tol)
        assert_same_solution(red, direct, np.linspace(-5.9, 5.9, 119))

    def test_scalar_reduction_equals_direct_exactly(self):
        tol = 1e-9
        system = DepcaSystem.build(np.array([[0.0]]), np.array([[-0.5]]),
                                   sig.TrigPolynomial.cosine([1.0], 2 * np.pi))
        direct = solve_bounded_depca(system, -4, 4, tol)
        red = solve_by_reduction(system, None, -4, 4, tol)
        for n in range(-4, 5):
            np.testing.assert_allclose(red.integer_samples[n],
                                       direct.integer_samples[n], atol=1e-14)

    def test_basis_rescaling_invariance(self):
        tol = 1e-9
        system = DepcaSystem.build(A_TRI, B_TRI, forcing_2d())
        base = solve_by_reduction(system, None, -5, 5, tol)
        scaled = solve_by_reduction(system, np.diag([2.0, 0.5]), -5, 5, tol)
        for n in range(-5, 6):
            np.testing.assert_allclose(scaled.integer_samples[n],
                                       base.integer_samples[n], atol=0)
        # the levels are read in the basis T
        for lv_base, lv_scaled, scale in zip(base.cascade.levels,
                                             scaled.cascade.levels, (2.0, 0.5)):
            assert lv_scaled.sup_samples == pytest.approx(
                lv_base.sup_samples / scale, rel=1e-14)

    def test_cascade_trace_contents(self):
        system = DepcaSystem.build(A_TRI, B_TRI, forcing_2d())
        traj = solve_by_reduction(system, None, -5, 5, 1e-9)
        trace = traj.cascade
        assert len(trace.levels) == 2
        c0 = scalar_companion(-1.0, -0.5)
        c1 = scalar_companion(-2.0, -0.25)
        assert trace.levels[0].companion == pytest.approx(c0)
        assert trace.levels[1].companion == pytest.approx(c1)

    def test_one_green_sum_per_solve(self, monkeypatch):
        from depca import depca_engine

        calls = []
        solve_bounded = depca_engine.solve_bounded

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_bounded(*args, **kwargs)

        monkeypatch.setattr(depca_engine, "solve_bounded", counting)
        system = DepcaSystem.build(A_TRI, B_TRI, forcing_2d())
        traj = solve_by_reduction(system, None, -5, 5, 1e-9)
        assert len(calls) == 1
        # the certificate of C reaches the result; C has the spectrum of its
        # triangular form, whose diagonal is the level companions
        cert = traj.diagnostics.certificate
        np.testing.assert_allclose(
            np.sort_complex(np.linalg.eigvals(cert.constant_coefficient)),
            np.sort_complex([lv.companion for lv in traj.cascade.levels]),
            rtol=1e-12)

    def test_solves_the_callers_system(self, monkeypatch):
        system = DepcaSystem.build(A_TRI, B_TRI, forcing_2d())

        def refuse(*args, **kwargs):
            raise AssertionError("solve_by_reduction built a second system")

        monkeypatch.setattr(DepcaSystem, "build", staticmethod(refuse))
        traj = solve_by_reduction(system, None, -3, 3, 1e-9)
        assert traj.diagnostics.residual_max <= traj.diagnostics.residual_tol

    def test_levels_pass_residual_checks(self):
        system = DepcaSystem.build(A_TRI, B_TRI, forcing_2d())
        traj = solve_by_reduction(system, None, -5, 5, 1e-9)
        d = traj.diagnostics
        assert d.residual_max <= d.residual_tol
        assert d.continuity_max <= d.continuity_tol


class TestAggregatedInhomogeneity:
    def test_jump_only_at_integers(self):
        # B-coupling plus non-integer-periodic forcing: the trajectory stays
        # continuous but its derivative jumps at integers by B (x(n) - x(n-1))
        b_coupled = np.array([[-0.5, 0.3], [0.0, -0.25]])
        f = sig.Sum.of(sig.TrigPolynomial.cosine([1.0, 0.0], 1.0),
                       sig.TrigPolynomial.constant([0.0, 1.0]))
        system = DepcaSystem.build(A_TRI, b_coupled, f)
        traj = solve_by_reduction(system, None, -4, 4, 1e-9)
        assert traj.diagnostics.residual_max <= traj.diagnostics.residual_tol
        eps = 1e-9
        for n in (-1, 0, 2):
            jump = np.max(np.abs(traj.evaluate(n + eps) - traj.evaluate(n - eps)))
            interior = np.max(np.abs(traj.evaluate(n + 0.5 + eps)
                                     - traj.evaluate(n + 0.5 - eps)))
            assert jump <= 1e-6
            assert interior <= 1e-6

        def slope(t):
            return (traj.evaluate(t + 1e-6) - traj.evaluate(t - 1e-6)) / 2e-6

        expected_jump = system.b @ (traj.integer_samples[1]
                                    - traj.integer_samples[0])
        got_jump = slope(1.0 + 1e-5) - slope(1.0 - 1e-5)
        assert np.max(np.abs(expected_jump)) > 1e-3
        np.testing.assert_allclose(got_jump, expected_jump, atol=1e-3)


# A = S U S^-1, B = S V S^-1 with U, V upper triangular: triangularizable,
# with a commutator that is a single nilpotent Jordan block, whose computed
# eigenvalues are of order eps^(1/3) rather than zero
S_CONJ = np.array([[1.0, 0.3, 0.0], [0.2, 1.0, 0.4], [0.0, -0.3, 1.0]])
U_P3 = np.array([[-1.0, 0.4, 0.2], [0.0, 0.6, 0.3], [0.0, 0.0, -1.5]])
V_P3 = np.array([[-0.3, 0.2, 0.1], [0.0, 0.2, -0.1], [0.0, 0.0, 0.4]])


def conjugated_pair():
    s_inv = np.linalg.inv(S_CONJ)
    return S_CONJ @ U_P3 @ s_inv, S_CONJ @ V_P3 @ s_inv


class TestConjugatedThreeLevels:
    def test_matches_direct_solver(self):
        tol = 1e-9
        a, b = conjugated_pair()
        f = sig.Sum.of(
            sig.TrigPolynomial.cosine([1.0, -0.5, 0.25], 2 * np.pi),
            sig.StepOfSequence.from_periodic_values([[0.3, 0.1, -0.2],
                                                     [-0.4, 0.2, 0.5]]),
        )
        red = solve_by_reduction(DepcaSystem.build(a, b, f), None, -4, 4, tol)
        direct = solve_bounded_depca(DepcaSystem.build(a, b, f), -4, 4, tol)
        assert_same_solution(red, direct, np.linspace(-3.95, 3.95, 80))

        levels = red.cascade.levels
        # companions 0.178 (stable), 2.096 (unstable), 0.430 (stable)
        moduli = sorted(abs(lv.companion) for lv in levels)
        assert moduli[0] < 1.0 < moduli[-1]


def squared_step(dimension: int) -> sig.Signal:
    values = [[0.5, -1.0, 0.25], [-0.3, 0.8, 1.2], [1.1, 0.2, -0.6]]
    return sig.compose("square", sig.StepOfSequence.from_periodic_values(
        [v[:dimension] for v in values]))


class TestQuadratureFreeCascade:
    def test_closed_form_forcing_needs_no_quadrature(self, monkeypatch):
        from depca import depca_engine

        calls = []
        adaptive_gl = depca_engine.adaptive_gl

        def counting(*args, **kwargs):
            calls.append(args)
            return adaptive_gl(*args, **kwargs)

        # trig, constant and composite-of-step forcing have closed-form h(n)
        # and segments, whatever basis triangularizes the pair
        ts = np.linspace(-4, 4, 41)
        for (a, b), f in [((A_TRI, B_COUPLED), forcing_2d()),
                          ((A_TRI, B_COUPLED), squared_step(2)),
                          (conjugated_pair(), squared_step(3))]:
            direct = solve_bounded_depca(DepcaSystem.build(a, b, f), -4, 4, 1e-9)
            monkeypatch.setattr(depca_engine, "adaptive_gl", counting)
            red = solve_by_reduction(DepcaSystem.build(a, b, f), None, -4, 4, 1e-9)
            red.evaluate_grid(ts)
            monkeypatch.undo()
            assert calls == []
            assert_same_solution(red, direct, ts)


class TestUndeclaredForcingBound:
    def test_matches_direct_solver(self):
        # a step forcing without a declared sup reports sup 0; the one Green
        # sum sizes its radius from the h(n) it samples
        tol = 1e-9
        f = sig.StepOfSequence.from_sequence(
            lambda n: [1e3 * np.cos(n), 1e3 * np.sin(1.3 * n)])
        system = DepcaSystem.build(A_TRI, B_COUPLED, f)
        red = solve_by_reduction(system, None, -4, 4, tol)
        direct = solve_bounded_depca(system, -4, 4, tol)
        assert_same_solution(red, direct, np.linspace(-3.95, 3.95, 80))


class TestUnitCircleLevel:
    def test_names_the_level(self):
        # c_00 = scalar_companion(-1, -0.5) = 0.05, c_11 = e^0 + 0 = 1
        system = DepcaSystem.build(np.array([[-1.0, 1.0], [0.0, 0.0]]),
                                   np.diag([-0.5, 0.0]),
                                   sig.TrigPolynomial.constant([1.0, 1.0]))
        with pytest.raises(NoDichotomyError, match="cascade level 1:"):
            solve_by_reduction(system, None, -3, 3, 1e-9)
