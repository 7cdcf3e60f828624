"""Tests for the hybrid solver: propagation, forcing integrals, reduction,
bounded trajectories, the hyperbolic B = 0 path and the rotational path."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from depca import depca_engine
from depca import diagnostics as diag
from depca import signals as sig
from depca.depca_engine import (
    DepcaSystem,
    check_propagator_invertibility,
    forcing_integral,
    imaginary_scalar_solve,
    interval_forcing,
    massera_solve,
    propagator,
    reduce_to_difference,
    solve_bounded_depca,
)
from depca.errors import (
    BoundaryEigenvalueError,
    NoDichotomyError,
    SingularCError,
)


def scalar_system(a, b, forcing):
    return DepcaSystem.build(np.array([[float(a)]]), np.array([[float(b)]]),
                             forcing)


COS_2PI = sig.TrigPolynomial.cosine([1.0], 2 * np.pi)
CONST_1 = sig.TrigPolynomial.constant([1.0])


class TestPropagator:
    def test_zero_a_linear_in_u(self):
        system = DepcaSystem.build(np.zeros((2, 2)), 0.3 * np.eye(2),
                                   sig.TrigPolynomial.constant([0.0, 0.0]))
        np.testing.assert_allclose(propagator(system, 0.7, 0.0),
                                   np.eye(2) * (1 + 0.7 * 0.3), atol=1e-12)

    def test_identity_at_equal_times(self):
        system = scalar_system(-1.7, 2.3, CONST_1)
        np.testing.assert_allclose(propagator(system, 4.0, 4.0), [[1.0]])

    def test_scalar_plugin_invertible(self):
        # e^{-1} + (1 - e^{-1}) = 1
        system = scalar_system(-1.0, 1.0, CONST_1)
        np.testing.assert_allclose(propagator(system, 1.0, 0.0), [[1.0]],
                                   atol=1e-12)

    def test_rejects_backward(self):
        system = scalar_system(0.0, 0.0, CONST_1)
        with pytest.raises(ValueError):
            propagator(system, 0.0, 1.0)


def simpson_oracle(system, n, u, samples=40001):
    """Independent dense-Simpson evaluation of the forcing integral."""
    from depca.matrix_core import expm
    ss = np.linspace(n, n + u, samples)
    h = (u) / (samples - 1)
    vals = np.stack([expm(system.a, n + u - s) @ system.forcing.evaluate(s)
                     for s in ss])
    w = np.ones(samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * (w[:, None] * vals).sum(axis=0)


class TestForcingIntegral:
    def test_zero_forcing(self):
        system = scalar_system(-1.0, 0.0, sig.TrigPolynomial.constant([0.0]))
        np.testing.assert_allclose(forcing_integral(system, 3.4, 1e-12), [0.0])

    def test_constant_with_zero_a(self):
        system = DepcaSystem.build(np.zeros((2, 2)), np.zeros((2, 2)),
                                   sig.TrigPolynomial.constant([2.0, -1.0]))
        np.testing.assert_allclose(forcing_integral(system, 5.25, 1e-12),
                                   [0.5, -0.25], atol=1e-12)

    def test_scalar_antiderivative_full_interval(self):
        system = scalar_system(-1.0, 0.0, CONST_1)
        h0 = interval_forcing(system, 0, 1.0, 1e-12)
        np.testing.assert_allclose(h0, [1.0 - np.exp(-1.0)], atol=1e-12)

    def test_trig_closed_form_matches_simpson(self):
        a = np.array([[-0.4, 1.0], [0.0, -1.2]])
        f = sig.TrigPolynomial.cosine([1.0, 0.5], 3.0)
        system = DepcaSystem.build(a, np.zeros((2, 2)), f)
        got = interval_forcing(system, 2, 0.8, 1e-12)
        np.testing.assert_allclose(got, simpson_oracle(system, 2, 0.8),
                                   atol=1e-9)

    def test_step_quadrature_matches_closed_form(self):
        f = sig.StepOfSequence.from_periodic_values([[1.0], [-1.0]])
        system = scalar_system(-1.0, 0.0, f)
        u = 0.6
        got = interval_forcing(system, 1, u, 1e-12)
        # f is -1 on [1, 2): integral is -(1 - e^{-u})
        np.testing.assert_allclose(got, [-(1.0 - np.exp(-u))], atol=1e-11)

    def test_resonant_term_falls_back_to_quadrature(self):
        # spec(A) = {i} and forcing frequency 1: H(t) = e^{it} (t - n)
        system = DepcaSystem.build(np.array([[1j]]), np.zeros((1, 1)),
                                   sig.TrigPolynomial.exponential([1.0], 1.0))
        t = 2.75
        got = forcing_integral(system, t, 1e-12)
        np.testing.assert_allclose(got, [np.exp(1j * t) * 0.75], atol=1e-10)


# Upper-triangular A, so e^{A tau} has the closed form used by mp_h below.
PANEL_A = np.array([[-3.0, 0.3], [0.0, 2.0]])
PANEL_B = np.diag([0.4, 0.3])
AA_AMPLITUDE = [1.0, -0.5]
RATIONAL_SAMPLES = [[1.0, 0.5], [-0.7, 0.2], [0.3, -1.0]]  # period 6/5, 3 pieces


def aa_value(s):
    return mp.sin(1 / (2 + mp.cos(s) + mp.cos(mp.sqrt(2) * s)))


def mp_h(n, pieces):
    """h(n) = integral_n^{n+1} e^{A(n+1-s)} f(s) ds at 30 digits.

    ``pieces`` lists (lo, hi, g) with f = g on (lo, hi); e^{A tau} for
    A = [[a, c], [0, d]] is [[e^{a tau}, c (e^{d tau} - e^{a tau})/(d - a)],
    [0, e^{d tau}]].
    """
    with mp.workdps(30):
        a, c, d = (mp.mpf(PANEL_A[0, 0]), mp.mpf(PANEL_A[0, 1]),
                   mp.mpf(PANEL_A[1, 1]))
        end = mp.mpf(n + 1)
        out = [mp.mpf(0), mp.mpf(0)]
        for lo, hi, g in pieces:
            def first(s):
                tau = end - s
                f1, f2 = g(s)
                return (mp.exp(a * tau) * f1
                        + c * (mp.exp(d * tau) - mp.exp(a * tau)) / (d - a) * f2)

            def second(s):
                return mp.exp(d * (end - s)) * g(s)[1]

            out[0] += mp.quad(first, [lo, hi])
            out[1] += mp.quad(second, [lo, hi])
        return np.array([float(v) for v in out])


def aa_pieces(n):
    def g(s):
        base = aa_value(s)
        return [mp.mpf(AA_AMPLITUDE[0]) * base, mp.mpf(AA_AMPLITUDE[1]) * base]
    return [(mp.mpf(n), mp.mpf(n + 1), g)]


def rational_pieces(n):
    """Split [n, n+1] at the jumps, the multiples of 2/5 = (6/5)/3."""
    width = Fraction(2, 5)
    cuts = sorted({Fraction(n), Fraction(n + 1),
                   *(k * width for k in range(-100, 100) if n < k * width < n + 1)})
    pieces = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        idx = int(((lo + hi) / 2 % Fraction(6, 5)) / width)
        value = [mp.mpf(v) for v in RATIONAL_SAMPLES[idx]]
        pieces.append((mp.mpf(lo.numerator) / lo.denominator,
                       mp.mpf(hi.numerator) / hi.denominator,
                       lambda s, value=value: value))
    return pieces


def panel_system(kind):
    if kind == "aa":
        forcing = sig.AATest.from_amplitude(AA_AMPLITUDE)
    else:
        forcing = sig.RationalPeriodic.from_samples(6, 5, RATIONAL_SAMPLES)
    return DepcaSystem.build(PANEL_A, PANEL_B, forcing)


class TestPanelQuadrature:
    @pytest.mark.parametrize("kind,pieces", [("aa", aa_pieces),
                                             ("rational", rational_pieces)])
    @pytest.mark.parametrize("n", [-3, 0, 7])
    def test_matches_mpmath(self, kind, pieces, n):
        got = interval_forcing(panel_system(kind), n, 1.0, 1e-11)
        np.testing.assert_allclose(got, mp_h(n, pieces(n)), rtol=0, atol=1e-10)

    # expm calls for one more h(7) after h(0), when every quadrature node
    # paid for its own exponential
    @pytest.mark.parametrize("kind,per_node_calls", [("aa", 30), ("rational", 90)])
    def test_exponentials_are_reused_across_intervals(self, kind, per_node_calls,
                                                      monkeypatch):
        system = panel_system(kind)
        interval_forcing(system, 0, 1.0, 1e-11)
        calls = []
        expm = depca_engine.expm

        def counting(*args, **kwargs):
            calls.append(args)
            return expm(*args, **kwargs)

        monkeypatch.setattr(depca_engine, "expm", counting)
        interval_forcing(system, 7, 1.0, 1e-11)
        assert 5 * len(calls) <= per_node_calls


class TestReduceToDifference:
    def test_companion_of_pure_b(self):
        dsys = reduce_to_difference(scalar_system(0.0, -0.5, COS_2PI), 1e-12)
        np.testing.assert_allclose(dsys.constant_coefficient, [[0.5]], atol=1e-13)

    def test_companion_of_pure_a(self):
        dsys = reduce_to_difference(scalar_system(np.log(2.0), 0.0, CONST_1), 1e-12)
        np.testing.assert_allclose(dsys.constant_coefficient, [[2.0]], atol=1e-12)

    def test_singular_companion_rejected(self):
        system = scalar_system(0.0, -1.0, CONST_1)
        with pytest.raises(SingularCError) as err:
            reduce_to_difference(system, 1e-12)
        assert abs(err.value.det) <= 1e-12
        assert abs(np.linalg.det(propagator(system, 1.0, 0.0))) <= 1e-12


class TestPropagatorInvertibility:
    def test_analytic_and_grid_failure(self):
        report = check_propagator_invertibility(scalar_system(0.0, -1.0, CONST_1))
        assert not report.passed
        assert report.analytic_performed
        (idx, u_star), = report.analytic_failures
        assert idx == 0 and u_star == pytest.approx(1.0, abs=1e-10)
        assert report.min_det <= 1e-10

    def test_positive_b_passes(self):
        assert check_propagator_invertibility(scalar_system(0.0, 1.0, CONST_1)).passed

    def test_pure_a_passes(self):
        assert check_propagator_invertibility(scalar_system(1.0, 0.0, CONST_1)).passed


class TestSolveBoundedDepca:
    def test_zero_forcing_zero_solution(self):
        system = scalar_system(0.0, -0.5, sig.TrigPolynomial.constant([0.0]))
        traj = solve_bounded_depca(system, -5, 5, 1e-9)
        assert traj.sup_samples() <= 1e-12
        np.testing.assert_allclose(traj.evaluate(1.4), [0.0], atol=1e-12)

    def test_periodic_forcing_periodic_solution(self):
        system = scalar_system(0.0, -0.5, COS_2PI)
        traj = solve_bounded_depca(system, -6, 6, 1e-9)
        verdict = diag.periodicity_check(traj, (1, 1), 1e-6)
        assert verdict.passed

    def test_closed_form_linear_ode(self):
        # with B = 0: x(t) = (cos t + sin t)/2, sup = sqrt(2)/2
        system = scalar_system(-1.0, 0.0, sig.TrigPolynomial.cosine([1.0], 1.0))
        traj = solve_bounded_depca(system, -10, 10, 1e-9)
        ts = np.linspace(-10, 10, 801)
        vals = traj.evaluate_grid(ts)[:, 0]
        expected = (np.cos(ts) + np.sin(ts)) / 2.0
        assert np.max(np.abs(vals - expected)) <= 1e-8
        # the sup sqrt(2)/2 sits at pi/4 + k pi: probe the peak directly
        peak = traj.evaluate(np.pi / 4)[0]
        assert abs(peak) == pytest.approx(np.sqrt(2) / 2, abs=1e-6)

    def test_diagnostics_within_bounds(self):
        system = scalar_system(0.0, -0.5, COS_2PI)
        traj = solve_bounded_depca(system, -6, 6, 1e-9)
        d = traj.diagnostics
        assert d.continuity_max <= d.continuity_tol
        assert d.residual_max <= d.residual_tol
        assert d.recursion_residual <= 3e-9

    def test_no_dichotomy_on_unit_circle(self):
        system = scalar_system(0.0, 0.0, CONST_1)  # companion C = 1
        with pytest.raises(NoDichotomyError):
            solve_bounded_depca(system, -3, 3, 1e-9)

    def test_outside_window_rejected(self):
        system = scalar_system(0.0, -0.5, COS_2PI)
        traj = solve_bounded_depca(system, -3, 3, 1e-9)
        with pytest.raises(ValueError):
            traj.evaluate(4.5)

    def test_integer_shift_covariance(self):
        tol = 1e-9
        f = sig.TrigPolynomial.cosine([1.0], 1.0)  # period 2 pi, not integer
        system = scalar_system(0.0, -0.5, f)
        shifted = scalar_system(0.0, -0.5, sig.shift(f, 3))
        traj = solve_bounded_depca(system, -5, 8, tol)
        traj_s = solve_bounded_depca(shifted, -5, 5, tol)
        ts = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(traj_s.evaluate_grid(ts),
                                   traj.evaluate_grid(ts + 3), atol=5 * tol)

    def test_lipschitz_bound_from_boundedness(self):
        system = scalar_system(0.0, -0.5, COS_2PI)
        traj = solve_bounded_depca(system, -6, 6, 1e-9)
        ts = np.linspace(-6, 6, 601)
        sup_x = float(np.max(np.abs(traj.evaluate_grid(ts))))
        m0 = 0.5 * sup_x + 1.0 + 1e-6  # sup|B x([t])| + sup|f|
        verdict = diag.lipschitz_probe(traj, m0, samples=10000)
        assert verdict.passed

    def test_lipschitz_zero_claim_fails(self):
        system = scalar_system(0.0, -0.5, COS_2PI)
        traj = solve_bounded_depca(system, -4, 4, 1e-9)
        assert not diag.lipschitz_probe(traj, 0.0, samples=200).passed

    def test_massera_consistency_at_integers(self):
        tol = 1e-9
        f = sig.TrigPolynomial.cosine([1.0], 1.0)
        system = scalar_system(-1.0, 0.0, f)
        traj = solve_bounded_depca(system, -8, 8, tol)
        sol = massera_solve(np.array([[-1.0]]), f, tol)
        for n in range(-8, 9):
            np.testing.assert_allclose(traj.integer_samples[n],
                                       sol.evaluate(float(n)), atol=10 * tol)


class TestWideSystems:
    """p > 8 puts a 2p x 2p matrix through the exponential-integral block."""

    @pytest.mark.parametrize("p", [9, 16])
    def test_diagonal_system_matches_scalar_solves(self, p):
        # |c| stays away from 1 on both halves, and b > 0 keeps Z(u) invertible
        a_diag = np.concatenate([np.linspace(-3.0, -1.0, p // 2),
                                 np.linspace(0.5, 1.5, p - p // 2)])
        b_diag = np.linspace(0.1, 0.4, p)
        coef = np.linspace(1.0, -1.0, p)
        omega = 1.3
        tol = 1e-10
        traj = solve_bounded_depca(
            DepcaSystem.build(np.diag(a_diag), np.diag(b_diag),
                              sig.TrigPolynomial.cosine(coef, omega)),
            -3, 3, tol)
        ts = np.linspace(-3, 3, 37)
        got = traj.evaluate_grid(ts)
        for i in range(p):
            scalar = solve_bounded_depca(
                scalar_system(a_diag[i], b_diag[i],
                              sig.TrigPolynomial.cosine([coef[i]], omega)),
                -3, 3, tol)
            np.testing.assert_allclose(got[:, i], scalar.evaluate_grid(ts)[:, 0],
                                       rtol=0, atol=1e-9)


class TestMassera:
    def test_zero_forcing(self):
        sol = massera_solve(np.array([[-2.0]]),
                            sig.TrigPolynomial.constant([0.0]), 1e-9)
        np.testing.assert_allclose(sol.evaluate(0.3), [0.0], atol=1e-12)

    def test_stable_closed_form(self):
        sol = massera_solve(np.array([[-1.0]]),
                            sig.TrigPolynomial.cosine([1.0], 1.0), 1e-8)
        ts = np.linspace(-20, 20, 81)
        vals = sol.evaluate_grid(ts)[:, 0]
        np.testing.assert_allclose(vals, (np.cos(ts) + np.sin(ts)) / 2, atol=1e-6)

    def test_unstable_anticausal(self):
        sol = massera_solve(np.array([[1.0]]), CONST_1, 1e-9)
        for t in (-20.0, -3.3, 0.0, 7.7, 20.0):
            np.testing.assert_allclose(sol.evaluate(t), [-1.0], atol=1e-8)

    def test_mixed_spectrum_2x2(self):
        # block diag(-1, +1) with constant forcing: x = (1, -1)
        a = np.diag([-1.0, 1.0])
        f = sig.TrigPolynomial.constant([1.0, 1.0])
        sol = massera_solve(a, f, 1e-9)
        np.testing.assert_allclose(sol.evaluate(2.2), [1.0, -1.0], atol=1e-8)

    def test_step_forcing_split_cells(self):
        # alternating step through a stable scalar: piecewise closed form
        f = sig.StepOfSequence.from_periodic_values([[1.0], [-1.0]])
        sol = massera_solve(np.array([[-1.0]]), f, 1e-9)
        # x(t) = int_{-inf}^t e^{-(t-s)} g([s]) ds; at t = 0 the alternating
        # tail sums to (1 - e^{-1})/(1 + e^{-1}) * (-1)^0... direct oracle:
        total = 0.0
        for k in range(0, 200):
            lo, hi = -k - 1.0, -k
            total += ((-1.0) ** (k + 1)) * (np.exp(hi) - np.exp(lo))
        np.testing.assert_allclose(sol.evaluate(0.0), [total], atol=1e-8)

    def test_rotation_rejected(self):
        with pytest.raises(BoundaryEigenvalueError):
            massera_solve(np.array([[0.0, 1.0], [-1.0, 0.0]]), CONST_1, 1e-9)

    def test_residual(self):
        sol = massera_solve(np.array([[-1.0]]),
                            sig.TrigPolynomial.cosine([1.0], 1.0), 1e-8)
        worst, allowed = sol.residual_check(np.linspace(-3, 3, 13))
        assert worst <= allowed


class TestImaginaryScalar:
    def test_pure_rotation(self):
        f0 = sig.TrigPolynomial.constant([0.0])
        ev, report = imaginary_scalar_solve(1.0, f0, 1.0 + 0j, 20.0)
        for t in np.linspace(-15, 15, 31):
            assert abs(ev(t)[0]) == pytest.approx(1.0, abs=1e-12)
        assert report.is_bounded

    def test_nonresonant_modulated_solution(self):
        f = sig.TrigPolynomial.exponential([1.0], 2.0)
        ev, report = imaginary_scalar_solve(1.0, f, -1j, 25.0)
        ts = np.linspace(-20, 20, 101)
        vals = np.array([ev(t)[0] for t in ts])
        np.testing.assert_allclose(vals, -1j * np.exp(2j * ts), atol=1e-9)
        assert report.is_bounded

    def test_resonance_flagged(self):
        f = sig.TrigPolynomial.exponential([1.0], 1.0)
        _, report = imaginary_scalar_solve(1.0, f, 0.0, 25.0)
        assert report.verdict == "unbounded-suspected"

    def test_vector_forcing_rejected(self):
        f = sig.TrigPolynomial.constant([1.0, 1.0])
        with pytest.raises(ValueError):
            imaginary_scalar_solve(1.0, f, 0.0, 5.0)
