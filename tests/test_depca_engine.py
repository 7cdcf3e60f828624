"""Tests for the hybrid solver: propagation, forcing integrals, reduction,
bounded trajectories, the hyperbolic B = 0 path and the rotational path."""

import dataclasses
import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depca import depca_engine
from depca import diagnostics as diag
from depca import matrix_core
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
from depca.difference_engine import solve_bounded
from depca.errors import (
    BoundaryEigenvalueError,
    ContinuityBreachError,
    DepcaError,
    NoDichotomyError,
    QuadratureError,
    ResidualCheckError,
    SingularCError,
    WindowTooSmallError,
)
from depca.tolerances import DEFAULT


def scalar_system(a, b, forcing):
    return DepcaSystem.build(np.array([[float(a)]]), np.array([[float(b)]]),
                             forcing)


def lipschitz_violation(traj, m0: float, samples: int) -> float:
    """max of |x(t) - x(s)| - m0 |t - s| - 1e-9 over seeded random pairs."""
    ts, ss = np.random.default_rng(1729).uniform(traj.n0, traj.n1, (2, samples))
    gaps = np.max(np.abs(traj.evaluate_grid(ts) - traj.evaluate_grid(ss)), axis=1)
    return float(np.max(gaps - m0 * np.abs(ts - ss) - 1e-9))


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

    @pytest.mark.parametrize("m", [PANEL_A, np.array([[-1.0 + 0j, 2.0], [0.0, -0.5]]),
                                   np.array([[0.3 + 1j]])], ids=["real", "complex", "rotation"])
    def test_node_stack_is_the_per_node_exponentials(self, m):
        # one stacked exponential, bit-equal to the exponentials node by node
        want = np.stack([w * matrix_core.expm(m, 0.37 * u)
                         for u, w in zip(depca_engine._GL_UNIT, depca_engine.GL_WEIGHTS)])
        assert np.array_equal(depca_engine.Kernel(m).stack(0.37), want)


class TestOneKernelIntegral:
    """h(n) and Massera's half-lines come from the same kernel integral."""

    @pytest.mark.parametrize("kind", ["aa", "rational"])
    def test_massera_samples_obey_the_companion_step(self, kind):
        # for B = 0 the companion step is x(n+1) = e^A x(n) + h(n)
        forcing = panel_system(kind).forcing
        sol = massera_solve(PANEL_A, forcing, 1e-9)
        system = DepcaSystem.build(PANEL_A, np.zeros((2, 2)), forcing)
        e_a = scipy.linalg.expm(PANEL_A)
        for n in (-3, 0, 7):
            h = interval_forcing(system, n, 1.0, 1e-11)
            assert sup_err(sol.evaluate(n + 1), e_a @ sol.evaluate(n) + h) <= 1e-9

    def test_stack_cache_stays_bounded_on_fresh_points(self, monkeypatch):
        monkeypatch.setattr(depca_engine, "_KERNEL_CACHE_SIZE", 64)
        system = panel_system("rational")
        traj = solve_bounded_depca(system, -2, 2, 1e-9)
        for t in np.random.default_rng(0).uniform(-2, 2, 200):
            traj.evaluate(t)
            assert len(system.kernel._cache) <= 64
        # e^{Au} from the propagator only: no stacks among the u-keyed entries
        assert all(isinstance(key, float) for key in system._exp_cache)


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

    def test_non_triangularizable_pair_screened_on_the_grid(self):
        # AB - BA is not nilpotent, so no pair is checked analytically; the
        # constant forcing gives the constant solution (I - C)^-1 h, with C
        # and h read off the exponential of [[A, I], [0, 0]]
        a = np.diag([-1.0, -2.0])
        b = np.array([[0.1, 0.2], [0.3, 0.1]])
        f = np.array([1.0, -0.5])
        system = DepcaSystem.build(a, b, sig.TrigPolynomial.constant(f))
        report = check_propagator_invertibility(system)
        assert report.passed and not report.analytic_performed
        # (|det Z(u)| e^{-u tr A})^(1/2) on the screen's grid
        w = np.zeros((4, 4))
        w[:2, :2], w[:2, 2:] = a, np.eye(2)
        scale_free = []
        for u in np.linspace(0.0, 1.0, 201):
            e = scipy.linalg.expm(w * u)
            z = e[:2, :2] + e[:2, 2:] @ b
            scale_free.append(np.sqrt(abs(np.linalg.det(z)) * np.exp(-u * np.trace(a))))
        assert report.min_det == pytest.approx(min(scale_free), rel=1e-12)
        assert "grid check only" in str(report)

        e = scipy.linalg.expm(w)
        c, h = e[:2, :2] + e[:2, 2:] @ b, e[:2, 2:] @ f
        x = np.linalg.solve(np.eye(2) - c, h)
        traj = solve_bounded_depca(system, -3, 3, 1e-10)
        assert traj.diagnostics.screen.analytic_performed is False
        ts = np.linspace(-3.0, 3.0, 49)
        assert np.max(np.abs(traj.evaluate_grid(ts) - x)) <= 1e-10

    @pytest.mark.parametrize("b", [0.0, 1.0])
    @pytest.mark.parametrize("scale", [50.0, -50.0])
    def test_wide_stiff_a_passes_without_overflow(self, scale, b):
        # |det Z(u)| = e^{16 * 50 u} over- or underflows for B = 0, where
        # the scale-free determinant is 1; for A = -50 I, B = I each factor
        # of |det Z(1)| e^{16 * 50} is about e^46, and their product
        # passes 1e308
        p = 16
        system = DepcaSystem.build(scale * np.eye(p), b * np.eye(p),
                                   sig.TrigPolynomial.cosine(np.ones(p), 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_propagator_invertibility(system)
            reduce_to_difference(system, 1e-12)
        assert report.passed
        assert report.min_det == pytest.approx(1.0, abs=1e-10)

    def test_grid_is_the_geometric_mean_of_the_pair_factors(self):
        # an upper-triangular pair: the grid's (|det Z(u)| e^{-u tr A})^(1/3)
        # is (prod_i |1 + b_ii u phi1(-a_ii u)|)^(1/3), here to 30 digits
        a = np.array([[-1.0, 0.5, 0.2], [0.0, 0.8, -0.3], [0.0, 0.0, 2.0]])
        b = np.array([[-0.4, 0.1, 0.4], [0.0, -0.9, 0.2], [0.0, 0.0, 0.5]])
        system = DepcaSystem.build(a, b, sig.TrigPolynomial.constant(np.ones(3)))
        report = check_propagator_invertibility(system)
        assert report.analytic_performed and report.passed

        def factor(ai, bi, u):
            return abs(1 + bi * (1 - mp.exp(-ai * u)) / ai)

        with mp.workdps(30):
            grid = [mp.mpf(k) / 200 for k in range(201)]
            exact = min(mp.cbrt(mp.fprod(factor(mp.mpf(a[i, i]), mp.mpf(b[i, i]), u)
                                         for i in range(3))) for u in grid)
        assert exact < 0.6  # the minimum is interior, not g(0) = 1
        assert report.min_det == pytest.approx(float(exact), rel=1e-12)

    def test_floor_does_not_compound_with_p(self):
        # A = 2I, B = -1.86I at p = 16: each pair factor is at least 0.196
        # and Z(u) = (0.07 e^{2u} + 0.93) I is invertible, though the product
        # of the factors at u = 1, 0.196^16, is below det_threshold; the
        # bounded solution of x' = Ax + Bx([t]) + f is the constant -f / 0.14
        p = 16
        f = np.linspace(1.0, 2.0, p)
        system = DepcaSystem.build(2.0 * np.eye(p), -1.86 * np.eye(p),
                                   sig.TrigPolynomial.constant(f))
        report = check_propagator_invertibility(system)
        assert report.passed
        assert report.min_det == pytest.approx(0.07 + 0.93 * np.exp(-2.0), rel=1e-12)
        reduce_to_difference(system, 1e-12)
        traj = solve_bounded_depca(system, -2, 2, 1e-10)
        ts = np.linspace(-2.0, 2.0, 41)
        assert np.max(np.abs(traj.evaluate_grid(ts) + f / 0.14)) <= 1e-9

    def test_triangular_pair_is_screened_without_an_exponential(self, monkeypatch):
        # the grid of a triangular pair is read off its pair factors
        calls = []

        def counted(fn):
            def counting(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counting

        monkeypatch.setattr(depca_engine, "expm", counted(depca_engine.expm))
        monkeypatch.setattr(depca_engine, "expm_integral", counted(depca_engine.expm_integral))
        rng = np.random.default_rng(8)
        a = np.triu(rng.uniform(-3.0, 3.0, (8, 8)))
        b = np.triu(rng.uniform(-0.3, 0.3, (8, 8)))
        report = check_propagator_invertibility(
            DepcaSystem.build(a, b, sig.TrigPolynomial.constant(np.ones(8))))
        assert report.analytic_performed and report.passed
        assert calls == []

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_pair_factor_grid_matches_the_propagator_grid(self, seed, p):
        # the exponential-free grid of a triangular pair against the
        # determinant grid of the stacked Z(u).  b_ii >= -0.9 / phi1(-a_ii)
        # keeps each factor 1 + b_ii u phi1(-a_ii u) above 0.1 on [0, 1]: a
        # factor near 0 cancels, and both grids then lose digits to it
        rng = np.random.default_rng(seed)
        a = np.triu(rng.uniform(-3.0, 3.0, (p, p)))
        b = np.triu(rng.uniform(-3.0, 3.0, (p, p)))
        np.fill_diagonal(b, np.maximum(np.diag(b), 0.9 * np.diag(a) / np.expm1(-np.diag(a))))
        system = DepcaSystem.build(a, b, sig.TrigPolynomial.constant(np.ones(p)))
        report = check_propagator_invertibility(system)
        assert report.analytic_performed
        us = np.linspace(0.0, 1.0, depca_engine.SCREEN_POINTS)
        log_g = depca_engine.log_det_factor(system, us)
        i = int(np.argmin(log_g))
        assert report.min_det == pytest.approx(math.exp(log_g[i]), rel=1e-12)
        assert report.argmin_u == us[i]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_orthogonal_similarity_keeps_the_minimum(self, seed, p):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p, p))
        b = 0.3 * rng.standard_normal((p, p))
        q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        forcing = sig.TrigPolynomial.constant(np.ones(p))
        report = check_propagator_invertibility(DepcaSystem.build(a, b, forcing))
        assume(report.min_det > 1e-3)
        moved = check_propagator_invertibility(
            DepcaSystem.build(q.T @ a @ q, q.T @ b @ q, forcing))
        assert moved.min_det == pytest.approx(report.min_det, rel=1e-10)


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

    def test_empty_grid_has_shape_zero_by_p(self):
        system = DepcaSystem.build(-np.eye(2), 0.2 * np.eye(2),
                                   sig.TrigPolynomial.cosine([1.0, 0.5], 1.0))
        assert solve_bounded_depca(system, -2, 2, 1e-9).evaluate_grid([]).shape == (0, 2)
        sol = massera_solve(-np.eye(2), sig.TrigPolynomial.cosine([1.0, 0.5], 1.0), 1e-8)
        assert sol.evaluate_grid([]).shape == (0, 2)

    def test_diagnostics_within_bounds(self):
        system = scalar_system(0.0, -0.5, COS_2PI)
        traj = solve_bounded_depca(system, -6, 6, 1e-9)
        d = traj.diagnostics
        assert d.continuity_max <= d.continuity_tol
        assert d.residual_max <= d.residual_tol
        assert d.continuity_max <= 3e-9

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
        shifted = scalar_system(0.0, -0.5, f.shift(3))
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
        assert lipschitz_violation(traj, m0, samples=10000) <= 0.0

    def test_lipschitz_zero_claim_fails(self):
        system = scalar_system(0.0, -0.5, COS_2PI)
        traj = solve_bounded_depca(system, -4, 4, 1e-9)
        assert lipschitz_violation(traj, 0.0, samples=200) > 0.0

    def test_massera_consistency_at_integers(self):
        tol = 1e-9
        f = sig.TrigPolynomial.cosine([1.0], 1.0)
        system = scalar_system(-1.0, 0.0, f)
        traj = solve_bounded_depca(system, -8, 8, tol)
        sol = massera_solve(np.array([[-1.0]]), f, tol)
        for n in range(-8, 9):
            np.testing.assert_allclose(traj.integer_samples[n],
                                       sol.evaluate(float(n)), atol=10 * tol)


class TestForcingJumpOnResidualProbe:
    """Period-3/2 forcing in 3 pieces jumps at every n + 1/2, which is one of
    the residual check's probe points."""

    SAMPLES = ["0.7", "-0.4", "0.2"]

    def mp_h(self, n, a):
        # f = SAMPLES[k mod 3] on [k/2, (k+1)/2): h(n) splits at n + 1/2,
        # integral_lo^hi e^{a(n+1-s)} ds = (e^{a(n+1-lo)} - e^{a(n+1-hi)})/a
        total = mp.mpf(0)
        for k in (2 * n, 2 * n + 1):
            lo, hi = mp.mpf(k) / 2, mp.mpf(k + 1) / 2
            total += mp.mpf(self.SAMPLES[k % 3]) * (
                mp.exp(a * (n + 1 - lo)) - mp.exp(a * (n + 1 - hi))) / a
        return total

    def test_matches_periodic_sum(self):
        f = sig.RationalPeriodic.from_samples(3, 2, [[float(v)] for v in self.SAMPLES])
        traj = solve_bounded_depca(scalar_system(-2.0, 0.3, f), -3, 3, 1e-9)
        assert traj.diagnostics.residual_max <= traj.diagnostics.residual_tol
        with mp.workdps(30):
            a, b = mp.mpf(-2), mp.mpf("0.3")
            c = mp.exp(a) + b * (mp.exp(a) - 1) / a  # |c| < 1: causal branch
            for n in range(-3, 4):
                # h(n) is 3-periodic, so sum_{r>=0} c^r h(n-1-r) folds into
                # (1 - c^3)^-1 sum_{r<3} c^r h(n-1-r)
                ref = sum(c ** r * self.mp_h(n - 1 - r, a)
                          for r in range(3)) / (1 - c ** 3)
                np.testing.assert_allclose(traj.integer_samples[n],
                                           [float(ref)], rtol=0, atol=1e-9)


def trig_p3_system():
    """Upper-triangular A, diagonal B and cos + sin forcing."""
    a = np.array([[-1.0, 0.4, 0.1], [0.0, -0.6, 0.3], [0.0, 0.0, 0.7]])
    f = sig.Sum.of(sig.TrigPolynomial.cosine([1.0, 0.5, -0.3], 1.3),
                   sig.TrigPolynomial.sine([0.2, -0.4, 0.6], np.sqrt(2.0)))
    return DepcaSystem.build(a, np.diag([0.3, -0.2, 0.25]), f)


class TestOneEvaluationPath:
    """``evaluate_grid`` groups points by their fractional part u; the
    segment value is Z(u) x(n) + H_n(u) whatever the grouping."""

    def test_integers_return_the_samples_bit_for_bit(self):
        # Z(0) = I exactly and H_n(0) = 0
        traj = solve_bounded_depca(trig_p3_system(), -3, 3, 1e-9)
        assert np.array_equal(propagator(traj.system, 0.0, 0.0), np.eye(3))
        assert np.array_equal(traj.evaluate_grid(np.arange(-3.0, 4.0)), traj.samples)

    @staticmethod
    def per_point(traj, t):
        t = min(max(t, traj.n0), traj.n1)
        n = math.floor(t)
        u = t - n
        return (propagator(traj.system, u, 0.0) @ traj.integer_samples[n]
                + interval_forcing(traj.system, n, u, traj.quad_tol))

    def test_evaluate_is_the_grid_on_one_point(self):
        traj = solve_bounded_depca(trig_p3_system(), -3, 3, 1e-9)
        for t in (-3.0, -2.999999999, -1.25, 0.0, 0.3, 2.75, 3.0):
            assert np.array_equal(traj.evaluate(t), traj.evaluate_grid([t])[0])

    @pytest.mark.parametrize("forcing", [
        sig.TrigPolynomial.cosine([1.0, 0.5], 1.3),
        sig.StepOfSequence.from_periodic_values([[1.0, 0.5], [-0.7, 0.2]]),
        sig.compose("sin", sig.TrigPolynomial.cosine([1.0, -0.5], 0.9)),
    ], ids=["trig", "step", "quadrature"])
    def test_shuffled_grid_matches_per_point_propagation(self, forcing):
        system = DepcaSystem.build(PANEL_A, PANEL_B, forcing)
        traj = solve_bounded_depca(system, -3, 3, 1e-9)
        ints = np.arange(-3, 4, dtype=float)
        ts = np.concatenate([
            ints, ints - 1e-9, ints + 1e-9,  # the window ends and integer straddles
            np.arange(-3, 3) + 0.25, np.arange(-3, 3) + 0.6,  # repeated u
            [0.25, 0.25, -1.4], np.random.default_rng(5).uniform(-3, 3, 20)])
        ts = np.random.default_rng(7).permutation(ts)
        got = traj.evaluate_grid(ts)
        want = np.stack([self.per_point(traj, t) for t in ts])
        scale = 1.0 + float(np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * scale)

    def test_first_offending_point_is_named(self):
        traj = solve_bounded_depca(trig_p3_system(), -3, 3, 1e-9)
        with pytest.raises(ValueError, match=r"t = 3\.5 outside .*\[-3, 3\]"):
            traj.evaluate_grid([0.5, 3.5, -9.0])
        assert traj.evaluate_grid([-3.0 - 1e-9, 3.0 + 1e-9]).shape == (2, 3)

    @pytest.mark.parametrize("forcing", [
        sig.TrigPolynomial.cosine([1.0, 0.5], 1.3),
        sig.StepOfSequence.from_periodic_values([[1.0, 0.5], [-0.7, 0.2]]),
        sig.AATest.from_amplitude([1.0, -0.5]),
    ], ids=["trig", "step", "quadrature"])
    def test_interval_forcing_on_an_integer_array(self, forcing):
        system = DepcaSystem.build(PANEL_A, PANEL_B, forcing)
        ns = np.array([-3, 0, 2, 5, 2])
        got = interval_forcing(system, ns, 0.35, 1e-11)
        want = np.stack([interval_forcing(system, int(n), 0.35, 1e-11) for n in ns])
        assert got.shape == (5, 2) and want.shape == (5, 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert interval_forcing(system, ns[:0], 0.35, 1e-11).shape == (0, 2)

    def test_near_resonant_term_on_an_integer_array(self):
        # spec(A) = {i}: the frequency-1 term takes the kernel integral per n,
        # the frequency-3 term the closed form
        system = DepcaSystem.build(np.array([[1j]]), np.zeros((1, 1)),
                                   sig.TrigPolynomial.from_terms([([1.0], 1.0),
                                                                  ([0.5], 3.0)]))
        ns = np.array([-2, 1, 4])
        u = 0.75
        exact = [np.exp(1j * (n + u)) * u
                 + 0.5 * (np.exp(3j * (n + u)) - np.exp(1j * u + 3j * n)) / 2j
                 for n in ns]
        np.testing.assert_allclose(interval_forcing(system, ns, u, 1e-12)[:, 0],
                                   exact, atol=1e-10)

    def test_a_cold_dense_grid_forms_its_exponentials_in_one_call(self, monkeypatch):
        # 20 001 points on [-10, 10] repeat about 1,000 fractional parts u;
        # every fresh u takes its exponential from one stacked call
        traj = solve_bounded_depca(trig_p3_system(), -10, 10, 1e-9)
        sizes = []
        expm_integral = depca_engine.expm_integral

        def counting(a, u):
            sizes.append(np.size(u))
            return expm_integral(a, u)

        monkeypatch.setattr(depca_engine, "expm_integral", counting)
        traj.evaluate_grid(np.linspace(-10, 10, 20001))
        assert len(sizes) <= 1 and sizes[0] > 900

    def test_evaluate_is_the_same_after_a_dense_grid(self):
        # Z(u) and K_w(u) formed in a stack of 1,000 u carry the bits they
        # have when formed for one u alone
        ts = [-9.87654321, -2.5, 0.001, 3.3, 9.999]
        alone = solve_bounded_depca(trig_p3_system(), -10, 10, 1e-9)
        want = [alone.evaluate(t) for t in ts]
        traj = solve_bounded_depca(trig_p3_system(), -10, 10, 1e-9)
        # the points come first, so each of their u represents its key
        traj.evaluate_grid(np.concatenate([ts, np.linspace(-10, 10, 20001)]))
        assert all(np.array_equal(traj.evaluate(t), x) for t, x in zip(ts, want))

    def test_residual_check_calls_the_forcing_once_per_u(self, monkeypatch):
        # 7 probes and their two stencil points per interval share 21 u
        traj = solve_bounded_depca(trig_p3_system(), -200, 200, 1e-9)
        calls = []

        def counting(*args):
            calls.append(args)
            return interval_forcing(*args)

        monkeypatch.setattr(depca_engine, "interval_forcing", counting)
        assert depca_engine.ode_residual_check(traj) == (
            traj.diagnostics.residual_max, traj.diagnostics.residual_tol)
        assert len(calls) <= 22

    def test_a_solve_forms_each_h_once_in_a_few_calls(self, monkeypatch):
        # the Green sum's 127 rows h(n), its supremum and the stitch's checks
        # take a few calls on integer arrays, not one call per n
        calls = []

        def counting(*args):
            calls.append(args)
            return interval_forcing(*args)

        monkeypatch.setattr(depca_engine, "interval_forcing", counting)
        solve_bounded_depca(scalar_system(-1.0, 0.5, COS_2PI), -10, 10, 1e-9)
        # a dense grid passes one u per row, and never u = 1
        h_calls = [n for _, n, u, _ in calls if np.ndim(u) == 0 and u == 1.0]
        ns = np.concatenate(h_calls)
        assert len(h_calls) <= 6
        assert ns.size == np.unique(ns).size == 127


class TestErrorsSayWhere:
    def test_residual_error_names_the_worst_probe(self, monkeypatch):
        monkeypatch.setattr(depca_engine, "DEFAULT",
                            dataclasses.replace(DEFAULT, residual_scale=1e-30))
        with pytest.raises(ResidualCheckError) as info:
            solve_bounded_depca(trig_p3_system(), -3, 3, 1e-9)
        found = re.search(r"at t = (\S+) \(n = (-?\d+), u = (\S+)\)", str(info.value))
        t, n, u = float(found[1]), int(found[2]), float(found[3])
        assert n == math.floor(t) and -3 <= n < 3
        assert u == pytest.approx(t - n) and 8 * u in range(1, 8)

    def test_continuity_error_names_the_integer(self):
        system = scalar_system(0.0, -0.5, COS_2PI)  # C = 1/2
        quad_tol = depca_engine.quad_tol_for(1e-9)
        dsys = reduce_to_difference(system, quad_tol)
        cert = depca_engine.certify_companion(dsys.constant_coefficient)
        xs = solve_bounded(dsys, cert, -4, 4, 1e-9)
        # x(1) off by 1e-3: the defect is 1e-3 at n = 0 and C 1e-3 at n = 1
        xs[5] += 1e-3
        with pytest.raises(ContinuityBreachError, match=r"at n = 0 exceeds"):
            depca_engine.stitch_trajectory(system, dsys, xs, -4, 1e-9, quad_tol, cert)


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
        # x' = -x + cos t has the bounded solution (cos t + sin t)/2
        sol = massera_solve(np.array([[-1.0]]),
                            sig.TrigPolynomial.cosine([1.0], 1.0), 1e-8)
        ts = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(sol.evaluate_grid(ts)[:, 0],
                                   (np.cos(ts) + np.sin(ts)) / 2, rtol=0, atol=1e-8)

    def test_undeclared_sup_sizes_the_radius(self):
        # an unevaluated CallableSignal reports sup 0; x' = -x + cos t has
        # the bounded solution (cos t + sin t)/2, so x(0) = 0.5
        f = sig.CallableSignal(lambda t: [np.cos(t)], 1)
        sol = massera_solve(np.array([[-1.0]]), f, 1e-9)
        np.testing.assert_allclose(sol.evaluate(0.0), [0.5], atol=1e-9)
        declared = massera_solve(np.array([[-1.0]]),
                                 sig.TrigPolynomial.cosine([1.0], 1.0), 1e-9)
        assert sol.radius == pytest.approx(declared.radius, rel=1e-12)

    def test_radius_ignores_evaluation_history(self):
        # f = cos t, ten times larger beyond |t| = 60: an earlier evaluate at
        # t = 100 must not change the radius, which the sampled |f| sizes
        f = sig.CallableSignal(lambda t: [np.cos(t) * (10.0 if abs(t) > 60 else 1.0)], 1)
        radius = massera_solve(np.array([[-1.0]]), f, 1e-9).radius
        f.evaluate(100.0)
        assert massera_solve(np.array([[-1.0]]), f, 1e-9).radius == radius

    def test_growing_forcing_fails_typed(self):
        f = sig.CallableSignal(lambda t: [np.exp(abs(t))], 1)
        with pytest.raises(WindowTooSmallError):
            massera_solve(np.array([[-1.0]]), f, 1e-9)

    def test_overflowing_forcing_fails_typed(self):
        # e^{t^2} is infinite at the second radius, so |f| cannot be sampled
        f = sig.CallableSignal(lambda t: [np.exp(t * t)], 1)
        with np.errstate(over="ignore"), pytest.raises(WindowTooSmallError):
            massera_solve(np.array([[-0.1]]), f, 1e-9)


class TestMasseraSchurKernels:
    """Non-normal and stiff hyperbolic A against independent references."""

    @pytest.mark.parametrize("a,tol", [
        ([[-3.0, 40.0], [0.0, 3.0]], 1e-6),
        ([[-1.0, 0.3], [0.0, 0.5]], 1e-9),
        ([[-60.0]], 1e-9),
    ])
    def test_trig_forcing_matches_resolvent(self, a, tol):
        # x' = A x + v cos t has the bounded solution Re((iI - A)^-1 v e^{it})
        a = np.array(a)
        v = np.ones(len(a))
        sol = massera_solve(a, sig.TrigPolynomial.cosine(v, 1.0), tol)
        resolvent_v = np.linalg.solve(1j * np.eye(len(a)) - a, v)
        for t in np.linspace(-2, 2, 41):
            exact = (resolvent_v * np.exp(1j * t)).real
            assert sup_err(sol.evaluate(t), exact) <= tol

    def test_aa_forcing_mixed_spectrum_matches_mpmath(self):
        # A = [[a, c], [0, d]] has eigenvectors e1 (a < 0) and (c/(d-a), 1)
        # (d > 0); f = amp g splits along them as alpha g e1 + beta g v2, so
        # x(t) = alpha e1 int_0^inf e^{a s} g(t-s) ds
        #        - beta v2 int_0^inf e^{-d s} g(t+s) ds,
        # cut at s = 40, where both tails are below 1e-30
        a, c, d = -3.0, -0.364, 2.0
        amp = [0.92, 0.88]
        sol = massera_solve(np.array([[a, c], [0.0, d]]),
                            sig.AATest.from_amplitude(amp), 1e-6)
        with mp.workdps(30):
            ma, mc, md = mp.mpf(a), mp.mpf(c), mp.mpf(d)
            alpha = mp.mpf(amp[0]) - mc * mp.mpf(amp[1]) / (md - ma)
            beta = mp.mpf(amp[1])
            cells = list(range(0, 41))
            for t in (-0.948, 0.638):
                mt = mp.mpf(t)
                past = mp.quad(lambda s: mp.exp(ma * s) * aa_value(mt - s), cells)
                future = mp.quad(lambda s: mp.exp(-md * s) * aa_value(mt + s), cells)
                exact = [alpha * past - beta * future * mc / (md - ma),
                         -beta * future]
                assert sup_err(sol.evaluate(t), [float(x) for x in exact]) <= 1e-6

    def test_exponentials_per_panel_not_per_node(self, monkeypatch):
        calls = []
        expm = depca_engine.expm

        def counting(*args, **kwargs):
            calls.append(args)
            return expm(*args, **kwargs)

        monkeypatch.setattr(depca_engine, "expm", counting)
        sol = massera_solve(np.array([[-3.0, -0.36404169238128337], [0.0, 2.0]]),
                            sig.AATest.from_amplitude([0.9210016440976609,
                                                       0.8817968263337055]), 1e-6)
        for t in (-0.948, 0.638, -0.647):
            sol.evaluate(t)
        assert len(calls) < 1000

    @pytest.mark.parametrize("a,side", [(-1.0, "stable"), (1.0, "unstable")])
    def test_quadrature_error_names_t_and_side(self, a, side):
        # an undeclared jump at n + 0.3 never lands on a bisection point
        f = sig.RationalPeriodic.from_callable(
            1, 1, lambda tau: [1.0 if tau >= 0.3 else 0.0], 1)
        sol = massera_solve(np.array([[a]]), f, 1e-9)
        with pytest.raises(QuadratureError,
                           match=rf"^{side} Massera integral at t = 0\.25: "):
            sol.evaluate(0.25)


def sup_err(got, exact) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(exact))))


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

    @pytest.mark.parametrize("theta,f", [
        (0.0, sig.TrigPolynomial.cosine([1.0], 2 * np.pi)),
        (0.5, sig.TrigPolynomial.exponential([1.0], 0.5 + 2 * np.pi)),
    ], ids=["cos-2pi", "shifted-exponential"])
    def test_one_periodic_primitive_screened_bounded(self, theta, f):
        # F(t) = (e^{2 pi i t} - 1) / (2 pi i) vanishes at every integer, so the
        # screen must read it between the integers, not round-off at them
        _, report = imaginary_scalar_solve(theta, f, 0.0, 50.0)
        assert report.is_bounded
        assert 0.1 <= report.sup_estimate <= 1.0 / np.pi + 1e-12

    def test_vector_forcing_rejected(self):
        f = sig.TrigPolynomial.constant([1.0, 1.0])
        with pytest.raises(ValueError):
            imaginary_scalar_solve(1.0, f, 0.0, 5.0)

    @pytest.mark.parametrize("theta,x0", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan)],
                             ids=["theta-nan", "theta-inf", "x0-nan"])
    def test_non_finite_input_rejected(self, theta, x0):
        with pytest.raises(ValueError, match="non-finite"):
            imaginary_scalar_solve(theta, sig.TrigPolynomial.cosine([1.0], 2.0), x0, 5.0)

    def test_aa_forcing_fails_typed(self):
        # the AATest spike near s = +-91 defeats the quadrature of h(n): the
        # error names the unit interval, and no value is returned
        with pytest.raises(QuadratureError) as info:
            imaginary_scalar_solve(1.0, sig.AATest.from_amplitude([1.0]), 0.0, 100.0)
        found = re.match(r"forcing on \[(-?\d+), (-?\d+)\], ", str(info.value))
        assert found is not None
        lo, hi = map(int, found.groups())
        assert hi == lo + 1 and 90 <= abs(lo + 0.5) <= 101


class TestStiffHyperbolicA:
    """B = 0 with |A| large: C = e^A is far from the unit circle, and the
    certificate must not form e^{alpha d} for large d."""

    @pytest.mark.parametrize("a", [-20.0, 15.0, -60.0, -30.0, -25.0])
    def test_matches_closed_form(self, a):
        # x' = a x + cos t has the bounded solution Re(e^{it} / (i - a))
        system = scalar_system(a, 0.0, sig.TrigPolynomial.cosine([1.0], 1.0))
        traj = solve_bounded_depca(system, -2, 2, 1e-10)

        def exact(t):
            return (np.exp(1j * t) / (1j - a)).real

        for n in range(-2, 3):
            assert abs(traj.integer_samples[n][0] - exact(n)) <= 1e-9
        ts = np.linspace(-2, 2, 161)
        assert np.max(np.abs(traj.evaluate_grid(ts)[:, 0] - exact(ts))) <= 1e-9

    @pytest.mark.parametrize("diagonal", [
        [-12.0] * 2,               # |det Z| = e^{-24 u} is scaled out
        [3.0] * 8 + [-3.0] * 8,    # det Z = 1 at every u, cond Z(1) = e^6
        [10.0, 10.0, -10.0, -10.0],
    ])
    def test_stiff_diagonal_system_matches_closed_form(self, diagonal):
        # x' = A x + v cos t has the bounded solution Re((iI - A)^-1 v e^{it})
        a = np.diag(diagonal)
        p = len(diagonal)
        v = np.linspace(1.0, -0.5, p)
        system = DepcaSystem.build(a, np.zeros((p, p)),
                                   sig.TrigPolynomial.cosine(v, 1.0))
        traj = solve_bounded_depca(system, -2, 2, 1e-10)
        ts = np.linspace(-2, 2, 81)
        exact = (np.exp(1j * ts)[:, None]
                 * np.linalg.solve(1j * np.eye(p) - a, v)).real
        assert np.max(np.abs(traj.evaluate_grid(ts) - exact)) <= 1e-9

    @pytest.mark.parametrize("a", [25.0, 40.0, 800.0])
    def test_steep_unstable_a_fails_typed(self, a):
        # the forward segments e^{A u} x(n) lose the bounded solution to
        # round-off, and C = e^800 overflows; they wait for backward segments
        # (ROADMAP direction 4, second bullet), and until then the solve must
        # raise, not return
        system = scalar_system(a, 0.0, sig.TrigPolynomial.cosine([1.0], 1.0))
        with pytest.raises(DepcaError):
            solve_bounded_depca(system, -2, 2, 1e-10)

    @pytest.mark.parametrize("a", [-800.0, 800.0])
    def test_pure_a_screens_at_one_without_overflow(self, a):
        # every pair factor is exactly 1 for B = 0, however stiff A is
        system = scalar_system(a, 0.0, sig.TrigPolynomial.cosine([1.0], 1.0))
        screen = check_propagator_invertibility(system)
        assert screen.min_det == 1.0 and screen.passed


class TestRotationSpan:
    """x' = i x + e^{2it} with x(0) = x0 is e^{it} (x0 + (e^{it} - 1)/i);
    piecewise-constant forcing is checked against 30-digit mpmath.  The
    evaluator covers [-(window + 1), window + 1] and refuses beyond it."""

    @staticmethod
    def exact(t, x0):
        return np.exp(1j * t) * (x0 + (np.exp(1j * t) - 1.0) / 1j)

    def test_matches_closed_form_up_to_the_edge(self):
        ev, _ = imaginary_scalar_solve(1.0, sig.TrigPolynomial.exponential([1.0], 2.0),
                                       0.5, 10.0)
        for t in (-11.0, -10.37, 10.999, 11.0):
            assert abs(ev(t)[0] - self.exact(t, 0.5)) <= 1e-12

    @staticmethod
    def piecewise_reference(theta, width, value, x0, t):
        """e^{i theta t} (x0 + integral_0^t e^{-i theta s} f(s) ds) to 30
        digits for f = value(k) on [k width, (k+1) width)."""
        with mp.workdps(30):
            th, w = mp.mpf(theta), mp.mpf(width)
            lo, hi = sorted((mp.mpf(0), mp.mpf(t)))
            cuts = [lo, *(k * w for k in range(int(mp.floor(lo / w)) + 1,
                                              int(mp.ceil(hi / w)))), hi]
            total = mp.mpc(0)
            for a, b in zip(cuts, cuts[1:]):
                c = mp.mpc(complex(value(int(mp.floor((a + b) / (2 * w))))))
                total += c * (mp.expj(-th * a) - mp.expj(-th * b)) / (1j * th)
            if t < 0:
                total = -total
            return complex(mp.expj(th * mp.mpf(t)) * (mp.mpc(x0) + total))

    @pytest.mark.parametrize("forcing,width,values", [
        (sig.StepOfSequence.from_periodic_values([[0.7], [-1.2], [0.4 + 0.5j]]), 1.0,
         [0.7, -1.2, 0.4 + 0.5j]),
        # period 3/2 in 3 pieces: a jump at every n + 1/2
        (sig.RationalPeriodic.from_samples(3, 2, [[1.0], [-0.5], [0.25j]]), 0.5,
         [1.0, -0.5, 0.25j]),
    ], ids=["step", "rational"])
    def test_piecewise_constant_forcing(self, forcing, width, values):
        theta, x0 = 0.8, 0.3 - 0.2j
        ev, report = imaginary_scalar_solve(theta, forcing, x0, 10.0)
        for t in (-11.0, -10.25, -3.7, 0.0, 2.5, 7.3, 10.999, 11.0):
            exact = self.piecewise_reference(theta, width,
                                             lambda k: values[k % len(values)], x0, t)
            assert abs(ev(t)[0] - exact) <= 1e-12
        assert report.is_bounded

    @pytest.mark.parametrize("t", [11.01, -30.0, 60.0])
    def test_beyond_the_edge_raises(self, t):
        ev, _ = imaginary_scalar_solve(1.0, sig.TrigPolynomial.exponential([1.0], 2.0),
                                       0.5, 10.0)
        with pytest.raises(ValueError, match=rf"t = {t}.*\[-11, 11\]"):
            ev(t)
