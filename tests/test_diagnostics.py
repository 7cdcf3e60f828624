"""Tests for the finite-window class-property screens."""

import numpy as np
import pytest

from depca import diagnostics as diag
from depca import signals as sig
from depca.depca_engine import DepcaSystem, solve_bounded_depca
from depca.errors import WindowTooSmallError

SQRT2 = np.sqrt(2.0)


def two_tone():
    return sig.Sum.of(sig.TrigPolynomial.sine([1.0], 2 * np.pi),
                      sig.TrigPolynomial.sine([1.0], 2 * SQRT2 * np.pi))


class TestPeriodicityCheck:
    def test_constant_any_period(self):
        f = sig.TrigPolynomial.constant([3.0])
        v = diag.periodicity_check(f, (1, 1), 1e-12, window=(-5, 5))
        assert v.passed and v.deviation == pytest.approx(0.0, abs=1e-13)

    def test_solver_output_period_one(self):
        system = DepcaSystem.build(np.array([[0.0]]), np.array([[-0.5]]),
                                   sig.TrigPolynomial.cosine([1.0], 2 * np.pi))
        traj = solve_bounded_depca(system, -5, 5, 1e-9)
        assert diag.periodicity_check(traj, (1, 1), 1e-6).passed

    def test_rational_periodic_exact_at_integer_multiple(self):
        f = sig.RationalPeriodic.from_samples(2, 3, [[1.0], [0.25], [-1.5]])
        v = diag.periodicity_check(f, (2, 1), 1e-12, window=(-5, 5),
                                   grid_step=1e-2)
        assert v.passed and v.deviation < 1e-12

    def test_rational_frequency_forcing_periods(self):
        # x' = -x([t])/2 + f(t) with f of period 2/3.  On [n, n+1)
        #   x(t) = x(n) (1 - (t-n)/2) + int_n^t f,
        # so x(n+1) = x(n)/2 + h(n) with h(n) = int_n^{n+1} f.
        # f = cos(3 pi t): h(n) = (sin 3pi(n+1) - sin 3pi n)/(3 pi) = 0, so the
        #   bounded x(n) is 0 and x(t) = sin(3 pi t)/(3 pi), which keeps
        #   period 2/3.
        # f = sin(3 pi t): h(n) = 2 (-1)^n/(3 pi); x(n) = c (-1)^n needs
        #   -c = c/2 + 2/(3 pi), so x(n) = -4 (-1)^n/(9 pi) != 0.  Then x is
        #   2-periodic but |x(2/3) - x(0)| = |x(0)|/3 = 4/(27 pi).
        a, b = np.array([[0.0]]), np.array([[-0.5]])
        tol = 1e-9
        ts = np.linspace(-6.0, 6.0, 1201)

        cos_traj = solve_bounded_depca(
            DepcaSystem.build(a, b, sig.TrigPolynomial.cosine([1.0], 3 * np.pi)),
            -6, 6, tol)
        np.testing.assert_allclose(cos_traj.evaluate_grid(ts)[:, 0],
                                   np.sin(3 * np.pi * ts) / (3 * np.pi),
                                   rtol=0, atol=tol)
        assert diag.periodicity_check(cos_traj, (2, 1), 1e-6).passed
        assert diag.periodicity_check(cos_traj, (2, 3), 1e-6).passed

        sin_traj = solve_bounded_depca(
            DepcaSystem.build(a, b, sig.TrigPolynomial.sine([1.0], 3 * np.pi)),
            -6, 6, tol)
        for n in range(-6, 7):
            np.testing.assert_allclose(sin_traj.integer_samples[n],
                                       [-4 * (-1) ** n / (9 * np.pi)],
                                       rtol=0, atol=tol)
        n = np.floor(ts)
        closed = (-4 * (-1.0) ** n / (9 * np.pi) * (1 - (ts - n) / 2)
                  + (np.cos(3 * np.pi * n) - np.cos(3 * np.pi * ts)) / (3 * np.pi))
        np.testing.assert_allclose(sin_traj.evaluate_grid(ts)[:, 0], closed,
                                   rtol=0, atol=tol)
        assert diag.periodicity_check(sin_traj, (2, 1), 1e-6).passed
        third = diag.periodicity_check(sin_traj, (2, 3), 1e-6)
        assert not third.passed
        # the straddled grid samples t = 0, where the gap is 4/(27 pi)
        assert third.deviation >= 4 / (27 * np.pi) * (1 - 1e-6)

    def test_two_hop_consistency(self):
        # pass at period w forces pass at 2w by deviation subadditivity
        f = sig.TrigPolynomial.cosine([1.0], 2 * np.pi)
        tol = 1e-9
        one = diag.periodicity_check(f, (1, 1), tol, window=(-8, 8))
        two = diag.periodicity_check(f, (2, 1), tol, window=(-8, 8))
        assert one.passed and two.passed
        assert two.deviation <= 2.0 * one.deviation + 1e-14

    def test_small_window_rejected(self):
        f = sig.TrigPolynomial.constant([1.0])
        with pytest.raises(WindowTooSmallError):
            diag.periodicity_check(f, (3, 1), 1e-9, window=(0, 4))


class TestAlmostPeriodScan:
    def test_integer_period_all_integers_pass(self):
        f = sig.TrigPolynomial.sine([1.0], 2 * np.pi)
        rep = diag.almost_period_scan(f, 1e-6, 10, window=(-10, 10))
        assert set(rep.passing_shifts) == set(rep.tested_shifts)

    def test_two_tone_nonempty_proper_subset(self):
        rep = diag.almost_period_scan(two_tone(), 0.3, 100, window=(-10, 10),
                                      grid_step=0.05)
        assert len(rep.passing_shifts) > 0
        assert len(rep.passing_shifts) < len(rep.tested_shifts)
        # continued-fraction denominators of sqrt(2) give almost periods
        assert 12.0 in rep.passing_shifts
        assert 29.0 in rep.passing_shifts

    def test_alternating_sequence_even_shifts_only(self):
        f = sig.StepOfSequence.from_periodic_values([[1.0], [-1.0]])
        rep = diag.almost_period_scan(f, 1e-6, 9, window=(-8, 8))
        passing = sorted(rep.passing_shifts)
        assert passing == [s for s in range(-9, 10) if s % 2 == 0]
        odd_devs = [d for s, d in zip(rep.tested_shifts, rep.deviations)
                    if int(s) % 2 != 0]
        np.testing.assert_allclose(odd_devs, 2.0, atol=1e-12)

    def test_epsilon_monotonicity(self):
        rep_small = diag.almost_period_scan(two_tone(), 0.2, 40,
                                            window=(-8, 8), grid_step=0.05)
        rep_big = diag.almost_period_scan(two_tone(), 0.5, 40,
                                          window=(-8, 8), grid_step=0.05)
        assert set(rep_small.passing_shifts) <= set(rep_big.passing_shifts)

    def test_real_shift_grid(self):
        f = sig.TrigPolynomial.sine([1.0], 2 * np.pi)
        rep = diag.almost_period_scan(f, 1e-6, 2, integer_shifts_only=False,
                                      window=(-4, 4), real_shift_step=0.5)
        assert 1.0 in rep.passing_shifts
        assert 0.5 not in rep.passing_shifts
