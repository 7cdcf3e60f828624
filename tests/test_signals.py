"""Tests for the forcing-signal catalog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depca import signals as sig


class TestEvaluate:
    def test_constant(self):
        f = sig.TrigPolynomial.from_terms([([1.0], 0.0)])
        np.testing.assert_allclose(f.evaluate(3.7), [1.0])

    def test_step_alternating(self):
        f = sig.StepOfSequence.from_periodic_values([[1.0], [-1.0]])
        np.testing.assert_allclose(f.evaluate(2.5), [1.0])
        # floor(-0.5) = -1, g(-1) = -1
        np.testing.assert_allclose(f.evaluate(-0.5), [-1.0])

    def test_complex_exponential(self):
        f = sig.TrigPolynomial.exponential([1.0], 2 * np.pi)
        np.testing.assert_allclose(f.evaluate(0.25), [1j], atol=1e-12)

    def test_grid_matches_pointwise(self):
        f = sig.Sum.of(sig.TrigPolynomial.cosine([1.0, 0.5], 2.0),
                       sig.TrigPolynomial.sine([0.0, 1.0], np.sqrt(3)))
        ts = np.linspace(-4, 4, 57)
        grid = f.evaluate_grid(ts)
        for t, row in zip(ts, grid):
            np.testing.assert_allclose(row, f.evaluate(float(t)), atol=1e-14)

    def test_aa_test_family_bounded(self):
        f = sig.AATest.from_amplitude([2.0])
        ts = np.linspace(-50, 50, 5001)
        vals = f.evaluate_grid(ts)
        assert np.max(np.abs(vals)) <= 2.0 + 1e-12
        assert f.sup_bound() == pytest.approx(2.0)


class TestShift:
    def test_rational_periodic_integer_period_invariant(self):
        f = sig.RationalPeriodic.from_samples(1, 1, [[1.0], [2.0], [-0.5]])
        g = sig.shift(f, 1)
        ts = np.linspace(-5, 5, 1000)
        assert np.max(np.abs(g.evaluate_grid(ts) - f.evaluate_grid(ts))) < 1e-12

    def test_step_index_arithmetic(self):
        f = sig.StepOfSequence.from_sequence(lambda n: np.array([float(n)]))
        g = sig.shift(f, 2)
        np.testing.assert_allclose(g.evaluate(0.5), [2.0])

    def test_trig_phase_rotation_pointwise(self):
        f = sig.TrigPolynomial.from_terms(
            [([1.0 + 0.5j], 2 * np.pi * 3 / 7), ([0.3], -1.1)])
        s = 5
        g = sig.shift(f, s)
        ts = np.linspace(-10, 10, 1000)
        np.testing.assert_allclose(g.evaluate_grid(ts),
                                   f.evaluate_grid(ts + s), atol=1e-12)

    def test_aa_test_shift_exact(self):
        f = sig.AATest.from_amplitude([1.0])
        g = sig.shift(f, 3)
        for t in np.linspace(-3, 3, 101):
            np.testing.assert_allclose(g.evaluate(t), f.evaluate(t + 3), atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_shift_additivity(self, a, b):
        f = sig.Sum.of(
            sig.TrigPolynomial.cosine([1.0], np.sqrt(2)),
            sig.StepOfSequence.from_periodic_values([[0.5], [1.5], [-1.0]]),
        )
        lhs = sig.shift(sig.shift(f, a), b)
        rhs = sig.shift(f, a + b)
        ts = np.linspace(-3, 3, 41)
        assert np.max(np.abs(lhs.evaluate_grid(ts) - rhs.evaluate_grid(ts))) < 1e-12


class TestStructure:
    def test_step_constant_on_intervals(self):
        f = sig.StepOfSequence.from_periodic_values([[1.0], [2.0], [3.0]])
        for n in (-2, 0, 5):
            v0 = f.evaluate(float(n))
            np.testing.assert_allclose(f.evaluate(n + 0.5), v0)
            np.testing.assert_allclose(f.evaluate(n + 1 - 1e-9), v0)

    def test_rational_periodicity_exact(self):
        f = sig.RationalPeriodic.from_samples(2, 3, [[1.0], [-1.0], [0.5], [2.0]])
        period = 2.0 / 3.0
        ts = np.linspace(-7.1, 7.1, 1000)
        dev = np.max(np.abs(f.evaluate_grid(ts + period) - f.evaluate_grid(ts)))
        assert dev < 1e-12

    def test_rational_grid_matches_pointwise(self):
        # the table lookup of from_samples, on shifted and mapped signals too
        f = sig.RationalPeriodic.from_samples(6, 5, [[1.0, 0.5], [-0.7, 0.2],
                                                     [0.3, -1.0]])
        ts = np.concatenate([np.linspace(-9.3, 9.3, 997), 0.4 * np.arange(-20, 21)])
        for g in (f, sig.shift(f, 7), sig.component(f, 1),
                  sig.linear_map([[1.0, 2.0], [0.0, -1.0], [3.0, 3.0]], f)):
            pointwise = np.stack([g.evaluate(float(t)) for t in ts])
            np.testing.assert_allclose(g.evaluate_grid(ts), pointwise,
                                       rtol=0, atol=1e-14)

    def test_rational_samples_validated_once(self):
        with pytest.raises(ValueError):
            sig.RationalPeriodic.from_samples(1, 1, [[1.0], [np.nan]])
        with pytest.raises(ValueError):
            sig.RationalPeriodic.from_samples(1, 1, [[1.0], [1.0, 2.0]])

    def test_sum_linearity_exact(self):
        f = sig.TrigPolynomial.cosine([1.0], 1.0)
        g = sig.StepOfSequence.from_periodic_values([[2.0], [-2.0]])
        s = sig.Sum.of(f, g)
        for t in (-1.3, 0.0, 0.4, 2.9):
            assert np.all(s.evaluate(t) == f.evaluate(t) + g.evaluate(t))

    def test_sup_bound_dominates_samples(self):
        f = sig.Sum.of(sig.TrigPolynomial.cosine([1.0], 2.0),
                       sig.TrigPolynomial.sine([0.7], 5.0))
        ts = np.linspace(-20, 20, 2001)
        assert np.max(np.abs(f.evaluate_grid(ts))) <= f.sup_bound() + 1e-12

    def test_step_declared_bound_enforced(self):
        f = sig.StepOfSequence.from_sequence(lambda n: np.array([float(n)]),
                                             declared_sup=2.0)
        f.evaluate(1.5)
        with pytest.raises(ValueError):
            f.evaluate(7.5)


class TestCompose:
    def test_identity(self):
        f = sig.TrigPolynomial.cosine([1.0], 1.0)
        g = sig.compose("identity", f)
        for t in (-0.7, 1.1):
            np.testing.assert_allclose(g.evaluate(t), f.evaluate(t))

    def test_square_of_constant(self):
        f = sig.TrigPolynomial.constant([2.0])
        g = sig.compose("square", f)
        np.testing.assert_allclose(g.evaluate(0.3), [4.0])

    def test_sin_of_step(self):
        f = sig.StepOfSequence.from_sequence(
            lambda n: np.array([(n * np.pi / 2) % (2 * np.pi)]))
        g = sig.compose("sin", f)
        np.testing.assert_allclose(g.evaluate(1.3),
                                   np.sin(f.sequence_value(1)), atol=1e-14)

    def test_affine_and_poly(self):
        f = sig.TrigPolynomial.constant([3.0])
        np.testing.assert_allclose(sig.compose(("affine", 2.0, 1.0), f).evaluate(0.0),
                                   [7.0])
        np.testing.assert_allclose(sig.compose(("poly", 1.0, 0.0, 1.0), f).evaluate(0.0),
                                   [10.0])  # 1 + 3^2

    def test_unsupported_tag(self):
        f = sig.TrigPolynomial.constant([1.0])
        with pytest.raises(ValueError):
            sig.compose("tanh", f)
        with pytest.raises(ValueError):
            sig.compose(("poly", 1, 2, 3, 4, 5, 6), f)  # degree 5


class TestLinearOps:
    def test_sample_on_integers(self):
        f = sig.TrigPolynomial.constant([1.0])
        np.testing.assert_allclose(sig.sample_on_integers(f, 0, 3),
                                   np.ones((4, 1)))
        g = sig.StepOfSequence.from_periodic_values([[1.0], [-1.0]])
        np.testing.assert_allclose(sig.sample_on_integers(g, 0, 2).ravel(),
                                   [1.0, -1.0, 1.0])
        h = sig.TrigPolynomial.exponential([1.0], 2 * np.pi)
        np.testing.assert_allclose(sig.sample_on_integers(h, 0, 2).ravel(),
                                   [1.0, 1.0, 1.0], atol=1e-12)

    def test_linear_map_exact_for_trig(self):
        f = sig.TrigPolynomial.cosine([1.0, -2.0], 1.5)
        m = np.array([[2.0, 1.0]])
        g = sig.linear_map(m, f)
        assert g.dimension == 1
        for t in np.linspace(-2, 2, 21):
            np.testing.assert_allclose(g.evaluate(t), m @ f.evaluate(t), atol=1e-14)

    def test_component(self):
        f = sig.TrigPolynomial.cosine([1.0, -2.0], 1.5)
        c1 = sig.component(f, 1)
        for t in (-0.3, 0.8):
            np.testing.assert_allclose(c1.evaluate(t), [f.evaluate(t)[1]])

    def test_modulate_trig_exact(self):
        f = sig.TrigPolynomial.exponential([1.0], 2.0)
        g = sig.modulate(f, -1.0)
        assert isinstance(g, sig.TrigPolynomial)
        for t in np.linspace(-3, 3, 31):
            np.testing.assert_allclose(g.evaluate(t),
                                       np.exp(-1j * t) * f.evaluate(t), atol=1e-13)

    def test_modulate_step_wrapped(self):
        f = sig.StepOfSequence.from_periodic_values([[1.0], [2.0]])
        g = sig.modulate(f, 0.7)
        for t in (-1.2, 0.4, 2.6):
            np.testing.assert_allclose(g.evaluate(t),
                                       np.exp(0.7j * t) * f.evaluate(t), atol=1e-14)
        # shifting a modulated signal stays exact
        h = sig.shift(g, 2)
        for t in (-0.5, 0.25):
            np.testing.assert_allclose(h.evaluate(t), g.evaluate(t + 2), atol=1e-13)


class TestIntegralPrimitive:
    def test_zero_signal(self):
        rep = sig.integral_primitive_bounded(sig.TrigPolynomial.constant([0.0]),
                                             50.0, 0.01)
        assert rep.is_bounded
        assert rep.sup_estimate == pytest.approx(0.0, abs=1e-14)

    def test_cosine_primitive_is_sine(self):
        rep = sig.integral_primitive_bounded(sig.TrigPolynomial.cosine([1.0], 1.0),
                                             100.0, 0.01)
        assert rep.is_bounded
        assert rep.sup_estimate == pytest.approx(1.0, abs=0.01)

    def test_constant_one_linear_growth(self):
        rep = sig.integral_primitive_bounded(sig.TrigPolynomial.constant([1.0]),
                                             50.0, 0.01)
        assert rep.verdict == "unbounded-suspected"
        assert min(rep.ratios) >= 1.8

    def test_step_signal_split_at_integers(self):
        # alternating step: F oscillates in [0, 1] and stays bounded
        f = sig.StepOfSequence.from_periodic_values([[1.0], [-1.0]])
        rep = sig.integral_primitive_bounded(f, 32.0, 0.01)
        assert rep.is_bounded
        assert rep.sup_estimate == pytest.approx(1.0, abs=0.02)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            sig.integral_primitive_bounded(sig.TrigPolynomial.constant([1.0]),
                                           -1.0, 0.01)
