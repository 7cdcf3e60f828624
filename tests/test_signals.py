"""Tests for the forcing-signal catalog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depca import signals as sig
from depca.depca_engine import imaginary_scalar_solve
from depca.tolerances import Tolerances


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
        g = f.shift(1)
        ts = np.linspace(-5, 5, 1000)
        assert np.max(np.abs(g.evaluate_grid(ts) - f.evaluate_grid(ts))) < 1e-12

    def test_step_index_arithmetic(self):
        f = sig.StepOfSequence.from_sequence(lambda n: np.array([float(n)]))
        g = f.shift(2)
        np.testing.assert_allclose(g.evaluate(0.5), [2.0])

    def test_trig_phase_rotation_pointwise(self):
        f = sig.TrigPolynomial.from_terms(
            [([1.0 + 0.5j], 2 * np.pi * 3 / 7), ([0.3], -1.1)])
        s = 5
        g = f.shift(s)
        ts = np.linspace(-10, 10, 1000)
        np.testing.assert_allclose(g.evaluate_grid(ts),
                                   f.evaluate_grid(ts + s), atol=1e-12)

    def test_aa_test_shift_exact(self):
        f = sig.AATest.from_amplitude([1.0])
        g = f.shift(3)
        for t in np.linspace(-3, 3, 101):
            np.testing.assert_allclose(g.evaluate(t), f.evaluate(t + 3), atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_shift_additivity(self, a, b):
        f = sig.Sum.of(
            sig.TrigPolynomial.cosine([1.0], np.sqrt(2)),
            sig.StepOfSequence.from_periodic_values([[0.5], [1.5], [-1.0]]),
        )
        lhs = f.shift(a).shift(b)
        rhs = f.shift(a + b)
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
        # the table lookup of from_samples, on a shifted signal too
        f = sig.RationalPeriodic.from_samples(6, 5, [[1.0, 0.5], [-0.7, 0.2],
                                                     [0.3, -1.0]])
        ts = np.concatenate([np.linspace(-9.3, 9.3, 997), 0.4 * np.arange(-20, 21)])
        for g in (f, f.shift(7)):
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

    def test_undeclared_sup_bound_ignores_evaluation_history(self):
        step = sig.StepOfSequence.from_sequence(lambda n: np.array([float(n)]))
        call = sig.CallableSignal(lambda t: [10.0 * t], 1)
        for f in (step, call):
            f.evaluate(100.0)
            assert f.sup_bound() == 0.0
        assert sig.compose("cos", call).sup_bound() == 1.0

    def test_mis_sized_callable_refused_at_construction(self):
        # one error, before any solver samples it
        with pytest.raises(ValueError, match="dimension 2, expected 1"):
            sig.CallableSignal(lambda t: [1.0, 2.0], 1)
        with pytest.raises(ValueError, match="dimension 1, expected 3"):
            sig.CallableSignal(lambda t: [1.0], 3)

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

    @pytest.mark.parametrize("outer,count", [
        (("sin", 1.0), "0"), (("cube", 2.0), "0"), ("affine", "2"),
        (("affine", 2.0), "2"), (("poly",), "1 to 5")],
        ids=["sin-1", "cube-1", "affine-0", "affine-1", "poly-0"])
    def test_wrong_parameter_count_refused(self, outer, count):
        f = sig.TrigPolynomial.constant([1.0])
        with pytest.raises(ValueError, match=f"takes {count} parameters"):
            sig.compose(outer, f)

    @pytest.mark.parametrize("outer,bound", [
        ("identity", 1.0), ("sin", np.cosh(1.0)), ("cos", np.cosh(1.0)),
        ("square", 1.0), ("cube", 1.0), (("affine", 2.0, -1.0), 3.0),
        (("poly", 0.0, 1.0, 0.5), 1.5)],
        ids=["identity", "sin", "cos", "square", "cube", "affine", "poly"])
    def test_sup_bound_of_each_outer_map(self, outer, bound):
        # the inner cosine has sup 1, and |g(z)| over |z| <= 1 is bounded by
        # cosh 1 for sin and cos, |a| + |b| for affine, sum |c_k| for poly
        g = sig.compose(outer, sig.TrigPolynomial.cosine([1.0], 1.0))
        assert g.sup_bound() == pytest.approx(bound, rel=1e-15)
        ts = np.linspace(-10.0, 10.0, 2001)
        assert np.max(np.abs(g.evaluate_grid(ts))) <= bound + 1e-12


class TestLinearOps:
    def test_sample_on_integers(self):
        f = sig.TrigPolynomial.constant([1.0])
        np.testing.assert_allclose(f.evaluate_grid(np.arange(0, 4)), np.ones((4, 1)))
        g = sig.StepOfSequence.from_periodic_values([[1.0], [-1.0]])
        np.testing.assert_allclose(g.evaluate_grid(np.arange(0, 3)).ravel(),
                                   [1.0, -1.0, 1.0])
        h = sig.TrigPolynomial.exponential([1.0], 2 * np.pi)
        np.testing.assert_allclose(h.evaluate_grid(np.arange(0, 3)).ravel(),
                                   [1.0, 1.0, 1.0], atol=1e-12)


class TestIntegralPrimitive:
    """The screen of F(n) = integral_0^n f at the integers, read from the
    rotational solver at theta = 0, where x(n) - x(0) = F(n)."""

    @staticmethod
    def screen(f, window):
        return imaginary_scalar_solve(0.0, f, 0.0, window)[1]

    def test_zero_signal(self):
        rep = self.screen(sig.TrigPolynomial.constant([0.0]), 50.0)
        assert rep.is_bounded
        assert rep.sup_estimate == pytest.approx(0.0, abs=1e-14)

    def test_cosine_primitive_is_sine(self):
        rep = self.screen(sig.TrigPolynomial.cosine([1.0], 1.0), 100.0)
        assert rep.is_bounded
        assert rep.sup_estimate == pytest.approx(1.0, abs=0.01)

    def test_constant_one_linear_growth(self):
        rep = self.screen(sig.TrigPolynomial.constant([1.0]), 50.0)
        assert rep.verdict == "unbounded-suspected"
        assert min(rep.ratios) >= 1.8

    def test_step_signal_split_at_integers(self):
        # alternating step: F oscillates in [0, 1] and stays bounded
        f = sig.StepOfSequence.from_periodic_values([[1.0], [-1.0]])
        rep = self.screen(f, 32.0)
        assert rep.is_bounded
        assert rep.sup_estimate == pytest.approx(1.0, abs=0.02)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            self.screen(sig.TrigPolynomial.constant([1.0]), -1.0)

    def test_growth_ratio_comes_from_the_tolerances(self, monkeypatch):
        # F(n) = n doubles over each dyadic window: flagged at 1.8, not at 2.5
        f = sig.TrigPolynomial.constant([1.0])
        assert not self.screen(f, 50.0).is_bounded
        monkeypatch.setattr(sig, "DEFAULT", Tolerances(growth_ratio=2.5))
        assert self.screen(f, 50.0).is_bounded
