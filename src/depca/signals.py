"""Forcing signals for the hybrid solvers.

The catalog covers trigonometric polynomials (almost periodic), integer-step
signals lifted from sequences (discontinuous on the integers), exactly
rational-periodic signals, a standard almost-automorphic-but-not-almost-
periodic test family, sums, compositions with a fixed set of continuous
outer maps, and evaluator-backed signals.
Signals are immutable; evaluation is pure.

The module also holds the dyadic-ratio screen of whether a primitive
F(t) = integral_0^t f stays bounded, read from values of F that the
rotational solver computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .tolerances import DEFAULT

_SQRT2 = math.sqrt(2.0)


def _as_coef(v, dimension: int | None = None) -> np.ndarray:
    c = np.atleast_1d(np.asarray(v, dtype=complex))
    if c.ndim != 1:
        raise ValueError("coefficient must be a vector")
    if dimension is not None and c.shape[0] != dimension:
        raise ValueError(f"coefficient has dimension {c.shape[0]}, expected {dimension}")
    if not np.all(np.isfinite(c.real)) or not np.all(np.isfinite(c.imag)):
        raise ValueError("coefficient has non-finite entries")
    return c


def stack_points(evaluate: Callable[[float], np.ndarray], ts, dimension: int
                 ) -> np.ndarray:
    """The rows evaluate(t) for t in ``ts``, shape (len(ts), dimension)."""
    ts = np.asarray(ts, dtype=float)
    if not ts.size:
        return np.zeros((0, dimension), dtype=complex)
    return np.stack([evaluate(float(t)) for t in ts])


class Signal:
    """Base class: a bounded function R -> C^p with exact integer shifts."""

    dimension: int

    def evaluate(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def evaluate_grid(self, ts) -> np.ndarray:
        return stack_points(self.evaluate, ts, self.dimension)

    def shift(self, s: int) -> "Signal":
        raise NotImplementedError

    def sup_bound(self) -> float:
        raise NotImplementedError

    def breakpoints_in(self, a: float, b: float) -> list[float]:
        """Interior non-smooth points in (a, b), integers excluded."""
        return []

    def constant_on_unit_interval(self, n: int) -> np.ndarray | None:
        """The constant value on [n, n+1) if the signal is constant there."""
        return None

    def trig_terms(self) -> list[tuple[np.ndarray, float]] | None:
        """(coefficient, frequency) terms when the signal is a pure
        trigonometric polynomial, else None."""
        return None


@dataclass(frozen=True)
class TrigPolynomial(Signal):
    """f(t) = sum_j c_j e^{i w_j t} with complex coefficient vectors c_j."""

    terms: tuple[tuple[np.ndarray, float], ...]
    dimension: int

    @staticmethod
    def from_terms(terms, dimension: int | None = None) -> "TrigPolynomial":
        fixed = []
        dim = dimension
        for coef, omega in terms:
            c = _as_coef(coef, dim)
            dim = c.shape[0]
            fixed.append((c, float(omega)))
        if dim is None:
            raise ValueError("empty trigonometric polynomial needs a dimension")
        return TrigPolynomial(tuple(fixed), dim)

    @staticmethod
    def constant(value) -> "TrigPolynomial":
        c = _as_coef(value)
        return TrigPolynomial(((c, 0.0),), c.shape[0])

    @staticmethod
    def cosine(coef, omega: float) -> "TrigPolynomial":
        c = _as_coef(coef)
        return TrigPolynomial(((c / 2.0, float(omega)), (c / 2.0, -float(omega))),
                              c.shape[0])

    @staticmethod
    def sine(coef, omega: float) -> "TrigPolynomial":
        c = _as_coef(coef)
        return TrigPolynomial(((c / 2j, float(omega)), (-c / 2j, -float(omega))),
                              c.shape[0])

    @staticmethod
    def exponential(coef, omega: float) -> "TrigPolynomial":
        c = _as_coef(coef)
        return TrigPolynomial(((c, float(omega)),), c.shape[0])

    def evaluate(self, t: float) -> np.ndarray:
        out = np.zeros(self.dimension, dtype=complex)
        for coef, omega in self.terms:
            out += coef * np.exp(1j * omega * t)
        return out

    def evaluate_grid(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if not self.terms or not ts.size:
            return np.zeros((ts.size, self.dimension), dtype=complex)
        omegas = np.array([w for _, w in self.terms])
        coefs = np.stack([c for c, _ in self.terms])
        return np.einsum("tk,kp->tp", np.exp(1j * np.outer(ts, omegas)), coefs)

    def shift(self, s: int) -> "TrigPolynomial":
        return TrigPolynomial(
            tuple((coef * np.exp(1j * omega * s), omega) for coef, omega in self.terms),
            self.dimension,
        )

    def sup_bound(self) -> float:
        if not self.terms:
            return 0.0
        return float(np.max(sum(np.abs(c) for c, _ in self.terms)))

    def constant_on_unit_interval(self, n: int) -> np.ndarray | None:
        if all(w == 0.0 for _, w in self.terms):
            return self.evaluate(float(n))
        return None

    def trig_terms(self):
        return [(c.copy(), w) for c, w in self.terms]


@dataclass(frozen=True)
class StepOfSequence(Signal):
    """t -> g([t]) for a sequence g; constant on [n, n+1), right-continuous."""

    generator: Callable[[int], np.ndarray]
    dimension: int
    offset: int = 0
    declared_sup: float | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def from_sequence(generator, dimension: int | None = None,
                      declared_sup: float | None = None) -> "StepOfSequence":
        probe = _as_coef(generator(0), dimension)
        return StepOfSequence(generator, probe.shape[0], 0, declared_sup)

    @staticmethod
    def from_periodic_values(values) -> "StepOfSequence":
        vals = [np.atleast_1d(np.asarray(v, dtype=complex)) for v in values]
        if not vals:
            raise ValueError("need at least one value")
        dim = vals[0].shape[0]
        table = tuple(vals)
        sup = max(float(np.max(np.abs(v))) for v in vals)
        return StepOfSequence(lambda n: table[n % len(table)], dim, 0, sup)

    def sequence_value(self, n: int) -> np.ndarray:
        key = n + self.offset
        if key not in self._cache:
            v = _as_coef(self.generator(key), self.dimension)
            mag = float(np.max(np.abs(v)))
            if self.declared_sup is not None and mag > self.declared_sup + 1e-12:
                raise ValueError(
                    f"sequence value at {key} exceeds its declared bound "
                    f"({mag:.6g} > {self.declared_sup:.6g})"
                )
            self._cache[key] = v
        return self._cache[key]

    def evaluate(self, t: float) -> np.ndarray:
        return self.sequence_value(int(math.floor(t)))

    def shift(self, s: int) -> "StepOfSequence":
        return StepOfSequence(self.generator, self.dimension, self.offset + int(s),
                              self.declared_sup)

    def sup_bound(self) -> float:
        """The declared bound; 0 when none was declared."""
        return 0.0 if self.declared_sup is None else self.declared_sup

    def constant_on_unit_interval(self, n: int) -> np.ndarray | None:
        return self.sequence_value(n)


@dataclass(frozen=True)
class RationalPeriodic(Signal):
    """Exactly (p0/q0)-periodic signal given by a one-period rule.

    The phase bookkeeping is rational, so integer shifts and whole-period
    translations are exact by construction.
    """

    p0: int
    q0: int
    rule: Callable[[float], np.ndarray]
    dimension: int
    phase: Fraction = Fraction(0)
    rule_breaks: tuple[float, ...] = ()
    sup_hint: float | None = None
    # (m, p) sample table of a piecewise-constant rule, set by from_samples
    table: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def period(self) -> float:
        return self.p0 / self.q0

    @staticmethod
    def from_samples(p0: int, q0: int, samples) -> "RationalPeriodic":
        vals = [np.atleast_1d(np.asarray(v, dtype=complex)) for v in samples]
        if not vals:
            raise ValueError("need at least one sample")
        dim = vals[0].shape[0]
        table = np.stack([_as_coef(v, dim) for v in vals])
        m = len(vals)
        period = p0 / q0

        def rule(tau: float) -> np.ndarray:
            idx = int(math.floor(tau * m / period))
            return table[min(max(idx, 0), m - 1)]

        breaks = tuple(j * period / m for j in range(1, m))
        sup = float(np.max(np.abs(table)))
        return RationalPeriodic(int(p0), int(q0), rule, dim, Fraction(0), breaks, sup,
                                table)

    @staticmethod
    def from_callable(p0: int, q0: int, fn, dimension: int) -> "RationalPeriodic":
        probe = _as_coef(fn(0.0), dimension)
        return RationalPeriodic(int(p0), int(q0), fn, probe.shape[0])

    def _wrap(self, t: float) -> float:
        period = self.period
        x = t + float(self.phase)
        return x - period * math.floor(x / period)

    def evaluate(self, t: float) -> np.ndarray:
        return _as_coef(self.rule(self._wrap(t)), self.dimension)

    def evaluate_grid(self, ts) -> np.ndarray:
        if self.table is None:
            return super().evaluate_grid(ts)
        # the arithmetic of _wrap and of the from_samples rule, on arrays
        period = self.period
        m = len(self.table)
        x = np.asarray(ts, dtype=float) + float(self.phase)
        tau = x - period * np.floor(x / period)
        idx = np.floor(tau * m / period).astype(int)
        return self.table[np.clip(idx, 0, m - 1)]

    def shift(self, s: int) -> "RationalPeriodic":
        new_phase = (self.phase + s) % Fraction(self.p0, self.q0)
        return RationalPeriodic(self.p0, self.q0, self.rule, self.dimension,
                                new_phase, self.rule_breaks, self.sup_hint, self.table)

    def sup_bound(self) -> float:
        if self.sup_hint is not None:
            return self.sup_hint
        taus = np.linspace(0.0, self.period, 512, endpoint=False)
        return max(float(np.max(np.abs(self.rule(float(tau))))) for tau in taus)

    def breakpoints_in(self, a: float, b: float) -> list[float]:
        period = self.period
        pts = set()
        # wrap points (tau = 0) and rule-internal breaks, mapped to real time
        for tau in (0.0, *self.rule_breaks):
            k0 = math.floor((a + float(self.phase) - tau) / period)
            for k in range(int(k0), int(k0 + (b - a) / period) + 2):
                t = tau - float(self.phase) + k * period
                if a < t < b and abs(t - round(t)) > 1e-12:
                    pts.add(t)
        return sorted(pts)


@dataclass(frozen=True)
class AATest(Signal):
    """amplitude * sin(1 / (2 + cos(t) + cos(sqrt(2) t))).

    The standard almost automorphic signal that is not almost periodic; the
    inner denominator never vanishes but approaches zero along sparse times.
    """

    amplitude: np.ndarray
    dimension: int
    phase1: float = 0.0
    phase2: float = 0.0

    @staticmethod
    def from_amplitude(amplitude) -> "AATest":
        c = _as_coef(amplitude)
        return AATest(c, c.shape[0])

    def _base(self, t) -> np.ndarray:
        denom = 2.0 + np.cos(t + self.phase1) + np.cos(_SQRT2 * t + self.phase2)
        return np.sin(1.0 / denom)

    def evaluate(self, t: float) -> np.ndarray:
        return self.amplitude * self._base(float(t))

    def evaluate_grid(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.outer(self._base(ts), self.amplitude)

    def shift(self, s: int) -> "AATest":
        return AATest(self.amplitude, self.dimension,
                      self.phase1 + s, self.phase2 + _SQRT2 * s)

    def sup_bound(self) -> float:
        return float(np.max(np.abs(self.amplitude)))


@dataclass(frozen=True)
class Sum(Signal):
    parts: tuple[Signal, ...]
    dimension: int

    @staticmethod
    def of(*parts: Signal) -> "Sum":
        if not parts:
            raise ValueError("empty sum")
        dim = parts[0].dimension
        if any(p.dimension != dim for p in parts):
            raise ValueError("summands disagree on dimension")
        return Sum(tuple(parts), dim)

    def evaluate(self, t: float) -> np.ndarray:
        out = np.zeros(self.dimension, dtype=complex)
        for part in self.parts:
            out = out + part.evaluate(t)
        return out

    def evaluate_grid(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.zeros((ts.size, self.dimension), dtype=complex)
        for part in self.parts:
            out = out + part.evaluate_grid(ts)
        return out

    def shift(self, s: int) -> "Sum":
        return Sum(tuple(p.shift(s) for p in self.parts), self.dimension)

    def sup_bound(self) -> float:
        return sum(p.sup_bound() for p in self.parts)

    def breakpoints_in(self, a: float, b: float) -> list[float]:
        pts: set[float] = set()
        for part in self.parts:
            pts.update(part.breakpoints_in(a, b))
        return sorted(pts)

    def constant_on_unit_interval(self, n: int) -> np.ndarray | None:
        acc = np.zeros(self.dimension, dtype=complex)
        for part in self.parts:
            c = part.constant_on_unit_interval(n)
            if c is None:
                return None
            acc = acc + c
        return acc

    def trig_terms(self):
        merged: list[tuple[np.ndarray, float]] = []
        for part in self.parts:
            terms = part.trig_terms()
            if terms is None:
                return None
            merged.extend(terms)
        return merged


class _OuterMap(NamedTuple):
    """A continuous outer map g of the composition catalog."""

    fn: Callable                 # (params, z) -> g(z)
    bound: Callable              # (params, r) -> a bound on |g(z)| over |z| <= r
    arity: tuple[int, int]       # the least and the most parameters it takes


_OUTER_MAPS = {
    "identity": _OuterMap(lambda ps, z: z, lambda ps, r: r, (0, 0)),
    # |sin z|, |cos z| <= cosh |z| for complex z, = 1 on the reals
    "sin": _OuterMap(lambda ps, z: np.sin(z), lambda ps, r: float(np.cosh(r)), (0, 0)),
    "cos": _OuterMap(lambda ps, z: np.cos(z), lambda ps, r: float(np.cosh(r)), (0, 0)),
    "square": _OuterMap(lambda ps, z: z * z, lambda ps, r: r * r, (0, 0)),
    "cube": _OuterMap(lambda ps, z: z * z * z, lambda ps, r: r ** 3, (0, 0)),
    "affine": _OuterMap(lambda ps, z: ps[0] * z + ps[1],
                        lambda ps, r: abs(ps[0]) * r + abs(ps[1]), (2, 2)),
    "poly": _OuterMap(lambda ps, z: sum(c * z ** k for k, c in enumerate(ps)),
                      lambda ps, r: float(sum(abs(c) * r ** k for k, c in enumerate(ps))),
                      (1, 5)),
}


@dataclass(frozen=True)
class Composite(Signal):
    """Componentwise continuous map applied to another signal."""

    outer_tag: str
    outer_params: tuple[float, ...]
    inner: Signal
    dimension: int

    def _outer(self, z):
        return _OUTER_MAPS[self.outer_tag].fn(self.outer_params, z)

    def evaluate(self, t: float) -> np.ndarray:
        return np.atleast_1d(self._outer(self.inner.evaluate(t)))

    def evaluate_grid(self, ts) -> np.ndarray:
        return self._outer(self.inner.evaluate_grid(ts))

    def shift(self, s: int) -> "Composite":
        return Composite(self.outer_tag, self.outer_params, self.inner.shift(s),
                         self.dimension)

    def sup_bound(self) -> float:
        return _OUTER_MAPS[self.outer_tag].bound(self.outer_params,
                                                self.inner.sup_bound())

    def breakpoints_in(self, a: float, b: float) -> list[float]:
        return self.inner.breakpoints_in(a, b)

    def constant_on_unit_interval(self, n: int) -> np.ndarray | None:
        c = self.inner.constant_on_unit_interval(n)
        if c is None:
            return None
        return np.atleast_1d(self._outer(c))


def compose(outer, inner: Signal) -> Composite:
    """Compose a catalog outer map with a signal.

    ``outer`` is a tag string, or ('affine', a, b), or ('poly', c0..ck) with
    k <= 4.  An unknown tag or a wrong parameter count raises ValueError.
    """
    if isinstance(outer, str):
        tag, params = outer, ()
    else:
        tag, *rest = outer
        params = tuple(float(x) for x in rest)
    if tag not in _OUTER_MAPS:
        raise ValueError(f"unsupported outer map {tag!r}")
    least, most = _OUTER_MAPS[tag].arity
    if not least <= len(params) <= most:
        counts = str(least) if least == most else f"{least} to {most}"
        raise ValueError(f"outer map {tag!r} takes {counts} parameters, "
                         f"got {len(params)}")
    return Composite(tag, params, inner, inner.dimension)


@dataclass(frozen=True)
class CallableSignal(Signal):
    """Evaluator-backed signal; ``fn(0.0)`` is probed once at construction,
    so a function of the wrong length fails there.

    It declares no bound, so ``sup_bound`` is 0; a solver that needs sup|f|
    (``massera_solve``) samples |f| itself.
    """

    fn: Callable[[float], np.ndarray]
    dimension: int

    def __post_init__(self):
        _as_coef(self.fn(0.0), self.dimension)

    def evaluate(self, t: float) -> np.ndarray:
        return _as_coef(self.fn(float(t)), self.dimension)

    def shift(self, s: int) -> "CallableSignal":
        base = self.fn
        return CallableSignal(lambda t: base(t + s), self.dimension)

    def sup_bound(self) -> float:
        return 0.0


# ---------------------------------------------------------------------------
# the boundedness screen of a primitive


@dataclass(frozen=True)
class PrimitiveBoundednessReport:
    verdict: str                 # 'bounded-on-window' | 'unbounded-suspected'
    sup_estimate: float
    window: float
    dyadic_maxima: tuple[float, ...]
    ratios: tuple[float, ...]

    @property
    def is_bounded(self) -> bool:
        return self.verdict == "bounded-on-window"


def integral_primitive_bounded(ts, values, window: float
                               ) -> PrimitiveBoundednessReport:
    """Screen whether F(t) = integral_0^t f stays bounded on [-window, window],
    from ``values``, F at the times ``ts`` (one row per time).

    The verdict compares max |F| over dyadic sub-windows: ratios
    persistently at ``growth_ratio`` or above indicate at least linear
    growth and yield 'unbounded-suspected'.
    """
    ts = np.asarray(ts, dtype=float)
    inside = np.abs(ts) <= window + 1e-12
    ts = ts[inside]
    mags = np.max(np.abs(np.asarray(values)[inside]), axis=1)

    levels = 4 if window >= 8 else max(2, int(math.log2(max(window, 2.0))))
    maxima = []
    for j in range(levels - 1, -1, -1):
        w = window / (2 ** j)
        mask = np.abs(ts) <= w + 1e-12
        maxima.append(float(np.max(mags[mask])) if np.any(mask) else 0.0)
    ratios = []
    for small, large in zip(maxima[:-1], maxima[1:]):
        ratios.append(large / small if small > 1e-300 else 1.0)

    suspect = bool(ratios) and min(ratios) >= DEFAULT.growth_ratio
    return PrimitiveBoundednessReport(
        verdict="unbounded-suspected" if suspect else "bounded-on-window",
        sup_estimate=float(np.max(mags)),
        window=float(window),
        dyadic_maxima=tuple(maxima),
        ratios=tuple(ratios),
    )
