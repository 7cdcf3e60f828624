"""Independent high-precision reference for the benchmark's correctness check.

Everything here is mpmath at 30 digits and imports no depca code; it reads
the same plain-data case description that the generator hands to depca.
For x'(t) = A x(t) + B x([t]) + f(t) the companion system is
x(n+1) = C x(n) + h(n) with C = e^A + Phi(1) B, Phi(u) = int_0^u e^{As} ds,
and on [n, n+1) x(n+u) = (e^{Au} + Phi(u) B) x(n) + int_n^{n+u} e^{A(n+u-s)} f(s) ds.

- trig forcing c e^{iwt}: h(n) = h0 e^{iwn}, x(n) = kappa e^{iwn},
  kappa = (e^{iw} I - C)^{-1} h0, h0 = (iwI - A)^{-1} (e^{iw} I - e^A) c;
- step and rational-periodic forcing (integer period q):
  x(n) = (I - C^q)^{-1} sum_j C^{q-1-j} h(n+j), h(n) exact piecewise;
- Massera (B = 0) with trig forcing: x(t) = (iwI - A)^{-1} c e^{iwt};
- the rotation x(t) = e^{i theta t} (x0 + int_0^t e^{-i theta s} f(s) ds);
- AA and sin(cos) forcing: h(n) by mpmath quadrature, summed along the
  decaying Green series G(d) = C^d P (d >= 0), -C^d (I - P) (d < 0).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 30

# A sample fails when |x - x_ref| > BOUND_FACTOR * tol * max(1, |x_ref|),
# sup norms, tol being the op's requested tolerance.
BOUND_FACTOR = 100.0

_SQRT2 = mp.sqrt(2)


def _m(rows) -> mp.matrix:
    return mp.matrix([[mp.mpmathify(v) for v in r] for r in rows])


def _col(v) -> mp.matrix:
    return mp.matrix([mp.mpmathify(x) for x in v])


def _mpf(u) -> mp.mpf:
    u = Fraction(u)
    return mp.mpf(u.numerator) / u.denominator


def _trig_terms(spec: dict) -> list[tuple[mp.matrix, mp.mpf]]:
    c = _col(spec["coef"]) / 2
    w = mp.mpf(spec["omega"])
    return [(c, w), (c, -w)]


class Hybrid:
    """The pair (A, B) in 30-digit arithmetic."""

    def __init__(self, a, b=None):
        self.A = _m(a)
        self.p = self.A.rows
        self.I = mp.eye(self.p)
        self.B = _m(b) if b is not None else mp.zeros(self.p)
        self._blocks = {}
        e1, phi1 = self.blocks(1)
        self.C = e1 + phi1 * self.B

    def blocks(self, u) -> tuple[mp.matrix, mp.matrix]:
        """(e^{Au}, Phi(u)) from one exponential of [[A, I], [0, 0]] u."""
        key = Fraction(u).limit_denominator(10**9)
        if key not in self._blocks:
            p = self.p
            w = mp.zeros(2 * p)
            uu = _mpf(key)
            for i in range(p):
                for j in range(p):
                    w[i, j] = self.A[i, j] * uu
                w[i, p + i] = uu
            e = mp.expm(w)
            self._blocks[key] = (e[0:p, 0:p], e[0:p, p:2 * p])
        return self._blocks[key]

    def z(self, u) -> mp.matrix:
        e, phi = self.blocks(u)
        return e + phi * self.B

    def resolvent(self, w) -> mp.matrix:
        return mp.inverse(1j * w * self.I - self.A)

    # -- bounded solution for a periodic h -------------------------------

    def periodic_samples(self, h, q: int, ns) -> dict:
        """x(n) for q-periodic h(n): x(n) = (I - C^q)^{-1} sum C^{q-1-j} h(n+j)."""
        inv = mp.inverse(self.I - self.C ** q)
        out = {}
        for n in ns:
            acc = mp.zeros(self.p, 1)
            for j in range(q):
                acc += self.C ** (q - 1 - j) * h(n + j)
            out[n] = inv * acc
        return out


# ---------------------------------------------------------------------------
# forcing-specific pieces


class _Trig:
    def __init__(self, hyb: Hybrid, spec: dict):
        self.hyb = hyb
        self.terms = _trig_terms(spec)
        e1, _ = hyb.blocks(1)
        self.kappa = []
        for c, w in self.terms:
            h0 = hyb.resolvent(w) * (mp.expj(w) * hyb.I - e1) * c
            self.kappa.append(mp.inverse(mp.expj(w) * hyb.I - hyb.C) * h0)

    def x(self, n: int) -> mp.matrix:
        return sum((k * mp.expj(w * n) for k, (_, w) in zip(self.kappa, self.terms)),
                   mp.zeros(self.hyb.p, 1))

    def forcing_part(self, n: int, u) -> mp.matrix:
        e, _ = self.hyb.blocks(u)
        uu = _mpf(u)
        return sum((self.hyb.resolvent(w) * (mp.expj(w * uu) * self.hyb.I - e) * c
                    * mp.expj(w * n) for c, w in self.terms), mp.zeros(self.hyb.p, 1))


class _Step:
    def __init__(self, hyb: Hybrid, spec: dict):
        self.hyb = hyb
        self.values = [_col(v) for v in spec["values"]]
        self.q = len(self.values)
        _, phi1 = hyb.blocks(1)
        self._h = lambda n: phi1 * self.values[n % self.q]
        self._x = {}

    def x(self, n: int) -> mp.matrix:
        if n not in self._x:
            self._x.update(self.hyb.periodic_samples(self._h, self.q, [n]))
        return self._x[n]

    def forcing_part(self, n: int, u) -> mp.matrix:
        _, phi = self.hyb.blocks(u)
        return phi * self.values[n % self.q]


class _Rational:
    """Piecewise-constant (p0/q0)-periodic rule with m pieces per period."""

    def __init__(self, hyb: Hybrid, spec: dict):
        self.hyb = hyb
        self.period = Fraction(spec["p0"], spec["q0"])
        self.samples = [_col(v) for v in spec["samples"]]
        self.m = len(self.samples)
        self.q = spec["p0"]  # f(t + p0) = f(t), so h(n) is p0-periodic
        self._x = {}

    def value(self, t: Fraction) -> mp.matrix:
        tau = t - self.period * math.floor(t / self.period)
        return self.samples[min(math.floor(tau * self.m / self.period), self.m - 1)]

    def integral(self, n: int, u: Fraction) -> mp.matrix:
        """int_n^{n+u} e^{A(n+u-s)} f(s) ds, exact across the jumps."""
        end = n + u
        step = self.period / self.m
        cuts = [Fraction(n)]
        k = math.floor(Fraction(n) / step) + 1
        while k * step < end:
            cuts.append(k * step)
            k += 1
        cuts.append(end)
        acc = mp.zeros(self.hyb.p, 1)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            _, phi_lo = self.hyb.blocks(end - lo)
            _, phi_hi = self.hyb.blocks(end - hi)
            acc += (phi_lo - phi_hi) * self.value((lo + hi) / 2)
        return acc

    def x(self, n: int) -> mp.matrix:
        if n not in self._x:
            h = lambda k: self.integral(k, Fraction(1))
            self._x.update(self.hyb.periodic_samples(h, self.q, [n]))
        return self._x[n]

    def forcing_part(self, n: int, u) -> mp.matrix:
        return self.integral(n, Fraction(u).limit_denominator(10**6))


def _aa_value(spec):
    amp = _col(spec["amplitude"])

    def f(s):
        return amp * mp.sin(1 / (2 + mp.cos(s) + mp.cos(_SQRT2 * s)))
    return f


def _sin_cos_value(spec):
    coef = [mp.mpf(c) for c in spec["coef"]]
    w = mp.mpf(spec["omega"])

    def f(s):
        inner = mp.cos(w * s)
        return mp.matrix([mp.sin(c * inner) for c in coef])
    return f


class _Quad:
    """Generic forcing: h(n) by quadrature in the eigenbasis of A, x(n) by
    the Green series truncated where the decaying factor drops below 1e-17."""

    def __init__(self, hyb: Hybrid, spec: dict):
        self.hyb = hyb
        self.f = {"aa": _aa_value, "sin_cos": _sin_cos_value}[spec["kind"]](spec)
        self.lam, self.V = mp.eig(hyb.A)
        self.Vinv = mp.inverse(self.V)
        mu, w = mp.eig(hyb.C)
        winv = mp.inverse(w)
        stable = mp.diag([1 if abs(z) < 1 else 0 for z in mu])
        self.P = w * stable * winv
        rho = max([abs(z) for z in mu if abs(z) < 1]
                  + [1 / abs(z) for z in mu if abs(z) > 1])
        self.radius = int(math.ceil(39.0 / -math.log(float(rho))))
        self.Cinv = mp.inverse(hyb.C)
        self._h = {}

    def integral(self, lo, hi, t_end) -> mp.matrix:
        """int_lo^hi e^{A(t_end - s)} f(s) ds."""
        comps = []
        for i, lam in enumerate(self.lam):
            row = self.Vinv[i, :]

            def g(s, lam=lam, row=row):
                return mp.exp(lam * (t_end - s)) * (row * self.f(s))[0]
            comps.append(mp.quad(g, [lo, hi]))
        return self.V * mp.matrix(comps)

    def h(self, k: int) -> mp.matrix:
        if k not in self._h:
            self._h[k] = self.integral(k, k + 1, k + 1)
        return self._h[k]

    def green(self, d: int) -> mp.matrix:
        if d >= 0:
            return self.hyb.C ** d * self.P
        return -(self.Cinv ** (-d)) * (self.hyb.I - self.P)

    def x(self, n: int) -> mp.matrix:
        acc = mp.zeros(self.hyb.p, 1)
        for k in range(n - 1 - self.radius, n + self.radius):
            acc += self.green(n - k - 1) * self.h(k)
        return acc

    def forcing_part(self, n: int, u) -> mp.matrix:
        return self.integral(n, n + _mpf(u), n + _mpf(u))


_KINDS = {"cos": _Trig, "step": _Step, "rational": _Rational, "aa": _Quad,
          "sin_cos": _Quad}


class Solution:
    """Reference bounded solution of one generated hybrid system."""

    def __init__(self, a, b, forcing: dict):
        self.hyb = Hybrid(a, b)
        self.kind = _KINDS[forcing["kind"]](self.hyb, forcing)

    def at_integer(self, n: int) -> list[complex]:
        return [complex(v) for v in self.kind.x(n)]

    def at(self, t: float) -> list[complex]:
        """x(t) for t = n + u with u a short dyadic fraction."""
        n = math.floor(t)
        u = Fraction(t - n).limit_denominator(64)
        if u == 0:
            return self.at_integer(n)
        x = self.hyb.z(u) * self.kind.x(n) + self.kind.forcing_part(n, u)
        return [complex(v) for v in x]

    def companion_eigenvalues(self) -> list[complex]:
        return [complex(z) for z in mp.eig(self.hyb.C)[0]]


def massera(a, forcing: dict, t: float) -> list[complex]:
    """Bounded solution of x' = A x + f for hyperbolic A (B = 0)."""
    hyb = Hybrid(a)
    tt = mp.mpf(t)
    if forcing["kind"] == "cos":
        x = sum((hyb.resolvent(w) * c * mp.expj(w * tt) for c, w in _trig_terms(forcing)),
                mp.zeros(hyb.p, 1))
        return [complex(v) for v in x]
    f = _aa_value(forcing)
    lam, v = mp.eig(hyb.A)
    vinv = mp.inverse(v)
    comps = []
    for i, z in enumerate(lam):
        span = int(math.ceil(41.0 / abs(float(mp.re(z)))))
        row = vinv[i, :]

        def g(s, z=z, row=row):
            return mp.exp(z * (tt - s)) * (row * f(s))[0]
        if mp.re(z) < 0:
            cells = [tt - span + k for k in range(span + 1)]
            comps.append(mp.quad(g, cells))
        else:
            cells = [tt + k for k in range(span + 1)]
            comps.append(-mp.quad(g, cells))
    return [complex(x) for x in v * mp.matrix(comps)]


def rotation(theta: float, forcing: dict, x0: complex, t: float) -> complex:
    """x(t) = e^{i theta t} (x0 + int_0^t e^{-i theta s} f(s) ds), f trig."""
    th = mp.mpf(theta)
    tt = mp.mpf(t)
    acc = mp.mpc(x0)
    for c, w in _trig_terms(forcing):
        acc += c[0] * (mp.expj((w - th) * tt) - 1) / (1j * (w - th))
    return complex(mp.expj(th * tt) * acc)


def within(value, ref, tol: float) -> tuple[bool, float]:
    """(passes, error) of one sample against its reference."""
    err = max(abs(complex(x) - complex(y)) for x, y in zip(value, ref))
    allowed = BOUND_FACTOR * tol * max(1.0, max(abs(complex(y)) for y in ref))
    return err <= allowed, err
