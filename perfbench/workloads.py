"""Seeded input generator for the depca benchmark.

A workload is a fixed cycle of *cases* (one config class each: path or mode,
p, forcing kind, window, tol) whose numbers are drawn from the seed.  The
op list repeats the cycle a fixed number of rounds, so the op count, and
every per-layer count, depends only on (seed, seconds), never on speed.
Inputs are plain data (lists and floats) so that the independent reference
in ``reference.py`` reads exactly what depca was given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Why each workload exists: the layer it stresses and the direction of the
# roadmap whose effect shows on it (and nowhere else).
WHY = {
    "direct_closed_form": (
        "solve_bounded_depca with the residual check on, p in {1,3,8,16}, "
        "trig or step forcing so h(n) has a closed form and no quadrature "
        "runs.  Stresses the invertibility screen (2049-point eigenvalue "
        "condition loop, ~430 expm calls per solve), the certificate, the "
        "Green sum and the residual check, and bypasses the integrator.  "
        "p=16 fails today with a bare ValueError from expm_integral and "
        "stays in."),
    "quadrature": (
        "Direct solves with almost-automorphic, rational-periodic and "
        "sin(cos) forcing at p in {1,2}, plus massera_solve with evaluate "
        "calls and imaginary_scalar_solve.  The only workload where adaptive "
        "quadrature and per-node expm dominate, so one-integrator work shows "
        "here and not in direct_closed_form.  The AA p=2 tol=1e-9 system "
        "from the roadmap raises QuadratureError and stays in."),
    "cascade": (
        "solve_by_reduction on coupled upper-triangular p=2 pairs with trig "
        "and step forcing, windows [-3,3] and [-4,4], with decoupled diagonal "
        "p=3 pairs as the contrast.  The only path through reduction and the "
        "nested CallableSignal quadrature, so cascade rewrites show here and "
        "nowhere else."),
    "cli_dense": (
        "In-process depca.cli.main runs cycling solve, verify, dichotomy and "
        "scan on p in {1,2,3} with periodic forcing and period set, "
        "interleaved with evaluate_grid on 20 001 points of a freshly solved "
        "trajectory.  Dense evaluation, diagnostics, verify_certificate and "
        "CSV/report writing dominate; cache growth shows in peak RSS."),
}

# Seconds one cycle of each workload took at the commit that introduced the
# benchmark (single thread, 2-core x86-64 container).  Only used to turn
# --seconds into a fixed number of rounds.
CYCLE_SECONDS = {
    "direct_closed_form": 2.4,
    "quadrature": 6.0,
    "cascade": 5.0,
    "cli_dense": 8.3,
}


@dataclass
class Case:
    """One generated input.  ``path`` names the entry point or CLI mode."""

    cid: str
    workload: str
    path: str
    p: int
    forcing: dict
    window: tuple[int, int]
    tol: float
    a: list | None = None
    b: list | None = None
    extra: dict = field(default_factory=dict)
    # A defect of depca this case is known to hit at the benchmark's parent
    # commit.  It still counts as a failed op; it only does not make the run
    # ``correct: false``, so an unexpected wrong answer stays visible.
    known_defect: str = ""

    def row(self) -> dict:
        return {"workload": self.workload, "case": self.cid, "path": self.path,
                "p": self.p, "forcing": self.forcing["kind"],
                "window": f"[{self.window[0]},{self.window[1]}]",
                "tol": self.tol, "known_defect": self.known_defect}


# The warm-up op of each workload: a cheap case that touches its code paths.
WARMUP = {
    "direct_closed_form": "1-cos-",
    "quadrature": "sin_cos-1-",
    "cascade": "diagonal-cos",
    "cli_dense": "1-dichotomy-",
}


def warmup_case(cases: list[Case]) -> Case:
    prefix = WARMUP[cases[0].workload]
    return next(c for c in cases if c.cid.startswith(prefix))


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


# ---------------------------------------------------------------------------
# seeded building blocks


def _pair(rng: np.random.Generator, p: int, coupled: bool = True
          ) -> tuple[list, list]:
    """Upper-triangular (A, B).  The diagonal pairs are fixed per level, so
    the cost of a solve (truncation radius, certificate) does not depend on
    the seed: every interval propagator stays invertible (beta > 0), C stays
    hyperbolic, and stable and unstable levels alternate.  The seed draws
    the couplings above the diagonal."""
    alpha = [0.7 if i % 3 == 2 else -1.0 - 0.1 * (i % 5) for i in range(p)]
    beta = [0.2 + 0.05 * (i % 4) for i in range(p)]
    a = np.diag(alpha)
    b = np.diag(beta)
    if coupled and p > 1:
        scale = 0.3 / math.sqrt(p)
        a = a + np.triu(rng.uniform(-scale, scale, (p, p)), 1)
        b = b + np.triu(rng.uniform(-scale, scale, (p, p)), 1)
    return a.tolist(), b.tolist()


def _vec(rng: np.random.Generator, p: int) -> list:
    v = rng.uniform(-1.0, 1.0, p)
    v[0] = math.copysign(max(abs(v[0]), 0.3), v[0])
    return v.tolist()


def _cos(rng, p):
    return {"kind": "cos", "coef": _vec(rng, p), "omega": rng.uniform(0.7, 2.5)}


def _step(rng, p):
    return {"kind": "step", "values": [_vec(rng, p) for _ in range(3)]}


def _rational(rng, p):
    # period 6/5 with 2 or 3 pieces puts every jump at a multiple of 0.2
    return {"kind": "rational", "p0": 6, "q0": 5,
            "samples": [_vec(rng, p) for _ in range(2 + p % 2)]}


def _aa(rng, p):
    return {"kind": "aa", "amplitude": _vec(rng, p)}


def _sin_cos(rng, p):
    # a narrow frequency band: the quadrature cost grows with the frequency
    return {"kind": "sin_cos", "coef": _vec(rng, p), "omega": rng.uniform(1.2, 1.4)}


def _strong_pair(rng, p):
    """Strongly hyperbolic pair (|c| far from 1) so quadrature solves stay
    short: the truncation radius, hence the number of h(n), shrinks."""
    a = np.diag([-3.0, 2.0][:p])
    if p > 1:
        a[0, 1] = rng.uniform(-0.4, 0.4)
    return a.tolist(), np.diag([0.4, 0.3][:p]).tolist()


# ---------------------------------------------------------------------------
# workloads

# Defects of depca that some generated inputs hit at the benchmark's parent
# commit.  Those inputs stay in, as failed ops.
_P16 = ("expm_integral passes a 2p x 2p matrix to the public expm, which "
        "rejects p > 8 with a bare ValueError")
# A=[[-1,.3],[0,.5]], B=diag(.2,-.3), AA amplitude [1,1], window [-5,5],
# tol=1e-9: raises QuadratureError at the parent commit; kept verbatim.
_ROADMAP_AA = dict(a=[[-1.0, 0.3], [0.0, 0.5]], b=[[0.2, 0.0], [0.0, -0.3]],
                   forcing={"kind": "aa", "amplitude": [1.0, 1.0]})
_AA_BUDGET = ("adaptive_gl halves an absolute error budget per level, below "
              "round-off near the AA signal's near-singular times")
_JUMP_PROBE = ("ode_residual_check takes central differences across jumps of "
               "the forcing when a jump sits on one of its probe points")
_MASSERA_MIXED = ("massera_solve applies the full e^{A(t-s)} to Q f for s > t, "
                  "so a non-normal A with mixed spectrum amplifies round-off "
                  "through the stable mode")


def _direct_closed_form(rng, rounds):
    cases = []
    for p in (1, 3, 8):
        for maker in (_cos, _step):
            for k in range(2):
                a, b = _pair(rng, p)
                forcing = maker(rng, p)
                for tol in (1e-9, 1e-6):
                    cases.append(Case(f"{p}-{maker.__name__[1:]}-{tol:g}-{k}",
                                      "direct_closed_form", "solve_bounded_depca",
                                      p, forcing, (-10, 10), tol, a, b))
    wide = []
    for maker in (_cos, _step):
        for tol in (1e-9, 1e-6):
            a, b = _pair(rng, 16)
            wide.append(Case(f"16-{maker.__name__[1:]}-{tol:g}", "direct_closed_form",
                             "solve_bounded_depca", 16, maker(rng, 16), (-10, 10),
                             tol, a, b, known_defect=_P16))
    ops = []
    for r in range(rounds):
        ops.extend(cases)
        ops.append(wide[r % len(wide)])
    return ops


def _quadrature(rng, rounds):
    cases = []
    for maker in (_aa, _rational, _sin_cos):
        for p in (1, 2):
            a, b = _strong_pair(rng, p)
            forcing = maker(rng, p)
            for tol in (1e-9, 1e-6):
                cases.append(Case(f"{maker.__name__[1:]}-{p}-{tol:g}", "quadrature",
                                  "solve_bounded_depca", p, forcing, (-2, 2),
                                  tol, a, b))
    ts = [round(float(t), 3) for t in rng.uniform(-1.5, 1.5, 3)]
    a1, _ = _strong_pair(rng, 1)
    cases.append(Case("massera-cos-1", "quadrature", "massera_solve", 1,
                      _cos(rng, 1), (-2, 2), 1e-9, a1, None, {"ts": ts}))
    a2, _ = _strong_pair(rng, 2)
    a2[1][1] = -a2[1][1]  # stable spectrum; the mixed one is a known defect
    cases.append(Case("massera-aa-2", "quadrature", "massera_solve", 2,
                      _aa(rng, 2), (-2, 2), 1e-6, a2, None, {"ts": ts}))
    for k in range(2):
        theta = rng.uniform(0.8, 1.2)
        cases.append(Case(f"rotation-{k}", "quadrature", "imaginary_scalar_solve",
                          1, {"kind": "cos", "coef": _vec(rng, 1),
                              "omega": theta + rng.uniform(0.8, 1.2)},
                          (-10, 10), 1e-9, None, None,
                          {"theta": theta, "x0": [rng.uniform(-1, 1), rng.uniform(-1, 1)],
                           "ts": ts}))
    a, b = _strong_pair(rng, 1)
    a_mixed, _ = _strong_pair(rng, 2)
    known = [
        Case("aa-roadmap", "quadrature", "solve_bounded_depca", 2,
             _ROADMAP_AA["forcing"], (-5, 5), 1e-9, _ROADMAP_AA["a"], _ROADMAP_AA["b"],
             known_defect=_AA_BUDGET),
        # period 3/2 in 3 pieces: a jump at every n + 1/2, a residual probe point
        Case("rational-jump-1", "quadrature", "solve_bounded_depca", 1,
             {"kind": "rational", "p0": 3, "q0": 2,
              "samples": [_vec(rng, 1) for _ in range(3)]},
             (-2, 2), 1e-9, a, b, known_defect=_JUMP_PROBE),
        Case("massera-aa-mixed-2", "quadrature", "massera_solve", 2, _aa(rng, 2),
             (-2, 2), 1e-6, a_mixed, None, {"ts": ts}, known_defect=_MASSERA_MIXED),
    ]
    ops = []
    for r in range(rounds):
        ops.extend(cases)
        ops.extend([known[r % 3], known[(r + 1) % 3]])
    return ops


def _cascade(rng, rounds):
    cases = []
    for maker, half in ((_cos, 3), (_step, 4)):
        for tol in (1e-9, 1e-6):
            a = [[-3.0, rng.uniform(0.2, 0.5)], [0.0, -2.0]]
            b = [[0.5, rng.uniform(0.1, 0.3)], [0.0, 0.3]]
            cases.append(Case(f"coupled-{maker.__name__[1:]}-{tol:g}", "cascade",
                              "solve_by_reduction", 2, maker(rng, 2), (-half, half),
                              tol, a, b))
    for maker in (_cos, _step):
        a, b = _pair(rng, 3, coupled=False)
        cases.append(Case(f"diagonal-{maker.__name__[1:]}", "cascade",
                          "solve_by_reduction", 3, maker(rng, 3), (-3, 3), 1e-9, a, b))
    return cases * rounds


def _cli_dense(rng, rounds):
    cases = []
    for p in (1, 2, 3):
        a, b = _pair(rng, p)
        # forcing period 3/2, so the trajectory's integer period is 3
        forcing = {"kind": "cos", "coef": _vec(rng, p), "omega": 4.0 * math.pi / 3.0}
        for mode in ("solve", "eval", "verify", "solve", "dichotomy", "eval",
                     "scan", "solve"):
            window = (-10, 10) if mode == "eval" else (-3, 3)
            cases.append(Case(f"{p}-{mode}-{len(cases) % 8}", "cli_dense", mode, p,
                              forcing, window, 1e-9, a, b,
                              {"period": [3, 1], "points": 20001,
                               "scan": {"epsilon": 1e-6, "shift_range": 3,
                                        "target": "solution", "grid_step": 0.05}}))
    return cases * rounds


_WORKLOADS = {
    "direct_closed_form": _direct_closed_form,
    "quadrature": _quadrature,
    "cascade": _cascade,
    "cli_dense": _cli_dense,
}


def generate(workload: str, seed: int, seconds: float) -> list[Case]:
    """The op list of a run: same (workload, seed, seconds), same list."""
    if workload not in _WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(_WORKLOADS)}")
    rng = np.random.default_rng([seed, sorted(_WORKLOADS).index(workload)])
    return _WORKLOADS[workload](rng, rounds_for(workload, seconds))
