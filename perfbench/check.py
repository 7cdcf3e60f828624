"""Checks each op's output against the mpmath reference (after the timed loop)."""

from __future__ import annotations

import json
import math

from perfbench import reference as ref

# scan: shifts whose reference deviation at the integers exceeds this many
# epsilons must fail the scan; shifts that are exact periods must pass it.
_SCAN_MARGIN = 10.0


class Checker:
    def __init__(self):
        self._solutions: dict[str, ref.Solution] = {}
        self._cache: dict[tuple, list] = {}

    def _solution(self, case) -> ref.Solution:
        key = json.dumps([case.a, case.b, case.forcing])
        if key not in self._solutions:
            self._solutions[key] = ref.Solution(case.a, case.b, case.forcing)
        return self._solutions[key]

    def _expected(self, case, t: float) -> list:
        key = (json.dumps([case.path, case.a, case.b, case.forcing, case.extra]), t)
        if key not in self._cache:
            if case.path == "massera_solve":
                value = ref.massera(case.a, case.forcing, t)
            elif case.path == "imaginary_scalar_solve":
                value = [ref.rotation(case.extra["theta"], case.forcing,
                                      complex(*case.extra["x0"]), t)]
            else:
                value = self._solution(case).at(t)
            self._cache[key] = value
        return self._cache[key]

    def _points_ok(self, case, points: dict) -> tuple[bool, float]:
        worst = 0.0
        for t, value in points.items():
            ok, err = ref.within(value, self._expected(case, t), case.tol)
            worst = max(worst, err)
            if not ok:
                return False, worst
        return True, worst

    def check(self, case, out: dict) -> tuple[bool, str]:
        """(accepted, detail) for one op that returned normally."""
        path = case.path
        if path in ("solve", "verify", "dichotomy", "scan"):
            if out["exit"] != 0:
                return False, f"exit code {out['exit']}"
            rep = out["report"]
            return getattr(self, f"_cli_{path}")(case, out, rep)
        ok, err = self._points_ok(case, out["points"])
        if path == "imaginary_scalar_solve" and not out["bounded"]:
            return False, "non-resonant trig forcing screened as unbounded"
        return ok, f"max error {err:.3g}"

    def _cli_solve(self, case, out, rep):
        if rep.get("periodicity_pass") != "true":
            return False, f"integer period {case.extra['period'][0]} not confirmed"
        ok, err = self._points_ok(case, out["points"])
        return ok, f"max error {err:.3g}"

    def _cli_verify(self, case, out, rep):
        if rep.get("verify_pass") != "true":
            return False, "verify did not pass"
        n0, n1 = case.window
        expected = max(max(abs(v) for v in self._expected(case, float(n)))
                       for n in range(n0, n1 + 1))
        got = float(rep["sup_integer_samples"])
        ok = abs(got - expected) <= ref.BOUND_FACTOR * case.tol * max(1.0, expected)
        return ok, f"sup |x(n)| {got:.12g} vs {expected:.12g}"

    def _cli_dichotomy(self, case, out, rep):
        mus = self._solution(case).companion_eigenvalues()
        rank = sum(1 for z in mus if abs(z) < 1)
        alpha = 0.9 * min(abs(math.log(abs(z))) for z in mus)
        got = float(rep["alpha"])
        ok = (rep.get("certificate_pass") == "true"
              and int(rep["projection_rank"]) == rank
              and abs(got - alpha) <= 1e-8 * alpha)
        return ok, f"rank {rep['projection_rank']} vs {rank}, alpha {got} vs {alpha}"

    def _cli_scan(self, case, out, rep):
        epsilon = case.extra["scan"]["epsilon"]
        reach = case.extra["scan"]["shift_range"]
        passing = set()
        for line in rep["_notes"]:
            line = line.strip()
            if line.startswith("shift "):
                shift, dev = line[len("shift "):].split(": deviation ")
                if float(dev) < epsilon:
                    passing.add(int(float(shift)))
        n0, n1 = case.window
        period = case.extra["period"][0]
        for s in range(-reach, reach + 1):
            if s % period == 0:
                if s not in passing:
                    return False, f"exact period {s} rejected"
                continue
            lo, hi = max(n0, n0 - s), min(n1, n1 - s)
            dev = max(max(abs(a - b) for a, b in zip(self._expected(case, float(n + s)),
                                                     self._expected(case, float(n))))
                      for n in range(lo, hi + 1))
            if dev > _SCAN_MARGIN * epsilon and s in passing:
                return False, f"shift {s} passed with reference deviation {dev:.3g}"
        return True, f"passing shifts {sorted(passing)}"
