"""Turns a generated case into depca calls, and reads back what gets checked.

Every call goes through a module attribute (``engine.solve_bounded_depca``,
``cli.main``), never a name bound at import, so the tracer's rebinding
reaches the top-level call too.  ``prepare`` and ``extract`` run outside the
timed region; only ``call`` is timed.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

from depca import cli, reduction
from depca import depca_engine as engine
from depca import signals as sig

# Grid step of the dense-evaluation probe run after every solve, so the
# probes spread over the whole loop: evaluate_grid points per second is the
# median rate of the probes.
PROBE_STEP = {"direct_closed_form": 1 / 8, "quadrature": 1 / 4, "cascade": 1 / 4}


def build_signal(spec: dict) -> sig.Signal:
    kind = spec["kind"]
    if kind == "cos":
        return sig.TrigPolynomial.cosine(spec["coef"], spec["omega"])
    if kind == "step":
        return sig.StepOfSequence.from_periodic_values(spec["values"])
    if kind == "rational":
        return sig.RationalPeriodic.from_samples(spec["p0"], spec["q0"], spec["samples"])
    if kind == "aa":
        return sig.AATest.from_amplitude(spec["amplitude"])
    if kind == "sin_cos":
        return sig.compose("sin", sig.TrigPolynomial.cosine(spec["coef"], spec["omega"]))
    raise ValueError(f"unknown forcing kind {kind!r}")


def check_points(case) -> tuple[list[int], list[float]]:
    """Integers whose samples are checked, and mid-interval points t = n + 1/2."""
    n0, n1 = case.window
    if case.forcing["kind"] in ("aa", "sin_cos"):
        return [0], [0.5]
    ints = list(range(n0, n1 + 1))
    return ints, [n0 + 0.5, 0.5, n1 - 0.5]


def _vec(v) -> list:
    return [complex(x) for x in np.atleast_1d(v)]


class Runner:
    """Runs the ops of one workload; ``workdir`` holds CLI configs and outputs."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.probe_rates: list[float] = []

    # -- untimed ------------------------------------------------------------

    def setup(self, cases) -> None:
        """Writes one CLI config per distinct CLI case."""
        for case in {c.cid: c for c in cases if c.workload == "cli_dense"}.values():
            if case.path == "eval":
                continue
            d = self.workdir / case.cid
            d.mkdir(parents=True, exist_ok=True)
            config = {
                "system": {"dimension": case.p, "A": case.a, "B": case.b},
                "forcing": {"kind": "cos", "coefficient": case.forcing["coef"],
                            "omega": case.forcing["omega"]},
                "solve": {"n0": case.window[0], "n1": case.window[1],
                          "tol": case.tol, "dt": 0.01},
                "mode": case.path,
                "period": case.extra["period"],
                "scan": case.extra["scan"],
                "output": {"trajectory_csv": "trajectory.csv", "report": "report.txt"},
            }
            (d / "config.json").write_text(json.dumps(config))

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def prepare(self, case):
        """Untimed input of the timed call: for an eval op, the system and
        the trajectory solved on it."""
        if case.path == "eval":
            system = engine.DepcaSystem.build(np.array(case.a), np.array(case.b),
                                              build_signal(case.forcing))
            return system, engine.solve_bounded_depca(system, *case.window, case.tol)
        return None

    # -- timed ----------------------------------------------------------------

    def call(self, case, prepared):
        path = case.path
        if path == "eval":
            n0, n1 = case.window
            _, trajectory = prepared
            return trajectory.evaluate_grid(np.linspace(n0, n1, case.extra["points"]))
        if path in ("solve", "verify", "dichotomy", "scan"):
            d = self.workdir / case.cid
            return cli.main(["--config", str(d / "config.json"), "--out", str(d),
                             "--quiet"])
        forcing = build_signal(case.forcing)
        if path == "massera_solve":
            sol = engine.massera_solve(np.array(case.a), forcing, case.tol)
            return [sol.evaluate(t) for t in case.extra["ts"]]
        if path == "imaginary_scalar_solve":
            x0 = complex(*case.extra["x0"])
            evaluate, report = engine.imaginary_scalar_solve(
                case.extra["theta"], forcing, x0, float(case.window[1]))
            return [evaluate(t) for t in case.extra["ts"]], report.is_bounded
        system = engine.DepcaSystem.build(np.array(case.a), np.array(case.b), forcing)
        if path == "solve_by_reduction":
            return reduction.solve_by_reduction(system, None, *case.window, case.tol)
        return engine.solve_bounded_depca(system, *case.window, case.tol)

    # -- untimed ----------------------------------------------------------------

    def extract(self, case, prepared, result) -> dict:
        """The values the reference checks, as plain Python data."""
        path = case.path
        if path == "eval":
            n0, n1 = case.window
            k = case.extra["points"] - 1
            idx = [round((t - n0) * k / (n1 - n0)) for t in (n0 + 2.5, 0.0, 0.5, 3.0, n1 - 0.5)]
            ts = np.linspace(n0, n1, case.extra["points"])
            return {"points": {float(ts[i]): _vec(result[i]) for i in idx}}
        if path in ("solve", "verify", "dichotomy", "scan"):
            d = self.workdir / case.cid
            out = {"exit": result, "report": _parse_report(d / "report.txt")}
            if path == "solve":
                out["points"] = _csv_points(d / "trajectory.csv", case.p)
            return out
        if path == "massera_solve":
            return {"points": {t: _vec(v) for t, v in zip(case.extra["ts"], result)}}
        if path == "imaginary_scalar_solve":
            values, bounded = result
            return {"points": {t: _vec(v) for t, v in zip(case.extra["ts"], values)},
                    "bounded": bool(bounded)}
        ints, mids = check_points(case)
        points = {float(n): _vec(result.integer_samples[n]) for n in ints}
        points.update({t: _vec(result.evaluate(t)) for t in mids})
        n0, n1 = case.window
        step = PROBE_STEP[case.workload]
        grid = np.arange(n0, n1 + step / 2, step)
        start = perf_counter()
        result.evaluate_grid(grid)
        self.probe_rates.append(grid.size / (perf_counter() - start))
        return {"points": points}


def _parse_report(path: Path) -> dict:
    keys: dict[str, str] = {}
    notes: list[str] = []
    for line in path.read_text().splitlines():
        if " = " in line and not line.startswith(" "):
            k, v = line.split(" = ", 1)
            keys[k.strip()] = v.strip()
        else:
            notes.append(line)
    keys["_notes"] = notes
    return keys


def _csv_points(path: Path, p: int) -> dict:
    """CSV rows at integers and at n + 1/2 (the straddle rows are skipped)."""
    out = {}
    lines = path.read_text().splitlines()[1:]
    for line in lines:
        cells = [float(c) for c in line.split(",")]
        t = cells[0]
        frac = t - math.floor(t + 1e-12)
        if abs(frac) < 1e-12 or abs(frac - 0.5) < 1e-12:
            vals = [complex(cells[1 + 2 * i], cells[2 + 2 * i]) for i in range(p)]
            out[round(t * 2) / 2] = vals
    return out
