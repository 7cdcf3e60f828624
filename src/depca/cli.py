"""Command-line front end.

Reads a JSON config describing the system, forcing, and solve window; runs
one of the solve / verify / reduce / dichotomy / scan workflows; writes the
trajectory as CSV and a report with a machine-parsable ``KEY = value``
section.  Exit codes: 0 pass, 2 ran-and-refuted, 1 could-not-run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import signals as sig
from .depca_engine import (
    DepcaSystem,
    check_propagator_invertibility,
    quad_tol_for,
    reduce_to_difference,
    solve_bounded_depca,
)
from .difference_engine import (
    DichotomyCertificate,
    DifferenceSystem,
    bound_check,
    certify_constant,
    verify_certificate,
)
from .errors import (
    ConfigError,
    ContinuityBreachError,
    DepcaError,
    ParseError,
    ResidualCheckError,
    ValidationError,
    ZInvertibilityError,
)
from .matrix_core import mat_norm
from .reduction import solve_by_reduction

MODES = ("solve", "verify", "reduce", "dichotomy", "scan")
SCAN_TARGETS = ("forcing", "solution")
# the optional fields of the scan block, and the whole block when it is absent
SCAN_DEFAULTS = {"epsilon": 0.1, "shift_range": 20, "integer_shifts_only": True,
                 "window": 10.0, "target": "forcing", "grid_step": 1e-2}
CERTIFICATE_WINDOW = 20


# ---------------------------------------------------------------------------
# config parsing


def _require(block: dict, key: str, path: str):
    if not isinstance(block, dict):
        raise ValidationError(path, "expected an object")
    if key not in block:
        raise ValidationError(f"{path}.{key}", "missing required field")
    return block[key]


def _as_int(x, path: str, low: int | None = None) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, float)) or x != int(x):
        raise ValidationError(path, f"expected an integer, got {x!r}")
    if low is not None and x < low:
        raise ValidationError(path, f"must be at least {low}, got {x!r}")
    return int(x)


def _as_number(x, path: str, positive: bool = False) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValidationError(path, f"expected a number, got {x!r}")
    if positive and not x > 0:
        raise ValidationError(path, f"must be positive, got {x!r}")
    return float(x)


def _as_tol(x) -> float:
    tol = _as_number(x, "solve.tol")
    if not 0.0 < tol < 1.0:
        raise ValidationError("solve.tol", "tol must lie in (0, 1)")
    return tol


def _as_list(x, path: str) -> list:
    if not isinstance(x, list) or not x:
        raise ValidationError(path, "expected a nonempty array")
    return x


def _as_complex(x, path: str) -> complex:
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return complex(x)
    if isinstance(x, list) and len(x) == 2:
        return complex(_as_number(x[0], path), _as_number(x[1], path))
    raise ValidationError(path, "expected a number or a [re, im] pair")


def _as_matrix(x, path: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(x, list) or not x or not all(isinstance(r, list) for r in x):
        raise ValidationError(path, "expected an array of row arrays")
    rows = len(x)
    if any(len(r) != rows for r in x):
        raise ValidationError(path, "matrix must be square")
    if dim is not None and rows != dim:
        raise ValidationError(path, f"expected dimension {dim}, got {rows}")
    try:
        return np.array([[_as_number(v, path) for v in r] for r in x])
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(path, str(exc)) from exc


def _as_vector(x, path: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(x, list):
        raise ValidationError(path, "expected an array")
    vec = np.array([_as_complex(v, f"{path}[{i}]") for i, v in enumerate(x)])
    if dim is not None and vec.shape[0] != dim:
        raise ValidationError(path, f"expected length {dim}, got {vec.shape[0]}")
    return vec


def build_signal(spec, dimension: int, path: str = "forcing") -> sig.Signal:
    """Construct a signal from its config tree."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(path, "expected an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "constant":
        return sig.TrigPolynomial.constant(
            _as_vector(_require(spec, "value", path), f"{path}.value", dimension))
    if kind in ("cos", "sin", "exponential"):
        coef = _as_vector(_require(spec, "coefficient", path),
                          f"{path}.coefficient", dimension)
        omega = _as_number(_require(spec, "omega", path), f"{path}.omega")
        maker = {"cos": sig.TrigPolynomial.cosine, "sin": sig.TrigPolynomial.sine,
                 "exponential": sig.TrigPolynomial.exponential}[kind]
        return maker(coef, omega)
    if kind == "trig":
        terms = _as_list(_require(spec, "terms", path), f"{path}.terms")
        built = []
        for i, term in enumerate(terms):
            coef = _as_vector(_require(term, "coefficient", f"{path}.terms[{i}]"),
                              f"{path}.terms[{i}].coefficient", dimension)
            freq = _as_number(_require(term, "frequency", f"{path}.terms[{i}]"),
                              f"{path}.terms[{i}].frequency")
            built.append((coef, freq))
        return sig.TrigPolynomial.from_terms(built, dimension)
    if kind == "step":
        values = _as_list(_require(spec, "values", path), f"{path}.values")
        vecs = [_as_vector(v, f"{path}.values[{i}]", dimension)
                for i, v in enumerate(values)]
        return sig.StepOfSequence.from_periodic_values(vecs)
    if kind == "rational_periodic":
        p0 = _as_int(_require(spec, "p0", path), f"{path}.p0", low=1)
        q0 = _as_int(_require(spec, "q0", path), f"{path}.q0", low=1)
        samples = _as_list(_require(spec, "samples", path), f"{path}.samples")
        vecs = [_as_vector(v, f"{path}.samples[{i}]", dimension)
                for i, v in enumerate(samples)]
        return sig.RationalPeriodic.from_samples(p0, q0, vecs)
    if kind == "aa_test":
        return sig.AATest.from_amplitude(
            _as_vector(_require(spec, "amplitude", path), f"{path}.amplitude",
                       dimension))
    if kind == "sum":
        parts = _as_list(_require(spec, "parts", path), f"{path}.parts")
        return sig.Sum.of(*(build_signal(p, dimension, f"{path}.parts[{i}]")
                            for i, p in enumerate(parts)))
    if kind == "composite":
        outer = _require(spec, "outer", path)
        inner = build_signal(_require(spec, "inner", path), dimension,
                             f"{path}.inner")
        try:
            if isinstance(outer, str):
                return sig.compose(outer, inner)
            if isinstance(outer, dict):
                tag = _require(outer, "kind", f"{path}.outer")
                if tag == "affine":
                    return sig.compose(("affine",
                                        _as_number(_require(outer, "scale", f"{path}.outer"), f"{path}.outer.scale"),
                                        _as_number(_require(outer, "offset", f"{path}.outer"), f"{path}.outer.offset")),
                                       inner)
                if tag == "poly":
                    coeffs = _as_list(_require(outer, "coeffs", f"{path}.outer"),
                                      f"{path}.outer.coeffs")
                    return sig.compose(
                        ("poly", *(_as_number(c, f"{path}.outer.coeffs[{i}]")
                                   for i, c in enumerate(coeffs))), inner)
                raise ValidationError(f"{path}.outer", f"unsupported outer map {tag!r}")
        except ValueError as exc:
            raise ValidationError(f"{path}.outer", str(exc)) from exc
        raise ValidationError(f"{path}.outer", "expected a tag or an object")
    raise ValidationError(f"{path}.kind", f"unknown signal kind {kind!r}")


@dataclass
class RunConfig:
    """Validated run configuration (the forcing tree is kept verbatim so
    configs round-trip exactly; the certificate and scan blocks carry their
    defaults)."""

    dimension: int
    a: np.ndarray
    b: np.ndarray
    forcing_spec: dict
    n0: int
    n1: int
    tol: float
    dt: float
    mode: str
    user_t: np.ndarray | None = None
    certificate: dict | None = None
    scan: dict | None = None
    period: tuple[int, int] | None = None
    output: dict = field(default_factory=dict)

    def forcing_signal(self) -> sig.Signal:
        return build_signal(self.forcing_spec, self.dimension)

    def system(self) -> DepcaSystem:
        return DepcaSystem.build(self.a, self.b, self.forcing_signal())

    def to_dict(self) -> dict:
        out = {
            "system": {
                "dimension": self.dimension,
                "A": [[float(v) for v in row] for row in self.a],
                "B": [[float(v) for v in row] for row in self.b],
            },
            "forcing": self.forcing_spec,
            "solve": {"n0": self.n0, "n1": self.n1, "tol": self.tol, "dt": self.dt},
            "mode": self.mode,
            "output": dict(self.output),
        }
        if self.user_t is not None:
            out["userT"] = [[float(v) for v in row] for row in self.user_t]
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.scan is not None:
            out["scan"] = self.scan
        if self.period is not None:
            out["period"] = [self.period[0], self.period[1]]
        return out


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("", "top level must be an object")
    system = _require(raw, "system", "")
    dim = _as_int(_require(system, "dimension", "system"), "system.dimension")
    if not 1 <= dim <= 16:
        raise ValidationError("system.dimension", "must be between 1 and 16")
    a = _as_matrix(_require(system, "A", "system"), "system.A", dim)
    b = _as_matrix(_require(system, "B", "system"), "system.B", dim)

    forcing_spec = _require(raw, "forcing", "")
    built = build_signal(forcing_spec, dim)
    if built.dimension != dim:
        raise ValidationError("forcing", f"signal dimension {built.dimension} "
                                         f"does not match system dimension {dim}")

    solve = _require(raw, "solve", "")
    n0 = _as_int(_require(solve, "n0", "solve"), "solve.n0")
    n1 = _as_int(_require(solve, "n1", "solve"), "solve.n1")
    if n0 >= n1:
        raise ValidationError("solve.n1", "need n0 < n1")
    tol = _as_tol(_require(solve, "tol", "solve"))
    dt = _as_number(solve.get("dt", 0.01), "solve.dt")
    if not 0.0 < dt <= 1.0:
        raise ValidationError("solve.dt", "dt must lie in (0, 1]")

    mode = raw.get("mode", "solve")
    if mode not in MODES:
        raise ValidationError("mode", f"must be one of {MODES}")

    user_t = None
    if "userT" in raw:
        user_t = _as_matrix(raw["userT"], "userT", dim)

    # the optional blocks are checked here and carry their defaults
    certificate = None
    block = raw.get("certificate")
    if block is not None:
        certificate = {
            "alpha": _as_number(_require(block, "alpha", "certificate"),
                                "certificate.alpha"),
            "K": _as_number(_require(block, "K", "certificate"), "certificate.K"),
            "P": _as_matrix(_require(block, "P", "certificate"), "certificate.P",
                            dim).tolist(),
            "window": _as_int(block.get("window", CERTIFICATE_WINDOW),
                              "certificate.window", low=1)}
        if "coefficients" in block:
            certificate["coefficients"] = [
                _as_matrix(c, f"certificate.coefficients[{i}]", dim).tolist()
                for i, c in enumerate(_as_list(block["coefficients"],
                                               "certificate.coefficients"))]

    scan = raw.get("scan")
    if scan is not None:
        for key in ("epsilon", "shift_range"):
            _require(scan, key, "scan")
        scan = {**SCAN_DEFAULTS, **scan}
        for key in ("epsilon", "window", "grid_step"):
            scan[key] = _as_number(scan[key], f"scan.{key}", positive=True)
        scan["shift_range"] = _as_int(scan["shift_range"], "scan.shift_range", low=1)
        if not isinstance(scan["integer_shifts_only"], bool):
            raise ValidationError("scan.integer_shifts_only", "expected true or false")
        if scan["target"] not in SCAN_TARGETS:
            raise ValidationError("scan.target", f"must be one of {SCAN_TARGETS}")

    period = None
    if "period" in raw:
        pr = raw["period"]
        if not isinstance(pr, list) or len(pr) != 2:
            raise ValidationError("period", "expected [p0, q0]")
        period = (_as_int(pr[0], "period[0]", low=1), _as_int(pr[1], "period[1]", low=1))

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ValidationError("output", "expected an object")
    for key in ("trajectory_csv", "report"):
        if key in output and (not isinstance(output[key], str) or not output[key]):
            raise ValidationError(f"output.{key}", "expected a nonempty file name")

    return RunConfig(dim, a, b, forcing_spec, n0, n1, tol, dt, mode, user_t,
                     certificate, scan, period, dict(output))


def parse_config(path) -> RunConfig:
    """Load and validate a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    return config_from_dict(raw)


def emit_config(config: RunConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# artifacts


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return str(x)


def write_trajectory_csv(path: Path, traj, dt: float) -> None:
    """CSV with rows at step dt plus both-sided straddles of every integer."""
    grid = diag._grid_with_straddles(traj.n0, traj.n1, dt)
    values = traj.evaluate_grid(grid)

    header = ["t"]
    for i in range(traj.dimension):
        header += [f"re_x{i + 1}", f"im_x{i + 1}"]
    lines = [",".join(header)]
    for t, row in zip(grid, values):
        cells = [_fmt(float(t))]
        for v in row:
            cells += [_fmt(float(v.real)), _fmt(float(v.imag))]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


class Report:
    """Human-readable report with a machine-parsable KEY = value section."""

    def __init__(self, title: str):
        self.title = title
        self.notes: list[str] = []
        self.entries: list[tuple[str, object]] = []

    def note(self, text: str) -> None:
        self.notes.append(text)

    def set(self, key: str, value) -> None:
        self.entries.append((key, value))

    def render(self) -> str:
        lines = [f"# {self.title}", ""]
        lines += self.notes
        if self.notes:
            lines.append("")
        lines += [f"{k} = {_fmt(v)}" for k, v in self.entries]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workflows


def _solve_common(config: RunConfig, report: Report, reduce_mode: bool):
    system = config.system()
    if reduce_mode:
        traj = solve_by_reduction(system, config.user_t, config.n0, config.n1,
                                  config.tol)
    else:
        traj = solve_bounded_depca(system, config.n0, config.n1, config.tol)

    d = traj.diagnostics
    dense = traj.evaluate_grid(np.linspace(traj.n0, traj.n1,
                                           32 * (traj.n1 - traj.n0) + 1))
    report.set("sup_norm", float(np.max(np.abs(dense))))
    report.set("sup_integer_samples", traj.sup_samples())
    report.set("continuity_max", d.continuity_max)
    report.set("continuity_tol", d.continuity_tol)
    report.set("residual_max", d.residual_max)
    report.set("residual_tol", d.residual_tol)
    cert = d.certificate
    report.set("alpha", cert.alpha)
    report.set("K", cert.K)
    bc = bound_check(traj.samples, cert, d.sup_forcing, slack=3 * config.tol)
    report.set("bound_certified", bc.certified_bound)
    report.set("bound_holds", bc.passed)
    return system, traj


def run(config: RunConfig, out_dir=".", quiet: bool = False) -> int:
    """Execute the configured workflow; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / config.output.get("report", f"{config.mode}_report.txt")
    csv_path = out / config.output.get("trajectory_csv", f"{config.mode}_trajectory.csv")
    writes = (report_path, csv_path) if config.mode in ("solve", "reduce") else (report_path,)
    for path in writes:
        if not path.parent.is_dir():
            raise OSError(f"cannot write {path}: {path.parent} is not a folder")
    report = Report(f"depca {config.mode} report")
    report.set("mode", config.mode)
    report.set("dimension", config.dimension)
    report.set("window_n0", config.n0)
    report.set("window_n1", config.n1)
    report.set("tol", config.tol)
    exit_code = 0

    try:
        if config.mode in ("solve", "reduce"):
            system, traj = _solve_common(config, report, config.mode == "reduce")
            if config.mode == "reduce":
                trace = traj.cascade
                report.note("cascade transform rows:")
                for i, row in enumerate(trace.transform):
                    report.note("  T[" + str(i) + "] = "
                                + " ".join(_fmt(complex(v)) for v in row))
                report.set("cascade_levels", len(trace.levels))
                for lv in trace.levels:
                    report.set(f"level_{lv.index}_c", lv.companion)
                    report.set(f"level_{lv.index}_sup", lv.sup_samples)
            if config.period is not None:
                verdict = diag.periodicity_check(traj, config.period,
                                                 tol=max(1e-6, 10 * config.tol))
                report.set("periodicity_pass", verdict.passed)
                report.set("periodicity_deviation", verdict.deviation)
                if not verdict.passed:
                    report.set("failed_invariant", "diagnostics.periodicity")
                    exit_code = 2
            write_trajectory_csv(csv_path, traj, config.dt)
            report.set("trajectory_csv", str(csv_path))

        elif config.mode == "verify":
            exit_code = _run_verify(config, report)

        elif config.mode == "dichotomy":
            exit_code = _run_dichotomy(config, report)

        elif config.mode == "scan":
            exit_code = _run_scan(config, report)

    except (ContinuityBreachError, ResidualCheckError) as exc:
        report.note(f"verification failure: {exc}")
        report.set("failed_invariant", "trajectory.verification")
        exit_code = 2

    report.set("exit", exit_code)
    report_path.write_text(report.render())
    if not quiet:
        sys.stdout.write(report.render())
    return exit_code


def _screened_reduction(system: DepcaSystem, tol: float) -> DifferenceSystem:
    """The companion system, reduced after the invertibility screen that
    ``solve`` runs first; ZInvertibilityError when the screen fails."""
    screen = check_propagator_invertibility(system)
    if not screen.passed:
        raise ZInvertibilityError(screen)
    return reduce_to_difference(system, quad_tol_for(tol))


def _certificate_from_config(config: RunConfig, system: DepcaSystem
                             ) -> DichotomyCertificate:
    """The certificate of the config's certificate block, over its
    coefficients or, when none are given, the C of the hybrid reduction."""
    block = config.certificate
    if "coefficients" in block:
        dsys = DifferenceSystem.periodic(  # checks each C(j); no h is read
            [np.array(c) for c in block["coefficients"]], None)
    else:
        dsys = _screened_reduction(system, config.tol)
    return DichotomyCertificate(block["alpha"], block["K"], np.array(block["P"]),
                                dsys.coefficients)


def _run_verify(config: RunConfig, report: Report) -> int:
    """Check the config's certificate, or screen Z and solve.  ``det_z_min``
    is the screen's ``min_det``: the least (|det Z(u)| e^{-u Re tr A})^(1/p)
    on its grid, 1 for B = 0 at any scale of A."""
    exit_code = 0
    if config.certificate is not None:
        cert = _certificate_from_config(config, config.system())
        cert_report = verify_certificate(cert, config.certificate["window"])
        report.note(str(cert_report))
        report.set("certificate_pass", cert_report.passed)
        report.set("worst_decay_margin", cert_report.worst_decay_margin)
        report.set("projection_defect", cert_report.projection_defect)
        if not cert_report.passed:
            report.set("failed_invariant", cert_report.failed_invariant)
            exit_code = 2
    else:
        # the solve screens Z once and raises on a failed continuity or
        # residual check, which ``run`` reports as exit 2
        try:
            _, traj = _solve_common(config, report, False)
        except ZInvertibilityError as exc:
            report.note(str(exc.report))
            report.set("det_z_min", exc.report.min_det)
            report.set("failed_invariant", "propagator.invertibility")
            return 2
        screen = traj.diagnostics.screen
        report.note(str(screen))
        report.set("det_z_min", screen.min_det)
        report.set("verify_pass", True)
    return exit_code


def _run_dichotomy(config: RunConfig, report: Report) -> int:
    system = config.system()
    if config.certificate is not None:
        cert = _certificate_from_config(config, system)
        window = config.certificate["window"]
    else:
        dsys = _screened_reduction(system, config.tol)
        cert = certify_constant(dsys.constant_coefficient)
        window = CERTIFICATE_WINDOW
    cert_report = verify_certificate(cert, window)

    green = cert.green_function()
    report.note("decay table: d, |G(d,0)|, K e^{-alpha|d|}")
    for d in range(-20, 21):
        actual = mat_norm(green(d, 0))
        bound = cert.K * math.exp(-cert.alpha * abs(d))
        report.note(f"  {d:4d}  {actual:.6e}  {bound:.6e}")
    report.set("alpha", cert.alpha)
    report.set("K", cert.K)
    report.set("projection_rank", int(round(float(np.trace(cert.projection).real))))
    report.set("worst_decay_margin", cert_report.worst_decay_margin)
    report.set("certificate_pass", cert_report.passed)
    if not cert_report.passed:
        report.set("failed_invariant", cert_report.failed_invariant)
        return 2
    return 0


def _run_scan(config: RunConfig, report: Report) -> int:
    block = config.scan or SCAN_DEFAULTS
    if block["target"] == "solution":
        target = solve_bounded_depca(config.system(), config.n0, config.n1,
                                     config.tol)
        window = None
    else:
        target = config.forcing_signal()
        window = (-block["window"], block["window"])
    scan_report = diag.almost_period_scan(
        target, block["epsilon"], block["shift_range"],
        block["integer_shifts_only"], window, grid_step=block["grid_step"])
    report.note(str(scan_report))
    for s, dev in zip(scan_report.tested_shifts, scan_report.deviations):
        report.note(f"  shift {s:+g}: deviation {dev:.6e}")
    report.set("epsilon", block["epsilon"])
    report.set("shifts_tested", len(scan_report.tested_shifts))
    report.set("shifts_passing", len(scan_report.passing_shifts))
    report.set("relative_density", scan_report.relative_density)
    return 0


# ---------------------------------------------------------------------------
# entry point


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, like every run that could not start."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="depca",
        description="Bounded/periodic solutions of x'(t) = A x(t) + B x([t]) + f(t)",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--mode", choices=MODES, help="override the config mode")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--tol", type=float, help="override solve.tol")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout report")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        if args.mode:
            config.mode = args.mode
        if args.tol is not None:
            config.tol = _as_tol(args.tol)
        return run(config, args.out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DepcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
