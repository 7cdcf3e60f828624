"""Tests for the command-line front end."""

import dataclasses
import json

import numpy as np
import pytest

from depca import cli, depca_engine
from depca import signals as sig
from depca.depca_engine import (
    DepcaSystem,
    check_propagator_invertibility,
    quad_tol_for,
    reduce_to_difference,
    solve_bounded_depca,
)
from depca.difference_engine import certify_constant
from depca.reduction import scalar_companion

CONFIG = {
    "system": {"dimension": 2,
               "A": [[-1.0, 0.3], [0.0, 0.5]],
               "B": [[0.2, 0.1], [0.0, -0.3]]},
    "forcing": {"kind": "sum", "parts": [
        {"kind": "cos", "coefficient": [1.0, -0.5], "omega": 1.0},
        {"kind": "step", "values": [[0.5, 0.0], [-0.25, 1.0]]},
    ]},
    "solve": {"n0": -3, "n1": 3, "tol": 1e-8, "dt": 0.25},
    "mode": "solve",
}


def report_value(path, key):
    for line in path.read_text().splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


def test_solve_reduces_once_and_certifies_the_bound(tmp_path, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return reduce_to_difference(*args, **kwargs)

    monkeypatch.setattr(depca_engine, "reduce_to_difference", counting)
    monkeypatch.setattr(cli, "reduce_to_difference", counting, raising=False)
    code = cli.main(["--config", str(config_path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 0
    assert len(calls) == 1

    # the certified bound K (1 + e^-a)/(1 - e^-a) max_{n0-1 <= n <= n1} |h(n)|,
    # from a reduction of its own
    config = cli.config_from_dict(CONFIG)
    system = DepcaSystem.build(config.a, config.b, config.forcing_signal())
    dsys = reduce_to_difference(system, min(0.05 * config.tol, 1e-11))
    cert = certify_constant(dsys.constant_coefficient)
    sup_h = float(np.max(np.abs(dsys.h(config.n0 - 1, config.n1 + 1))))
    report = tmp_path / "solve_report.txt"
    assert float(report_value(report, "bound_certified")) == pytest.approx(
        cert.solution_bound(sup_h), rel=1e-12)
    assert report_value(report, "bound_holds") == "true"



@pytest.mark.parametrize("a,b,extra", [
    ([[-1.0, 1.0], [0.0, -2.0]], [[-0.5, 0.3], [0.0, -0.25]], {}),
    # a badly scaled T: the certificate and the bound are still those of C
    # itself (sup |x| = 184 against a bound of 763), not of T^-1 C T
    ([[-1.0, 1000.0], [0.0, -2.0]], [[0.0, 0.0], [0.0, 0.0]],
     {"forcing": {"kind": "constant", "value": [-316.0, 1.0]},
      "userT": [[1000.0, 0.0], [0.0, 1.0]]}),
], ids=["coupled", "scaled-basis"])
def test_reduce_mode_reports_levels_and_certificate(tmp_path, a, b, extra):
    config = dict(CONFIG, mode="reduce",
                  system={"dimension": 2, "A": a, "B": b}, **extra)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = cli.main(["--config", str(config_path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 0
    report = tmp_path / "reduce_report.txt"
    assert report_value(report, "cascade_levels") == "2"
    for i in range(2):
        assert complex(report_value(report, f"level_{i}_c")) == pytest.approx(
            scalar_companion(a[i][i], b[i][i]), rel=1e-12)
    for key in ("alpha", "K"):
        assert float(report_value(report, key)) > 0
    assert report_value(report, "bound_holds") == "true"
    assert "_window = " not in report.read_text()
    # the bound certified for C, the companion of the caller's system
    parsed = cli.config_from_dict(config)
    dsys = reduce_to_difference(parsed.system(), quad_tol_for(parsed.tol))
    sup_h = float(np.max(np.abs(dsys.h(parsed.n0 - 1, parsed.n1 + 1))))
    assert float(report_value(report, "bound_certified")) == pytest.approx(
        certify_constant(dsys.constant_coefficient).solution_bound(sup_h), rel=1e-9)


def run_cli(tmp_path, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return cli.main(["--config", str(config_path), "--out", str(tmp_path),
                     "--quiet"])


SINGULAR_Z = {"dimension": 2, "A": [[0.0, 0.0], [0.0, 0.0]],
              "B": [[-1.0, 0.0], [0.0, -1.0]]}


def test_verify_screens_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return check_propagator_invertibility(*args, **kwargs)

    monkeypatch.setattr(depca_engine, "check_propagator_invertibility", counting)
    monkeypatch.setattr(cli, "check_propagator_invertibility", counting,
                        raising=False)
    assert run_cli(tmp_path, dict(CONFIG, mode="verify")) == 0
    assert len(calls) == 1
    report = tmp_path / "verify_report.txt"
    assert report_value(report, "verify_pass") == "true"
    assert float(report_value(report, "det_z_min")) > 0.0


def test_verify_refutes_a_singular_propagator(tmp_path):
    # Z(u) = (1 - u) I is singular at u = 1
    assert run_cli(tmp_path, dict(CONFIG, mode="verify", system=SINGULAR_Z)) == 2
    report = tmp_path / "verify_report.txt"
    assert report_value(report, "failed_invariant") == "propagator.invertibility"
    assert float(report_value(report, "det_z_min")) == 0.0


def test_verify_passes_a_stiff_pure_a_system(tmp_path):
    # |det Z(u)| = e^{-30 u} falls below any absolute floor; the scale-free
    # determinant the screen reports is 1 for B = 0
    config = {"system": {"dimension": 1, "A": [[-30.0]], "B": [[0.0]]},
              "forcing": {"kind": "cos", "coefficient": [1.0], "omega": 1.0},
              "solve": {"n0": -2, "n1": 2, "tol": 1e-9, "dt": 0.25},
              "mode": "verify"}
    assert run_cli(tmp_path, config) == 0
    report = tmp_path / "verify_report.txt"
    assert report_value(report, "verify_pass") == "true"
    assert float(report_value(report, "det_z_min")) == pytest.approx(1.0, abs=1e-10)


def test_solve_with_a_singular_propagator_cannot_run(tmp_path, capsys):
    assert run_cli(tmp_path, dict(CONFIG, system=SINGULAR_Z)) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("mode", ["solve", "verify", "reduce", "dichotomy"])
def test_an_overflowing_companion_fails_typed_in_every_mode(tmp_path, capsys, mode):
    # C = e^800 is not a float: one error line, no traceback, and no numpy
    # warning (the test configuration turns one from depca into a failure)
    config = dict(CONFIG, mode=mode,
                  system={"dimension": 1, "A": [[800.0]], "B": [[0.0]]},
                  forcing={"kind": "cos", "coefficient": [1.0], "omega": 1.0})
    assert run_cli(tmp_path, config) == 1
    assert capsys.readouterr().err == "error: e^(A t) overflows at ||A t||_1 = 800\n"


STIFF_PAIR = {"system": {"dimension": 1, "A": [[-800.0]], "B": [[-1.0]]},
              "forcing": {"kind": "cos", "coefficient": [1.0], "omega": 1.0},
              "solve": {"n0": -2, "n1": 2, "tol": 1e-9, "dt": 0.25}}


@pytest.mark.parametrize("mode", ["solve", "dichotomy"])
def test_a_singular_propagator_stops_the_reduction_in_every_mode(tmp_path, capsys, mode):
    # Z(u) is singular at u* = ln(801)/800: dichotomy screens before it
    # reduces, as solve does, and the grid minimum stays finite although
    # the pair factor overflows past u = 0.887
    assert run_cli(tmp_path, dict(STIFF_PAIR, mode=mode)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: min (|det Z(u)| e^(-u Re tr A))^(1/p) = 9.330e-01")
    assert f"the pair hits -1 at u* = {np.log(801.0) / 800.0:.9f}" in err


def test_verify_words_an_overflowing_factor_as_not_finite(tmp_path):
    # 1 + u phi1(800 u) / 2 never vanishes; past u = 0.887 it is not finite
    config = dict(STIFF_PAIR, mode="verify",
                  system={"dimension": 1, "A": [[-800.0]], "B": [[0.5]]})
    assert run_cli(tmp_path, config) == 2
    report = tmp_path / "verify_report.txt"
    assert report_value(report, "failed_invariant") == "propagator.invertibility"
    assert float(report_value(report, "det_z_min")) == 1.0
    text = report.read_text()
    assert "factor not finite from u = 0.8876953125" in text and "hits -1" not in text


def test_missing_solve_block_is_a_config_error(tmp_path, capsys):
    config = {k: v for k, v in CONFIG.items() if k != "solve"}
    assert run_cli(tmp_path, config) == 1
    assert "config error: .solve: missing required field" in capsys.readouterr().err


def test_wrong_period_is_refuted(tmp_path):
    assert run_cli(tmp_path, dict(CONFIG, period=[1, 1])) == 2
    report = tmp_path / "solve_report.txt"
    assert report_value(report, "failed_invariant") == "diagnostics.periodicity"
    assert report_value(report, "periodicity_pass") == "false"


def test_emit_config_round_trips():
    raw = dict(CONFIG, mode="verify", seed=7, period=[2, 1],
               userT=[[1.0, 0.5], [0.0, 2.0]],
               scan={"epsilon": 0.2, "shift_range": 5},
               certificate={"alpha": 0.1, "K": 3.0,
                            "P": [[1.0, 0.0], [0.0, 0.0]]},
               output={"report": "r.txt"})
    config = cli.config_from_dict(raw)
    again = cli.config_from_dict(json.loads(cli.emit_config(config)))
    for f in dataclasses.fields(cli.RunConfig):
        want, got = getattr(config, f.name), getattr(again, f.name)
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want, f.name


COS_1D = {"kind": "cos", "coefficient": [1.0], "omega": 1.0}
SCAN = {"epsilon": 1e-6, "shift_range": 3}
CERTIFICATE = {"alpha": 0.1, "K": 3.0, "P": [[1.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("change,path", [
    pytest.param({"scan": dict(SCAN, grid_step=0)}, "scan.grid_step", id="grid-step-0"),
    pytest.param({"scan": dict(SCAN, grid_step=-0.1)}, "scan.grid_step",
                 id="grid-step-negative"),
    pytest.param({"scan": dict(SCAN, window="x")}, "scan.window", id="scan-window-text"),
    pytest.param({"scan": dict(SCAN, shift_range=0)}, "scan.shift_range",
                 id="shift-range-0"),
    pytest.param({"scan": dict(SCAN, target="bogus")}, "scan.target", id="target-bogus"),
    pytest.param({"scan": dict(SCAN, integer_shifts_only="yes")},
                 "scan.integer_shifts_only", id="integer-shifts-text"),
    pytest.param({"certificate": dict(CERTIFICATE, window=0)}, "certificate.window",
                 id="certificate-window-0"),
    pytest.param({"certificate": dict(CERTIFICATE, window="a")}, "certificate.window",
                 id="certificate-window-text"),
    pytest.param({"certificate": dict(CERTIFICATE, coefficients=[])},
                 "certificate.coefficients", id="coefficients-empty"),
    pytest.param({"certificate": dict(CERTIFICATE, coefficients=5)},
                 "certificate.coefficients", id="coefficients-number"),
    pytest.param({"output": {"report": 5}}, "output.report", id="report-number"),
    pytest.param({"forcing": {"kind": "composite", "outer": {"kind": "poly", "coeffs": 3},
                              "inner": COS_1D}}, "forcing.outer.coeffs", id="poly-number"),
    pytest.param({"forcing": {"kind": "rational_periodic", "p0": 1, "q0": 1,
                              "samples": []}}, "forcing.samples", id="samples-empty"),
    pytest.param({"forcing": {"kind": "trig", "terms": [5]}}, "forcing.terms[0]",
                 id="trig-term-number"),
])
def test_malformed_optional_field_is_a_config_error(tmp_path, capsys, change, path):
    config = dict(CONFIG, system={"dimension": 1, "A": [[-1.0]], "B": [[0.2]]},
                  forcing=COS_1D, mode="scan")
    if "certificate" in change:
        config["system"] = CONFIG["system"]
        config["forcing"] = CONFIG["forcing"]
        config["mode"] = "dichotomy"
    config.update(change)
    assert run_cli(tmp_path, config) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert "Traceback" not in err


def test_dichotomy_mode_reports_a_certified_decay_table(tmp_path):
    assert run_cli(tmp_path, dict(CONFIG, mode="dichotomy")) == 0
    report = tmp_path / "dichotomy_report.txt"
    assert report_value(report, "certificate_pass") == "true"

    config = cli.config_from_dict(CONFIG)
    c = reduce_to_difference(config.system(), 1e-11).constant_coefficient
    moduli = np.abs(np.linalg.eigvals(c))
    assert int(report_value(report, "projection_rank")) == np.sum(moduli < 1.0) == 1
    alpha = float(report_value(report, "alpha"))
    assert alpha == pytest.approx(0.9 * np.min(np.abs(np.log(moduli))), rel=1e-9)

    lines = report.read_text().splitlines()
    start = lines.index("decay table: d, |G(d,0)|, K e^{-alpha|d|}") + 1
    rows = [line.split() for line in lines[start:start + 41]]
    assert [int(r[0]) for r in rows] == list(range(-20, 21))
    for _, actual, bound in rows:
        assert float(actual) <= float(bound)


def test_scan_mode_finds_the_integer_periods_of_the_solution(tmp_path):
    # f = cos(4 pi t / 3) has period 3/2, so the solution has integer period 3
    config = dict(CONFIG, mode="scan",
                  system={"dimension": 1, "A": [[-1.0]], "B": [[0.2]]},
                  forcing={"kind": "cos", "coefficient": [1.0],
                           "omega": 4.0 * np.pi / 3.0},
                  scan={"epsilon": 1e-6, "shift_range": 3, "grid_step": 0.05,
                        "target": "solution"})
    assert run_cli(tmp_path, config) == 0
    report = tmp_path / "scan_report.txt"
    deviations = {float(line.split()[1].rstrip(":")): float(line.split()[3])
                  for line in report.read_text().splitlines()
                  if line.startswith("  shift ")}
    assert sorted(deviations) == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    assert sorted(s for s, dev in deviations.items() if dev < 1e-6) == [-3.0, 0.0, 3.0]
    assert report_value(report, "shifts_passing") == "3"


SMALL = dict(CONFIG, system={"dimension": 1, "A": [[-1.0]], "B": [[0.25]]},
             forcing=COS_1D, solve={"n0": -1, "n1": 1, "tol": 1e-8, "dt": 0.5})


def main_exit(argv) -> int:
    """The exit status ``depca`` would end with for these arguments."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args,output,err", [
    pytest.param(["--config", "{tmp}/nope.json"], {}, "config error: cannot read ",
                 id="missing"),
    pytest.param(["--config", "{tmp}"], {}, "config error: cannot read ", id="directory"),
    pytest.param(["--config", "{tmp}/latin1.json"], {}, "config error: cannot read ",
                 id="not-utf8"),
    pytest.param(["--config", "{cfg}", "--out", "{tmp}/file/out"], {}, "error: ",
                 id="out-under-a-file"),
    pytest.param(["--config", "{cfg}", "--out", "{tmp}"], {"report": "sub/r.txt"},
                 "error: ", id="report-in-missing-folder"),
    pytest.param(["--config", "{cfg}", "--out", "{tmp}"], {"trajectory_csv": "sub/t.csv"},
                 "error: ", id="csv-in-missing-folder"),
    pytest.param(["--out", "{tmp}"], {}, "usage: ", id="no-config-flag"),
    pytest.param(["--config", "{cfg}", "--mode", "bogus"], {}, "usage: ", id="bogus-mode"),
    pytest.param(["--config", "{cfg}", "--tol", "abc"], {}, "usage: ", id="text-tol"),
])
def test_a_run_that_cannot_start_exits_1(tmp_path, capsys, monkeypatch, args, output,
                                         err):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the run could start")

    monkeypatch.setattr(cli, "solve_bounded_depca", no_solve)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(SMALL, output=output)))
    (tmp_path / "file").write_text("")
    (tmp_path / "latin1.json").write_bytes('{"mode": "é"}'.encode("latin-1"))
    argv = [a.format(tmp=tmp_path, cfg=config_path) for a in args]
    assert main_exit(argv + ["--quiet"]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith(err)
    assert "Traceback" not in stderr


def test_help_exits_0(capsys):
    assert main_exit(["--help"]) == 0
    assert "--seed" not in capsys.readouterr().out


def own_certificate(config: dict) -> dict:
    parsed = cli.config_from_dict(config)
    c = reduce_to_difference(parsed.system(), quad_tol_for(parsed.tol)).constant_coefficient
    cert = certify_constant(c)
    return {"alpha": cert.alpha, "K": cert.K, "P": cert.projection.tolist()}


@pytest.mark.parametrize("mode", ["verify", "dichotomy"])
def test_certificate_block_is_checked(tmp_path, mode):
    block = own_certificate(CONFIG)
    assert run_cli(tmp_path, dict(CONFIG, mode=mode, certificate=block)) == 0
    report = tmp_path / f"{mode}_report.txt"
    assert report_value(report, "certificate_pass") == "true"

    weak = dict(block, K=block["K"] / 10)
    assert run_cli(tmp_path, dict(CONFIG, mode=mode, certificate=weak)) == 2
    assert report_value(report, "certificate_pass") == "false"
    assert report_value(report, "failed_invariant") == "dichotomy.green_decay"


@pytest.mark.parametrize("mode", ["verify", "dichotomy"])
@pytest.mark.parametrize("alpha,code", [(0.5, 0), (0.8, 2)])
def test_periodic_coefficients_certificate(tmp_path, mode, alpha, code):
    # C(n) alternates diag(0.5, 2) and diag(0.25, 3): the slowest one-step
    # rate is ln 2, so alpha = 0.5 holds with K = 1 and alpha = 0.8 fails
    block = {"alpha": alpha, "K": 1.0, "P": [[1.0, 0.0], [0.0, 0.0]],
             "coefficients": [[[0.5, 0.0], [0.0, 2.0]], [[0.25, 0.0], [0.0, 3.0]]]}
    assert run_cli(tmp_path, dict(CONFIG, mode=mode, certificate=block)) == code
    report = tmp_path / f"{mode}_report.txt"
    assert report_value(report, "certificate_pass") == ("true" if code == 0 else "false")


# C is upper triangular with C(0, 1) = 1.70, so P = diag(1, 0) is idempotent
# but not invariant: ||CP - PC|| / (1 + ||C|| ||P||) = 0.52.  Its contractive
# steps CP and C^-1 Q decay, which once let this certificate pass.
NON_INVARIANT = dict(CONFIG, system={"dimension": 2, "A": [[-0.7, 1.5], [0.0, 0.7]],
                                     "B": [[0.1, 0.0], [0.0, 0.1]]})


def invariance_defect(report) -> float:
    note = next(line for line in report.read_text().splitlines()
                if line.startswith("certificate check"))
    return float(note.split("invariance defect ")[1].split(",")[0])


@pytest.mark.parametrize("given_c", [False, True], ids=["reduced-c", "coefficients"])
def test_a_non_invariant_projection_is_refuted(tmp_path, given_c):
    own = own_certificate(NON_INVARIANT)
    parsed = cli.config_from_dict(NON_INVARIANT)
    c = reduce_to_difference(parsed.system(), quad_tol_for(parsed.tol)).constant_coefficient
    extra = {"coefficients": [c.tolist()]} if given_c else {}
    report = tmp_path / "verify_report.txt"

    block = {"alpha": 0.3, "K": 3.0, "P": [[1.0, 0.0], [0.0, 0.0]], **extra}
    assert run_cli(tmp_path, dict(NON_INVARIANT, mode="verify", certificate=block)) == 2
    assert report_value(report, "failed_invariant") == "dichotomy.projection_invariant"
    assert invariance_defect(report) == pytest.approx(0.52, abs=0.01)

    assert run_cli(tmp_path, dict(NON_INVARIANT, mode="verify",
                                  certificate={**own, **extra})) == 0
    assert report_value(report, "certificate_pass") == "true"
    assert invariance_defect(report) < 1e-15


COS_SPEC = {"kind": "cos", "coefficient": [1.0], "omega": 1.0}
COS_SIGNAL = sig.TrigPolynomial.cosine([1.0], 1.0)


@pytest.mark.parametrize("spec,signal", [
    ({"kind": "trig", "terms": [{"coefficient": [[1.0, 2.0]], "frequency": 1.5},
                                {"coefficient": [0.5], "frequency": -0.7}]},
     sig.TrigPolynomial.from_terms([([1.0 + 2.0j], 1.5), ([0.5], -0.7)])),
    ({"kind": "rational_periodic", "p0": 3, "q0": 2,
      "samples": [[1.0], [-0.5], [0.25]]},
     sig.RationalPeriodic.from_samples(3, 2, [[1.0], [-0.5], [0.25]])),
    ({"kind": "aa_test", "amplitude": [0.5]}, sig.AATest.from_amplitude([0.5])),
    ({"kind": "composite", "outer": "sin", "inner": COS_SPEC},
     sig.compose("sin", COS_SIGNAL)),
    ({"kind": "composite", "outer": {"kind": "affine", "scale": 2.0, "offset": -1.0},
      "inner": COS_SPEC}, sig.compose(("affine", 2.0, -1.0), COS_SIGNAL)),
    ({"kind": "composite", "outer": {"kind": "poly", "coeffs": [0.0, 1.0, 0.5]},
      "inner": COS_SPEC}, sig.compose(("poly", 0.0, 1.0, 0.5), COS_SIGNAL)),
], ids=["trig", "rational-periodic", "aa-test", "composite-sin", "composite-affine",
        "composite-poly"])
def test_each_signal_kind_solves(tmp_path, spec, signal):
    assert run_cli(tmp_path, dict(SMALL, forcing=spec)) == 0
    rows = [[float(c) for c in line.split(",")]
            for line in (tmp_path / "solve_trajectory.csv").read_text().splitlines()[1:]]
    got = {t: complex(re, im) for t, re, im in rows if t % 1 == 0.5}
    assert sorted(got) == [-0.5, 0.5]
    traj = solve_bounded_depca(DepcaSystem.build([[-1.0]], [[0.25]], signal), -1, 1, 1e-8)
    for t, value in got.items():
        assert value == pytest.approx(traj.evaluate(t)[0], abs=1e-12)
