"""Tests of the benchmark itself: reference, generator, tracer, ranking."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import ops, reference, run, workloads
from perfbench.tracer import Tracer

ROOT = run.ROOT


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout's ignored output directory."""
    path = run.OUT / "test-work"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


class TestReference:
    def test_hand_derived_scalar_case(self):
        # A=0, B=-1/2, f=cos(3 pi t): h(n) = 0, so x(n) = 0 and
        # x(t) = sin(3 pi t) / (3 pi)
        sol = reference.Solution([[0.0]], [[-0.5]],
                                 {"kind": "cos", "coef": [1.0], "omega": 3 * math.pi})
        for t in (-2.25, -1.0, 0.0, 0.25, 0.5, 1.5, 3.75):
            expected = math.sin(3 * math.pi * t) / (3 * math.pi)
            assert abs(sol.at(t)[0] - expected) < 1e-15

    def test_trig_p2_case(self):
        # the same h(n) = 0 argument with a coupled B: x(n) = 0 whatever B is,
        # so x(t) = (1, 1/2) sin(3 pi t) / (3 pi)
        sol = reference.Solution([[0.0, 0.0], [0.0, 0.0]], [[-0.5, 0.25], [0.0, -0.5]],
                                 {"kind": "cos", "coef": [1.0, 0.5], "omega": 3 * math.pi})
        for t in (-1.5, 0.0, 0.25, 2.5):
            base = math.sin(3 * math.pi * t) / (3 * math.pi)
            got = sol.at(t)
            assert abs(got[0] - base) < 1e-15
            assert abs(got[1] - 0.5 * base) < 1e-15

    def test_step_forcing_is_periodic_fixed_point(self):
        # constant step value g on a scalar system: x(n) = (1 - c)^-1 Phi(1) g
        a, b, g = -1.0, 0.25, 0.7
        sol = reference.Solution([[a]], [[b]], {"kind": "step", "values": [[g]]})
        phi = (math.exp(a) - 1.0) / a
        c = math.exp(a) + phi * b
        assert abs(sol.at_integer(3)[0] - phi * g / (1.0 - c)) < 1e-15


class TestGenerator:
    @pytest.mark.parametrize("workload", sorted(workloads.WHY))
    def test_same_seed_same_inputs(self, workload):
        first = [dataclasses.asdict(c) for c in workloads.generate(workload, 7, 20)]
        again = [dataclasses.asdict(c) for c in workloads.generate(workload, 7, 20)]
        other = [dataclasses.asdict(c) for c in workloads.generate(workload, 8, 20)]
        assert json.dumps(first) == json.dumps(again)
        assert json.dumps(first) != json.dumps(other)
        assert len(first) == len(other)

    def test_every_workload_is_declared(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WHY)


def _outputs(runner, cases):
    out = []
    for case in cases:
        result = runner.call(case, runner.prepare(case))
        if hasattr(result, "integer_samples"):
            out.append(np.stack([result.integer_samples[n]
                                 for n in sorted(result.integer_samples)]))
            out.append(result.evaluate_grid(np.arange(*case.window, 0.25)))
        else:
            out.append(result)
    return out


def _same(x, y):
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    return x == y


class TestTracer:
    def test_traced_outputs_are_bit_identical(self, workdir):
        cases = workloads.generate("direct_closed_form", 3, 1)[:1]
        quad = workloads.generate("quadrature", 3, 1)
        cases += [c for c in quad if c.cid in ("sin_cos-1-1e-06", "massera-cos-1",
                                               "rotation-0")]
        runner = ops.Runner(workdir)
        plain = _outputs(runner, cases)

        from depca import depca_engine, matrix_core
        original_expm = matrix_core.expm
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            assert depca_engine.expm is not original_expm
            for i, case in enumerate(cases):
                tracer.begin_op(i)
                traced += _outputs(runner, [case])
                tracer.end_op()
        finally:
            tracer.uninstall()
        assert _same(traced, plain)
        assert depca_engine.expm is original_expm
        metrics = tracer.metrics()
        assert metrics["matrix_core.expm.calls"] > 0
        assert metrics["depca_engine.adaptive_gl.calls"] > 0
        assert metrics["signals.evaluate.calls"] >= metrics["signals.TrigPolynomial.evaluate.calls"]
        assert 0.0 < metrics["depca_engine.propagator.hit_ratio"] <= 1.0
        assert metrics["depca_engine.cache_entries"] > 0
        assert all(v >= 0 for v in tracer.self_s)

    def test_counts_caches_of_a_system_built_before_the_op(self, workdir):
        # an eval op's system is built and solved before the op begins; the
        # op's 20 001-point evaluate_grid fills its caches to ~5000 entries
        case = next(c for c in workloads.generate("cli_dense", 3, 1) if c.path == "eval")
        runner = ops.Runner(workdir)
        prepared = runner.prepare(case)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.begin_op(0)
            tracer.watch(prepared[0])
            runner.call(case, prepared)
            tracer.end_op()
        finally:
            tracer.uninstall()
        assert tracer.metrics()["depca_engine.cache_entries"] > 4000


class TestRanking:
    def test_failed_op_ranks_above_every_success(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(11, 60))
            seconds = list(rng.uniform(0.01, 1.0, n))
            failed = list(rng.uniform(size=n) < 0.15)
            ranked = run.rank_latencies(seconds, failed)
            assert all(math.isinf(v) for v in ranked[n - sum(failed):])
            i = int(rng.integers(n))
            if not failed[i]:
                continue
            fixed = failed.copy()
            fixed[i] = False
            better = run.rank_latencies(seconds, fixed)
            assert run.p50(better) <= run.p50(ranked)
            assert run.tail(better)[0] <= run.tail(ranked)[0]

    def test_tail_has_ten_ops_beyond(self):
        ranked = run.rank_latencies([float(k) for k in range(40)], [False] * 40)
        value, pct = run.tail(ranked)
        assert value == 29.0
        assert sum(v > value for v in ranked) == 10
        assert pct == pytest.approx(75.0)


def test_refuses_to_run_without_the_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cascade",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
