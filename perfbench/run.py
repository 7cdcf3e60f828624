"""depca benchmark: one seeded workload per process, closed loop, one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The op list comes from ``workloads.generate``
(same seed, same inputs); ops run one after another on one thread; every
op's output is checked against the mpmath reference after the timed loop.
The last stdout line is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics from the outside-in tracer.
A per-op table and, when traced, every span go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

_T0 = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# Extra processes that repeat the set-up so setup_s is a median of three.
SETUP_REPEATS = 2
TAIL_BEYOND = 10


def _import_depca():
    src = ROOT / "src"
    if not (src / "depca" / "__init__.py").is_file():
        raise SystemExit(f"error: no depca sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import depca

    if Path(depca.__file__).resolve().parent != (src / "depca").resolve():
        raise SystemExit(f"error: depca imported from {depca.__file__}, not {src}")
    return depca


def rank_latencies(seconds: list[float], failed: list[bool]) -> list[float]:
    """Latencies ascending, with every failed op counted as +inf."""
    return sorted(math.inf if bad else s for s, bad in zip(seconds, failed))


def p50(ranked: list[float]) -> float:
    return ranked[math.ceil(0.5 * len(ranked)) - 1]


def tail(ranked: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with TAIL_BEYOND ops above it."""
    n = len(ranked)
    i = max(0, n - TAIL_BEYOND - 1)
    return ranked[i], 100.0 * (i + 1) / n


def _setup(args):
    """Imports, input generation and one warm-up op: everything before the
    first timed op."""
    depca = _import_depca()
    from perfbench import ops, workloads

    cases = workloads.generate(args.workload, args.seed, args.seconds)
    tag = "setup" if args.setup_only else f"trace{args.trace}"
    runner = ops.Runner(OUT / f"work-{args.workload}-{args.seed}-{tag}")
    runner.setup(cases)
    warm = workloads.warmup_case(cases)
    runner.call(warm, runner.prepare(warm))
    return depca, ops, workloads, cases, runner


def _setup_probe(args) -> float:
    """Set-up time of a fresh process, measured by this script itself."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    depca, ops, workloads, cases, runner = _setup(args)
    setup_s = perf_counter() - _T0
    if args.setup_only:
        runner.cleanup()
        print(repr(setup_s))
        return 0

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()

    seconds, outcomes, outputs = [], [], []
    loop_start = perf_counter()
    for i, case in enumerate(cases):
        prepared = runner.prepare(case)
        if tracer:
            tracer.begin_op(i)
            if case.path == "eval":
                tracer.watch(prepared[0])
        start = perf_counter()
        try:
            result = runner.call(case, prepared)
            outcome = "ok"
        except depca.DepcaError as exc:
            result, outcome = exc, "typed_error"
        except Exception as exc:  # the untyped failures are what is counted
            result, outcome = exc, "untyped_error"
        elapsed = perf_counter() - start
        if tracer:
            tracer.end_op()
        seconds.append(elapsed)
        outcomes.append(outcome)
        if outcome == "ok":
            outputs.append(runner.extract(case, prepared, result))
            if case.path == "eval":
                runner.probe_rates.append(case.extra["points"] / elapsed)
        else:
            outputs.append({"error": f"{type(result).__name__}: {result}"})
    loop_s = perf_counter() - loop_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.cleanup()

    from perfbench.check import Checker

    check_start = perf_counter()
    checker = Checker()
    wrong = [False] * len(cases)
    details = []
    for i, (case, outcome, out) in enumerate(zip(cases, outcomes, outputs)):
        if outcome == "ok":
            ok, detail = checker.check(case, out)
            wrong[i] = not ok
        else:
            detail = out["error"]
        details.append(detail)

    check_s = perf_counter() - check_start
    n = len(cases)
    failed = [o != "ok" or w for o, w in zip(outcomes, wrong)]
    ranked = rank_latencies(seconds, failed)
    tail_s, tail_pct = tail(ranked)
    shares = {
        "fail_share": sum(failed) / n,
        "wrong_share": sum(wrong) / n,
        "untyped_error_share": outcomes.count("untyped_error") / n,
    }
    if not args.trace:
        setups = [setup_s] + [_setup_probe(args) for _ in range(SETUP_REPEATS)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_s": (p50(ranked), "s"),
            "op_tail_s": (tail_s, "s"),
            "ok_share": (1.0 - shares["fail_share"], "share"),
            "right_share": (1.0 - shares["wrong_share"], "share"),
            "typed_share": (1.0 - shares["untyped_error_share"], "share"),
            "eval_points_per_s": (statistics.median(runner.probe_rates), "1/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != [
                (k, unit) for k, (_, unit) in metrics.items()]:
            raise SystemExit("error: end-to-end metrics out of step with BENCHMARK.json")
    else:
        tracer.uninstall()
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.trace.npz")
        layer = tracer.metrics()
        layer["bench.traced_op_p50_s"] = p50(ranked)
        metrics = {m["name"]: (float(layer[m["name"]]), m["unit"]) for m in spec["per_layer"]}

    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": n, "loop_s": loop_s, "check_s": check_s, "tail_percentile": tail_pct,
        "tail_ops_beyond": n - round(tail_pct * n / 100.0), **shares,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "rows": [dict(case.row(), outcome="wrong" if w else o, wall_s=s, detail=d)
                 for case, o, w, s, d in zip(cases, outcomes, wrong, seconds, details)],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} ops={n} loop={loop_s:.2f}s check={check_s:.2f}s "
          f"tail=p{tail_pct:.1f} ({record['tail_ops_beyond']} ops beyond)")
    for name, value in shares.items():
        print(f"{name} = {value:.6g} share")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(w and not c.known_defect for w, c in zip(wrong, cases)),
        "attempted": n, "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
