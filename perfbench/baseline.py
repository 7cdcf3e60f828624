"""Record the baseline of every workload in ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

Runs ``run.py`` untraced on seeds 1..10 of every workload, twice over, then
twice a traced and an untraced run on seed 1, one process at a time.  The
runs are interleaved (seed 1 of every workload, then seed 2, ...), so that
a stretch of minutes in which the machine runs slow touches one run of each
workload, not several runs of one.  It writes, from the first set, the
median and quartiles of every end-to-end metric and the spread
(Q3 - Q1) / median next to the metric's bound, and the second set's median
and spread; the failed ops by case; the traced per-layer table, whether the
traced counts repeated exactly, and the tracing overhead: the median traced
op_p50_s over the median untraced op_p50_s of the runs made next to them,
so that less of the machine's drift enters the ratio.

A metric is ``resolved`` when both sets' spreads are within its bound and
the second median is not worse than the first by more than the bound: only
then can the bound tell a regression from the machine's own drift.
``setup_s`` is exempt from the spread check, as in the benchmark's
acceptance rule.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "baseline.json"
SEEDS = range(1, 11)
SETS = 2
TRACED_SEED = 1
COUNT_SUFFIXES = (".calls", ".points", ".failures", "cache_entries", "truncation_radius.max")


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def _quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, spread)"""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def _summary(sets: list[list[float]], metric: dict) -> dict:
    med, q1, q3, spread = _quartiles(sets[0])
    med2, _, _, spread2 = _quartiles(sets[1])
    worse = (med2 - med) / med if metric["better"] == "lower" else (med - med2) / med
    steady = metric["name"] == "setup_s" or max(spread, spread2) <= metric["bound"]
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "repeat_median": med2, "repeat_spread": spread2, "bound": metric["bound"],
            "resolved": steady and worse <= metric["bound"],
            "unit": metric["unit"], "values": sets[0], "repeat_values": sets[1]}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    sets = {name: [[] for _ in range(SETS)] for name in names}
    for k in range(SETS):
        for seed in SEEDS:
            for name in names:
                sets[name][k].append(_run(name, seed, seconds, 0))
    traced = {name: [] for name in names}
    plain = {name: [] for name in names}
    for _ in range(2):
        for name in names:
            traced[name].append(_run(name, TRACED_SEED, seconds, 1))
            plain[name].append(_run(name, TRACED_SEED, seconds, 0))

    table = {"run_seconds": seconds}
    for name in names:
        runs = sets[name][0]
        failed = Counter()
        for _, record in runs:
            for row in record["rows"]:
                if row["outcome"] != "ok":
                    failed[f"{row['case']}: {row['outcome']}"] += 1
        layer = traced[name][0][0]["metrics"]
        counts = {k: v["value"] for k, v in layer.items() if k.endswith(COUNT_SUFFIXES)}
        again = {k: traced[name][1][0]["metrics"][k]["value"] for k in counts}
        first = runs[0]
        table[name] = {
            "why": first[1]["why"],
            "ops": first[0]["attempted"],
            "tail_percentile": first[1]["tail_percentile"],
            "correct": all(r["correct"] for r, _ in runs),
            "failed_ops_per_run": [r["failed"] for r, _ in runs],
            "failed_by_case": dict(sorted(failed.items())),
            "end_to_end": {
                m["name"]: _summary([[r["metrics"][m["name"]]["value"] for r, _ in runs_k]
                                     for runs_k in sets[name]], m)
                for m in bench["end_to_end"]},
            "per_layer": {k: v["value"] for k, v in layer.items()},
            "per_layer_counts_repeat": counts == again,
            "trace_overhead": (
                statistics.median(r["metrics"]["bench.traced_op_p50_s"]["value"]
                                  for r, _ in traced[name])
                / statistics.median(r["metrics"]["op_p50_s"]["value"] for r, _ in plain[name])),
        }
        e2e = table[name]["end_to_end"]
        print(name, {k: (round(v["spread"], 3), round(v["repeat_spread"], 3),
                         round(v["repeat_median"] / v["median"], 3)) for k, v in e2e.items()},
              flush=True)
    OUT.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
