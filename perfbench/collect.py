#!/usr/bin/env python3
"""Run the benchmark over ten seeds and write perfbench/baseline.json.

Run from the repository root:

    python3 perfbench/collect.py

Each workload of BENCHMARK.json runs ten times untraced, with seeds
201-210, then twice traced, with seeds 201 and 202; runs are sequential.
Each end-to-end metric gets its median, quartiles and quartile spread (as a
share of the median, next to the metric's bound); each per-layer metric
gets its median over the traced runs.

The figures hold for the host state they were taken in.  Compare a change
with its parent by interleaved runs of both on the same host, not with the
absolute values in baseline.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import quartile_spread

HERE = Path(__file__).resolve().parent


def run_once(command, workload, seed, seconds, trace) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, environment)."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit code {proc.returncode}")
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": quartile_spread(values), "n": len(values),
            "values": values}


SEEDS = range(201, 211)
TRACE_RUNS = 2
OUT = HERE / "baseline.json"
NOTE = ("Medians from one host state only. Judge a change against its "
        "parent by interleaved runs on the same host, never against these "
        "absolute values.")


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"note": NOTE, "run_seconds": bench["run_seconds"],
               "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            result, env = run_once(bench["command"], workload, seed,
                                   bench["run_seconds"], 0)
            runs.append(result)
            summary.setdefault("environment", env)
        end_to_end = {}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats.update(unit=runs[0]["metrics"][name]["unit"], bound=bound)
            end_to_end[name] = stats
            flag = "" if stats["spread"] < bound / 3 else \
                ("  > bound/3" if stats["spread"] <= bound else "  > BOUND")
            print(f"{workload:<13} {name:<16} median {stats['median']:<12.6g}"
                  f" spread {stats['spread']:.4f} (bound {bound}){flag}",
                  flush=True)
        traced = [run_once(bench["command"], workload, seed,
                           bench["run_seconds"], 1)[0]
                  for seed in SEEDS[:TRACE_RUNS]]
        per_layer = {name: {"median": statistics.median(
                                r["metrics"][name]["value"] for r in traced),
                            "unit": traced[0]["metrics"][name]["unit"]}
                     for name in traced[0]["metrics"]}
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + traced),
            "end_to_end": end_to_end, "per_layer": per_layer,
            "traced_seeds": list(SEEDS[:TRACE_RUNS])}
    OUT.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
