#!/usr/bin/env python3
"""Monte Carlo sweep benchmark of ``irs_sensing``.

Run from the repository root:

    python3 perfbench/run.py --workload snr_sweep --seed 1 --seconds 30 --trace 0

One process drives the public API (``build_spec`` -> ``run_experiment`` ->
``emit_results``) on ``configs/default.yaml``, repeating the workload's
sweep until ``--seconds`` have passed (at least twice), and checks every
results CSV.  Set-up time is measured separately in fresh interpreters.
BLAS threading is left at the library default and recorded, not pinned.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repeats and reports per-layer metrics from spans
recorded around calls into each module.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output check passed.

End-to-end metrics (``--trace 0``): ``trials_per_s`` (trials attempted
over the wall time of ``run_experiment`` + ``emit_results``, summed over
repeats), ``cpu_s_per_trial`` (process CPU time over the same span),
``setup_s`` (fresh interpreter until ``build_spec`` is done, median over
spawns) and ``peak_rss_mb``.  The report lines also give ``failed_share``
and the ``*_gap_db`` accuracy figures; these are exact for a seed but
differ from seed to seed with the scene draw, so they are carried as
per-layer ``experiments.*`` metrics rather than bounded ones.

A trial is one estimator run on one draw: ``rician_comparison`` runs two
estimators per draw, so each of its draws counts as two trials.  A trial
fails when the estimator rejects it (the CSV ``failures`` column); a
repeat that raises or fails an output check counts all its trials as
failed.  In the JSON line ``failed`` counts only the latter, since a
rejected trial is a correct, recorded outcome of the program.

Metric arithmetic and the traced-run self-test: ``python3 -m pytest -q perfbench``.
Seed baseline over ten seeds per workload: ``perfbench/baseline.json``,
written by ``perfbench/collect.py``.  Its figures hold for one host state
only; judge a change by interleaved runs of it and its parent on one host.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from metrics import failed_share, gap_db, self_times
from tracer import PACKAGE, Target, Tracer

CONFIG = "configs/default.yaml"
OUT_DIR = ".perfbench_out"
SETUP_SPAWNS = 25
CSV_HEADER = ["sweep_name", "sweep_value", "parameter", "mse", "crb",
              "trials_used", "failures"]
FAMILIES = ("theta", "nu", "tau")
MIB = float(2 ** 20)


@dataclass(frozen=True)
class Workload:
    presets: tuple[str, ...]
    trials: int          # trials per sweep point in every repeat


# Together the three workloads run every preset of scripts/run_all_presets.py.
# snr_sweep: headline curve; frozen channel, so per-point invariants are
#   recomputed per trial and a hoist shows here; the low SNR points reject
#   trials (UnwrapInfeasible).
# fading_sweep: channel, truth, beamformer and FIM redrawn every trial and
#   both direction estimators run; any channel-keyed cache is bypassed.
# shape_sweep: tensor shapes from 2x16x10 to 20x16x10 and 10x32x10, so
#   linear-algebra cost varies while per-call overhead does not; the L=1
#   point rejects every trial in cp_decompose (UniquenessError).
WORKLOADS = {
    "snr_sweep": Workload(("mse_vs_snr",), 40),
    "fading_sweep": Workload(("rician_comparison",), 40),
    "shape_sweep": Workload(("mse_vs_pulses", "mse_vs_subcarriers",
                             "mse_vs_antennas"), 25),
}


def _tensor_bytes(bound: dict, result) -> float:
    return result.data.nbytes if result is not None else 0


TARGETS = (
    *(Target(f"{PACKAGE}.scene", name) for name in (
        "validate_scene", "derive_target_truth", "build_los_channel",
        "build_rician_channel", "design_phase_profiles", "design_beamformers")),
    Target(f"{PACKAGE}.synthesis", "build_factor_matrices"),
    Target(f"{PACKAGE}.synthesis", "synthesize_echo_tensor", _tensor_bytes),
    Target(f"{PACKAGE}.synthesis", "apply_noise", _tensor_bytes),
    Target(f"{PACKAGE}.cpd", "cp_decompose", lambda a, r: a["data"].size),
    Target(f"{PACKAGE}.cpd", "reconstruction_error"),
    Target(f"{PACKAGE}.estimation", "estimate_targets"),
    Target(f"{PACKAGE}.estimation", "align_columns"),
    Target(f"{PACKAGE}.estimation", "resolve_doa"),
    Target(f"{PACKAGE}.estimation", "gamma_ratio_curve",
           lambda a, r: len(a["grid"])),
    Target(f"{PACKAGE}.estimation", "estimate_doa_multirank"),
    Target(f"{PACKAGE}.estimation", "estimate_doppler"),
    Target(f"{PACKAGE}.estimation", "estimate_delay"),
    Target(f"{PACKAGE}.crb", "compute_fim"),
    Target(f"{PACKAGE}.crb", "compute_crb"),
)
RUN_SPAN = "experiments.run_experiment"
EMIT_SPAN = "experiments.emit_results"

CPD_FAILURES = ("UniquenessError", "RankDeficient", "IllConditionedShift")
ESTIMATION_FAILURES = CPD_FAILURES + (
    "AmbiguousAlignment", "NoFeasibleGrid", "DegenerateProfilePair",
    "RankOneChannel", "DivisionBlowup", "UnwrapInfeasible")
# Warning kind -> a phrase of the messages estimation.py emits.
WARNING_KINDS = {"near_zero_divisor": "near-zero divisors",
                 "doppler_boundary": "unambiguous boundary",
                 "reconstruction_residual": "reconstruction residual"}
ESTIMATION_STEPS = ("align_columns", "resolve_doa", "gamma_ratio_curve",
                    "estimate_doa_multirank", "estimate_doppler",
                    "estimate_delay")

END_TO_END = {  # name -> unit
    "trials_per_s": "trials/s", "cpu_s_per_trial": "s", "setup_s": "s",
    "peak_rss_mb": "MB"}
PER_LAYER = {
    "scene.calls": "count", "scene.self_ms_per_trial": "ms",
    "scene.design_beamformers.calls": "count",
    "synthesis.calls": "count", "synthesis.self_ms_per_trial": "ms",
    "synthesis.tensor_mb": "MB",
    "cpd.cp_decompose.calls": "count",
    "cpd.cp_decompose.self_ms_per_trial": "ms",
    "cpd.entries_per_call": "count", "cpd.reconstruction_error.calls": "count",
    **{f"cpd.failures.{c}": "count" for c in CPD_FAILURES + ("other",)},
    "estimation.estimate_targets.calls": "count",
    "estimation.estimate_targets.self_ms_per_trial": "ms",
    "estimation.useful_ratio": "fraction",
    **{f"estimation.failures.{c}": "count"
       for c in ESTIMATION_FAILURES + ("other",)},
    **{f"estimation.{fn}.self_ms_per_trial": "ms" for fn in ESTIMATION_STEPS},
    "estimation.gamma_ratio_curve.calls": "count",
    "estimation.gamma_ratio_curve.grid_points": "count",
    **{f"estimation.warnings.{k}": "count" for k in (*WARNING_KINDS, "other")},
    "crb.compute_fim.calls": "count", "crb.compute_fim.self_ms_per_trial": "ms",
    "crb.compute_crb.calls": "count", "crb.singular": "count",
    "experiments.self_ms_per_trial": "ms", "experiments.emit_results_ms": "ms",
    "experiments.csv_bytes": "bytes", "experiments.failed_share": "fraction",
    **{f"experiments.{f}_gap_db": "dB" for f in FAMILIES},
    "config.load_config_ms": "ms", "cli.import_ms": "ms",
    "trace.overhead": "ratio",
}

# Runs in a fresh interpreter: import -> load_config -> build_spec, then
# reports its own split on the first line of its output.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import irs_sensing.cli
from irs_sensing.config import load_config
from irs_sensing.experiments import build_spec
t1 = time.perf_counter()
config = load_config(sys.argv[1])
t2 = time.perf_counter()
specs = [build_spec(p, trials=int(sys.argv[2]), seed=int(sys.argv[3]))
         for p in sys.argv[4:]]
print(json.dumps({"import_ms": 1e3 * (t1 - t0),
                  "load_config_ms": 1e3 * (t2 - t1)}), flush=True)
"""


@dataclass
class Repeat:
    wall_s: float
    cpu_s: float
    csvs: dict[str, bytes]
    error: str | None = None
    tracer: Tracer | None = None
    warnings: list[str] = field(default_factory=list)


def measure_setup(workload: Workload, seed: int) -> list[dict]:
    """Time fresh interpreters from spawn until ``build_spec`` is done.

    The first spawn is not kept: it may compile bytecode, which users pay
    once, not on every call.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, CONFIG, str(workload.trials),
           str(seed), *workload.presets]
    out = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or not line:
            raise RuntimeError(f"set-up interpreter exited with code {code}")
        if i:
            out.append(dict(json.loads(line), setup_s=ready - start))
    return out


def run_repeat(experiments, specs, config, out_dir: Path,
               tracer: Tracer | None = None) -> Repeat:
    """One pass over the workload's presets; a crash is recorded, not raised."""
    paths = [out_dir / f"{spec.preset}.csv" for spec in specs]
    for path in paths:
        path.unlink(missing_ok=True)
    error = None
    caught: list[warnings.WarningMessage] = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            for spec, path in zip(specs, paths):
                experiments.emit_results(
                    experiments.run_experiment(spec, config), path)
        else:
            with tracer, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for spec, path in zip(specs, paths):
                    with tracer.span(RUN_SPAN):
                        rows = experiments.run_experiment(spec, config)
                    with tracer.span(EMIT_SPAN):
                        experiments.emit_results(rows, path)
    except Exception as exc:  # a failed repeat becomes all-failed trials
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    csvs = {spec.preset: path.read_bytes()
            for spec, path in zip(specs, paths) if path.exists()}
    return Repeat(wall, cpu, csvs, error, tracer,
                  [str(w.message) for w in caught])


def expected_groups(spec) -> list[tuple[str, float]]:
    """(sweep_name, sweep_value) of each three-row group, in CSV order."""
    names = ([f"{spec.sweep_parameter}_two_phase",
              f"{spec.sweep_parameter}_single_phase"]
             if spec.compare_single_phase else [spec.sweep_parameter])
    return [(name, float(v)) for v in spec.sweep_values for name in names]


def check_csv(spec, data: bytes | None) -> tuple[list[dict], list[str]]:
    """Parse one results CSV and check it against its spec."""
    if data is None:
        return [], [f"{spec.preset}: no CSV written"]
    records = list(csv.reader(io.StringIO(data.decode())))
    if not records or records[0] != CSV_HEADER:
        return [], [f"{spec.preset}: unexpected header"]
    expected = [(name, value, fam) for name, value in expected_groups(spec)
                for fam in FAMILIES]
    body = records[1:]
    if len(body) != len(expected):
        return [], [f"{spec.preset}: {len(body)} rows, expected {len(expected)}"]
    rows, problems = [], []
    for i, (rec, (name, value, fam)) in enumerate(zip(body, expected)):
        try:
            row = dict(sweep_name=rec[0], sweep_value=float(rec[1]),
                       parameter=rec[2], mse=float(rec[3]), crb=float(rec[4]),
                       trials_used=int(rec[5]), failures=int(rec[6]))
        except (ValueError, IndexError):
            problems.append(f"{spec.preset} row {i}: unparsable {rec}")
            continue
        if (row["sweep_name"], row["sweep_value"], row["parameter"]) \
                != (name, value, fam):
            problems.append(f"{spec.preset} row {i}: got {rec[:3]}, "
                            f"expected {[name, value, fam]}")
        if row["trials_used"] + row["failures"] != spec.trials:
            problems.append(f"{spec.preset} row {i}: trials_used + failures "
                            f"!= {spec.trials}")
        rows.append(row)
    return rows, problems


def trial_count(spec) -> int:
    return spec.trials * len(expected_groups(spec))


def layer_metrics(rep: Repeat, n_trials: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced repeat."""
    spans = rep.tracer.spans
    own = self_times([(s.start, s.end, s.parent) for s in spans])
    calls, self_s, dur, errors = Counter(), Counter(), Counter(), Counter()
    for span, t in zip(spans, own):
        calls[span.name] += 1
        self_s[span.name] += t
        dur[span.name] += span.end - span.start
        if span.error:
            errors[span.name, span.error] += 1
    sizes = rep.tracer.sizes

    def layer(counter, prefix):
        return sum(v for k, v in counter.items() if k.startswith(prefix + "."))

    def ms_per_trial(seconds):
        return 1e3 * seconds / n_trials

    def failures(span, known):
        counts = dict.fromkeys(known + ("other",), 0)
        for (name, cls), n in errors.items():
            if name == span:
                counts[cls if cls in known else "other"] += n
        return counts

    kinds = Counter()
    for message in rep.warnings:
        kinds[next((k for k, phrase in WARNING_KINDS.items()
                    if phrase in message), "other")] += 1
    est_calls = calls["estimation.estimate_targets"]
    est_failed = sum(n for (name, _), n in errors.items()
                     if name == "estimation.estimate_targets")
    return {
        "scene.calls": layer(calls, "scene"),
        "scene.self_ms_per_trial": ms_per_trial(layer(self_s, "scene")),
        "scene.design_beamformers.calls": calls["scene.design_beamformers"],
        "synthesis.calls": layer(calls, "synthesis"),
        "synthesis.self_ms_per_trial": ms_per_trial(layer(self_s, "synthesis")),
        "synthesis.tensor_mb": layer(sizes, "synthesis") / MIB,
        "cpd.cp_decompose.calls": calls["cpd.cp_decompose"],
        "cpd.cp_decompose.self_ms_per_trial":
            ms_per_trial(self_s["cpd.cp_decompose"]),
        "cpd.entries_per_call": (sizes.get("cpd.cp_decompose", 0)
                                 / max(calls["cpd.cp_decompose"], 1)),
        "cpd.reconstruction_error.calls": calls["cpd.reconstruction_error"],
        **{f"cpd.failures.{c}": n for c, n in
           failures("cpd.cp_decompose", CPD_FAILURES).items()},
        "estimation.estimate_targets.calls": est_calls,
        "estimation.estimate_targets.self_ms_per_trial":
            ms_per_trial(self_s["estimation.estimate_targets"]),
        "estimation.useful_ratio": (est_calls - est_failed) / max(est_calls, 1),
        **{f"estimation.failures.{c}": n for c, n in
           failures("estimation.estimate_targets", ESTIMATION_FAILURES).items()},
        **{f"estimation.{fn}.self_ms_per_trial":
           ms_per_trial(self_s[f"estimation.{fn}"]) for fn in ESTIMATION_STEPS},
        "estimation.gamma_ratio_curve.calls":
            calls["estimation.gamma_ratio_curve"],
        "estimation.gamma_ratio_curve.grid_points":
            sizes.get("estimation.gamma_ratio_curve", 0),
        **{f"estimation.warnings.{k}": kinds[k]
           for k in (*WARNING_KINDS, "other")},
        "crb.compute_fim.calls": calls["crb.compute_fim"],
        "crb.compute_fim.self_ms_per_trial":
            ms_per_trial(self_s["crb.compute_fim"]),
        "crb.compute_crb.calls": calls["crb.compute_crb"],
        "crb.singular": sum(n for (_, cls), n in errors.items()
                            if cls == "SingularFim"),
        "experiments.self_ms_per_trial": ms_per_trial(self_s[RUN_SPAN]),
        "experiments.emit_results_ms": 1e3 * dur[EMIT_SPAN],
        "experiments.csv_bytes": sum(len(b) for b in rep.csvs.values()),
    }


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with NumPy, when it can be asked."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": openblas_threads(),
            "git_commit": git_commit(root)}


def write_spans(path: Path, traced: list[Repeat]) -> None:
    with open(path, "w") as fh:
        for i, rep in enumerate(traced):
            for s in rep.tracer.spans:
                fh.write(json.dumps([i, s.name, s.start, s.end, s.parent,
                                     s.error]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / PACKAGE / "__init__.py").is_file() \
            or not (root / CONFIG).is_file():
        print(f"perfbench: src/{PACKAGE} or {CONFIG} not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from irs_sensing import experiments
    from irs_sensing.config import load_config

    workload = WORKLOADS[args.workload]
    setup = measure_setup(workload, args.seed)
    config = load_config(CONFIG)
    specs = [experiments.build_spec(p, trials=workload.trials, seed=args.seed)
             for p in workload.presets]
    n_trials = sum(trial_count(spec) for spec in specs)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    # Warm-up: first-call costs inside NumPy and BLAS are not timed.
    for preset in workload.presets:
        experiments.run_experiment(
            experiments.build_spec(preset, trials=1, seed=args.seed), config)

    untraced: list[Repeat] = []
    traced: list[Repeat] = []
    deadline = time.perf_counter() + args.seconds
    while len(untraced) < 2 or time.perf_counter() < deadline:
        untraced.append(run_repeat(experiments, specs, config, out_dir))
        if args.trace:
            traced.append(run_repeat(experiments, specs, config, out_dir,
                                     Tracer(TARGETS)))

    # Output checks: the first repeat's CSVs against the spec, and every
    # repeat (traced ones included) byte-identical to the first.
    reference = untraced[0]
    problems, rows = [], []
    for spec in specs:
        spec_rows, spec_problems = check_csv(spec, reference.csvs.get(spec.preset))
        rows += spec_rows
        problems += spec_problems
    reference_ok = not problems and reference.error is None
    completed = []
    for i, rep in enumerate(untraced + traced):
        label = f"{'traced ' if rep.tracer else ''}repeat {i}"
        ok = reference_ok and rep.error is None and rep.csvs == reference.csvs
        if rep.error:
            problems.append(f"{label} raised {rep.error}")
        elif rep.csvs != reference.csvs:
            problems.append(f"{label}: CSV differs from repeat 0")
        if rep.tracer is not None and rep.tracer.unrestored():
            problems.append(f"{label}: not restored: {rep.tracer.unrestored()}")
            ok = False
        completed.append(ok)
    rejected = sum(r["failures"] for r in rows if r["parameter"] == "theta")
    share = failed_share((n_trials, rejected, ok) for ok in completed)
    gaps = {f: gap_db(rows, f) for f in FAMILIES}
    if reference_ok and not all(map(math.isfinite, gaps.values())):
        problems.append("no two-phase row with finite mse and crb")

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} presets={','.join(workload.presets)} "
          f"trials_per_point={workload.trials} trials_per_repeat={n_trials}")
    print("env " + json.dumps(environment(root)))
    for spec in specs:
        data = reference.csvs.get(spec.preset, b"")
        print(f"csv {spec.preset} sha256={hashlib.sha256(data).hexdigest()} "
              f"bytes={len(data)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    wall = sum(r.wall_s for r in untraced)
    attempted = len(untraced) * n_trials
    report = {
        "trials_per_s": (attempted / wall, "trials/s",
                         f"{len(untraced)} repeats x {n_trials} trials "
                         f"in {wall:.1f} s"),
        "cpu_s_per_trial": (sum(r.cpu_s for r in untraced) / attempted, "s",
                            f"process CPU over {len(untraced)} repeats"),
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s",
                    f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "process peak"),
        "failed_share": (share, "fraction",
                         f"{rejected} rejected of {n_trials} per repeat, "
                         f"{completed.count(False)} of {len(completed)} "
                         "repeats failed"),
        **{f"{f}_gap_db": (gaps[f], "dB", "two-phase rows, mean over points")
           for f in FAMILIES},
    }
    for name, (value, unit, note) in report.items():
        print(f"metric {name:<16} {value:>14.6g} {unit:<9} {note}")

    if args.trace:
        per_repeat = [layer_metrics(rep, n_trials) for rep in traced]
        metrics = {k: statistics.median(m[k] for m in per_repeat)
                   for k in per_repeat[0]}
        metrics["experiments.failed_share"] = share
        metrics.update({f"experiments.{f}_gap_db": gaps[f] for f in FAMILIES})
        metrics["config.load_config_ms"] = statistics.median(
            s["load_config_ms"] for s in setup)
        metrics["cli.import_ms"] = statistics.median(s["import_ms"]
                                                     for s in setup)
        metrics["trace.overhead"] = (
            wall / sum(r.wall_s for r in traced) * len(traced) / len(untraced))
        units = PER_LAYER
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_path, traced)
        for name, unit in units.items():
            print(f"layer {name:<46} {metrics[name]:>14.6g} {unit}")
        print(f"spans {len(traced)} traced repeats, "
              f"{len(traced[0].tracer.wrapped_sites())} bindings wrapped -> "
              f"{spans_path.relative_to(root)}")
    else:
        metrics = {k: report[k][0] for k in END_TO_END}
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {set(metrics) ^ set(units)}")

    repeats = len(completed)
    correct = not problems
    result = {"correct": correct,
              "attempted": repeats * n_trials,
              "failed": completed.count(False) * n_trials,
              "metrics": {k: {"value": _number(metrics[k]), "unit": units[k]}
                          for k in units}}
    print(json.dumps(result))
    return 0 if correct else 1


def _number(x: float) -> float | None:
    """JSON has no NaN; a non-finite value is reported as null."""
    return x if math.isfinite(x) else None


if __name__ == "__main__":
    sys.exit(main())
