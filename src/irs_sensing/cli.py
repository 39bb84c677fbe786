"""Command-line front end.

``sense run`` executes a Monte Carlo preset and writes aggregate rows;
``sense limits`` prints the range window and unambiguous speed implied by
the waveform timing; ``sense crb`` emits bound curves over an SNR sweep.
Exit codes: 0 success, 2 configuration problem, 3 output I/O problem.
"""
from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .config import FullConfig, load_config
from .crb import FIM_CONDITION_LIMIT, compute_crb, compute_fim
from .errors import ConfigError
from .experiments import (DEFAULT_SEED, PARAMETER_LABELS, PRESET_NAMES,
                          build_spec, emit_results, format_float,
                          run_experiment)
from .scene import draw_scene_point, sensing_limits
from .synthesis import echo_tensors, noise_sigma_for_snr, noise_variance

CRB_SNR_GRID = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sense",
        description="Simulation and estimation harness for surface-assisted "
                    "multi-target sensing with pulsed multicarrier waveforms.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a Monte Carlo experiment preset")
    run_p.add_argument("--config", required=True, help="YAML scene/waveform file")
    run_p.add_argument("--preset", required=True,
                       help=f"one of {', '.join(PRESET_NAMES)}")
    run_p.add_argument("--out", required=True, help="output file path")
    run_p.add_argument("--trials", type=int, default=None,
                       help="override the preset trial count")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the experiment seed")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")

    lim_p = sub.add_parser("limits",
                           help="print the waveform's sensing limits")
    lim_p.add_argument("--config", required=True)

    crb_p = sub.add_parser("crb", help="emit bound curves over an SNR sweep")
    crb_p.add_argument("--config", required=True)
    crb_p.add_argument("--out", default=None,
                       help="output CSV path (default: stdout)")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    spec = build_spec(args.preset, trials=args.trials, seed=args.seed)
    rows = run_experiment(spec, config)
    emit_results(rows, args.out, args.format)
    return 0


def _cmd_limits(args) -> int:
    config = load_config(args.config)
    limits = sensing_limits(config.waveform)
    print(f"R_min_m {limits.min_range_m:.10g}")
    print(f"R_max_m {limits.max_range_m:.10g}")
    print(f"v_max_mps {limits.max_speed_mps:.10g}")
    return 0


def _crb_rows(config: FullConfig) -> tuple[list[str], list[list[str]]]:
    point = draw_scene_point(config, [np.random.default_rng(DEFAULT_SEED)])
    clean = echo_tensors(*point, config.waveform, config.arrays)
    sigma = np.concatenate([noise_sigma_for_snr(clean, snr)
                            for snr in CRB_SNR_GRID], axis=1)
    bounds = compute_crb(compute_fim(*point, config.waveform, config.arrays,
                                     noise_variance(sigma)))
    failed = np.flatnonzero(np.isnan(bounds.theta).any(axis=-1))
    if failed.size:
        i = failed[0]
        raise ConfigError(f"no bound at {CRB_SNR_GRID[i]:g} dB SNR: condition "
                          f"number {bounds.condition_number[i]:.3e} exceeds "
                          f"{FIM_CONDITION_LIMIT:.0e}")
    k_total = point.truth.n_targets
    header = ["snr_db"]
    for label in PARAMETER_LABELS:
        header += [f"crb_{label}_{k + 1}" for k in range(k_total)]
    body = [[format_float(v) for v in (snr, *row)] for snr, row in zip(
        CRB_SNR_GRID, np.hstack([bounds.theta, bounds.doppler, bounds.delay]))]
    return header, body


def _cmd_crb(args) -> int:
    config = load_config(args.config)
    header, body = _crb_rows(config)
    with (nullcontext(sys.stdout) if args.out is None
          else open(Path(args.out), "w", newline="")) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(body)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "limits": _cmd_limits, "crb": _cmd_crb}
    try:
        return handler[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
