#!/usr/bin/env python3
"""Run every Monte Carlo preset and write one results CSV per preset.

Usage:
    python3 scripts/run_all_presets.py --out-dir results [--trials 200]

With default trial counts this reproduces the benchmark sweeps end to end;
pass a smaller ``--trials`` for a quick smoke run.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from irs_sensing.config import load_config
from irs_sensing.errors import ConfigError
from irs_sensing.experiments import (PRESET_NAMES, build_spec, emit_results,
                                     run_experiment)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/default.yaml")
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--trials", type=int, default=None,
                        help="override every preset's trial count")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--presets", nargs="*", default=None,
                        choices=PRESET_NAMES, help="subset of the presets")
    args = parser.parse_args()

    try:  # the specs are checked before the first CSV is written
        config = load_config(args.config)
        specs = [build_spec(name, trials=args.trials, seed=args.seed)
                 for name in args.presets or PRESET_NAMES]
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            start = time.perf_counter()
            rows = run_experiment(spec, config)
            elapsed = time.perf_counter() - start
            path = out_dir / f"{spec.preset}.csv"
            emit_results(rows, path)
            print(f"{spec.preset:<22} {len(rows):>3} rows  {elapsed:7.1f} s"
                  f"  -> {path}")
    except ConfigError as exc:
        parser.exit(2, f"error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
