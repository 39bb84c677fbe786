#!/usr/bin/env python3
"""Summarize a results CSV: MSE, bound, and their gap in dB per row.

Usage: python3 scripts/print_summary.py results/mse_vs_snr.csv [more.csv ...]
"""
import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from irs_sensing.errors import ConfigError
from irs_sensing.experiments import ResultRow, read_results_csv

UNITS = {"theta": "rad^2", "nu": "Hz^2", "tau": "s^2"}


def summarize(path: str, rows: list[ResultRow]) -> None:
    print(f"\n{path}")
    print(f"{'sweep':<26} {'value':>10} {'param':>6} {'mse':>12} "
          f"{'bound':>12} {'gap_dB':>8} {'used':>5} {'fail':>5}")
    for row in rows:
        if math.isfinite(row.mse) and math.isfinite(row.crb) and row.crb > 0:
            gap = f"{10 * math.log10(row.mse / row.crb):8.2f}"
        else:
            gap = f"{'-':>8}"
        mse = f"{row.mse:12.4e}" if math.isfinite(row.mse) else f"{'nan':>12}"
        crb = f"{row.crb:12.4e}" if math.isfinite(row.crb) else f"{'nan':>12}"
        print(f"{row.sweep_name:<26} {row.sweep_value:>10.4g} "
              f"{row.parameter:>6} {mse} {crb} {gap} "
              f"{row.trials_used:>5} {row.failures:>5}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="+", help="results CSV files")
    args = parser.parse_args()
    try:  # every file is read before the first is printed
        tables = [(path, read_results_csv(path)) for path in args.paths]
    except (OSError, ConfigError) as exc:
        parser.exit(2, f"error: {exc}\n")
    for path, rows in tables:
        summarize(path, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
