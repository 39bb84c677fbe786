#!/usr/bin/env python3
"""Run the full pipeline once on a clean scene and print truth vs estimates.

Usage: python3 scripts/noiseless_demo.py [--config configs/default.yaml]
"""
import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from irs_sensing.config import SPEED_OF_LIGHT, load_config
from irs_sensing.estimation import estimate_targets
from irs_sensing.scene import draw_scene_point, sensing_limits
from irs_sensing.synthesis import echo_tensors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/default.yaml")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    cfg = load_config(args.config)
    point = draw_scene_point(cfg, [np.random.default_rng(args.seed)]).trial(0)
    truth = point.truth
    limits = sensing_limits(cfg.waveform)
    print(f"range window  [{limits.min_range_m:.3f}, {limits.max_range_m:.3f}] m")
    print(f"speed limit   {limits.max_speed_mps:.3f} m/s\n")

    clean = echo_tensors(*point, cfg.waveform, cfg.arrays)
    estimates = estimate_targets(clean, np.zeros(2), truth.n_targets,
                                 cfg.scene.doa_prior_rad, point.channel,
                                 point.profiles, cfg.waveform, cfg.arrays)

    order = np.argsort(truth.delay_s)
    speed = SPEED_OF_LIGHT / (2 * cfg.waveform.carrier_freq_hz)  # m/s per Hz
    header = (f"{'target':>6} {'theta_deg':>12} {'theta_hat':>12} "
              f"{'range_m':>10} {'range_hat':>10} {'v_mps':>9} {'v_hat':>9}")
    print(header)
    for pos, (theta, tau, nu, idx) in enumerate(
            zip(estimates.theta, estimates.tau, estimates.nu, order), start=1):
        print(f"{pos:>6} {math.degrees(truth.theta_rad[idx]):>12.6f} "
              f"{math.degrees(theta):>12.6f} "
              f"{truth.range_m[idx]:>10.4f} {SPEED_OF_LIGHT * tau / 2:>10.4f} "
              f"{truth.doppler_hz[idx] * speed:>9.4f} {nu * speed:>9.4f}")

    worst_theta = np.abs(estimates.theta - truth.theta_rad[order]).max()
    worst_tau = np.abs(estimates.tau - truth.delay_s[order]).max()
    worst_nu = np.abs(estimates.nu - truth.doppler_hz[order]).max()
    print(f"\nworst errors: {worst_theta:.3e} rad, {worst_tau:.3e} s, "
          f"{worst_nu:.3e} Hz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
