"""Monte Carlo experiment presets, MSE accumulation, and result emission.

Each preset sweeps one operating parameter, holds the rest at the default
operating point, and reports per-parameter mean squared error next to the
matching variance bound.  Trials are independent with a counter-based
random stream per (seed, sweep position, trial), so any run is exactly
reproducible from its seed.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import FullConfig, with_overrides
from .crb import compute_crb, compute_fim
from .errors import ConfigError, EstimationError, SingularFim
from .estimation import TargetEstimate, estimate_trials, greedy_match
from .scene import (ScenePoint, SceneTruth, design_phase_profiles,
                    draw_scene_point, stack_channels)
from .synthesis import apply_noise, echo_tensors

PARAMETER_LABELS = ("theta", "nu", "tau")

# Sweepable knobs: config override key, or None when the knob is the
# noise level rather than a configuration field.
SWEEP_CONFIG_KEYS: Mapping[str, str | None] = {
    "snr_db": None,
    "n_pulses": "n_pulses",
    "n_subcarriers": "n_subcarriers",
    "n_ap_antennas": "n_ap_antennas",
    "rician_db": "rician_k_db",
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment: what to sweep and how many trials."""

    preset: str
    sweep_parameter: str
    sweep_values: tuple[float, ...]
    trials: int
    seed: int
    snr_db: float | None            # fixed noise level when not swept
    n_targets: int | None = None    # restrict the scene to the first n
    redraw_fading: bool = False     # fresh channel/gain draws per trial
    compare_single_phase: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.sweep_values:
            raise ConfigError("sweep must be nonempty")
        if self.sweep_parameter not in SWEEP_CONFIG_KEYS:
            raise ConfigError(f"unknown sweep parameter {self.sweep_parameter!r}")


@dataclass(frozen=True)
class ResultRow:
    """One (sweep value, parameter family) aggregate."""

    sweep_name: str
    sweep_value: float
    parameter: str
    mse: float
    crb: float
    trials_used: int
    failures: int


_PRESET_TABLE = {
    "mse_vs_snr": dict(sweep_parameter="snr_db",
                       sweep_values=(-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
                       snr_db=None, redraw_fading=False),
    "mse_vs_pulses": dict(sweep_parameter="n_pulses",
                          sweep_values=(2, 5, 10, 20),
                          snr_db=5.0, redraw_fading=False),
    "mse_vs_subcarriers": dict(sweep_parameter="n_subcarriers",
                               sweep_values=(1, 2, 4, 8),
                               snr_db=5.0, redraw_fading=False),
    "mse_vs_antennas": dict(sweep_parameter="n_ap_antennas",
                            sweep_values=(4, 8, 16, 32),
                            snr_db=5.0, redraw_fading=False),
    "rician_comparison": dict(sweep_parameter="rician_db",
                              sweep_values=(0.0, 5.0, 13.0),
                              snr_db=10.0, n_targets=1, redraw_fading=True,
                              compare_single_phase=True),
}

PRESET_NAMES = tuple(_PRESET_TABLE)
DEFAULT_TRIALS = 200
DEFAULT_SEED = 1
TRIAL_STACK = 16  # trials per estimator stack, frozen or redrawn channel alike


def build_spec(preset: str, trials: int | None = None,
               seed: int | None = None) -> ExperimentSpec:
    """Resolve a preset name into a concrete ExperimentSpec."""
    if preset not in _PRESET_TABLE:
        raise ConfigError(f"unknown preset {preset!r}; "
                          f"choose from {sorted(_PRESET_TABLE)}")
    fields = dict(_PRESET_TABLE[preset])
    return ExperimentSpec(preset=preset,
                          trials=DEFAULT_TRIALS if trials is None else trials,
                          seed=DEFAULT_SEED if seed is None else seed,
                          **fields)


def resolve_sweep_point(spec: ExperimentSpec, config: FullConfig,
                        value) -> tuple[FullConfig, float]:
    """Configuration and noise level at one sweep position.

    An invalid configuration raises ConfigError here; the scene itself is
    validated when its truth is drawn.
    """
    cfg = config
    if spec.n_targets is not None:
        cfg = with_overrides(cfg, targets=cfg.scene.targets[:spec.n_targets])
    key = SWEEP_CONFIG_KEYS[spec.sweep_parameter]
    if key is None:
        return cfg, float(value)
    cfg = with_overrides(cfg, **{key: value})
    return cfg, float(spec.snr_db)


def _squared_errors(estimates: Sequence[TargetEstimate],
                    truth: SceneTruth) -> np.ndarray:
    """Summed squared error over matched targets, per parameter family."""
    est = np.array([[e.theta_hat, e.nu_hat, e.tau_hat] for e in estimates])
    true = np.stack([truth.theta_rad, truth.doppler_hz, truth.delay_s], axis=1)
    assignment = greedy_match(np.abs(np.subtract.outer(est[:, 2], true[:, 2])))
    return ((est - true[assignment]) ** 2).sum(axis=0)


class _Accumulator:
    """Running per-family squared-error sums for one estimator variant."""

    def __init__(self):
        self.sq_sums = np.zeros(3)
        self.used = 0
        self.failures = 0

    def mse(self, n_targets: int) -> np.ndarray:
        if self.used == 0:
            return np.full(3, math.nan)
        return self.sq_sums / (self.used * n_targets)


def _point_crb(point: ScenePoint, cfg: FullConfig,
               noise_vars: tuple[float, ...]) -> np.ndarray:
    """Mean-over-targets bound per parameter family; NaN when unavailable."""
    if any(not (v > 0) for v in noise_vars):
        return np.full(3, math.nan)
    try:
        bounds = compute_crb(compute_fim(*point, cfg.waveform, cfg.arrays,
                                         noise_vars))
    except SingularFim:
        return np.full(3, math.nan)
    return np.array([bounds.theta.mean(), bounds.doppler.mean(),
                     bounds.delay.mean()])


def run_experiment(spec: ExperimentSpec,
                   config: FullConfig) -> list[ResultRow]:
    """Execute every sweep position and aggregate per-parameter rows.

    Per position: the scene truth and channel are drawn once from the seed
    (redrawn each trial only when the preset asks for fading averaging),
    each trial adds fresh noise, runs the estimation pipeline, and pairs
    estimates with its own truth by delay.  ``TRIAL_STACK`` trials run as
    one estimator stack, which changes no number; redrawn channels and
    combiners are stacked along a leading trial axis.  Estimator failures
    are counted and excluded from the error average rather than crashing
    the sweep.
    """
    rows: list[ResultRow] = []
    for sweep_idx, value in enumerate(spec.sweep_values):
        cfg, snr_db = resolve_sweep_point(spec, config, value)
        k_total = len(cfg.scene.targets)
        profiles = design_phase_profiles(cfg.scene.doa_prior_rad, cfg.arrays,
                                         cfg.scene.n_subarrays)

        methods = ["two_phase"]
        if spec.compare_single_phase:
            methods.append("single_phase")
        accs = {name: _Accumulator() for name in methods}
        crb_sum = np.zeros(3)
        crb_draws = 0

        for first in range(0, spec.trials, TRIAL_STACK):
            points, stack = [], []
            for trial in range(first, min(first + TRIAL_STACK, spec.trials)):
                rng = np.random.default_rng((spec.seed, sweep_idx, trial))
                new_point = spec.redraw_fading or trial == 0
                if new_point:
                    point = draw_scene_point(
                        cfg, profiles, rng if spec.redraw_fading
                        else np.random.default_rng(spec.seed))
                    clean = echo_tensors(*point, cfg.waveform, cfg.arrays)
                tensors = [apply_noise(t, snr_db, rng) for t in clean]
                if new_point:
                    crb_point = _point_crb(
                        point, cfg, tuple(t.noise_sigma ** 2 for t in tensors))
                    if np.isfinite(crb_point).all():
                        crb_sum += crb_point
                        crb_draws += 1
                points.append(point)
                stack.append(tensors)
            channel, combiner = point.channel, point.combiner
            if spec.redraw_fading:
                channel = stack_channels([p.channel for p in points])
                combiner = np.stack([p.combiner for p in points])
            outcomes = estimate_trials(
                [t[0] for t in stack], [t[1] for t in stack], k_total,
                cfg.scene.doa_prior_rad, channel, profiles, combiner,
                cfg.waveform, cfg.arrays,
                [name == "single_phase" for name in methods])
            for name, results in zip(methods, outcomes):
                acc = accs[name]
                for estimates, point_b in zip(results, points):
                    if isinstance(estimates, EstimationError):
                        acc.failures += 1
                        continue
                    acc.sq_sums += _squared_errors(estimates, point_b.truth)
                    acc.used += 1

        crb_point = (crb_sum / crb_draws if crb_draws
                     else np.full(3, math.nan))
        for name in methods:
            acc = accs[name]
            mse = acc.mse(k_total)
            sweep_name = (spec.sweep_parameter if len(methods) == 1
                          else f"{spec.sweep_parameter}_{name}")
            for fam, label in enumerate(PARAMETER_LABELS):
                rows.append(ResultRow(sweep_name=sweep_name,
                                      sweep_value=float(value),
                                      parameter=label,
                                      mse=float(mse[fam]),
                                      crb=float(crb_point[fam]),
                                      trials_used=acc.used,
                                      failures=acc.failures))
    return rows


CSV_HEADER = ("sweep_name", "sweep_value", "parameter", "mse", "crb",
              "trials_used", "failures")


def _fmt(value: float) -> str:
    return f"{float(value):.17e}"


def emit_results(rows: Sequence[ResultRow], path: str | Path,
                 fmt: str = "csv") -> None:
    """Write aggregate rows as CSV (default) or JSON.

    CSV numeric fields use full double-precision scientific notation so a
    rerun with the same seed is byte-identical; counts stay integral.
    Non-finite values appear as ``nan`` in CSV and null in JSON.
    """
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for row in rows:
                writer.writerow([row.sweep_name, _fmt(row.sweep_value),
                                 row.parameter, _fmt(row.mse), _fmt(row.crb),
                                 row.trials_used, row.failures])
    elif fmt == "json":
        payload = [{**asdict(row),
                    "mse": row.mse if math.isfinite(row.mse) else None,
                    "crb": row.crb if math.isfinite(row.crb) else None}
                   for row in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


def read_results_csv(path: str | Path) -> list[ResultRow]:
    """Parse a results CSV back into rows (inverse of emit_results)."""
    with open(path, newline="") as fh:
        return [ResultRow(rec["sweep_name"], float(rec["sweep_value"]),
                          rec["parameter"], float(rec["mse"]), float(rec["crb"]),
                          int(rec["trials_used"]), int(rec["failures"]))
                for rec in csv.DictReader(fh)]
