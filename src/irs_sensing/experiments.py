"""Monte Carlo experiment presets, MSE accumulation, and result emission.

Each preset sweeps one operating parameter, holds the rest at the default
operating point, and reports per-parameter mean squared error next to the
matching variance bound.  Trials are independent with a counter-based
random stream per (seed, sweep position, trial), so any run is exactly
reproducible from its seed.
"""
from __future__ import annotations

import csv
import ctypes
import json
import math
import numbers
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import FullConfig, with_overrides
from .crb import compute_crb, compute_fim
from .errors import ConfigError
from .estimation import Estimates, estimate_trials, greedy_match
from .scene import ScenePoint, SceneTruth, draw_scene_point
from .synthesis import (apply_noise, echo_tensors, noise_sigma_for_snr,
                        noise_variance)

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
        if type(self.trials) is not int or self.trials < 1:  # bools too
            raise ConfigError("trials must be an int >= 1")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be an int >= 0, not {self.seed!r}")
        if not self.sweep_values:
            raise ConfigError("sweep must be nonempty")
        if self.sweep_parameter not in SWEEP_CONFIG_KEYS:
            raise ConfigError(f"unknown sweep parameter {self.sweep_parameter!r}")
        for v in (self.sweep_values if self.sweep_parameter == "snr_db"
                  else (self.snr_db,)):  # an SNR; +inf dB is the noiseless run
            if type(v) is bool or not (isinstance(v, numbers.Real) and v > -math.inf):
                raise ConfigError(f"SNR must be a number of dB above -inf, not {v!r}")
        if self.n_targets is not None and (type(self.n_targets) is not int
                                           or self.n_targets < 1):
            raise ConfigError(f"n_targets must be an int >= 1, not {self.n_targets!r}")


@dataclass(frozen=True)
class ResultRow:
    """One (sweep value, parameter family) aggregate; its fields are the columns."""

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
TRIAL_STACK = 50  # trials per estimator stack, frozen or redrawn channel alike
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters of glibc


def build_spec(preset: str, trials: int | None = None,
               seed: int | None = None) -> ExperimentSpec:
    """Resolve a preset name into a concrete ExperimentSpec."""
    if preset not in _PRESET_TABLE:
        raise ConfigError(f"unknown preset {preset!r}; "
                          f"choose from {sorted(_PRESET_TABLE)}")
    return ExperimentSpec(preset=preset,
                          trials=DEFAULT_TRIALS if trials is None else trials,
                          seed=DEFAULT_SEED if seed is None else seed,
                          **_PRESET_TABLE[preset])


def resolve_sweep_point(spec: ExperimentSpec, config: FullConfig,
                        value) -> tuple[FullConfig, float]:
    """Configuration and noise level at one sweep position.

    An invalid configuration raises ConfigError here; the scene itself is
    validated when it is drawn.
    """
    cfg = config
    if spec.n_targets is not None:
        if spec.n_targets > len(cfg.scene.targets):
            raise ConfigError(f"n_targets {spec.n_targets} exceeds the scene's targets")
        cfg = with_overrides(cfg, targets=cfg.scene.targets[:spec.n_targets])
    key = SWEEP_CONFIG_KEYS[spec.sweep_parameter]
    if key is None:
        return cfg, float(value)
    cfg = with_overrides(cfg, **{key: value})
    return cfg, float(spec.snr_db)


def _squared_errors(estimates: Estimates, truth: SceneTruth) -> np.ndarray:
    """Squared error summed over the targets, (B, 3) per trial and parameter
    family, against a truth of one draw per trial or one for all; each
    trial's estimates pair with its truth by delay."""
    est = np.stack([estimates.theta, estimates.nu, estimates.tau], axis=-1)
    true = np.broadcast_to(np.stack(
        [truth.theta_rad, truth.doppler_hz, truth.delay_s], axis=-1), est.shape)
    pairs = greedy_match(np.abs(est[..., :, None, 2] - true[..., None, :, 2]))
    matched = np.take_along_axis(true, pairs[..., None], axis=-2)
    return ((est - matched) ** 2).sum(axis=-2)


def _draw_crbs(point: ScenePoint, cfg: FullConfig,
               sigma: np.ndarray) -> np.ndarray:
    """Mean-over-targets bound per draw of a stacked point and parameter
    family, at each draw's (2, D) noise level; NaN for a draw without one."""
    noise_vars = noise_variance(sigma)
    if not (noise_vars > 0).all():  # a noiseless run, at infinite SNR
        return np.full((noise_vars.shape[1], 3), math.nan)
    bounds = compute_crb(compute_fim(*point, cfg.waveform, cfg.arrays,
                                     noise_vars))
    return np.stack([bounds.theta.mean(-1), bounds.doppler.mean(-1),
                     bounds.delay.mean(-1)], axis=-1)


@cache
def _openblas_thread_calls():
    """Thread-count get and set of NumPy's bundled OpenBLAS; None under another."""
    for lib in sorted((Path(np.__file__).resolve().parents[1]
                       / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            calls = [getattr(handle, name.format(op), None) for op in ("get", "set")]
            if all(calls):
                return calls


@cache
def _mallopt():
    """The C library's ``mallopt(param, value)``; None where it has none."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
    return mallopt


def run_experiment(spec: ExperimentSpec,
                   config: FullConfig) -> list[ResultRow]:
    """Execute every sweep position and aggregate per-parameter rows.

    Per position: the scene point is validated and drawn once from the
    seed (redrawn each trial only when the preset asks for fading
    averaging), each trial adds fresh noise, runs the estimation
    pipeline, and pairs estimates with its own truth by delay.
    ``TRIAL_STACK`` trials run as one estimator stack, and their draws as
    one stacked pass of the scene draw, clean tensors, noise levels and
    bound (a frozen point is the stack of its one generator).  Estimator failures
    are counted and excluded from the error average rather than crashing
    the sweep.

    The sweep runs on one OpenBLAS thread, as a second only spins, and restores
    the caller's count on return or raise; a nested call restores the 1 it found.
    It also keeps its heap: glibc would trim the top of the heap after each
    stack and map its larger arrays afresh, so the next stack would
    page-fault its whole working set again.  The trim and mmap thresholds
    are raised for the sweep and set back to glibc's 128 KiB defaults on
    return or raise, a nested call's too, as glibc cannot read back the
    values they had.
    """
    get, put = _openblas_thread_calls() or (lambda: None, lambda n: None)
    mallopt = _mallopt() or (lambda param, value: None)
    before = get()
    put(1)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)
    mallopt(M_MMAP_THRESHOLD, 32 << 20)  # glibc's maximum
    try:
        return _run_sweep(spec, config)
    finally:
        put(before)
        mallopt(M_TRIM_THRESHOLD, 128 << 10)
        mallopt(M_MMAP_THRESHOLD, 128 << 10)


def _run_sweep(spec: ExperimentSpec, config: FullConfig) -> list[ResultRow]:
    rows: list[ResultRow] = []
    for sweep_idx, value in enumerate(spec.sweep_values):
        cfg, snr_db = resolve_sweep_point(spec, config, value)
        k_total = len(cfg.scene.targets)

        methods = ["two_phase"]
        if spec.compare_single_phase:
            methods.append("single_phase")
        sq_sums = np.zeros((len(methods), 3))
        used = np.zeros(len(methods), dtype=int)
        crbs = []

        for first in range(0, spec.trials, TRIAL_STACK):
            rngs = [np.random.default_rng((spec.seed, sweep_idx, trial)) for trial
                    in range(first, min(first + TRIAL_STACK, spec.trials))]
            if spec.redraw_fading or first == 0:
                point = draw_scene_point(cfg, rngs if spec.redraw_fading
                                         else [np.random.default_rng(spec.seed)])
                clean = echo_tensors(*point, cfg.waveform, cfg.arrays)
                sigma = noise_sigma_for_snr(clean, snr_db)
                crbs.extend(_draw_crbs(point, cfg, sigma))
            # a frozen point's one draw serves every trial
            y = apply_noise(clean, sigma, rngs)
            if spec.redraw_fading:
                del clean  # these draws serve this stack alone
            outcomes = estimate_trials(
                y, sigma, k_total, cfg.scene.doa_prior_rad,
                point.channel.trials(slice(None) if spec.redraw_fading else 0),
                point.profiles, cfg.waveform, cfg.arrays,
                [name == "single_phase" for name in methods])
            for m, (estimates, errors) in enumerate(outcomes):
                ok = np.array([e is None for e in errors])
                for row in _squared_errors(estimates, point.truth)[ok]:
                    sq_sums[m] += row  # trial by trial, in trial order
                used[m] += ok.sum()
            del y, outcomes, estimates, errors  # before the next stack's noise
            if spec.redraw_fading:
                del point  # and its channel, before the next stack's draw

        crbs = np.array([c for c in crbs if np.isfinite(c).all()])
        crb_point = crbs.mean(axis=0) if len(crbs) else np.full(3, math.nan)
        for name, sums, n_used in zip(methods, sq_sums, used.tolist()):
            mse = sums / (n_used * k_total) if n_used else np.full(3, math.nan)
            sweep_name = (spec.sweep_parameter if len(methods) == 1
                          else f"{spec.sweep_parameter}_{name}")
            for fam, label in enumerate(PARAMETER_LABELS):
                rows.append(ResultRow(sweep_name=sweep_name,
                                      sweep_value=float(value),
                                      parameter=label,
                                      mse=float(mse[fam]),
                                      crb=float(crb_point[fam]),
                                      trials_used=n_used,
                                      failures=spec.trials - n_used))
    return rows


_COLUMNS = fields(ResultRow)
CSV_HEADER = tuple(f.name for f in _COLUMNS)
_PARSERS = {"str": str, "float": float, "int": int}  # by declared type


def format_float(value: float) -> str:
    """Full double precision, so a rerun with the same seed is byte-identical."""
    return f"{float(value):.17e}"


def emit_results(rows: Sequence[ResultRow], path: str | Path,
                 fmt: str = "csv") -> None:
    """Write aggregate rows as CSV (default) or JSON.

    The columns are the fields of ``ResultRow``, in order.  A field
    declared ``float`` is written by ``format_float`` in CSV, where a
    non-finite one reads ``nan``, ``inf`` or ``-inf``, and as null in JSON;
    counts stay integral.
    """
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for row in rows:
                writer.writerow([
                    format_float(getattr(row, f.name)) if f.type == "float"
                    else getattr(row, f.name) for f in _COLUMNS])
    elif fmt == "json":
        payload = [{f.name: None if f.type == "float"
                    and not math.isfinite(getattr(row, f.name))
                    else getattr(row, f.name) for f in _COLUMNS}
                   for row in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


def read_results_csv(path: str | Path) -> list[ResultRow]:
    """Parse a results CSV back into rows (inverse of emit_results)."""
    with open(path, newline="") as fh:
        return [ResultRow(*(_PARSERS[f.type](rec[f.name]) for f in _COLUMNS))
                for rec in csv.DictReader(fh)]
