"""References for the tests: a time-domain echo oracle, the noise of one
tensor drawn on its own, the Doppler and single-phase direction searches
over the whole grid, and the self-checks of the information matrix.

The discrete observation model (irs_sensing.synthesis) drops the known
AP-surface round-trip phase.  The time-domain oracle rebuilds the same
per-subcarrier values by numerically integrating the continuous baseband
echo over the sampling window of one pulse, keeping the small
Doppler-induced subcarrier phase that the discrete model neglects; the
two agree to the documented tolerance.

The bound's self-checks materialize the parameter Jacobian J from the
terms of ``crb.jacobian_terms``: each phase's score is
(2/sigma^2) Re(J* r) for the residual r, validated against finite
differences of the log-likelihood, and J gives the noise templates of the
Monte Carlo score covariance, which estimates the information matrix.
"""
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from irs_sensing.config import ArrayConfig, WaveformConfig
from irs_sensing.cpd import FactorTriple, cp_reconstruct
from irs_sensing.crb import _term_rows, jacobian_terms
from irs_sensing.errors import ConfigError, RankOneChannel, record_failures
from irs_sensing.estimation import (DOA_GRID_STEP_RAD, DOPPLER_GRID_POINTS,
                                    RANK_ONE_RATIO, _dictionary, _grid_peaks,
                                    _refine_directions)
from irs_sensing.scene import (ChannelMatrix, SceneTruth, relayed_response,
                               steering_vector)
from irs_sensing.synthesis import (build_factor_matrices, doppler_ramp,
                                   echo_tensors)

PARAMETER_BLOCKS = ("theta", "doppler", "delay")
_TRUTH_FIELDS = ("theta_rad", "doppler_hz", "delay_s")   # SceneTruth per block


class InsufficientSampling(ConfigError):
    """Time-domain integration requested with too few sample points."""


def time_domain_oracle(truth: SceneTruth, channel: ChannelMatrix,
                       profile: np.ndarray, combiner: np.ndarray,
                       waveform: WaveformConfig, arrays: ArrayConfig,
                       pulse_index: int, n_samples: int | None = None) -> np.ndarray:
    """Per-subcarrier matched-filter outputs from sampled integration.

    Integrates the continuous baseband echo of pulse ``pulse_index``
    (1-based) against each subcarrier tone over that pulse's sampling
    window, with a midpoint Riemann sum of ``n_samples`` points (default
    16 per subcarrier).  Returns an (antennas x subcarriers) matrix
    normalized by the modulation symbol and symbol duration.  The result
    keeps the tiny pulse-dependent subcarrier phase shift caused by target
    motion, which the discrete model drops.
    """
    n_sub = waveform.n_subcarriers
    if n_samples is None:
        n_samples = 16 * n_sub
    if n_samples < 8 * n_sub:
        raise InsufficientSampling(f"need >= {8 * n_sub} samples, got {n_samples}")

    fc = waveform.carrier_freq_hz
    spacing = waveform.subcarrier_spacing_hz
    pri = waveform.pri_s
    full = waveform.full_symbol_s
    beta = waveform.modulation_symbol
    tau0 = truth.sync_delay_s

    start = pulse_index * pri + tau0 + full + waveform.cyclic_prefix_s
    step = waveform.symbol_duration_s / n_samples
    t = start + (np.arange(n_samples) + 0.5) * step
    q = np.arange(1, n_sub + 1)

    # The spatial responses are the model's; the waveform is integrated here.
    factors = build_factor_matrices(truth, channel, profile, combiner,
                                    waveform, arrays)
    baseband = np.zeros((arrays.n_ap_antennas, n_samples), dtype=complex)
    for gain, delay, doppler, b, z in zip(
            truth.gain, truth.delay_s, truth.doppler_hz,
            factors.antenna_factor.T, factors.pulse_factor[pulse_index - 1]):
        bar_gain = gain / (beta * waveform.symbol_duration_s)
        shifted_delay = delay + tau0 - doppler * pulse_index * pri / fc
        rel = t - shifted_delay - pulse_index * pri
        window = ((rel >= 0.0) & (rel <= full)).astype(float)
        tones = np.exp(2j * np.pi * spacing * np.outer(q, t - shifted_delay)) * beta
        pulse_wave = tones.sum(axis=0) * window
        baseband += np.outer(bar_gain * z * b, pulse_wave)

    analysis = np.exp(-2j * np.pi * spacing * np.outer(q, t))
    integrated = (baseband[:, None, :] * analysis[None, :, :]).sum(axis=2) * step
    return integrated / (beta * waveform.symbol_duration_s)


def oracle_prediction(factors: FactorTriple, sync_delay_s: float,
                      waveform: WaveformConfig, pulse_index: int) -> np.ndarray:
    """What the discrete model predicts for one pulse of the oracle output.

    Reinstates the known AP-surface round-trip subcarrier phase that the
    tensor model drops, and removes the modulation symbol and symbol
    duration, matching the oracle's normalization.
    """
    tensor_slice = cp_reconstruct(factors)[pulse_index - 1]
    l = np.arange(1, waveform.n_subcarriers + 1)
    sync_phase = np.exp(-2j * np.pi * l * waveform.subcarrier_spacing_hz
                        * sync_delay_s)
    return (tensor_slice * sync_phase[None, :]
            / (waveform.modulation_symbol * waveform.symbol_duration_s))


def noisy_tensor(tensor: np.ndarray, snr_db: float,
                 rng: np.random.Generator) -> np.ndarray:
    """One (P, M, L) tensor plus noise at ``snr_db``, drawn as the noise of
    each phase was before a trial drew both phases in one block: sigma from
    the tensor's own energy, then the real parts, then the imaginary parts,
    in two calls on ``rng``."""
    sigma = math.sqrt(float(np.linalg.norm(tensor) ** 2)
                      / (tensor.size * 10.0 ** (snr_db / 10.0)))
    noise = (sigma / math.sqrt(2)) * (rng.standard_normal(tensor.shape)
                                      + 1j * rng.standard_normal(tensor.shape))
    return tensor + noise


def full_grid_doppler(pulses: np.ndarray, waveform: WaveformConfig,
                      errors: list) -> tuple[np.ndarray, np.ndarray]:
    """Grid index and refined Doppler of each column of the (B, P, C) pulse
    factors, every column scored on the whole grid: the search whose peak
    ``estimation._doppler_peaks`` finds in a certified window."""
    half_span = 1.0 / (2 * waveform.pri_s)
    step = half_span / DOPPLER_GRID_POINTS
    grid, ramps = _dictionary(doppler_ramp, -half_span, half_span, step,
                              waveform.n_pulses, waveform.pri_s)
    idx, offset, _ = _grid_peaks(
        np.abs(pulses.conj().swapaxes(-1, -2) @ ramps), errors)
    return idx, grid[idx] + offset * step


def whole_grid_multirank(b_hat: np.ndarray, channel: ChannelMatrix,
                         profile: np.ndarray, doa_prior: tuple[float, float],
                         arrays: ArrayConfig, errors: list,
                         grid_slice: int = 2) -> np.ndarray:
    """Single-phase directions with every row scored on the whole grid from
    the M x G relayed responses, built ``grid_slice`` trials at a time: the
    search whose peak ``estimation.estimate_doa_multirank`` finds from its
    lag-sum scores and an exact window."""
    ratio = np.broadcast_to(channel.singular_ratio(), len(errors))
    record_failures(errors, ratio < RANK_ONE_RATIO, lambda b: RankOneChannel(
        f"singular-value ratio {ratio[b]:.2e}; "
        "use the cross-phase ratio method instead"))
    grid, grid_steer = _dictionary(steering_vector, *doa_prior,
                                   DOA_GRID_STEP_RAD, *arrays.surface)
    b_norms = np.linalg.norm(b_hat, axis=-2)

    def corr_at(steer: np.ndarray, s: slice = slice(None)) -> np.ndarray:
        cand = relayed_response(channel.trials(s), profile, steer)
        norms = (b_norms[s, :, None]
                 * np.linalg.norm(cand, axis=-2)[..., None, :])
        return np.abs(b_hat[s].conj().swapaxes(-1, -2) @ cand) / norms

    thetas, _ = _refine_directions(
        grid, np.concatenate([corr_at(grid_steer, slice(f, f + grid_slice))
                              for f in range(0, len(errors), grid_slice)]),
        lambda cand: np.diagonal(corr_at(steering_vector(cand, *arrays.surface)),
                                 axis1=-2, axis2=-1),
        doa_prior, errors)
    return thetas


def parameter_index(block: str, k: int, n_targets: int) -> int:
    """Position of (parameter family, target) in the stacked vector.

    Ordering is all directions, then all Dopplers, then all delays,
    each block in target order.
    """
    return PARAMETER_BLOCKS.index(block) * n_targets + k


def parameter_jacobian(truth: SceneTruth, channel: ChannelMatrix,
                       profile: np.ndarray, combiner: np.ndarray,
                       waveform: WaveformConfig,
                       arrays: ArrayConfig) -> np.ndarray:
    """Model derivative of one phase per stacked parameter at ``truth``,
    one flattened (P, M, L) tensor per row (3K x P*M*L, rows in
    parameter_index order), summed from the terms of jacobian_terms.
    """
    terms = np.einsum("...pt,...mt,...lt->...tpml", *jacobian_terms(
        truth, channel, profile, combiner, waveform, arrays))
    return _term_rows(truth.n_targets).T @ terms.reshape(*terms.shape[:-3], -1)


def log_likelihood(observed: Sequence[np.ndarray],
                   modeled: Sequence[np.ndarray],
                   noise_variances: Sequence[float]) -> float:
    """Gaussian log-likelihood up to a parameter-free constant."""
    total = 0.0
    for obs, model, sigma_sq in zip(observed, modeled, noise_variances):
        total -= float(np.linalg.norm(obs - model) ** 2) / sigma_sq
    return total


def score(truth: SceneTruth, observed: Sequence[np.ndarray],
          channel: ChannelMatrix, profiles: np.ndarray,
          combiner: np.ndarray, waveform: WaveformConfig,
          arrays: ArrayConfig,
          noise_variances: Sequence[float]) -> np.ndarray:
    """Analytic gradient of the log-likelihood at the given parameters."""
    values = np.zeros(3 * truth.n_targets)
    modeled = echo_tensors(truth, channel, profiles, combiner, waveform, arrays)
    for obs, model, profile, sigma_sq in zip(observed, modeled, profiles,
                                             noise_variances):
        jac = parameter_jacobian(truth, channel, profile, combiner, waveform,
                                 arrays)
        values += (2.0 / sigma_sq) * (jac.conj()
                                      @ (obs - model).ravel()).real
    return values


def _shifted_truth(truth: SceneTruth, index: int, delta: float) -> SceneTruth:
    """Copy of the truth with one stacked parameter moved by delta."""
    field = _TRUTH_FIELDS[index // truth.n_targets]
    values = getattr(truth, field).copy()
    values[index % truth.n_targets] += delta
    return replace(truth, **{field: values})


def parameter_steps(truth: SceneTruth, base_step: float) -> np.ndarray:
    """Per-parameter finite-difference steps scaled to parameter size."""
    scale = np.abs(np.concatenate([getattr(truth, f) for f in _TRUTH_FIELDS]))
    return base_step * np.where(scale > 0, scale, 1.0)


def score_fd_check(truth: SceneTruth, observed: Sequence[np.ndarray],
                   channel: ChannelMatrix, profiles: np.ndarray,
                   combiner: np.ndarray, waveform: WaveformConfig,
                   arrays: ArrayConfig, noise_variances: Sequence[float],
                   base_step: float = 1e-6) -> float:
    """Worst relative gap between analytic and finite-difference scores.

    Central differences of the log-likelihood, one parameter at a time,
    with steps proportional to each parameter's magnitude.
    """
    analytic = score(truth, observed, channel, profiles, combiner, waveform,
                     arrays, noise_variances)
    steps = parameter_steps(truth, base_step)

    def likelihood_at(shifted: SceneTruth) -> float:
        modeled = echo_tensors(shifted, channel, profiles, combiner, waveform,
                               arrays)
        return log_likelihood(observed, modeled, noise_variances)

    worst = 0.0
    for j, step in enumerate(steps):
        fd = (likelihood_at(_shifted_truth(truth, j, +step))
              - likelihood_at(_shifted_truth(truth, j, -step))) / (2 * step)
        denom = max(abs(analytic[j]), abs(fd))
        if denom > 0:
            worst = max(worst, abs(analytic[j] - fd) / denom)
    return worst


def mc_score_covariance(truth: SceneTruth, channel: ChannelMatrix,
                        profiles: np.ndarray, combiner: np.ndarray,
                        waveform: WaveformConfig, arrays: ArrayConfig,
                        noise_variances: Sequence[float], n_draws: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Empirical covariance of the score over noise draws.

    The score is linear in the noise, so each parameter reduces to a fixed
    tensor contracted with the draw; the sample covariance of the stacked
    scores estimates the information matrix.
    """
    scores = np.zeros((3 * truth.n_targets, n_draws))
    for profile, sigma_sq in zip(profiles, noise_variances):
        templates = parameter_jacobian(truth, channel, profile, combiner,
                                       waveform, arrays)
        sigma = math.sqrt(sigma_sq)
        shape = (n_draws, templates.shape[1])
        noise = sigma / math.sqrt(2) * (rng.standard_normal(shape)
                                        + 1j * rng.standard_normal(shape))
        scores += (2.0 / sigma_sq) * (templates.conj() @ noise.T).real
    centered = scores - scores.mean(axis=1, keepdims=True)
    return centered @ centered.T / (n_draws - 1)
