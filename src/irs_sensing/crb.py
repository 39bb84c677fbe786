"""Fisher information and estimation-variance lower bounds.

The observation is a pair of rank-structured tensors in white complex
Gaussian noise; the unknowns are each target's direction, Doppler shift,
and delay, with channel gains and noise power treated as known.  Every
parameter enters through one or two factor-matrix columns, so the model's
derivative with respect to it is a sum of one or two rank-one tensors.
Stacking these as the rows of a parameter Jacobian J makes each phase's
information matrix the Gram matrix (2/sigma^2) Re(J* J^T), its score
(2/sigma^2) Re(J* r) for the residual r, and J the noise templates of the
Monte Carlo score covariance.  Analytic derivatives are validated against
finite differences of the log-likelihood, and the full matrix against the
empirical covariance of the score.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import ArrayConfig, WaveformConfig
from .errors import SingularFim
from .scene import (ChannelMatrix, PhaseProfile, SceneTruth, relayed_response,
                    steering_derivative)
from .synthesis import build_factor_matrices, doppler_ramp, echo_tensors

FIM_CONDITION_LIMIT = 1e14

PARAMETER_BLOCKS = ("theta", "doppler", "delay")
_TRUTH_FIELDS = ("theta_rad", "doppler_hz", "delay_s")   # SceneTruth per block


def parameter_index(block: str, k: int, n_targets: int) -> int:
    """Position of (parameter family, target) in the stacked vector.

    Ordering is all directions, then all Dopplers, then all delays,
    each block in target order.
    """
    return PARAMETER_BLOCKS.index(block) * n_targets + k


@dataclass(frozen=True)
class FimMatrix:
    """Real symmetric information matrix over the stacked parameters."""

    omega: np.ndarray
    n_targets: int
    condition_number: float


@dataclass(frozen=True)
class CrbBounds:
    """Per-target variance lower bounds, one array per parameter family."""

    theta: np.ndarray   # rad^2
    doppler: np.ndarray  # Hz^2
    delay: np.ndarray   # s^2


def parameter_jacobian(truth: SceneTruth, channel: ChannelMatrix,
                       profile: PhaseProfile, combiner: np.ndarray,
                       waveform: WaveformConfig,
                       arrays: ArrayConfig) -> np.ndarray:
    """Model derivative of one phase per stacked parameter at ``truth``,
    one flattened (P, M, L) tensor per row (3K x P*M*L, rows in
    parameter_index order).

    Direction enters the antenna factor through the relayed steering
    vector and the pulse factor through the combined response; Doppler
    multiplies each pulse entry by its ramp rate; delay multiplies each
    subcarrier entry by its tone rate.  The other modes keep their base
    columns, and gains are held fixed.
    """
    factors = build_factor_matrices(truth, channel, profile, combiner,
                                    waveform, arrays)
    a, b, c = (factors.pulse_factor, factors.antenna_factor,
               factors.subcarrier_factor)
    d_antenna = relayed_response(
        channel, profile, steering_derivative(truth.theta_rad, *arrays.surface))
    ramps = doppler_ramp(truth.doppler_hz, waveform.n_pulses, waveform.pri_s)
    pulse_rate = 2j * np.pi * np.arange(1, waveform.n_pulses + 1) * waveform.pri_s
    tone_rate = (-2j * np.pi * np.arange(1, waveform.n_subcarriers + 1)
                 * waveform.subcarrier_spacing_hz)

    def rank_one_rows(x, y, z):     # row k: outer product of x_k, y_k, z_k
        return (x.T[:, :, None, None] * y.T[:, None, :, None]
                * z.T[:, None, None, :]).reshape(x.shape[1], -1)

    return np.concatenate([
        rank_one_rows((combiner.T @ d_antenna) * ramps, b, c)
        + rank_one_rows(a, d_antenna, c),
        rank_one_rows(a * pulse_rate[:, None], b, c),
        rank_one_rows(a, b, c * tone_rate[:, None])])


def compute_fim(truth: SceneTruth, channel: ChannelMatrix,
                profiles: Sequence[PhaseProfile], combiner: np.ndarray,
                waveform: WaveformConfig, arrays: ArrayConfig,
                noise_variances: Sequence[float]) -> FimMatrix:
    """Information matrix for the stacked direction/Doppler/delay vector.

    Sums the per-phase contributions and symmetrizes.  An ill-conditioned
    result is reported through the stored condition number rather than
    hidden; inversion happens only in compute_crb.
    """
    if len(profiles) != len(noise_variances):
        raise ValueError("need one noise variance per phase")
    if any(s <= 0 for s in noise_variances):
        raise ValueError("noise variances must be positive")
    n_targets = truth.n_targets
    omega = np.zeros((3 * n_targets, 3 * n_targets))
    for profile, sigma_sq in zip(profiles, noise_variances):
        jac = parameter_jacobian(truth, channel, profile, combiner, waveform,
                                 arrays)
        omega += (2.0 / sigma_sq) * (jac.conj() @ jac.T).real
    omega = 0.5 * (omega + omega.T)
    return FimMatrix(omega=omega, n_targets=n_targets,
                     condition_number=_equilibrated_condition(omega))


def _equilibrated_condition(omega: np.ndarray) -> float:
    """Condition number after diagonal scaling to unit diagonal.

    The stacked parameters carry different physical units, so the raw
    matrix is badly scaled even when every parameter is comfortably
    identifiable.  Scaling by the square roots of the diagonal removes
    the unit disparity; what remains measures genuine coupling.
    """
    diag = np.diag(omega)
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        return math.inf
    scale = np.sqrt(diag)
    return float(np.linalg.cond(omega / np.outer(scale, scale)))


def compute_crb(fim: FimMatrix) -> CrbBounds:
    """Diagonal of the inverse information matrix, split by family."""
    if not np.isfinite(fim.condition_number) \
            or fim.condition_number > FIM_CONDITION_LIMIT:
        raise SingularFim(f"condition number {fim.condition_number:.3e} "
                          f"exceeds {FIM_CONDITION_LIMIT:.0e}")
    scale = np.sqrt(np.diag(fim.omega))
    scaled = fim.omega / np.outer(scale, scale)
    diag = np.diag(np.linalg.inv(scaled)) / scale ** 2
    k = fim.n_targets
    return CrbBounds(theta=diag[0:k].copy(),
                     doppler=diag[k:2 * k].copy(),
                     delay=diag[2 * k:3 * k].copy())


def log_likelihood(observed: Sequence[np.ndarray],
                   modeled: Sequence[np.ndarray],
                   noise_variances: Sequence[float]) -> float:
    """Gaussian log-likelihood up to a parameter-free constant."""
    total = 0.0
    for obs, model, sigma_sq in zip(observed, modeled, noise_variances):
        total -= float(np.linalg.norm(obs - model) ** 2) / sigma_sq
    return total


def score(truth: SceneTruth, observed: Sequence[np.ndarray],
          channel: ChannelMatrix, profiles: Sequence[PhaseProfile],
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
                                      @ (obs - model.data).ravel()).real
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
                   channel: ChannelMatrix, profiles: Sequence[PhaseProfile],
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
        return log_likelihood(observed, [t.data for t in modeled],
                              noise_variances)

    worst = 0.0
    for j, step in enumerate(steps):
        fd = (likelihood_at(_shifted_truth(truth, j, +step))
              - likelihood_at(_shifted_truth(truth, j, -step))) / (2 * step)
        denom = max(abs(analytic[j]), abs(fd))
        if denom > 0:
            worst = max(worst, abs(analytic[j] - fd) / denom)
    return worst


def mc_score_covariance(truth: SceneTruth, channel: ChannelMatrix,
                        profiles: Sequence[PhaseProfile], combiner: np.ndarray,
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
