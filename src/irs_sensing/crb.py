"""Fisher information and estimation-variance lower bounds.

The observation is a pair of rank-structured tensors in white complex
Gaussian noise; the unknowns are each target's direction, Doppler shift,
and delay, with channel gains and noise power treated as known.  Every
parameter enters through one or two factor-matrix columns, so the model's
derivative with respect to it is a sum of one or two rank-one tensors.
Stacking these as the rows of a parameter Jacobian J makes each phase's
information matrix the Gram matrix (2/sigma^2) Re(J* J^T).  The
information matrix is taken from the factors of the rank-one terms
without forming J, for one draw or a stack of draws at once.  Rows are
ordered all directions, then all Dopplers, then all delays, each block
in target order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ArrayConfig, WaveformConfig
from .scene import (ChannelMatrix, SceneTruth, relayed_response,
                    steering_derivative)
from .synthesis import build_factor_matrices, doppler_ramp

FIM_CONDITION_LIMIT = 1e14


@dataclass(frozen=True)
class CrbBounds:
    """Per-target variance lower bounds, one (K,) or (B, K) array per family,
    beside the condition number of each draw's information matrix."""

    theta: np.ndarray   # rad^2
    doppler: np.ndarray  # Hz^2
    delay: np.ndarray   # s^2
    condition_number: np.ndarray   # () or (B,)


def _term_rows(n_targets: int) -> np.ndarray:
    """Map S (4K x 3K) from Jacobian terms to rows: a direction row sums its
    pulse and antenna terms, a Doppler or delay row is one term."""
    return np.eye(3 * n_targets)[np.r_[0:n_targets, 0:3 * n_targets]]


def jacobian_terms(truth: SceneTruth, channel: ChannelMatrix,
                   profiles: np.ndarray, combiner: np.ndarray,
                   waveform: WaveformConfig,
                   arrays: ArrayConfig) -> tuple[np.ndarray, ...]:
    """Factors X (P x 4K), Y (M x 4K), Z (L x 4K) of the Jacobian terms
    x_t o y_t o z_t of one phase, or of both (X and Y phase first, Z
    shared), in blocks of K targets: direction through the combined pulse
    response, direction through the relayed steering vector, Doppler (each
    pulse times its ramp rate) and delay (each subcarrier times its tone
    rate).  The other modes keep their base columns, and gains are held
    fixed.  A stacked truth, channel and combiner give a stack of terms.
    """
    factors = build_factor_matrices(truth, channel, profiles, combiner,
                                    waveform, arrays)
    a, b, c = (factors.pulse_factor, factors.antenna_factor,
               factors.subcarrier_factor)
    d_antenna = relayed_response(
        channel, profiles, steering_derivative(truth.theta_rad, *arrays.surface))
    ramps = doppler_ramp(truth.doppler_hz, waveform.n_pulses, waveform.pri_s)
    pulse_rate = 2j * np.pi * np.arange(1, waveform.n_pulses + 1) * waveform.pri_s
    tone_rate = (-2j * np.pi * np.arange(1, waveform.n_subcarriers + 1)
                 * waveform.subcarrier_spacing_hz)
    d_pulse = (combiner[..., None, :] @ d_antenna) * ramps
    return (np.concatenate([d_pulse, a, a * pulse_rate[:, None], a], axis=-1),
            np.concatenate([b, d_antenna, b, b], axis=-1),
            np.concatenate([c, c, c, c * tone_rate[:, None]], axis=-1))


def compute_fim(truth: SceneTruth, channel: ChannelMatrix,
                profiles: np.ndarray, combiner: np.ndarray,
                waveform: WaveformConfig, arrays: ArrayConfig,
                noise_variances: Sequence[float] | np.ndarray) -> np.ndarray:
    """Real symmetric (3K, 3K) information matrix for the stacked
    direction/Doppler/delay vector, or a (B, 3K, 3K) stack of them.

    Each phase adds (2/sigma^2) S^T Re(X^H X * Y^H Y * Z^H Z) S (* is
    elementwise; jacobian_terms, _term_rows), the Gram matrix of the
    Jacobian rows without forming them: <x o y o z, x' o y' o z'> =
    (x^H x')(y^H y')(z^H z'), for each row of reflection coefficients in
    ``profiles``.  A stacked point gives one matrix per draw, at one noise
    variance per phase or per phase and draw.  compute_crb checks the
    conditioning and inverts.
    """
    sigma_sq = np.asarray(noise_variances, float)
    if len(profiles) != len(sigma_sq):
        raise ValueError("need one noise variance per phase")
    if np.any(sigma_sq <= 0):
        raise ValueError("noise variances must be positive")
    rows = _term_rows(truth.n_targets)
    x, y, z = (t.conj().swapaxes(-1, -2) @ t for t in jacobian_terms(
        truth, channel, profiles, combiner, waveform, arrays))
    terms = rows.T @ (x * y * z).real @ rows  # phase first, as sigma_sq
    axes = tuple(range(sigma_sq.ndim, terms.ndim))
    omega = (2.0 / np.expand_dims(sigma_sq, axes) * terms).sum(axis=0)
    return 0.5 * (omega + omega.swapaxes(-1, -2))


def compute_crb(fim: np.ndarray) -> CrbBounds:
    """Diagonal of the inverse information matrix, split by family.

    The condition check runs per draw after scaling each matrix to unit
    diagonal: the stacked parameters carry different physical units, so
    the raw matrix is badly scaled even when every parameter is
    comfortably identifiable, and what the scaling leaves measures genuine
    coupling.  A draw with a non-positive or non-finite diagonal entry has
    an infinite condition number; one above FIM_CONDITION_LIMIT gets NaN
    bounds, alone or in a stack, and the others are kept.
    """
    diag = np.diagonal(fim, axis1=-2, axis2=-1)
    usable = (diag > 0).all(axis=-1) & np.isfinite(diag).all(axis=-1)
    scale = np.sqrt(diag[usable])
    scaled = fim[usable] / (scale[..., :, None] * scale[..., None, :])
    cond = np.full(usable.shape, math.inf)
    cond[usable] = np.linalg.cond(scaled)
    ok = cond <= FIM_CONDITION_LIMIT
    kept = ok[usable]
    bounds = np.full(diag.shape, math.nan)
    bounds[ok] = (np.diagonal(np.linalg.inv(scaled[kept]), axis1=-2, axis2=-1)
                  / scale[kept] ** 2)
    k = fim.shape[-1] // 3
    return CrbBounds(theta=bounds[..., 0:k], doppler=bounds[..., k:2 * k],
                     delay=bounds[..., 2 * k:3 * k], condition_number=cond)
