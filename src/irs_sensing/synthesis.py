"""Ground-truth factors, echo tensors, and noise.

The discrete observation model says entry (p, m, l) of the echo tensor for
one observation phase is a sum over targets of

    gain_k * b_m(theta_k) * z_p(theta_k, nu_k) * exp(-j*2*pi*l*df*tau_k)

with b the surface-relayed antenna response, z the combined+Doppler pulse
response, and df the subcarrier spacing.  The known AP-surface round-trip
phase is dropped (it is common to every target).
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .config import ArrayConfig, WaveformConfig
from .cpd import FactorTriple, cp_reconstruct
from .errors import ConfigError, DimensionMismatch
from .scene import (ChannelMatrix, SceneTruth, relayed_response,
                    steering_vector, trials_first)


def doppler_ramp(doppler_hz, n_pulses: int, pri_s: float) -> np.ndarray:
    """Per-pulse phase progression exp(j*2*pi*p*pri*doppler), p = 1..P.

    A 1-D array of G Dopplers gives a P x G matrix, a (B, K) array B P x K.
    """
    p = np.arange(1, n_pulses + 1)
    return trials_first(np.exp(np.multiply.outer(2j * np.pi * p * pri_s, doppler_hz)))


def delay_signature(delay_s, n_subcarriers: int,
                    spacing_hz: float) -> np.ndarray:
    """Per-subcarrier phase exp(-j*2*pi*l*df*delay), l = 1..L.

    A 1-D array of K delays gives an L x K matrix, a (B, K) array B L x K.
    """
    l = np.arange(1, n_subcarriers + 1)
    return trials_first(np.exp(np.multiply.outer(-2j * np.pi * l * spacing_hz, delay_s)))


def build_factor_matrices(truth: SceneTruth, channel: ChannelMatrix,
                          profiles: np.ndarray, combiner: np.ndarray,
                          waveform: WaveformConfig,
                          arrays: ArrayConfig) -> FactorTriple:
    """Evaluate the exact factor columns for one row of reflection
    coefficients, or for each of the (2, N) rows ``profiles``, phase first.

    Both phases share the targets' angles, delays, Dopplers, and gains;
    only the reflection coefficients (and hence the pulse and antenna
    factors) change, so the subcarrier factor and generators carry no
    phase axis.  The gains sit in the subcarrier factor, and the
    generators are its unit-gain first row.  A point drawn as a stack gives
    stacked factors, the trial axis after the phase axis.
    """
    n_irs = arrays.n_irs_elements
    n_ap = arrays.n_ap_antennas
    if channel.matrix.shape[-2:] != (n_irs, n_ap):
        raise DimensionMismatch(f"channel shape {channel.matrix.shape} != "
                                f"({n_irs}, {n_ap})")
    if profiles.shape[-1:] != (n_irs,):
        raise DimensionMismatch("profile length != element count")
    if combiner.shape[-1:] != (n_ap,):
        raise DimensionMismatch(f"combiner shape {combiner.shape} != ({n_ap},)")

    antenna = relayed_response(channel, profiles,
                               steering_vector(truth.theta_rad, *arrays.surface))
    ramps = doppler_ramp(truth.doppler_hz, waveform.n_pulses, waveform.pri_s)
    signatures = delay_signature(truth.delay_s, waveform.n_subcarriers,
                                 waveform.subcarrier_spacing_hz)
    return FactorTriple(pulse_factor=(combiner[..., None, :] @ antenna) * ramps,
                        antenna_factor=antenna,
                        subcarrier_factor=truth.gain[..., None, :] * signatures,
                        generators=signatures[..., 0, :])


def synthesize_echo_tensor(factors: FactorTriple) -> np.ndarray:
    """Noiseless tensor of the factors: sum of per-target rank-one terms."""
    return cp_reconstruct(factors)


def echo_tensors(truth: SceneTruth, channel: ChannelMatrix,
                 profiles: np.ndarray, combiner: np.ndarray,
                 waveform: WaveformConfig, arrays: ArrayConfig) -> np.ndarray:
    """Noiseless echo tensors of every row of reflection coefficients,
    phase first: (2, P, M, L), or (2, B, P, M, L) for a point drawn as a
    stack."""
    return synthesize_echo_tensor(build_factor_matrices(
        truth, channel, profiles, combiner, waveform, arrays))


def noise_sigma_for_snr(clean: np.ndarray, snr_db: float) -> np.ndarray:
    """Per-entry noise standard deviation that realizes ``snr_db`` on
    average, one for each (P, M, L) tensor of ``clean``:
    sigma^2 = ||signal||_F^2 / (P*M*L * 10^(snr/10)).  ConfigError where a
    finite SNR gets a noise variance of 0, an echo too weak to realize it."""
    tensors = clean.reshape(-1, *clean.shape[-3:])
    energy = np.array([np.linalg.norm(t) ** 2 for t in tensors])
    sigma = np.sqrt(energy / (tensors[0].size * 10.0 ** (snr_db / 10.0))
                    ).reshape(clean.shape[:-3])
    if math.isfinite(snr_db) and not (noise_variance(sigma) > 0).all():
        raise ConfigError(f"echo energy too small for a noise level "
                          f"at {snr_db:g} dB SNR; no bound")
    return sigma


def noise_variance(sigma: np.ndarray) -> np.ndarray:
    """sigma^2 of each noise level, squared as a Python float is (libm's
    pow), which keeps the bounds' digits: NumPy's exact square differs in
    the last place for roughly one value in 1000 to 2000."""
    return np.reshape([s ** 2 for s in sigma.ravel().tolist()], sigma.shape)


def apply_noise(clean: np.ndarray, sigma: np.ndarray,
                rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Circular complex Gaussian noise of standard deviation ``sigma`` on
    the clean (2, D, P, M, L) draws, one noisy trial per generator.

    Trial b observes draw b % D, so one draw of a frozen point serves every
    trial.  Each generator draws one (phase, real/imaginary, P, M, L) block.
    Returns the (2, B, P, M, L) observations.
    """
    draw_of = np.arange(len(rngs)) % clean.shape[1]
    noisy = np.take(clean, draw_of, axis=1)  # C order: each phase one block
    scale = sigma[:, draw_of, None, None, None] / math.sqrt(2)
    for b, rng in enumerate(rngs):  # in place, without a complex temporary
        parts = rng.standard_normal((2, 2, *clean.shape[2:]))
        noisy[:, b].real += scale[:, b] * parts[:, 0]
        noisy[:, b].imag += scale[:, b] * parts[:, 1]
    return noisy
