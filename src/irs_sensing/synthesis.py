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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ArrayConfig, WaveformConfig
from .cpd import FactorTriple, cp_reconstruct
from .errors import DimensionMismatch
from .scene import (ChannelMatrix, PhaseProfile, SceneTruth, relayed_response,
                    steering_vector, trials_first)


@dataclass(frozen=True)
class EchoTensor:
    """One phase's observation tensor with its noise bookkeeping."""

    data: np.ndarray         # complex, (P, M, L); (B, P, M, L) for a stack
    phase_index: int
    noise_sigma: float       # per-entry complex noise standard deviation

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


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
                          profile: PhaseProfile, combiner: np.ndarray,
                          waveform: WaveformConfig,
                          arrays: ArrayConfig) -> FactorTriple:
    """Evaluate the exact factor columns for one observation phase.

    Both phases share the targets' angles, delays, Dopplers, and gains;
    only the reflection profile (and hence b and z) changes.  The gains
    sit in the subcarrier factor, and the generators are its unit-gain
    first row.  A point drawn as a stack gives stacked factors.
    """
    n_irs = arrays.n_irs_elements
    n_ap = arrays.n_ap_antennas
    if channel.matrix.shape[-2:] != (n_irs, n_ap):
        raise DimensionMismatch(f"channel shape {channel.matrix.shape} != "
                                f"({n_irs}, {n_ap})")
    if profile.phases.shape != (n_irs,):
        raise DimensionMismatch("profile length != element count")
    if combiner.shape[-2:] != (n_ap, waveform.n_pulses):
        raise DimensionMismatch(f"combiner shape {combiner.shape} != "
                                f"({n_ap}, {waveform.n_pulses})")

    antenna = relayed_response(channel, profile,
                               steering_vector(truth.theta_rad, *arrays.surface))
    ramps = doppler_ramp(truth.doppler_hz, waveform.n_pulses, waveform.pri_s)
    signatures = delay_signature(truth.delay_s, waveform.n_subcarriers,
                                 waveform.subcarrier_spacing_hz)
    return FactorTriple(pulse_factor=(combiner.swapaxes(-1, -2) @ antenna) * ramps,
                        antenna_factor=antenna,
                        subcarrier_factor=truth.gain[..., None, :] * signatures,
                        generators=signatures[..., 0, :])


def synthesize_echo_tensor(factors: FactorTriple,
                           phase_index: int) -> EchoTensor:
    """Noiseless tensor of one phase: sum of per-target rank-one terms."""
    return EchoTensor(data=cp_reconstruct(factors), phase_index=phase_index,
                      noise_sigma=0.0)


def echo_tensors(truth: SceneTruth, channel: ChannelMatrix,
                 profiles: Sequence[PhaseProfile], combiner: np.ndarray,
                 waveform: WaveformConfig,
                 arrays: ArrayConfig) -> tuple[EchoTensor, ...]:
    """Noiseless echo tensors of every observation phase."""
    return tuple(synthesize_echo_tensor(build_factor_matrices(
        truth, channel, profile, combiner, waveform, arrays), profile.phase_index)
        for profile in profiles)


def apply_noise(tensor: EchoTensor, snr_db: float,
                rng: np.random.Generator) -> EchoTensor:
    """Add circular complex Gaussian noise at the requested tensor SNR.

    The per-entry variance is set from the clean tensor's energy:
    sigma^2 = ||signal||_F^2 / (P*M*L * 10^(snr/10)).
    """
    if math.isinf(snr_db):
        return tensor
    sigma = noise_sigma_for_snr(tensor, snr_db)
    noise = (sigma / math.sqrt(2)) * (rng.standard_normal(tensor.data.shape)
                                      + 1j * rng.standard_normal(tensor.data.shape))
    return EchoTensor(data=tensor.data + noise, phase_index=tensor.phase_index,
                      noise_sigma=sigma)


def noise_sigma_for_snr(tensor: EchoTensor, snr_db: float) -> float:
    """Per-entry noise standard deviation that realizes ``snr_db`` on average."""
    signal_energy = float(np.linalg.norm(tensor.data) ** 2)
    return math.sqrt(signal_energy / (tensor.data.size * 10.0 ** (snr_db / 10.0)))
