"""Ground-truth factors, echo tensors, noise, and a time-domain oracle.

The discrete observation model says entry (p, m, l) of the echo tensor for
one observation phase is a sum over targets of

    gain_k * b_m(theta_k) * z_p(theta_k, nu_k) * exp(-j*2*pi*l*df*tau_k)

with b the surface-relayed antenna response, z the combined+Doppler pulse
response, and df the subcarrier spacing.  The known AP-surface round-trip
phase is dropped (it is common to every target).  The time-domain oracle
rebuilds the same per-subcarrier values by numerically integrating the
continuous baseband echo over the sampling window of one pulse, keeping
the small Doppler-induced subcarrier phase that the discrete model
neglects; the two agree to the documented tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ArrayConfig, WaveformConfig
from .cpd import cp_reconstruct
from .errors import DimensionMismatch, InsufficientSampling
from .scene import (ChannelMatrix, PhaseProfile, SceneTruth, relayed_response,
                    steering_vector)


@dataclass(frozen=True)
class GroundTruthFactors:
    """Exact per-phase CP factors implied by a scene."""

    pulse_factor: np.ndarray       # P x K, columns z(theta_k, nu_k)
    antenna_factor: np.ndarray     # M x K, columns b(theta_k)
    subcarrier_factor: np.ndarray  # L x K, columns gain_k * f(tau_k)
    phase_index: int

    @property
    def n_targets(self) -> int:
        return self.pulse_factor.shape[1]


@dataclass(frozen=True)
class EchoTensor:
    """One phase's observation tensor with its noise bookkeeping."""

    data: np.ndarray         # complex, shape (P, M, L)
    phase_index: int
    noise_sigma: float       # per-entry complex noise standard deviation

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


def doppler_ramp(doppler_hz, n_pulses: int, pri_s: float) -> np.ndarray:
    """Per-pulse phase progression exp(j*2*pi*p*pri*doppler), p = 1..P.

    A 1-D array of G Dopplers gives a P x G matrix of ramps.
    """
    p = np.arange(1, n_pulses + 1)
    return np.exp(np.multiply.outer(2j * np.pi * p * pri_s, doppler_hz))


def delay_signature(delay_s, n_subcarriers: int,
                    spacing_hz: float) -> np.ndarray:
    """Per-subcarrier phase exp(-j*2*pi*l*df*delay), l = 1..L.

    A 1-D array of K delays gives an L x K matrix of signatures.
    """
    l = np.arange(1, n_subcarriers + 1)
    return np.exp(np.multiply.outer(-2j * np.pi * l * spacing_hz, delay_s))


def build_factor_matrices(truth: SceneTruth, channel: ChannelMatrix,
                          profile: PhaseProfile, combiner: np.ndarray,
                          waveform: WaveformConfig,
                          arrays: ArrayConfig) -> GroundTruthFactors:
    """Evaluate the exact factor columns for one observation phase.

    Both phases share the targets' angles, delays, Dopplers, and gains;
    only the reflection profile (and hence b and z) changes.
    """
    n_irs = arrays.n_irs_elements
    n_ap = arrays.n_ap_antennas
    if channel.matrix.shape != (n_irs, n_ap):
        raise DimensionMismatch(f"channel shape {channel.matrix.shape} != "
                                f"({n_irs}, {n_ap})")
    if profile.phases.shape != (n_irs,):
        raise DimensionMismatch("profile length != element count")
    if combiner.shape != (n_ap, waveform.n_pulses):
        raise DimensionMismatch(f"combiner shape {combiner.shape} != "
                                f"({n_ap}, {waveform.n_pulses})")

    antenna = relayed_response(channel, profile,
                               steering_vector(truth.thetas(), *arrays.surface))
    ramps = doppler_ramp(truth.dopplers(), waveform.n_pulses, waveform.pri_s)
    signatures = delay_signature(truth.delays(), waveform.n_subcarriers,
                                 waveform.subcarrier_spacing_hz)
    return GroundTruthFactors(
        pulse_factor=(combiner.T @ antenna) * ramps,
        antenna_factor=antenna,
        subcarrier_factor=truth.gains() * signatures,
        phase_index=profile.phase_index)


def synthesize_echo_tensor(factors: GroundTruthFactors) -> EchoTensor:
    """Noiseless tensor: sum of per-target rank-one terms."""
    return EchoTensor(data=cp_reconstruct(factors),
                      phase_index=factors.phase_index,
                      noise_sigma=0.0)


def echo_tensors(truth: SceneTruth, channel: ChannelMatrix,
                 profiles: Sequence[PhaseProfile], combiner: np.ndarray,
                 waveform: WaveformConfig,
                 arrays: ArrayConfig) -> tuple[EchoTensor, ...]:
    """Noiseless echo tensors of every observation phase."""
    return tuple(synthesize_echo_tensor(build_factor_matrices(
        truth, channel, profile, combiner, waveform, arrays))
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


def time_domain_oracle(truth: SceneTruth, channel: ChannelMatrix,
                       profile: PhaseProfile, combiner: np.ndarray,
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
    for tgt, b, z in zip(truth.targets, factors.antenna_factor.T,
                         factors.pulse_factor[pulse_index - 1]):
        bar_gain = (tgt.gain / (beta * waveform.symbol_duration_s))
        shifted_delay = (tgt.delay_s + tau0
                         - tgt.doppler_hz * pulse_index * pri / fc)
        rel = t - shifted_delay - pulse_index * pri
        window = ((rel >= 0.0) & (rel <= full)).astype(float)
        tones = np.exp(2j * np.pi * spacing * np.outer(q, t - shifted_delay)) * beta
        pulse_wave = tones.sum(axis=0) * window
        baseband += np.outer(bar_gain * z * b, pulse_wave)

    analysis = np.exp(-2j * np.pi * spacing * np.outer(q, t))
    integrated = (baseband[:, None, :] * analysis[None, :, :]).sum(axis=2) * step
    return integrated / (beta * waveform.symbol_duration_s)


def oracle_prediction(factors: GroundTruthFactors, sync_delay_s: float,
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
