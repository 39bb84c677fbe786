"""References for the tests: a time-domain echo oracle, and the noise of
one tensor drawn on its own.

The discrete observation model (irs_sensing.synthesis) drops the known
AP-surface round-trip phase.  The time-domain oracle rebuilds the same
per-subcarrier values by numerically integrating the continuous baseband
echo over the sampling window of one pulse, keeping the small
Doppler-induced subcarrier phase that the discrete model neglects; the
two agree to the documented tolerance.
"""
import math

import numpy as np

from irs_sensing.config import ArrayConfig, WaveformConfig
from irs_sensing.cpd import FactorTriple, cp_reconstruct
from irs_sensing.errors import ConfigError
from irs_sensing.scene import ChannelMatrix, PhaseProfile, SceneTruth
from irs_sensing.synthesis import build_factor_matrices


class InsufficientSampling(ConfigError):
    """Time-domain integration requested with too few sample points."""


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
