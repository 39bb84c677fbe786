"""Echo-tensor construction, noise injection, and the oracle check."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_sensing.config import default_config
from irs_sensing.errors import DimensionMismatch, InsufficientSampling
from irs_sensing.scene import PhaseProfile
from irs_sensing.synthesis import (apply_noise, build_factor_matrices,
                                   delay_signature, doppler_ramp,
                                   noise_sigma_for_snr, oracle_prediction,
                                   synthesize_echo_tensor, time_domain_oracle)


# ---------------------------------------------------------------- factors

def test_factor_shapes(cfg, factor_pair):
    k = len(cfg.scene.targets)
    for fac, expected_phase in zip(factor_pair, (1, 2)):
        assert fac.pulse_factor.shape == (cfg.waveform.n_pulses, k)
        assert fac.antenna_factor.shape == (cfg.arrays.n_ap_antennas, k)
        assert fac.subcarrier_factor.shape == (cfg.waveform.n_subcarriers, k)
        assert fac.phase_index == expected_phase
        assert fac.n_targets == k


def test_pulse_column_is_combined_gain_times_ramp(cfg, factor_pair):
    """Each pulse column must factor as (combiner gain) x (Doppler ramp)."""
    fac = factor_pair[0]
    for col in range(fac.n_targets):
        z = fac.pulse_factor[:, col]
        ramp_ratio = z[1:] / z[:-1]
        # successive ratios of a geometric sequence are constant
        assert np.allclose(ramp_ratio, ramp_ratio[0], rtol=1e-12)
        assert np.allclose(np.abs(ramp_ratio), 1.0, atol=1e-12)


def test_subcarrier_column_encodes_gain_and_delay(cfg, truth, factor_pair):
    fac = factor_pair[0]
    for col, tgt in enumerate(truth.targets):
        expected = tgt.gain * delay_signature(
            tgt.delay_s, cfg.waveform.n_subcarriers,
            cfg.waveform.subcarrier_spacing_hz)
        np.testing.assert_allclose(fac.subcarrier_factor[:, col], expected,
                                   rtol=1e-12)


def test_dimension_mismatch_guards(cfg, truth, channel, profiles, combiner):
    bad_chan = dataclasses.replace(channel,
                                   matrix=channel.matrix[:, :-1])
    with pytest.raises(DimensionMismatch):
        build_factor_matrices(truth, bad_chan, profiles[0], combiner,
                              cfg.waveform, cfg.arrays)
    bad_prof = PhaseProfile(phases=profiles[0].phases[:-1], phase_index=1)
    with pytest.raises(DimensionMismatch):
        build_factor_matrices(truth, channel, bad_prof, combiner,
                              cfg.waveform, cfg.arrays)
    with pytest.raises(DimensionMismatch):
        build_factor_matrices(truth, channel, profiles[0], combiner[:, :-1],
                              cfg.waveform, cfg.arrays)


def test_empty_scene_gives_zero_tensor(cfg, truth, channel, profiles,
                                       combiner):
    empty = dataclasses.replace(truth, targets=())
    fac = build_factor_matrices(empty, channel, profiles[0], combiner,
                                cfg.waveform, cfg.arrays)
    tensor = synthesize_echo_tensor(fac)
    assert tensor.shape == (cfg.waveform.n_pulses, cfg.arrays.n_ap_antennas,
                            cfg.waveform.n_subcarriers)
    assert np.all(tensor.data == 0)


def test_tensor_matches_rank_one_sum(factor_pair, clean_pair):
    """The einsum must equal the explicit sum of per-target outer products."""
    for fac, tensor in zip(factor_pair, clean_pair):
        explicit = np.zeros(tensor.shape, dtype=complex)
        for k in range(fac.n_targets):
            explicit += (fac.pulse_factor[:, k][:, None, None]
                         * fac.antenna_factor[:, k][None, :, None]
                         * fac.subcarrier_factor[:, k][None, None, :])
        np.testing.assert_allclose(tensor.data, explicit, rtol=1e-12)
        assert tensor.noise_sigma == 0.0


# ---------------------------------------------------------------- signatures

@given(nu=st.floats(-6e4, 6e4), pri=st.floats(1e-6, 1e-4),
       n=st.integers(1, 32))
@settings(max_examples=60, deadline=None)
def test_doppler_ramp_is_unit_modulus_geometric(nu, pri, n):
    ramp = doppler_ramp(nu, n, pri)
    assert ramp.shape == (n,)
    assert np.allclose(np.abs(ramp), 1.0, atol=1e-12)
    assert ramp[0] == pytest.approx(np.exp(2j * np.pi * pri * nu), abs=1e-12)


@given(tau=st.floats(0.0, 4e-6), spacing=st.floats(1e4, 1e6),
       n=st.integers(1, 32))
@settings(max_examples=60, deadline=None)
def test_delay_signature_is_unit_modulus_geometric(tau, spacing, n):
    sig = delay_signature(tau, n, spacing)
    assert sig.shape == (n,)
    assert np.allclose(np.abs(sig), 1.0, atol=1e-12)
    assert sig[0] == pytest.approx(np.exp(-2j * np.pi * spacing * tau),
                                   abs=1e-12)


def test_delay_signature_zero_delay_is_flat():
    assert np.array_equal(delay_signature(0.0, 8, 5e5), np.ones(8))


# ---------------------------------------------------------------- noise

def test_apply_noise_realizes_requested_snr(clean_pair):
    noisy = apply_noise(clean_pair[0], 0.0, np.random.default_rng(3))
    noise = noisy.data - clean_pair[0].data
    realized = 10.0 * math.log10(np.linalg.norm(clean_pair[0].data) ** 2
                                 / np.linalg.norm(noise) ** 2)
    # at 0 dB nominal, a 5% linear-power tolerance is about +/-0.21 dB
    assert abs(realized) < 0.22
    assert noisy.noise_sigma == pytest.approx(
        noise_sigma_for_snr(clean_pair[0], 0.0))


def test_apply_noise_noiseless_passthrough(clean_pair):
    out = apply_noise(clean_pair[0], math.inf, np.random.default_rng(0))
    assert out is clean_pair[0]


def test_noise_sigma_scaling(clean_pair):
    s0 = noise_sigma_for_snr(clean_pair[0], 0.0)
    s10 = noise_sigma_for_snr(clean_pair[0], 10.0)
    assert s10 == pytest.approx(s0 / math.sqrt(10.0), rel=1e-12)


def test_apply_noise_deterministic_per_seed(clean_pair):
    a = apply_noise(clean_pair[0], 5.0, np.random.default_rng(11))
    b = apply_noise(clean_pair[0], 5.0, np.random.default_rng(11))
    c = apply_noise(clean_pair[0], 5.0, np.random.default_rng(12))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


# ---------------------------------------------------------------- oracle

def test_oracle_matches_model_with_motion(cfg, truth, channel, profiles,
                                          combiner, factor_pair):
    """Sampled continuous-time echoes agree with the discrete model to 1e-3."""
    for pulse in (1, 3, 10):
        oracle = time_domain_oracle(truth, channel, profiles[0], combiner,
                                    cfg.waveform, cfg.arrays, pulse)
        pred = oracle_prediction(factor_pair[0], truth.sync_delay_s,
                                 cfg.waveform, pulse)
        rel = np.linalg.norm(oracle - pred) / np.linalg.norm(oracle)
        assert rel < 1e-3, f"pulse {pulse}: relative error {rel:.3e}"


def test_oracle_exact_for_static_targets(cfg, truth, channel, profiles,
                                         combiner):
    """With zero Doppler the model drops nothing: agreement to 1e-6."""
    static = dataclasses.replace(truth, targets=tuple(
        dataclasses.replace(t, doppler_hz=0.0) for t in truth.targets))
    fac = build_factor_matrices(static, channel, profiles[0], combiner,
                                cfg.waveform, cfg.arrays)
    oracle = time_domain_oracle(static, channel, profiles[0], combiner,
                                cfg.waveform, cfg.arrays, 3)
    pred = oracle_prediction(fac, static.sync_delay_s, cfg.waveform, 3)
    rel = np.linalg.norm(oracle - pred) / np.linalg.norm(oracle)
    assert rel < 1e-6, f"relative error {rel:.3e}"


def test_oracle_rejects_coarse_sampling(cfg, truth, channel, profiles,
                                        combiner):
    too_few = 8 * cfg.waveform.n_subcarriers - 1
    with pytest.raises(InsufficientSampling):
        time_domain_oracle(truth, channel, profiles[0], combiner,
                           cfg.waveform, cfg.arrays, 1, n_samples=too_few)


def test_oracle_prediction_reinstates_sync_phase(cfg, factor_pair):
    base = oracle_prediction(factor_pair[0], 0.0, cfg.waveform, 2)
    shifted = oracle_prediction(factor_pair[0], 1e-6, cfg.waveform, 2)
    l = np.arange(1, cfg.waveform.n_subcarriers + 1)
    expected = np.exp(-2j * np.pi * l * cfg.waveform.subcarrier_spacing_hz
                      * 1e-6)
    np.testing.assert_allclose(shifted / base, np.tile(expected,
                                                       (base.shape[0], 1)),
                               rtol=1e-10)
