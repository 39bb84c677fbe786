"""Echo-tensor construction, noise injection, and the oracle check."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_sensing.config import with_overrides
from irs_sensing.crb import jacobian_terms
from irs_sensing.errors import DimensionMismatch
from irs_sensing.scene import draw_scene_point
from irs_sensing.synthesis import (apply_noise, build_factor_matrices,
                                   delay_signature, doppler_ramp, echo_tensors,
                                   noise_sigma_for_snr, noise_variance,
                                   synthesize_echo_tensor)

from conftest import take_targets
from reference import (InsufficientSampling, noisy_tensor, oracle_prediction,
                       time_domain_oracle)


# ---------------------------------------------------------------- factors

def test_factor_shapes(cfg, factor_pair, clean_pair):
    k = len(cfg.scene.targets)
    for fac in factor_pair:
        assert fac.pulse_factor.shape == (cfg.waveform.n_pulses, k)
        assert fac.antenna_factor.shape == (cfg.arrays.n_ap_antennas, k)
        assert fac.subcarrier_factor.shape == (cfg.waveform.n_subcarriers, k)
        assert fac.generators.shape == (k,)
        assert fac.n_components == k
    assert clean_pair.shape == (2, cfg.waveform.n_pulses,
                                cfg.arrays.n_ap_antennas,
                                cfg.waveform.n_subcarriers)


def test_pulse_column_is_combined_gain_times_ramp(cfg, factor_pair):
    """Each pulse column must factor as (combined gain) x (Doppler ramp)."""
    fac = factor_pair[0]
    for col in range(fac.n_components):
        z = fac.pulse_factor[:, col]
        ramp_ratio = z[1:] / z[:-1]
        # successive ratios of a geometric sequence are constant
        assert np.allclose(ramp_ratio, ramp_ratio[0], rtol=1e-12)
        assert np.allclose(np.abs(ramp_ratio), 1.0, atol=1e-12)


def test_subcarrier_column_encodes_gain_and_delay(cfg, truth, factor_pair):
    fac = factor_pair[0]
    for col, (gain, delay) in enumerate(zip(truth.gain, truth.delay_s)):
        signature = delay_signature(delay, cfg.waveform.n_subcarriers,
                                    cfg.waveform.subcarrier_spacing_hz)
        np.testing.assert_allclose(fac.subcarrier_factor[:, col],
                                   gain * signature, rtol=1e-12)
        assert fac.generators[col] == signature[0]


@pytest.mark.parametrize("n_draws", [None, 3])
def test_phase_rows_equal_the_one_row_calls(cfg, scene_point, n_draws):
    """Row i of the factors, Jacobian terms and echo tensors of both rows
    of reflection coefficients is, bit for bit, the call with row i alone,
    on one draw and on a stack of Rician draws; the subcarrier factor,
    generators and subcarrier terms are the phases' shared ones."""
    point = scene_point
    if n_draws:
        cfg = with_overrides(cfg, rician_k_db=5.0)
        point = draw_scene_point(
            cfg, [np.random.default_rng((6, b)) for b in range(n_draws)])
    args = (cfg.waveform, cfg.arrays)
    both = build_factor_matrices(*point, *args)
    terms = jacobian_terms(*point, *args)
    tensors = echo_tensors(*point, *args)
    for i, row in enumerate(point.profiles):
        alone = point._replace(profiles=row)
        one = build_factor_matrices(*alone, *args)
        one_terms = jacobian_terms(*alone, *args)
        for got, want in zip([*both[:2], *terms[:2], tensors],
                             [*one[:2], *one_terms[:2],
                              echo_tensors(*alone, *args)]):
            assert np.array_equal(got[i], want)
        for got, want in zip([*both[2:], terms[2]], [*one[2:], one_terms[2]]):
            assert np.array_equal(got, want)


def test_dimension_mismatch_guards(cfg, truth, channel, profiles, combiner):
    bad_chan = dataclasses.replace(channel,
                                   matrix=channel.matrix[:, :-1])
    with pytest.raises(DimensionMismatch):
        build_factor_matrices(truth, bad_chan, profiles[0], combiner,
                              cfg.waveform, cfg.arrays)
    with pytest.raises(DimensionMismatch):
        build_factor_matrices(truth, channel, profiles[0][:-1], combiner,
                              cfg.waveform, cfg.arrays)
    with pytest.raises(DimensionMismatch):
        build_factor_matrices(truth, channel, profiles[0], combiner[:-1],
                              cfg.waveform, cfg.arrays)


def test_empty_scene_gives_zero_tensor(cfg, truth, channel, profiles,
                                       combiner):
    empty = take_targets(truth, slice(0))
    fac = build_factor_matrices(empty, channel, profiles[0], combiner,
                                cfg.waveform, cfg.arrays)
    tensor = synthesize_echo_tensor(fac)
    assert tensor.shape == (cfg.waveform.n_pulses, cfg.arrays.n_ap_antennas,
                            cfg.waveform.n_subcarriers)
    assert np.all(tensor == 0)


def test_tensor_matches_rank_one_sum(factor_pair, clean_pair):
    """The einsum must equal the explicit sum of per-target outer products."""
    for fac, tensor in zip(factor_pair, clean_pair):
        explicit = np.zeros(tensor.shape, dtype=complex)
        for k in range(fac.n_components):
            explicit += (fac.pulse_factor[:, k][:, None, None]
                         * fac.antenna_factor[:, k][None, :, None]
                         * fac.subcarrier_factor[:, k][None, None, :])
        np.testing.assert_allclose(tensor, explicit, rtol=1e-12)


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
    clean = clean_pair[:, None]
    sigma = noise_sigma_for_snr(clean, 0.0)
    noise = apply_noise(clean, sigma, [np.random.default_rng(3)]) - clean
    for phase in range(2):
        realized = 10.0 * math.log10(np.linalg.norm(clean[phase]) ** 2
                                     / np.linalg.norm(noise[phase]) ** 2)
        # at 0 dB nominal, a 5% linear-power tolerance is about +/-0.21 dB
        assert abs(realized) < 0.22


def test_apply_noise_noiseless_passthrough(clean_pair):
    clean = clean_pair[:, None]
    sigma = noise_sigma_for_snr(clean, math.inf)
    assert sigma.shape == (2, 1) and not sigma.any()
    out = apply_noise(clean, sigma, [np.random.default_rng(0)] * 3)
    assert out.shape == (2, 3, *clean.shape[2:])
    assert np.array_equal(out, np.repeat(clean, 3, axis=1))


def test_noise_sigma_scaling(clean_pair):
    s0 = noise_sigma_for_snr(clean_pair, 0.0)
    s10 = noise_sigma_for_snr(clean_pair, 10.0)
    assert s0.shape == (2,)
    assert s10 == pytest.approx(s0 / math.sqrt(10.0), rel=1e-12)


def test_noise_variance_squares_as_python_floats():
    """The bound's noise variances keep the digits of a Python float's
    square (libm's pow), which NumPy's square misses in the last place
    for some values."""
    sigma = np.random.default_rng(2).uniform(0.1, 10.0, (2, 2000))
    want = [[s ** 2 for s in row] for row in sigma.tolist()]
    assert noise_variance(sigma).tolist() == want


def test_apply_noise_deterministic_per_seed(cfg, clean_pair):
    """Each trial's noise is that of its seed: bit for bit the noise drawn
    one phase, and one real or imaginary part, at a time.  On a fading
    stack each trial has its own draw, with a noise level per phase; on a
    frozen point one draw and its levels serve every trial.  The clean
    draws are left as they were."""
    snr_db, n_trials = 5.0, 3
    rician = with_overrides(cfg, rician_k_db=5.0)
    point = draw_scene_point(rician, [np.random.default_rng((4, b))
                                      for b in range(n_trials)])
    fading = echo_tensors(*point, rician.waveform, rician.arrays)
    for clean in (fading, clean_pair[:, None]):
        sigma = noise_sigma_for_snr(clean, snr_db)
        assert sigma.shape == (2, clean.shape[1])
        assert len(np.unique(sigma)) == sigma.size  # per phase and draw
        before = clean.copy()
        noisy = apply_noise(clean, sigma, [np.random.default_rng((11, b))
                                           for b in range(n_trials)])
        assert np.array_equal(clean, before)
        for b in range(n_trials):
            rng = np.random.default_rng((11, b))
            for phase in range(2):
                want = noisy_tensor(clean[phase, b % clean.shape[1]], snr_db,
                                    rng)
                assert np.array_equal(noisy[phase, b], want), (b, phase)
        other = apply_noise(clean, sigma, [np.random.default_rng((12, b))
                                           for b in range(n_trials)])
        assert not np.array_equal(noisy, other)


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
    static = dataclasses.replace(truth, doppler_hz=0.0 * truth.doppler_hz)
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
