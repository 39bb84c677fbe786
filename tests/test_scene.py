"""Geometry, channel, profile, and limit derivations against frozen values.

The frozen numbers were computed independently from the scene geometry
with exact light speed: plane positions, two-segment path lengths, radial
velocity projections, and the waveform timing window.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_sensing.config import SPEED_OF_LIGHT, FullConfig, with_overrides
from irs_sensing.errors import (DuplicateParameter, InfeasibleTiming,
                                OutOfRange)
from irs_sensing.scene import (SceneTruth, _complex_normal, ap_irs_distance,
                               build_rician_channel, derive_target_truth,
                               design_phase_profiles, draw_scene_point,
                               sensing_limits, steering_derivative,
                               steering_vector, subarray_beam_directions,
                               validate_scene)

from stacks import rician_alone, stack_channels

# Independently recomputed geometry for the default two-target scene.
FROZEN_THETA_DEG = (31.9458737, 38.03653147)
FROZEN_RANGE_M = (510.28325467, 559.91606514)
FROZEN_DELAY_S = (3.40424344e-6, 3.73535791e-6)
FROZEN_DOPPLER_HZ = (6668.6133912, -8806.09211323)
FROZEN_AP_IRS_M = 141.4213562
FROZEN_LIMITS = (449.688687, 599.584916, 312.28381)


def test_target_angles(truth):
    got = np.degrees(truth.theta_rad)
    assert got == pytest.approx(FROZEN_THETA_DEG, abs=1e-6)


def test_target_ranges_and_delays(truth):
    assert truth.range_m == pytest.approx(FROZEN_RANGE_M, abs=1e-6)
    assert truth.delay_s == pytest.approx(FROZEN_DELAY_S, abs=1e-13)
    # delay is the full double bounce over the exact light speed
    for delay, range_m in zip(truth.delay_s, truth.range_m):
        assert delay == pytest.approx(2 * range_m / SPEED_OF_LIGHT, rel=1e-12)


def test_target_dopplers(truth):
    assert truth.doppler_hz == pytest.approx(FROZEN_DOPPLER_HZ, abs=1e-6)
    cfg = FullConfig()
    for doppler, target_cfg in zip(truth.doppler_hz, cfg.scene.targets):
        expected = (2 * target_cfg.radial_velocity_mps
                    * cfg.waveform.carrier_freq_hz / SPEED_OF_LIGHT)
        assert doppler == pytest.approx(expected, rel=1e-12)


def test_ap_irs_distance(cfg):
    assert ap_irs_distance(cfg.scene) == pytest.approx(FROZEN_AP_IRS_M,
                                                       abs=1e-6)


def test_sensing_limits_frozen(cfg):
    lim = sensing_limits(cfg.waveform)
    got = (lim.min_range_m, lim.max_range_m, lim.max_speed_mps)
    for value, frozen in zip(got, FROZEN_LIMITS):
        assert value == pytest.approx(frozen, rel=5e-7)


def test_limit_formulas(cfg):
    wf = cfg.waveform
    lim = sensing_limits(wf)
    assert lim.min_range_m == pytest.approx(
        SPEED_OF_LIGHT * wf.full_symbol_s / 2, rel=1e-12)
    assert lim.max_range_m == pytest.approx(
        SPEED_OF_LIGHT * (wf.full_symbol_s + wf.cyclic_prefix_s) / 2, rel=1e-12)
    assert lim.max_speed_mps == pytest.approx(
        SPEED_OF_LIGHT / (2 * wf.carrier_freq_hz * wf.pri_s), rel=1e-12)
    assert lim.min_range_m < lim.max_range_m


def test_steering_vector_shape_and_modulus(cfg):
    n = cfg.arrays.n_irs_elements
    a = steering_vector(0.3, n, cfg.arrays.element_spacing_m,
                        cfg.arrays.wavelength_m)
    assert a.shape == (n,)
    assert np.abs(a) == pytest.approx(np.full(n, 1 / math.sqrt(n)))
    assert a[0] == pytest.approx(1 / math.sqrt(n))


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(-1.2, 1.2), n=st.integers(1, 24))
def test_steering_mirror_symmetry(theta, n):
    spacing, lam = 2.5e-3, 5e-3
    a_pos = steering_vector(theta, n, spacing, lam)
    a_neg = steering_vector(-theta, n, spacing, lam)
    assert np.allclose(a_neg, a_pos.conj())


def test_steering_derivative_matches_finite_difference(cfg):
    theta, h = 0.55, 1e-7
    args = (cfg.arrays.n_irs_elements, cfg.arrays.element_spacing_m,
            cfg.arrays.wavelength_m)
    fd = (steering_vector(theta + h, *args)
          - steering_vector(theta - h, *args)) / (2 * h)
    an = steering_derivative(theta, *args)
    assert np.linalg.norm(fd - an) / np.linalg.norm(an) < 1e-6
    assert steering_derivative(0.0, *args)[0] == 0


def test_steering_of_a_stack_equals_its_one_row_calls(cfg):
    """Columns of a 1-D angle array equal the scalar calls, and each row of
    a (B, K) stack the call on that row alone, bit for bit."""
    args = (cfg.arrays.n_irs_elements, cfg.arrays.element_spacing_m,
            cfg.arrays.wavelength_m)
    angles = np.random.default_rng(4).uniform(-1.5, 1.5, 48)
    grid = steering_vector(angles, *args)
    assert all(np.array_equal(grid[:, g], steering_vector(a, *args))
               for g, a in enumerate(angles))
    for theta in (angles.reshape(16, 3), angles[:16].reshape(16, 1)):
        for fn in (steering_vector, steering_derivative):
            stacked = fn(theta, *args)
            assert stacked.shape == (len(theta), args[0], theta.shape[1])
            assert all(np.array_equal(stacked[b], fn(row, *args))
                       for b, row in enumerate(theta))


def test_leg_gain_statistics(cfg):
    """Per-leg power follows the distance law with log-normal shadowing."""
    rng = np.random.default_rng(0)
    draws = derive_target_truth(cfg.scene, cfg.waveform,
                                [rng] * 4000).gain[:, 0]
    # carrier-phase factor is deterministic; spread comes from shadowing
    db = 10 * np.log10(np.abs(draws) ** 2)
    assert db.std() == pytest.approx(2 * 5.8, rel=0.1)


def test_truth_is_deterministic_given_stream(cfg):
    a = derive_target_truth(cfg.scene, cfg.waveform,
                            [np.random.default_rng(42)])
    b = derive_target_truth(cfg.scene, cfg.waveform,
                            [np.random.default_rng(42)])
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name))


def test_validate_scene_accepts_default(cfg):
    validate_scene(cfg.scene, cfg.waveform, cfg.arrays)


def test_validate_scene_range_window(cfg):
    bad = with_overrides(FullConfig(), targets=(
        cfg.scene.targets[0],
        type(cfg.scene.targets[0])(position_m=(150.0, 80.0)),))
    with pytest.raises(OutOfRange):
        validate_scene(bad.scene, bad.waveform, bad.arrays)


def test_draw_rejects_a_target_outside_the_range_window(cfg):
    """The draw checks the scene itself; no caller has to first."""
    bad = with_overrides(FullConfig(), targets=(
        cfg.scene.targets[0],
        type(cfg.scene.targets[0])(position_m=(150.0, 80.0)),))
    with pytest.raises(OutOfRange):
        draw_scene_point(bad, [np.random.default_rng(0)])


def test_validate_scene_duplicate_targets(cfg):
    twin = cfg.scene.targets[0]
    bad = with_overrides(FullConfig(), targets=(twin, twin))
    with pytest.raises(DuplicateParameter):
        validate_scene(bad.scene, bad.waveform, bad.arrays)


def test_validate_scene_timing(cfg):
    bad = with_overrides(FullConfig(), pri_s=3.1e-6)
    with pytest.raises(InfeasibleTiming):
        validate_scene(bad.scene, bad.waveform, bad.arrays)


def test_los_channel_is_rank_one(cfg, channel):
    assert channel.matrix.shape == (cfg.arrays.n_irs_elements,
                                    cfg.arrays.n_ap_antennas)
    assert channel.singular_ratio() < 1e-12
    s = np.linalg.svd(channel.matrix, compute_uv=False)
    np.testing.assert_allclose(channel.matrix,
                               s[0] * np.outer(channel.u, channel.v),
                               rtol=0, atol=1e-12 * s[0])


def test_los_channel_directions(cfg, channel):
    """Surface-side factor steers at the access point's 45-degree bearing."""
    a45 = steering_vector(math.radians(45.0), cfg.arrays.n_irs_elements,
                          cfg.arrays.element_spacing_m,
                          cfg.arrays.wavelength_m)
    u = channel.u
    corr = abs(np.vdot(u, a45)) / (np.linalg.norm(u) * np.linalg.norm(a45))
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_beamformer_matched_to_channel(cfg, channel, combiner):
    assert combiner.shape == (cfg.arrays.n_ap_antennas,)
    assert np.linalg.norm(combiner) == pytest.approx(1.0, abs=1e-12)
    v = channel.v
    np.testing.assert_allclose(combiner, v.conj() / np.linalg.norm(v),
                               rtol=0, atol=1e-15)
    assert abs(combiner @ v) == pytest.approx(1.0, abs=1e-12)


def _scattered_reference(g_los, rician_db, n_nlos, arrays, rng):
    """build_rician_channel's matrix with one scalar steering call per path
    and side, drawing aoa, aod, then the gain of each path in turn."""
    scattered = np.zeros_like(g_los.matrix)
    for _ in range(n_nlos):
        aoa = rng.uniform(-np.pi / 2, np.pi / 2)
        aod = rng.uniform(-np.pi / 2, np.pi / 2)
        a_irs = steering_vector(aoa, *arrays.surface)
        a_ap = steering_vector(aod, arrays.n_ap_antennas,
                               arrays.element_spacing_m, arrays.wavelength_m)
        scattered = scattered + _complex_normal(rng) * np.outer(a_irs,
                                                                a_ap.conj())
    scattered = scattered * (np.linalg.norm(g_los.matrix)
                             / np.linalg.norm(scattered))
    k_lin = 10.0 ** (rician_db / 10.0)
    return (math.sqrt(k_lin / (1 + k_lin)) * g_los.matrix
            + math.sqrt(1 / (1 + k_lin)) * scattered)


def test_rician_paths_match_the_scalar_steering_loop(cfg, channel):
    """The channel matrix and its dominant triple are those of the scalar
    per-path loop, bit for bit, over 100 draws."""
    for seed in range(100):
        got = rician_alone(channel, 5.0, cfg.scene.n_nlos_paths, cfg.arrays,
                           np.random.default_rng(seed))
        want = _scattered_reference(channel, 5.0, cfg.scene.n_nlos_paths,
                                    cfg.arrays, np.random.default_rng(seed))
        assert np.array_equal(got.matrix, want)
        u, s, vh = np.linalg.svd(want)
        assert got.singular_values[0] == s[0]
        assert np.array_equal(got.u, u[:, 0])
        assert np.array_equal(got.v, vh[0])


def test_rician_channel_power_ratio(cfg, channel):
    rng = np.random.default_rng(3)
    mixed = rician_alone(channel, 13.0, 4, cfg.arrays, rng)
    # frozen decomposition of the 13 dB factor
    assert 10 ** 1.3 == pytest.approx(19.9526231497, rel=1e-10)
    assert np.linalg.matrix_rank(mixed.matrix) == 5
    assert mixed.singular_ratio() > 1e-3


def test_rician_none_passthrough(cfg, channel):
    los = stack_channels([channel])
    same = build_rician_channel(los, None, 4, cfg.arrays,
                                [np.random.default_rng(0)])
    assert same is los


@pytest.mark.parametrize("overrides", [
    {}, {"rician_k_db": 5.0}, {"rician_k_db": 5.0, "n_nlos_paths": 0}],
    ids=["los", "rician", "rician_without_paths"])
def test_a_stack_of_draws_equals_the_one_draw_calls(overrides):
    """Five generators drawn as one stack give each trial the bits of its
    own one-draw call, and leave each generator where that call leaves it."""
    cfg = with_overrides(FullConfig(), **overrides)
    seeds = [(4, b) for b in range(5)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    stack = draw_scene_point(cfg, rngs)
    assert stack.truth.gain.shape == (5, len(cfg.scene.targets))
    assert stack.channel.matrix.shape == (5, cfg.arrays.n_irs_elements,
                                          cfg.arrays.n_ap_antennas)
    assert stack.combiner.shape == (5, cfg.arrays.n_ap_antennas)
    assert np.array_equal(stack.profiles, design_phase_profiles(
        cfg.scene.doa_prior_rad, cfg.arrays, cfg.scene.n_subarrays))
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        alone = draw_scene_point(cfg, [rng]).trial(0)
        got = stack.trial(b)
        for field in dataclasses.fields(SceneTruth):
            assert np.array_equal(getattr(got.truth, field.name),
                                  getattr(alone.truth, field.name))
        assert np.array_equal(got.channel.matrix, alone.channel.matrix)
        for part in ("u", "v"):
            assert np.array_equal(getattr(got.channel, part),
                                  getattr(alone.channel, part))
        if overrides:
            assert np.array_equal(got.channel.singular_values,
                                  alone.channel.singular_values)
        else:
            assert got.channel.singular_values is None
        assert got.channel.singular_ratio() == alone.channel.singular_ratio()
        assert np.array_equal(got.combiner, alone.combiner)
        assert rngs[b].standard_normal() == rng.standard_normal()


def test_rician_singular_values_are_those_of_its_matrix(cfg, channel):
    """The ratio the rank-one check reads is that of the channel matrix."""
    mixed = rician_alone(channel, 5.0, 4, cfg.arrays, np.random.default_rng(2))
    s = np.linalg.svd(mixed.matrix, compute_uv=False)
    np.testing.assert_allclose(mixed.singular_values, s, rtol=1e-12)
    assert mixed.singular_ratio() == pytest.approx(s[1] / s[0], rel=1e-12)


def test_subarray_beam_directions(cfg):
    prior = cfg.scene.doa_prior_rad
    first = np.degrees(subarray_beam_directions(prior, 4, offset_cells=0.0))
    second = np.degrees(subarray_beam_directions(prior, 4, offset_cells=0.5))
    assert first == pytest.approx((31.875, 35.625, 39.375, 43.125))
    assert second == pytest.approx((33.75, 37.5, 41.25, 45.0))


def test_phase_profiles_unit_modulus_and_distinct(cfg, profiles):
    assert profiles.shape == (2, cfg.arrays.n_irs_elements)
    assert np.abs(profiles) == pytest.approx(np.ones(profiles.shape))
    assert not np.allclose(profiles[0], profiles[1])


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.5, 4.0))
def test_limits_scale_with_timing(scale):
    base = FullConfig().waveform
    stretched = with_overrides(FullConfig(),
                               symbol_duration_s=base.symbol_duration_s * scale,
                               cyclic_prefix_s=base.cyclic_prefix_s * scale,
                               pri_s=base.pri_s * scale).waveform
    a, b = sensing_limits(base), sensing_limits(stretched)
    assert b.min_range_m == pytest.approx(a.min_range_m * scale, rel=1e-9)
    assert b.max_range_m == pytest.approx(a.max_range_m * scale, rel=1e-9)
    assert b.max_speed_mps == pytest.approx(a.max_speed_mps / scale, rel=1e-9)
