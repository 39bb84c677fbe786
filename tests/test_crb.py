"""Information matrix, variance bounds, and their self-consistency checks."""
import dataclasses
import math

import numpy as np
import pytest

import reference
from irs_sensing.config import ArrayConfig, FullConfig, with_overrides
from irs_sensing.cpd import cp_reconstruct
from irs_sensing.crb import FIM_CONDITION_LIMIT, compute_crb, compute_fim
from irs_sensing.scene import draw_scene_point, steering_derivative
from irs_sensing.synthesis import (build_factor_matrices, echo_tensors,
                                   noise_sigma_for_snr)

from conftest import take_targets
from reference import (log_likelihood, mc_score_covariance, parameter_index,
                       parameter_jacobian, score, score_fd_check)
from stacks import stack_points


@pytest.fixture(scope="module")
def noise_vars(clean_pair):
    return noise_sigma_for_snr(clean_pair, 0.0) ** 2


@pytest.fixture(scope="module")
def fim(cfg, truth, channel, profiles, combiner, noise_vars):
    return compute_fim(truth, channel, profiles, combiner, cfg.waveform,
                       cfg.arrays, noise_vars)


# ------------------------------------------------------------- derivatives

def test_jacobian_rows_match_finite_differences(cfg, truth, channel,
                                                profiles, combiner):
    """Every row of both phases: central differences of the model tensor."""
    steps = reference.parameter_steps(truth, 1e-7)
    for phase, profile in enumerate(profiles):
        args = (channel, profile, combiner, cfg.waveform, cfg.arrays)
        jac = parameter_jacobian(truth, *args)

        def model_at(row, delta):
            shifted = reference._shifted_truth(truth, row, delta)
            return cp_reconstruct(build_factor_matrices(shifted, *args)).ravel()

        assert jac.shape == (len(steps), model_at(0, 0.0).size)
        for row, h in enumerate(steps):
            fd = (model_at(row, +h) - model_at(row, -h)) / (2 * h)
            rel = np.linalg.norm(jac[row] - fd) / np.linalg.norm(jac[row])
            assert rel < 1e-6, (phase, row, rel)


def test_shifted_truth_moves_one_parameter(truth):
    index = parameter_index("doppler", 1, truth.n_targets)
    before = truth.doppler_hz.copy()
    shifted = reference._shifted_truth(truth, index, 5.0)
    assert shifted.doppler_hz[1] == before[1] + 5.0
    assert shifted.doppler_hz[0] == before[0]
    assert np.array_equal(truth.doppler_hz, before)


def test_first_array_element_has_no_angle_sensitivity(cfg):
    d = steering_derivative(0.3, cfg.arrays.n_irs_elements,
                            cfg.arrays.element_spacing_m,
                            cfg.arrays.wavelength_m)
    assert d[0] == 0.0


def test_tone_rate_at_zero_delay(cfg, truth, channel, profiles, combiner):
    """First subcarrier of a zero-delay unit-gain target: rate -j*pi*1e6."""
    single = dataclasses.replace(take_targets(truth, slice(1)),
                                 delay_s=np.zeros(1), gain=np.ones(1, complex))
    args = (channel, profiles[0], combiner, cfg.waveform, cfg.arrays)
    model = cp_reconstruct(build_factor_matrices(single, *args))
    delay_row = parameter_jacobian(single, *args)[
        parameter_index("delay", 0, 1)].reshape(model.shape)
    expected = -2j * np.pi * cfg.waveform.subcarrier_spacing_hz
    assert delay_row[..., 0] / model[..., 0] == pytest.approx(expected)
    assert expected == pytest.approx(-1j * math.pi * 1e6)


def test_pulse_rate_scaling(cfg, truth, channel, profiles, combiner):
    """Each Doppler row is its target's term times the pulse ramp rate."""
    args = (channel, profiles[0], combiner, cfg.waveform, cfg.arrays)
    fac = build_factor_matrices(truth, *args)
    jac = parameter_jacobian(truth, *args)
    p = np.arange(1, cfg.waveform.n_pulses + 1)
    expected = 2j * np.pi * p * cfg.waveform.pri_s
    for k in range(truth.n_targets):
        term = np.einsum("p,m,l->pml", fac.pulse_factor[:, k],
                         fac.antenna_factor[:, k], fac.subcarrier_factor[:, k])
        row = jac[parameter_index("doppler", k, truth.n_targets)]
        rates = row.reshape(term.shape) / term
        np.testing.assert_allclose(
            rates, np.broadcast_to(expected[:, None, None], term.shape),
            rtol=1e-12)


# ------------------------------------------------------------- score

def _model_tensors(*args):
    return list(echo_tensors(*args))


def test_score_zero_at_truth_without_noise(cfg, truth, channel, profiles,
                                           combiner, noise_vars):
    observed = _model_tensors(truth, channel, profiles, combiner,
                              cfg.waveform, cfg.arrays)
    values = score(truth, observed, channel, profiles, combiner, cfg.waveform,
                   cfg.arrays, noise_vars)
    assert np.all(values == 0.0)


def _noisy_observed(cfg, truth, channel, profiles, combiner, noise_vars, seed):
    rng = np.random.default_rng(seed)
    observed = []
    for model, sigma_sq in zip(
            _model_tensors(truth, channel, profiles, combiner, cfg.waveform,
                           cfg.arrays), noise_vars):
        sigma = math.sqrt(sigma_sq)
        noise = sigma / math.sqrt(2) * (rng.standard_normal(model.shape)
                                        + 1j * rng.standard_normal(model.shape))
        observed.append(model + noise)
    return observed


def test_score_matches_finite_differences(cfg, truth, channel, profiles,
                                          combiner, noise_vars):
    observed = _noisy_observed(cfg, truth, channel, profiles, combiner,
                               noise_vars, seed=17)
    worst = score_fd_check(truth, observed, channel, profiles, combiner,
                           cfg.waveform, cfg.arrays, noise_vars)
    assert worst < 1e-4, f"worst relative gap {worst:.3e}"


def test_score_check_detects_corrupted_gradient(cfg, truth, channel, profiles,
                                                combiner, noise_vars,
                                                monkeypatch):
    """The consistency check must fail when the analytic side is wrong."""
    observed = _noisy_observed(cfg, truth, channel, profiles, combiner,
                               noise_vars, seed=17)
    real = reference.parameter_jacobian

    def corrupted(truth, *args):
        jac = real(truth, *args)
        jac[:truth.n_targets] *= 1.05       # the direction rows
        return jac

    monkeypatch.setattr(reference, "parameter_jacobian", corrupted)
    worst = score_fd_check(truth, observed, channel, profiles, combiner,
                           cfg.waveform, cfg.arrays, noise_vars)
    assert worst > 1e-4


def test_score_covariance_estimates_information(cfg):
    """Sample covariance of the score approaches the information matrix."""
    wf = dataclasses.replace(cfg.waveform, n_pulses=4, n_subcarriers=4)
    arrays = ArrayConfig(n_ap_antennas=4,
                         n_irs_elements=cfg.arrays.n_irs_elements,
                         wavelength_m=wf.wavelength_m)
    point = draw_scene_point(FullConfig(wf, arrays, cfg.scene),
                             [np.random.default_rng(7)]).trial(0)
    truth = take_targets(point.truth, slice(1))
    channel, profiles, combiner = point.channel, point.profiles, point.combiner
    noise_vars = noise_sigma_for_snr(echo_tensors(
        truth, channel, profiles, combiner, wf, arrays), 0.0) ** 2
    fim = compute_fim(truth, channel, profiles, combiner, wf, arrays,
                      noise_vars)
    sample = mc_score_covariance(truth, channel, profiles, combiner, wf,
                                 arrays, noise_vars, n_draws=10_000,
                                 rng=np.random.default_rng(123))
    rel = np.linalg.norm(sample - fim) / np.linalg.norm(fim)
    assert rel < 0.05, f"relative covariance gap {rel:.4f}"


# ------------------------------------------------------------- information matrix

def test_fim_is_symmetric_psd(fim):
    assert np.array_equal(fim, fim.T)
    eigs = np.linalg.eigvalsh(fim)
    assert eigs[0] >= -1e-10 * eigs[-1]
    cond = compute_crb(fim).condition_number
    assert cond.shape == ()
    assert np.isfinite(cond) and cond < FIM_CONDITION_LIMIT


def test_fim_scales_inversely_with_noise(cfg, truth, channel, profiles,
                                         combiner, noise_vars, fim):
    louder = tuple(10.0 * s for s in noise_vars)
    scaled = compute_fim(truth, channel, profiles, combiner, cfg.waveform,
                         cfg.arrays, louder)
    np.testing.assert_allclose(scaled, fim / 10.0, rtol=1e-12)


def test_fim_adds_over_phases(cfg, truth, channel, profiles, combiner,
                              noise_vars, fim):
    parts = [compute_fim(truth, channel, profiles[i:i + 1], combiner,
                         cfg.waveform, cfg.arrays, noise_vars[i:i + 1])
             for i in (0, 1)]
    np.testing.assert_allclose(parts[0] + parts[1], fim, rtol=1e-12)


def _unit_diagonal_gap(got, want):
    """Largest entrywise gap of two information matrices (or stacks), each
    entry relative to the geometric mean of its two diagonal entries."""
    diag = np.sqrt(np.diagonal(want, axis1=-2, axis2=-1))
    return np.max(np.abs(got - want) / (diag[..., :, None] * diag[..., None, :]))


def test_gram_fim_equals_the_jacobian_gram(cfg, truth, channel, profiles,
                                           combiner, noise_vars):
    """Each phase's factor-Gram matrix is (2/sigma^2) Re(J* J^T) of the
    materialized Jacobian."""
    for i, sigma_sq in enumerate(noise_vars):
        args = (channel, profiles[i], combiner, cfg.waveform, cfg.arrays)
        jac = parameter_jacobian(truth, *args)
        want = (2.0 / sigma_sq) * (jac.conj() @ jac.T).real
        got = compute_fim(truth, channel, profiles[i:i + 1], combiner,
                          cfg.waveform, cfg.arrays, [sigma_sq])
        assert _unit_diagonal_gap(got, 0.5 * (want + want.T)) < 1e-13


def _mixed_stack(n_targets):
    """Five draws, the second and fourth on a line-of-sight channel and the
    others Rician, with noise variances that differ per draw and phase."""
    base = FullConfig()
    base = with_overrides(base, targets=base.scene.targets[:n_targets])
    rician = with_overrides(base, rician_k_db=5.0)
    points = [draw_scene_point(base if b in (1, 3) else rician,
                               [np.random.default_rng((12, b))]).trial(0)
              for b in range(5)]
    noise_vars = np.array([noise_sigma_for_snr(echo_tensors(
        *p, base.waveform, base.arrays), 3.0 * b) ** 2
        for b, p in enumerate(points)])
    return base, points, noise_vars


@pytest.mark.parametrize("n_targets", [1, 2])
def test_stacked_fim_equals_the_one_draw_calls(n_targets):
    cfg, points, noise_vars = _mixed_stack(n_targets)
    stacked = compute_fim(*stack_points(points), cfg.waveform, cfg.arrays,
                          noise_vars.T)
    bounds = compute_crb(stacked)
    assert stacked.shape == (5, 3 * n_targets, 3 * n_targets)
    for b, point in enumerate(points):
        alone = compute_fim(*point, cfg.waveform, cfg.arrays, noise_vars[b])
        assert _unit_diagonal_gap(stacked[b], alone) < 1e-13
        want = compute_crb(alone)
        assert bounds.condition_number[b] == pytest.approx(
            want.condition_number, rel=1e-10)
        for name in ("theta", "doppler", "delay"):
            np.testing.assert_allclose(getattr(bounds, name)[b],
                                       getattr(want, name), rtol=1e-13)


def test_noise_variances_per_phase_serve_every_draw():
    """(2,) noise variances on a stack of two draws are one per phase,
    broadcast along the draw axis: the same matrices as the (2, 2) array
    that repeats them for each draw."""
    cfg = with_overrides(FullConfig(), rician_k_db=5.0)
    point = draw_scene_point(cfg, [np.random.default_rng((6, b))
                                   for b in range(2)])
    per_phase = noise_sigma_for_snr(echo_tensors(
        *point, cfg.waveform, cfg.arrays), 5.0)[:, 0] ** 2
    assert per_phase[0] != per_phase[1]
    got = compute_fim(*point, cfg.waveform, cfg.arrays, per_phase)
    want = compute_fim(*point, cfg.waveform, cfg.arrays,
                       np.repeat(per_phase[:, None], 2, axis=1))
    assert np.array_equal(got, want)


def test_singular_draw_in_a_stack_gets_nan_alone(cfg, scene_point,
                                                  noise_vars):
    """A twin-target draw fails the condition check without a warning or
    a raise, alone or in a stack: NaN bounds and a condition number above
    the limit.  The other draws of its stack keep the bounds they have
    alone."""
    twin = scene_point._replace(truth=take_targets(scene_point.truth, [0, 0]))
    single = compute_crb(compute_fim(*twin, cfg.waveform, cfg.arrays,
                                     noise_vars))
    points = [scene_point, twin, scene_point]
    bounds = compute_crb(compute_fim(*stack_points(points), cfg.waveform,
                                     cfg.arrays, np.tile(noise_vars, (3, 1)).T))
    alone = compute_crb(compute_fim(*scene_point, cfg.waveform, cfg.arrays,
                                    noise_vars))
    assert single.condition_number > FIM_CONDITION_LIMIT
    assert bounds.condition_number[1] > FIM_CONDITION_LIMIT
    for name in ("theta", "doppler", "delay"):
        assert np.isnan(getattr(single, name)).all()
        got = getattr(bounds, name)
        assert np.isnan(got[1]).all()
        for b in (0, 2):
            np.testing.assert_allclose(got[b], getattr(alone, name),
                                       rtol=1e-13)


def test_a_draw_without_information_has_an_infinite_condition_number(fim):
    bounds = compute_crb(0.0 * fim)
    assert np.isinf(bounds.condition_number)
    for name in ("theta", "doppler", "delay"):
        assert np.isnan(getattr(bounds, name)).all()


def test_fim_input_validation(cfg, truth, channel, profiles, combiner,
                              noise_vars):
    with pytest.raises(ValueError):
        compute_fim(truth, channel, profiles, combiner, cfg.waveform,
                    cfg.arrays, noise_vars[:1])
    with pytest.raises(ValueError):
        compute_fim(truth, channel, profiles, combiner, cfg.waveform,
                    cfg.arrays, (noise_vars[0], 0.0))


# ------------------------------------------------------------- bounds

def test_crb_positive_and_dominates_reciprocal_diagonal(fim):
    bounds = compute_crb(fim)
    stacked = np.concatenate([bounds.theta, bounds.doppler, bounds.delay])
    assert np.all(stacked > 0)
    recip = 1.0 / np.diag(fim)
    assert np.all(stacked >= recip * (1 - 1e-12))


def test_crb_linear_in_noise_power(cfg, truth, channel, profiles, combiner,
                                   noise_vars, fim):
    base = compute_crb(fim)
    doubled = compute_crb(compute_fim(
        truth, channel, profiles, combiner, cfg.waveform, cfg.arrays,
        tuple(2.0 * s for s in noise_vars)))
    for name in ("theta", "doppler", "delay"):
        ratio = getattr(doubled, name) / getattr(base, name)
        np.testing.assert_allclose(ratio, 2.0, rtol=0.02)


def test_crb_doppler_improves_with_more_pulses(cfg, truth, channel, profiles,
                                               combiner, noise_vars):
    def doppler_bound(n_pulses):
        wf = dataclasses.replace(cfg.waveform, n_pulses=n_pulses)
        fim = compute_fim(truth, channel, profiles, combiner, wf, cfg.arrays,
                          noise_vars)
        return compute_crb(fim).doppler.mean()

    assert doppler_bound(20) < doppler_bound(10) / 2


def test_parameter_index_layout():
    assert parameter_index("theta", 0, 2) == 0
    assert parameter_index("doppler", 1, 2) == 3
    assert parameter_index("delay", 1, 2) == 5


def test_log_likelihood_peaks_at_truth(cfg, truth, channel, profiles,
                                       combiner, noise_vars):
    observed = _model_tensors(truth, channel, profiles, combiner,
                              cfg.waveform, cfg.arrays)
    at_truth = log_likelihood(observed, observed, noise_vars)
    assert at_truth == 0.0
    shifted = reference._shifted_truth(truth, 0, 1e-4)
    off = log_likelihood(observed,
                         _model_tensors(shifted, channel, profiles, combiner,
                                        cfg.waveform, cfg.arrays), noise_vars)
    assert off < at_truth
