"""Column alignment, cross-phase ratio DOA, Doppler/delay extraction."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_sensing.config import ArrayConfig, FullConfig
from irs_sensing.cpd import FactorTriple, cp_decompose, raw_delay
from irs_sensing.errors import (AmbiguousAlignment, DegenerateProfilePair,
                                NoFeasibleGrid, RankOneChannel,
                                UnwrapInfeasible)
from irs_sensing.estimation import (DOA_GRID_STEP_RAD, DOPPLER_GRID_POINTS,
                                    _dictionary, _doppler_peaks, _grid_peaks,
                                    _lag_norms, align_columns,
                                    compute_gamma_statistics,
                                    estimate_delay, estimate_doa_multirank,
                                    estimate_doppler, estimate_targets,
                                    gamma_ratio_curve, greedy_match,
                                    resolve_doa)
from irs_sensing.experiments import build_spec, run_experiment
from irs_sensing.scene import (build_rician_channel, design_beamformers,
                               relayed_response, steering_vector)
from irs_sensing.synthesis import (apply_noise, build_factor_matrices,
                                   doppler_ramp, echo_tensors,
                                   noise_sigma_for_snr)

from conftest import take_targets
from reference import full_grid_doppler
from stacks import rician_alone, stack_channels

SPACING = 500e3


def _passes(step, *args):
    """Run an estimator step on one-trial stacks that must pass it."""
    errors = [None]
    out = step(*args, errors)
    assert errors == [None]
    return out


def _failure(step, *args):
    """The error an estimator step records for its one trial."""
    errors = [None]
    step(*args, errors)
    return errors[0]


def _triple(rng, n_pulses, n_antennas, n_subcarriers, delays):
    """One-trial stack of a synthetic factor triple with
    unit-leading-coefficient tone columns."""
    gens = np.exp(-2j * np.pi * SPACING * np.asarray(delays, float))
    c = np.power.outer(gens, np.arange(1, n_subcarriers + 1)).T
    k = len(delays)
    a = rng.standard_normal((n_pulses, k)) + 1j * rng.standard_normal((n_pulses, k))
    b = rng.standard_normal((n_antennas, k)) + 1j * rng.standard_normal((n_antennas, k))
    return FactorTriple(pulse_factor=a[None], antenna_factor=b[None],
                        subcarrier_factor=c[None], generators=gens[None])


def _permute(triple, perm):
    return FactorTriple(*(f[..., list(perm)] for f in triple))


def _phases(*triples):
    """The triples of both phases as one phase-first triple."""
    return FactorTriple(*map(np.stack, zip(*triples)))


def _truth_triples(cfg, truth, channel, profiles, combiner):
    """Exact factors of both phases, phase first, as a one-trial stack."""
    return _phases(*(FactorTriple(*(f[None] for f in build_factor_matrices(
        truth, channel, prof, combiner, cfg.waveform, cfg.arrays)))
        for prof in profiles))


def _assert_aligned(out, t1, t2, source):
    """Aligned phase-1 column j is column source[j] of t1 in every field,
    bit for bit, and phase 2 is t2 unchanged."""
    for got, first, second in zip(out, t1, t2):
        assert np.array_equal(got[0], first[..., list(source)])
        assert np.array_equal(got[1], second)


@pytest.fixture(scope="module")
def decomposed_pair(cfg, clean_pair):
    k = len(cfg.scene.targets)
    return _phases(*(_passes(cp_decompose, t[None], k) for t in clean_pair))


@pytest.fixture(scope="module")
def aligned(cfg, decomposed_pair):
    return _passes(align_columns, decomposed_pair,
                   cfg.waveform.subcarrier_spacing_hz)


# ---------------------------------------------------------------- alignment

def test_align_identity():
    rng = np.random.default_rng(0)
    t1 = _triple(rng, 6, 5, 8, [3.2e-6, 3.6e-6])
    t2 = _triple(rng, 6, 5, 8, [3.2e-6, 3.6e-6])
    out = _passes(align_columns, _phases(t1, t2), SPACING)
    _assert_aligned(out, t1, t2, [0, 1])


def test_align_swap():
    rng = np.random.default_rng(1)
    t1 = _triple(rng, 6, 5, 8, [3.6e-6, 3.2e-6])
    t2 = _triple(rng, 6, 5, 8, [3.2e-6, 3.6e-6])
    out = _passes(align_columns, _phases(t1, t2), SPACING)
    _assert_aligned(out, t1, t2, [1, 0])
    np.testing.assert_array_equal(out.generators[0], t2.generators)


def test_align_three_cycle():
    rng = np.random.default_rng(2)
    delays = [3.1e-6, 3.5e-6, 3.9e-6]
    t2 = _triple(rng, 6, 5, 8, delays)
    t1 = _permute(t2, [1, 2, 0])       # t1 column i holds t2 column perm[i]
    out = _passes(align_columns, _phases(t1, t2), SPACING)
    _assert_aligned(out, t1, t2, [2, 0, 1])
    np.testing.assert_array_equal(out.pulse_factor[0], t2.pulse_factor)


def test_align_invariant_to_input_order():
    """Shuffling phase-1 columns must not change the aligned result."""
    rng = np.random.default_rng(3)
    t2 = _triple(rng, 6, 5, 8, [3.1e-6, 3.5e-6, 3.9e-6])
    t1 = _triple(rng, 6, 5, 8, [3.1e-6, 3.5e-6, 3.9e-6])
    base = _passes(align_columns, _phases(t1, t2), SPACING)
    shuffled = _passes(align_columns, _phases(_permute(t1, [2, 0, 1]), t2),
                       SPACING)
    np.testing.assert_array_equal(base.pulse_factor[0],
                                  shuffled.pulse_factor[0])
    np.testing.assert_array_equal(base.generators[0], shuffled.generators[0])


def test_align_permutes_each_trial_of_a_stack_on_its_own():
    """Each trial's phase-2 columns hold its targets in a different order:
    the stack gives every trial the alignment it gets alone, and leaves
    every phase-2 column bit for bit."""
    rng = np.random.default_rng(7)
    delays = np.array([3.1e-6, 3.5e-6, 3.9e-6])
    perms = [[2, 0, 1], [1, 2, 0], [0, 2, 1], [2, 1, 0]]
    first = [_triple(rng, 6, 5, 8, delays) for _ in perms]
    second = [_triple(rng, 6, 5, 8, delays[p]) for p in perms]
    stack = _phases(*(FactorTriple(*map(np.concatenate, zip(*triples)))
                      for triples in (first, second)))
    errors = [None] * len(perms)
    out = align_columns(stack, SPACING, errors)
    assert errors == [None] * len(perms)
    for got, phases in zip(out, stack):
        assert np.array_equal(got[1], phases[1])
    for b, (t1, t2, perm) in enumerate(zip(first, second, perms)):
        alone = _passes(align_columns, _phases(t1, t2), SPACING)
        _assert_aligned(alone, t1, t2, perm)
        for got, want in zip(out, alone):
            assert np.array_equal(got[:, b:b + 1], want)


def test_align_rejects_indistinct_delays():
    rng = np.random.default_rng(4)
    t1 = _triple(rng, 6, 5, 8, [3.4e-6, 3.4e-6])
    t2 = _triple(rng, 6, 5, 8, [3.4e-6, 3.4e-6])
    assert isinstance(_failure(align_columns, _phases(t1, t2), SPACING),
                      AmbiguousAlignment)


def test_aligned_generators_agree_across_phases(aligned):
    """Both phases see the same physical delays, so matched generators agree."""
    diff = np.abs(aligned.generators[0] - aligned.generators[1])
    assert diff.max() < 1e-9


# ---------------------------------------------------------------- ratio statistic

def test_gamma_invariant_under_scaling(aligned):
    """The statistic must not move under the factorization's scale freedom."""
    base = compute_gamma_statistics(aligned)
    rng = np.random.default_rng(6)
    k = aligned.n_components
    worst = 0.0
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-3, 3, size=(2, k)) * np.exp(
            2j * np.pi * rng.uniform(size=(2, k)))
        per_phase = scale[:, None, None, :]
        scaled = aligned._replace(
            pulse_factor=aligned.pulse_factor * per_phase,
            antenna_factor=aligned.antenna_factor / per_phase)
        moved = compute_gamma_statistics(scaled)
        worst = max(worst, float(np.max(np.abs(moved - base) / np.abs(base))))
    assert worst < 1e-12, f"worst relative drift {worst:.3e}"


def test_gamma_matches_curve_at_truth(cfg, truth, channel, profiles, combiner):
    """Exact factors give exactly the ratio curve value at the true angle."""
    out = _passes(align_columns,
                  _truth_triples(cfg, truth, channel, profiles, combiner),
                  cfg.waveform.subcarrier_spacing_hz)
    gammas = compute_gamma_statistics(out)
    curve = gamma_ratio_curve(truth.theta_rad, channel.u, profiles, cfg.arrays)
    np.testing.assert_allclose(gammas[0], curve, rtol=1e-9)


# ---------------------------------------------------------------- direction

def test_resolve_doa_noiseless(cfg, truth, channel, profiles, aligned):
    thetas, residuals = _passes(
        resolve_doa, compute_gamma_statistics(aligned), channel.u, profiles,
        cfg.scene.doa_prior_rad, cfg.arrays)
    err = np.abs(np.sort(thetas[0]) - np.sort(truth.theta_rad))
    assert err.max() < 1e-5, f"worst angle error {err.max():.3e} rad"
    assert np.all(residuals >= 0)
    assert residuals.shape == thetas.shape


def test_resolve_doa_never_worse_than_grid(cfg, channel, profiles, aligned):
    """Refinement must not increase the matching objective."""
    lo, hi = cfg.scene.doa_prior_rad
    step = math.radians(0.02)
    grid = np.arange(lo, hi + step * 1e-6, step)
    curve = gamma_ratio_curve(grid, channel.u, profiles, cfg.arrays)
    gammas = compute_gamma_statistics(aligned)
    _, residuals = _passes(resolve_doa, gammas, channel.u,
                           profiles, cfg.scene.doa_prior_rad, cfg.arrays)
    for k, gamma_k in enumerate(gammas[0]):
        grid_best = np.nanmin(np.abs(gamma_k - curve))
        assert residuals[0, k] <= grid_best + 1e-15


def test_resolve_doa_rejects_identical_profiles(cfg, channel, profiles,
                                                aligned):
    same = profiles[[0, 0]]
    assert isinstance(_failure(resolve_doa, compute_gamma_statistics(aligned),
                               channel.u, same, cfg.scene.doa_prior_rad,
                               cfg.arrays),
                      DegenerateProfilePair)


def test_resolve_doa_all_grid_points_excluded(aligned):
    """A null of the second profile across the whole prior is rejected."""
    arrays = ArrayConfig(n_ap_antennas=1, n_irs_elements=2)
    u = np.array([1.0, -1.0]) / math.sqrt(2)
    prof = np.ones((2, 2), complex)   # both phases all zero phase
    assert isinstance(_failure(resolve_doa, compute_gamma_statistics(aligned),
                               u, prof, (-1e-9, 1e-9), arrays), NoFeasibleGrid)


def test_multirank_doa_on_scattered_channel(cfg, truth, channel, profiles):
    """Every antenna column is searched at once, one direction per column."""
    rician = rician_alone(channel, 5.0, 4, cfg.arrays, np.random.default_rng(9))
    steer = steering_vector(truth.theta_rad, *cfg.arrays.surface)
    b = rician.matrix.T @ (profiles[0][:, None] * steer)
    est = _passes(estimate_doa_multirank, b[None], rician, profiles[0],
                  cfg.scene.doa_prior_rad, cfg.arrays)
    assert est.shape == (1, truth.n_targets)
    assert np.abs(est[0] - truth.theta_rad).max() < 1e-4


def test_multirank_doa_rejects_rank_one_channel(cfg, truth, channel, profiles):
    b = np.ones((1, cfg.arrays.n_ap_antennas, 1), dtype=complex)
    assert isinstance(_failure(estimate_doa_multirank, b, channel, profiles[0],
                               cfg.scene.doa_prior_rad, cfg.arrays),
                      RankOneChannel)


def test_lag_sums_give_the_relayed_norms(cfg, channel, profiles):
    """Over every direction, |G a|^2 from the lag sums of G^H G is the
    squared norm of the relayed response to 1e-12 away from its nulls, on
    the line-of-sight channel and on a stack of Rician ones, and it is NaN
    only next to a null, as a uniform profile on the line of sight makes."""
    steer = steering_vector(np.linspace(-np.pi / 2, np.pi / 2, 4001),
                            *cfg.arrays.surface)
    rician = build_rician_channel(
        stack_channels([channel] * 4), 5.0, 4, cfg.arrays,
        [np.random.default_rng((3, b)) for b in range(4)])
    uniform = np.ones(len(steer), dtype=complex)
    nulls = 0
    for ch, profile in [(channel, p) for p in (*profiles, uniform)] + [
            (rician, p) for p in profiles]:
        gain = relayed_response(ch, profile, np.eye(len(steer)))
        got = _lag_norms(gain, steer)
        want = np.linalg.norm(relayed_response(ch, profile, steer), axis=-2) ** 2
        c_0 = np.broadcast_to((np.abs(gain) ** 2).sum(axis=(-2, -1))[..., None],
                              want.shape)
        away = want > 1e-2 * c_0
        assert away.sum() > 400
        np.testing.assert_allclose(got[away], want[away], rtol=1e-12, atol=0)
        nan = np.isnan(got)
        assert (want[nan] < 1.01e-5 * c_0[nan]).all()
        nulls += nan.sum()
    assert nulls > 0


# ---------------------------------------------------------------- Doppler

def test_doppler_noiseless(cfg, truth, aligned):
    nus = _passes(estimate_doppler, aligned, cfg.waveform)
    err = np.abs(np.sort(nus[0]) - np.sort(truth.doppler_hz))
    assert err.max() < 1e-3, f"worst Doppler error {err.max():.3e} Hz"


def test_doppler_zero_is_exact(cfg, truth, channel, profiles, combiner):
    static = dataclasses.replace(truth, doppler_hz=0.0 * truth.doppler_hz)
    out = _passes(align_columns,
                  _truth_triples(cfg, static, channel, profiles, combiner),
                  cfg.waveform.subcarrier_spacing_hz)
    nus = _passes(estimate_doppler, out, cfg.waveform)
    assert np.abs(nus).max() < 1e-9


def test_doppler_boundary_warns(cfg, truth, channel, profiles, combiner):
    """A Doppler on the unambiguous boundary warns, in the name of the code
    that called ``estimate_doppler`` or ``estimate_targets``."""
    half_span = 1.0 / (2 * cfg.waveform.pri_s)
    spun = dataclasses.replace(take_targets(truth, slice(1)),
                               doppler_hz=np.array([half_span]))
    out = _passes(align_columns,
                  _truth_triples(cfg, spun, channel, profiles, combiner),
                  cfg.waveform.subcarrier_spacing_hz)
    with pytest.warns(UserWarning, match="boundary") as step:
        _passes(estimate_doppler, out, cfg.waveform)
    with pytest.warns(UserWarning, match="boundary") as pipeline:
        estimate_targets(echo_tensors(spun, channel, profiles, combiner,
                                      cfg.waveform, cfg.arrays),
                         np.zeros(2), 1, cfg.scene.doa_prior_rad, channel,
                         profiles, cfg.waveform, cfg.arrays)
    assert len(step) == len(pipeline) == 2  # one pulse column per phase
    assert {w.filename for w in [*step, *pipeline]} == {__file__}


def test_doppler_ignores_the_scale_of_each_pulse_column(monkeypatch, cfg,
                                                        clean_pair):
    """A pulse column is one constant times a ramp, so scaling each column
    of each trial by any nonzero constant moves no grid peak and no
    estimate."""
    import irs_sensing.estimation as estimation
    n_trials, k = 5, len(cfg.scene.targets)
    clean = np.repeat(clean_pair[:, None], n_trials, axis=1)
    sigma = noise_sigma_for_snr(clean, 5.0)
    y = apply_noise(clean, sigma, [np.random.default_rng((4, b))
                                   for b in range(n_trials)])
    errors = [None] * n_trials
    aligned = align_columns(_phases(*(cp_decompose(phase, k, errors)
                                      for phase in y)),
                            cfg.waveform.subcarrier_spacing_hz, errors)
    assert errors == [None] * n_trials
    rng = np.random.default_rng(6)

    def rescaled(pulse_factor):
        shape = (n_trials, 1, k)
        scale = 10.0 ** rng.uniform(-3, 3, shape) * np.exp(
            2j * np.pi * rng.uniform(size=shape))
        return pulse_factor * scale

    peaks = []
    grid_peaks = estimation._grid_peaks

    def recorded(scores, errors):
        peaks.append(grid_peaks(scores, errors))
        return peaks[-1]

    monkeypatch.setattr(estimation, "_grid_peaks", recorded)
    want = estimate_doppler(aligned, cfg.waveform, errors)
    got = estimate_doppler(aligned._replace(pulse_factor=np.stack(
        [rescaled(p) for p in aligned.pulse_factor])), cfg.waveform, errors)
    assert errors == [None] * n_trials
    assert np.array_equal(peaks[1][0], peaks[0][0])
    assert np.abs(got - want).max() < 1e-9


def _doppler_columns(kind, waveform, n_columns, rng):
    """(P, C) pulse columns of one trial: each a complex gain times the
    ramp of a random Doppler ("random"), of minus or plus half the span
    ("edge"), or the sum of two such ramps ("lobes"), plus noise; or noise
    alone ("noise")."""
    shape = (waveform.n_pulses, n_columns)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "noise":
        return noise
    half_span = 1.0 / (2 * waveform.pri_s)
    n_lobes = 2 if kind == "lobes" else 1
    nus = (rng.choice([-half_span, half_span], (n_lobes, n_columns))
           if kind == "edge" else
           rng.uniform(-half_span, half_span, (n_lobes, n_columns)))
    gain = rng.standard_normal(n_columns) + 1j * rng.standard_normal(n_columns)
    return (gain * sum(doppler_ramp(nu, waveform.n_pulses, waveform.pri_s)
                       for nu in nus) + rng.uniform(0, 0.5) * noise)


def _assert_doppler_peaks_match_the_full_grid(pulses, waveform, exact):
    """``_doppler_peaks`` gives every column the full-grid search's grid
    index, its refined Doppler bit for bit or within 1e-9 steps, and every
    trial its failure.  Where the parabola through the peak is flatter than
    that allows (P = 2 measured up to 3e-8 steps), the vertex is as
    uncertain in the full-grid search itself: the refined Doppler may then
    move by 64 roundings of the peak score over the curvature."""
    errors, want_errors = [None] * len(pulses), [None] * len(pulses)
    idx, nu = _doppler_peaks(pulses, waveform, errors)
    want_idx, want_nu = full_grid_doppler(pulses, waveform, want_errors)
    assert np.array_equal(idx, want_idx)
    assert [repr(e) for e in errors] == [repr(e) for e in want_errors]
    if exact:
        assert nu.tobytes() == want_nu.tobytes()
        return
    _, ramps = _dictionary(*_doppler_key(waveform))
    scores = np.abs(pulses.conj().swapaxes(-1, -2) @ ramps)
    left, peak, right = (np.take_along_axis(scores, np.clip(
        want_idx + d, 0, ramps.shape[-1] - 1)[..., None], axis=-1)[..., 0]
        for d in (-1, 0, 1))
    gap = np.abs(nu - want_nu) / (1.0 / (2 * waveform.pri_s)
                                  / DOPPLER_GRID_POINTS)
    with np.errstate(divide="ignore", invalid="ignore"):
        flat = 64 * np.finfo(float).eps * peak / np.abs(left - 2 * peak + right)
    assert ((gap <= 1e-9) | (gap <= flat)).all(), gap.max()


@settings(max_examples=60, deadline=None)
@given(n_pulses=st.sampled_from([2, 5, 10, 20]), n_targets=st.integers(1, 2),
       kinds=st.lists(st.sampled_from(["random", "edge", "lobes", "noise"]),
                      min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_doppler_window_search_finds_the_full_grid_peak(n_pulses, n_targets,
                                                        kinds, seed):
    """Trials of 2K pulse columns each, scored as one stack."""
    waveform = dataclasses.replace(FullConfig().waveform, n_pulses=n_pulses)
    rng = np.random.default_rng(seed)
    pulses = np.stack([_doppler_columns(kind, waveform, 2 * n_targets, rng)
                       for kind in kinds])
    _assert_doppler_peaks_match_the_full_grid(pulses, waveform, exact=False)


def test_doppler_columns_without_a_certified_window_get_the_full_grid():
    """No window certifies two equal lobes far apart, a peak at minus or
    plus half the span (the same ramp), or a column without a finite
    score; each is scored on the whole grid, so its Doppler is the
    full-grid search's bit for bit, and a non-finite column fails its
    trial with NoFeasibleGrid as before."""
    waveform = FullConfig().waveform
    half_span = 1.0 / (2 * waveform.pri_s)
    lobes = doppler_ramp(np.array([-0.4, 0.3]) * half_span + 0.37,
                         waveform.n_pulses, waveform.pri_s)
    edge = doppler_ramp(np.array([-half_span, half_span]), waveform.n_pulses,
                        waveform.pri_s)
    pulses = np.stack([lobes.sum(axis=-1)[:, None] * [1, 2j],
                       edge * [3, -1j], np.full((waveform.n_pulses, 2), np.nan)])
    _assert_doppler_peaks_match_the_full_grid(pulses, waveform, exact=True)
    errors = [None] * 3
    _doppler_peaks(pulses, waveform, errors)
    assert [type(e).__name__ for e in errors] == [
        "NoneType", "NoneType", "NoFeasibleGrid"]


# ---------------------------------------------------------------- delay

def test_delay_noiseless_exact(cfg, truth, aligned):
    taus = _passes(estimate_delay, aligned, cfg.waveform)
    err = np.abs(np.sort(taus[0]) - np.sort(truth.delay_s))
    assert err.max() < 1e-12, f"worst delay error {err.max():.3e} s"


def _delay_only_aligned(delays, waveform):
    rng = np.random.default_rng(10)
    t1 = _triple(rng, 4, 3, waveform.n_subcarriers, delays)
    t2 = _triple(rng, 4, 3, waveform.n_subcarriers, delays)
    return _phases(t1, t2)


def test_delay_unwraps_alias(cfg):
    """A generator only knows the delay modulo the tone period."""
    wf = cfg.waveform
    true_tau = 3.40424344e-6
    wrapped = true_tau - wf.symbol_duration_s     # 1.40424344e-6
    out = _delay_only_aligned([wrapped], wf)
    assert raw_delay(out.generators[0], wf.subcarrier_spacing_hz)[0, 0] == \
        pytest.approx(wrapped, abs=1e-15)
    taus = _passes(estimate_delay, out, wf)
    assert taus[0, 0] == pytest.approx(true_tau, abs=1e-12)


def test_delay_window_edge(cfg):
    wf = cfg.waveform
    out = _delay_only_aligned([wf.full_symbol_s], wf)   # exactly minimum range
    taus = _passes(estimate_delay, out, wf)
    assert taus[0, 0] == pytest.approx(wf.full_symbol_s, abs=1e-12)


def test_delay_snaps_near_edge(cfg):
    wf = cfg.waveform
    out = _delay_only_aligned([wf.full_symbol_s - 5e-9], wf)
    taus = _passes(estimate_delay, out, wf)
    assert taus[0, 0] == wf.full_symbol_s


def test_delay_unwrap_infeasible(cfg):
    wf = cfg.waveform
    assert isinstance(_failure(estimate_delay,
                               _delay_only_aligned([2.5e-6], wf), wf),
                      UnwrapInfeasible)


# ---------------------------------------------------------------- pipeline

def test_estimate_targets_noiseless(cfg, truth, channel, profiles, clean_pair):
    k = truth.n_targets
    estimates = estimate_targets(clean_pair, np.zeros(2), k,
                                 cfg.scene.doa_prior_rad, channel, profiles,
                                 cfg.waveform, cfg.arrays)
    assert estimates.tau.shape == (k,)
    assert np.array_equal(estimates.tau, np.sort(estimates.tau))
    order = np.argsort(truth.delay_s)
    assert np.abs(estimates.theta - truth.theta_rad[order]).max() < 1e-5
    assert np.abs(estimates.tau - truth.delay_s[order]).max() < 1e-12
    assert np.abs(estimates.nu - truth.doppler_hz[order]).max() < 1.0
    lo, hi = cfg.scene.doa_prior_rad
    assert ((lo <= estimates.theta) & (estimates.theta <= hi)).all()
    window_lo = cfg.waveform.full_symbol_s
    assert ((window_lo <= estimates.tau) & (
        estimates.tau <= window_lo + cfg.waveform.cyclic_prefix_s)).all()


def test_estimate_targets_single_phase_mode(cfg, truth, profiles):
    """Correlation-based direction path needs a channel of rank >= 2."""
    base = FullConfig()
    rng = np.random.default_rng(21)
    from irs_sensing.scene import build_los_channel, derive_target_truth
    truth2 = take_targets(derive_target_truth(base.scene, base.waveform,
                                              [rng]), 0)
    los = build_los_channel(base.scene, base.arrays, [rng])
    rician = build_rician_channel(los, 13.0, 4, base.arrays,
                                  [np.random.default_rng(22)])
    comb = design_beamformers(rician)[0]
    rician = rician.trials(0)
    prof = profiles
    pair = echo_tensors(truth2, rician, prof, comb, base.waveform, base.arrays)
    estimates = estimate_targets(pair, np.zeros(2), truth2.n_targets,
                                 base.scene.doa_prior_rad, rician, prof,
                                 base.waveform, base.arrays,
                                 single_phase_doa=True)
    got = np.sort(estimates.theta)
    want = np.sort(truth2.theta_rad)
    assert np.abs(got - want).max() < 1e-3


def test_estimate_targets_warns_on_component_undercount(cfg, truth, channel,
                                                        profiles, clean_pair):
    with pytest.warns(UserWarning, match="component count"):
        estimates = estimate_targets(clean_pair, np.zeros(2), 1,
                                     cfg.scene.doa_prior_rad, channel,
                                     profiles, cfg.waveform, cfg.arrays)
    assert estimates.tau.shape == (1,)


# ---------------------------------------------------------------- grid search

def _reference_peak(row):
    """Scalar search with the vertex rule the estimators used to inline:
    first best finite point; the parabola through it and its neighbours
    only between two finite neighbours and only where it curves down."""
    best = None
    for g, value in enumerate(row):
        if math.isfinite(value) and (best is None or value > row[best]):
            best = g
    offset = 0.0
    if 0 < best < len(row) - 1 and math.isfinite(row[best - 1] + row[best + 1]):
        left, mid, right = row[best - 1], row[best], row[best + 1]
        curvature = left - 2 * mid + right
        if curvature < 0:
            offset = float(np.clip(0.5 * (left - right) / curvature, -1, 1))
    return best, offset


def _assert_peaks_match_reference(scores):
    stack = np.asarray(scores, dtype=float)[None]
    idx, offset, peak = _passes(_grid_peaks, stack)
    for r, row in enumerate(scores):
        assert (int(idx[0, r]), float(offset[0, r])) == _reference_peak(row), row
        assert peak[0, r] == row[idx[0, r]]


NAN, ULP = math.nan, 2.0 ** -53


def test_grid_peaks_match_scalar_reference_on_edge_cases():
    _assert_peaks_match_reference([
        [0.0, 1.0, 3.0, 2.0, 0.5],          # interior peak
        [NAN, 1.0, 3.0, 2.0, 0.5],          # NaN away from the peak
        [0.0, NAN, 3.0, 2.0, 0.5],          # NaN left neighbour
        [0.0, 1.0, 3.0, NAN, 0.5],          # NaN right neighbour
        [3.0, 1.0, 0.0, 1.0, 2.0],          # peak on the first point
        [0.0, 1.0, 2.0, 2.5, 3.0],          # peak on the last point
        [1.0, 1.0, 1.0, 1.0, 1.0],          # flat: first point wins
        [0.0, 0.0, 1 - ULP, 1.0, 1.0],      # curvature rounds to exactly 0
        [2.0, 0.0, 0.5, 1.0, 1.5],          # curves upward
        [0.0, 9.0, 10.0, 0.0, 0.0],         # vertex clipped to one step
        [NAN, NAN, 1.0, NAN, NAN],          # a lone finite point
        [-math.inf, 0.0, 1.0, 0.5, math.inf],   # infinities never chosen
    ])


@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_grid_peaks_on_grids_of_one_to_three_points(n_points):
    rng = np.random.default_rng(n_points)
    rows = rng.standard_normal((20, n_points))
    rows[::4, 0] = np.nan
    rows[1::4, -1] = np.nan
    rows[:, 0] = np.where(np.isnan(rows).all(axis=1), 0.0, rows[:, 0])
    _assert_peaks_match_reference(rows.tolist())


def test_grid_peaks_match_scalar_reference_on_random_rows():
    rng = np.random.default_rng(12)
    rows = -np.abs(rng.standard_normal((400, 9)) + 1j * rng.standard_normal(
        (400, 9))) ** 2
    rows[rng.uniform(size=rows.shape) < 0.2] = np.nan
    rows[np.isnan(rows).all(axis=1), 4] = 0.0
    _assert_peaks_match_reference(rows.tolist())


def test_grid_peaks_rejects_a_row_without_finite_points():
    """A trial inside the stack fails alone, as itself."""
    stack = np.tile([[1.0, 2.0], [0.5, 3.0]], (5, 1, 1))
    stack[3, 1] = [NAN, math.inf]
    errors = [None] * 5
    _grid_peaks(stack, errors)
    assert [type(e).__name__ for e in errors] == [
        "NoFeasibleGrid" if b == 3 else "NoneType" for b in range(5)]


@pytest.mark.parametrize("n_points", [1, 2])
def test_multirank_doa_on_a_prior_of_one_or_two_grid_points(cfg, truth,
                                                            channel, profiles,
                                                            n_points):
    """The edge rule keeps the search inside grids too short for a parabola."""
    rician = rician_alone(channel, 5.0, 4, cfg.arrays, np.random.default_rng(9))
    steer = steering_vector(truth.theta_rad, *cfg.arrays.surface)
    b = rician.matrix.T @ (profiles[0][:, None] * steer)
    lo = truth.theta_rad[0]
    prior = (lo, lo + (n_points - 0.5) * DOA_GRID_STEP_RAD)
    grid = lo + DOA_GRID_STEP_RAD * np.arange(n_points)
    est = _passes(estimate_doa_multirank, b[None], rician, profiles[0], prior,
                  cfg.arrays)
    assert np.isin(est, grid).all()
    assert est[0, 0] == lo


# ---------------------------------------------------------------- matching

def _reference_triple_loop(rho, dist):
    """The alignment's former assignment: each round takes the free pair
    with the largest (correlation, -delay distance), first pair on ties."""
    k = rho.shape[0]
    perm = [-1] * k
    free_rows, free_cols = set(range(k)), set(range(k))
    for _ in range(k):
        best, best_key = None, None
        for i in sorted(free_rows):
            for j in sorted(free_cols):
                key = (rho[i, j], -dist[i, j])
                if best_key is None or key > best_key:
                    best, best_key = (i, j), key
        i, j = best
        perm[i] = j
        free_rows.remove(i)
        free_cols.remove(j)
    return perm


def _reference_sorted_pairs(cost):
    """Greedy pairing over pairs sorted by (cost, row, column)."""
    n_rows, n_cols = cost.shape
    out, taken = [-1] * n_rows, set()
    for _, i, j in sorted((cost[i, j], i, j) for i in range(n_rows)
                          for j in range(n_cols)):
        if out[i] == -1 and j not in taken:
            out[i] = j
            taken.add(j)
    return out


def _reference_one_trial_walk(*costs):
    """The matcher of one trial at a time: the pairs of one trial's cost
    matrices in lexsort order, each kept while its row and column are
    free.  NaN costs sort last."""
    n_rows, n_cols = costs[0].shape
    out, col_free = [-1] * n_rows, [True] * n_cols
    for flat in np.lexsort([c.ravel() for c in reversed(costs)]):
        i, j = divmod(int(flat), n_cols)
        if out[i] == -1 and col_free[j]:
            out[i] = j
            col_free[j] = False
    return out


def _integer_costs(data, n_trials, rows, cols):
    """(B, R, C) costs of small integers, so exact ties are common, with
    the rows of some trials NaN, as a failed trial's are."""
    cost = np.array(data.draw(st.lists(
        st.integers(0, 3), min_size=n_trials * rows * cols,
        max_size=n_trials * rows * cols)), dtype=float).reshape(
            n_trials, rows, cols)
    nan_rows = data.draw(st.lists(st.booleans(), min_size=n_trials * rows,
                                  max_size=n_trials * rows))
    cost[np.reshape(nan_rows, (n_trials, rows))] = np.nan
    return cost


@given(k=st.integers(1, 5), n_trials=st.integers(1, 5), data=st.data())
@settings(max_examples=200, deadline=None)
def test_greedy_match_equals_both_former_matchers(k, n_trials, data):
    """A stack of trials gives each trial its own one-trial matching, with
    exact first-cost ties and NaN rows; a trial of finite costs gets both
    former matchers' result."""
    rho = _integer_costs(data, n_trials, k, k)
    dist = _integer_costs(data, n_trials, k, k)
    got = greedy_match(-rho, dist)
    assert got.shape == (n_trials, k)
    for b in range(n_trials):
        assert got[b].tolist() == _reference_one_trial_walk(-rho[b], dist[b])
        if np.isfinite(rho[b]).all() and np.isfinite(dist[b]).all():
            assert got[b].tolist() == _reference_triple_loop(rho[b], dist[b])
    cols = data.draw(st.integers(1, 5))
    cost = _integer_costs(data, n_trials, k, cols)
    got = greedy_match(cost)
    for b in range(n_trials):
        assert got[b].tolist() == _reference_one_trial_walk(cost[b])
        assert greedy_match(cost[b]).tolist() == got[b].tolist()
        if np.isfinite(cost[b]).all():
            assert got[b].tolist() == _reference_sorted_pairs(cost[b])


# ---------------------------------------------------------------- dictionaries

def _reference_doa_dictionary(doa_prior, grid_step, arrays):
    """The direction grid with stacked scalar steering_vector columns."""
    lo, hi = doa_prior
    grid = np.arange(lo, hi + grid_step * 1e-6, grid_step)
    steer = np.stack([steering_vector(theta, *arrays.surface)
                      for theta in grid], axis=1)
    return grid, steer


def _reference_doppler_dictionary(n_pulses, pri_s):
    """The Doppler grid with stacked scalar doppler_ramp columns."""
    half_span = 1.0 / (2 * pri_s)
    grid_step = half_span / DOPPLER_GRID_POINTS
    grid = np.arange(-half_span, half_span + grid_step * 1e-6, grid_step)
    ramps = np.stack([doppler_ramp(nu, n_pulses, pri_s) for nu in grid],
                     axis=1)
    return grid, ramps


def _doa_key(prior, arrays):
    return (steering_vector, *prior, DOA_GRID_STEP_RAD, *arrays.surface)


def _doppler_key(waveform):
    half_span = 1.0 / (2 * waveform.pri_s)
    return (doppler_ramp, -half_span, half_span,
            half_span / DOPPLER_GRID_POINTS, waveform.n_pulses,
            waveform.pri_s)


@pytest.mark.parametrize("n_ap_antennas", [None, 4, 32])
def test_doa_dictionary_matches_reference(cfg, n_ap_antennas):
    arrays = (cfg.arrays if n_ap_antennas is None else
              dataclasses.replace(cfg.arrays, n_ap_antennas=n_ap_antennas))
    prior = cfg.scene.doa_prior_rad
    grid, steer = _dictionary(*_doa_key(prior, arrays))
    want_grid, want_steer = _reference_doa_dictionary(prior, DOA_GRID_STEP_RAD,
                                                      arrays)
    assert steer.shape == (arrays.n_irs_elements, len(grid))
    assert np.array_equal(grid, want_grid)
    assert np.array_equal(steer, want_steer)


@pytest.mark.parametrize("n_pulses", [None, 2, 20])
def test_doppler_dictionary_matches_reference(cfg, n_pulses):
    wf = (cfg.waveform if n_pulses is None else
          dataclasses.replace(cfg.waveform, n_pulses=n_pulses))
    grid, ramps = _dictionary(*_doppler_key(wf))
    want_grid, want_ramps = _reference_doppler_dictionary(wf.n_pulses, wf.pri_s)
    assert ramps.shape == (wf.n_pulses, len(grid))
    assert np.array_equal(grid, want_grid)
    assert np.array_equal(ramps, want_ramps)


def test_dictionaries_are_read_only(cfg):
    shared = (*_dictionary(*_doa_key(cfg.scene.doa_prior_rad, cfg.arrays)),
              *_dictionary(*_doppler_key(cfg.waveform)))
    for arr in shared:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_estimates_same_with_cold_and_warm_cache(cfg, truth, channel,
                                                 profiles, clean_pair):
    clean = clean_pair[:, None]
    sigma = noise_sigma_for_snr(clean, 10.0)
    noisy = apply_noise(clean, sigma, [np.random.default_rng(5)])[:, 0]

    def run():
        return estimate_targets(noisy, sigma[:, 0], truth.n_targets,
                                cfg.scene.doa_prior_rad, channel, profiles,
                                cfg.waveform, cfg.arrays)

    _dictionary.cache_clear()
    cold = run()
    hits = _dictionary.cache_info().hits
    warm = run()
    assert [f.tobytes() for f in warm] == [f.tobytes() for f in cold]
    assert _dictionary.cache_info().hits >= hits + 2   # direction and Doppler


def test_doa_dictionary_shared_across_ap_antenna_counts():
    """The surface steering matrix does not depend on the AP array, so the
    antenna sweep builds one direction grid (and one Doppler grid)."""
    _dictionary.cache_clear()
    run_experiment(build_spec("mse_vs_antennas", trials=2), FullConfig())
    assert _dictionary.cache_info().misses == 2
