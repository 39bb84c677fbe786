"""Column alignment, cross-phase ratio DOA, Doppler/delay extraction."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_sensing.config import SPEED_OF_LIGHT, ArrayConfig, default_config
from irs_sensing.cpd import FactorTriple, cp_decompose, raw_delay
from irs_sensing.errors import (AmbiguousAlignment, DegenerateProfilePair,
                                DivisionBlowup, NoFeasibleGrid, RankOneChannel,
                                UnwrapInfeasible)
from irs_sensing.estimation import (DOA_GRID_STEP_RAD, DOPPLER_GRID_POINTS,
                                    AlignedFactors, _dictionary, _grid_peaks,
                                    align_columns, compute_gamma_statistics,
                                    estimate_delay, estimate_doa_multirank,
                                    estimate_doppler, estimate_targets,
                                    gamma_ratio_curve, greedy_match,
                                    resolve_doa)
from irs_sensing.experiments import build_spec, run_experiment
from irs_sensing.scene import (PhaseProfile, build_rician_channel,
                               design_beamformers, steering_vector)
from irs_sensing.synthesis import (apply_noise, build_factor_matrices,
                                   doppler_ramp, echo_tensors)

from conftest import take_targets

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
    perm = list(perm)
    return FactorTriple(pulse_factor=triple.pulse_factor[..., perm],
                        antenna_factor=triple.antenna_factor[..., perm],
                        subcarrier_factor=triple.subcarrier_factor[..., perm],
                        generators=triple.generators[..., perm])


def _truth_triples(cfg, truth, channel, profiles, combiner):
    """Exact factors of both phases as one-trial stacks."""
    out = []
    for prof in profiles:
        fac = build_factor_matrices(truth, channel, prof, combiner,
                                    cfg.waveform, cfg.arrays)
        out.append(FactorTriple(pulse_factor=fac.pulse_factor[None],
                                antenna_factor=fac.antenna_factor[None],
                                subcarrier_factor=fac.subcarrier_factor[None],
                                generators=fac.generators[None]))
    return out


@pytest.fixture(scope="module")
def decomposed_pair(cfg, clean_pair):
    k = len(cfg.scene.targets)
    return tuple(_passes(cp_decompose, t.data[None], k) for t in clean_pair)


@pytest.fixture(scope="module")
def aligned(cfg, decomposed_pair):
    return _passes(align_columns, *decomposed_pair,
                   cfg.waveform.subcarrier_spacing_hz)


# ---------------------------------------------------------------- alignment

def test_align_identity():
    rng = np.random.default_rng(0)
    t1 = _triple(rng, 6, 5, 8, [3.2e-6, 3.6e-6])
    t2 = _triple(rng, 6, 5, 8, [3.2e-6, 3.6e-6])
    out = _passes(align_columns, t1, t2, SPACING)
    assert out.permutation.tolist() == [[0, 1]]
    np.testing.assert_array_equal(out.phase1.pulse_factor, t1.pulse_factor)


def test_align_swap():
    rng = np.random.default_rng(1)
    t1 = _triple(rng, 6, 5, 8, [3.6e-6, 3.2e-6])
    t2 = _triple(rng, 6, 5, 8, [3.2e-6, 3.6e-6])
    out = _passes(align_columns, t1, t2, SPACING)
    assert out.permutation.tolist() == [[1, 0]]
    np.testing.assert_array_equal(out.phase1.antenna_factor[..., 1],
                                  t1.antenna_factor[..., 0])
    np.testing.assert_array_equal(out.phase1.generators, t2.generators)


def test_align_three_cycle():
    rng = np.random.default_rng(2)
    delays = [3.1e-6, 3.5e-6, 3.9e-6]
    t2 = _triple(rng, 6, 5, 8, delays)
    t1 = _permute(t2, [1, 2, 0])       # t1 column i holds t2 column perm[i]
    out = _passes(align_columns, t1, t2, SPACING)
    assert out.permutation.tolist() == [[1, 2, 0]]
    np.testing.assert_array_equal(out.phase1.pulse_factor, t2.pulse_factor)


def test_align_invariant_to_input_order():
    """Shuffling phase-1 columns must not change the aligned result."""
    rng = np.random.default_rng(3)
    t2 = _triple(rng, 6, 5, 8, [3.1e-6, 3.5e-6, 3.9e-6])
    t1 = _triple(rng, 6, 5, 8, [3.1e-6, 3.5e-6, 3.9e-6])
    base = _passes(align_columns, t1, t2, SPACING)
    shuffled = _passes(align_columns, _permute(t1, [2, 0, 1]), t2, SPACING)
    np.testing.assert_array_equal(base.phase1.pulse_factor,
                                  shuffled.phase1.pulse_factor)
    np.testing.assert_array_equal(base.phase1.generators,
                                  shuffled.phase1.generators)


def test_align_rejects_indistinct_delays():
    rng = np.random.default_rng(4)
    t1 = _triple(rng, 6, 5, 8, [3.4e-6, 3.4e-6])
    t2 = _triple(rng, 6, 5, 8, [3.4e-6, 3.4e-6])
    assert isinstance(_failure(align_columns, t1, t2, SPACING),
                      AmbiguousAlignment)


def test_align_rejects_count_mismatch():
    rng = np.random.default_rng(5)
    t1 = _triple(rng, 6, 5, 8, [3.4e-6])
    t2 = _triple(rng, 6, 5, 8, [3.2e-6, 3.6e-6])
    with pytest.raises(AmbiguousAlignment):
        align_columns(t1, t2, SPACING, [None])


def test_aligned_generators_agree_across_phases(aligned):
    """Both phases see the same physical delays, so matched generators agree."""
    diff = np.abs(aligned.phase1.generators - aligned.phase2.generators)
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
        scaled = AlignedFactors(
            phase1=FactorTriple(
                pulse_factor=aligned.phase1.pulse_factor * scale[0],
                antenna_factor=aligned.phase1.antenna_factor / scale[0],
                subcarrier_factor=aligned.phase1.subcarrier_factor,
                generators=aligned.phase1.generators),
            phase2=FactorTriple(
                pulse_factor=aligned.phase2.pulse_factor * scale[1],
                antenna_factor=aligned.phase2.antenna_factor / scale[1],
                subcarrier_factor=aligned.phase2.subcarrier_factor,
                generators=aligned.phase2.generators),
            permutation=aligned.permutation)
        moved = compute_gamma_statistics(scaled)
        worst = max(worst, float(np.max(np.abs(moved - base) / np.abs(base))))
    assert worst < 1e-12, f"worst relative drift {worst:.3e}"


def test_gamma_matches_curve_at_truth(cfg, truth, channel, profiles, combiner):
    """Exact factors give exactly the ratio curve value at the true angle."""
    t1, t2 = _truth_triples(cfg, truth, channel, profiles, combiner)
    out = _passes(align_columns, t1, t2, cfg.waveform.subcarrier_spacing_hz)
    gammas = compute_gamma_statistics(out)
    curve = gamma_ratio_curve(truth.theta_rad, channel.irs_side_vector(),
                              profiles, cfg.arrays)
    np.testing.assert_allclose(gammas[0], curve, rtol=1e-9)


# ---------------------------------------------------------------- direction

def test_resolve_doa_noiseless(cfg, truth, channel, profiles, aligned):
    thetas, gammas, residuals = _passes(
        resolve_doa, aligned, channel.irs_side_vector(), profiles,
        cfg.scene.doa_prior_rad, cfg.arrays)
    err = np.abs(np.sort(thetas[0]) - np.sort(truth.theta_rad))
    assert err.max() < 1e-5, f"worst angle error {err.max():.3e} rad"
    assert np.all(residuals >= 0)
    assert gammas.shape == thetas.shape


def test_resolve_doa_never_worse_than_grid(cfg, channel, profiles, aligned):
    """Refinement must not increase the matching objective."""
    lo, hi = cfg.scene.doa_prior_rad
    step = math.radians(0.02)
    grid = np.arange(lo, hi + step * 1e-6, step)
    curve = gamma_ratio_curve(grid, channel.irs_side_vector(), profiles,
                              cfg.arrays)
    gammas = compute_gamma_statistics(aligned)
    _, _, residuals = _passes(resolve_doa, aligned, channel.irs_side_vector(),
                              profiles, cfg.scene.doa_prior_rad, cfg.arrays)
    for k, gamma_k in enumerate(gammas[0]):
        grid_best = np.nanmin(np.abs(gamma_k - curve))
        assert residuals[0, k] <= grid_best + 1e-15


def test_resolve_doa_rejects_identical_profiles(cfg, channel, profiles,
                                                aligned):
    same = (profiles[0], PhaseProfile(phases=profiles[0].phases,
                                      phase_index=2))
    assert isinstance(_failure(resolve_doa, aligned, channel.irs_side_vector(),
                               same, cfg.scene.doa_prior_rad, cfg.arrays),
                      DegenerateProfilePair)


def test_resolve_doa_all_grid_points_excluded(aligned):
    """A null of the second profile across the whole prior is rejected."""
    arrays = ArrayConfig(n_ap_antennas=1, n_irs_elements=2)
    u = np.array([1.0, -1.0]) / math.sqrt(2)
    prof = (PhaseProfile(phases=np.zeros(2), phase_index=1),
            PhaseProfile(phases=np.zeros(2), phase_index=2))
    assert isinstance(_failure(resolve_doa, aligned, u, prof, (-1e-9, 1e-9),
                               arrays), NoFeasibleGrid)


def test_multirank_doa_on_scattered_channel(cfg, truth, channel, profiles):
    """Every antenna column is searched at once, one direction per column."""
    rician = build_rician_channel(channel, 5.0, 4, cfg.arrays,
                                  np.random.default_rng(9))
    steer = steering_vector(truth.theta_rad, *cfg.arrays.surface)
    b = rician.matrix.T @ (profiles[0].diagonal()[:, None] * steer)
    est = _passes(estimate_doa_multirank, b[None], rician, profiles[0],
                  cfg.scene.doa_prior_rad, cfg.arrays)
    assert est.shape == (1, truth.n_targets)
    assert np.abs(est[0] - truth.theta_rad).max() < 1e-4


def test_multirank_doa_rejects_rank_one_channel(cfg, truth, channel, profiles):
    b = np.ones((1, cfg.arrays.n_ap_antennas, 1), dtype=complex)
    assert isinstance(_failure(estimate_doa_multirank, b, channel, profiles[0],
                               cfg.scene.doa_prior_rad, cfg.arrays),
                      RankOneChannel)


# ---------------------------------------------------------------- Doppler

def test_doppler_noiseless(cfg, truth, channel, profiles, combiner, aligned):
    thetas, _, _ = _passes(resolve_doa, aligned, channel.irs_side_vector(),
                           profiles, cfg.scene.doa_prior_rad, cfg.arrays)
    nus = _passes(estimate_doppler, aligned, thetas, channel, profiles,
                  combiner, cfg.waveform, cfg.arrays)
    err = np.abs(np.sort(nus[0]) - np.sort(truth.doppler_hz))
    assert err.max() < 1e-3, f"worst Doppler error {err.max():.3e} Hz"


def test_doppler_zero_is_exact(cfg, truth, channel, profiles, combiner):
    static = dataclasses.replace(truth, doppler_hz=0.0 * truth.doppler_hz)
    t1, t2 = _truth_triples(cfg, static, channel, profiles, combiner)
    out = _passes(align_columns, t1, t2, cfg.waveform.subcarrier_spacing_hz)
    nus = _passes(estimate_doppler, out, static.theta_rad[None], channel,
                  profiles, combiner, cfg.waveform, cfg.arrays)
    assert np.abs(nus).max() < 1e-9


def test_doppler_boundary_warns(cfg, truth, channel, profiles, combiner):
    half_span = 1.0 / (2 * cfg.waveform.pri_s)
    spun = dataclasses.replace(take_targets(truth, slice(1)),
                               doppler_hz=np.array([half_span]))
    t1, t2 = _truth_triples(cfg, spun, channel, profiles, combiner)
    out = _passes(align_columns, t1, t2, cfg.waveform.subcarrier_spacing_hz)
    with pytest.warns(UserWarning, match="boundary"):
        _passes(estimate_doppler, out, spun.theta_rad[None], channel, profiles,
                combiner, cfg.waveform, cfg.arrays)


def test_doppler_rejects_nulled_combiner(cfg, truth, channel, profiles,
                                         combiner, aligned):
    v = channel.dominant.v
    null = np.zeros_like(v)
    null[0], null[1] = v[1], -v[0]       # bilinear null of the AP-side vector
    bad = np.tile(null[:, None], (1, cfg.waveform.n_pulses))
    assert isinstance(_failure(estimate_doppler, aligned, truth.theta_rad[None],
                               channel, profiles, bad, cfg.waveform,
                               cfg.arrays), DivisionBlowup)


def test_doppler_masks_nulled_pulse(cfg, truth, channel, profiles, combiner):
    """A pulse whose combiner nulls the AP-side vector is left out, not fatal."""
    v = channel.dominant.v
    masked = combiner.copy()
    masked[:, 0] = 0
    masked[0, 0], masked[1, 0] = v[1], -v[0]
    t1, t2 = _truth_triples(cfg, truth, channel, profiles, masked)
    for triple in (t1, t2):
        triple.pulse_factor[:, 0, :] = 1e-6   # what noise leaves in the null
    out = _passes(align_columns, t1, t2, cfg.waveform.subcarrier_spacing_hz)
    with pytest.warns(UserWarning, match="near-zero divisors"):
        nus = _passes(estimate_doppler, out, truth.theta_rad[None], channel,
                      profiles, masked, cfg.waveform, cfg.arrays)
    err = np.abs(nus[0] - truth.doppler_hz)
    assert err.max() < 1e-3, f"worst Doppler error {err.max():.3e} Hz"


# ---------------------------------------------------------------- delay

def test_delay_noiseless_exact(cfg, truth, aligned):
    taus = _passes(estimate_delay, aligned, cfg.waveform)
    err = np.abs(np.sort(taus[0]) - np.sort(truth.delay_s))
    assert err.max() < 1e-12, f"worst delay error {err.max():.3e} s"


def _delay_only_aligned(delays, waveform):
    rng = np.random.default_rng(10)
    t1 = _triple(rng, 4, 3, waveform.n_subcarriers, delays)
    t2 = _triple(rng, 4, 3, waveform.n_subcarriers, delays)
    return AlignedFactors(phase1=t1, phase2=t2,
                          permutation=np.arange(len(delays))[None])


def test_delay_unwraps_alias(cfg):
    """A generator only knows the delay modulo the tone period."""
    wf = cfg.waveform
    true_tau = 3.40424344e-6
    wrapped = true_tau - wf.symbol_duration_s     # 1.40424344e-6
    out = _delay_only_aligned([wrapped], wf)
    assert raw_delay(out.phase1.generators, wf.subcarrier_spacing_hz)[0, 0] == \
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

def test_estimate_targets_noiseless(cfg, truth, channel, profiles, combiner,
                                    clean_pair):
    k = truth.n_targets
    estimates = estimate_targets(clean_pair[0], clean_pair[1], k,
                                 cfg.scene.doa_prior_rad, channel, profiles,
                                 combiner, cfg.waveform, cfg.arrays)
    assert len(estimates) == k
    taus = [e.tau_hat for e in estimates]
    assert taus == sorted(taus)
    order = np.argsort(truth.delay_s)
    for est, idx in zip(estimates, order):
        assert abs(est.theta_hat - truth.theta_rad[idx]) < 1e-5
        assert abs(est.tau_hat - truth.delay_s[idx]) < 1e-12
        assert abs(est.nu_hat - truth.doppler_hz[idx]) < 1.0
        assert abs(est.range_hat - SPEED_OF_LIGHT * est.tau_hat / 2) < 1e-6
        assert abs(est.velocity_hat - est.nu_hat * SPEED_OF_LIGHT
                   / (2 * cfg.waveform.carrier_freq_hz)) < 1e-9
        lo, hi = cfg.scene.doa_prior_rad
        assert lo <= est.theta_hat <= hi
        window_lo = cfg.waveform.full_symbol_s
        assert window_lo <= est.tau_hat <= window_lo + cfg.waveform.cyclic_prefix_s


def test_estimate_targets_single_phase_mode(cfg, truth, profiles, combiner):
    """Correlation-based direction path needs a channel of rank >= 2."""
    base = default_config()
    rng = np.random.default_rng(21)
    from irs_sensing.scene import build_los_channel, derive_target_truth
    truth2 = derive_target_truth(base.scene, base.waveform, base.arrays, rng)
    los = build_los_channel(base.scene, base.arrays, rng)
    rician = build_rician_channel(los, 13.0, 4, base.arrays,
                                  np.random.default_rng(22))
    prof = profiles
    comb = design_beamformers(rician, base.waveform.n_pulses)
    pair = echo_tensors(truth2, rician, prof, comb, base.waveform, base.arrays)
    estimates = estimate_targets(pair[0], pair[1], truth2.n_targets,
                                 base.scene.doa_prior_rad, rician, prof, comb,
                                 base.waveform, base.arrays,
                                 single_phase_doa=True)
    got = np.sort([e.theta_hat for e in estimates])
    want = np.sort(truth2.theta_rad)
    assert np.abs(got - want).max() < 1e-3


def test_estimate_targets_warns_on_component_undercount(cfg, truth, channel,
                                                        profiles, combiner,
                                                        clean_pair):
    with pytest.warns(UserWarning, match="component count"):
        estimates = estimate_targets(clean_pair[0], clean_pair[1], 1,
                                     cfg.scene.doa_prior_rad, channel,
                                     profiles, combiner, cfg.waveform,
                                     cfg.arrays)
    assert len(estimates) == 1


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
    idx, offset, peak = _passes(_grid_peaks, lambda s: stack[s])
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
    stack = np.array([[[1.0, 2.0], [NAN, math.inf]]])
    assert isinstance(_failure(_grid_peaks, lambda s: stack[s]), NoFeasibleGrid)


@pytest.mark.parametrize("n_points", [1, 2])
def test_multirank_doa_on_a_prior_of_one_or_two_grid_points(cfg, truth,
                                                            channel, profiles,
                                                            n_points):
    """The edge rule keeps the search inside grids too short for a parabola."""
    rician = build_rician_channel(channel, 5.0, 4, cfg.arrays,
                                  np.random.default_rng(9))
    steer = steering_vector(truth.theta_rad, *cfg.arrays.surface)
    b = rician.matrix.T @ (profiles[0].diagonal()[:, None] * steer)
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


@given(k=st.integers(1, 5), data=st.data())
@settings(max_examples=200, deadline=None)
def test_greedy_match_equals_both_former_matchers(k, data):
    """Small integer costs make exact ties common."""
    cells = st.lists(st.integers(0, 3), min_size=k * k, max_size=k * k)
    rho = np.array(data.draw(cells), dtype=float).reshape(k, k)
    dist = np.array(data.draw(cells), dtype=float).reshape(k, k)
    assert greedy_match(-rho, dist) == _reference_triple_loop(rho, dist)
    cols = data.draw(st.integers(1, 5))
    cost = np.array(data.draw(st.lists(st.integers(0, 3), min_size=k * cols,
                                       max_size=k * cols)),
                    dtype=float).reshape(k, cols)
    assert greedy_match(cost) == _reference_sorted_pairs(cost)


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
                                                 profiles, combiner,
                                                 clean_pair):
    rng = np.random.default_rng(5)
    noisy = tuple(apply_noise(t, 10.0, rng) for t in clean_pair)

    def run():
        return estimate_targets(noisy[0], noisy[1], truth.n_targets,
                                cfg.scene.doa_prior_rad, channel, profiles,
                                combiner, cfg.waveform, cfg.arrays)

    _dictionary.cache_clear()
    cold = run()
    hits = _dictionary.cache_info().hits
    warm = run()
    assert warm == cold
    assert _dictionary.cache_info().hits >= hits + 2   # direction and Doppler


def test_doa_dictionary_shared_across_ap_antenna_counts():
    """The surface steering matrix does not depend on the AP array, so the
    antenna sweep builds one direction grid (and one Doppler grid)."""
    _dictionary.cache_clear()
    run_experiment(build_spec("mse_vs_antennas", trials=2), default_config())
    assert _dictionary.cache_info().misses == 2
