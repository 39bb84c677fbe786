"""A stack of trials gives every trial the outcome it has on its own."""
import dataclasses
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from irs_sensing.config import FullConfig, with_overrides
from irs_sensing.cpd import (FactorTriple, cp_decompose, cp_reconstruct,
                             reconstruction_error)
from irs_sensing.errors import (EstimationError, IllConditionedShift,
                                RankDeficient, UniquenessError,
                                UnwrapInfeasible)
from irs_sensing.estimation import (Estimates, _gamma_ratio, align_columns,
                                    estimate_doa_multirank, estimate_doppler,
                                    estimate_targets, estimate_trials)
from irs_sensing.experiments import TRIAL_STACK, build_spec, run_experiment
from irs_sensing.scene import (draw_scene_point, relayed_response,
                               steering_vector)
from irs_sensing.synthesis import apply_noise, echo_tensors, noise_sigma_for_snr

from reference import whole_grid_multirank
from stacks import stack_channels

SNRS_DB = np.linspace(-10.0, 20.0, 7)


def _scene(rician_k_db):
    cfg = with_overrides(FullConfig(), rician_k_db=rician_k_db)
    point = draw_scene_point(cfg, [np.random.default_rng(5)]).trial(0)
    return cfg, point


def _noisy_stack(cfg, point, n_trials, seed):
    """Trials of one scene point at SNRs cycling from -10 to 20 dB: the
    (2, B, P, M, L) observations and their (2, B) noise levels."""
    clean = echo_tensors(*point, cfg.waveform, cfg.arrays)
    sigma = np.stack([noise_sigma_for_snr(clean, SNRS_DB[b % len(SNRS_DB)])
                      for b in range(n_trials)], axis=1)
    rngs = [np.random.default_rng((seed, b)) for b in range(n_trials)]
    return apply_noise(np.repeat(clean[:, None], n_trials, axis=1), sigma,
                       rngs), sigma


def _args(cfg, point):
    return (point.truth.n_targets, cfg.scene.doa_prior_rad, point.channel,
            point.profiles, cfg.waveform, cfg.arrays)


def _trial(triple, b):
    """Trial b of a stack of factor triples, as a one-trial stack."""
    return FactorTriple(*(a[b:b + 1] for a in triple))


def _outcome(run):
    try:
        return run()
    except EstimationError as exc:
        return exc


def _per_trial(result):
    """Each trial's outcome in an (Estimates, errors) pair of
    ``estimate_trials``: its error, or its row of the estimates."""
    estimates, errors = result
    return [e or Estimates(*(field[b] for field in estimates))
            for b, e in enumerate(errors)]


def _failure(error):
    return [type(error).__name__, str(error)]


def _summary(outcome):
    """[class name, message] of a failure, else (theta, tau, nu) rows."""
    if isinstance(outcome, EstimationError):
        return _failure(outcome)
    return np.stack([outcome.theta, outcome.tau, outcome.nu], axis=-1).tolist()


def _bits(result):
    """The failures of an (Estimates, errors) pair, and the bytes of its
    arrays, which hold every estimate bit for bit."""
    estimates, errors = result
    return ([e and _failure(e) for e in errors],
            [field.tobytes() for field in estimates])


def _assert_nan_exactly_where_failed(result):
    """Failed rows are NaN in every array; healthy rows are finite, with
    their targets sorted by delay."""
    estimates, errors = result
    failed = np.array([e is not None for e in errors])
    for field in estimates:
        assert np.isnan(field[failed]).all()
        assert np.isfinite(field[~failed]).all()
    assert (np.diff(estimates.tau[~failed], axis=-1) >= 0).all()


def _assert_same_outcome(got, want, rtol):
    """``got`` is an outcome, ``want`` the ``_summary`` of one."""
    got = _summary(got)
    if isinstance(got[0], str) or isinstance(want[0], str):
        assert got == want
    else:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


# Per-trial outcomes of the pipeline before it took stacks of trials:
# estimate_targets on each trial of the stacks below, one call per trial.
PINNED = json.loads((Path(__file__).parent / "data"
                     / "stack_outcomes.json").read_text())


@pytest.mark.parametrize("rician_k_db", [None, 5.0])
def test_stack_changes_no_trial_outcome(rician_k_db):
    """Every trial of a stack ends as it did alone before trials were
    stacked: with the first check it fails, in pipeline order, or with the
    same estimates.  On the line-of-sight channel a trial that fails the
    delay unwrap with the two-phase method fails the earlier single-phase
    direction check."""
    cfg, point = _scene(rician_k_db)
    y, sigma = _noisy_stack(cfg, point, 21, seed=17)
    args = _args(cfg, point)
    outcomes = [_per_trial(r) for r in estimate_trials(
        y, sigma, *args, single_phase_doa=(False, True))]
    assert any(isinstance(o, UnwrapInfeasible) for o in outcomes[0])
    assert any(not isinstance(o, EstimationError) for o in outcomes[0])
    channel = "los" if rician_k_db is None else "rician"
    for single, results in zip((False, True), outcomes):
        pinned = PINNED[f"{channel}_{'single' if single else 'two'}_phase"]
        assert len(results) == len(pinned) == y.shape[1]
        for b, got in enumerate(results):
            alone = _outcome(lambda: estimate_targets(
                y[:, b], sigma[:, b], *args, single_phase_doa=single))
            _assert_same_outcome(got, _summary(alone), rtol=0)
            _assert_same_outcome(got, pinned[b], rtol=1e-12)


def _on_last_subcarrier(cfg, rng, n_last=1):
    """Two components, the last ``n_last`` of them on the last subcarrier
    only.  With one there, the signal subspace restricted to the first L-1
    subcarriers has rank one; with both, it holds only rounding, which
    fails a shift check.  Reversed along the subcarriers, the tensor with
    both has a zero shift operator instead."""
    p, m, l = (cfg.waveform.n_pulses, cfg.arrays.n_ap_antennas,
               cfg.waveform.n_subcarriers)
    a = rng.standard_normal((p, 2)) + 1j * rng.standard_normal((p, 2))
    b = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    c = np.zeros((l, 2), dtype=complex)
    c[:, 0] = np.exp(-0.7j * np.arange(1, l + 1))
    c[:, 2 - n_last:] = 0.0
    c[-1, 2 - n_last:] = 1.0
    return np.einsum("pk,mk,lk->pml", a, b, c)


def test_cp_decompose_rejects_ill_conditioned_shift():
    y = _on_last_subcarrier(FullConfig(), np.random.default_rng(3))
    errors = [None]
    cp_decompose(y[None], 2, errors)
    assert isinstance(errors[0], IllConditionedShift)
    assert "condition number" in str(errors[0])


def test_components_on_the_first_subcarrier_only_give_a_zero_shift_operator():
    """Both components on the first subcarrier only: the subspace rows of
    the later subcarriers are zero, so the shift operator is zero and its
    eigenvalues give no generator; the healthy trial beside it passes."""
    cfg, point = _scene(None)
    y, _ = _noisy_stack(cfg, point, 1, seed=2)
    last = _on_last_subcarrier(cfg, np.random.default_rng(3), n_last=2)
    first = np.ascontiguousarray(last[..., ::-1])
    errors = [None, None]
    cp_decompose(np.stack([y[0, 0], first]), 2, errors)
    assert errors[0] is None
    assert isinstance(errors[1], IllConditionedShift)
    assert str(errors[1]) == "shift operator has a zero eigenvalue"


def test_ill_conditioned_member_fails_alone():
    """Only the ill-conditioned trial of a stack fails; the factors of the
    others are those of their own calls, bit for bit."""
    cfg, point = _scene(None)
    y, sigma = _noisy_stack(cfg, point, 4, seed=2)
    y[0, 1] = _on_last_subcarrier(cfg, np.random.default_rng(3))
    data = y[0]
    errors = [None] * 4
    triple = cp_decompose(data, 2, errors)
    assert isinstance(errors[1], IllConditionedShift)
    assert [e is None for e in errors] == [True, False, True, True]
    for b in (0, 2, 3):
        alone_errors = [None]
        alone = cp_decompose(data[b:b + 1], 2, alone_errors)
        assert alone_errors == [None]
        for got, want in zip(_trial(triple, b), alone):
            assert np.array_equal(got, want)

    args = _args(cfg, point)
    [result] = estimate_trials(y, sigma, *args)
    _assert_nan_exactly_where_failed(result)
    results = _per_trial(result)
    assert isinstance(results[1], IllConditionedShift)
    assert str(results[1]).startswith("phase 1: shift subspace")
    with pytest.raises(IllConditionedShift, match="^phase 1: shift subspace"):
        estimate_targets(y[:, 1], sigma[:, 1], *args)
    for b, got in enumerate(results):
        _assert_same_outcome(got, _summary(_outcome(lambda: estimate_targets(
            y[:, b], sigma[:, b], *args))), rtol=0)


def test_a_trial_failing_two_checks_reports_the_first():
    """One component on the last subcarrier only, two requested: the rank
    check fails, and so would the later shift-conditioning check."""
    y = _on_last_subcarrier(FullConfig(), np.random.default_rng(3))
    last_only = np.zeros_like(y)
    last_only[:, :, -1] = np.outer(y[:, 0, -1], y[0, :, -1])
    errors = [None]
    cp_decompose(last_only[None], 2, errors)
    assert isinstance(errors[0], RankDeficient)
    assert "singular-value ratio" in str(errors[0])
    errors = [None, None]
    cp_decompose(np.stack([y, last_only]), 2, errors)
    assert [type(e) for e in errors] == [IllConditionedShift, RankDeficient]


def test_residuals_of_a_stack_equal_the_single_calls():
    cfg, point = _scene(None)
    data = _noisy_stack(cfg, point, 3, seed=9)[0][0]
    errors = [None] * 3
    triple = cp_decompose(data, 2, errors)
    recon = reconstruction_error(data, triple, errors)
    for b in range(3):
        single = cp_decompose(data[b:b + 1], 2, [None])
        assert recon[b] == reconstruction_error(data[b:b + 1], single, [None])[0]
        assert np.array_equal(cp_reconstruct(single),
                              cp_reconstruct(_trial(triple, b)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rician_k_db", [None, 5.0])
def test_failed_trials_stay_in_the_stack_without_effect(rician_k_db):
    """A stack of a healthy trial and trials that fail at the factorization
    of either phase, or at the delay unwrap, gives each trial its outcome
    alone; the void values of the failed trials raise and warn nothing.
    On the line-of-sight channel the single-phase method fails every trial
    that is still running with RankOneChannel, a check the stack shares."""
    cfg, point = _scene(rician_k_db)
    pinned = PINNED[f"{'los' if rician_k_db is None else 'rician'}_two_phase"]
    healthy = next(b for b, o in enumerate(pinned) if not isinstance(o[0], str))
    unwrap = next(b for b, o in enumerate(pinned) if o[0] == "UnwrapInfeasible")
    y, sigma = _noisy_stack(cfg, point, max(healthy, unwrap) + 1, seed=17)
    picks = [healthy] * 4 + [unwrap]
    s, s_sigma = y[:, picks], sigma[:, picks]
    s[:, 1] = 0.0  # both phases zero
    s[0, 2] = _on_last_subcarrier(  # phase 1 ill-conditioned
        cfg, np.random.default_rng(3), n_last=2)
    s[1, 3] = 0.0  # phase 2 zero
    args = _args(cfg, point)
    pairs = estimate_trials(s, s_sigma, *args, single_phase_doa=(False, True))
    for result in pairs:
        _assert_nan_exactly_where_failed(result)
    outcomes = [_per_trial(r) for r in pairs]
    assert [type(o).__name__ for o in outcomes[0]] == [
        "Estimates", "RankDeficient", "IllConditionedShift", "RankDeficient",
        "UnwrapInfeasible"]
    assert str(outcomes[0][2]) == "phase 1: shift subspace condition number inf"
    assert str(outcomes[0][3]) == "phase 2: zero tensor"
    for single, results in zip((False, True), outcomes):
        for b, got in enumerate(results):
            alone = _outcome(lambda: estimate_targets(
                s[:, b], s_sigma[:, b], *args, single_phase_doa=single))
            _assert_same_outcome(got, _summary(alone), rtol=0)


def test_a_check_the_stack_shares_fails_every_trial():
    """One subcarrier cannot separate two targets, a check of the tensor
    shape that the whole stack shares: under both direction methods every
    trial carries that one UniquenessError, and every row is NaN."""
    cfg, point = _scene(None)
    narrow = with_overrides(cfg, n_subcarriers=1)
    clean = echo_tensors(*point, narrow.waveform, narrow.arrays)[:, None]
    sigma = noise_sigma_for_snr(clean, 10.0)
    y = apply_noise(clean, sigma,
                    [np.random.default_rng((6, b)) for b in range(3)])
    pairs = estimate_trials(y, sigma, *_args(narrow, point),
                            single_phase_doa=(False, True))
    assert len(pairs) == 2
    for estimates, errors in pairs:
        assert len(errors) == 3
        assert isinstance(errors[0], UniquenessError)
        assert str(errors[0]).startswith("phase 1: ")
        assert all(e is errors[0] for e in errors)
        for field in estimates:
            assert field.shape == (3, point.truth.n_targets)
            assert np.isnan(field).all()


def test_shared_factorization_warns_once_per_phase_for_both_methods():
    """Two direction methods share one factorization, so an undercounted
    scene warns about the reconstruction residual once per phase."""
    cfg, point = _scene(5.0)
    clean = echo_tensors(*point, cfg.waveform, cfg.arrays)
    args = (1, *_args(cfg, point)[1:])
    with pytest.warns(UserWarning, match="component count") as caught:
        estimate_trials(clean[:, None], np.zeros((2, 1)), *args,
                        single_phase_doa=(False, True))
    assert [str(w.message)[:7] for w in caught] == ["phase 1", "phase 2"]
    # both entry points blame their caller's line
    with pytest.warns(UserWarning, match="component count") as alone:
        estimate_targets(clean, np.zeros(2), *args)
    assert {w.filename for w in [*caught, *alone]} == {__file__}


def test_a_trial_failed_in_phase_1_gets_no_phase_2_residual_warning():
    """An undercounted stack warns about each residual of a trial still
    running, phase 1's before phase 2's; a trial whose phase-1 tensor is
    zero keeps that failure and is not checked in phase 2."""
    cfg, point = _scene(None)
    clean = echo_tensors(*point, cfg.waveform, cfg.arrays)[:, None]
    sigma = noise_sigma_for_snr(clean, 30.0)
    y = apply_noise(clean, sigma,
                    [np.random.default_rng((4, b)) for b in range(3)])
    y[0, 1] = 0.0
    with pytest.warns(UserWarning, match="component count") as caught:
        [(_, errors)] = estimate_trials(y, sigma, 1, *_args(cfg, point)[1:])
    assert [str(e) for e in errors] == ["None", "phase 1: zero tensor", "None"]
    assert [str(w.message)[:7] for w in caught] == (["phase 1"] * 2
                                                    + ["phase 2"] * 2)


@pytest.mark.parametrize("preset", ["mse_vs_snr", "rician_comparison"])
def test_results_do_not_depend_on_the_stack_size(monkeypatch, preset):
    import irs_sensing.experiments as experiments
    # more trials than one stack
    spec = build_spec(preset, trials=TRIAL_STACK + 1, seed=4)
    rows = []
    for size in (1, 2, 8, TRIAL_STACK):
        monkeypatch.setattr(experiments, "TRIAL_STACK", size)
        rows.append(repr(run_experiment(spec, FullConfig())))
    assert rows == [rows[0]] * len(rows)


def test_fading_draw_factorizes_once_for_both_direction_methods(monkeypatch):
    """The factorization, and the Doppler, delay and ratio-statistic steps
    after it, run once per stack whatever the number of direction methods.
    Each call is recorded by the trial count of its stack."""
    import irs_sensing.estimation as estimation

    def after_alignment(aligned):
        return aligned.generators.shape[1]

    stack_size = {"cp_decompose": len, "estimate_doppler": after_alignment,
                  "estimate_delay": after_alignment,
                  "compute_gamma_statistics": after_alignment}
    calls = {name: [] for name in stack_size}

    def counted(name):
        real = getattr(estimation, name)

        def step(first, *rest):
            calls[name].append(stack_size[name](first))
            return real(first, *rest)
        return step

    for name in calls:
        monkeypatch.setattr(estimation, name, counted(name))
    run_experiment(build_spec("rician_comparison", trials=2, seed=3),
                   FullConfig())
    both = min(TRIAL_STACK, 2)  # each stack holds both draws
    assert calls == {"cp_decompose": [2 * both] * 3,  # both phases at once
                     "estimate_doppler": [both] * 3,    # one per point
                     "estimate_delay": [both] * 3,
                     "compute_gamma_statistics": [both] * 3}


def test_two_methods_warn_once_per_doppler_boundary_event():
    """A target whose Doppler sits on the unambiguous boundary puts one
    pulse column of each phase there; a stack run with both direction
    methods warns once per such column and trial, as a run with either
    method alone does."""
    cfg, point = _scene(5.0)
    half_span = 1.0 / (2 * cfg.waveform.pri_s)
    doppler = point.truth.doppler_hz.copy()
    doppler[0] = half_span
    truth = dataclasses.replace(point.truth, doppler_hz=doppler)
    clean = echo_tensors(truth, *point[1:], cfg.waveform, cfg.arrays)
    n_trials = 3
    sigma = noise_sigma_for_snr(clean, 20.0)[:, None]
    y = apply_noise(clean[:, None], sigma, [np.random.default_rng((6, b))
                                             for b in range(n_trials)])
    args = (y, sigma, *_args(cfg, point))

    def boundary_warnings(methods):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes = estimate_trials(*args, single_phase_doa=methods)
        assert all(e is None for _, errors in outcomes for e in errors)
        boundary = [w for w in caught
                    if "unambiguous boundary" in str(w.message)]
        # in the name of this file, which called estimate_trials
        assert {w.filename for w in boundary} == {__file__}
        return sorted(str(w.message) for w in boundary)

    both = boundary_warnings((False, True))
    assert len(both) == 2 * n_trials   # one column per phase and trial
    assert {m[:7] for m in both} == {"phase 1", "phase 2"}
    assert both == boundary_warnings((False,)) == boundary_warnings((True,))


def _fading_stack(n_trials, los=None):
    """Draws with their own channel and weights, trial ``los`` on a
    line-of-sight channel and the others Rician, observed at 20 dB."""
    rician = with_overrides(FullConfig(), rician_k_db=5.0)
    points = [draw_scene_point(FullConfig() if b == los else rician,
                               [np.random.default_rng((8, b))]).trial(0)
              for b in range(n_trials)]
    clean = np.stack([echo_tensors(*point, rician.waveform, rician.arrays)
                      for point in points], axis=1)
    sigma = noise_sigma_for_snr(clean, 20.0)
    rngs = [np.random.default_rng((9, b)) for b in range(n_trials)]
    return rician, points, apply_noise(clean, sigma, rngs), sigma


def _run_fading_stack(cfg, points, y, sigma):
    """Both direction methods on the stack, and each trial alone."""
    stacked = (points[0].truth.n_targets, cfg.scene.doa_prior_rad,
               stack_channels([p.channel for p in points]), points[0].profiles,
               cfg.waveform, cfg.arrays)
    outcomes = [_per_trial(r) for r in estimate_trials(
        y, sigma, *stacked, single_phase_doa=(False, True))]
    for single, results in zip((False, True), outcomes):
        for b, got in enumerate(results):
            alone = _outcome(lambda: estimate_targets(
                y[:, b], sigma[:, b], *_args(cfg, points[b]),
                single_phase_doa=single))
            _assert_same_outcome(got, _summary(alone), rtol=0)
    return outcomes


def test_a_stack_of_distinct_channels_gives_each_trial_its_own_outcome():
    """Trials with their own channel and weights, one of them line of
    sight among scattered ones, end as each does alone; only the
    line-of-sight trial fails, and only the single-phase method."""
    los = 2
    rician, points, y, sigma = _fading_stack(4, los)
    profiles = points[0].profiles
    channel = stack_channels([p.channel for p in points])
    grid = steering_vector(np.linspace(*rician.scene.doa_prior_rad, 9),
                           *rician.arrays.surface)
    truth = steering_vector(np.stack([p.truth.theta_rad for p in points]),
                            *rician.arrays.surface)
    u = channel.u
    assert channel.matrix.shape == (4, *points[0].channel.matrix.shape)
    for b, point in enumerate(points):
        alone = point.channel
        assert np.array_equal(u[b], alone.u)
        assert channel.singular_ratio()[b] == alone.singular_ratio()
        assert np.array_equal(relayed_response(channel, profiles[0], grid)[b],
                              relayed_response(alone, profiles[0], grid))
        assert np.array_equal(relayed_response(channel, profiles[1], truth)[b],
                              relayed_response(alone, profiles[1], truth[b]))
        assert np.array_equal(_gamma_ratio(grid, u, profiles)[b],
                              _gamma_ratio(grid, alone.u, profiles))

    outcomes = _run_fading_stack(rician, points, y, sigma)
    assert [type(o).__name__ for o in outcomes[0]] == ["Estimates"] * 4
    assert [type(o).__name__ for o in outcomes[1]] == [
        "RankOneChannel" if b == los else "Estimates" for b in range(4)]


def _nan_channel(point):
    """The draw with a channel matrix of NaN and its singular values intact."""
    channel = point.channel
    return point._replace(channel=dataclasses.replace(
        channel, matrix=np.full_like(channel.matrix, np.nan),
        singular_values=np.linalg.svd(channel.matrix, compute_uv=False)))


def test_a_nan_channel_fails_only_its_own_trial_in_the_direction_scan():
    """A channel matrix of NaN, with its singular values intact, gives its
    trial NoFeasibleGrid from the single-phase scan and no other trial of
    the stacked-channel stack any failure.  The cross-phase method reads
    only the dominant vector, so there every trial ends with estimates."""
    rician, points, y, sigma = _fading_stack(5)
    bad = 3
    points[bad] = _nan_channel(points[bad])
    outcomes = _run_fading_stack(rician, points, y, sigma)
    assert [type(o).__name__ for o in outcomes[0]] == ["Estimates"] * 5
    assert [type(o).__name__ for o in outcomes[1]] == [
        "NoFeasibleGrid" if b == bad else "Estimates" for b in range(5)]
    assert str(outcomes[1][bad]) == "a search row has no finite grid point"


def _aligned(y, n_targets, waveform):
    """The aligned factors of the (2, B, P, M, L) observations and the
    trials' errors, both phases factorized as one stack, as in
    ``estimate_trials``."""
    n_trials = y.shape[1]
    data = y.reshape(-1, *y.shape[2:])
    phase_errors = [None] * len(data)
    triple = cp_decompose(data, n_targets, phase_errors)
    errors = [e or f for e, f in zip(phase_errors[:n_trials],
                                     phase_errors[n_trials:])]
    aligned = align_columns(
        FactorTriple(*(f.reshape(2, n_trials, *f.shape[1:]) for f in triple)),
        waveform.subcarrier_spacing_hz, errors)
    return aligned, errors


def _scan_inputs(n_trials, los, bad):
    """The single-phase scan's arguments on a Rician stack of draws with
    their own channels, trial ``los`` on a line-of-sight channel and trial
    ``bad`` on a NaN one: each trial's aligned phase-1 antenna columns."""
    rician, points, y, _ = _fading_stack(n_trials, los)
    points[bad] = _nan_channel(points[bad])
    aligned, errors = _aligned(y, points[0].truth.n_targets, rician.waveform)
    return (aligned.antenna_factor[0],
            stack_channels([p.channel for p in points]), points[0].profiles[0],
            rician.scene.doa_prior_rad, rician.arrays), errors


def _scan_bits(scan, args, errors):
    """The bytes of a scan's directions and its failures, on a copy of the
    error list."""
    errors = list(errors)
    thetas = scan(*args, errors)
    return thetas.tobytes(), [e and _failure(e) for e in errors]


def _count_whole_grid_rows(monkeypatch):
    """A list that grows by one for each trial the scan scores from the
    relayed responses over the whole grid."""
    import irs_sensing.estimation as estimation
    calls = []

    def recorded(channel, profile, steer):
        if steer.ndim == 2 and steer.shape[-1] > steer.shape[0]:  # a bank
            calls.append(len(channel.matrix))
        return relayed_response(channel, profile, steer)
    monkeypatch.setattr(estimation, "relayed_response", recorded)
    return calls


def test_the_direction_scan_equals_the_whole_grid_search(monkeypatch):
    """On a 21-draw Rician stack holding one line-of-sight and one
    NaN-channel trial, the lag-sum scan gives every trial the directions
    and failure of the whole-grid search bit for bit, and only those two
    trials are scored over the whole grid."""
    args, errors = _scan_inputs(21, los=4, bad=11)
    calls = _count_whole_grid_rows(monkeypatch)
    got = _scan_bits(estimate_doa_multirank, args, errors)
    assert calls == [1, 1]
    assert got == _scan_bits(whole_grid_multirank, args, errors)
    failures = got[1]
    assert failures[4][0] == "RankOneChannel"
    assert failures[11][0] == "NoFeasibleGrid"
    assert failures.count(None) == 19


def test_the_whole_grid_fallback_changes_no_bit(monkeypatch):
    """With a margin that no window can meet, every trial is scored over
    the whole grid, and every direction and failure stays the same."""
    import irs_sensing.estimation as estimation
    args, errors = _scan_inputs(21, los=4, bad=11)
    want = _scan_bits(whole_grid_multirank, args, errors)
    calls = _count_whole_grid_rows(monkeypatch)
    monkeypatch.setattr(estimation, "SCAN_MARGIN", 1.0)
    assert _scan_bits(estimate_doa_multirank, args, errors) == want
    assert calls == [1] * 21


def _traced_peak(run):
    """The tracemalloc peak of one call of ``run``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_the_factorization_sets_the_estimator_memory_peak():
    """On one 50-trial stack the Doppler search, which scores the whole
    stack at once, peaks below half of ``cp_decompose`` on both phases, and
    no step of ``estimate_trials`` peaks above ``cp_decompose``."""
    cfg, point = _scene(None)
    y, sigma = _noisy_stack(cfg, point, TRIAL_STACK, seed=3)
    data = y.reshape(-1, *y.shape[2:])  # both phases, as estimate_trials
    aligned, errors = _aligned(y, 2, cfg.waveform)
    args = (y, sigma, *_args(cfg, point))
    estimate_trials(*args)  # builds the cached grids
    factorization = _traced_peak(
        lambda: cp_decompose(data, 2, [None] * len(data)))
    doppler = _traced_peak(
        lambda: estimate_doppler(aligned, cfg.waveform, list(errors)))
    estimator = _traced_peak(lambda: estimate_trials(*args))
    assert doppler < factorization / 2
    assert estimator < factorization * 1.01


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_the_factorization_sets_the_memory_peak_of_both_direction_methods():
    """On one 50-draw Rician stack, each draw with its own channel, neither
    direction method, nor both on one call, lifts the ``estimate_trials``
    peak above that of ``cp_decompose`` on both phases: the single-phase
    scan scores the stack in one pass but forms no relayed response bank."""
    rician, points, y, sigma = _fading_stack(TRIAL_STACK)
    data = y.reshape(-1, *y.shape[2:])  # both phases, as estimate_trials
    args = (y, sigma, points[0].truth.n_targets, rician.scene.doa_prior_rad,
            stack_channels([p.channel for p in points]), points[0].profiles,
            rician.waveform, rician.arrays)
    estimate_trials(*args, single_phase_doa=(False, True))  # the cached grids
    factorization = _traced_peak(
        lambda: cp_decompose(data, 2, [None] * len(data)))
    for methods in ((False, True), (True,), (False,)):
        estimator = _traced_peak(
            lambda: estimate_trials(*args, single_phase_doa=methods))
        assert estimator < factorization * 1.01, methods


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_the_cross_phase_ratio_peaks_no_higher_than_the_single_phase_scan():
    """On one 50-draw one-target Rician stack (5 dB k-factor, 10 dB SNR),
    ``estimate_trials`` with the cross-phase ratio method peaks no higher
    than with the single-phase scan: gamma(theta) is divided and squared in
    place, with no masked copies."""
    cfg = with_overrides(FullConfig(), rician_k_db=5.0,
                         targets=FullConfig().scene.targets[:1])
    rngs = [np.random.default_rng((1, b)) for b in range(TRIAL_STACK)]
    point = draw_scene_point(cfg, rngs)  # a channel per draw
    clean = echo_tensors(*point, cfg.waveform, cfg.arrays)
    sigma = noise_sigma_for_snr(clean, 10.0)
    args = (apply_noise(clean, sigma, rngs), sigma, 1, cfg.scene.doa_prior_rad,
            point.channel, point.profiles, cfg.waveform, cfg.arrays)
    estimate_trials(*args, single_phase_doa=(False, True))  # the cached grids
    two_phase, single_phase = (_traced_peak(
        lambda: estimate_trials(*args, single_phase_doa=(method,)))
        for method in (False, True))
    assert two_phase <= single_phase * 1.01
