"""A stack of trials gives every trial the outcome it has on its own."""
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from irs_sensing.config import default_config, with_overrides
from irs_sensing.cpd import (FactorTriple, cp_decompose, cp_reconstruct,
                             reconstruction_error)
from irs_sensing.errors import (EstimationError, IllConditionedShift,
                                RankDeficient, UnwrapInfeasible)
from irs_sensing.estimation import (GRID_SLICE, _gamma_ratio, align_columns,
                                    estimate_doppler, estimate_targets,
                                    estimate_trials)
from irs_sensing.experiments import TRIAL_STACK, build_spec, run_experiment
from irs_sensing.scene import (design_phase_profiles, draw_scene_point,
                               relayed_response, stack_channels,
                               steering_vector)
from irs_sensing.synthesis import EchoTensor, apply_noise, echo_tensors

SNRS_DB = np.linspace(-10.0, 20.0, 7)


def _scene(rician_k_db):
    cfg = with_overrides(default_config(), rician_k_db=rician_k_db)
    profiles = design_phase_profiles(cfg.scene.doa_prior_rad, cfg.arrays,
                                     cfg.scene.n_subarrays)
    point = draw_scene_point(cfg, profiles, np.random.default_rng(5))
    return cfg, point


def _noisy_stack(cfg, point, n_trials, seed):
    """Trials of one scene point at SNRs cycling from -10 to 20 dB."""
    clean = echo_tensors(*point, cfg.waveform, cfg.arrays)
    trials = []
    for b in range(n_trials):
        rng = np.random.default_rng((seed, b))
        trials.append([apply_noise(t, SNRS_DB[b % len(SNRS_DB)], rng)
                       for t in clean])
    return [t[0] for t in trials], [t[1] for t in trials]


def _args(cfg, point):
    return (point.truth.n_targets, cfg.scene.doa_prior_rad, point.channel,
            point.profiles, point.combiner, cfg.waveform, cfg.arrays)


def _trial(triple, b):
    """Trial b of a stack of factor triples, as a one-trial stack."""
    return FactorTriple(*(a[b:b + 1] for a in dataclasses.astuple(triple)))


def _outcome(run):
    try:
        return run()
    except EstimationError as exc:
        return exc


def _summary(outcome):
    """[class name, message] of a failure, else (theta, tau, nu) rows."""
    if isinstance(outcome, EstimationError):
        return [type(outcome).__name__, str(outcome)]
    return [[e.theta_hat, e.tau_hat, e.nu_hat] for e in outcome]


def _bits(outcome):
    """[class name, message] of a failure, else the repr of the estimates,
    which round-trips every float bit for bit."""
    if isinstance(outcome, EstimationError):
        return [type(outcome).__name__, str(outcome)]
    return repr(outcome)


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
    y1, y2 = _noisy_stack(cfg, point, 21, seed=17)
    args = _args(cfg, point)
    outcomes = estimate_trials(y1, y2, *args, single_phase_doa=(False, True))
    assert any(isinstance(o, UnwrapInfeasible) for o in outcomes[0])
    assert any(not isinstance(o, EstimationError) for o in outcomes[0])
    channel = "los" if rician_k_db is None else "rician"
    for single, results in zip((False, True), outcomes):
        pinned = PINNED[f"{channel}_{'single' if single else 'two'}_phase"]
        assert len(results) == len(pinned) == len(y1)
        for b, got in enumerate(results):
            alone = _outcome(lambda: estimate_targets(
                y1[b], y2[b], *args, single_phase_doa=single))
            _assert_same_outcome(got, _summary(alone), rtol=0)
            _assert_same_outcome(got, pinned[b], rtol=1e-12)


def _on_last_subcarrier(cfg, rng, n_last=1):
    """Two components, the last ``n_last`` of them on the last subcarrier
    only.  With one there, the signal subspace restricted to the first L-1
    subcarriers has rank one; with both, the shift operator is zero, so its
    eigenvalues have no unit-modulus scaling."""
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
    y = _on_last_subcarrier(default_config(), np.random.default_rng(3))
    errors = [None]
    cp_decompose(y[None], 2, errors)
    assert isinstance(errors[0], IllConditionedShift)
    assert "condition number" in str(errors[0])


def test_ill_conditioned_member_fails_alone():
    """Only the ill-conditioned trial of a stack fails; the factors of the
    others are those of their own calls, bit for bit."""
    cfg, point = _scene(None)
    y1, y2 = _noisy_stack(cfg, point, 4, seed=2)
    bad = _on_last_subcarrier(cfg, np.random.default_rng(3))
    data = np.stack([y1[0].data, bad, y1[2].data, y1[3].data])
    errors = [None] * 4
    triple = cp_decompose(data, 2, errors)
    assert isinstance(errors[1], IllConditionedShift)
    assert [e is None for e in errors] == [True, False, True, True]
    for b in (0, 2, 3):
        alone_errors = [None]
        alone = cp_decompose(data[b:b + 1], 2, alone_errors)
        assert alone_errors == [None]
        for got, want in zip(dataclasses.astuple(_trial(triple, b)),
                             dataclasses.astuple(alone)):
            assert np.array_equal(got, want)

    y1[1] = EchoTensor(data=bad, phase_index=1, noise_sigma=0.0)
    args = _args(cfg, point)
    [results] = estimate_trials(y1, y2, *args)
    assert isinstance(results[1], IllConditionedShift)
    assert str(results[1]).startswith("phase 1: shift subspace")
    with pytest.raises(IllConditionedShift, match="^phase 1: shift subspace"):
        estimate_targets(y1[1], y2[1], *args)
    for b, got in enumerate(results):
        _assert_same_outcome(got, _summary(_outcome(lambda: estimate_targets(
            y1[b], y2[b], *args))), rtol=0)


def test_a_trial_failing_two_checks_reports_the_first():
    """One component on the last subcarrier only, two requested: the rank
    check fails, and so would the later shift-conditioning check."""
    y = _on_last_subcarrier(default_config(), np.random.default_rng(3))
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
    y1, _ = _noisy_stack(cfg, point, 3, seed=9)
    data = np.stack([t.data for t in y1])
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
    y1, y2 = _noisy_stack(cfg, point, max(healthy, unwrap) + 1, seed=17)
    zero = np.zeros_like(y1[0].data)
    bad = _on_last_subcarrier(cfg, np.random.default_rng(3), n_last=2)

    def echo(data, phase):
        return EchoTensor(data=data, phase_index=phase, noise_sigma=0.0)

    s1 = [y1[healthy], echo(zero, 1), echo(bad, 1), y1[healthy], y1[unwrap]]
    s2 = [y2[healthy], echo(zero, 2), y2[healthy], echo(zero, 2), y2[unwrap]]
    args = _args(cfg, point)
    outcomes = estimate_trials(s1, s2, *args, single_phase_doa=(False, True))
    assert [type(o).__name__ for o in outcomes[0]] == [
        "list", "RankDeficient", "IllConditionedShift", "RankDeficient",
        "UnwrapInfeasible"]
    assert str(outcomes[0][2]) == "phase 1: shift operator has a zero eigenvalue"
    assert str(outcomes[0][3]) == "phase 2: zero tensor"
    for single, results in zip((False, True), outcomes):
        for b, got in enumerate(results):
            alone = _outcome(lambda: estimate_targets(
                s1[b], s2[b], *args, single_phase_doa=single))
            _assert_same_outcome(got, _summary(alone), rtol=0)


def test_shared_factorization_warns_once_per_phase_for_both_methods():
    """Two direction methods share one factorization, so an undercounted
    scene warns about the reconstruction residual once per phase."""
    cfg, point = _scene(5.0)
    clean = echo_tensors(*point, cfg.waveform, cfg.arrays)
    args = (1, *_args(cfg, point)[1:])
    with pytest.warns(UserWarning, match="component count") as caught:
        estimate_trials([clean[0]], [clean[1]], *args,
                        single_phase_doa=(False, True))
    assert [str(w.message)[:7] for w in caught] == ["phase 1", "phase 2"]
    # both entry points blame their caller's line
    with pytest.warns(UserWarning, match="component count") as alone:
        estimate_targets(clean[0], clean[1], *args)
    assert {w.filename for w in [*caught, *alone]} == {__file__}


@pytest.mark.parametrize("preset", ["mse_vs_snr", "rician_comparison"])
def test_results_do_not_depend_on_the_stack_size(monkeypatch, preset):
    import irs_sensing.experiments as experiments
    # more trials than one stack, and than one slice of the grid searches
    spec = build_spec(preset, trials=TRIAL_STACK + GRID_SLICE + 1, seed=4)
    rows = []
    for size in (1, 2, 8, TRIAL_STACK):
        monkeypatch.setattr(experiments, "TRIAL_STACK", size)
        rows.append(repr(run_experiment(spec, default_config())))
    assert rows == [rows[0]] * len(rows)


def test_grid_slices_change_no_trial_outcome(monkeypatch):
    """Scoring the grid searches in slices of 1, 2 or 3 trials gives every
    trial of the Rician stack, under both direction methods, the outcome of
    one search over the whole stack, bit for bit."""
    import irs_sensing.estimation as estimation
    cfg, point = _scene(5.0)
    y1, y2 = _noisy_stack(cfg, point, 21, seed=17)
    outcomes = {}
    for size in (len(y1) + 1, 1, 2, 3):
        monkeypatch.setattr(estimation, "GRID_SLICE", size)
        outcomes[size] = [[_bits(o) for o in results] for results in
                          estimate_trials(y1, y2, *_args(cfg, point),
                                          single_phase_doa=(False, True))]
    whole = outcomes.pop(len(y1) + 1)
    assert {type(o) for o in whole[0]} == {list, str}  # failures, estimates
    for size, got in outcomes.items():
        assert got == whole, size


def test_fading_draw_factorizes_once_for_both_direction_methods(monkeypatch):
    import irs_sensing.estimation as estimation
    calls = []
    real = estimation.cp_decompose

    def counted(data, n_components, errors):
        calls.append(len(data))
        return real(data, n_components, errors)

    monkeypatch.setattr(estimation, "cp_decompose", counted)
    run_experiment(build_spec("rician_comparison", trials=2, seed=3),
                   default_config())
    # points x phases, each a stack of both draws
    assert calls == [min(TRIAL_STACK, 2)] * (3 * 2)


def _fading_stack(n_trials, los=None):
    """Draws with their own channel and combiner, trial ``los`` on a
    line-of-sight channel and the others Rician, observed at 20 dB."""
    rician = with_overrides(default_config(), rician_k_db=5.0)
    profiles = design_phase_profiles(rician.scene.doa_prior_rad,
                                     rician.arrays, rician.scene.n_subarrays)
    points = [draw_scene_point(default_config() if b == los else rician,
                               profiles, np.random.default_rng((8, b)))
              for b in range(n_trials)]
    y1, y2 = [], []
    for b, point in enumerate(points):
        rng = np.random.default_rng((9, b))
        clean = echo_tensors(*point, rician.waveform, rician.arrays)
        y1.append(apply_noise(clean[0], 20.0, rng))
        y2.append(apply_noise(clean[1], 20.0, rng))
    return rician, points, y1, y2


def _run_fading_stack(cfg, points, y1, y2):
    """Both direction methods on the stack, and each trial alone."""
    stacked = (points[0].truth.n_targets, cfg.scene.doa_prior_rad,
               stack_channels([p.channel for p in points]), points[0].profiles,
               np.stack([p.combiner for p in points]), cfg.waveform,
               cfg.arrays)
    outcomes = estimate_trials(y1, y2, *stacked, single_phase_doa=(False, True))
    for single, results in zip((False, True), outcomes):
        for b, got in enumerate(results):
            alone = _outcome(lambda: estimate_targets(
                y1[b], y2[b], *_args(cfg, points[b]), single_phase_doa=single))
            _assert_same_outcome(got, _summary(alone), rtol=0)
    return outcomes


def test_a_stack_of_distinct_channels_gives_each_trial_its_own_outcome():
    """Trials with their own channel and combiner, one of them line of
    sight among scattered ones, end as each does alone; only the
    line-of-sight trial fails, and only the single-phase method."""
    los = 2
    rician, points, y1, y2 = _fading_stack(4, los)
    profiles = points[0].profiles
    channel = stack_channels([p.channel for p in points])
    grid = steering_vector(np.linspace(*rician.scene.doa_prior_rad, 9),
                           *rician.arrays.surface)
    truth = steering_vector(np.stack([p.truth.theta_rad for p in points]),
                            *rician.arrays.surface)
    u = channel.irs_side_vector()
    assert channel.matrix.shape == (4, *points[0].channel.matrix.shape)
    for b, point in enumerate(points):
        alone = point.channel
        assert np.array_equal(u[b], alone.irs_side_vector())
        assert channel.singular_ratio()[b] == alone.singular_ratio()
        assert np.array_equal(relayed_response(channel, profiles[0], grid)[b],
                              relayed_response(alone, profiles[0], grid))
        assert np.array_equal(relayed_response(channel, profiles[1], truth)[b],
                              relayed_response(alone, profiles[1], truth[b]))
        assert np.array_equal(_gamma_ratio(grid, u, profiles)[b],
                              _gamma_ratio(grid, alone.irs_side_vector(),
                                           profiles))

    outcomes = _run_fading_stack(rician, points, y1, y2)
    assert [type(o).__name__ for o in outcomes[0]] == ["list"] * 4
    assert [type(o).__name__ for o in outcomes[1]] == [
        "RankOneChannel" if b == los else "list" for b in range(4)]


def test_a_failure_in_a_later_grid_slice_lands_on_its_own_trial(monkeypatch):
    """A zeroed combiner gives its trial, in the second slice of the grid
    searches, DivisionBlowup under both direction methods and no other
    trial of the stacked-channel stack any failure."""
    import irs_sensing.estimation as estimation
    monkeypatch.setattr(estimation, "GRID_SLICE", 2)
    rician, points, y1, y2 = _fading_stack(5)
    bad = 3
    points[bad] = points[bad]._replace(
        combiner=np.zeros_like(points[bad].combiner))
    for results in _run_fading_stack(rician, points, y1, y2):
        assert [type(o).__name__ for o in results] == [
            "DivisionBlowup" if b == bad else "list" for b in range(5)]
        assert str(results[bad]).startswith("phase 1, target 0: all pulse")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_doppler_search_memory_does_not_grow_with_the_stack():
    """The Doppler grid search holds the scores of one slice of trials, so
    its peak allocation on 16 trials is under twice that on 2."""
    cfg, point = _scene(None)
    y1, y2 = _noisy_stack(cfg, point, 16, seed=3)

    def peak(n_trials):
        errors = [None] * n_trials
        aligned = align_columns(*(cp_decompose(
            np.stack([t.data for t in y[:n_trials]]), 2, errors)
            for y in (y1, y2)), cfg.waveform.subcarrier_spacing_hz, errors)
        thetas = np.broadcast_to(point.truth.theta_rad, (n_trials, 2))
        args = (aligned, thetas, point.channel, point.profiles,
                point.combiner, cfg.waveform, cfg.arrays, errors)
        estimate_doppler(*args)  # builds the cached Doppler grid
        tracemalloc.start()
        try:
            estimate_doppler(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) < 2 * peak(2)
