"""A stack of trials gives every trial the outcome it has on its own."""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from irs_sensing.config import default_config, with_overrides
from irs_sensing.cpd import (FactorTriple, cp_decompose, cp_reconstruct,
                             reconstruction_error)
from irs_sensing.errors import (EstimationError, IllConditionedShift,
                                RankDeficient, UnwrapInfeasible)
from irs_sensing.estimation import estimate_targets, estimate_trials
from irs_sensing.experiments import build_spec, run_experiment
from irs_sensing.scene import design_phase_profiles, draw_scene_point
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
    return (len(point.truth.targets), cfg.scene.doa_prior_rad, point.channel,
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
    spec = build_spec(preset, trials=5, seed=4)
    rows = []
    for size in (1, 2, 8):
        monkeypatch.setattr(experiments, "TRIAL_STACK", size)
        rows.append(run_experiment(spec, default_config()))
    assert repr(rows[0]) == repr(rows[1]) == repr(rows[2])


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
    assert calls == [1] * (3 * 2 * 2)   # points x draws x phases
