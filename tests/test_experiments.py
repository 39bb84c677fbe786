"""Sweep driver: presets, aggregation, failure counting, result emission."""
import dataclasses
import json
import math
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irs_sensing.experiments as experiments
from irs_sensing.config import FullConfig
from irs_sensing.errors import ConfigError
from irs_sensing.estimation import greedy_match
from irs_sensing.experiments import (CSV_HEADER, DEFAULT_SEED, DEFAULT_TRIALS,
                                     PARAMETER_LABELS, PRESET_NAMES,
                                     ExperimentSpec, ResultRow, build_spec,
                                     emit_results, read_results_csv,
                                     resolve_sweep_point, run_experiment)


def _rows_equal(a: ResultRow, b: ResultRow) -> bool:
    def num_eq(x, y):
        return (math.isnan(x) and math.isnan(y)) or x == y
    return (a.sweep_name == b.sweep_name and a.parameter == b.parameter
            and num_eq(a.sweep_value, b.sweep_value) and num_eq(a.mse, b.mse)
            and num_eq(a.crb, b.crb) and a.trials_used == b.trials_used
            and a.failures == b.failures)


# ---------------------------------------------------------------- specs

def test_build_spec_defaults():
    spec = build_spec("mse_vs_snr")
    assert spec.trials == DEFAULT_TRIALS
    assert spec.seed == DEFAULT_SEED
    assert spec.sweep_parameter == "snr_db"
    assert not spec.redraw_fading and not spec.compare_single_phase


def test_build_spec_overrides_and_presets():
    for name in PRESET_NAMES:
        spec = build_spec(name, trials=3, seed=42)
        assert spec.trials == 3 and spec.seed == 42 and spec.preset == name


def test_build_spec_unknown_preset():
    with pytest.raises(ConfigError):
        build_spec("definitely_not_a_preset")


def test_spec_validation():
    base = build_spec("mse_vs_snr")
    with pytest.raises(ConfigError):
        dataclasses.replace(base, trials=0)
    with pytest.raises(ConfigError):
        dataclasses.replace(base, sweep_values=())
    for field, value in [("seed", -1), ("seed", True), ("seed", 1.0),
                         ("seed", "1"), ("trials", True), ("trials", 2.5)]:
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(base, **{field: value})
    assert dataclasses.replace(base, seed=0).seed == 0


def test_fading_comparison_preset_shape():
    spec = build_spec("rician_comparison")
    assert spec.redraw_fading and spec.compare_single_phase
    assert spec.n_targets == 1
    assert spec.sweep_values == (0.0, 5.0, 13.0)


def test_spec_holds_the_callers_four_values_and_the_preset_the_rest():
    """A spec takes the preset, trials, seed and sweep values; every other
    attribute is the preset's row, set on construction and refused by
    ``dataclasses.replace``, so an SNR on an SNR sweep or a string flag can
    no longer be set and then ignored or read for truth.  No sweep values
    give the preset's own."""
    assert [f.name for f in dataclasses.fields(ExperimentSpec) if f.init] == [
        "preset", "trials", "seed", "sweep_values"]
    for name in PRESET_NAMES:
        spec = ExperimentSpec(name, 2, 3)
        row = experiments._PRESET_TABLE[name]
        assert spec == ExperimentSpec(name, 2, 3, None) == build_spec(name, 2, 3)
        assert all(getattr(spec, key) == value for key, value in row.items())
        for field in dataclasses.fields(spec):
            if not field.init:
                with pytest.raises(ValueError, match=field.name):
                    dataclasses.replace(
                        spec, **{field.name: getattr(spec, field.name)})
    for change in [dict(sweep_values=(10.0,), snr_db=-5.0),
                   dict(redraw_fading="no"), dict(sweep_parameter="bandwidth")]:
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(build_spec("mse_vs_snr", trials=2), **change)
    with pytest.raises(ConfigError, match="unknown preset"):
        ExperimentSpec("nope", 2, 3)


@pytest.mark.parametrize("preset,change", [
    ("mse_vs_pulses", dict(snr_db=None)),
    ("mse_vs_snr", dict(sweep_values=(0.0, "x"))),
    ("mse_vs_snr", dict(sweep_values=(math.nan,))),
    ("mse_vs_pulses", dict(snr_db=-math.inf)),
    ("rician_comparison", dict(n_targets=2.5)),
    ("rician_comparison", dict(n_targets=-1)),
    ("rician_comparison", dict(n_targets=True)),
    ("rician_comparison", dict(n_targets=5)),
], ids=repr)
def test_bad_snr_or_target_count_rejected(preset, change):
    """An SNR sweep value that is not a number of dB above -inf gives a
    one-line ConfigError; the fixed SNR and the target count are the
    preset's, so setting either is refused.  None runs."""
    error = ConfigError if "sweep_values" in change else ValueError
    with pytest.raises(error) as info:
        run_experiment(dataclasses.replace(build_spec(preset, trials=1, seed=3),
                                           **change), FullConfig())
    assert "\n" not in str(info.value)


def test_resolve_sweep_point_rejects_invalid_value():
    spec = dataclasses.replace(build_spec("mse_vs_subcarriers"),
                               sweep_values=(0,))
    with pytest.raises(ConfigError):
        resolve_sweep_point(spec, FullConfig(), 0)


# ---------------------------------------------------------------- matching

def _pair_by_delay(estimated, truth):
    """Estimates paired with truth by delay distance, as the sweep does."""
    return greedy_match(np.abs(np.subtract.outer(estimated, truth))).tolist()


def test_match_by_delay_identity_and_swap():
    assert _pair_by_delay([1.0, 2.0], [1.0, 2.0]) == [0, 1]
    assert _pair_by_delay([2.0, 1.0], [1.0, 2.0]) == [1, 0]
    assert _pair_by_delay([1.49, 2.0], [1.5, 2.1]) == [0, 1]


@given(values=st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                       max_size=6, unique=True),
       data=st.data())
@settings(max_examples=50, deadline=None)
def test_match_by_delay_is_one_to_one(values, data):
    perm = data.draw(st.permutations(range(len(values))))
    estimated = [values[p] for p in perm]
    out = _pair_by_delay(estimated, values)
    assert sorted(out) == list(range(len(values)))
    # with exactly coincident values the pairing is the inverse permutation
    assert [values[j] for j in out] == estimated


# ---------------------------------------------------------------- running

@pytest.fixture(scope="module")
def tiny_rows():
    spec = dataclasses.replace(build_spec("mse_vs_snr", trials=2, seed=3),
                               sweep_values=(10.0, 20.0))
    return spec, run_experiment(spec, FullConfig())


def test_run_row_layout(tiny_rows):
    spec, rows = tiny_rows
    assert len(rows) == len(spec.sweep_values) * len(PARAMETER_LABELS)
    for value in spec.sweep_values:
        chunk = [r for r in rows if r.sweep_value == value]
        assert tuple(r.parameter for r in chunk) == PARAMETER_LABELS
        for row in chunk:
            assert row.sweep_name == "snr_db"
            assert row.trials_used + row.failures == spec.trials
            assert row.mse > 0 and row.crb > 0


def test_run_is_deterministic(tiny_rows):
    spec, rows = tiny_rows
    again = run_experiment(spec, FullConfig())
    assert len(again) == len(rows)
    assert all(_rows_equal(a, b) for a, b in zip(rows, again))


def test_run_noiseless_is_near_exact():
    spec = dataclasses.replace(build_spec("mse_vs_snr", trials=1, seed=5),
                               sweep_values=(math.inf,))
    rows = run_experiment(spec, FullConfig())
    by_param = {r.parameter: r for r in rows}
    assert by_param["tau"].mse < 1e-24
    assert by_param["theta"].mse < 1e-10
    assert by_param["nu"].mse < 1e-6
    # no noise means no finite bound to report
    assert math.isnan(by_param["tau"].crb)


@pytest.mark.parametrize("preset,value", [("mse_vs_pulses", math.nan),
                                          ("rician_comparison", math.inf)])
def test_non_finite_sweep_value_rejected(preset, value):
    """A sweep value that reaches a config field is checked like one."""
    spec = dataclasses.replace(build_spec(preset, trials=1, seed=3),
                               sweep_values=(value,))
    with pytest.raises(ConfigError, match="bad value"):
        run_experiment(spec, FullConfig())


def test_run_counts_unidentifiable_point_as_failures():
    spec = dataclasses.replace(build_spec("mse_vs_subcarriers", trials=2,
                                          seed=3),
                               sweep_values=(1,))
    rows = run_experiment(spec, FullConfig())
    assert len(rows) == 3
    for row in rows:
        assert row.failures == spec.trials
        assert row.trials_used == 0
        assert math.isnan(row.mse)


def test_run_comparison_preset_emits_both_methods():
    spec = dataclasses.replace(build_spec("rician_comparison", trials=1,
                                          seed=3),
                               sweep_values=(0.0,))
    rows = run_experiment(spec, FullConfig())
    names = {r.sweep_name for r in rows}
    assert names == {"rician_db_two_phase", "rician_db_single_phase"}
    assert len(rows) == 6


def test_scene_point_drawn_once_per_frozen_point_or_fading_trial(monkeypatch):
    """The fading preset draws one point per trial and no unused frozen one:
    the generators drawn are counted, one call drawing a whole stack."""
    calls = []
    real = experiments.draw_scene_point

    def counted(cfg, rngs):
        calls.append(len(rngs))
        return real(cfg, rngs)

    monkeypatch.setattr(experiments, "draw_scene_point", counted)
    run_experiment(build_spec("rician_comparison", trials=2, seed=3),
                   FullConfig())
    assert sum(calls) == 3 * 2
    assert calls == [2] * 3    # one stack per sweep point
    calls.clear()
    run_experiment(build_spec("mse_vs_pulses", trials=2, seed=3),
                   FullConfig())
    assert sum(calls) == 4
    assert calls == [1] * 4


def test_scene_validated_once_per_sweep_point(monkeypatch):
    """The scene is checked only in the draw of each stack: one check per
    sweep point of one stack, for the redrawn and the frozen presets alike."""
    import irs_sensing.scene as scene
    calls = []
    real = scene.validate_scene

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scene, "validate_scene", counted)
    run_experiment(build_spec("rician_comparison", trials=2, seed=3),
                   FullConfig())
    assert len(calls) == 3
    calls.clear()
    run_experiment(build_spec("mse_vs_pulses", trials=2, seed=3),
                   FullConfig())
    assert len(calls) == 4


def test_bound_computed_once_per_stack_of_draws(monkeypatch):
    """A fading point computes one information matrix per stack of
    draws, a frozen point one in all."""
    shapes = []
    real = experiments.compute_fim

    def counted(truth, *args):
        shapes.append(truth.theta_rad.shape)
        return real(truth, *args)

    monkeypatch.setattr(experiments, "compute_fim", counted)
    trials = experiments.TRIAL_STACK + 1
    spec = dataclasses.replace(build_spec("rician_comparison", trials=trials,
                                          seed=3), sweep_values=(5.0,))
    run_experiment(spec, FullConfig())
    assert shapes == [(experiments.TRIAL_STACK, 1), (1, 1)]
    shapes.clear()
    run_experiment(dataclasses.replace(build_spec("mse_vs_pulses", trials=trials,
                                                  seed=3), sweep_values=(10,)),
                   FullConfig())
    assert shapes == [(1, 2)]


def test_fading_stack_frees_its_clean_tensors_before_estimation(monkeypatch):
    """A fading stack's clean tensors serve only its own noise and are gone
    when its estimator runs; a frozen point's serve every stack and stay."""
    clean, alive = [], []
    real_synthesize = experiments.echo_tensors
    real_estimate = experiments.estimate_trials

    def synthesize(*args):
        tensors = real_synthesize(*args)
        clean.append(weakref.ref(tensors))
        return tensors

    def estimate(*args):
        alive.append(sum(ref() is not None for ref in clean))
        return real_estimate(*args)

    monkeypatch.setattr(experiments, "echo_tensors", synthesize)
    monkeypatch.setattr(experiments, "estimate_trials", estimate)
    trials = experiments.TRIAL_STACK + 1
    run_experiment(dataclasses.replace(
        build_spec("rician_comparison", trials=trials, seed=3),
        sweep_values=(5.0,)), FullConfig())
    assert alive == [0, 0]
    clean.clear()
    alive.clear()
    run_experiment(dataclasses.replace(
        build_spec("mse_vs_pulses", trials=trials, seed=3),
        sweep_values=(10,)), FullConfig())
    assert alive == [1, 1]


@pytest.mark.parametrize("preset", ["mse_vs_subcarriers", "rician_comparison"])
def test_a_stack_drops_its_observations_before_the_next_stack_draws_noise(
        monkeypatch, preset):
    """Two stacks' observations never coexist: when a stack's noise is
    drawn, no earlier stack's observations are alive, also after a
    factorization check that the whole stack fails (one subcarrier), whose
    error every trial of the stack holds."""
    observed, alive = [], []
    real_noise = experiments.apply_noise

    def noise(*args):
        alive.append(sum(ref() is not None for ref in observed))
        y = real_noise(*args)
        observed.append(weakref.ref(y))
        return y

    monkeypatch.setattr(experiments, "apply_noise", noise)
    spec = build_spec(preset, trials=experiments.TRIAL_STACK + 1, seed=3)
    run_experiment(dataclasses.replace(spec, sweep_values=spec.sweep_values[:2]),
                   FullConfig())
    assert alive == [0] * 4


def test_a_fading_stack_drops_its_channel_before_the_next_draw(monkeypatch):
    """A fading stack's draws serve that stack alone: when the next stack,
    of the same sweep point or the next, is drawn, no earlier stack's
    channel matrix is alive."""
    channels, alive = [], []
    real_draw = experiments.draw_scene_point

    def draw(*args):
        alive.append(sum(ref() is not None for ref in channels))
        point = real_draw(*args)
        channels.append(weakref.ref(point.channel.matrix))
        return point

    monkeypatch.setattr(experiments, "draw_scene_point", draw)
    spec = build_spec("rician_comparison", trials=experiments.TRIAL_STACK + 1,
                      seed=3)
    run_experiment(dataclasses.replace(spec, sweep_values=spec.sweep_values[:2]),
                   FullConfig())
    assert alive == [0] * 4


# ---------------------------------------------------------------- BLAS threads

@pytest.fixture
def blas_threads():
    """The OpenBLAS thread-count getter, with the caller's count set to 2
    for the test and put back after it."""
    calls = experiments._openblas_thread_calls()
    if calls is None:
        pytest.skip("NumPy does not bundle OpenBLAS here")
    get, put = calls
    before = get()
    put(2)
    yield get
    put(before)


def _spy_on_estimator(monkeypatch, get):
    """Record the BLAS thread count each estimator stack runs at."""
    seen = []
    real = experiments.estimate_trials

    def spy(*args):
        seen.append(get())
        return real(*args)

    monkeypatch.setattr(experiments, "estimate_trials", spy)
    return seen


def test_sweep_runs_on_one_blas_thread(monkeypatch, blas_threads):
    seen = _spy_on_estimator(monkeypatch, blas_threads)
    run_experiment(build_spec("mse_vs_pulses", trials=2, seed=3),
                   FullConfig())
    assert seen == [1] * 4


def test_callers_blas_threads_restored_after_return(monkeypatch, blas_threads):
    """Also a nested run: it restores the one thread it found."""
    found = []
    real = experiments.resolve_sweep_point

    def nested(*args):
        if not found:
            found.append(blas_threads())
            run_experiment(build_spec("mse_vs_snr", trials=1, seed=3),
                           FullConfig())
            found.append(blas_threads())
        return real(*args)

    monkeypatch.setattr(experiments, "resolve_sweep_point", nested)
    run_experiment(build_spec("mse_vs_pulses", trials=1, seed=3),
                   FullConfig())
    assert found == [1, 1]
    assert blas_threads() == 2


def test_callers_blas_threads_restored_after_config_error(monkeypatch,
                                                          blas_threads):
    seen = _spy_on_estimator(monkeypatch, blas_threads)
    spec = dataclasses.replace(build_spec("mse_vs_subcarriers", trials=1,
                                          seed=3), sweep_values=(4, 0))
    with pytest.raises(ConfigError):
        run_experiment(spec, FullConfig())
    assert seen == [1]
    assert blas_threads() == 2


def test_run_without_openblas_gives_the_same_rows(monkeypatch, blas_threads,
                                                  tiny_rows):
    """Under another BLAS the threads are left alone and the rows match."""
    seen = _spy_on_estimator(monkeypatch, blas_threads)
    monkeypatch.setattr(experiments, "_openblas_thread_calls", lambda: None)
    spec, rows = tiny_rows
    again = run_experiment(spec, FullConfig())
    assert seen == [2, 2]
    assert len(again) == len(rows)
    assert all(_rows_equal(a, b) for a, b in zip(rows, again))


def test_import_looks_up_no_blas_library():
    src = str(Path(experiments.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r});"
            "import irs_sensing, irs_sensing.cli, irs_sensing.experiments as e;"
            "print(e._openblas_thread_calls.cache_info().misses,"
            " e._mallopt.cache_info().misses)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0 0"


# ---------------------------------------------------------------- heap

def test_heap_thresholds_raised_for_the_sweep_and_reset_after_a_raise(
        monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "_mallopt",
                        lambda: lambda param, value: calls.append((param, value)))
    raised = [(-1, 256 << 20), (-3, 32 << 20)]
    reset = [(-1, 128 << 10), (-3, 128 << 10)]
    run_experiment(build_spec("mse_vs_pulses", trials=1, seed=3), FullConfig())
    assert calls == raised + reset
    calls.clear()
    spec = dataclasses.replace(build_spec("mse_vs_subcarriers", trials=1,
                                          seed=3), sweep_values=(4, 0))
    with pytest.raises(ConfigError):
        run_experiment(spec, FullConfig())
    assert calls == raised + reset


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_a_second_sweep_page_faults_little_new_memory():
    """The sweep keeps its heap from stack to stack, so a second run of a
    40-trial ``mse_vs_snr`` sweep maps little memory anew; with glibc
    trimming the heap after each stack it took about 8100 minor faults.
    A fresh interpreter keeps the count free of this process's heap."""
    src = str(Path(experiments.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r});"
            "import resource; from irs_sensing.config import FullConfig;"
            "from irs_sensing.experiments import build_spec, run_experiment;"
            "spec, config = build_spec('mse_vs_snr', trials=40), FullConfig();"
            "run_experiment(spec, config);"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt;"
            "run_experiment(spec, config);"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 1000


# ---------------------------------------------------------------- emission

def _sample_rows():
    return [
        ResultRow("snr_db", 0.0, "theta", 1.5e-6, 2.5e-7, 200, 0),
        ResultRow("snr_db", 0.0, "nu", 3.25, 1.125, 200, 0),
        ResultRow("snr_db", 0.0, "tau", math.nan, math.nan, 0, 200),
        ResultRow("snr_db", math.inf, "theta", math.inf, -math.inf, 200, 0),
    ]


def test_emit_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results([], path)
    assert path.read_text().splitlines() == [",".join(CSV_HEADER)]


def test_emit_csv_roundtrip(tmp_path):
    rows = _sample_rows()
    path = tmp_path / "r.csv"
    emit_results(rows, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0] == ",".join(CSV_HEADER)
    back = read_results_csv(path)
    assert len(back) == len(rows)
    assert all(_rows_equal(a, b) for a, b in zip(rows, back))


def test_emit_csv_repeat_is_byte_identical(tmp_path):
    rows = _sample_rows()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(rows, p1)
    emit_results(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_emit_json(tmp_path):
    rows = _sample_rows()
    path = tmp_path / "r.json"
    emit_results(rows, path, fmt="json")
    payload = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert len(payload) == 4
    assert list(payload[0]) == list(CSV_HEADER)
    assert payload[0]["parameter"] == "theta"
    assert payload[0]["mse"] == pytest.approx(1.5e-6)
    assert payload[2]["mse"] is None and payload[2]["crb"] is None
    assert payload[2]["failures"] == 200
    assert [payload[3][k] for k in ("sweep_value", "mse", "crb")] == [None] * 3


def test_emit_unknown_format(tmp_path):
    with pytest.raises(ConfigError):
        emit_results([], tmp_path / "r.xml", fmt="xml")
