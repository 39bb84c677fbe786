"""Tests of the benchmark's metric arithmetic and of the traced run.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from metrics import failed_share, gap_db, quartile_spread, self_times  # noqa: E402
import run  # noqa: E402


def _row(name, parameter, mse, crb):
    return dict(sweep_name=name, parameter=parameter, mse=mse, crb=crb)


def test_gap_db_skips_nonfinite_and_single_phase_rows():
    rows = [_row("snr_db", "theta", 10.0, 1.0),              # +10 dB
            _row("snr_db", "theta", 1.0, 1.0),               # 0 dB
            _row("snr_db", "theta", math.nan, 1.0),
            _row("snr_db", "theta", 1.0, math.nan),
            _row("snr_db", "theta", math.inf, 1.0),
            _row("snr_db", "theta", 1.0, 0.0),
            _row("rician_db_single_phase", "theta", 1e6, 1.0),
            _row("rician_db_two_phase", "theta", 100.0, 1.0),  # +20 dB
            _row("snr_db", "nu", 1e9, 1.0)]
    assert gap_db(rows, "theta") == pytest.approx(10.0)
    assert gap_db(rows, "nu") == pytest.approx(90.0)
    assert math.isnan(gap_db(rows, "tau"))


def test_failed_share_counts_crashed_repeat_as_all_failed():
    assert failed_share([(100, 10, True), (100, 10, True)]) == 0.1
    assert failed_share([(100, 10, True), (100, 10, False)]) == 0.55
    assert failed_share([(50, 0, False)]) == 1.0
    with pytest.raises(ValueError):
        failed_share([])


def test_self_time_never_negative():
    spans = [(0.0, 10.0, -1),
             (1.0, 4.0, 0), (3.0, 6.0, 0),     # overlapping children
             (9.0, 12.0, 0),                   # child running past the parent
             (2.0, 2.5, 1),
             (5.0, 4.0, -1)]                   # end before start
    own = self_times(spans)
    assert own == pytest.approx([10.0 - 5.0 - 1.0, 2.5, 3.0, 3.0, 0.5, 0.0])
    assert min(own) >= 0.0


def test_quartile_spread_is_share_of_median():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


def _tiny_specs(experiments, presets, trials):
    return [experiments.build_spec(p, trials=trials, seed=3) for p in presets]


@pytest.mark.parametrize("presets", [("mse_vs_snr",), ("rician_comparison",),
                                     ("mse_vs_subcarriers",)])
def test_traced_run_leaves_csv_unchanged_and_restores(tmp_path, presets):
    from irs_sensing import experiments
    from irs_sensing.config import load_config

    config = load_config(ROOT / run.CONFIG)
    specs = _tiny_specs(experiments, presets, 2)
    plain = run.run_repeat(experiments, specs, config, tmp_path)
    tracer = run.Tracer(run.TARGETS)
    traced = run.run_repeat(experiments, specs, config, tmp_path, tracer)

    assert plain.error is None and traced.error is None
    assert traced.csvs == plain.csvs
    assert tracer.unrestored() == []
    assert tracer.wrapped_sites()
    for spec in specs:
        _, problems = run.check_csv(spec, plain.csvs[spec.preset])
        assert problems == []

    n_trials = sum(run.trial_count(spec) for spec in specs)
    metrics = run.layer_metrics(traced, n_trials)
    assert metrics["estimation.estimate_targets.calls"] == n_trials
    assert metrics["experiments.self_ms_per_trial"] >= 0.0
    assert metrics["cpd.cp_decompose.calls"] > 0


def test_check_csv_flags_bad_counts():
    from irs_sensing import experiments

    spec = experiments.build_spec("mse_vs_pulses", trials=5, seed=1)
    lines = [",".join(run.CSV_HEADER)]
    for name, value in run.expected_groups(spec):
        for fam in run.FAMILIES:
            lines.append(f"{name},{value:.17e},{fam},1e-3,1e-4,4,1")
    good = ("\n".join(lines) + "\n").encode()
    assert run.check_csv(spec, good)[1] == []
    bad = good.replace(b",4,1\n", b",4,2\n", 1)
    assert any("trials_used + failures" in p for p in run.check_csv(spec, bad)[1])
    short = b"\n".join(good.splitlines()[:-1]) + b"\n"
    assert run.check_csv(spec, short)[1]
    assert run.check_csv(spec, None)[1]
