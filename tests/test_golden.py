"""Golden-number regression: every preset against committed reference CSVs.

The files under ``tests/data`` were written by
``scripts/run_all_presets.py --trials 20 --seed 11`` on the default
configuration.  A rerun must reproduce every row and every trial count
exactly; mse and crb may move only by floating-point reassociation, so
they are held to 1e-9 relative (NaN where the reference is NaN).
``crb_default.csv`` is ``sense crb --config configs/default.yaml``, held
byte for byte.
"""
import math
from pathlib import Path

import pytest

from irs_sensing.cli import main
from irs_sensing.config import load_config
from irs_sensing.experiments import (PRESET_NAMES, build_spec,
                                     read_results_csv, run_experiment)

DATA = Path(__file__).parent / "data"
CONFIG = Path(__file__).parents[1] / "configs" / "default.yaml"
GOLDEN_TRIALS = 20
GOLDEN_SEED = 11
REL_TOL = 1e-9


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REL_TOL * abs(want)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_preset_matches_golden_csv(preset):
    expected = read_results_csv(DATA / f"{preset}.csv")
    rows = run_experiment(build_spec(preset, trials=GOLDEN_TRIALS,
                                     seed=GOLDEN_SEED),
                          load_config(CONFIG))
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        key = (want.sweep_name, want.sweep_value, want.parameter)
        assert (got.sweep_name, got.sweep_value, got.parameter) == key
        assert (got.trials_used, got.failures) == \
            (want.trials_used, want.failures), key
        assert _close(got.mse, want.mse), (key, got.mse, want.mse)
        assert _close(got.crb, want.crb), (key, got.crb, want.crb)


def test_crb_sweep_matches_golden_bytes(tmp_path):
    out = tmp_path / "crb.csv"
    assert main(["crb", "--config", str(CONFIG), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "crb_default.csv").read_bytes()
