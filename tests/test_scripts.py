"""Command-line scripts: bad input exits 2 with one line, never a traceback,
and before any output file is written."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIG = str(ROOT / "configs" / "default.yaml")


def _script(cwd, name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("name,args,message", [
    pytest.param("run_all_presets.py", ["--config", CONFIG, "--trials", "0"],
                 "error: trials must be an int >= 1", id="presets-zero-trials"),
    pytest.param("run_all_presets.py", ["--config", "absent.yaml"],
                 "error: cannot read config file absent.yaml",
                 id="presets-missing-config"),
    pytest.param("noiseless_demo.py", ["--config", "absent.yaml"],
                 "error: cannot read config file absent.yaml",
                 id="demo-missing-config"),
    pytest.param("noiseless_demo.py", ["--seed", "-1"],
                 "error: seed must be an int >= 0, not -1", id="demo-negative-seed"),
    pytest.param("print_summary.py", ["missing.csv"],
                 "error: [Errno 2] No such file or directory: 'missing.csv'",
                 id="summary-missing-csv"),
    pytest.param("print_summary.py", [CONFIG],
                 f"error: {CONFIG} is not a results CSV", id="summary-not-a-csv"),
])
def test_bad_input_exits_2_with_one_line(tmp_path, name, args, message):
    done = _script(tmp_path, name, *args)
    assert done.returncode == 2
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith(message)
    assert list(tmp_path.iterdir()) == []  # no results directory either


@pytest.mark.parametrize("presets", [["nope"], ["mse_vs_subcarriers", "nope"]],
                         ids=" ".join)
def test_unknown_preset_exits_2_before_any_csv(tmp_path, presets):
    done = _script(tmp_path, "run_all_presets.py", "--config", CONFIG,
                   "--trials", "1", "--presets", *presets)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert ("error: argument --presets: invalid choice: 'nope'"
            in done.stderr.splitlines()[-1])
    assert list(tmp_path.iterdir()) == []
