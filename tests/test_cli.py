"""Command-line interface, exercised in-process through main()."""
import json

import numpy as np
import pytest

from irs_sensing.cli import CRB_SNR_GRID, main
from irs_sensing.config import load_config
from irs_sensing.crb import compute_crb, compute_fim
from irs_sensing.experiments import CSV_HEADER, DEFAULT_SEED
from irs_sensing.scene import draw_scene_point
from irs_sensing.synthesis import (echo_tensors, noise_sigma_for_snr,
                                   noise_variance)

CONFIG = "configs/default.yaml"


def test_limits_prints_waveform_window(capsys):
    assert main(["limits", "--config", CONFIG]) == 0
    out = capsys.readouterr().out.splitlines()
    fields = dict(line.split() for line in out)
    assert float(fields["R_min_m"]) == pytest.approx(449.7, abs=0.05)
    assert float(fields["R_max_m"]) == pytest.approx(599.6, abs=0.05)
    assert float(fields["v_max_mps"]) == pytest.approx(312.3, abs=0.05)


def test_run_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["run", "--config", CONFIG, "--preset", "mse_vs_pulses",
                 "--out", str(out), "--trials", "1", "--seed", "5"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 4 * 3          # four sweep values, three families


def test_run_writes_json(tmp_path):
    out = tmp_path / "rows.json"
    code = main(["run", "--config", CONFIG, "--preset", "mse_vs_pulses",
                 "--out", str(out), "--trials", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 12
    assert set(payload[0]) == set(CSV_HEADER)


def test_run_rerun_is_byte_identical(tmp_path):
    """Same seed, same config: output files match byte for byte."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--config", CONFIG, "--preset", "mse_vs_antennas",
            "--trials", "2", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_preset_exits_2(tmp_path, capsys):
    code = main(["run", "--config", CONFIG, "--preset", "nope",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert main(["limits", "--config", str(tmp_path / "absent.yaml")]) == 2


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("waveform: [not, a, mapping\n")
    assert main(["limits", "--config", str(bad)]) == 2


@pytest.mark.parametrize("yaml_text", [
    "scene:\n  doa_prior_deg: [30]\n",
    "scene:\n  doa_prior_deg: 30\n",
    "scene:\n  rician_k_db: abc\n",
    "scene:\n  targets: 5\n",
    "scene:\n  targets: [{position_m: [500, -170], rcs: big}]\n",
    "scene:\n  targets: [{position_m: [533.0, -170.0], velocity: 16.66}]\n",
    "scene:\n  irs_position_m: [0, 0, 0]\n",
    "scene:\n  ap_position_m: [0]\n",
    "scene:\n  n_subarrays: 2.5\n",
    "scene: 5\n",
    "waveform:\n  n_pulses: 2.7\n",
    "waveform:\n  n_pulses: .inf\n",
    "arrays:\n  n_ap_antennas: 7.5\n",
    "waveform:\n  carrier_freq_hz: .nan\n",
    "waveform:\n  pri_s: .inf\n",
    "waveform:\n  n_pulses: true\n",
    "arrays:\n  element_spacing_m: .nan\n",
    "scene:\n  ap_position_m: [.nan, 0]\n",
    "scene:\n  rician_k_db: .nan\n",
    "scene:\n  targets: [{position_m: [533.0, -170.0], rcs: .nan}]\n",
    "scene:\n  targets: [{position_m: [533.0, -170.0], rcs: 0}]\n",
    "scene:\n  targets: [{position_m: [533.0, -170.0], rcs: -1}]\n",
], ids=lambda text: " ".join(text.split()))
def test_bad_config_value_exits_2_with_one_line(tmp_path, capsys, yaml_text):
    """A bad value is a configuration error: no traceback, no silent change."""
    path = tmp_path / "bad.yaml"
    path.write_text(yaml_text)
    assert main(["limits", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_negative_seed_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["run", "--config", CONFIG, "--preset", "mse_vs_pulses",
                 "--trials", "2", "--seed", "-1", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be an int >= 0, not -1\n"
    assert not out.exists()


def test_unwritable_output_exits_3(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "rows.csv"
    code = main(["run", "--config", CONFIG, "--preset", "mse_vs_pulses",
                 "--out", str(out), "--trials", "1"])
    assert code == 3


def test_crb_sweep_to_file(tmp_path):
    out = tmp_path / "crb.csv"
    assert main(["crb", "--config", CONFIG, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "snr_db"
    assert header[1].startswith("crb_theta_1")
    assert len(lines) == 1 + len(CRB_SNR_GRID)
    # bounds shrink as the noise falls over the sweep
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert all(lo < hi for hi, lo in zip(first[1:], last[1:]))


def test_crb_sweep_to_stdout(capsys):
    assert main(["crb", "--config", CONFIG]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(",")[0] == "snr_db"
    assert len(lines) == 1 + len(CRB_SNR_GRID)


def _crb_cells(capsys, config_path):
    assert main(["crb", "--config", str(config_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def test_crb_uses_the_configured_rician_channel(tmp_path, capsys):
    """With rician_k_db set, the bounds are those of the scattered channel."""
    path = tmp_path / "rician.yaml"
    path.write_text("scene:\n  rician_k_db: 5.0\n")
    got = _crb_cells(capsys, path)

    cfg = load_config(path)
    point = draw_scene_point(cfg, [np.random.default_rng(DEFAULT_SEED)]).trial(0)
    assert point.channel.singular_ratio() > 1e-3   # scattered paths drawn
    clean = echo_tensors(*point, cfg.waveform, cfg.arrays)
    for row, snr in zip(got, CRB_SNR_GRID):
        noise_vars = noise_variance(noise_sigma_for_snr(clean, snr))
        bounds = compute_crb(compute_fim(*point, cfg.waveform, cfg.arrays,
                                         noise_vars))
        assert row == [snr, *bounds.theta, *bounds.doppler, *bounds.delay]
    assert got != _crb_cells(capsys, CONFIG)


@pytest.mark.parametrize("yaml_text, message", [
    ("arrays:\n  n_irs_elements: 1\nscene:\n  n_subarrays: 1\n",
     "error: no bound at -10 dB SNR: condition number inf exceeds 1e+14"),
    ("waveform:\n  tx_power_w: 1.0e-300\n",
     "error: echo energy too small for a noise level at -10 dB SNR; no bound"),
], ids=["singular_information", "underflowing_echo"])
def test_crb_without_a_bound_exits_2_with_one_line(tmp_path, capsys,
                                                   yaml_text, message):
    """A configuration that loads but has no finite bound is reported, not
    raised."""
    path = tmp_path / "nobound.yaml"
    path.write_text(yaml_text)
    assert main(["crb", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize("preset, snr_db", [("mse_vs_snr", -10),
                                            ("rician_comparison", 10)])
def test_run_on_an_underflowing_echo_exits_2_with_one_line(tmp_path, capsys,
                                                           preset, snr_db):
    """An echo too weak for any noise level at the requested SNR is
    rejected, not run noiseless; ``sense crb`` shares the check."""
    path = tmp_path / "weak.yaml"
    path.write_text("waveform:\n  tx_power_w: 1.0e-300\n")
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", str(path), "--preset", preset,
                 "--out", str(out), "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        f"error: echo energy too small for a noise level at {snr_db} dB SNR; "
        "no bound"]
