"""End-to-end acceptance checks.

Every test here pins one externally stated requirement of the delivered
pipeline at its stated tolerance.  Multi-clause requirements are split so
each clause reports its own pass/fail line.  Two clauses are marked
expected-fail: their tolerances are kept at the required values and the
measured shortfalls are documented in the project ledger.
"""
import dataclasses
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from irs_sensing.cli import main as cli_main
from irs_sensing.config import ArrayConfig, FullConfig, with_overrides
from irs_sensing.cpd import FactorTriple, cp_decompose
from irs_sensing.crb import compute_crb, compute_fim
from irs_sensing.errors import UniquenessError
from irs_sensing.estimation import (align_columns, compute_gamma_statistics,
                                    estimate_targets)
from irs_sensing.experiments import build_spec, run_experiment
from irs_sensing.scene import draw_scene_point, sensing_limits
from irs_sensing.synthesis import (build_factor_matrices, echo_tensors,
                                   noise_sigma_for_snr)

from conftest import take_targets
from reference import (mc_score_covariance, oracle_prediction,
                       score_fd_check, time_domain_oracle)

CONFIG = "configs/default.yaml"


def _db(ratio: float) -> float:
    return 10.0 * math.log10(ratio)


# ---------------------------------------------------------------- 1

def test_noiseless_recovery_is_exact(cfg, truth, channel, profiles,
                                     clean_pair):
    """Full pipeline on a clean two-target scene recovers all parameters."""
    start = time.perf_counter()
    estimates = estimate_targets(clean_pair, np.zeros(2), truth.n_targets,
                                 cfg.scene.doa_prior_rad, channel, profiles,
                                 cfg.waveform, cfg.arrays)
    elapsed = time.perf_counter() - start
    order = np.argsort(truth.delay_s)
    assert np.abs(estimates.theta - truth.theta_rad[order]).max() < 1e-5
    assert np.abs(estimates.tau - truth.delay_s[order]).max() < 1e-12
    assert np.abs(estimates.nu - truth.doppler_hz[order]).max() < 1.0
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f} s"


def test_noiseless_demo_recovers_the_scene():
    """The demo script runs the same recovery from the command line."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "scripts/noiseless_demo.py"],
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    worst = re.search(r"^worst errors: (\S+) rad, (\S+) s, (\S+) Hz$",
                      done.stdout, re.MULTILINE)
    assert worst, done.stdout
    theta, tau, nu = map(float, worst.groups())
    assert theta < 1e-5 and tau < 1e-12 and nu < 1e-3


# ---------------------------------------------------------------- 2

def test_single_subcarrier_is_unidentifiable(cfg, truth, channel, profiles,
                                             combiner):
    """One subcarrier cannot separate two targets: the solver must refuse."""
    narrow = with_overrides(cfg, n_subcarriers=1)
    pair = echo_tensors(truth, channel, profiles, combiner, narrow.waveform,
                        narrow.arrays)
    with pytest.raises(UniquenessError):
        estimate_targets(pair, np.zeros(2), truth.n_targets,
                         cfg.scene.doa_prior_rad, channel, profiles,
                         narrow.waveform, narrow.arrays)


def test_three_subcarriers_rarely_fail_at_moderate_snr():
    """At three subcarriers and 5 dB SNR the failure rate stays under 5%."""
    spec = dataclasses.replace(build_spec("mse_vs_subcarriers", trials=200),
                               sweep_values=(3,))
    rows = run_experiment(spec, FullConfig())
    failures = rows[0].failures
    rate = failures / spec.trials
    assert rate < 0.05, f"failure rate {rate:.3f} over {spec.trials} trials"


# ---------------------------------------------------------------- 3

@pytest.fixture(scope="module")
def snr_sweep():
    spec = build_spec("mse_vs_snr", trials=500)
    start = time.perf_counter()
    rows = run_experiment(spec, FullConfig())
    elapsed = time.perf_counter() - start
    table = {}
    for row in rows:
        table[(row.parameter, row.sweep_value)] = row
    return spec, table, elapsed


@pytest.mark.xfail(
    strict=False,
    reason="the known-gain bound is about 6 dB optimistic on this scene, "
           "whose receiver does not know the gains, and the algebraic CP "
           "direction estimate is not efficient, leaving its direction MSE "
           "about 13 dB above the known-gain bound")
def test_direction_mse_close_to_bound(snr_sweep):
    _, table, _ = snr_sweep
    row = table[("theta", 15.0)]
    gap = _db(row.mse / row.crb)
    assert gap < 5.0, f"direction MSE is {gap:.1f} dB above the bound"


def test_doppler_mse_close_to_bound(snr_sweep):
    _, table, _ = snr_sweep
    row = table[("nu", 15.0)]
    gap = _db(row.mse / row.crb)
    assert gap < 10.0, f"Doppler MSE is {gap:.1f} dB above the bound"


def test_delay_mse_close_to_bound(snr_sweep):
    _, table, _ = snr_sweep
    row = table[("tau", 15.0)]
    gap = _db(row.mse / row.crb)
    assert gap < 10.0, f"delay MSE is {gap:.1f} dB above the bound"


def test_mse_monotone_in_snr(snr_sweep):
    spec, table, _ = snr_sweep
    for parameter in ("theta", "nu", "tau"):
        curve = [table[(parameter, v)].mse for v in spec.sweep_values]
        for lo, hi in zip(curve[1:], curve[:-1]):
            # non-increasing up to Monte Carlo confidence (5% slack)
            assert lo <= hi * 1.05, f"{parameter}: {curve}"


def test_snr_sweep_runtime(snr_sweep):
    _, _, elapsed = snr_sweep
    assert elapsed < 600.0, f"sweep took {elapsed:.0f} s"


# ---------------------------------------------------------------- 4

def test_information_matrix_consistency(cfg, truth, channel, profiles,
                                        combiner):
    noise_vars = []
    observed = []
    rng = np.random.default_rng(31)
    for model in echo_tensors(truth, channel, profiles, combiner,
                              cfg.waveform, cfg.arrays):
        energy = float(np.linalg.norm(model) ** 2)
        sigma_sq = energy / model.size          # 0 dB
        sigma = math.sqrt(sigma_sq)
        noise_vars.append(sigma_sq)
        observed.append(model + sigma / math.sqrt(2)
                        * (rng.standard_normal(model.shape)
                           + 1j * rng.standard_normal(model.shape)))

    worst = score_fd_check(truth, observed, channel, profiles, combiner,
                           cfg.waveform, cfg.arrays, noise_vars)
    assert worst < 1e-4, f"gradient check {worst:.3e}"

    fim = compute_fim(truth, channel, profiles, combiner, cfg.waveform,
                      cfg.arrays, noise_vars)
    assert np.array_equal(fim, fim.T)
    eigs = np.linalg.eigvalsh(fim)
    assert eigs[0] >= -1e-10 * eigs[-1]

    base = compute_crb(fim)
    doubled = compute_crb(compute_fim(truth, channel, profiles, combiner,
                                      cfg.waveform, cfg.arrays,
                                      tuple(2.0 * s for s in noise_vars)))
    for name in ("theta", "doppler", "delay"):
        slope = (np.log(getattr(doubled, name) / getattr(base, name))
                 / np.log(2.0))
        np.testing.assert_allclose(slope, 1.0, rtol=0.02)


def test_score_covariance_matches_information(cfg):
    """10^4 noise draws on a one-target scene reproduce the matrix to 5%."""
    wf = dataclasses.replace(cfg.waveform, n_pulses=4, n_subcarriers=4)
    arrays = ArrayConfig(n_ap_antennas=4,
                         n_irs_elements=cfg.arrays.n_irs_elements,
                         wavelength_m=wf.wavelength_m)
    point = draw_scene_point(FullConfig(wf, arrays, cfg.scene),
                             [np.random.default_rng(7)]).trial(0)
    truth = take_targets(point.truth, slice(1))
    channel, profiles, combiner = point.channel, point.profiles, point.combiner
    noise_vars = noise_sigma_for_snr(echo_tensors(
        truth, channel, profiles, combiner, wf, arrays), 0.0) ** 2
    fim = compute_fim(truth, channel, profiles, combiner, wf, arrays,
                      noise_vars)
    sample = mc_score_covariance(truth, channel, profiles, combiner, wf,
                                 arrays, noise_vars, n_draws=10_000,
                                 rng=np.random.default_rng(123))
    scale = np.abs(fim).max()
    rel = np.abs(sample - fim).max() / scale
    assert rel < 0.05, f"worst entry gap {rel:.4f} of the largest entry"


# ---------------------------------------------------------------- 5

def test_sampled_waveform_matches_model(cfg, truth, channel, profiles,
                                        combiner, factor_pair):
    for pulse in (1, 3, 10):
        oracle = time_domain_oracle(truth, channel, profiles[0], combiner,
                                    cfg.waveform, cfg.arrays, pulse)
        pred = oracle_prediction(factor_pair[0], truth.sync_delay_s,
                                 cfg.waveform, pulse)
        rel = np.linalg.norm(oracle - pred) / np.linalg.norm(oracle)
        assert rel < 1e-3, f"pulse {pulse}: {rel:.3e}"

    static = dataclasses.replace(truth, doppler_hz=0.0 * truth.doppler_hz)
    fac = build_factor_matrices(static, channel, profiles[0], combiner,
                                cfg.waveform, cfg.arrays)
    oracle = time_domain_oracle(static, channel, profiles[0], combiner,
                                cfg.waveform, cfg.arrays, 3)
    pred = oracle_prediction(fac, static.sync_delay_s, cfg.waveform, 3)
    rel = np.linalg.norm(oracle - pred) / np.linalg.norm(oracle)
    assert rel < 1e-6, f"static: {rel:.3e}"


# ---------------------------------------------------------------- 6

def test_ratio_statistic_survives_scaling(cfg, clean_pair):
    """100 random per-column rescalings leave the statistic unchanged."""
    k = len(cfg.scene.targets)
    errors = [None]
    triples = [cp_decompose(t[None], k, errors) for t in clean_pair]
    aligned = align_columns(FactorTriple(*map(np.stack, zip(*triples))),
                            cfg.waveform.subcarrier_spacing_hz, errors)
    assert errors == [None]
    base = compute_gamma_statistics(aligned)
    rng = np.random.default_rng(41)
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


# ---------------------------------------------------------------- 7

def test_sensing_limit_values(cfg):
    limits = sensing_limits(cfg.waveform)
    assert limits.min_range_m == pytest.approx(449.7, abs=0.05)
    assert limits.max_range_m == pytest.approx(599.6, abs=0.05)
    assert limits.max_speed_mps == pytest.approx(312.3, abs=0.05)


# ---------------------------------------------------------------- 8

@pytest.fixture(scope="module")
def scatter_sweep():
    spec = build_spec("rician_comparison")
    rows = run_experiment(spec, FullConfig())
    table = {}
    for row in rows:
        table[(row.sweep_name, row.parameter, row.sweep_value)] = row
    return table


def test_two_phase_direction_robust_to_scatter(scatter_sweep):
    """Direction MSE moves < 3 dB as the channel loses its scattered part."""
    lo = scatter_sweep[("rician_db_two_phase", "theta", 0.0)].mse
    hi = scatter_sweep[("rician_db_two_phase", "theta", 13.0)].mse
    change = _db(hi / lo)
    assert change <= 3.0, f"two-phase direction MSE moved {change:+.1f} dB"


@pytest.mark.xfail(
    strict=False,
    reason="the single-phase correlation baseline is already far off the "
           "bound in heavy scatter, so its measured degradation toward the "
           "rank-one regime is about +3 to +6 dB, not the required 10")
def test_single_phase_direction_degrades_under_scatter(scatter_sweep):
    lo = scatter_sweep[("rician_db_single_phase", "theta", 0.0)].mse
    hi = scatter_sweep[("rician_db_single_phase", "theta", 13.0)].mse
    change = _db(hi / lo)
    assert change >= 10.0, f"single-phase MSE moved only {change:+.1f} dB"


# ---------------------------------------------------------------- 9

def test_rerun_with_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--config", CONFIG, "--preset", "mse_vs_snr",
            "--trials", "3"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().count("\n") == 1 + 7 * 3
