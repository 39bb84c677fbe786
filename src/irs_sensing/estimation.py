"""Cross-phase alignment, ambiguity resolution, and parameter extraction.

With a rank-one AP-surface channel every antenna-factor column is a
multiple of the same vector, so a single observation phase cannot separate
the direction-dependent scalar from the factorization's scaling freedom.
Two observation phases with different reflection profiles fix this: the
cross-phase ratio of matched factor columns equals a known function
gamma(theta) of the direction alone, because the factorization scalings of
the two phases cancel inside the ratio.  Doppler and delay then follow
from the pulse factor's phase progression and the subcarrier generators.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, ArrayConfig, WaveformConfig
from .cpd import FactorTriple, cp_decompose, raw_delay, reconstruction_error
from .errors import (AmbiguousAlignment, DegenerateProfilePair, DivisionBlowup,
                     EstimationError, NoFeasibleGrid, RankOneChannel,
                     UnwrapInfeasible)
from .scene import (ChannelMatrix, PhaseProfile, relayed_response,
                    steering_vector)
from .synthesis import EchoTensor, doppler_ramp

DOA_GRID_STEP_RAD = math.radians(0.02)
DOPPLER_GRID_POINTS = 2000          # grid step = half-period / this
ALIGNMENT_MARGIN = 1e-6
GRID_EXCLUSION_RTOL = 1e-8          # drop grid points with tiny denominators
DIVISOR_FLOOR = 1e-12
UNWRAP_EDGE_TOL = 0.01              # fraction of the prefix length
RANK_ONE_RATIO = 1e-3


@dataclass(frozen=True)
class AlignedFactors:
    """Factor triples of the two phases with matched column order.

    ``phase1`` columns are permuted so column k of every matrix in both
    triples refers to the same physical target; ``permutation[k]`` is the
    aligned position of original phase-1 column k.
    """

    phase1: FactorTriple
    phase2: FactorTriple
    permutation: tuple[int, ...]

    @property
    def n_components(self) -> int:
        return self.phase1.n_components


@dataclass(frozen=True)
class TargetEstimate:
    """Recovered parameters for one target."""

    theta_hat: float        # rad
    tau_hat: float          # s
    nu_hat: float           # Hz
    range_hat: float        # m, c*tau/2
    velocity_hat: float     # m/s, nu*c/(2*fc)
    gamma_hat: complex      # cross-phase ratio diagnostic
    residual: float         # |gamma_hat - gamma(theta_hat)| at the solution


def correlation_matrix(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Absolute normalized column correlations |c1_i^H c2_j|."""
    norms1 = np.linalg.norm(c1, axis=0)
    norms2 = np.linalg.norm(c2, axis=0)
    return np.abs(c1.conj().T @ c2) / np.outer(norms1, norms2)


def align_columns(triple1: FactorTriple, triple2: FactorTriple,
                  spacing_hz: float) -> AlignedFactors:
    """Match phase-1 columns to phase-2 columns by subcarrier correlation.

    Greedy maximum assignment on the correlation matrix; exact score ties
    are broken by raw-delay proximity of the generators.  A best-to-second
    margin below ALIGNMENT_MARGIN in any row means two targets are not
    distinguishable by delay and raises AmbiguousAlignment.
    """
    k = triple1.n_components
    if triple2.n_components != k:
        raise AmbiguousAlignment("component counts differ between phases")
    rho = correlation_matrix(triple1.subcarrier_factor, triple2.subcarrier_factor)
    if k > 1:
        top2 = -np.partition(-rho, 1, axis=1)[:, :2]
        margin = top2[:, 0] - top2[:, 1]
        if np.any(margin < ALIGNMENT_MARGIN):
            worst = int(np.argmin(margin))
            raise AmbiguousAlignment(
                f"correlation margin {margin[worst]:.2e} for column {worst}")

    d1 = raw_delay(triple1.generators, spacing_hz)
    d2 = raw_delay(triple2.generators, spacing_hz)
    perm = [-1] * k
    free_rows, free_cols = set(range(k)), set(range(k))
    for _ in range(k):
        best, best_key = None, None
        for i in free_rows:
            for j in free_cols:
                key = (rho[i, j], -abs(d1[i] - d2[j]))
                if best_key is None or key > best_key:
                    best, best_key = (i, j), key
        i, j = best
        perm[i] = j
        free_rows.remove(i)
        free_cols.remove(j)

    source = np.argsort(perm)   # aligned column j is phase-1 column source[j]
    aligned1 = FactorTriple(pulse_factor=triple1.pulse_factor[:, source],
                            antenna_factor=triple1.antenna_factor[:, source],
                            subcarrier_factor=triple1.subcarrier_factor[:, source],
                            generators=triple1.generators[source])
    return AlignedFactors(phase1=aligned1, phase2=triple2,
                          permutation=tuple(perm))


def compute_gamma_statistics(aligned: AlignedFactors) -> np.ndarray:
    """Cross-phase ratio statistic per target.

    Entry-wise ratios of matched antenna columns are averaged over
    antennas, pulse columns over pulses, and the two means multiplied.
    Because both phases rebuild the subcarrier factor with a unit leading
    coefficient, the factorization scalings cancel in this product and
    the statistic depends on the direction alone.
    """
    b_ratio = (aligned.phase1.antenna_factor
               / aligned.phase2.antenna_factor).mean(axis=0)
    a_ratio = (aligned.phase1.pulse_factor
               / aligned.phase2.pulse_factor).mean(axis=0)
    return b_ratio * a_ratio


@functools.lru_cache(maxsize=8)
def _doa_dictionary(doa_prior: tuple[float, float], grid_step: float,
                    surface: tuple[int, float, float]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Direction grid over the prior and its N x G surface steering matrix.

    Both depend only on the prior and the surface, so they are built once
    and shared (the AP antenna count does not enter); the arrays are
    read-only so no caller can alter what another one gets.
    """
    lo, hi = doa_prior
    grid = np.arange(lo, hi + grid_step * 1e-6, grid_step)
    steer = steering_vector(grid, *surface)
    grid.setflags(write=False)
    steer.setflags(write=False)
    return grid, steer


def gamma_ratio_curve(grid: np.ndarray, u: np.ndarray,
                      profiles: tuple[PhaseProfile, PhaseProfile],
                      arrays: ArrayConfig) -> np.ndarray:
    """gamma(theta) over a grid; excluded points are NaN.

    gamma is the squared ratio of the surface-side beam responses of the
    two profiles; points where the second profile's response nearly
    vanishes are excluded from searches.
    """
    return _gamma_ratio(steering_vector(grid, *arrays.surface), u, profiles)


def _gamma_ratio(steer: np.ndarray, u: np.ndarray,
                 profiles: tuple[PhaseProfile, PhaseProfile]) -> np.ndarray:
    """gamma at the directions whose steering vectors are the columns of steer."""
    num = (u * profiles[0].diagonal()) @ steer
    den = (u * profiles[1].diagonal()) @ steer
    out = np.full(num.shape, np.nan, dtype=complex)
    ok = np.abs(den) >= GRID_EXCLUSION_RTOL * np.linalg.norm(u)
    out[ok] = (num[ok] / den[ok]) ** 2
    return out


def _parabolic_step(left: float, mid: float, right: float, step: float,
                    maximize: bool) -> float:
    """Vertex offset of the parabola through three equally spaced samples."""
    curvature = left - 2 * mid + right
    if (maximize and curvature >= 0) or (not maximize and curvature <= 0):
        return 0.0
    offset = 0.5 * (left - right) / curvature * step
    return float(np.clip(offset, -step, step))


def resolve_doa(aligned: AlignedFactors, u: np.ndarray,
                profiles: tuple[PhaseProfile, PhaseProfile],
                doa_prior: tuple[float, float], arrays: ArrayConfig,
                grid_step: float = DOA_GRID_STEP_RAD,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directions from the cross-phase ratio statistic.

    Matches each target's ratio statistic against gamma(theta) on a grid
    over the prior by the complex squared error, then refines with a
    3-point parabola; the refined point is kept only if it does not
    increase the objective.  Returns (theta_hats, gamma_hats, residuals).
    """
    lo, hi = doa_prior
    grid, steer = _doa_dictionary((lo, hi), grid_step, arrays.surface)
    curve = _gamma_ratio(steer, u, profiles)
    finite = np.isfinite(curve)
    if not finite.any():
        raise NoFeasibleGrid("every grid point excluded by the denominator test")
    spread = np.nanmax(np.abs(curve - curve[finite][0]))
    if not (spread > 1e-12):
        raise DegenerateProfilePair(
            "cross-phase ratio constant over the prior; profiles too similar")

    gammas = compute_gamma_statistics(aligned)
    thetas = np.empty(aligned.n_components)
    residuals = np.empty(aligned.n_components)
    for k, gamma_k in enumerate(gammas):
        objective = np.abs(gamma_k - curve) ** 2
        idx = int(np.nanargmin(objective))
        best_theta, best_obj = grid[idx], objective[idx]
        if 0 < idx < len(grid) - 1 and np.isfinite(
                objective[idx - 1] + objective[idx + 1]):
            offset = _parabolic_step(objective[idx - 1], objective[idx],
                                     objective[idx + 1], grid_step,
                                     maximize=False)
            cand = float(np.clip(grid[idx] + offset, lo, hi))
            cand_val = gamma_ratio_curve(np.array([cand]), u, profiles, arrays)[0]
            if np.isfinite(cand_val):
                cand_obj = abs(gamma_k - cand_val) ** 2
                if cand_obj <= best_obj:
                    best_theta, best_obj = cand, cand_obj
        thetas[k] = best_theta
        residuals[k] = math.sqrt(best_obj)
    return thetas, gammas, residuals


def estimate_doa_multirank(b_hat: np.ndarray, channel: ChannelMatrix,
                           profile: PhaseProfile,
                           doa_prior: tuple[float, float], arrays: ArrayConfig,
                           grid_step: float = DOA_GRID_STEP_RAD) -> float:
    """Single-phase direction estimate by antenna-column correlation.

    Correlates an estimated antenna column against the channel-relayed
    response over a direction grid.  Needs a channel of rank at least two:
    on a rank-one channel all candidate responses are collinear and the
    correlation carries no direction information.
    """
    ratio = channel.singular_ratio()
    if ratio < RANK_ONE_RATIO:
        raise RankOneChannel(f"singular-value ratio {ratio:.2e}; "
                             "use the cross-phase ratio method instead")
    lo, hi = doa_prior
    grid, grid_steer = _doa_dictionary((lo, hi), grid_step, arrays.surface)

    def corr_at(steer: np.ndarray) -> np.ndarray:
        cand = relayed_response(channel, profile, steer)
        norms = np.linalg.norm(cand, axis=0) * np.linalg.norm(b_hat)
        return np.abs(b_hat.conj() @ cand) / norms

    corr = corr_at(grid_steer)
    idx = int(np.argmax(corr))
    best_theta, best_corr = grid[idx], corr[idx]
    if 0 < idx < len(grid) - 1:
        offset = _parabolic_step(corr[idx - 1], corr[idx], corr[idx + 1],
                                 grid_step, maximize=True)
        cand = float(np.clip(grid[idx] + offset, lo, hi))
        cand_corr = corr_at(steering_vector(np.array([cand]),
                                            *arrays.surface))[0]
        if cand_corr >= best_corr:
            best_theta = cand
    return best_theta


@functools.lru_cache(maxsize=8)
def _doppler_dictionary(n_pulses: int, pri_s: float,
                        grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Doppler grid over the unambiguous span and its P x G ramp bank.

    Depends only on the pulse train, so it is built once and shared; the
    arrays are read-only so no caller can alter what another one gets.
    """
    half_span = 1.0 / (2 * pri_s)
    grid = np.arange(-half_span, half_span + grid_step * 1e-6, grid_step)
    ramps = doppler_ramp(grid, n_pulses, pri_s)
    grid.setflags(write=False)
    ramps.setflags(write=False)
    return grid, ramps


def estimate_doppler(aligned: AlignedFactors, theta_hats: np.ndarray,
                     channel: ChannelMatrix,
                     profiles: tuple[PhaseProfile, PhaseProfile],
                     combiner: np.ndarray, waveform: WaveformConfig,
                     arrays: ArrayConfig,
                     grid_step: float | None = None) -> np.ndarray:
    """Doppler shifts from the pulse factors' phase progressions.

    For each phase, the aligned pulse column is divided by the predicted
    combined response at the estimated direction, leaving (up to scale) a
    pure per-pulse phase ramp that is matched against candidate ramps over
    half a period each side of zero.  Phase estimates are averaged with
    equal weights.
    """
    half_span = 1.0 / (2 * waveform.pri_s)
    if grid_step is None:
        grid_step = half_span / DOPPLER_GRID_POINTS
    grid, ramps = _doppler_dictionary(waveform.n_pulses, waveform.pri_s,
                                      grid_step)
    k_total = aligned.n_components
    steer = steering_vector(theta_hats, *arrays.surface)
    estimates = np.empty((2, k_total))
    for phase_pos, (triple, profile) in enumerate(
            ((aligned.phase1, profiles[0]), (aligned.phase2, profiles[1]))):
        divisors = combiner.T @ relayed_response(channel, profile, steer)
        for k, divisor in enumerate(divisors.T):
            keep = np.abs(divisor) >= DIVISOR_FLOOR
            if not keep.any():
                raise DivisionBlowup(
                    f"phase {profile.phase_index}, target {k}: all pulse "
                    f"divisors below {DIVISOR_FLOOR:.0e}")
            if not keep.all():
                warnings.warn(f"phase {profile.phase_index}, target {k}: "
                              f"excluded {int((~keep).sum())} pulses with "
                              "near-zero divisors", stacklevel=2)
            ramp_obs = triple.pulse_factor[keep, k] / divisor[keep]
            corr = np.abs(ramp_obs.conj() @ ramps[keep, :])
            idx = int(np.argmax(corr))
            nu = grid[idx]
            if 0 < idx < len(grid) - 1:
                nu += _parabolic_step(corr[idx - 1], corr[idx], corr[idx + 1],
                                      grid_step, maximize=True)
            else:
                warnings.warn(f"phase {profile.phase_index}, target {k}: "
                              "Doppler at the unambiguous boundary; estimate "
                              "may be wrapped", stacklevel=2)
            estimates[phase_pos, k] = nu
    return estimates.mean(axis=0)


def estimate_delay(aligned: AlignedFactors,
                   waveform: WaveformConfig) -> np.ndarray:
    """Delays from the generator phases, unwrapped into the feasible window.

    The generator phase gives the delay modulo the symbol duration; the
    pulse timing constrains true delays to [T, T + T_cp] with T the full
    symbol span, which singles out one alias.  Values within 1% of the
    prefix length outside the window are snapped to its edge; anything
    further out fails.  Per-phase estimates are averaged.
    """
    spacing = waveform.subcarrier_spacing_hz
    period = waveform.symbol_duration_s
    window_lo = waveform.full_symbol_s
    window_hi = window_lo + waveform.cyclic_prefix_s
    tol = UNWRAP_EDGE_TOL * waveform.cyclic_prefix_s
    k_total = aligned.n_components
    estimates = np.empty((2, k_total))
    for phase_pos, triple in enumerate((aligned.phase1, aligned.phase2)):
        raw = raw_delay(triple.generators, spacing)
        for k in range(k_total):
            n_lo = math.ceil((window_lo - tol - raw[k]) / period)
            candidate = raw[k] + n_lo * period
            if candidate > window_hi + tol:
                raise UnwrapInfeasible(
                    f"target {k}: no alias of {raw[k]:.3e} s lands in "
                    f"[{window_lo:.3e}, {window_hi:.3e}] s")
            estimates[phase_pos, k] = min(max(candidate, window_lo), window_hi)
    return estimates.mean(axis=0)


RECON_WARN_FLOOR = 0.1


def estimate_targets(y1: EchoTensor, y2: EchoTensor, n_targets: int,
                     doa_prior: tuple[float, float], channel: ChannelMatrix,
                     profiles: tuple[PhaseProfile, PhaseProfile],
                     combiner: np.ndarray, waveform: WaveformConfig,
                     arrays: ArrayConfig,
                     single_phase_doa: bool = False) -> list[TargetEstimate]:
    """Full pipeline: factorize both phases, align, extract all parameters.

    Returns estimates sorted by delay.  ``single_phase_doa`` switches the
    direction step to the correlation method on phase 1 alone (requires a
    channel of rank >= 2); Doppler and delay always use both phases.
    """
    triples = []
    for tensor in (y1, y2):
        try:
            triple = cp_decompose(tensor.data, n_targets)
        except EstimationError as exc:
            exc.args = (f"phase {tensor.phase_index}: {exc}",)
            raise
        recon = reconstruction_error(tensor.data, triple)
        noise_fraction = (tensor.noise_sigma
                          * math.sqrt(tensor.data.size)
                          / np.linalg.norm(tensor.data))
        if recon > max(RECON_WARN_FLOOR, 3 * noise_fraction):
            warnings.warn(
                f"phase {tensor.phase_index}: reconstruction residual "
                f"{recon:.3f} exceeds the expected noise level; the "
                f"component count {n_targets} may not match the scene",
                stacklevel=2)
        triples.append(triple)

    aligned = align_columns(triples[0], triples[1],
                            waveform.subcarrier_spacing_hz)
    if single_phase_doa:
        thetas = np.array([
            estimate_doa_multirank(aligned.phase1.antenna_factor[:, k],
                                   channel, profiles[0], doa_prior, arrays)
            for k in range(n_targets)])
        gammas = compute_gamma_statistics(aligned)
        residuals = np.zeros(n_targets)
    else:
        thetas, gammas, residuals = resolve_doa(aligned, channel.irs_side_vector(),
                                                profiles, doa_prior, arrays)
    dopplers = estimate_doppler(aligned, thetas, channel, profiles, combiner,
                                waveform, arrays)
    delays = estimate_delay(aligned, waveform)

    estimates = []
    for k in range(n_targets):
        estimates.append(TargetEstimate(
            theta_hat=float(thetas[k]),
            tau_hat=float(delays[k]),
            nu_hat=float(dopplers[k]),
            range_hat=float(SPEED_OF_LIGHT * delays[k] / 2),
            velocity_hat=float(dopplers[k] * SPEED_OF_LIGHT
                               / (2 * waveform.carrier_freq_hz)),
            gamma_hat=complex(gammas[k]),
            residual=float(residuals[k])))
    estimates.sort(key=lambda est: est.tau_hat)
    return estimates
