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
    return np.abs(c1.conj().T @ c2) / np.outer(np.linalg.norm(c1, axis=0),
                                               np.linalg.norm(c2, axis=0))


def greedy_match(*costs: np.ndarray) -> list[int]:
    """Greedy one-to-one pairing of rows with columns by ascending cost.

    Pairs are taken in lexicographic order of the cost matrices (the first
    decides, later ones break its exact ties), then of row and column; a
    pair is kept when its row and its column are both still free.
    ``out[i]`` is the column paired with row i, or -1 if none was left.
    """
    n_rows, n_cols = costs[0].shape
    out = [-1] * n_rows
    col_free = [True] * n_cols
    # lexsort is stable and sorts by its last key first, so pairs tied in
    # every cost keep their row-major order
    for flat in np.lexsort([c.ravel() for c in reversed(costs)]):
        i, j = divmod(int(flat), n_cols)
        if out[i] == -1 and col_free[j]:
            out[i] = j
            col_free[j] = False
    return out


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
    perm = greedy_match(-rho, np.abs(np.subtract.outer(d1, d2)))
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


@functools.lru_cache(maxsize=16)
def _dictionary(atoms, lo: float, hi: float, step: float,
                *atom_args) -> tuple[np.ndarray, np.ndarray]:
    """Grid from lo to hi by step and its atoms, one column per grid point.

    ``atoms(grid, *atom_args)`` is ``steering_vector`` for the direction
    grid (N x G over the prior; the AP antenna count does not enter) or
    ``doppler_ramp`` for the Doppler grid (P x G).  Both depend only on
    the key, so they are built once and shared; the arrays are read-only
    so no caller can alter what another one gets.
    """
    grid = np.arange(lo, hi + step * 1e-6, step)
    bank = atoms(grid, *atom_args)
    grid.setflags(write=False)
    bank.setflags(write=False)
    return grid, bank


def _grid_peaks(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best finite grid index of each row of scores, and its vertex offset.

    ``scores`` is rows x grid, larger is better; NaN or infinite points
    are never chosen.  The offset, in grid steps and clipped to one step,
    is the vertex of the parabola through the peak and its two neighbours.
    It is 0 at either edge of the grid, beside a non-finite neighbour, and
    where the three points do not curve downward.
    """
    finite = np.isfinite(scores)
    if not finite.any(axis=1).all():
        raise NoFeasibleGrid("a search row has no finite grid point")
    masked = np.where(finite, scores, -np.inf)
    idx = np.argmax(masked, axis=1)
    rows = np.arange(len(idx))
    last = scores.shape[1] - 1
    left = masked[rows, np.maximum(idx - 1, 0)]
    right = masked[rows, np.minimum(idx + 1, last)]
    curvature = left - 2 * masked[rows, idx] + right
    ok = (idx > 0) & (idx < last) & np.isfinite(curvature) & (curvature < 0)
    offset = np.zeros(len(idx))
    offset[ok] = np.clip(0.5 * (left[ok] - right[ok]) / curvature[ok], -1, 1)
    return idx, offset


def _refine_directions(grid: np.ndarray, scores: np.ndarray, score_at,
                       doa_prior: tuple[float, float]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Grid peak per row, moved to the parabola vertex where that is no worse.

    ``score_at(thetas)`` scores one direction per row.  Returns the
    directions and their scores.
    """
    idx, offset = _grid_peaks(scores)
    best = scores[np.arange(len(idx)), idx]
    cand = np.clip(grid[idx] + offset * DOA_GRID_STEP_RAD, *doa_prior)
    cand_scores = score_at(cand)
    take = (offset != 0) & (cand_scores >= best)
    return np.where(take, cand, grid[idx]), np.where(take, cand_scores, best)


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


def resolve_doa(aligned: AlignedFactors, u: np.ndarray,
                profiles: tuple[PhaseProfile, PhaseProfile],
                doa_prior: tuple[float, float], arrays: ArrayConfig,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directions from the cross-phase ratio statistic.

    Matches each target's ratio statistic against gamma(theta) on a grid
    over the prior by the complex squared error, then refines with a
    3-point parabola; the refined point is kept only if it does not
    increase the objective.  Returns (theta_hats, gamma_hats, residuals).
    """
    grid, steer = _dictionary(steering_vector, *doa_prior, DOA_GRID_STEP_RAD,
                              *arrays.surface)
    curve = _gamma_ratio(steer, u, profiles)
    finite = np.isfinite(curve)
    if not finite.any():
        raise NoFeasibleGrid("every grid point excluded by the denominator test")
    spread = np.nanmax(np.abs(curve - curve[finite][0]))
    if not (spread > 1e-12):
        raise DegenerateProfilePair(
            "cross-phase ratio constant over the prior; profiles too similar")

    gammas = compute_gamma_statistics(aligned)
    thetas, best = _refine_directions(
        grid, -np.abs(gammas[:, None] - curve) ** 2,
        lambda cand: -np.abs(
            gammas - gamma_ratio_curve(cand, u, profiles, arrays)) ** 2,
        doa_prior)
    return thetas, gammas, np.sqrt(-best)


def estimate_doa_multirank(b_hat: np.ndarray, channel: ChannelMatrix,
                           profile: PhaseProfile,
                           doa_prior: tuple[float, float],
                           arrays: ArrayConfig) -> np.ndarray:
    """Single-phase direction estimates by antenna-column correlation.

    Correlates each column of the estimated M x K antenna factor against
    the channel-relayed response over a direction grid.  Needs a channel
    of rank at least two: on a rank-one channel all candidate responses
    are collinear and the correlation carries no direction information.
    """
    ratio = channel.singular_ratio()
    if ratio < RANK_ONE_RATIO:
        raise RankOneChannel(f"singular-value ratio {ratio:.2e}; "
                             "use the cross-phase ratio method instead")
    grid, grid_steer = _dictionary(steering_vector, *doa_prior,
                                   DOA_GRID_STEP_RAD, *arrays.surface)
    b_norms = np.linalg.norm(b_hat, axis=0)

    def corr_at(steer: np.ndarray) -> np.ndarray:
        cand = relayed_response(channel, profile, steer)
        norms = np.outer(b_norms, np.linalg.norm(cand, axis=0))
        return np.abs(b_hat.conj().T @ cand) / norms

    thetas, _ = _refine_directions(
        grid, corr_at(grid_steer),
        lambda cand: np.diagonal(corr_at(steering_vector(cand, *arrays.surface))),
        doa_prior)
    return thetas


def estimate_doppler(aligned: AlignedFactors, theta_hats: np.ndarray,
                     channel: ChannelMatrix,
                     profiles: tuple[PhaseProfile, PhaseProfile],
                     combiner: np.ndarray, waveform: WaveformConfig,
                     arrays: ArrayConfig) -> np.ndarray:
    """Doppler shifts from the pulse factors' phase progressions.

    For each phase, the aligned pulse column is divided by the predicted
    combined response at the estimated direction, leaving (up to scale) a
    pure per-pulse phase ramp that is matched against candidate ramps over
    half a period each side of zero.  Phase estimates are averaged with
    equal weights.
    """
    half_span = 1.0 / (2 * waveform.pri_s)
    step = half_span / DOPPLER_GRID_POINTS
    grid, ramps = _dictionary(doppler_ramp, -half_span, half_span, step,
                              waveform.n_pulses, waveform.pri_s)
    k_total = aligned.n_components
    steer = steering_vector(theta_hats, *arrays.surface)
    # column c is target c % K of phase c // K
    divisors = np.hstack([combiner.T @ relayed_response(channel, p, steer)
                          for p in profiles])
    pulses = np.hstack([aligned.phase1.pulse_factor, aligned.phase2.pulse_factor])
    keep = np.abs(divisors) >= DIVISOR_FLOOR
    ramp_obs = np.divide(pulses, divisors, where=keep,
                         out=np.zeros(pulses.shape, dtype=complex))
    idx, offset = _grid_peaks(np.abs(ramp_obs.conj().T @ ramps))
    for col in range(2 * k_total):
        where = (f"phase {profiles[col // k_total].phase_index}, "
                 f"target {col % k_total}")
        if not keep[:, col].any():
            raise DivisionBlowup(f"{where}: all pulse divisors below "
                                 f"{DIVISOR_FLOOR:.0e}")
        if not keep[:, col].all():
            warnings.warn(f"{where}: excluded {int((~keep[:, col]).sum())} "
                          "pulses with near-zero divisors", stacklevel=2)
        if idx[col] in (0, len(grid) - 1):
            warnings.warn(f"{where}: Doppler at the unambiguous boundary; "
                          "estimate may be wrapped", stacklevel=2)
    return (grid[idx] + offset * step).reshape(2, k_total).mean(axis=0)


def estimate_delay(aligned: AlignedFactors,
                   waveform: WaveformConfig) -> np.ndarray:
    """Delays from the generator phases, unwrapped into the feasible window.

    The generator phase gives the delay modulo the symbol duration; the
    pulse timing constrains true delays to [T, T + T_cp] with T the full
    symbol span, which singles out one alias.  Values within 1% of the
    prefix length outside the window are snapped to its edge; anything
    further out fails.  Per-phase estimates are averaged.
    """
    period = waveform.symbol_duration_s
    window_lo = waveform.full_symbol_s
    window_hi = window_lo + waveform.cyclic_prefix_s
    tol = UNWRAP_EDGE_TOL * waveform.cyclic_prefix_s
    raw = np.stack([raw_delay(triple.generators, waveform.subcarrier_spacing_hz)
                    for triple in (aligned.phase1, aligned.phase2)])
    candidate = raw + np.ceil((window_lo - tol - raw) / period) * period
    infeasible = np.argwhere(candidate > window_hi + tol)
    if infeasible.size:
        phase, k = infeasible[0]
        raise UnwrapInfeasible(
            f"target {k}: no alias of {raw[phase, k]:.3e} s lands in "
            f"[{window_lo:.3e}, {window_hi:.3e}] s")
    return np.clip(candidate, window_lo, window_hi).mean(axis=0)


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
        noise_fraction = (tensor.noise_sigma * math.sqrt(tensor.data.size)
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
        thetas = estimate_doa_multirank(aligned.phase1.antenna_factor, channel,
                                        profiles[0], doa_prior, arrays)
        gammas = compute_gamma_statistics(aligned)
        residuals = np.zeros(n_targets)
    else:
        thetas, gammas, residuals = resolve_doa(aligned, channel.irs_side_vector(),
                                                profiles, doa_prior, arrays)
    dopplers = estimate_doppler(aligned, thetas, channel, profiles, combiner,
                                waveform, arrays)
    delays = estimate_delay(aligned, waveform)

    estimates = [TargetEstimate(
        theta_hat=float(theta), tau_hat=float(tau), nu_hat=float(nu),
        range_hat=float(SPEED_OF_LIGHT * tau / 2),
        velocity_hat=float(nu * SPEED_OF_LIGHT / (2 * waveform.carrier_freq_hz)),
        gamma_hat=complex(gamma), residual=float(residual))
        for theta, tau, nu, gamma, residual
        in zip(thetas, delays, dopplers, gammas, residuals)]
    return sorted(estimates, key=lambda est: est.tau_hat)
