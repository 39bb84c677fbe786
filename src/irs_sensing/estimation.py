"""Cross-phase alignment, ambiguity resolution, and parameter extraction.

With a rank-one AP-surface channel every antenna-factor column is a
multiple of the same vector, so a single observation phase cannot separate
the direction-dependent scalar from the factorization's scaling freedom.
Two observation phases with different reflection profiles fix this: the
cross-phase ratio of matched factor columns equals a known function
gamma(theta) of the direction alone, because the factorization scalings of
the two phases cancel inside the ratio.  Doppler and delay then follow
from the pulse factor's phase progression and the subcarrier generators.
Every step takes a stack of trials, its arrays with a leading trial axis,
and the stack's error list: it records in ``errors[b]`` the first check
trial b fails and raises only for a check that the whole stack shares;
its channel and combiner are one per trial or one shared.
``estimate_trials`` runs a stack through the pipeline, ``estimate_targets``
one trial.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import SPEED_OF_LIGHT, ArrayConfig, WaveformConfig
from .cpd import FactorTriple, cp_decompose, raw_delay, reconstruction_error
from .errors import (AmbiguousAlignment, DegenerateProfilePair, DivisionBlowup,
                     EstimationError, NoFeasibleGrid, RankOneChannel,
                     UnwrapInfeasible, record_failures)
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
GRID_SLICE = 2                      # trials per slice of a grid search


@dataclass(frozen=True)
class AlignedFactors:
    """Factor triples of the two phases with matched column order.

    ``phase1`` columns are permuted so column k of every matrix in both
    triples refers to the same physical target; ``permutation[b, k]`` is
    the aligned position of original phase-1 column k of trial b.
    """

    phase1: FactorTriple
    phase2: FactorTriple
    permutation: np.ndarray

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
    """Absolute normalized column correlations |c1_i^H c2_j| (per trial)."""
    return (np.abs(c1.conj().swapaxes(-1, -2) @ c2)
            / (np.linalg.norm(c1, axis=-2)[..., :, None]
               * np.linalg.norm(c2, axis=-2)[..., None, :]))


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
                  spacing_hz: float, errors: list) -> AlignedFactors:
    """Match phase-1 columns to phase-2 columns by subcarrier correlation.

    Greedy maximum assignment on the correlation matrix; exact score ties
    are broken by raw-delay proximity of the generators.  A best-to-second
    margin below ALIGNMENT_MARGIN in any row means two targets are not
    distinguishable by delay and fails the trial with AmbiguousAlignment.
    """
    k = triple1.n_components
    if triple2.n_components != k:
        raise AmbiguousAlignment("component counts differ between phases")
    rho = correlation_matrix(triple1.subcarrier_factor, triple2.subcarrier_factor)
    if k > 1:
        top2 = -np.partition(-rho, 1, axis=-1)[..., :2]
        margin = top2[..., 0] - top2[..., 1]
        worst = np.argmin(margin, axis=-1)
        record_failures(errors, (margin < ALIGNMENT_MARGIN).any(axis=-1),
                        lambda b: AmbiguousAlignment(
                            f"correlation margin {margin[b, worst[b]]:.2e} "
                            f"for column {worst[b]}"))

    d1 = raw_delay(triple1.generators, spacing_hz)
    d2 = raw_delay(triple2.generators, spacing_hz)
    perm = np.array([greedy_match(-r, np.abs(np.subtract.outer(a, b)))
                     for r, a, b in zip(rho, d1, d2)], dtype=int).reshape(-1, k)
    source = np.argsort(perm)  # aligned column j is phase-1 column source[j]
    aligned1 = FactorTriple(*(np.take_along_axis(a, source[:, None, :], axis=-1)
                              for a in (triple1.pulse_factor,
                                        triple1.antenna_factor,
                                        triple1.subcarrier_factor)),
                            np.take_along_axis(triple1.generators, source, axis=-1))
    return AlignedFactors(aligned1, triple2, perm)


def compute_gamma_statistics(aligned: AlignedFactors) -> np.ndarray:
    """Cross-phase ratio statistic per target.

    Entry-wise ratios of matched antenna columns are averaged over
    antennas, pulse columns over pulses, and the two means multiplied.
    Because both phases rebuild the subcarrier factor with a unit leading
    coefficient, the factorization scalings cancel in this product and
    the statistic depends on the direction alone.
    """
    b_ratio = (aligned.phase1.antenna_factor
               / aligned.phase2.antenna_factor).mean(axis=-2)
    a_ratio = (aligned.phase1.pulse_factor
               / aligned.phase2.pulse_factor).mean(axis=-2)
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


def _grid_peaks(score, errors: list) -> tuple[np.ndarray, ...]:
    """Best finite grid index of each row of scores, its vertex offset, and
    its score.

    ``score(s)`` gives the (b, rows, grid) scores, larger is better, of the
    trials in slice s of the stack; it is called GRID_SLICE trials at a
    time, so memory does not grow with the stack.  NaN or infinite points
    are never chosen, and a row of none fails its trial.  The offset, in
    grid steps and clipped to one step, is the vertex of the parabola
    through the peak and its two neighbours: 0 at either edge of the grid,
    beside a non-finite neighbour, and where the points do not curve down.
    """
    parts = []
    for first in range(0, len(errors), GRID_SLICE):
        scores = score(slice(first, first + GRID_SLICE))
        finite = np.isfinite(scores)
        empty = ~finite.any(axis=-1)
        if not finite.all():  # a masked copy only where a point is excluded
            scores = np.where(finite, scores, -np.inf)
            scores[empty] = 0.0
        idx = np.argmax(scores, axis=-1)
        last = scores.shape[-1] - 1
        parts.append((empty, idx, *(
            np.take_along_axis(scores, i[..., None], axis=-1)[..., 0]
            for i in (np.maximum(idx - 1, 0), idx, np.minimum(idx + 1, last)))))
    empty, idx, left, peak, right = (np.concatenate(p) for p in zip(*parts))
    curvature = left - 2 * peak + right
    ok = (idx > 0) & (idx < last) & np.isfinite(curvature) & (curvature < 0)
    offset = np.zeros(idx.shape)
    offset[ok] = np.clip(0.5 * (left[ok] - right[ok]) / curvature[ok], -1, 1)
    record_failures(errors, empty.any(axis=-1), lambda b: NoFeasibleGrid(
        "a search row has no finite grid point"))
    return idx, offset, peak


def _refine_directions(grid: np.ndarray, score, score_at,
                       doa_prior: tuple[float, float], errors: list):
    """Grid peak per row, moved to the parabola vertex where that is no worse.

    ``score`` is that of ``_grid_peaks``; ``score_at(thetas)`` scores one
    direction per row of the whole stack.  Returns directions and scores.
    """
    idx, offset, best = _grid_peaks(score, errors)
    cand = np.clip(grid[idx] + offset * DOA_GRID_STEP_RAD, *doa_prior)
    cand_scores = score_at(cand)
    take = (offset != 0) & (cand_scores >= best)
    return (np.where(take, cand, grid[idx]),
            np.where(take, cand_scores, best))


def gamma_ratio_curve(grid: np.ndarray, u: np.ndarray,
                      profiles: tuple[PhaseProfile, PhaseProfile],
                      arrays: ArrayConfig) -> np.ndarray:
    """gamma(theta) over a grid; excluded points are NaN.

    gamma is the squared ratio of the surface-side beam responses of the
    two profiles; points where the second profile's response nearly
    vanishes are excluded from searches.  A (B, K) grid or a (B, N) ``u``
    is one per trial.
    """
    return _gamma_ratio(steering_vector(grid, *arrays.surface), u, profiles)


def _gamma_ratio(steer: np.ndarray, u: np.ndarray,
                 profiles: tuple[PhaseProfile, PhaseProfile]) -> np.ndarray:
    """gamma at the directions whose steering vectors are the columns of steer."""
    # each trial's u contracts as a 1 x N row, bit for bit its product alone
    num = ((u * profiles[0].diagonal())[..., None, :] @ steer)[..., 0, :]
    den = ((u * profiles[1].diagonal())[..., None, :] @ steer)[..., 0, :]
    out = np.full(num.shape, np.nan, dtype=complex)
    ok = (np.abs(den) >= GRID_EXCLUSION_RTOL
          * np.linalg.norm(u, axis=-1, keepdims=True))
    out[ok] = (num[ok] / den[ok]) ** 2
    return out


def resolve_doa(aligned: AlignedFactors, u: np.ndarray,
                profiles: tuple[PhaseProfile, PhaseProfile],
                doa_prior: tuple[float, float], arrays: ArrayConfig,
                errors: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    record_failures(errors, ~finite.any(axis=-1), lambda b: NoFeasibleGrid(
        "every grid point excluded by the denominator test"))
    first = np.take_along_axis(curve, np.argmax(finite, axis=-1)[..., None],
                               axis=-1)
    spread = np.fmax.reduce(np.abs(curve - first), axis=-1)  # fmax skips NaN
    record_failures(errors, ~(spread > 1e-12), lambda b: DegenerateProfilePair(
        "cross-phase ratio constant over the prior; profiles too similar"))

    gammas = compute_gamma_statistics(aligned)
    curves = np.broadcast_to(curve, (len(errors), len(grid)))  # one per trial
    thetas, best = _refine_directions(
        grid, lambda s: -np.abs(gammas[s, :, None] - curves[s, None, :]) ** 2,
        lambda cand: -np.abs(
            gammas - gamma_ratio_curve(cand, u, profiles, arrays)) ** 2,
        doa_prior, errors)
    return thetas, gammas, np.sqrt(-best)


def estimate_doa_multirank(b_hat: np.ndarray, channel: ChannelMatrix,
                           profile: PhaseProfile,
                           doa_prior: tuple[float, float],
                           arrays: ArrayConfig, errors: list) -> np.ndarray:
    """Single-phase direction estimates by antenna-column correlation.

    Correlates each column of the estimated (B, M, K) antenna factor against
    the channel-relayed response over a direction grid.  Needs a channel
    of rank at least two: on a rank-one channel all candidate responses
    are collinear and the correlation carries no direction information.
    The grid search runs GRID_SLICE trials at a time.
    """
    ratio = np.broadcast_to(channel.singular_ratio(), len(errors))
    record_failures(errors, ratio < RANK_ONE_RATIO, lambda b: RankOneChannel(
        f"singular-value ratio {ratio[b]:.2e}; "
        "use the cross-phase ratio method instead"))
    grid, grid_steer = _dictionary(steering_vector, *doa_prior,
                                   DOA_GRID_STEP_RAD, *arrays.surface)
    b_norms = np.linalg.norm(b_hat, axis=-2)

    def corr_at(steer: np.ndarray, s: slice = slice(None)) -> np.ndarray:
        cand = relayed_response(channel.trials(s), profile, steer)
        norms = (b_norms[s, :, None]
                 * np.linalg.norm(cand, axis=-2)[..., None, :])
        return np.abs(b_hat[s].conj().swapaxes(-1, -2) @ cand) / norms

    thetas, _ = _refine_directions(
        grid, lambda s: corr_at(grid_steer, s),
        lambda cand: np.diagonal(corr_at(steering_vector(cand, *arrays.surface)),
                                 axis1=-2, axis2=-1),
        doa_prior, errors)
    return thetas


def estimate_doppler(aligned: AlignedFactors, theta_hats: np.ndarray,
                     channel: ChannelMatrix,
                     profiles: tuple[PhaseProfile, PhaseProfile],
                     combiner: np.ndarray, waveform: WaveformConfig,
                     arrays: ArrayConfig, errors: list) -> np.ndarray:
    """Doppler shifts from the pulse factors' phase progressions.

    For each phase, the aligned pulse column is divided by the predicted
    combined response at the estimated direction, leaving (up to scale) a
    pure per-pulse phase ramp that is matched against candidate ramps over
    half a period each side of zero, GRID_SLICE trials at a time.  Phase
    estimates are averaged with equal weights.  The divisor and boundary
    checks run over the whole stack; a failed trial gets no warning.
    """
    half_span = 1.0 / (2 * waveform.pri_s)
    step = half_span / DOPPLER_GRID_POINTS
    grid, ramps = _dictionary(doppler_ramp, -half_span, half_span, step,
                              waveform.n_pulses, waveform.pri_s)
    k_total = aligned.n_components
    steer = steering_vector(theta_hats, *arrays.surface)
    # column c is target c % K of phase c // K
    divisors = np.concatenate(
        [np.swapaxes(combiner, -1, -2) @ relayed_response(channel, p, steer)
         for p in profiles],
        axis=-1)
    pulses = np.concatenate([aligned.phase1.pulse_factor,
                             aligned.phase2.pulse_factor], axis=-1)
    keep = np.abs(divisors) >= DIVISOR_FLOOR
    ramp_obs = np.divide(pulses, divisors, where=keep,
                         out=np.zeros(pulses.shape, dtype=complex))
    idx, offset, _ = _grid_peaks(
        lambda s: np.abs(ramp_obs[s].conj().swapaxes(-1, -2) @ ramps), errors)
    at_edge = (idx == 0) | (idx == len(grid) - 1)
    # only the flagged (trial, column) pairs, in the order one trial meets them
    for b, col in np.argwhere(~keep.all(axis=-2) | at_edge):
        if errors[b] is not None:
            continue
        where = (f"phase {profiles[col // k_total].phase_index}, "
                 f"target {col % k_total}")
        if not keep[b, :, col].any():
            errors[b] = DivisionBlowup(f"{where}: all pulse divisors below "
                                       f"{DIVISOR_FLOOR:.0e}")
            continue
        if not keep[b, :, col].all():
            warnings.warn(f"{where}: excluded {int((~keep[b, :, col]).sum())} "
                          "pulses with near-zero divisors", stacklevel=2)
        if at_edge[b, col]:
            warnings.warn(f"{where}: Doppler at the unambiguous boundary; "
                          "estimate may be wrapped", stacklevel=2)
    return (grid[idx] + offset * step).reshape(-1, 2, k_total).mean(axis=-2)


def estimate_delay(aligned: AlignedFactors, waveform: WaveformConfig,
                   errors: list) -> np.ndarray:
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
                    for triple in (aligned.phase1, aligned.phase2)], axis=-2)
    candidate = raw + np.ceil((window_lo - tol - raw) / period) * period
    infeasible = candidate > window_hi + tol
    for b, phase, k in np.argwhere(infeasible):  # a trial's first one counts
        if errors[b] is None:
            errors[b] = UnwrapInfeasible(
                f"target {k}: no alias of {raw[b, phase, k]:.3e} s lands in "
                f"[{window_lo:.3e}, {window_hi:.3e}] s")
    return np.clip(candidate, window_lo, window_hi).mean(axis=-2)


RECON_WARN_FLOOR = 0.1


def estimate_trials(y1: Sequence[EchoTensor], y2: Sequence[EchoTensor],
                    n_targets: int, doa_prior: tuple[float, float],
                    channel: ChannelMatrix,
                    profiles: tuple[PhaseProfile, PhaseProfile],
                    combiner: np.ndarray, waveform: WaveformConfig,
                    arrays: ArrayConfig,
                    single_phase_doa: Sequence[bool] = (False,),
                    stacklevel: int = 2) -> list[list]:
    """Run a stack of trials through the pipeline.

    Trial b observes ``y1[b]`` and ``y2[b]`` through its own entry of a
    stacked ``channel`` (B x N x M) and ``combiner`` (B x M x P), or through
    the ones the stack shares.  Returns one list per entry of
    ``single_phase_doa`` (a direction method of ``estimate_targets``) with,
    per trial, its estimates sorted by delay or the EstimationError that
    ``estimate_targets`` raises on it alone: the first check it fails.  A
    failed trial stays in the stack, and what later steps compute for it is
    discarded.  The factorization and alignment run once for all methods.
    ``stacklevel`` is that of the reconstruction-residual warning.
    """
    errors = [None] * len(y1)
    try:
        triples = []
        for tensors in (y1, y2):
            phase = f"phase {tensors[0].phase_index}"
            data = np.stack([t.data for t in tensors])
            passed = [e is None for e in errors]
            try:
                triples.append(cp_decompose(data, n_targets, errors))
            except EstimationError as exc:
                exc.args = (f"{phase}: {exc}",)
                raise
            for exc, new in zip(errors, passed):
                if new and exc is not None:
                    exc.args = (f"{phase}: {exc}",)
            recon = reconstruction_error(data, triples[-1], errors)
            for b in np.flatnonzero(recon > RECON_WARN_FLOOR):
                noise = (tensors[b].noise_sigma * math.sqrt(data[b].size)
                         / np.linalg.norm(data[b]))
                if recon[b] > 3 * noise:
                    warnings.warn(
                        f"{phase}: reconstruction residual {recon[b]:.3f} "
                        f"exceeds the expected noise level; the component "
                        f"count {n_targets} may not match the scene",
                        stacklevel=stacklevel)
        aligned = align_columns(*triples, waveform.subcarrier_spacing_hz, errors)
    except EstimationError as exc:  # a check that the whole stack shares
        return [[e or exc for e in errors] for _ in single_phase_doa]

    results = []
    for single_phase in single_phase_doa:
        method_errors = list(errors)
        if single_phase:
            thetas = estimate_doa_multirank(
                aligned.phase1.antenna_factor, channel, profiles[0],
                doa_prior, arrays, method_errors)
            gammas, residuals = (compute_gamma_statistics(aligned),
                                 np.zeros(thetas.shape))
        else:
            thetas, gammas, residuals = resolve_doa(
                aligned, channel.irs_side_vector(), profiles, doa_prior,
                arrays, method_errors)
        dopplers = estimate_doppler(aligned, thetas, channel, profiles,
                                    combiner, waveform, arrays, method_errors)
        delays = estimate_delay(aligned, waveform, method_errors)
        results.append([error or sorted((TargetEstimate(
            theta_hat=float(theta), tau_hat=float(tau), nu_hat=float(nu),
            range_hat=float(SPEED_OF_LIGHT * tau / 2),
            velocity_hat=float(nu * SPEED_OF_LIGHT
                               / (2 * waveform.carrier_freq_hz)),
            gamma_hat=complex(gamma), residual=float(residual))
            for theta, tau, nu, gamma, residual in zip(*trial)),
            key=lambda est: est.tau_hat)
            for error, *trial in zip(method_errors, thetas, delays, dopplers,
                                     gammas, residuals)])
    return results


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
    This is ``estimate_trials`` on one trial.
    """
    [[outcome]] = estimate_trials([y1], [y2], n_targets, doa_prior, channel,
                                  profiles, combiner, waveform, arrays,
                                  (single_phase_doa,), stacklevel=3)
    if isinstance(outcome, EstimationError):
        raise outcome
    return outcome
