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
its channel is one per trial or one shared.  From the factorization on, the
factors of both phases are one FactorTriple, phase first (2, B, ..., K).
``estimate_trials`` runs a stack through the pipeline, ``estimate_targets``
one trial.
"""
from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple, Sequence

import numpy as np

from .config import ArrayConfig, WaveformConfig
from .cpd import (FactorTriple, cp_decompose, frobenius_norms, raw_delay,
                  reconstruction_error)
from .errors import (AmbiguousAlignment, DegenerateProfilePair,
                     EstimationError, NoFeasibleGrid, RankOneChannel,
                     UnwrapInfeasible, record_failures)
from .scene import ChannelMatrix, relayed_response, steering_vector
from .synthesis import doppler_ramp

DOA_GRID_STEP_RAD = math.radians(0.02)
DOPPLER_GRID_POINTS = 2000          # grid step = half-period / this
DOPPLER_COARSE = 16                 # fine steps per coarse Doppler cell
DOPPLER_WINDOW = 2                  # coarse cells each side of the coarse peak
ALIGNMENT_MARGIN = 1e-6
GRID_EXCLUSION_RTOL = 1e-8          # drop grid points with tiny denominators
UNWRAP_EDGE_TOL = 0.01              # fraction of the prefix length
RANK_ONE_RATIO = 1e-3
SCAN_WINDOW = 8                     # exact points around a fast direction peak
SCAN_MARGIN = 1e-9                  # relative, below any fine-grid window's best score


class Estimates(NamedTuple):
    """Recovered parameters, one (B, K) array each for a stack of B trials
    or (K,) for one trial, the targets of each trial sorted by delay; a
    failed trial's row is NaN."""

    theta: np.ndarray       # rad
    tau: np.ndarray         # s
    nu: np.ndarray          # Hz
    gamma: np.ndarray       # cross-phase ratio diagnostic
    residual: np.ndarray    # |gamma - gamma(theta)| at the solution


def correlation_matrix(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Absolute normalized column correlations |c1_i^H c2_j| (per trial)."""
    return (np.abs(c1.conj().swapaxes(-1, -2) @ c2)
            / (np.linalg.norm(c1, axis=-2)[..., :, None]
               * np.linalg.norm(c2, axis=-2)[..., None, :]))


def greedy_match(*costs: np.ndarray) -> np.ndarray:
    """Greedy one-to-one pairing of rows with columns by ascending cost,
    for each trial of (..., R, C) cost stacks at once.

    Pairs are taken in lexicographic order of the cost matrices (the first
    decides, later ones break its exact ties), then of row and column; a
    pair is kept when its row and its column are both still free.
    ``out[..., i]`` is the column paired with row i, or -1 if none was left.
    """
    n_rows, n_cols = costs[0].shape[-2:]
    # lexsort is stable and sorts by its last key first, so pairs tied in
    # every cost keep their row-major order
    order = np.lexsort([c.reshape(-1, n_rows * n_cols) for c in reversed(costs)],
                       axis=-1)
    t = np.arange(len(order))
    out = np.full((len(order), n_rows), -1)
    col_free = np.ones((len(order), n_cols), dtype=bool)
    for i, j in zip(*np.divmod(order.T, n_cols)):  # the r-th pair of each trial
        take = (out[t, i] == -1) & col_free[t, j]
        out[t[take], i[take]] = j[take]
        col_free[t[take], j[take]] = False
    return out.reshape(costs[0].shape[:-1])


def align_columns(triples: FactorTriple, spacing_hz: float,
                  errors: list) -> FactorTriple:
    """Match phase-1 columns to phase-2 columns by subcarrier correlation.

    ``triples`` holds the factors of both phases, phase first (2, B, ..., K).
    Greedy maximum assignment on the correlation matrix; exact score ties
    are broken by raw-delay proximity of the generators.  A best-to-second
    margin below ALIGNMENT_MARGIN in any row means two targets are not
    distinguishable by delay and fails the trial with AmbiguousAlignment.
    Returns the triple with each trial's phase-1 columns permuted so that
    column k of both phases refers to the same physical target.
    """
    k = triples.n_components
    rho = correlation_matrix(*triples.subcarrier_factor)
    if k > 1:
        top2 = -np.partition(-rho, 1, axis=-1)[..., :2]
        margin = top2[..., 0] - top2[..., 1]
        worst = np.argmin(margin, axis=-1)
        record_failures(errors, (margin < ALIGNMENT_MARGIN).any(axis=-1),
                        lambda b: AmbiguousAlignment(
                            f"correlation margin {margin[b, worst[b]]:.2e} "
                            f"for column {worst[b]}"))

    d1, d2 = raw_delay(triples.generators, spacing_hz)
    perm = greedy_match(-rho, np.abs(d1[..., :, None] - d2[..., None, :]))
    source = np.argsort(perm)  # aligned column j is phase-1 column source[j]
    index = (source[:, None, :],) * 3 + (source,)  # matrices, then generators
    return FactorTriple(*(np.stack([np.take_along_axis(f[0], i, axis=-1), f[1]])
                          for f, i in zip(triples, index)))


def compute_gamma_statistics(aligned: FactorTriple) -> np.ndarray:
    """Cross-phase ratio statistic per target.

    Entry-wise ratios of matched antenna columns are averaged over
    antennas, pulse columns over pulses, and the two means multiplied.
    Because both phases rebuild the subcarrier factor with a unit leading
    coefficient, the factorization scalings cancel in this product and
    the statistic depends on the direction alone.
    """
    b1, b2 = aligned.antenna_factor
    a1, a2 = aligned.pulse_factor
    return (b1 / b2).mean(axis=-2) * (a1 / a2).mean(axis=-2)


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


def _grid_peaks(scores: np.ndarray, errors: list) -> tuple[np.ndarray, ...]:
    """Best finite grid index of each row of scores, its vertex offset, and
    its score.

    ``scores`` are the (B, rows, grid) scores of the stack, larger is
    better.  NaN or infinite points are never chosen, and a row of none
    fails its trial.  The offset, in grid steps and clipped to one step, is
    the vertex of the parabola through the peak and its two neighbours: 0
    at either edge of the grid, beside a non-finite neighbour, and where
    the points do not curve down.
    """
    finite = np.isfinite(scores)
    empty = ~finite.any(axis=-1)
    if not finite.all():  # a masked copy only where a point is excluded
        scores = np.where(finite, scores, -np.inf)
        scores[empty] = 0.0
    idx = np.argmax(scores, axis=-1)
    last = scores.shape[-1] - 1
    left, peak, right = np.moveaxis(np.take_along_axis(
        scores, (idx[..., None] + [-1, 0, 1]).clip(0, last), axis=-1), -1, 0)
    curvature = left - 2 * peak + right
    ok = (idx > 0) & (idx < last) & np.isfinite(curvature) & (curvature < 0)
    offset = np.zeros(idx.shape)
    offset[ok] = np.clip(0.5 * (left[ok] - right[ok]) / curvature[ok], -1, 1)
    record_failures(errors, empty.any(axis=-1), lambda b: NoFeasibleGrid(
        "a search row has no finite grid point"))
    return idx, offset, peak


def _refine_directions(grid: np.ndarray, scores: np.ndarray, score_at,
                       doa_prior: tuple[float, float], errors: list):
    """Grid peak per row, moved to the parabola vertex where that is no worse.

    ``scores`` are those of ``_grid_peaks``; ``score_at(thetas)`` scores one
    direction per row of the whole stack.  Returns directions and scores.
    """
    idx, offset, best = _grid_peaks(scores, errors)
    cand = np.clip(grid[idx] + offset * DOA_GRID_STEP_RAD, *doa_prior)
    cand_scores = score_at(cand)
    take = (offset != 0) & (cand_scores >= best)
    return (np.where(take, cand, grid[idx]),
            np.where(take, cand_scores, best))


def gamma_ratio_curve(grid: np.ndarray, u: np.ndarray, profiles: np.ndarray,
                      arrays: ArrayConfig) -> np.ndarray:
    """gamma(theta) over a grid; excluded points are NaN.

    gamma is the squared ratio of the surface-side beam responses of the
    two rows of reflection coefficients ``profiles``; points where the
    second row's response nearly vanishes are excluded from searches.  A
    (B, K) grid or a (B, N) ``u`` is one per trial.
    """
    return _gamma_ratio(steering_vector(grid, *arrays.surface), u, profiles)


def _gamma_ratio(steer: np.ndarray, u: np.ndarray,
                 profiles: np.ndarray) -> np.ndarray:
    """gamma at the directions whose steering vectors are the columns of steer."""
    # each trial's u contracts as a 1 x N row, bit for bit its product alone
    num, den = (((u * profile)[..., None, :] @ steer)[..., 0, :]
                for profile in profiles)
    ok = (np.abs(den) >= GRID_EXCLUSION_RTOL
          * np.linalg.norm(u, axis=-1, keepdims=True))
    out = np.divide(num, den, out=np.full(num.shape, np.nan, dtype=complex),
                    where=ok)  # in place: no masked copies
    return np.square(out, out=out)


def resolve_doa(gammas: np.ndarray, u: np.ndarray, profiles: np.ndarray,
                doa_prior: tuple[float, float], arrays: ArrayConfig,
                errors: list) -> tuple[np.ndarray, np.ndarray]:
    """Directions from the (B, K) cross-phase ratio statistic ``gammas``.

    Matches each target's statistic against gamma(theta) on a grid over
    the prior by the complex squared error, then refines with a 3-point
    parabola; the refined point is kept only if it does not increase the
    objective.  Returns (theta_hats, residuals).
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

    thetas, best = _refine_directions(
        grid, -np.abs(gammas[..., None] - curve[..., None, :]) ** 2,
        lambda cand: -np.abs(
            gammas - gamma_ratio_curve(cand, u, profiles, arrays)) ** 2,
        doa_prior, errors)
    return thetas, np.sqrt(-best)


def _lag_norms(gain: np.ndarray, steer: np.ndarray) -> np.ndarray:
    """|G a|^2 of each ULA steering column a of steer (N x G) through the
    (B,) M x N operator G, from its lag sums c_d = sum_n (G^H G)[n, n + d]
    as Re(sum_d w_d c_d a_d) / sqrt(N) with w = (1, 2, 2, ...); NaN, which
    no window certifies, below 1e-5 c_0: too near a null for their precision."""
    n = len(steer)
    lags = gain.conj().swapaxes(-1, -2) @ gain  # G^H G, then its lag sums
    lags = np.stack([lags.diagonal(d, -2, -1).sum(-1) for d in range(n)], -1)
    sq = (lags * np.r_[1, [2] * (n - 1)] @ steer).real / math.sqrt(n)
    return np.where(sq > 1e-5 * lags[..., :1].real, sq, np.nan)


def estimate_doa_multirank(b_hat: np.ndarray, channel: ChannelMatrix,
                           profile: np.ndarray,
                           doa_prior: tuple[float, float],
                           arrays: ArrayConfig, errors: list) -> np.ndarray:
    """Single-phase direction estimates by antenna-column correlation.

    Scores each column x of the estimated (B, M, K) antenna factor by
    |x^H r| / (|x| |r|) against r = G a(theta), G = H^T diag(phi), over a
    direction grid; a rank-one channel makes every r collinear.  One pass
    over the bank finds each row's peak from x^H G and ``_lag_norms``; the
    SCAN_WINDOW points around it are scored again from r, as in a product
    with the whole grid, and the whole row where they do not certify it.
    """
    ratio = np.broadcast_to(channel.singular_ratio(), len(errors))
    record_failures(errors, ratio < RANK_ONE_RATIO, lambda b: RankOneChannel(
        f"singular-value ratio {ratio[b]:.2e}; "
        "use the cross-phase ratio method instead"))
    grid, grid_steer = _dictionary(steering_vector, *doa_prior,
                                   DOA_GRID_STEP_RAD, *arrays.surface)
    b_norms = np.linalg.norm(b_hat, axis=-2)
    (n_trials, k), (n_elem, n_grid) = b_norms.shape, grid_steer.shape

    def corr_at(steer: np.ndarray, s: slice = slice(None)) -> np.ndarray:
        return correlation_matrix(
            b_hat[s], relayed_response(channel.trials(s), profile, steer))

    def own(steer: np.ndarray) -> np.ndarray:  # row k on the k-th W of K * W columns
        corr = corr_at(steer).reshape(n_trials, k, k, -1)
        return np.diagonal(corr, 0, 1, 2).swapaxes(-1, -2)

    gain = relayed_response(channel, profile, np.eye(n_elem))  # G, M x N
    scores = np.abs((b_hat.conj().swapaxes(-1, -2) @ gain).reshape(-1, n_elem)
                    @ grid_steer).reshape(n_trials, k, n_grid)
    scores /= b_norms[..., None] * np.sqrt(_lag_norms(gain, grid_steer))[..., None, :]
    w = SCAN_WINDOW  # whole column blocks of the BLAS kernels, clear of the grid's tail
    first = (np.argmax(scores, axis=-1) - w // 2 + 1).clip(0, n_grid - n_grid % w - w)
    cols = (first[..., None] + np.arange(w)) % n_grid
    window = own(np.moveaxis(grid_steer[:, cols.reshape(n_trials, -1)], 0, 1))
    # the window's end cells stay in the bound, so a peak on one fails it
    np.put_along_axis(scores, cols[..., 1:-1], -np.inf, axis=-1)
    certified = ((scores.max(axis=-1) < window.max(axis=-1) * (1 - SCAN_MARGIN))
                 & (n_grid >= w))
    np.put_along_axis(scores, cols, window, axis=-1)
    for b in np.flatnonzero(~certified.all(axis=-1)):
        scores[b] = corr_at(grid_steer, slice(b, b + 1))[0]
    return _refine_directions(grid, scores, lambda cand: own(
        steering_vector(cand, *arrays.surface))[..., 0], doa_prior, errors)[0]


def _doppler_peaks(pulses: np.ndarray, waveform: WaveformConfig,
                   errors: list) -> tuple[np.ndarray, np.ndarray]:
    """Grid index and refined Doppler of each column a of the (B, P, C)
    pulse factors, as ``_grid_peaks`` finds them on the whole grid, from
    every DOPPLER_COARSE-th point and a certified window around their peak;
    an uncertified column gets its whole grid."""
    n, pri = waveform.n_pulses, waveform.pri_s
    half_span = 1.0 / (2 * pri)
    step = half_span / DOPPLER_GRID_POINTS
    grid, ramps = _dictionary(doppler_ramp, -half_span, half_span, step, n, pri)
    coarse = np.ascontiguousarray(ramps[:, ::DOPPLER_COARSE])
    last = coarse.shape[-1] - 1 - 2 * DOPPLER_WINDOW  # the last window's cell
    width = 2 * DOPPLER_WINDOW * DOPPLER_COARSE + 1
    shift = doppler_ramp(np.arange(width) * step, n, pri)  # r(w * step)
    # |score|^2 = Q(x), x = 2*pi*T*nu, exceeds the larger end of a coarse
    # cell h wide in x by at most h^2/8 max|Q''| <= h^2/8 sum (p-q)^2|a_p||a_q|
    h = np.pi * DOPPLER_COARSE / DOPPLER_GRID_POINTS
    bend = (np.subtract.outer(np.arange(n), np.arange(n)) * h) ** 2 / 8
    spread = ((bend @ abs(pulses)) * abs(pulses)).sum(axis=-2)  # (B, C)
    a = pulses.conj().swapaxes(-1, -2)  # (B, C, P)
    q = np.abs(a @ coarse)
    cell = (np.argmax(q, axis=-1, keepdims=True) - DOPPLER_WINDOW).clip(0, last)
    first = cell[..., 0] * DOPPLER_COARSE
    window = np.abs((a * ramps.T[first]) @ shift)
    # a fine point off the window lies in a cell with no end inside it
    np.put_along_axis(q, cell + np.arange(1, 2 * DOPPLER_WINDOW), 0, axis=-1)
    certified = (q.max(axis=-1) ** 2 + spread
                 < window.max(axis=-1) ** 2 * (1 - SCAN_MARGIN))
    for b, c in np.argwhere(~certified):
        full = np.abs(a[b] @ ramps)[c]
        top = np.argmax(np.where(np.isfinite(full), full, -np.inf))
        first[b, c] = np.clip(top - width // 2, 0, len(grid) - width)
        window[b, c] = full[first[b, c]:first[b, c] + width]

    idx, offset, _ = _grid_peaks(window, errors)
    idx += first
    return idx, grid[idx] + offset * step


def estimate_doppler(aligned: FactorTriple, waveform: WaveformConfig,
                     errors: list, stacklevel: int = 2) -> np.ndarray:
    """Doppler shifts from the pulse factors' phase progressions: one
    weight vector on every pulse makes each aligned pulse column a constant
    times a per-pulse phase ramp (``_doppler_peaks``).  The phases' estimates
    are averaged; a boundary peak warns at ``stacklevel`` unless its trial failed."""
    k_total = aligned.n_components
    # column c is target c % K of phase c // K
    idx, nu = _doppler_peaks(np.concatenate(aligned.pulse_factor, axis=-1),
                             waveform, errors)
    for b, col in np.argwhere((idx == 0) | (idx == 2 * DOPPLER_GRID_POINTS)):
        if errors[b] is None:
            warnings.warn(f"phase {col // k_total + 1}, "
                          f"target {col % k_total}: Doppler at the unambiguous "
                          "boundary; estimate may be wrapped", stacklevel=stacklevel)
    return nu.reshape(-1, 2, k_total).mean(axis=-2)


def estimate_delay(aligned: FactorTriple, waveform: WaveformConfig,
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
    raw = raw_delay(aligned.generators, waveform.subcarrier_spacing_hz)
    candidate = raw + np.ceil((window_lo - tol - raw) / period) * period
    # a trial's first infeasible (phase, target) counts, phase 1 first
    for phase, b, k in np.argwhere(candidate > window_hi + tol):
        if errors[b] is None:
            errors[b] = UnwrapInfeasible(
                f"target {k}: no alias of {raw[phase, b, k]:.3e} s lands in "
                f"[{window_lo:.3e}, {window_hi:.3e}] s")
    return np.clip(candidate, window_lo, window_hi).mean(axis=0)


RECON_WARN_FLOOR = 0.1


def estimate_trials(y: np.ndarray, noise_sigma: np.ndarray,
                    n_targets: int, doa_prior: tuple[float, float],
                    channel: ChannelMatrix, profiles: np.ndarray,
                    waveform: WaveformConfig, arrays: ArrayConfig,
                    single_phase_doa: Sequence[bool] = (False,),
                    stacklevel: int = 2) -> list[tuple[Estimates, list]]:
    """Run a stack of trials through the pipeline.

    Trial b observes ``y[:, b]`` of the (2, B, P, M, L) observations, one
    tensor per phase, at the noise levels ``noise_sigma[:, b]`` of a (2, B)
    array, or of a (2, 1) one the stack shares, through its own entry of a
    stacked ``channel`` (B x N x M), or through one the stack shares.
    Returns one (Estimates, errors) pair per entry of ``single_phase_doa``
    (a direction method of ``estimate_targets``): ``errors[b]`` is None or
    the EstimationError that ``estimate_targets`` raises on trial b alone,
    the first check it fails, and its row of the estimates is NaN.  A
    check that the whole stack shares fails every trial.  Everything but
    the direction step runs once for all methods, so a method is its
    direction step alone, and a trial's direction failure precedes its
    Doppler or delay one.  ``stacklevel`` is that of the
    reconstruction-residual and Doppler-boundary warnings.
    """
    n = y.shape[1]
    data = y.reshape(-1, *y.shape[2:])  # phase 1's trials, then phase 2's
    phase_errors = [None] * len(data)
    try:
        triple = cp_decompose(data, n_targets, phase_errors)
    except EstimationError as exc:  # a check that the whole stack shares
        exc.args = (f"phase 1: {exc}",)
        return [(Estimates(*(np.full((n, n_targets), np.nan, dtype) for dtype
                             in (float, float, float, complex, float))),
                 [exc] * n) for _ in single_phase_doa]
    for j, exc in enumerate(phase_errors):
        if exc is not None:
            exc.args = (f"phase {j // n + 1}: {exc}",)
    # a trial keeps its phase-1 failure, and after one its phase-2 residual
    # goes unchecked
    errors = [e or f for e, f in zip(phase_errors[:n], phase_errors[n:])]
    recon = reconstruction_error(data, triple, phase_errors[:n] + errors)
    flagged = np.flatnonzero(recon > RECON_WARN_FLOOR)
    noise = (np.broadcast_to(noise_sigma, y.shape[:2]).ravel()[flagged]
             * math.sqrt(data[0].size) / frobenius_norms(data[flagged]))
    for j in flagged[recon[flagged] > 3 * noise]:
        warnings.warn(
            f"phase {j // n + 1}: reconstruction residual {recon[j]:.3f} "
            f"exceeds the expected noise level; the component "
            f"count {n_targets} may not match the scene",
            stacklevel=stacklevel)
    aligned = align_columns(
        FactorTriple(*(f.reshape(2, n, *f.shape[1:]) for f in triple)),
        waveform.subcarrier_spacing_hz, errors)

    shared = list(errors)  # the Doppler and delay failures of every method
    nu = estimate_doppler(aligned, waveform, shared, stacklevel + 1)
    tau = estimate_delay(aligned, waveform, shared)
    gammas = compute_gamma_statistics(aligned)
    order = np.argsort(tau, axis=-1, kind="stable")
    results = []
    for single_phase in single_phase_doa:
        method_errors = list(errors)
        if single_phase:
            thetas = estimate_doa_multirank(
                aligned.antenna_factor[0], channel, profiles[0],
                doa_prior, arrays, method_errors)
            residuals = np.zeros(thetas.shape)
        else:
            thetas, residuals = resolve_doa(gammas, channel.u, profiles,
                                            doa_prior, arrays, method_errors)
        method_errors = [e or s for e, s in zip(method_errors, shared)]
        failed = np.array([e is not None for e in method_errors])[:, None]
        results.append((Estimates(*(
            np.where(failed, np.nan, np.take_along_axis(v, order, axis=-1))
            for v in (thetas, tau, nu, gammas, residuals))), method_errors))
    return results


def estimate_targets(y: np.ndarray, noise_sigma: np.ndarray, n_targets: int,
                     doa_prior: tuple[float, float], channel: ChannelMatrix,
                     profiles: np.ndarray, waveform: WaveformConfig,
                     arrays: ArrayConfig,
                     single_phase_doa: bool = False) -> Estimates:
    """Full pipeline: factorize both phases, align, extract all parameters.

    ``y`` holds one (P, M, L) tensor per phase, at the noise levels
    ``noise_sigma``.  Returns (K,) estimates sorted by delay.
    ``single_phase_doa`` switches the direction step to the correlation
    method on phase 1 alone (requires a channel of rank >= 2); Doppler and
    delay always use both phases.  This is ``estimate_trials`` on one
    trial; it raises the trial's error.
    """
    [(estimates, [error])] = estimate_trials(
        y[:, None], np.reshape(noise_sigma, (2, 1)), n_targets, doa_prior,
        channel, profiles, waveform, arrays, (single_phase_doa,),
        stacklevel=3)
    if error is not None:
        raise error
    return Estimates(*(field[0] for field in estimates))
