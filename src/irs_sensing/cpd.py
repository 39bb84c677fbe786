"""Tensor unfoldings, Khatri-Rao products, and the structured CP solver.

The observation tensor has shape (pulses, antennas, subcarriers) =
(P, M, L).  The unfoldings follow one convention:

    mode 1: row p, column m + l*M          (P  x LM)
    mode 2: row m, column p + l*P          (M  x LP)
    mode 3: row l, column p + m*P          (L  x MP)

with 0-based p, m, l.  In the noiseless case the unfoldings factor as
A*kr(C,B)', B*kr(C,A)', C*kr(B,A)', where kr is the column-wise Kronecker
(Khatri-Rao) product with the FIRST argument varying slowly.

The solver exploits that each subcarrier-factor column is a geometric
progression in one unit-modulus generator: a truncated SVD of the mode-1
unfolding, a shift-invariance eigenproblem for the generators, and linear
solves for the remaining factors.  It takes a stack of tensors, with a
leading trial axis, through NumPy's stacked ``svd``, ``eig``, ``pinv`` and
``matmul``, which treat each trial exactly as a stack of that trial alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, IllConditionedShift, RankDeficient,
                     UniquenessError, record_failures)

PINV_RTOL = 1e-10          # singular values below this (relative) are zeroed
RANK_GAP_TOL = 1e-12       # sigma_K / sigma_1 below this means < K components
SHIFT_COND_LIMIT = 1e12    # conditioning guard for the shift subspace solve
# (P, M, L) axes of each unfolding: its row axis, then its column axes from
# slowest to fastest
_MODE_AXES = {1: (-3, -1, -2), 2: (-2, -1, -3), 3: (-1, -2, -3)}


def unfold(data: np.ndarray, mode: int) -> np.ndarray:
    """Flatten a (P, M, L) tensor, or each of a stack, along one mode per
    the module convention."""
    if data.ndim < 3:
        raise DimensionMismatch(f"expected a 3-way tensor, got ndim={data.ndim}")
    if mode not in _MODE_AXES:
        raise DimensionMismatch(f"mode must be 1, 2, or 3, got {mode}")
    moved = np.moveaxis(data, _MODE_AXES[mode], (-3, -2, -1))
    return moved.reshape(*moved.shape[:-2], moved.shape[-2] * moved.shape[-1])


def khatri_rao(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product (of each pair of a stack); rows of
    ``x`` vary slowly."""
    if x.shape[-1] != y.shape[-1]:
        raise DimensionMismatch("column counts differ")
    return (x[..., :, None, :] * y[..., None, :, :]).reshape(
        *x.shape[:-2], x.shape[-2] * y.shape[-2], x.shape[-1])


@dataclass(frozen=True)
class UniquenessResult:
    unique: bool
    reason: str

    def __bool__(self) -> bool:
        return self.unique


def check_uniqueness(n_pulses: int, n_antennas: int, n_subcarriers: int,
                     n_targets: int) -> UniquenessResult:
    """Identifiability of a K-component decomposition with a geometric-
    progression subcarrier factor: needs (L-1)*M >= K and P >= K."""
    if min(n_pulses, n_antennas, n_subcarriers, n_targets) < 1:
        raise DimensionMismatch("all dimensions must be positive")
    shifted = (n_subcarriers - 1) * n_antennas
    if shifted < n_targets:
        return UniquenessResult(False, f"(L-1)*M = {shifted} < K = {n_targets}")
    if n_pulses < n_targets:
        return UniquenessResult(False, f"P = {n_pulses} < K = {n_targets}")
    return UniquenessResult(True, "shift subspace and pulse mode both full rank")


@dataclass(frozen=True)
class FactorTriple:
    """CP factors of one phase plus the subcarrier generators: a scene's
    exact factors or the estimator's.

    The estimator rebuilds ``subcarrier_factor`` columns as [t, t^2, ...,
    t^L] from the unit-modulus generators — the unit leading coefficient
    is load-bearing: the cross-phase ratio statistic cancels scalings only
    when both phases share this normalization.  Its arrays carry a leading
    trial axis.  The exact factors carry each target's gain in that column.
    """

    pulse_factor: np.ndarray       # P x K
    antenna_factor: np.ndarray     # M x K
    subcarrier_factor: np.ndarray  # L x K
    generators: np.ndarray         # K unit-modulus complex numbers

    @property
    def n_components(self) -> int:
        return self.pulse_factor.shape[-1]


def raw_delay(generator: complex | np.ndarray, spacing_hz: float) -> np.ndarray:
    """Delay of a generator modulo 1/spacing, in [0, 1/spacing)."""
    period = 1.0 / spacing_hz
    return (np.angle(generator) / (-2 * np.pi * spacing_hz)) % period


def cp_decompose(data: np.ndarray, n_components: int,
                 errors: list) -> FactorTriple:
    """Recover the factor triple of each (P, M, L) tensor of a stack.

    Steps: truncated SVD of the transposed mode-1 unfolding; eigenvalue
    decomposition of the subspace shift operator for the generators;
    least-squares reconstruction of the antenna and pulse factors.
    Components are returned sorted by descending raw generator delay so
    noiseless output order is deterministic.  A trial's failed check goes
    to ``errors[b]`` and leaves its factors void, all ones; a check that the
    whole (B, P, M, L) stack shares raises.
    """
    if data.ndim != 4:
        raise DimensionMismatch("expected a stack of 3-way tensors")
    n_trials, p_dim, m_dim, l_dim = data.shape
    ok = check_uniqueness(p_dim, m_dim, l_dim, n_components)
    if not ok:
        raise UniquenessError(ok.reason)

    y1 = unfold(data, 1)
    u_full, s, _ = np.linalg.svd(y1.swapaxes(-1, -2), full_matrices=False)
    record_failures(errors, s[:, 0] == 0.0,
                    lambda b: RankDeficient("zero tensor"))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s[:, n_components - 1] / s[:, 0]
    record_failures(errors, ratio < RANK_GAP_TOL, lambda b: RankDeficient(
        f"singular-value ratio {ratio[b]:.2e} "
        f"below {RANK_GAP_TOL:.0e}: fewer than {n_components} components"))
    # u stays a view of u_full, so the vector products below get the strides,
    # hence the BLAS kernels and the bits, of a one-trial call
    u = u_full[..., :n_components]
    # one SVD of the shift subspace gives its condition number (0/0 fails
    # too) and its pseudo-inverse, computed as np.linalg.pinv does, bit for bit
    w, sv, vh = np.linalg.svd(u[:, :(l_dim - 1) * m_dim, :].conj(),
                              full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[:, 0] / sv[:, -1]
    record_failures(errors, ~(cond <= SHIFT_COND_LIMIT), lambda b: IllConditionedShift(
        f"shift subspace condition number {cond[b]:.2e}"))
    large = sv > PINV_RTOL * sv.max(axis=-1, keepdims=True)
    sv_inv = np.divide(1, sv, where=large, out=np.zeros_like(sv))
    shift_op = ((vh.swapaxes(-1, -2) @ (sv_inv[..., None] * w.swapaxes(-1, -2)))
                @ u[:, m_dim:, :])
    eigvals, eigvecs = np.linalg.eig(shift_op)
    # a generator is an eigenvalue scaled to unit modulus, which a zero
    # eigenvalue does not have; the condition guard above misses a shift
    # operator that is exactly zero
    record_failures(errors, ~(np.abs(eigvals) > 0).all(axis=-1),
                    lambda b: IllConditionedShift(
                        "shift operator has a zero eigenvalue"))
    # a failed trial's factors are void: ones keep its solves, and what the
    # later steps compute for it, finite and free of warnings, so it cannot
    # fail the other trials of the stack
    failed = np.array([e is not None for e in errors])
    generators = np.where(failed[:, None], 1.0, eigvals / np.where(
        failed[:, None], 1.0, np.abs(eigvals)))

    order = np.argsort(-((-np.angle(generators)) % (2 * np.pi)), axis=-1)
    generators = np.take_along_axis(generators, order, axis=-1)
    eigvecs = np.take_along_axis(eigvecs, order[:, None, :], axis=-1)

    powers = np.arange(1, l_dim + 1)
    subcarrier = np.power(generators[:, None, :], powers[:, None])

    antenna = np.zeros((n_trials, m_dim, n_components), dtype=complex)
    for k in range(n_components):
        col = subcarrier[:, None, :, k]
        stacked = (u @ eigvecs[:, :, k, None]).reshape(-1, l_dim, m_dim)
        antenna[:, :, k] = ((col.conj() @ stacked)[:, 0]
                            / np.real(col.conj() @ col.swapaxes(-1, -2))[:, 0])
    antenna[failed] = 1.0

    pulse = y1 @ np.linalg.pinv(khatri_rao(subcarrier, antenna).swapaxes(-1, -2),
                                rcond=PINV_RTOL)
    pulse[failed] = 1.0
    return FactorTriple(pulse_factor=pulse, antenna_factor=antenna,
                        subcarrier_factor=subcarrier, generators=generators)


def cp_reconstruct(triple) -> np.ndarray:
    """Sum of the rank-one terms of a factor triple (or of each of a stack)."""
    return np.einsum("...pk,...mk,...lk->...pml", triple.pulse_factor,
                     triple.antenna_factor, triple.subcarrier_factor)


def reconstruction_error(data: np.ndarray, triple: FactorTriple,
                         errors: list) -> np.ndarray:
    """Relative Frobenius mismatch between each tensor of a stack and its
    factorization; NaN for a trial that has failed."""
    residual = cp_reconstruct(triple)
    np.subtract(data, residual, out=residual)
    return np.array([np.linalg.norm(r) / np.linalg.norm(d) if e is None
                     else np.nan for r, d, e in zip(residual, data, errors)])
