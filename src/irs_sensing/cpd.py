"""Khatri-Rao products and the structured CP solver.

The observation tensor has shape (pulses, antennas, subcarriers) =
(P, M, L).  The solver reads each tensor through its flat view, the free
reshape to P x LM with row p and column m*L + l (0-based).  In the
noiseless case the flat view factors as A*kr(B,C)', where kr is the
column-wise Kronecker (Khatri-Rao) product with the FIRST argument varying
slowly.  Its Gram matrix is that of any other column order, such as the
mode-1 unfolding's m + l*M.

The solver exploits that each subcarrier-factor column is a geometric
progression in one unit-modulus generator: the signal subspace from the
P x P Gram matrix of the flat view, a shift-invariance eigenproblem for
the generators, and linear solves for the remaining factors.  It takes a
stack of tensors, with a leading trial axis, through NumPy's stacked
``eigh``, ``qr``, ``svd``, ``eig``, ``pinv`` and ``matmul``, which treat
each trial exactly as a stack of that trial alone.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatch, IllConditionedShift, RankDeficient,
                     UniquenessError, record_failures)

PINV_RTOL = 1e-10          # singular values below this (relative) are zeroed
RANK_GAP_TOL = 1e-12       # sigma_K / sigma_1 below this means < K components
SHIFT_COND_LIMIT = 1e12    # conditioning guard for the shift subspace solve


def khatri_rao(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product (of each pair of a stack); rows of
    ``x`` vary slowly."""
    if x.shape[-1] != y.shape[-1]:
        raise DimensionMismatch("column counts differ")
    return (x[..., :, None, :] * y[..., None, :, :]).reshape(
        *x.shape[:-2], x.shape[-2] * y.shape[-2], x.shape[-1])


def check_uniqueness(n_pulses: int, n_antennas: int, n_subcarriers: int,
                     n_targets: int) -> None:
    """Identifiability of a K-component decomposition with a geometric-
    progression subcarrier factor: needs (L-1)*M >= K and P >= K, else
    raises UniquenessError."""
    if min(n_pulses, n_antennas, n_subcarriers, n_targets) < 1:
        raise DimensionMismatch("all dimensions must be positive")
    shifted = (n_subcarriers - 1) * n_antennas
    if shifted < n_targets:
        raise UniquenessError(f"(L-1)*M = {shifted} < K = {n_targets}")
    if n_pulses < n_targets:
        raise UniquenessError(f"P = {n_pulses} < K = {n_targets}")


class FactorTriple(NamedTuple):
    """CP factors plus the subcarrier generators: a scene's exact factors
    or the estimator's, of one phase or of both stacked phase first.

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

    Steps: the top K eigenvectors w of the P x P Gram matrix Y Y^H of the
    flat view Y give the signal subspace, spanned by Y^T conj(w), and an
    orthonormal LM x K basis Q of it; the eigenvalues of the subspace shift
    operator give the generators; least squares give the antenna factor
    and, through a K x K Gram matrix, the pulse factor.  The rank check
    reads the singular values of Y conj(Q) (P x K), exact to about
    eps * sigma_1.  The eigenvalues, their squares, blur below a ratio of
    about 1e-8, where the K-th eigenvector is lost in rounding and the
    column norms of Y^T conj(w) read only part of sigma_K.
    Components are returned sorted by descending raw generator delay so
    noiseless output order is deterministic.  A trial's failed check goes
    to ``errors[b]`` and leaves its factors void, all ones; a check that the
    whole (B, P, M, L) stack shares raises.
    """
    if data.ndim != 4:
        raise DimensionMismatch("expected a stack of 3-way tensors")
    n_trials, p_dim, m_dim, l_dim = data.shape
    check_uniqueness(p_dim, m_dim, l_dim, n_components)

    flat = data.reshape(n_trials, p_dim, m_dim * l_dim)
    _, w = np.linalg.eigh(flat @ flat.conj().swapaxes(-1, -2))
    basis, _ = np.linalg.qr(flat.swapaxes(-1, -2) @ w[..., -n_components:].conj())
    s = np.linalg.svd(flat @ basis.conj(), compute_uv=False)
    record_failures(errors, s[:, 0] == 0.0,
                    lambda b: RankDeficient("zero tensor"))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s[:, -1] / s[:, 0]
    record_failures(errors, ratio < RANK_GAP_TOL, lambda b: RankDeficient(
        f"singular-value ratio {ratio[b]:.2e} "
        f"below {RANK_GAP_TOL:.0e}: fewer than {n_components} components"))
    # top (subcarriers 1..L-1) and bottom (2..L) share one row order, so
    # the shift operator does not depend on it
    cube = basis.reshape(n_trials, m_dim, l_dim, n_components)
    top = cube[:, :, :-1].reshape(n_trials, -1, n_components)
    bottom = cube[:, :, 1:].reshape(n_trials, -1, n_components)
    # one SVD of the shift subspace gives its condition number (0/0 fails
    # too) and its pseudo-inverse
    left, sv, vh = np.linalg.svd(top, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[:, 0] / sv[:, -1]
    record_failures(errors, ~(cond <= SHIFT_COND_LIMIT), lambda b: IllConditionedShift(
        f"shift subspace condition number {cond[b]:.2e}"))
    sv_inv = np.divide(1, sv, where=sv > PINV_RTOL * sv[:, :1],
                       out=np.zeros_like(sv))
    shift_op = vh.conj().swapaxes(-1, -2) @ (
        sv_inv[..., None] * (left.conj().swapaxes(-1, -2) @ bottom))
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
    # each column of basis @ eigvecs is an antenna column times a subcarrier
    # column, whose squared norm is L for unit-modulus generators
    vectors = (basis @ eigvecs).reshape(cube.shape)
    antenna = np.einsum("bmlk,blk->bmk", vectors, subcarrier.conj()) / l_dim
    antenna[failed] = 1.0

    # the Khatri-Rao product's Gram matrix has its squared singular values
    gram = ((antenna.swapaxes(-1, -2) @ antenna.conj())
            * (subcarrier.swapaxes(-1, -2) @ subcarrier.conj()))
    pulse = ((flat @ khatri_rao(antenna, subcarrier).conj())
             @ np.linalg.pinv(gram, rcond=PINV_RTOL ** 2, hermitian=True))
    pulse[failed] = 1.0
    return FactorTriple(pulse_factor=pulse, antenna_factor=antenna,
                        subcarrier_factor=subcarrier, generators=generators)


def cp_reconstruct(triple) -> np.ndarray:
    """Sum of the rank-one terms of a factor triple (or of each of a stack),
    as the flat view A*kr(B,C)' reshaped to (P, M, L)."""
    a, b, c = triple.pulse_factor, triple.antenna_factor, triple.subcarrier_factor
    flat = a @ khatri_rao(b, c).swapaxes(-1, -2)
    return flat.reshape(*flat.shape[:-1], b.shape[-2], c.shape[-2])


def frobenius_norms(data: np.ndarray) -> np.ndarray:
    """Frobenius norm of each tensor of a stack, with no complex temporary."""
    v = np.ascontiguousarray(data).view(float)
    v = v.reshape(len(v), 1, v[:1].size)
    return np.sqrt((v @ v.swapaxes(1, 2))[:, 0, 0])


def reconstruction_error(data: np.ndarray, triple: FactorTriple,
                         errors: list) -> np.ndarray:
    """Relative Frobenius mismatch between each tensor of a stack and its
    factorization; NaN for a trial that has failed."""
    residual = cp_reconstruct(triple)
    np.subtract(data, residual, out=residual)
    scale = frobenius_norms(data)
    valid = np.array([e is None for e in errors]) & (scale > 0)
    return np.divide(frobenius_norms(residual), scale, where=valid,
                     out=np.full(len(data), np.nan))
