"""Tensor reshaping identities and the structured factorization."""
import tracemalloc

import numpy as np
import pytest

from irs_sensing.cpd import (FactorTriple, check_uniqueness, cp_decompose,
                             cp_reconstruct, frobenius_norms, khatri_rao,
                             raw_delay, reconstruction_error)
from irs_sensing.errors import DimensionMismatch, RankDeficient, UniquenessError


def test_flat_view_matches_factor_identity():
    """The flat view of a rank-K factor model, row p and column m*L + l, is
    A times the transposed Khatri-Rao product of B and C."""
    rng = np.random.default_rng(1)
    p, m, l, k = 4, 3, 5, 2
    a = rng.standard_normal((p, k)) + 1j * rng.standard_normal((p, k))
    b = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    c = rng.standard_normal((l, k)) + 1j * rng.standard_normal((l, k))
    y = np.einsum("pk,mk,lk->pml", a, b, c)
    assert y.reshape(p, m * l) == pytest.approx(a @ khatri_rao(b, c).T)


def test_frobenius_norms_of_a_selection_are_its_own_bits():
    """Each tensor's norm is its own product, so the norms of selected
    tensors equal those of the whole stack bit for bit; selecting none
    gives none."""
    rng = np.random.default_rng(3)
    data = rng.standard_normal((9, 10, 16, 10)) + 1j * rng.standard_normal(
        (9, 10, 16, 10))
    picked = np.array([1, 4, 8])
    assert np.array_equal(frobenius_norms(data[picked]),
                          frobenius_norms(data)[picked])
    assert frobenius_norms(data[picked[:0]]).shape == (0,)


def test_khatri_rao_definition():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[5, 6], [7, 8], [9, 10]], dtype=complex)
    out = khatri_rao(a, b)
    assert out.shape == (6, 2)
    # first argument varies slowest within each column
    assert out[:, 0] == pytest.approx(np.kron(a[:, 0], b[:, 0]))
    assert out[:, 1] == pytest.approx(np.kron(a[:, 1], b[:, 1]))


def test_uniqueness_rule():
    check_uniqueness(10, 16, 10, 2)
    check_uniqueness(2, 1, 3, 2)                        # (L-1)*M = 2 = K
    with pytest.raises(UniquenessError, match=r"^\(L-1\)\*M = 0 < K = 2$"):
        check_uniqueness(10, 16, 1, 2)                  # single subcarrier
    with pytest.raises(UniquenessError, match=r"^P = 1 < K = 2$"):
        check_uniqueness(1, 16, 10, 2)                  # too few pulses
    with pytest.raises(UniquenessError, match=r"^\(L-1\)\*M = 1 < K = 2$"):
        check_uniqueness(2, 1, 2, 2)


def _decompose(y, n_components):
    """Factor triple of one tensor, as a one-trial stack that must pass."""
    errors = [None]
    triple = cp_decompose(y[None], n_components, errors)
    assert errors == [None]
    return triple


def _synthetic_triple(rng, p, m, l, delays, spacing):
    k = len(delays)
    a = rng.standard_normal((p, k)) + 1j * rng.standard_normal((p, k))
    b = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    gens = np.exp(-2j * np.pi * spacing * np.asarray(delays))
    c = np.power.outer(gens, np.arange(1, l + 1)).T
    return a, b, c, gens


def test_cp_decompose_recovers_noiseless():
    rng = np.random.default_rng(2)
    spacing = 500e3
    a, b, c, gens = _synthetic_triple(rng, 6, 5, 8,
                                      [3.4e-6, 3.7e-6], spacing)
    y = np.einsum("pk,mk,lk->pml", a, b, c)
    triple = _decompose(y, 2)
    assert reconstruction_error(y[None], triple, [None])[0] < 1e-12
    # generator recovery up to the documented descending-delay ordering
    got = sorted(triple.generators[0], key=lambda g: np.angle(g))
    want = sorted(gens, key=lambda g: np.angle(g))
    assert np.allclose(got, want, atol=1e-10)
    assert np.abs(np.abs(triple.generators[0]) - 1) == pytest.approx(
        np.zeros(2), abs=1e-12)


def test_cp_columns_sorted_by_descending_raw_delay():
    rng = np.random.default_rng(3)
    spacing = 500e3
    a, b, c, _ = _synthetic_triple(rng, 6, 5, 8, [3.1e-6, 3.9e-6], spacing)
    y = np.einsum("pk,mk,lk->pml", a, b, c)
    triple = _decompose(y, 2)
    delays = raw_delay(triple.generators[0], spacing)
    assert delays[0] > delays[1]


def test_cp_subcarrier_factor_unit_leading_coefficient():
    rng = np.random.default_rng(4)
    a, b, c, _ = _synthetic_triple(rng, 5, 4, 7, [3.2e-6], 500e3)
    y = np.einsum("pk,mk,lk->pml", a, b, c)
    triple = _decompose(y, 1)
    gen = triple.generators[0, 0]
    expected = gen ** np.arange(1, 8)
    assert np.allclose(triple.subcarrier_factor[0, :, 0], expected, atol=1e-12)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_cp_reconstruct_matches_einsum():
    """One Khatri-Rao matmul gives the sum of the rank-one terms, for one
    factor triple and for a stack, to 1e-13 of the largest entry."""
    rng = np.random.default_rng(6)
    for batch in ((), (3,)):
        a, b, c = (_complex(rng, *batch, n, 2) for n in (4, 3, 5))
        triple = FactorTriple(pulse_factor=a, antenna_factor=b,
                              subcarrier_factor=c, generators=c[..., 0, :])
        want = np.einsum("...pk,...mk,...lk->...pml", a, b, c)
        got = cp_reconstruct(triple)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _planted(seed, ratio, p=10, m=16, l=10):
    """Two components whose flat view has the singular values 1 and
    ``ratio``: orthonormal pulse columns, and orthonormal antenna columns
    with unit-norm Vandermonde subcarrier columns, whose Khatri-Rao product
    therefore has orthonormal columns."""
    rng = np.random.default_rng(seed)
    a = np.linalg.qr(_complex(rng, p, 2))[0] * [1.0, ratio]
    b = np.linalg.qr(_complex(rng, m, 2))[0]
    gens = np.exp(-2j * np.pi * rng.uniform(size=2))
    c = np.power.outer(gens, np.arange(1, l + 1)).T / np.sqrt(l)
    return np.einsum("pk,mk,lk->pml", a, b, c)


@pytest.mark.parametrize("ratio, deficient", [(1e-14, True), (1e-11, False),
                                              (1e-10, False)])
def test_rank_check_resolves_a_planted_singular_value_ratio(ratio, deficient):
    """sigma_2 / sigma_1 = 1e-14 is below RANK_GAP_TOL (1e-12), so it leaves
    fewer than two components; 1e-11 and 1e-10 are above it and pass, in a
    16-trial stack of draws and in each draw's one-trial call.  The norms of
    the eigenvector basis columns, sigma_2 times a random cosine below
    about 1e-8, fail some draws at 1e-11."""
    data = np.stack([_planted(seed, ratio) for seed in range(16)])
    errors = [None] * len(data)
    cp_decompose(data, 2, errors)
    for b, error in enumerate(errors):
        alone = [None]
        cp_decompose(data[b:b + 1], 2, alone)
        assert type(alone[0]) is type(error)
        if deficient:
            assert isinstance(error, RankDeficient)
            assert "singular-value ratio" in str(error)
        else:
            assert error is None


def test_cp_decompose_memory_stays_below_twice_the_stack():
    """The solver reads the stack through a view: besides one conjugate
    copy for the P x P Gram matrix, it holds arrays of K columns only."""
    data = _complex(np.random.default_rng(9), 16, 10, 16, 10)
    tracemalloc.start()
    try:
        cp_decompose(data, 2, [None] * len(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * data.nbytes


def test_cp_takes_only_a_stack_of_tensors():
    with pytest.raises(DimensionMismatch, match="stack of 3-way tensors"):
        cp_decompose(np.ones((5, 4, 3), dtype=complex), 1, [None])


def test_cp_rejects_single_subcarrier():
    y = np.ones((1, 5, 4, 1), dtype=complex)
    with pytest.raises(UniquenessError):
        cp_decompose(y, 2, [None])


def test_cp_rejects_rank_deficient_request():
    rng = np.random.default_rng(7)
    a, b, c, _ = _synthetic_triple(rng, 6, 5, 8, [3.4e-6, 3.7e-6], 500e3)
    y = np.einsum("pk,mk,lk->pml", a, b, c)
    errors = [None]
    cp_decompose(y[None], 3, errors)   # only two components exist
    assert isinstance(errors[0], RankDeficient)


def test_raw_delay_wraps_into_one_period():
    spacing = 500e3
    period = 1 / spacing
    gens = np.exp(-2j * np.pi * spacing * np.array([3.4e-6]))  # > period
    raw = raw_delay(gens, spacing)
    assert 0 <= raw[0] < period
    assert raw[0] == pytest.approx(3.4e-6 - period, abs=1e-18)

