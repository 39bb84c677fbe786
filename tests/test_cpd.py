"""Tensor reshaping identities and the structured factorization."""
import numpy as np
import pytest

from irs_sensing.cpd import (FactorTriple, check_uniqueness, cp_decompose,
                             cp_reconstruct, khatri_rao, raw_delay,
                             reconstruction_error, unfold)
from irs_sensing.errors import DimensionMismatch, RankDeficient, UniquenessError


def test_unfold_shapes():
    y = np.zeros((3, 4, 5), dtype=complex)
    assert unfold(y, 1).shape == (3, 20)
    assert unfold(y, 2).shape == (4, 15)
    assert unfold(y, 3).shape == (5, 12)


def test_unfold_matches_factor_identities():
    """Each unfolding of a rank-K factor model equals its matrix form."""
    rng = np.random.default_rng(1)
    p, m, l, k = 4, 3, 5, 2
    a = rng.standard_normal((p, k)) + 1j * rng.standard_normal((p, k))
    b = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    c = rng.standard_normal((l, k)) + 1j * rng.standard_normal((l, k))
    y = np.einsum("pk,mk,lk->pml", a, b, c)
    assert unfold(y, 1) == pytest.approx(a @ khatri_rao(c, b).T)
    assert unfold(y, 2) == pytest.approx(b @ khatri_rao(c, a).T)
    assert unfold(y, 3) == pytest.approx(c @ khatri_rao(b, a).T)


def test_khatri_rao_definition():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[5, 6], [7, 8], [9, 10]], dtype=complex)
    out = khatri_rao(a, b)
    assert out.shape == (6, 2)
    # first argument varies slowest within each column
    assert out[:, 0] == pytest.approx(np.kron(a[:, 0], b[:, 0]))
    assert out[:, 1] == pytest.approx(np.kron(a[:, 1], b[:, 1]))


def test_uniqueness_rule():
    assert check_uniqueness(10, 16, 10, 2)
    assert not check_uniqueness(10, 16, 1, 2).unique    # single subcarrier
    assert not check_uniqueness(1, 16, 10, 2).unique    # too few pulses
    boundary = check_uniqueness(2, 1, 3, 2)             # (L-1)*M = 2 = K
    assert boundary.unique
    assert not check_uniqueness(2, 1, 2, 2).unique


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


def test_cp_reconstruct_matches_einsum():
    rng = np.random.default_rng(6)
    a, b, c, gens = _synthetic_triple(rng, 4, 3, 5, [3.5e-6], 500e3)
    triple = FactorTriple(pulse_factor=a, antenna_factor=b,
                          subcarrier_factor=c, generators=gens)
    assert cp_reconstruct(triple) == pytest.approx(
        np.einsum("pk,mk,lk->pml", a, b, c))


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

