import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from posmap.hermitian import (as_hermitian, hermitian_basis, hs_inner, hs_norm,
                              inv_pd, sqrt_psd)


def _random_hermitian(rng, k):
    X = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return X + X.conj().T


def test_as_hermitian_accepts_and_symmetrizes():
    """Tiny anti-Hermitian noise is averaged away."""
    rng = np.random.default_rng(0)
    X = _random_hermitian(rng, 4)
    noisy = X + 1e-12 * (rng.standard_normal((4, 4)) * 1j)
    H = as_hermitian(noisy)
    assert np.abs(H - H.conj().T).max() == 0.0


def test_as_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_as_hermitian_rejects_non_square():
    with pytest.raises(ValueError):
        as_hermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_as_hermitian_rejects_non_finite(entry):
    """NaN passes the Hermiticity test, which only compares (and inf - inf
    is NaN), so non-finite entries need their own check."""
    X = np.eye(3, dtype=complex)
    X[1, 1] = entry
    with pytest.raises(ValueError, match="not finite"):
        as_hermitian(X)


def test_basis_orthonormal():
    """hermitian_basis(k) is HS-orthonormal with E0 = I/sqrt(k)."""
    for k in (2, 3, 4):
        E = hermitian_basis(k)
        assert E.shape == (k * k, k, k)
        G = np.einsum("aij,bji->ab", E, E)
        assert np.abs(G - np.eye(k * k)).max() < 1e-13
        assert np.abs(E[0] - np.eye(k) / np.sqrt(k)).max() < 1e-15
        for a in range(1, k * k):
            assert abs(np.trace(E[a])) < 1e-13


def test_basis_coords_roundtrip():
    rng = np.random.default_rng(1)
    X = _random_hermitian(rng, 3)
    E = hermitian_basis(3)
    c = np.einsum("aij,ji->a", E, X).real
    assert c.dtype.kind == "f"
    assert np.abs(np.einsum("a,aij->ij", c, E) - X).max() < 1e-13


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(2)
    V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    P = V @ V.conj().T
    S = sqrt_psd(P)
    assert np.abs(S @ S - P).max() < 1e-12 * hs_norm(P)


def test_sqrt_psd_clamps_small_negative():
    X = np.diag([1.0, -1e-12])
    S = sqrt_psd(X)
    assert S[1, 1] == 0.0


def test_inv_pd_inverts():
    rng = np.random.default_rng(3)
    V = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    P = V @ V.conj().T + np.eye(4)
    assert np.abs(inv_pd(P) @ P - np.eye(4)).max() < 1e-12


def test_inv_pd_rejects_indefinite():
    with pytest.raises(ValueError):
        inv_pd(np.diag([1.0, -0.5]))


@pytest.mark.parametrize("c", [2.0 ** -600, 2.0 ** 600, 2.0 ** -1060])
def test_hs_norm_survives_under_and_overflow(c):
    """The sum of squares underflows at 2^-600 and 2^-1060 (subnormal
    entries) and overflows at 2^600; the norm still scales exactly."""
    X = np.array([[3.0, 4.0j], [-4.0j, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hs_norm(c * X) == c * hs_norm(X)


def test_hs_norm_zero_and_beyond_float_range():
    assert hs_norm(np.zeros((3, 3))) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hs_norm(np.full((2, 2), 1e308)) == np.inf


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (3, 3), elements=st.floats(-5, 5)),
       arrays(np.float64, (3, 3), elements=st.floats(-5, 5)))
def test_hs_inner_is_real_on_hermitian(re, im):
    """<X, Y> is real for Hermitian X, Y, and hs_norm matches."""
    X = as_hermitian(re + re.T + 1j * (im - im.T))
    Y = as_hermitian(re @ re.T)
    assert abs(hs_inner(X, Y).imag) < 1e-11 * (1 + hs_norm(X) * hs_norm(Y))
    assert abs(hs_inner(X, X).real - hs_norm(X) ** 2) < 1e-9 * (1 + hs_norm(X) ** 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5))
def test_basis_completeness(k):
    """Every Hermitian matrix is exactly reconstructed from coordinates."""
    rng = np.random.default_rng(k)
    X = _random_hermitian(rng, k)
    E = hermitian_basis(k)
    c = np.einsum("aij,ji->a", E, X).real
    assert np.abs(np.einsum("a,aij->ij", c, E) - X).max() < 1e-12
