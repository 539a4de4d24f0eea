"""Dense Hermitian-matrix primitives with Hilbert-Schmidt geometry.

Everything downstream (witness algebra, map normalization, boundary scans)
reduces to a handful of operations on Hermitian matrices: the real inner
product <X, Y> = Tr(XY), eigendecompositions, principal square roots and
inverses of definite matrices, and the orthonormal Hermitian basis used to
write maps as real matrices.
"""

import math

import numpy as np

# Relative tolerance for accepting "Hermitian up to rounding" input.
HERM_TOL = 1e-8
# Relative clamp below which small negative eigenvalues are treated as zero.
PSD_CLAMP_TOL = 1e-10
# Relative floor below which a positive matrix is considered singular.
PD_EPS = 1e-12


def as_hermitian(entries) -> np.ndarray:
    """Validate a square array as Hermitian and return its symmetrization.

    :param entries: square array-like with complex entries.
    :return: ``(X + X^dag)/2`` as a complex ndarray.
    :raises ValueError: if the input is not square, has an entry that is
        not finite, or its anti-Hermitian part exceeds :data:`HERM_TOL`
        relative to ``||X||``.
    """
    X = np.asarray(entries, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {X.shape}")
    # A NaN fails every comparison, so the Hermiticity test below would
    # let it through.
    if not np.isfinite(X).all():
        raise ValueError("matrix has an entry that is not finite")
    herm = (X + X.conj().T) / 2.0
    skew = hs_norm(X - herm)
    scale = hs_norm(X)
    if skew > HERM_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: anti-Hermitian norm {skew:.3e} "
            f"exceeds {HERM_TOL:.1e} * {scale:.3e}"
        )
    return herm


def hs_inner(X: np.ndarray, Y: np.ndarray) -> float:
    """Hilbert-Schmidt inner product Tr(X Y) of two Hermitian matrices.

    Real for Hermitian arguments; the tiny imaginary residue from rounding
    is dropped.
    """
    return float(np.trace(X @ Y).real)


def hs_norm(X: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm ``sqrt(Tr(X^2))``.

    The plain sum of squares comes out 0 for a nonzero X whose entries
    all lie below about 1e-162, and inf once an entry exceeds about
    1e154; then the norm is taken of |X_ij| / max|X_ij| and scaled back,
    so it is inf only where the norm itself exceeds the float range.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(X))
    if norm == 0.0 or not math.isfinite(norm):
        # Real division: the reciprocal of a subnormal, which a complex
        # quotient forms, overflows.
        mags = np.abs(X)
        big = float(mags.max(initial=0.0))
        if 0.0 < big < math.inf:
            norm = big * float(np.linalg.norm(mags / big))
    return norm


def sqrt_psd(X: np.ndarray) -> np.ndarray:
    """Principal square root of a positive-semidefinite matrix.

    Eigenvalues in ``[-PSD_CLAMP_TOL * ||X||, 0)`` are clamped to zero
    before taking the root; anything more negative is rejected.

    :param X: Hermitian positive-semidefinite matrix.
    :return: Hermitian PSD matrix S with ``S @ S = X``.
    :raises ValueError: if X has an eigenvalue below the clamp window.
    """
    vals, vecs = np.linalg.eigh(X)
    floor = -PSD_CLAMP_TOL * max(1e-300, float(np.abs(vals).max()))
    if vals[0] < floor:
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {vals[0]:.3e}"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def inv_pd(X: np.ndarray) -> np.ndarray:
    """Inverse of a Hermitian positive-definite matrix via eigendecomposition.

    Eigenvalues at or below ``PD_EPS * max|eigenvalue|`` count as singular.

    :param X: Hermitian positive-definite matrix.
    :return: Hermitian inverse.
    :raises ValueError: if X is not strictly positive definite; the message
        carries the offending eigenvalue.
    """
    vals, vecs = np.linalg.eigh(X)
    if vals[0] <= PD_EPS * max(1e-300, float(np.abs(vals).max())):
        raise ValueError(
            f"matrix is not positive definite: min eigenvalue {vals[0]:.3e}"
        )
    return (vecs / vals) @ vecs.conj().T


def hermitian_basis(k: int) -> np.ndarray:
    """Orthonormal basis of the real space of k x k Hermitian matrices.

    Element 0 is ``I/sqrt(k)``; elements 1..k-1 are the diagonal traceless
    generators; the rest are the symmetric and antisymmetric off-diagonal
    pairs, each normalized to ``Tr(E_a E_b) = delta_ab``.

    :param k: dimension, k >= 1.
    :return: array of shape ``(k*k, k, k)``.
    """
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")
    basis = np.zeros((k * k, k, k), dtype=complex)
    basis[0] = np.eye(k) / np.sqrt(k)
    idx = 1
    # Diagonal traceless: diag(1, ..., 1, -l, 0, ...) / sqrt(l(l+1)).
    for ell in range(1, k):
        d = np.zeros(k)
        d[:ell] = 1.0
        d[ell] = -ell
        basis[idx] = np.diag(d) / np.sqrt(ell * (ell + 1))
        idx += 1
    # Off-diagonal symmetric and antisymmetric pairs.
    for i in range(k):
        for j in range(i + 1, k):
            E = np.zeros((k, k), dtype=complex)
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            basis[idx] = E
            idx += 1
            E = np.zeros((k, k), dtype=complex)
            E[i, j] = -1j / np.sqrt(2.0)
            E[j, i] = 1j / np.sqrt(2.0)
            basis[idx] = E
            idx += 1
    return basis
