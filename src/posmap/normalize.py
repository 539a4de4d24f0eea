"""Transforming a positive map to unital and trace-preserving form.

For a witness A with map M, the goal is a product conjugation
A~ = (U (x) V) A (U (x) V)^dag whose map M~ satisfies

    M~(I_m / sqrt(m)) = I_n / sqrt(n)    (unital up to normalization)
    M~^T(I_n / sqrt(n)) = I_m / sqrt(m)  (trace preserving up to normalization)

This holds iff there are positive definite X, Y with M(X) proportional
to Y^{-1} and M^T(Y) proportional to X^{-1}. Such a pair is found by the
fixed-point iteration

    X_{k+1} = ( M^T( (M(X_k))^{-1} ) )^{-1},  rescaled to Tr X = m,

started at X_0 = I. At a fixed point X* with S* = M(X*), the output is
Y* = sqrt(m/n) (S*)^{-1}, U = sqrt(X*), V = sqrt(Y*); the square-root
gauge freedom is fixed by choosing the positive roots.

The iteration step is order reversing twice, hence order preserving, and
a strict contraction in the Hilbert projective metric for generic
interior witnesses; :func:`contraction_spectrum` reports the local
linearized rates at the fixed point.
"""

from dataclasses import dataclass, field

import numpy as np

from .bipartite import (
    Witness,
    apply_map,
    apply_transposed_map,
    product_transform,
)
from .hermitian import as_hermitian, hermitian_basis, hs_norm, inv_pd, sqrt_psd

__all__ = [
    "NormalizationResult",
    "normalize",
    "contraction_spectrum",
]

# Step norm ||X_{k+1} - X_k|| at which normalize stops, converged.
STEP_TOL = 1e-12
# Relative tolerance on the step residual of a fixed point handed to
# :func:`contraction_spectrum`.
FIXED_POINT_TOL = 1e-8


@dataclass(frozen=True)
class NormalizationResult:
    """Outcome of :func:`normalize`.

    ``witness`` is the transformed witness, ``U`` and ``V`` the positive
    factors of the product conjugation, ``X`` and ``Y`` the fixed-point
    pair (Tr X = m), ``history`` the per-iteration step norms
    ``||X_{k+1} - X_k||``, ``iterations`` the number of steps taken, and
    ``converged`` whether the final step norm reached :data:`STEP_TOL` or
    stopped shrinking within the rounding floor of the step.
    """

    witness: Witness
    U: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)
    history: list
    iterations: int
    converged: bool


def _inverse_image(Z: np.ndarray, image: str, support: str) -> np.ndarray:
    """inv_pd(Z) of a map image Z, with the rank-decreasing diagnosis.

    :raises ValueError: if Z is not positive definite; the message names
        the ``image`` and the ``support`` identity of a positive map
        that makes a singular image mean the map decreases rank.
    """
    try:
        return inv_pd(Z)
    except ValueError as exc:
        raise ValueError(
            f"{image} is not positive definite ({exc}); a positive map has "
            f"{support}, so a singular image means the map decreases rank "
            f"and has no unital, trace-preserving form"
        ) from exc


def _inverse_images(W: Witness, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S^{-1}, G) with S = M(X) and G = ( M^T(S^{-1}) )^{-1}.

    G is the step image before the gauge rescale.

    :raises ValueError: if an intermediate matrix is not positive
        definite. For a positive map, supp M(X) = supp M(I) for every
        positive definite X (and likewise for M^T), so a singular image
        means the map decreases rank and has no unital, trace-preserving
        form; the message says so.
    """
    S_inv = _inverse_image(apply_map(W, X), "map image M(X)",
                           "supp M(X) = supp M(I) for every positive definite X")
    G = _inverse_image(apply_transposed_map(W, S_inv),
                       "transposed-map image M^T(M(X)^-1)",
                       "supp M^T(Y) = supp M^T(I) for every positive definite Y")
    return S_inv, G


def normalize(W: Witness, max_iter: int = 200,
              x0: np.ndarray = None) -> NormalizationResult:
    """Drive the witness map to (scaled) unital and trace-preserving form.

    Iterates the step X -> ( M^T( (M(X))^{-1} ) )^{-1}, rescaled to
    Tr X = m, from ``x0`` (default I_m) until the Hilbert-Schmidt step
    norm ||X_{k+1} - X_k|| falls to :data:`STEP_TOL`, stops shrinking
    within the rounding floor of the step, or ``max_iter`` steps elapse.
    A step inverts S = M(X) and T = M^T(S^{-1}), so its rounding error is
    about eps (cond S + cond T) ||X||; a product transformation with an
    ill-conditioned factor raises this floor above :data:`STEP_TOL`, and
    the step norm then wanders at the floor instead of shrinking. Each
    iterate X inverts its images once: the pair (S^{-1}, G) of
    :func:`_inverse_images` gives the next step, the floor at X and, at
    the last iterate, Y. On convergence the returned witness satisfies
    both normalization conditions exactly at the fixed point (up to the
    final step norm).

    :param W: witness whose map is strictly positive on the iterates.
    :param max_iter: iteration cap; non-convergence is reported in the
        result, not raised.
    :param x0: optional positive-definite m x m start, any normalization.
    :return: :class:`NormalizationResult`.
    :raises ValueError: if ``x0`` is not a Hermitian positive-definite
        m x m matrix, or when an iterate leaves the positive-definite
        domain of the step.
    """
    m, n = W.m, W.n
    if x0 is None:
        X = np.eye(m, dtype=complex)
    else:
        try:
            X = as_hermitian(x0)
            if X.shape != (m, m):
                raise ValueError(f"got shape {X.shape}")
            inv_pd(X)
        except ValueError as exc:
            raise ValueError(
                f"x0 must be a Hermitian positive-definite {m} x {m} matrix: {exc}"
            ) from exc
        X = X * (m / np.trace(X).real)
    S_inv, G = _inverse_images(W, X)
    history = []
    converged = False
    for _ in range(max_iter):
        X_next = G * (m / np.trace(G).real)
        step = hs_norm(X_next - X)
        stalled = bool(history) and step >= history[-1]
        history.append(step)
        X = X_next
        S_inv, G = _inverse_images(W, X)
        if step <= STEP_TOL or (stalled and step <= np.finfo(float).eps * hs_norm(X)
                                * (np.linalg.cond(S_inv) + np.linalg.cond(G))):
            converged = True
            break
    Y = np.sqrt(m / n) * S_inv
    U = sqrt_psd(X)
    V = sqrt_psd(Y)
    return NormalizationResult(
        witness=product_transform(W, U, V),
        U=U, V=V, X=X, Y=Y,
        history=history, iterations=len(history), converged=converged,
    )


def contraction_spectrum(W: Witness, X: np.ndarray) -> np.ndarray:
    """Local contraction rates of the iteration at a fixed point.

    Linearizes the gauge-rescaled step around X (which must satisfy the
    fixed-point equation to :data:`FIXED_POINT_TOL`, relative). The
    derivative is applied to the whole traceless basis at once; it maps
    the traceless subspace to itself and annihilates the gauge direction
    along X; its matrix on the traceless orthonormal basis is
    eigen-solved and the eigenvalue magnitudes are returned sorted in
    descending order (m^2 - 1 values). All magnitudes below one means the
    fixed point is locally attracting; for the identity-map witness every
    magnitude equals one (an isometry), and for the extremal 3 x 3
    builtin witness every magnitude equals 1/4.

    :param W: witness.
    :param X: fixed point of the step, Tr X = m.
    :return: descending eigenvalue magnitudes, shape (m*m - 1,).
    :raises ValueError: if X is not a fixed point to :data:`FIXED_POINT_TOL`.
    """
    m = W.m
    X = np.asarray(X, dtype=complex)
    S_inv, g = _inverse_images(W, X)    # g = (m/n) X at the fixed point
    trg = np.trace(g).real
    resid = hs_norm(g * (m / trg) - X)
    if resid > FIXED_POINT_TOL * hs_norm(X):
        raise ValueError(
            f"not a fixed point: step residual {resid:.3e} exceeds "
            f"{FIXED_POINT_TOL:.1e} (relative)"
        )
    basis = hermitian_basis(m)[1:]  # traceless part only
    # derivative of G on every basis element: chain rule through the two
    # inversions
    dS = apply_map(W, basis)
    dT = apply_transposed_map(W, -S_inv @ dS @ S_inv)
    dG = -g @ dT @ g
    # derivative of the gauge rescale Z -> m Z / Tr Z at Z = g
    tr_dG = np.trace(dG, axis1=-2, axis2=-1).real
    images = (m / trg) * dG - (m * tr_dG / trg**2)[:, None, None] * g
    mat = np.einsum("bij,aji->ba", basis, images).real
    eigs = np.linalg.eigvals(mat)
    mags = np.abs(eigs)
    return np.sort(mags)[::-1]
