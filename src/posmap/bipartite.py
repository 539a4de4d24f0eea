"""Bipartite witness algebra and the witness <-> map correspondence.

A witness is a Hermitian matrix A on C^m (x) C^n, indexed by composite
row/column pairs in row-major order: the composite index I runs over
(i, j) = (1,1), (1,2), ..., (1,n), (2,1), ..., (m,n). Reshaping the
(mn, mn) matrix to (m, n, m, n) exposes the block entries A_{ij;kl}.

The associated map M sends Hermitian m x m matrices to Hermitian n x n
matrices through A_{ij;kl} = M_{jl;ki}, i.e.

    M(X)_{jl} = sum_{ik} A_{ij;kl} X_{ki},

and the transposed map M^T (the Hilbert-Schmidt adjoint, <Y, M X> =
<M^T Y, X>) comes from the same block tensor read the other way. A is
positive semidefinite iff M is completely positive; A is merely blockwise
positive on product vectors iff M is a positive map.

Both maps run as one matrix product: the inputs are flattened to rows
of length m^2 (resp. n^2) and multiplied by the block tensor reshaped to
an (m^2, n^2) (resp. (n^2, m^2)) matrix, one BLAS GEMM for a whole stack.
A row's result does not depend on the other rows of its stack.
"""

from dataclasses import dataclass, field

import numpy as np

from .hermitian import as_hermitian, hermitian_basis, hs_norm

__all__ = [
    "Witness",
    "MapMatrix",
    "tensor",
    "partial_transpose",
    "partial_trace_1",
    "partial_trace_2",
    "apply_map",
    "apply_transposed_map",
    "biquadratic_form",
    "map_matrix",
    "witness_from_map_matrix",
    "witness_from_map",
    "product_transform",
    "diagnostics",
]


@dataclass(frozen=True)
class Witness:
    """Hermitian matrix on C^m (x) C^n with its bipartite block structure.

    :param m: first-factor dimension (>= 2).
    :param n: second-factor dimension (>= 2).
    :param matrix: Hermitian (m*n, m*n) array.
    """

    m: int
    n: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise ValueError(f"factor dimensions must be >= 2, got {self.m}x{self.n}")
        mat = as_hermitian(self.matrix)
        if mat.shape != (self.m * self.n, self.m * self.n):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dimensions "
                f"{self.m}x{self.n}"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def blocks(self) -> np.ndarray:
        """The (m, n, m, n) view with entries A_{ij;kl}."""
        return self.matrix.reshape(self.m, self.n, self.m, self.n)


@dataclass(frozen=True)
class MapMatrix:
    """Real matrix of a map in orthonormal Hermitian bases.

    ``coeffs[b, a] = <F_b, M(E_a)>`` where ``E`` is the m-side basis and
    ``F`` the n-side basis from :func:`hermitian_basis` (element 0 is the
    normalized identity). The map is unital iff column 0 is e_0 and
    trace-preserving iff row 0 is e_0^T.
    """

    m: int
    n: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.n * self.n, self.m * self.m):
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match "
                f"({self.n * self.n}, {self.m * self.m})"
            )
        object.__setattr__(self, "coeffs", coeffs)


def tensor(B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Kronecker product ordered so that (B (x) C)_{ij;kl} = B_ik C_jl."""
    return np.kron(B, C)


def partial_transpose(W: Witness) -> Witness:
    """Partial transpose on the second factor: (A^P)_{ij;kl} = A_{il;kj}.

    An involution; for product witnesses B (x) C it returns B (x) C^T.
    """
    blocks = W.blocks.transpose(0, 3, 2, 1)
    return Witness(W.m, W.n, blocks.reshape(W.m * W.n, W.m * W.n))


def partial_trace_1(W: Witness) -> np.ndarray:
    """Trace out the first factor: (Tr_1 A)_{jl} = sum_i A_{ij;il}."""
    return np.einsum("ijil->jl", W.blocks)


def partial_trace_2(W: Witness) -> np.ndarray:
    """Trace out the second factor: (Tr_2 A)_{ik} = sum_j A_{ij;kj}."""
    return np.einsum("ijkj->ik", W.blocks)


def _rows_times(V: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The product V @ T of a 2-d row stack, rounded alike for every stack size."""
    if V.shape[0] == 1:
        # numpy sends a one-row product to gemv, which rounds differently
        # from a row of gemm; a doubled row keeps it on gemm.
        return (np.concatenate([V, V]) @ T)[:1]
    return V @ T


def apply_map(W: Witness, X: np.ndarray) -> np.ndarray:
    """Apply the map of the witness: M(X)_{jl} = sum_{ik} A_{ij;kl} X_{ki}.

    Sends Hermitian m x m input to Hermitian n x n output, elementwise
    over any leading stack axes of X, as one matrix product of the rows
    X_{ki} (flattened to length m^2) with the (m^2, n^2) matrix
    T_{ki, jl} = A_{ij;kl}. The input is not validated; complex-linear
    action on arbitrary X is intentional.
    """
    X = np.asarray(X, dtype=complex)
    T = W.blocks.transpose(2, 0, 1, 3).reshape(W.m * W.m, W.n * W.n)
    Y = _rows_times(X.reshape(-1, W.m * W.m), T)
    return Y.reshape(X.shape[:-2] + (W.n, W.n))


def apply_transposed_map(W: Witness, Y: np.ndarray) -> np.ndarray:
    """Apply the Hilbert-Schmidt adjoint: M^T(Y)_{ik} = sum_{jl} A_{ij;kl} Y_{lj}.

    Broadcasts over leading stack axes of Y like :func:`apply_map`: one
    matrix product of the rows Y_{lj} (length n^2) with the (n^2, m^2)
    matrix T_{lj, ik} = A_{ij;kl}.
    """
    Y = np.asarray(Y, dtype=complex)
    T = W.blocks.transpose(3, 1, 0, 2).reshape(W.n * W.n, W.m * W.m)
    X = _rows_times(Y.reshape(-1, W.n * W.n), T)
    return X.reshape(Y.shape[:-2] + (W.m, W.m))


def biquadratic_form(W: Witness, phi: np.ndarray,
                     chi: np.ndarray) -> float | np.ndarray:
    """Evaluate f_A(phi, chi) = (phi (x) chi)^dag A (phi (x) chi).

    Computed as chi^dag (M(phi phi^dag) chi): :func:`apply_map` on the
    outer products, then two vector contractions. Real for any Hermitian
    witness. For single vectors the result is a float; for stacks of
    vectors (leading axes of phi and chi) an array with one value per
    pair.
    """
    phi = np.asarray(phi, dtype=complex)
    chi = np.asarray(chi, dtype=complex)
    val = _expectation(apply_map(W, phi[..., :, None] * phi.conj()[..., None, :]), chi)
    return float(val) if val.ndim == 0 else val


def _expectation(Y: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Real part of chi^dag (Y chi), elementwise over leading stack axes."""
    # Two steps: the one-step three-operand einsum rounds a row of a
    # stack of one differently for n = 2.
    Y_chi = np.einsum("...jl,...l->...j", Y, chi)
    return np.einsum("...j,...j->...", chi.conj(), Y_chi).real


def map_matrix(W: Witness) -> MapMatrix:
    """Real matrix of the witness map in orthonormal Hermitian bases.

    :return: :class:`MapMatrix` with ``coeffs[b, a] = <F_b, M(E_a)>``.
    """
    E = hermitian_basis(W.m)
    F = hermitian_basis(W.n)
    images = apply_map(W, E)
    coeffs = np.einsum("bjl,alj->ba", F, images).real
    return MapMatrix(W.m, W.n, coeffs)


def witness_from_map_matrix(M: MapMatrix) -> Witness:
    """Reassemble the witness A = sum_{a,b} coeffs[b, a] E_a (x) F_b."""
    E = hermitian_basis(M.m)
    F = hermitian_basis(M.n)
    A = np.einsum("ba,aik,bjl->ijkl", M.coeffs, E, F)
    return Witness(M.m, M.n, A.reshape(M.m * M.n, M.m * M.n))


def witness_from_map(m: int, n: int, map_fn) -> Witness:
    """Build the witness of a map given as a complex-linear callable.

    ``map_fn`` must accept an arbitrary complex m x m array and return the
    n x n image under the complex-linear extension of the map (entrywise
    formulas extend automatically).

    :param m: input-side dimension.
    :param n: output-side dimension.
    :param map_fn: callable X -> M(X).
    :return: witness with blocks A_{i:,k:} = M(e_k e_i^dag).
    """
    blocks = np.zeros((m, n, m, n), dtype=complex)
    for i in range(m):
        for k in range(m):
            unit = np.zeros((m, m), dtype=complex)
            unit[k, i] = 1.0
            blocks[i, :, k, :] = np.asarray(map_fn(unit), dtype=complex)
    return Witness(m, n, blocks.reshape(m * n, m * n))


def product_transform(W: Witness, U: np.ndarray, V: np.ndarray) -> Witness:
    """Conjugate by a product operator: A -> (U (x) V) A (U (x) V)^dag.

    The transformed map acts as M~(Z) = V M(U^dag Z U) V^dag. U and V need
    not be unitary (the normalizer uses positive factors), only invertible
    enough for the result to stay a valid witness.
    """
    P = tensor(np.asarray(U, dtype=complex), np.asarray(V, dtype=complex))
    return Witness(W.m, W.n, P @ W.matrix @ P.conj().T)


def diagnostics(W: Witness) -> dict:
    """Structural report for a witness: spectra, marginals, map residuals.

    :return: dict with the witness trace, minimal eigenvalues of A and of
        its partial transpose, the PSD/PPT flags (the minimal eigenvalue
        at least -1e-10 times the largest magnitude of its spectrum), the
        partial traces, and the unitality / trace-preservation residuals
        ``||M(I/sqrt(m)) - I/sqrt(n)||`` and ``||M^T(I/sqrt(n)) - I/sqrt(m)||``.
    """
    A = W.matrix
    # eigh, not eigvalsh: the two round the extreme eigenvalues differently.
    eigs = np.linalg.eigh(A)[0]
    eigs_pt = np.linalg.eigh(partial_transpose(W).matrix)[0]
    eye_m = np.eye(W.m) / np.sqrt(W.m)
    eye_n = np.eye(W.n) / np.sqrt(W.n)
    unital_res = hs_norm(apply_map(W, eye_m) - eye_n)
    trace_res = hs_norm(apply_transposed_map(W, eye_n) - eye_m)
    return {
        "m": W.m,
        "n": W.n,
        "trace": float(np.trace(A).real),
        "hs_norm": hs_norm(A),
        "min_eig": float(eigs[0]),
        "max_eig": float(eigs[-1]),
        "min_eig_pt": float(eigs_pt[0]),
        "psd": bool(eigs[0] >= -1e-10 * np.abs(eigs).max()),
        "ppt": bool(eigs_pt[0] >= -1e-10 * np.abs(eigs_pt).max()),
        "partial_trace_1": partial_trace_1(W),
        "partial_trace_2": partial_trace_2(W),
        "unitality_residual": unital_res,
        "trace_preservation_residual": trace_res,
    }
