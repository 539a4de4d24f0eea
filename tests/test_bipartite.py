import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmap.bipartite import (Witness, apply_map, apply_transposed_map,
                              biquadratic_form, diagnostics, map_matrix,
                              partial_trace_1, partial_trace_2,
                              partial_transpose, product_transform,
                              tensor, witness_from_map,
                              witness_from_map_matrix)
from posmap.builtin import (choi_lam_witness, horodecki_2x4_witness,
                            identity_witness, transposition_witness)
from posmap.hermitian import hs_inner, hs_norm


def _random_witness(rng, m, n):
    X = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
    return Witness(m, n, X + X.conj().T)


def _random_unit(rng, k):
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return v / np.linalg.norm(v)


def test_witness_validation():
    with pytest.raises(ValueError):
        Witness(2, 3, np.eye(5))
    with pytest.raises(ValueError):
        Witness(1, 3, np.eye(3))
    with pytest.raises(ValueError):
        Witness(2, 2, np.arange(16.0).reshape(4, 4))


@pytest.mark.parametrize("scale", [2.0 ** -40, 2.0 ** -600])
def test_witness_hermiticity_is_relative_to_the_matrix(scale):
    """A tiny matrix far from Hermitian is refused, not symmetrized into
    another witness; a tiny Hermitian one is kept as it is."""
    G = np.random.default_rng(8).standard_normal((9, 9))
    with pytest.raises(ValueError, match="not Hermitian"):
        Witness(3, 3, scale * G)
    A = scale * choi_lam_witness().matrix
    assert np.array_equal(Witness(3, 3, A).matrix, A)


@pytest.mark.parametrize("W", [choi_lam_witness(), Witness(3, 3, np.eye(9)),
                               identity_witness(3)], ids=["choi-lam", "eye", "swap"])
def test_diagnostics_flags_free_of_the_scale(W):
    """The PSD and PPT flags compare the smallest eigenvalue with the
    spectrum's own size, so c A answers as A does."""
    flags = {(d["psd"], d["ppt"])
             for d in (diagnostics(Witness(W.m, W.n, c * W.matrix))
                       for c in (1e-12, 1.0, 1e12))}
    assert len(flags) == 1, flags


def test_blocks_index_convention():
    """blocks[i, j, k, l] is entry (i*n+j, k*n+l) of the matrix."""
    rng = np.random.default_rng(10)
    W = _random_witness(rng, 2, 3)
    A4 = W.blocks
    for i in range(2):
        for j in range(3):
            for k in range(2):
                for l in range(3):
                    assert A4[i, j, k, l] == W.matrix[i * 3 + j, k * 3 + l]


def test_map_from_witness_blocks():
    """M(e_k e_i^dag) is the (i, k) block of the witness."""
    rng = np.random.default_rng(11)
    W = _random_witness(rng, 3, 3)
    e = np.eye(3)
    for i in range(3):
        for k in range(3):
            Y = apply_map(W, np.outer(e[k], e[i]))
            assert np.abs(Y - W.blocks[i, :, k, :]).max() < 1e-14


def test_witness_from_map_roundtrip():
    """Rebuilding a witness from its own map action is the identity."""
    rng = np.random.default_rng(12)
    W = _random_witness(rng, 2, 4)
    W2 = witness_from_map(2, 4, lambda X: apply_map(W, X))
    assert np.abs(W2.matrix - W.matrix).max() < 1e-13


def test_cp_map_has_psd_choi_matrix():
    """For X -> K X K^dag the partial transpose A^P of the witness is PSD."""
    rng = np.random.default_rng(13)
    K = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    W = witness_from_map(3, 4, lambda X: K @ X @ K.conj().T)
    choi = partial_transpose(W).matrix
    assert np.linalg.eigvalsh(choi)[0] > -1e-12
    # rank-one Choi matrix for a single conjugation term
    assert np.linalg.matrix_rank(choi, tol=1e-8) == 1


def test_map_adjoint_pair():
    """<Y, M(X)> = <M^T(Y), X> for Hermitian X, Y."""
    rng = np.random.default_rng(14)
    W = _random_witness(rng, 2, 3)
    X = rng.standard_normal((2, 2))
    X = X + X.T
    Y = rng.standard_normal((3, 3))
    Y = Y + Y.T
    lhs = hs_inner(Y, apply_map(W, X))
    rhs = hs_inner(apply_transposed_map(W, Y), X)
    assert abs(lhs - rhs) < 1e-12


def test_biquadratic_is_product_expectation():
    rng = np.random.default_rng(15)
    W = _random_witness(rng, 3, 3)
    phi = _random_unit(rng, 3)
    chi = _random_unit(rng, 3)
    v = np.kron(phi, chi)
    expected = (v.conj() @ W.matrix @ v).real
    assert abs(biquadratic_form(W, phi, chi) - expected) < 1e-12


def test_biquadratic_is_image_expectation():
    """f_A(phi, chi) = <chi| M(phi phi^dag) |chi>."""
    rng = np.random.default_rng(16)
    W = _random_witness(rng, 2, 4)
    phi = _random_unit(rng, 2)
    chi = _random_unit(rng, 4)
    Y = apply_map(W, np.outer(phi, phi.conj()))
    assert abs(biquadratic_form(W, phi, chi) - (chi.conj() @ Y @ chi).real) < 1e-12


def test_partial_transpose_involution():
    rng = np.random.default_rng(17)
    W = _random_witness(rng, 3, 2)
    assert np.abs(partial_transpose(partial_transpose(W)).matrix - W.matrix).max() == 0.0


def test_partial_transpose_swaps_identity_and_transposition():
    for k in (2, 3):
        A = partial_transpose(identity_witness(k)).matrix
        B = transposition_witness(k).matrix
        assert np.abs(A - B).max() < 1e-14


def test_partial_traces_on_tensor():
    """Tr_1(B (x) C) = tr(B) C and Tr_2(B (x) C) = tr(C) B."""
    rng = np.random.default_rng(18)
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = B + B.conj().T
    C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    C = C + C.conj().T
    W = Witness(2, 3, tensor(B, C))
    assert np.abs(partial_trace_1(W) - np.trace(B) * C).max() < 1e-13
    assert np.abs(partial_trace_2(W) - np.trace(C) * B).max() < 1e-13


# ---------------------------------------------------------------------------
# Map kernels: the GEMM form against the defining index contractions.
# ---------------------------------------------------------------------------

def _reference_map(W, X):
    return np.einsum("ijkl,...ki->...jl", W.blocks, X)


def _reference_transposed_map(W, Y):
    return np.einsum("ijkl,...lj->...ik", W.blocks, Y)


def _reference_form(W, phi, chi):
    return np.einsum("ijkl,...k,...i,...l,...j->...", W.blocks, phi, phi.conj(),
                     chi, chi.conj()).real


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("m, n", [(3, 3), (2, 4), (4, 2)])
@pytest.mark.parametrize("stack", [(), (5,), (2, 3)])
def test_map_kernels_match_einsum_reference(m, n, stack):
    rng = np.random.default_rng(22)
    W = _random_witness(rng, m, n)
    tol = 1e-13 * max(1.0, hs_norm(W.matrix))
    X = _complex(rng, stack + (m, m))
    Y = _complex(rng, stack + (n, n))
    phi = _complex(rng, stack + (m,))
    chi = _complex(rng, stack + (n,))
    phi /= np.linalg.norm(phi, axis=-1, keepdims=True)
    chi /= np.linalg.norm(chi, axis=-1, keepdims=True)
    image = apply_map(W, X)
    assert image.shape == stack + (n, n)
    assert np.abs(image - _reference_map(W, X)).max() <= tol
    preimage = apply_transposed_map(W, Y)
    assert preimage.shape == stack + (m, m)
    assert np.abs(preimage - _reference_transposed_map(W, Y)).max() <= tol
    f = biquadratic_form(W, phi, chi)
    assert np.shape(f) == stack
    assert isinstance(f, float) == (stack == ())
    assert np.abs(f - _reference_form(W, phi, chi)).max() <= tol


@pytest.mark.parametrize("m, n", [(3, 3), (2, 4), (4, 2)])
def test_map_kernels_row_independent_of_stack(m, n):
    """A row gets the same bits alone and in stacks of 2, 3 and 513
    rows, though BLAS runs a one-row product on gemv."""
    rng = np.random.default_rng(23)
    W = _random_witness(rng, m, n)
    count = 513
    X = _complex(rng, (count, m, m))
    Y = _complex(rng, (count, n, n))
    phi = _complex(rng, (count, m))
    chi = _complex(rng, (count, n))
    stacked = (apply_map(W, X), apply_transposed_map(W, Y),
               biquadratic_form(W, phi, chi))

    def kernels(rows):
        return (apply_map(W, X[rows]), apply_transposed_map(W, Y[rows]),
                biquadratic_form(W, phi[rows], chi[rows]))

    for k in (1, 2, 3):
        for rows in (slice(0, k), slice(count - k, count)):
            for part, full in zip(kernels(rows), stacked):
                assert np.array_equal(part, full[rows])
    for i in (0, count - 1):
        for part, full in zip(kernels(i), stacked):
            assert np.array_equal(part, full[i])


def test_map_matrix_roundtrip():
    rng = np.random.default_rng(19)
    W = _random_witness(rng, 2, 3)
    M = map_matrix(W)
    assert M.coeffs.shape == (9, 4)
    W2 = witness_from_map_matrix(M)
    assert np.abs(W2.matrix - W.matrix).max() < 1e-12


def test_map_matrix_of_identity_map():
    M = map_matrix(identity_witness(3))
    assert np.abs(M.coeffs - np.eye(9)).max() < 1e-13


def test_product_transform_action():
    """The transformed map is Z -> V M(U^dag Z U) V^dag."""
    rng = np.random.default_rng(20)
    W = _random_witness(rng, 3, 3)
    U = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Z = rng.standard_normal((3, 3))
    Z = Z + Z.T
    W2 = product_transform(W, U, V)
    lhs = apply_map(W2, Z)
    rhs = V @ apply_map(W, U.conj().T @ Z @ U) @ V.conj().T
    assert np.abs(lhs - rhs).max() < 1e-11


def test_diagnostics_horodecki_2x4():
    d = diagnostics(horodecki_2x4_witness())
    assert d["m"] == 2 and d["n"] == 4
    assert abs(d["trace"] - 1.0) < 1e-12
    assert abs(d["min_eig"] - (-0.18254638861745404)) < 1e-12
    assert abs(d["min_eig_pt"] - (-0.18296272143433176)) < 1e-12
    assert not d["psd"] and not d["ppt"]
    pt2 = np.diag(d["partial_trace_2"]).real
    assert np.abs(pt2 - np.array([0.4794507246002864, 0.5205492753997134])).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_biquadratic_nonnegative_for_psd_witness(seed):
    """PSD witnesses have nonnegative biquadratic forms."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    W = Witness(2, 3, X @ X.conj().T)
    phi = _random_unit(rng, 2)
    chi = _random_unit(rng, 3)
    assert biquadratic_form(W, phi, chi) > -1e-11


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_trace_of_image(seed):
    """tr M(X) = <A^T2 ... via partial traces: tr M(X) = tr(Tr_2(A)^T X)."""
    rng = np.random.default_rng(seed)
    W = _random_witness(rng, 3, 2)
    X = rng.standard_normal((3, 3))
    X = X + X.T
    lhs = np.trace(apply_map(W, X)).real
    rhs = np.trace(partial_trace_2(W).T @ X).real
    assert abs(lhs - rhs) < 1e-11
