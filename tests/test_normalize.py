import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmap.bipartite import (Witness, apply_map, apply_transposed_map, diagnostics,
                              map_matrix, partial_transpose, product_transform, tensor)
from posmap.builtin import choi_lam_witness, horodecki_2x4_witness, identity_witness
from posmap.hermitian import hermitian_basis
from posmap.normalize import _inverse_images, contraction_spectrum, normalize


def _random_cp_witness(rng, m, n, terms=4):
    A = np.zeros((m * n, m * n), dtype=complex)
    for _ in range(terms):
        B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A += tensor(B @ B.conj().T, C @ C.conj().T)
    return Witness(m, n, A / np.trace(A).real)


def test_identity_witness_is_fixed_point():
    res = normalize(identity_witness(3))
    assert res.converged and res.iterations == 1
    assert np.abs(res.U - np.eye(3)).max() < 1e-14
    assert np.abs(res.V - np.eye(3)).max() < 1e-14


def test_choi_lam_already_normal():
    """The builtin map is unital and trace preserving as given."""
    res = normalize(choi_lam_witness())
    assert res.converged and res.iterations == 1
    assert np.abs(res.U - np.eye(3)).max() == 0.0
    assert np.abs(res.V - np.eye(3)).max() == 0.0
    assert res.history[0] < 1e-12


def test_horodecki_normalization():
    res = normalize(horodecki_2x4_witness())
    assert res.converged
    assert res.iterations == 59
    d = diagnostics(res.witness)
    assert d["unitality_residual"] < 1e-10
    assert d["trace_preservation_residual"] < 1e-10
    # fixed point of the iteration, normalized to Tr X = m
    assert abs(np.trace(res.X).real - 2.0) < 1e-12
    G = _inverse_images(horodecki_2x4_witness(), res.X)[1]
    assert np.abs(G * (2.0 / np.trace(G).real) - res.X).max() < 1e-10


def test_normalize_random_cp():
    rng = np.random.default_rng(30)
    W = _random_cp_witness(rng, 3, 3)
    res = normalize(W)
    assert res.converged
    d = diagnostics(res.witness)
    assert d["unitality_residual"] < 1e-10
    assert d["trace_preservation_residual"] < 1e-10


def test_normalize_start_independence():
    """Different PD starts land on the same fixed point."""
    rng = np.random.default_rng(31)
    W = _random_cp_witness(rng, 2, 3)
    ref = normalize(W).X
    for _ in range(3):
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x0 = G @ G.conj().T + 0.1 * np.eye(2)
        X = normalize(W, x0=x0).X
        assert np.abs(X - ref).max() < 1e-8


@pytest.mark.parametrize("x0, detail", [
    (np.zeros((2, 2)), "not positive definite"),
    ([[1.0, 0.0], [0.0, -0.5]], "not positive definite"),
    ([[1.0, 2j], [0.0, 1.0]], "not Hermitian"),
    (np.eye(3), r"shape \(3, 3\)"),
], ids=["zero", "indefinite", "non-hermitian", "3x3"])
def test_normalize_rejects_invalid_start(x0, detail):
    """A start that is not a Hermitian positive-definite m x m matrix is
    named as the fault, without a numpy warning, instead of being blamed
    on the map ("decreases rank") or failing in a reshape."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^x0 must be .*{detail}"):
            normalize(horodecki_2x4_witness(), x0=x0)


def test_normalize_non_convergence_reported():
    res = normalize(horodecki_2x4_witness(), max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert len(res.history) == 3


def test_iterate_step_rejects_indefinite_image():
    # the transposition witness map sends some PD inputs to singular images
    W = Witness(2, 2, -np.eye(4))
    with pytest.raises(ValueError):
        _inverse_images(W, np.eye(2))


def test_rank_decreasing_map_has_no_normal_form():
    """kron(diag(1, 0, 0), I) sends I to a singular transposed image: a
    positive map keeps that support on every positive definite input, so
    the error says the map decreases rank instead of failing later."""
    W = Witness(3, 3, np.kron(np.diag([1.0, 0.0, 0.0]), np.eye(3)))
    with pytest.raises(ValueError, match="decreases rank"):
        normalize(W)


def test_history_monotone_tail():
    """Step norms decay once the iteration enters its contraction basin."""
    res = normalize(horodecki_2x4_witness())
    h = np.array(res.history)
    assert (np.diff(h[5:]) < 0).all()


def test_contraction_spectrum_frozen():
    Wi = identity_witness(3)
    ri = normalize(Wi)
    si = contraction_spectrum(Wi, ri.X)
    assert np.abs(si - 1.0).max() < 1e-10

    Wc = choi_lam_witness()
    rc = normalize(Wc)
    sc = contraction_spectrum(Wc, rc.X)
    assert np.abs(sc - 0.25).max() < 1e-10

    Wh = horodecki_2x4_witness()
    rh = normalize(Wh)
    sh = contraction_spectrum(Wh, rh.X)
    expected = np.array([0.666406473329494, 0.523063911663889, 0.477196281673258])
    assert sh.shape == (3,)
    assert np.abs(sh - expected).max() < 1e-9


def _loop_contraction_spectrum(W, X):
    """The linearized step built one basis element at a time, with the
    single-matrix kernels: the reference for the stacked derivative."""
    m = W.m
    S_inv = np.linalg.inv(apply_map(W, X))
    g = np.linalg.inv(apply_transposed_map(W, S_inv))
    trg = np.trace(g).real
    basis = hermitian_basis(m)[1:]
    mat = np.empty((m * m - 1, m * m - 1))
    for a, E in enumerate(basis):
        dG = -g @ apply_transposed_map(W, -S_inv @ apply_map(W, E) @ S_inv) @ g
        image = (m / trg) * dG - (m * np.trace(dG).real / trg**2) * g
        mat[:, a] = np.einsum("bij,ji->b", basis, image).real
    return np.sort(np.abs(np.linalg.eigvals(mat)))[::-1]


@pytest.mark.parametrize("m, n", [(3, 3), (2, 4), (4, 2)])
def test_contraction_spectrum_matches_loop_reference(m, n):
    W = _random_cp_witness(np.random.default_rng(32 + m), m, n)
    X = normalize(W).X
    reference = _loop_contraction_spectrum(W, X)
    assert np.abs(contraction_spectrum(W, X) - reference).max() < 1e-12


def test_contraction_predicts_convergence_rate():
    """The asymptotic step-norm ratio matches the top contraction eigenvalue."""
    W = horodecki_2x4_witness()
    res = normalize(W)
    rho = contraction_spectrum(W, res.X).max()
    h = res.history
    ratios = [h[k + 1] / h[k] for k in range(40, 50)]
    assert abs(np.mean(ratios) - rho) < 1e-3


def _interior_witness(seed, m, n):
    """lam I/(mn) + (1 - lam) A_cp: an interior witness on C^m (x) C^n."""
    rng = np.random.default_rng(seed)
    A = _random_cp_witness(rng, m, n).matrix
    lam = rng.uniform(0.05, 0.9)
    return Witness(m, n, lam * np.eye(m * n) / (m * n) + (1 - lam) * A)


STANDARD_FORM_CASES = {
    "choi-lam-map": lambda seed: choi_lam_witness("map"),
    "choi-lam-paper": lambda seed: choi_lam_witness("paper"),
    "horodecki-2x4": lambda seed: horodecki_2x4_witness(),
    "interior-3x3": lambda seed: _interior_witness(seed, 3, 3),
    "interior-2x4": lambda seed: _interior_witness(seed, 2, 4),
    "interior-4x2": lambda seed: _interior_witness(seed, 4, 2),
}


def _standard_form_invariants(W):
    """Spectra of A and A^Gamma and the singular values of the traceless
    block of the map matrix, of the standard form of W: each is invariant
    under unitary product transformations."""
    res = normalize(W)
    assert res.converged, (f"normalize did not converge: step norm "
                           f"{res.history[-1]:.3e} after {res.iterations} steps")
    A = res.witness
    return (np.linalg.eigvalsh(A.matrix), np.linalg.eigvalsh(partial_transpose(A).matrix),
            np.linalg.svd(map_matrix(A).coeffs[1:, 1:], compute_uv=False))


@pytest.mark.parametrize("name", STANDARD_FORM_CASES)
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.floats(-3.0, 3.0))
def test_standard_form_unique_under_product_transforms(name, witness_seed, seed, log_scale):
    """The unital, trace-preserving form is unique up to unitary product
    transformations: a witness conjugated by a random complex product
    G (x) H, scaled by 10^log_scale, normalizes to a form with the same
    invariants. A witness whose iteration does not converge fails."""
    W = STANDARD_FORM_CASES[name](witness_seed)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((W.m, W.m)) + 1j * rng.standard_normal((W.m, W.m))
    H = rng.standard_normal((W.n, W.n)) + 1j * rng.standard_normal((W.n, W.n))
    moved = product_transform(W, 10.0 ** log_scale * G, H)
    for ref, got in zip(_standard_form_invariants(W), _standard_form_invariants(moved)):
        assert np.abs(got - ref).max() <= 1e-8
