import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmap.bipartite import (apply_map, apply_transposed_map,
                              biquadratic_form, diagnostics,
                              partial_transpose)
import posmap.builtin as builtin_mod
from posmap.builtin import (RingParams, bloch_to_state, choi_lam_continuum_zero,
                            choi_lam_map, choi_lam_tangent_section,
                            choi_lam_witness, horodecki_2x4_map,
                            horodecki_2x4_witness, identity_witness,
                            ring_common_zeros, ring_points, state_to_bloch,
                            transposition_witness)

# the printed integer form of the partially transposed witness, 2x map scale
W_P = np.array([
    [1, 0, 0, 0, -1, 0, 0, 0, -1],
    [0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 1, 0, 0, 0, -1],
    [0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, -1, 0, 0, 0, 1],
])


def test_identity_and_transposition_witnesses():
    Wi = identity_witness(3)
    e = np.eye(3)
    X = np.outer(e[0], e[1]) + np.outer(e[1], e[0])
    assert np.abs(apply_map(Wi, X) - X).max() < 1e-14
    Wt = transposition_witness(3)
    assert np.abs(apply_map(Wt, X) - X.T).max() < 1e-14


def test_choi_lam_map_formula():
    """Explicit block formula at map scale (factor 1/2)."""
    X = np.arange(9.0).reshape(3, 3)
    X = X + X.T
    Y = choi_lam_map(X)
    expected = 0.5 * np.array([
        [X[0, 0] + X[2, 2], -X[0, 1], -X[0, 2]],
        [-X[1, 0], X[0, 0] + X[1, 1], -X[1, 2]],
        [-X[2, 0], -X[2, 1], X[1, 1] + X[2, 2]],
    ])
    assert np.abs(Y - expected).max() < 1e-14


def test_choi_lam_witness_matches_map():
    W = choi_lam_witness()
    rng = np.random.default_rng(22)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    X = X + X.conj().T
    assert np.abs(apply_map(W, X) - choi_lam_map(X)).max() < 1e-14


def test_choi_lam_printed_integer_matrix():
    """The paper-scale witness, partially transposed, is the integer W^P."""
    WP = partial_transpose(choi_lam_witness(scale="paper")).matrix
    assert np.abs(WP - W_P).max() == 0.0
    assert np.abs(choi_lam_witness(scale="paper").matrix - 2 * choi_lam_witness().matrix).max() == 0.0
    with pytest.raises(ValueError):
        choi_lam_witness(scale="bogus")


def test_choi_lam_spectra():
    d = diagnostics(choi_lam_witness())
    assert abs(d["trace"] - 3.0) < 1e-12
    assert abs(d["min_eig"] - (1 - np.sqrt(5)) / 4) < 1e-12
    assert abs(d["max_eig"] - (1 + np.sqrt(5)) / 4) < 1e-12
    assert abs(d["min_eig_pt"] - (-0.5)) < 1e-12
    eigs_pt = np.linalg.eigvalsh(W_P.astype(float))
    assert np.abs(eigs_pt - np.array([-1, 0, 0, 0, 1, 1, 1, 2, 2])).max() < 1e-12


def test_choi_lam_unital_trace_preserving():
    d = diagnostics(choi_lam_witness())
    assert d["unitality_residual"] < 1e-14
    assert d["trace_preservation_residual"] < 1e-14


def test_choi_lam_isolated_zeros():
    e = np.eye(3)
    W = choi_lam_witness()
    for phi, chi in ((e[0], e[2]), (e[1], e[0]), (e[2], e[1])):
        assert abs(biquadratic_form(W, phi, chi)) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_choi_lam_continuum_zeros(alpha, beta):
    """phi(alpha, beta) gives a singular image for every phase pair."""
    W = choi_lam_witness()
    phi = choi_lam_continuum_zero(alpha, beta)
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-14
    Y = apply_map(W, np.outer(phi, phi.conj()))
    lam = np.linalg.eigvalsh(Y)[0]
    assert abs(lam) < 1e-13


def test_choi_lam_continuum_state_image():
    """M(rho(alpha, beta)) = (3 rho0 - rho) / 2 on the continuum states."""
    W = choi_lam_witness()
    phi = choi_lam_continuum_zero(0.7, -1.3)
    rho = np.outer(phi, phi.conj())
    assert abs(np.trace(rho) - 1.0) < 1e-14
    expected = 0.5 * (np.eye(3) - rho)
    assert np.abs(apply_map(W, rho) - expected).max() < 1e-14


def test_choi_lam_tangent_section_states():
    rho0, rho1, rho2 = choi_lam_tangent_section()
    assert np.abs(rho0 - np.eye(3) / 3).max() == 0.0
    for r in (rho1, rho2):
        assert abs(np.trace(r) - 1.0) < 1e-14
        assert np.abs(r - r.conj().T).max() == 0.0
    # rho1 is the alpha = beta = 0 continuum state, a pure state
    assert np.abs(rho1 - np.full((3, 3), 1.0 / 3)).max() < 1e-14


def test_horodecki_coefficients():
    B0, B1, B2, B3 = (builtin_mod._B0, builtin_mod._B1, builtin_mod._B2,
                      builtin_mod._B3)
    for B in (B0, B1, B2, B3):
        assert B.shape == (4, 4)
        assert np.abs(B - B.conj().T).max() == 0.0
    # sign resolution of the (2,4)/(4,2) pair of B2
    a9, a17 = 0.0363521121932822, 0.0384768416753617
    assert B2[1, 3] == a9 - 1j * a17
    assert B2[3, 1] == a9 + 1j * a17


def test_horodecki_map_positive_on_samples():
    rng = np.random.default_rng(23)
    worst = np.inf
    for _ in range(200):
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        Y = horodecki_2x4_map(bloch_to_state(p))
        worst = min(worst, np.linalg.eigvalsh(Y)[0])
    assert worst > -1e-10


def test_horodecki_witness_matches_map():
    W = horodecki_2x4_witness()
    assert (W.m, W.n) == (2, 4)
    rng = np.random.default_rng(24)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    X = X + X.conj().T
    assert np.abs(apply_map(W, X) - horodecki_2x4_map(X)).max() < 1e-14
    assert abs(np.trace(W.matrix).real - 1.0) < 1e-12


def test_horodecki_ring_zero_images():
    """Ring points map to singular rank-3 images."""
    W = horodecki_2x4_witness()
    for theta in (0.0, 0.9, 2.5):
        rho = bloch_to_state(ring_points([theta])[0, 0])
        vals = np.linalg.eigvalsh(apply_map(W, rho))
        assert abs(vals[0]) < 1e-12
        assert vals[1] > 1e-4


def test_ring_zero_frozen_points():
    p, m = ring_points([0.0])[:, 0]
    assert np.abs(p - np.array([0.974684865169519, 0.0, -0.223583124608])).max() < 1e-12
    assert np.abs(m - np.array([-0.991284461820572, 0.0, 0.131738816425151])).max() < 1e-12
    q = ring_points([1.0])[0, 0]
    assert np.abs(q - np.array([0.535502860008171, 0.833996290751519, 0.13299200703718])).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 2 * np.pi), st.sampled_from([0, 1]))
def test_ring_zero_on_unit_sphere(theta, branch):
    (p,) = ring_points([theta])[branch]
    assert abs(p @ p - 1.0) < 1e-12


def test_ring_points_batch():
    """Each row of a batch is the one-angle call, bit for bit, on both
    branches."""
    thetas = np.linspace(0, 2 * np.pi, 101)
    P = ring_points(thetas)
    assert P.shape == (2, 101, 3)
    assert np.abs(np.einsum("bij,bij->bi", P, P) - 1.0).max() < 1e-12
    for i in (0, 50, 100):
        assert np.array_equal(P[:, i], ring_points([thetas[i]])[:, 0])


def test_ring_common_zeros():
    cz = ring_common_zeros()
    assert cz.shape == (8, 3)
    assert np.abs(np.einsum("ij,ij->i", cz, cz) - 1.0).max() < 1e-12
    # invariant under reparametrizing the family
    p = RingParams()
    shifted = ring_common_zeros(RingParams(p.a, p.b, p.theta0 + 0.1))
    d = np.linalg.norm(cz[:, None, :] - shifted[None, :, :], axis=2)
    assert d.min(axis=1).max() < 1e-10


def test_ring_params_validation():
    """Non-finite parameters and |b| > 1 (the ring leaves the sphere
    where s = 0) are rejected; |b| = 1 keeps the ring on the sphere."""
    for bad in (dict(b=2.0), dict(b=-1.5), dict(a=np.nan), dict(theta0=np.inf)):
        with pytest.raises(ValueError):
            RingParams(**bad)
    for b in (1.0, -1.0):
        P = ring_points(np.linspace(0, 2 * np.pi, 64), RingParams(b=b))
        assert np.abs(np.einsum("bij,bij->bi", P, P) - 1.0).max() < 1e-12


def test_bloch_roundtrip():
    rng = np.random.default_rng(25)
    p = rng.standard_normal(3)
    p /= np.linalg.norm(p) * 2.0  # mixed state inside the ball
    rho = bloch_to_state(p)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert np.abs(state_to_bloch(rho) - p).max() < 1e-14
    # pure iff on the sphere
    assert abs(np.linalg.eigvalsh(bloch_to_state(p / np.linalg.norm(p)))[0]) < 1e-14
