import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from posmap.bipartite import (Witness, apply_map, apply_transposed_map, biquadratic_form,
                              partial_transpose)
from posmap.builtin import (choi_lam_continuum_zero, choi_lam_witness,
                            horodecki_2x4_witness, identity_witness,
                            transposition_witness)
from posmap.hermitian import hermitian_basis, hs_norm
import posmap.zeros as zeros_mod
from posmap.zeros import (NotBlockPositiveError, alternating_minimize,
                          classify_zero, constraint_rank, constraint_rows,
                          find_zeros, refine_zero)

from test_normalize import _random_cp_witness

PRINTED_ZEROS = ((0, 2), (1, 0), (2, 1))  # (phi index, chi index)


def _overlap(v, w):
    return abs(np.vdot(v, w))


def test_alternating_minimize_decreases(monkeypatch):
    W = choi_lam_witness()
    rng = np.random.default_rng(40)
    phi0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi, chi, value = alternating_minimize(W, phi0)
    assert abs(np.linalg.norm(phi) - 1) < 1e-12
    assert abs(np.linalg.norm(chi) - 1) < 1e-12
    # each extra sweep can only improve the value
    monkeypatch.setattr(zeros_mod, "SWEEP_CAP", 1)
    _, _, v1 = alternating_minimize(W, phi0)
    monkeypatch.setattr(zeros_mod, "SWEEP_CAP", 50)
    _, _, v50 = alternating_minimize(W, phi0)
    assert v50 <= v1 + 1e-15
    assert -1e-12 < value < 1e-3


def test_refine_zero_from_perturbed_start():
    """Newton's method drives a nearby start into a printed zero."""
    W = choi_lam_witness()
    e = np.eye(3)
    rng = np.random.default_rng(41)
    start = e[1] + 0.05 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    phi, chi, value = refine_zero(W, start)
    assert abs(value) < 1e-10
    assert _overlap(phi, e[1]) > 1 - 1e-6
    assert _overlap(chi, e[0]) > 1 - 1e-6


def test_refine_zero_keeps_exact_zero():
    # the valley is quartic, so the finish may drift O(tol^(1/4)) in phi
    W = choi_lam_witness()
    e = np.eye(3)
    phi, chi, value = refine_zero(W, e[0])
    assert abs(value) < 1e-14
    assert _overlap(phi, e[0]) > 1 - 1e-6


def test_classify_printed_zero_quartic():
    W = choi_lam_witness()
    e = np.eye(3)
    kind, spec = classify_zero(W, e[1], e[0])
    assert kind == "quartic"
    assert spec.shape == (8,)
    expected = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0])
    assert np.abs(spec - expected).max() < 1e-12


def test_classify_continuum_zero_quartic():
    W = choi_lam_witness()
    phi = choi_lam_continuum_zero(0.7, 1.9)
    Y = apply_map(W, np.outer(phi, phi.conj()))
    chi = np.linalg.eigh(Y)[1][:, 0]
    kind, spec = classify_zero(W, phi, chi)
    assert kind == "quartic"
    assert spec[0] < 1e-6


def test_classify_quadratic_zero():
    """A nondegenerate zero of a diagonal PSD witness is quadratic."""
    A = np.zeros((4, 4))
    A[0, 0] = 1.0  # |e1 e1>
    A[3, 3] = 1.0  # |e2 e2>
    W = Witness(2, 2, A)
    e = np.eye(2)
    kind, spec = classify_zero(W, e[0], e[1])
    assert kind == "quadratic"
    assert spec.shape == (4,)
    assert np.abs(spec - 2.0).max() < 1e-12


_E0 = np.eye(3)[0]


@pytest.mark.parametrize("call, name", [
    (lambda W, v: alternating_minimize(W, v), "phi0"),
    (lambda W, v: refine_zero(W, v), "phi"),
    (lambda W, v: classify_zero(W, v, _E0), "phi"),
    (lambda W, v: classify_zero(W, _E0, v), "chi"),
], ids=["alternating_minimize", "refine_zero", "classify_zero-phi", "classify_zero-chi"])
@pytest.mark.parametrize("v", [np.zeros(3), np.ones(6), np.ones(2),
                               np.array([np.nan, 1.0, 0.0])],
                         ids=["zero", "long", "short", "nan"])
def test_one_zero_entry_points_name_bad_vectors(call, name, v):
    """A zero, non-finite or wrong-length vector is refused with a
    ValueError naming the argument, without a numpy warning, instead of a
    LinAlgError or a failed reshape."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^(expected {name} of shape|{name} must be)"):
            call(choi_lam_witness(), v)


@pytest.mark.parametrize("name", ["phi", "chi"])
def test_classify_refuses_non_unit_vectors(name):
    """The tangent Hessian scales with |phi|^2 |chi|^2, so a short vector
    would read a quadratic zero as quartic: it is refused, not rescaled,
    and unit inputs keep the bits of the stacked classification."""
    W = Witness(3, 3, np.eye(9) - np.diag(np.eye(9)[0]))
    e0 = np.eye(3)[0]
    kind, spectrum = classify_zero(W, e0, e0)
    kinds, spectra, _, _ = zeros_mod._classify(W, e0[None], e0[None])
    assert kind == kinds[0] == "quadratic"
    assert np.array_equal(spectrum, spectra[0])
    args = {"phi": e0, "chi": e0}
    args[name] = 1e-4 * e0
    with pytest.raises(ValueError, match=f"^{name} must be a unit vector"):
        classify_zero(W, **args)


def test_classify_rejects_non_zero():
    W = choi_lam_witness()
    e = np.eye(3)
    with pytest.raises(ValueError):
        classify_zero(W, e[0], e[0])  # f = 1/2 there


def test_find_zeros_choi_lam():
    W = choi_lam_witness()
    zeros = find_zeros(W, starts=60, seed=7)
    iso = [z for z in zeros if not z.continuum]
    cont = [z for z in zeros if z.continuum]
    assert len(iso) == 3
    assert len(cont) >= 5
    e = np.eye(3)
    for i, j in PRINTED_ZEROS:
        hits = [z for z in iso
                if _overlap(z.phi, e[i]) > 1 - 1e-6 and _overlap(z.chi, e[j]) > 1 - 1e-6]
        assert len(hits) == 1
    for z in zeros:
        assert z.kind == "quartic"
        assert abs(z.value) < 1e-9


@pytest.mark.parametrize("name, starts, seed",
                         [("choi-lam", 60, 7), ("horodecki-2x4", 30, 2)])
def test_quartic_zeros_clear_hessian_threshold(name, starts, seed):
    """The exact Hessian puts the null eigenvalues of quartic zeros far
    below the quadratic/quartic threshold, not within rounding of it."""
    W = WITNESSES[name]()
    zeros = find_zeros(W, starts=starts, seed=seed)
    assert zeros
    margin = 0.1 * zeros_mod.HESS_TOL * hs_norm(W.matrix)
    for z in zeros:
        assert abs(z.hessian_spectrum[0]) < margin


def test_find_zeros_deterministic():
    W = choi_lam_witness()
    za = find_zeros(W, starts=25, seed=3)
    zb = find_zeros(W, starts=25, seed=3)
    assert len(za) == len(zb)
    for a, b in zip(za, zb):
        assert np.abs(a.phi - b.phi).max() == 0.0
        assert np.abs(a.chi - b.chi).max() == 0.0


def test_constraint_rows_shape():
    """2(m+n) - 3 rows per zero, (mn)^2 - 1 columns (traceless basis)."""
    W = choi_lam_witness()
    e = np.eye(3)
    R = constraint_rows(W, e[1], e[0])
    assert R.shape == (9, 80)
    W24 = Witness(2, 4, np.eye(8))
    rng = np.random.default_rng(42)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    chi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    R24 = constraint_rows(W24, phi / np.linalg.norm(phi), chi / np.linalg.norm(chi))
    assert R24.shape == (2 * (2 + 4) - 3, 63)


@pytest.mark.parametrize("phi, chi", [
    (np.ones(6), np.eye(3)[0]),          # not to be read as two zeros
    (np.eye(3)[0], np.ones(2)),
    (np.eye(3)[:2], np.eye(3)),          # two phi against three chi
], ids=["phi-length", "chi-length", "stack-shapes"])
def test_constraint_rows_reject_mismatched_shapes(phi, chi):
    """A phi of length other than m, a chi of length other than n, or
    stacks of different shapes are refused, not reshaped into zeros."""
    W = choi_lam_witness()
    with pytest.raises(ValueError, match="expected phi of shape"):
        constraint_rows(W, phi, chi)
    if phi.ndim == chi.ndim == 1:
        with pytest.raises(ValueError, match="expected phi of shape"):
            constraint_rank(W, [(phi, chi)])


def test_constraint_rank_names_phi_of_mixed_lengths():
    """Pairs whose phi lengths differ are refused by posmap's shape check,
    not by numpy's stacking of a ragged list."""
    e0 = np.eye(3)[0]
    with pytest.raises(ValueError, match="^expected phi of shape"):
        constraint_rank(choi_lam_witness(), [(e0, e0), (np.ones(6), e0)])


def test_constraint_rank_printed_zeros():
    W = choi_lam_witness()
    e = np.eye(3)
    sys = constraint_rank(W, [(e[i], e[j]) for i, j in PRINTED_ZEROS])
    assert sys.rows.shape == (27, 80)
    assert sys.rank == 27


def test_constraint_rank_counts_near_coincident_zeros_once():
    """A phi 1e-9 from e0 (scaled, so unnormalized) is the zero (e0, e2)
    again: it adds no rows, and the rank stays that of one zero."""
    W = choi_lam_witness()
    e = np.eye(3)
    near = 2.0 * (e[0] + 1e-9 * e[1])
    system = constraint_rank(W, [(e[0], e[2]), (near, e[2])])
    assert system.zero_count == 1
    assert system.rows.shape == (9, 80)
    assert system.rank == 9
    # A zero vector is no zero: it is refused, not counted with no rows.
    with pytest.raises(ValueError, match="nonzero phi and chi"):
        constraint_rank(W, [(e[0], e[2]), (np.zeros(3), e[2])])
    for phi, chi in ((np.zeros(3), e[2]), (e[:2], np.array([e[2], np.zeros(3)]))):
        with pytest.raises(ValueError, match="nonzero phi and chi"):
            constraint_rows(W, phi, chi)


def test_constraint_rows_against_own_witness():
    """The witness satisfies its own affine zero constraints.

    On traceless coordinates the value row picks up the offset
    -tr(W)/(mn) from the projected-out trace component; the gradient
    rows annihilate the witness exactly.
    """
    W = choi_lam_witness()
    e = np.eye(3)
    R = constraint_rows(W, e[1], e[0])
    # traceless part of the coordinates
    coords = np.einsum("aij,ji->a", hermitian_basis(9), W.matrix).real[1:]
    out = R @ coords
    assert abs(out[0] - (-np.trace(W.matrix).real / 9)) < 1e-12
    assert np.abs(out[1:]).max() < 1e-12


def _reference_rows(phi, chi, frame=zeros_mod._tangent_frame):
    """One zero's rows from one N x N functional per row, with the tangent
    directions of ``frame``. The imaginary parts are negated: the
    derivative of psi^dag E a along i u is -Im."""
    psi = np.kron(phi, chi)
    functionals = [np.outer(psi, psi.conj())]
    partners = [np.kron(u, chi) for u in frame(phi).T]
    partners += [np.kron(phi, v) for v in frame(chi).T]
    for eta in partners:
        outer = np.outer(eta, psi.conj())
        functionals.append((outer + outer.conj().T) / 2.0)
        functionals.append(-(outer - outer.conj().T) / 2j)
    basis = hermitian_basis(len(psi))[1:]
    return np.array([np.einsum("aij,ji->a", basis, F).real for F in functionals])


@pytest.mark.parametrize("m, n", [(3, 3), (2, 4), (4, 2)])
@pytest.mark.parametrize("count", [1, 5])
def test_constraint_rows_match_reference(m, n, count):
    """The stacked rows equal the per-functional construction, and a
    stacked row equals the row of its zero alone."""
    W = Witness(m, n, np.eye(m * n))
    rng = np.random.default_rng(10 * m + count)
    Phi = rng.normal(size=(count, m)) + 1j * rng.normal(size=(count, m))
    Chi = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    Phi /= np.linalg.norm(Phi, axis=1, keepdims=True)
    Chi /= np.linalg.norm(Chi, axis=1, keepdims=True)
    R = constraint_rows(W, Phi, Chi)
    assert R.shape == (count, 2 * (m + n) - 3, (m * n) ** 2 - 1)
    for i in range(count):
        assert np.array_equal(R[i], constraint_rows(W, Phi[i], Chi[i]))
        assert np.abs(R[i] - _reference_rows(Phi[i], Chi[i])).max() <= 1e-14


def _qr_frame(v):
    """The complement of v from LAPACK's QR of [v | I], column 0 dropped."""
    return np.linalg.qr(np.column_stack([v, np.eye(len(v))]))[0][:, 1:]


# Unit vectors with a zero, real, complex or tiny lead entry, and the
# scales they are tried at: non-unit norms and 2^+-600, whose squares
# leave the float range.
FRAME_VECTORS = {
    "lead-zero": [0.0, 0.6, 0.8j],
    "basis-last": [0.0, 0.0, 1.0],
    "basis-first": [1.0, 0.0, 0.0],
    "negative-lead": [-1.0, 2.0, 2j],
    "complex-lead": [1 - 1j, 0.5, -2.0, 1j],
    "tiny-lead": [1e-300, 1.0],
    "pair": [3.0, 4j],
}
FRAME_SCALES = [1.0, 3.7, 1e-3, 2.0 ** 600, 2.0 ** -600]


@pytest.mark.parametrize("name", FRAME_VECTORS)
@pytest.mark.parametrize("scale", FRAME_SCALES)
def test_tangent_frame_is_an_orthonormal_complement(name, scale):
    """The closed-form frame of any nonzero v is k - 1 orthonormal columns
    orthogonal to v, to a few eps, with no warning at any scale; a row of
    a stack gets its frame alone bit for bit."""
    v = np.array(FRAME_VECTORS[name], dtype=complex)
    v /= np.linalg.norm(v)
    k = len(v)
    eps = np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F = zeros_mod._tangent_frame(scale * v)
        stacked = zeros_mod._tangent_frame(np.array([scale * v, v[::-1], scale * v]))
    assert F.shape == (k, k - 1)
    assert np.abs(F.conj().T @ F - np.eye(k - 1)).max() <= 4 * eps
    assert np.abs(F.conj().T @ v).max() <= 4 * eps
    assert np.array_equal(stacked[0], F) and np.array_equal(stacked[2], F)


@pytest.mark.parametrize("m, n", [(3, 3), (2, 4)])
def test_constraint_rows_match_the_qr_frame(m, n):
    """The closed-form frame and LAPACK's QR frame span the same tangent
    space, so each zero's rows are those of the QR frame up to a real
    orthogonal mix of its derivative rows: the value row is unchanged,
    and the mix is orthogonal to rounding."""
    W = Witness(m, n, np.eye(m * n))
    rng = np.random.default_rng(63 + m)
    for _ in range(4):
        phi = rng.normal(size=m) + 1j * rng.normal(size=m)
        chi = rng.normal(size=n) + 1j * rng.normal(size=n)
        phi, chi = phi / np.linalg.norm(phi), chi / np.linalg.norm(chi)
        R = constraint_rows(W, phi, chi)
        reference = _reference_rows(phi, chi, frame=_qr_frame)
        mix = reference @ np.linalg.pinv(R)
        assert np.abs(R[0] - reference[0]).max() <= 1e-15
        assert np.abs(mix @ mix.T - np.eye(len(R))).max() <= 1e-13
        assert np.abs(mix @ R - reference).max() <= 1e-14


def test_constraint_rank_without_zeros():
    W = choi_lam_witness()
    for zeros in ([], find_zeros(Witness(3, 3, np.eye(9)), starts=3)):
        system = constraint_rank(W, zeros)
        assert system.rows.shape == (0, 80)
        assert system.rank == 0 and system.zero_count == 0


@pytest.mark.parametrize("witness, starts, seed, rank", [
    (choi_lam_witness, 500, 42, 80), (horodecki_2x4_witness, 200, 11, 63)],
    ids=["choi-lam", "horodecki-2x4"])
def test_builtins_certified_extremal_by_own_zeros(witness, starts, seed, rank):
    """The constraint rows of a builtin's own zeros have full rank
    (N^2 - 1 with N = m n): the zeros fix the witness up to scale."""
    W = witness()
    zeros = find_zeros(W, starts, seed)
    system = constraint_rank(W, zeros)
    assert (W.m * W.n) ** 2 - 1 == rank
    assert system.rank == rank
    assert system.zero_count == len(zeros)
    # Full rank drops nothing; choi-lam counts its last value at 1.2e-9.
    assert system.first_dropped == 0.0
    assert zeros_mod.RANK_TOL < system.last_counted <= 1.0


def test_constraint_rank_reports_its_margin():
    """The continuum zeros of choi-lam alone fix 67 directions: the last
    counted singular value sits far above RANK_TOL and the first dropped
    one at rounding, both relative to the largest. Without zeros there
    is no margin."""
    W = choi_lam_witness()
    angles = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, size=(40, 2))
    system = constraint_rank(W, [(phi, phi) for phi in
                                 (choi_lam_continuum_zero(a, b) for a, b in angles)])
    assert system.rank == 67
    assert system.last_counted > 0.1
    assert system.first_dropped < 1e-14
    sv = np.linalg.svd(system.rows, compute_uv=False)
    assert system.last_counted == sv[66] / sv[0]
    assert system.first_dropped == sv[67] / sv[0]
    empty = constraint_rank(W, [])
    assert (empty.rank, empty.last_counted, empty.first_dropped) == (0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Closed-form 3 x 3 smallest eigenpair against LAPACK.
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _with_spectra(rng, spectra):
    """U diag(s) U^dag, one random unitary U per row of ``spectra``."""
    Z = rng.normal(size=(len(spectra), 3, 3)) + 1j * rng.normal(size=(len(spectra), 3, 3))
    U = np.linalg.qr(Z)[0]
    return np.einsum("kij,kj,klj->kil", U, spectra, U.conj())


def _kernel_cases():
    rng = np.random.default_rng(60)
    Z = rng.normal(size=(4000, 3, 3)) + 1j * rng.normal(size=(4000, 3, 3))
    random = (Z + Z.conj().swapaxes(-1, -2)) / 2
    cases = {"random": random}
    low = rng.normal(size=300)
    spread = rng.uniform(0.5, 2.0, size=300)
    # The smallest eigenvalue near the middle one, then the two larger
    # ones near each other (as at every Choi-Lam zero, spectrum 0, 1/2, 1/2).
    for gap in (1e-1, 1e-2, 1e-3, 1e-5, 1e-7, 1e-9, 0.0):
        cases[f"low gap {gap:g}"] = _with_spectra(
            rng, np.stack([low, low + gap * spread, low + spread], axis=1))
        cases[f"high gap {gap:g}"] = _with_spectra(
            rng, np.stack([low, low + (1.0 - gap) * spread, low + spread], axis=1))
    cases["c I"] = rng.normal(size=(50, 1, 1)) * np.eye(3)
    cases["-I"] = -np.eye(3)[None]
    cases["diagonal"] = rng.normal(size=(200, 3, 1)) * np.eye(3)
    cases["real"] = random[:500].real
    for e in (40, -40, 400, -400):
        cases[f"scale 2^{e}"] = random[500:1000] * 2.0 ** e
    P = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
    cases["identity M(phi phi^dag)"] = apply_map(identity_witness(3), zeros_mod._outer(P))
    return {name: H.astype(complex) for name, H in cases.items()}


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_smallest3_matches_lapack(name):
    """Within 8 eps ||H|| of eigh, unit vectors, finite everywhere, and a
    one-matrix call gives the stacked row bit for bit."""
    H = KERNEL_CASES[name]
    lam, V = zeros_mod._smallest3(H)
    assert np.isfinite(lam).all() and np.isfinite(V).all()
    bound = 8 * EPS * np.sqrt((np.abs(H) ** 2).sum(axis=(1, 2)))
    reference = np.linalg.eigh(H)[0][:, 0]
    assert np.all(np.abs(lam - reference) <= bound)
    residual = np.linalg.norm(np.einsum("kij,kj->ki", H, V) - lam[:, None] * V, axis=1)
    assert np.all(residual <= bound)
    assert np.all(np.abs(np.linalg.norm(V, axis=1) - 1.0) <= 8 * EPS)
    for i in range(len(H)):
        one_lam, one_V = zeros_mod._smallest3(H[i:i + 1])
        assert one_lam[0] == lam[i] and np.array_equal(one_V[0], V[i])


@pytest.mark.parametrize("make", [identity_witness, transposition_witness])
def test_smallest3_defers_rank_one_images_to_lapack(make):
    """M(phi phi^dag) of the identity and the transposition has a double
    zero eigenvalue: every row goes to LAPACK, so their searches keep
    LAPACK's bits."""
    rng = np.random.default_rng(61)
    P = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    H = apply_map(make(3), zeros_mod._outer(P))
    lam, V = zeros_mod._smallest3(H)
    w, U = np.linalg.eigh(H)
    assert np.array_equal(lam, w[:, 0]) and np.array_equal(V, U[:, :, 0])


# ---------------------------------------------------------------------------
# Stacked kernels: every start of a stack gets the result it gets alone.
# ---------------------------------------------------------------------------

WITNESSES = {"choi-lam": choi_lam_witness, "horodecki-2x4": horodecki_2x4_witness}


def _starts(W, count, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, W.m)) + 1j * rng.normal(size=(count, W.m))


def _canonical(v):
    return zeros_mod._canonical_phase(v[None])[0]


def _min_vec(H):
    """Minimal eigenvector of one matrix: the search's closed-form kernel
    on a one-matrix stack for 3 x 3, LAPACK otherwise."""
    if H.shape[-1] == 3:
        return zeros_mod._smallest3(H[None])[1][0]
    return np.linalg.eigh(H)[1][:, 0]


def _sequential_alternation(W, phi, max_iter, tol):
    """One-start alternating minimization, sweep by sweep."""
    phi = np.asarray(phi, dtype=complex)
    phi = phi / np.linalg.norm(phi)
    chi = _min_vec(apply_map(W, np.outer(phi, phi.conj())))
    value = biquadratic_form(W, phi, chi)
    stopped = False
    for _ in range(max_iter):
        phi = _min_vec(apply_transposed_map(W, np.outer(chi, chi.conj())))
        chi = _min_vec(apply_map(W, np.outer(phi, phi.conj())))
        new_value = biquadratic_form(W, phi, chi)
        if value - new_value <= tol:
            value = new_value
            stopped = True
            break
        value = new_value
    # the last item: max_iter sweeps ran without stopping (creeping)
    return _canonical(phi), _canonical(chi), value, not stopped


def _sequential_spectrum(W, phi, chi, h=1e-4):
    """One-zero Richardson-extrapolated finite-difference tangent Hessian,
    an independent reference for the closed form of the classification."""
    f0 = biquadratic_form(W, phi, chi)
    U, V = zeros_mod._tangent_frame(phi), zeros_mod._tangent_frame(chi)
    zm, zn = np.zeros(W.m, dtype=complex), np.zeros(W.n, dtype=complex)
    dirs = [d for u in U.T for d in ((u, zn), (1j * u, zn))]
    dirs += [d for v in V.T for d in ((zm, v), (zm, 1j * v))]
    dim = len(dirs)

    def f_at(dp, dc):
        return biquadratic_form(W, phi + dp, chi + dc)

    def hessian(s):
        H = np.empty((dim, dim))
        for p, (dp, dc) in enumerate(dirs):
            H[p, p] = (f_at(s * dp, s * dc) + f_at(-s * dp, -s * dc) - 2.0 * f0) / s**2
            for q in range(p + 1, dim):
                dq, dd = dirs[q]
                H[p, q] = H[q, p] = (f_at(s * (dp + dq), s * (dc + dd))
                                     - f_at(s * (dp - dq), s * (dc - dd))
                                     - f_at(s * (dq - dp), s * (dd - dc))
                                     + f_at(-s * (dp + dq), -s * (dc + dd))) / (4.0 * s**2)
        return H

    H = (4.0 * hessian(h / 2.0) - hessian(h)) / 3.0
    return np.linalg.eigvalsh((H + H.T) / 2.0)


def _assert_rows_equal(stacked, singles):
    for i, single in enumerate(singles):
        for part, row in zip(single, stacked):
            assert np.array_equal(row[i], part)


@pytest.mark.parametrize("name", WITNESSES)
@pytest.mark.parametrize("max_iter, tol", [(1, 0.0), (200, 0.0)])
def test_stacked_alternation_matches_single_starts(name, max_iter, tol, monkeypatch):
    W = WITNESSES[name]()
    starts = _starts(W, 12, 50)
    monkeypatch.setattr(zeros_mod, "SWEEP_CAP", max_iter)
    Phi, Chi, values, creeping = zeros_mod._alternate(W, starts)
    stacked = (zeros_mod._canonical_phase(Phi), zeros_mod._canonical_phase(Chi), values,
               creeping)
    _assert_rows_equal(stacked, [alternating_minimize(W, s) for s in starts])
    _assert_rows_equal(stacked, [_sequential_alternation(W, s, max_iter, tol)
                                 for s in starts])
    # With the Newton finish of the creeping rows, too, each start of a
    # stack ends where it ends alone.
    _assert_rows_equal(zeros_mod._minimize(W, starts),
                       [[part[0] for part in zeros_mod._minimize(W, starts[k:k + 1])]
                        for k in range(len(starts))])


@pytest.mark.parametrize("name", WITNESSES)
@pytest.mark.parametrize("cap", [20, 1])
def test_stacked_refine_matches_single_starts(name, cap, monkeypatch):
    """Every start of a stacked Newton finish gets the bits it gets alone,
    also when the step cap stops the finish early."""
    W = WITNESSES[name]()
    phis = _starts(W, 10, 51)   # far from zeros: rows stop after different steps
    monkeypatch.setattr(zeros_mod, "NEWTON_CAP", cap)
    Phi = zeros_mod._normalized(phis)
    Phi, Chi, values, _ = zeros_mod._newton(W, Phi, *zeros_mod._chi_step(W, Phi))
    stacked = (zeros_mod._canonical_phase(Phi), zeros_mod._canonical_phase(Chi), values)
    _assert_rows_equal(stacked, [refine_zero(W, p) for p in phis])


def _interior_witness(seed, m=3, n=3):
    """lam I/(mn) + (1 - lam) A_cp with A_cp a random trace-one completely
    positive witness: f >= lam/(mn) > 0, so the witness has no zeros."""
    rng = np.random.default_rng(seed)
    A = _random_cp_witness(rng, m, n).matrix
    lam = rng.uniform(0.05, 0.9)
    return Witness(m, n, lam * np.eye(m * n) / (m * n) + (1 - lam) * A)


def _choi_lam_mixture():
    """0.2 tr(A) I/9 + 0.8 A, A choi-lam: zero-free (min f about 0.067),
    but lambda_min is -0.18 and that of the partial transpose -0.33, so
    the spectral certificate of find_zeros does not settle it and the
    search runs, with positive minima."""
    A = choi_lam_witness().matrix
    return Witness(3, 3, 0.2 * np.trace(A).real * np.eye(9) / 9 + 0.8 * A)


FINISH_CASES = dict(WITNESSES, mixture=_choi_lam_mixture,
                    **{f"interior-{s}": (lambda s=s: _interior_witness(s))
                       for s in (3, 4)})
# The cases whose A is positive definite: find_zeros settles them by the
# spectral certificate and runs no search.
CERTIFIED = {"interior-3", "interior-4"}


def _search_starts(W, count, seed):
    """The starts find_zeros(W, count, seed) draws."""
    draws = np.random.default_rng(seed).normal(size=(count, 2, W.m))
    return draws[:, 0] + 1j * draws[:, 1]


def _alternated(W, count, seed):
    """The alternation's results as find_zeros hands them to the finish."""
    Phi, Chi, values, creeping = zeros_mod._alternate(W, _starts(W, count, seed))
    return zeros_mod._canonical_phase(Phi), zeros_mod._canonical_phase(Chi), values, creeping


@pytest.mark.parametrize("name", FINISH_CASES)
def test_alternation_values_are_the_form_at_its_points(name):
    """Every value the alternation returns is f_A at the point it returns,
    rounded as biquadratic_form rounds it, also for a stopping start."""
    W = FINISH_CASES[name]()
    Phi, Chi, values, creeping = zeros_mod._alternate(W, _starts(W, 100, 54))
    assert not creeping.all()
    assert np.array_equal(values, biquadratic_form(W, Phi, Chi))


@pytest.mark.parametrize("name", FINISH_CASES)
def test_polish_skips_finished_starts(name, monkeypatch):
    """find_zeros hands the Newton finish only the starts still creeping
    at the sweep cap, with the alternation's own (phi, chi, f); a start
    that stopped by the alternation's own rule keeps its result.
    Finishing it anyway would move its value by rounding alone and flip
    no acceptance at find_zeros' default tol. On the positive-definite
    cases find_zeros runs no search, so _minimize runs on its starts."""
    W = FINISH_CASES[name]()
    seen = {}
    alternate, newton = zeros_mod._alternate, zeros_mod._newton

    def spy_alternate(W, Phi):
        seen["alternate"] = alternate(W, Phi)
        return tuple(part.copy() for part in seen["alternate"])

    def spy_newton(W, Phi, Chi, values):
        seen["newton"] = (Phi.copy(), Chi.copy(), values.copy())
        return newton(W, Phi, Chi, values)

    monkeypatch.setattr(zeros_mod, "_alternate", spy_alternate)
    monkeypatch.setattr(zeros_mod, "_newton", spy_newton)
    if name in CERTIFIED:
        zeros_mod._minimize(W, _search_starts(W, 100, 54))
    else:
        find_zeros(W, 100, 54)
    Phi, Chi, values, creeping = seen["alternate"]
    for handed, part in zip(seen["newton"], (Phi, Chi, values)):
        assert np.array_equal(handed, part[creeping])
    finished = ~creeping
    assert finished.sum() >= 30
    refined = newton(W, Phi[finished], Chi[finished], values[finished])[2]
    scale = hs_norm(W.matrix)
    assert np.abs(refined - values[finished]).max() <= 1e-14 * scale
    tol = 1e-9 * scale
    for test in (lambda v: np.abs(v) <= tol, lambda v: v < -tol):
        assert np.array_equal(test(refined), test(values[finished]))


def _newton_steps(monkeypatch, W, starts, seed):
    """The steps each creeping start of find_zeros takes in the finish."""
    steps = []
    newton = zeros_mod._newton

    def spy(*args):
        result = newton(*args)
        steps.append(result[3])
        return result

    monkeypatch.setattr(zeros_mod, "_newton", spy)
    find_zeros(W, starts, seed)
    (counts,) = steps
    return counts


@pytest.mark.parametrize("seed", [42, 823278402])
def test_newton_finish_stops_before_its_cap(seed, monkeypatch):
    """Every creeping start of a choi-lam search ends its Newton finish
    by the stop rule, not the step cap (job seed 823278402 is the one
    whose start the former pattern search walked for 6,000 evaluations)."""
    steps = _newton_steps(monkeypatch, choi_lam_witness(), 500, seed)
    assert steps.size >= 50
    assert steps.max() < zeros_mod.NEWTON_CAP


def test_newton_finish_converges_quadratically_at_positive_minima(monkeypatch):
    """On an interior witness every start still creeps at 40 sweeps, and
    Newton finishes each in at most 3 steps at the value that the
    alternation reaches when it runs to its own stop. The minima are
    positive, so this needs the spheres' curvature -2 f I in the
    Hessian: without it the steps converge only linearly."""
    W = _interior_witness(5)
    monkeypatch.setattr(zeros_mod, "SWEEP_CAP", 200)
    _, _, full, creeping = _alternated(W, 60, 54)
    assert not creeping.any()
    monkeypatch.setattr(zeros_mod, "SWEEP_CAP", 40)
    Phi, _, _, creeping = _alternated(W, 60, 54)
    assert creeping.all()
    Phi = zeros_mod._normalized(Phi)
    Chi, values = zeros_mod._chi_step(W, Phi)
    _, _, values, steps = zeros_mod._newton(W, Phi, Chi, values)
    assert steps.max() <= 3
    assert np.abs(values - full).max() <= 1e-14 * hs_norm(W.matrix)


@pytest.mark.parametrize("name", WITNESSES)
def test_stacked_classify_matches_single_zeros(name):
    W = WITNESSES[name]()
    zeros = [refine_zero(W, alternating_minimize(W, s)[0]) for s in _starts(W, 12, 52)]
    Phi, Chi, values = (np.array(part) for part in zip(*zeros))
    found = np.abs(values) <= 1e-9 * max(1.0, hs_norm(W.matrix))
    assert found.sum() >= 5
    Phi, Chi = Phi[found], Chi[found]
    kinds, spectra, _, flags = zeros_mod._classify(W, Phi, Chi)
    assert flags.any()
    for i in range(len(Phi)):
        kind, spectrum = classify_zero(W, Phi[i], Chi[i])
        assert kinds[i] == kind
        assert np.array_equal(spectra[i], spectrum)
        assert flags[i] == zeros_mod._classify(W, Phi[i:i + 1], Chi[i:i + 1])[3][0]
        # the finite-difference reference carries its own rounding noise
        reference = _sequential_spectrum(W, Phi[i], Chi[i])
        assert np.abs(spectra[i] - reference).max() <= 1e-6


@pytest.mark.parametrize("name", WITNESSES)
@pytest.mark.parametrize("size", [1, 2, 3])
def test_newton_and_classify_rows_do_not_depend_on_stack_size(name, size):
    """Each row of a _newton or _classify stack of 1, 2 or 3 rows gets the
    bits of its one-row call. A 2-d row stack (K, d) @ (d, e) goes to gemv
    at K = 1 and to gemm otherwise, so such a product in the kernels
    would show here."""
    W = WITNESSES[name]()
    Phi = zeros_mod._normalized(_starts(W, size, 65))
    stacked = zeros_mod._newton(W, Phi, *zeros_mod._chi_step(W, Phi))
    _assert_rows_equal(stacked, [
        [part[0] for part in zeros_mod._newton(W, Phi[k:k + 1],
                                               *zeros_mod._chi_step(W, Phi[k:k + 1]))]
        for k in range(size)])
    zeros = find_zeros(W, 40, 66)[:size]
    Phi, Chi = np.array([z.phi for z in zeros]), np.array([z.chi for z in zeros])
    kinds, *stacked = zeros_mod._classify(W, Phi, Chi)
    for k in range(size):
        kind, *single = zeros_mod._classify(W, Phi[k:k + 1], Chi[k:k + 1])
        assert kinds[k] == kind[0]
        for part, row in zip(single, stacked):
            assert np.array_equal(row[k], part[0])


def _hessian_reference(W, Phi, Chi, D_phi, D_chi, a):
    """_hessian's terms as three-operand einsums."""
    gram = np.einsum("zpi,ij,zqj->zpq", a.conj(), W.matrix, a)
    cross = np.einsum("zi,zj,ijkl->zkl", Phi.conj(), Chi.conj(), W.blocks)
    S = gram + 2.0 * np.einsum("zkl,zpk,zql->zpq", cross, D_phi, D_chi)
    return (S + S.swapaxes(-1, -2)).real


def _reduced_quartic_reference(W, D_phi, D_chi, a, root, d):
    """_reduced_quartic with the gradient's cross terms as three-operand
    einsums."""
    count, s = d.shape[:2]
    m, n = D_phi.shape[-1], D_chi.shape[-1]
    u, v, a_d = d @ D_phi, d @ D_chi, d @ a
    b = (u[..., :, None] * v[..., None, :]).reshape(count, s, m * n)
    Ab = b @ W.matrix.T
    Aa = (a_d @ W.matrix.T).reshape(count, s, m, n).conj()
    g = 2.0 * (np.einsum("zsi,zpi->zsp", Ab.conj(), a)
               + np.einsum("zsij,zsi,zpj->zsp", Aa, u, D_chi)
               + np.einsum("zsij,zpi,zsj->zsp", Aa, D_phi, v)).real
    return (np.einsum("zsi,zsi->zs", b.conj(), Ab).real
            - 0.5 * np.square(g @ root).sum(axis=-1))


@pytest.mark.parametrize("make", [choi_lam_witness, horodecki_2x4_witness,
                                  lambda: _interior_witness(57, 2, 4)])
def test_pairwise_contractions_match_three_operand_einsums(make):
    """_hessian and _reduced_quartic contract two operands at a time, as
    stacked matrix products; they agree with the three-operand einsums to
    rounding, at any point of the product manifold and for orthonormal
    H^+ roots and unit directions."""
    W = make()
    rng = np.random.default_rng(58)
    Phi = zeros_mod._normalized(_starts(W, 30, 59))
    Chi = zeros_mod._normalized(rng.normal(size=(30, W.n)) + 1j * rng.normal(size=(30, W.n)))
    D_phi, D_chi, a = zeros_mod._variations(Phi, Chi)
    tol = 1e-14 * hs_norm(W.matrix)
    H = zeros_mod._hessian(W, Phi, Chi, D_phi, D_chi, a)
    assert np.array_equal(H, H.swapaxes(-1, -2))
    assert np.abs(H - _hessian_reference(W, Phi, Chi, D_phi, D_chi, a)).max() <= tol
    dim = a.shape[1]
    root = np.linalg.qr(rng.normal(size=(30, dim, dim)))[0]
    frame = np.linalg.qr(rng.normal(size=(30, dim, 2)))[0]
    circle = np.stack([np.cos(zeros_mod._CIRCLE), np.sin(zeros_mod._CIRCLE)], axis=1)
    d = circle @ frame.swapaxes(-1, -2)
    q = zeros_mod._reduced_quartic(W, D_phi, D_chi, a, root, d)
    assert np.abs(q - _reduced_quartic_reference(W, D_phi, D_chi, a, root, d)).max() <= tol


def test_merge_matches_sequential_dedup(monkeypatch):
    W = choi_lam_witness()
    # the search's candidates: near-zeros, scattered along the continuum
    Phi, Chi, _ = zeros_mod._minimize(W, _starts(W, 40, 53))
    # the representatives are those of a sequential first-come dedup
    keep = []
    for i in range(len(Phi)):
        if all(abs(np.vdot(Phi[r], Phi[i])) * abs(np.vdot(Chi[r], Chi[i]))
               <= 1.0 - zeros_mod.DEDUP_TOL for r in keep):
            keep.append(i)
    assert len(keep) < len(Phi)
    # one row per block, several blocks, and one block for all 40 rows
    for block in (1, 7, 41):
        monkeypatch.setattr(zeros_mod, "OVERLAP_BLOCK", block)
        assert list(zeros_mod._merge(Phi, Chi)) == keep


def test_merge_memory_grows_linearly_in_the_rows():
    """_merge holds one block's overlaps with the rows kept so far: on
    distinct rows, eight times the rows take about nine times the peak
    memory, where a count x count matrix takes about twenty times."""
    rng = np.random.default_rng(64)

    def peak(count):
        Phi, Chi = (zeros_mod._normalized(rng.normal(size=(count, 3))
                                          + 1j * rng.normal(size=(count, 3)))
                    for _ in range(2))
        tracemalloc.start()
        try:
            kept = zeros_mod._merge(Phi, Chi)
            return tracemalloc.get_traced_memory()[1], len(kept)
        finally:
            tracemalloc.stop()

    (small, kept_small), (large, kept_large) = peak(500), peak(4000)
    assert (kept_small, kept_large) == (500, 4000)
    assert large <= 14 * small


def test_dedup_keeps_first_of_each_overlap_class():
    e = np.eye(3, dtype=complex)
    tilt = np.array([1.0, 1e-4, 0.0]) / np.linalg.norm([1.0, 1e-4, 0.0])
    Phi = np.array([e[0], e[1], 1j * e[0], tilt, e[1]])
    Chi = np.array([e[2], e[0], e[2], e[2], e[1]])
    # row 2 is row 0 up to phase; row 3 sits 1e-8 away; row 4 differs in chi
    assert list(zeros_mod._merge(Phi, Chi)) == [0, 1, 4]
    # only a representative absorbs: row 2 is the same zero as row 1,
    # which row 0 absorbed, but not as row 0, so row 2 is kept
    t = 1.2e-3
    Phi = np.array([[np.cos(k * t), np.sin(k * t), 0.0] for k in range(3)], dtype=complex)
    assert list(zeros_mod._merge(Phi, np.array([e[0]] * 3))) == [0, 2]


# Besides seeds 1-8, three start seeds whose zero sets failed the check
# under the former pattern-search polish (a start left 4-6e-3 short of a
# printed zero, accepted and classified quadratic), and one that failed
# under it once the sweep cap was lowered to 50.
@pytest.mark.parametrize("seed", [*range(1, 9), 1685015770, 145337961, 1795454903,
                                  61609175])
def test_choi_lam_zero_set_passes_criterion_7_at_any_seed(seed):
    """The check of the zeros-choi-lam benchmark: each printed zero is hit
    by exactly one non-continuum zero, at least 10 zeros are continuum,
    and every zero is quartic."""
    zeros = find_zeros(choi_lam_witness(), 500, seed)
    e = np.eye(3)
    for i, j in PRINTED_ZEROS:
        hits = [z for z in zeros if not z.continuum
                and _overlap(z.phi, e[i]) > 1 - 1e-6 and _overlap(z.chi, e[j]) > 1 - 1e-6]
        assert len(hits) == 1
    assert sum(z.continuum for z in zeros) >= 10
    assert all(z.kind == "quartic" for z in zeros)


def _is_printed(z):
    e = np.eye(3)
    return any(_overlap(z.phi, e[i]) > 1 - 1e-6 and _overlap(z.chi, e[j]) > 1 - 1e-6
               for i, j in PRINTED_ZEROS)


@pytest.mark.parametrize("starts, hits", [(5, 0), (10, 1), (20, 2), (30, 3), (50, 3),
                                          (500, 3)])
def test_continuum_flag_does_not_depend_on_start_count(starts, hits):
    """The unflagged zeros are exactly the printed isolated ones, however
    few starts reach the continuum: each flag is certified from its own
    zero."""
    zeros = find_zeros(choi_lam_witness(), starts, 42)
    printed = [k for k, z in enumerate(zeros) if _is_printed(z)]
    assert len(printed) == hits
    assert [k for k, z in enumerate(zeros) if not z.continuum] == printed


@pytest.mark.parametrize("witness", [lambda: identity_witness(3),
                                     lambda: transposition_witness(3),
                                     horodecki_2x4_witness],
                         ids=["identity", "transposition", "horodecki-2x4"])
def test_continuum_only_witnesses_flag_every_zero(witness):
    """Every zero of these witnesses lies on a continuum. identity(3) and
    transposition(3) have six Hessian null directions, on all of which
    the reduced quartic vanishes: they are flagged, not rejected."""
    W = witness()
    zeros = find_zeros(W, 5, 42)
    assert len(zeros) == 5
    assert all(z.continuum for z in zeros)
    nulls = {int(np.sum(z.hessian_spectrum < zeros_mod.HESS_TOL * hs_norm(W.matrix)))
             for z in zeros}
    assert nulls == ({1} if W.m == 2 else {6})


@pytest.mark.parametrize("scale, q", [("map", 1 / 8), ("paper", 1 / 4)])
def test_reduced_quartic_at_printed_and_continuum_zeros(scale, q):
    """q_min is 1/8 (map scale) or 1/4 (paper scale) at the isolated
    zeros and vanishes on the analytic continuum."""
    W = choi_lam_witness(scale)
    e = np.eye(3, dtype=complex)
    Phi = np.array([e[i] for i, _ in PRINTED_ZEROS])
    Chi = np.array([e[j] for _, j in PRINTED_ZEROS])
    _, _, q_min, flags = zeros_mod._classify(W, Phi, Chi)
    assert np.abs(q_min - q).max() <= 1e-12
    assert not flags.any()
    Phi = np.array([choi_lam_continuum_zero(al, be)
                    for al, be in [(0.0, 0.0), (0.7, 1.9), (-1.3, 0.4), (2.0, -0.5)]])
    Chi = np.array([np.linalg.eigh(apply_map(W, np.outer(p, p.conj())))[1][:, 0]
                    for p in Phi])
    kinds, _, q_min, flags = zeros_mod._classify(W, Phi, Chi)
    assert np.abs(q_min).max() <= 1e-12
    assert flags.all() and set(kinds) == {"quartic"}


def _quartic_samples(c):
    """A binary quartic sum_k c_k x^(4-k) y^k at the fitting angles."""
    x, y = np.cos(zeros_mod._CIRCLE), np.sin(zeros_mod._CIRCLE)
    return sum(ck * x ** (4 - k) * y ** k for k, ck in enumerate(c))


@pytest.mark.parametrize("c, minimum", [
    ((1 / 8, 0.0, 1 / 4, 0.0, 1 / 8), 1 / 8),          # (x^2 + y^2)^2 / 8: constant
    ((0.0, 0.0, 0.0, 0.0, 0.0), 0.0),                  # vanishes on the circle
    ((2.0, 0.0, 2.0, 0.0, 1.0), 1.0),                  # minimum at (0, 1)
    ((1.0, -4.0, 2.0, 0.0, 1.0), 1 - 3 * np.sqrt(3) / 4),  # xy^3 term zero, min at pi/6
    ((1.0, 0.0, 2.0, 0.0, 1.0 + 1e-9), 1.0),           # nearly constant
], ids=["constant", "zero", "min-at-0-1", "leading-zero", "nearly-constant"])
def test_circle_min_exact(c, minimum):
    q = zeros_mod._circle_min(_quartic_samples(c)[None])
    assert abs(q[0] - minimum) <= 1e-13


def test_circle_min_matches_dense_grid():
    """On random quartics the exact minimum sits just below the minimum
    of a fine grid, never above it: no critical direction is missed."""
    rng = np.random.default_rng(7)
    c = rng.normal(size=(200, 5))
    q = zeros_mod._circle_min(np.array([_quartic_samples(row) for row in c]))
    theta = np.linspace(0.0, np.pi, 20001)
    x, y = np.cos(theta), np.sin(theta)
    grid = np.array([sum(ck * x ** (4 - k) * y ** k for k, ck in enumerate(row))
                     for row in c]).min(axis=1)
    assert np.all(q <= grid + 1e-12)
    assert np.all(grid - q <= 1e-6)


def test_classify_refuses_uncertified_null_space(monkeypatch):
    """With three or more null directions only the lowest two are
    searched: a positive minimum there is an error, not an isolated zero."""
    W = choi_lam_witness()
    e = np.eye(3, dtype=complex)
    monkeypatch.setattr(zeros_mod, "HESS_TOL", 1.0)   # six null directions
    with pytest.raises(ValueError, match="cannot certify"):
        zeros_mod._classify(W, e[[1]], e[[0]])


@pytest.mark.parametrize("seed, creeps, continuum", [(1, False, True), (3, True, False)])
def test_find_zeros_single_start(seed, creeps, continuum):
    """One start ends at _minimize of itself, bit for bit. A start that
    stops keeps the result of alternating_minimize; a creeping one ends
    at refine_zero of it to rounding, since the Newton finish starts
    from the alternation's own (phi, chi, f). Then accept and classify,
    as the public one-start functions do."""
    W = choi_lam_witness()
    rng = np.random.default_rng(seed)
    phi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert zeros_mod._alternate(W, phi0[None])[3][0] == creeps
    (z,) = find_zeros(W, starts=1, seed=seed)
    Phi, Chi, values = zeros_mod._minimize(W, phi0[None])
    assert np.array_equal(z.phi, Phi[0]) and np.array_equal(z.chi, Chi[0])
    assert z.value == abs(values[0])
    phi, chi, value = alternating_minimize(W, phi0)
    if creeps:
        phi, chi, value = refine_zero(W, phi)
    assert abs(value) <= 1e-9
    kind, spectrum = classify_zero(W, phi, chi)
    assert z.kind == kind and z.continuum == continuum
    if creeps:
        assert 1.0 - _overlap(z.phi, phi) * _overlap(z.chi, chi) <= 1e-12
        assert abs(z.value - abs(value)) <= 1e-15 * hs_norm(W.matrix)
    else:
        assert np.array_equal(z.phi, phi) and np.array_equal(z.chi, chi)
        assert z.value == abs(value)
        assert np.array_equal(z.hessian_spectrum, spectrum)


def test_find_zeros_no_starts():
    assert find_zeros(choi_lam_witness(), starts=0) == []
    with pytest.raises(ValueError):
        find_zeros(choi_lam_witness(), starts=-5)
    # an interior witness has no zeros: its one start is rejected
    assert find_zeros(Witness(3, 3, np.eye(9)), starts=1) == []


def test_find_zeros_on_zero_witness():
    """f = 0 everywhere: every product vector is a zero, and ||A|| = 0
    leaves the tolerances no scale, so the search, the Newton finish and
    the classification refuse the input."""
    W = Witness(3, 3, np.zeros((9, 9)))
    e = np.eye(3)
    for call in (lambda: find_zeros(W, starts=3, seed=1),
                 lambda: refine_zero(W, e[0]),
                 lambda: classify_zero(W, e[0], e[0])):
        with pytest.raises(ValueError, match="witness is zero"):
            call()


def test_tolerances_scale_with_the_witness():
    """Acceptance is relative to ||A||, not max(1, ||A||): a tiny negative
    multiple of I is no witness, and a tiny positive one has no zeros."""
    with pytest.raises(NotBlockPositiveError):
        find_zeros(Witness(3, 3, -1e-10 * np.eye(9)), starts=10, seed=1)
    assert find_zeros(Witness(3, 3, 1e-10 * np.eye(9) / 9), starts=10, seed=1) == []


@pytest.mark.parametrize("c", [2.0 ** -40, 2.0 ** 10, 2.0 ** -600, 2.0 ** 600])
def test_find_zeros_invariant_under_power_of_two_scale(c):
    """Scaling A by a power of two keeps the zero count and the multiset
    of kinds and continuum flags. At 2^-40 and 2^10 every value scales
    exactly, so the zeros match bit for bit. At 2^-600 the squares of
    the entries underflow and at 2^600 they overflow: ||A|| must still
    come out right, and the closed-form eigenpairs, whose cubic terms
    leave the float range, defer to LAPACK, so only the bits may move."""
    W = choi_lam_witness()
    base = find_zeros(W, starts=50, seed=42)
    scaled = find_zeros(Witness(3, 3, c * W.matrix), starts=50, seed=42)
    assert len(scaled) == len(base)
    assert (Counter((z.kind, z.continuum) for z in scaled)
            == Counter((z.kind, z.continuum) for z in base))
    if 2.0 ** -100 < c < 2.0 ** 100:
        for z, y in zip(scaled, base):
            assert np.array_equal(z.phi, y.phi) and np.array_equal(z.chi, y.chi)
            assert (z.kind, z.continuum) == (y.kind, y.continuum)


def test_find_zeros_silent_where_the_closed_form_overflows():
    """At 2^600 the closed-form eigenpairs overflow and their rows defer
    to LAPACK by design: the search raises no numpy warning."""
    W = Witness(3, 3, 2.0 ** 600 * choi_lam_witness().matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zeros = find_zeros(W, starts=200, seed=42)
    assert len(zeros) == 140


def test_find_zeros_refuses_norm_near_float_max():
    """At 1e308 choi-lam ||A|| = 1.7e308 is finite, but tangent-Hessian
    eigenvalues overflow and the isolated zeros would be lost; the search
    refuses the witness instead of reporting a wrong zero set."""
    W = Witness(3, 3, 1e308 * choi_lam_witness().matrix)
    with pytest.raises(ValueError, match="float range"):
        find_zeros(W, starts=20, seed=42)


def _max_entangled_witness():
    """I/9 - |Phi+><Phi+|/2: f = 1/9 - |<Phi+|phi chi>|^2 / 2 >= -1/18."""
    plus = np.eye(3).reshape(9) / np.sqrt(3.0)
    return Witness(3, 3, np.eye(9) / 9.0 - 0.5 * np.outer(plus, plus))


@pytest.mark.parametrize("make, minimum", [
    (lambda: Witness(3, 3, -np.eye(9)), -1.0),
    (_max_entangled_witness, 1.0 / 9.0 - 1.0 / 6.0),
])
def test_find_zeros_rejects_non_block_positive(make, minimum):
    """A negative minimum is reported with its product vector, not as
    "no zeros found"."""
    W = make()
    with pytest.raises(NotBlockPositiveError) as info:
        find_zeros(W, starts=10, seed=1)
    err = info.value
    assert isinstance(err, ValueError)
    assert abs(err.value - minimum) < 1e-9
    assert abs(biquadratic_form(W, err.phi, err.chi) - err.value) < 1e-12


def _ppt_certified_witness():
    """(lam I/9 + (1 - lam) |Phi+><Phi+|)^Gamma at lam = 0.3: lambda_min(A)
    is -0.2, but A^Gamma is positive definite with lambda_min 1/30."""
    plus = np.eye(3).reshape(9) / np.sqrt(3.0)
    return partial_transpose(Witness(3, 3, 0.3 * np.eye(9) / 9 + 0.7 * np.outer(plus, plus)))


ZERO_FREE = {"identity-matrix": lambda: Witness(3, 3, np.eye(9)),
             "ppt": _ppt_certified_witness,
             "interior-2x4": lambda: _interior_witness(57, 2, 4),
             **{f"interior-{s}": (lambda s=s: _interior_witness(s)) for s in range(1, 9)}}


def _count_alternations(monkeypatch):
    """The stack sizes of the _alternate calls from here on."""
    calls = []
    alternate = zeros_mod._alternate

    def spy(W, Phi):
        calls.append(len(Phi))
        return alternate(W, Phi)

    monkeypatch.setattr(zeros_mod, "_alternate", spy)
    return calls


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 600, 2.0 ** -600])
@pytest.mark.parametrize("name", ZERO_FREE)
@pytest.mark.filterwarnings("error")
def test_spectral_certificate_settles_zero_free_witnesses(name, scale, monkeypatch):
    """A witness with lambda_min(A) or lambda_min(A^Gamma) above
    2 ZERO_TOL ||A|| has no zero, and find_zeros returns [] without a
    search. The search itself would return the same: _minimize on
    find_zeros' own starts ends every start above ZERO_TOL ||A||. Both
    hold at the ends of the float range, with no numpy warning."""
    W = ZERO_FREE[name]()
    W = Witness(W.m, W.n, scale * W.matrix)
    _, _, values = zeros_mod._minimize(W, _search_starts(W, 100, 42))
    assert values.min() > zeros_mod.ZERO_TOL * hs_norm(W.matrix)
    calls = _count_alternations(monkeypatch)
    assert find_zeros(W, 100, 42) == []
    assert calls == []


@pytest.mark.parametrize("make, starts, zero_count", [
    (choi_lam_witness, 500, 356), (horodecki_2x4_witness, 100, 100),
    (lambda: identity_witness(3), 50, 50), (_choi_lam_mixture, 100, 0)])
def test_spectral_certificate_leaves_the_search_to_the_rest(make, starts, zero_count,
                                                            monkeypatch):
    """Witnesses with zeros (choi-lam 500/42 keeps its 356), and a
    zero-free one whose A and A^Gamma both have negative eigenvalues,
    still run the search and keep its answer."""
    calls = _count_alternations(monkeypatch)
    assert len(find_zeros(make(), starts, 42)) == zero_count
    assert calls == [starts]


@pytest.mark.parametrize("make", [lambda: Witness(3, 3, -np.eye(9)), _max_entangled_witness])
def test_spectral_certificate_leaves_non_witnesses_to_the_search(make, monkeypatch):
    calls = _count_alternations(monkeypatch)
    with pytest.raises(NotBlockPositiveError):
        find_zeros(make(), 10, 1)
    assert calls == [10]
