"""Locating and classifying zeros of witness biquadratic forms.

A zero of a witness A is a product vector phi (x) chi with
f_A(phi, chi) = (phi (x) chi)^dag A (phi (x) chi) = 0 while f_A >= 0 in
a neighborhood (for a witness on the boundary of the positive cone the
inequality is global). Since f_A(phi, chi) = chi^dag M(phi phi^dag) chi,
alternating minimization over phi and chi moves downhill by solving a
minimal-eigenvector problem in each half step. In the quartically flat
valleys around quartic zeros the alternation converges sublinearly; the
starts it leaves creeping are finished by a Riemannian Newton descent on
the product of the unit spheres, whose gradient and Hessian are closed
forms of the same tangent variations that classify the zeros. Along a
quartic valley f = c d^4 the Newton step is d / 3, so its triple lands
on the minimum.

Zeros are classified by the spectrum of the Hessian of f_A restricted to
the tangent space of the product manifold (phases and norms of phi and
chi are flat directions by construction and are excluded): a quadratic
zero has a strictly positive tangent Hessian, a quartic zero has at
least one vanishing eigenvalue, i.e. a direction in which f_A grows
slower than quadratically. Zeros belonging to a continuum are
necessarily quartic. Since f_A is a biquadratic form, the Hessian is
computed exactly in closed form, with no finite-difference step.

A quartic zero lies on a continuum of zeros only if f_A vanishes to
fourth order along one of its Hessian null directions. Along a null
direction d = (u, v), with the second-order correction of the curve
chosen optimally, f_A starts at order eps^4 with the reduced quartic

    q(d) = f_A(u, v) - 1/2 g^T H^+ g,

where H is the tangent Hessian and g the gradient of the eps^4
coefficient in the second-order correction. Every zero of a continuum
has q = 0 along the continuum's tangent; a zero with q > 0 along each
null direction is isolated. The flag is thus a property of each zero
alone, computed in closed form from the Hessian's eigenvectors and the
same variations, and does not depend on which other zeros a search
finds.

Each zero imposes 2(m + n) - 3 real-linear constraints on the witness:
the value f_A = 0 and the vanishing of the first derivatives along the
tangent directions of phi and chi (real and imaginary parts), read off
the same first-order variations of phi (x) chi that the Hessian uses and
built for a whole stack of zeros at once. For an extremal witness with
enough zeros these constraint rows determine the witness up to scale.
"""

from dataclasses import dataclass, field

import numpy as np

from .bipartite import (Witness, _expectation, apply_map, apply_transposed_map,
                        biquadratic_form, partial_transpose)
from .hermitian import hermitian_basis, hs_norm

__all__ = [
    "ProductZero",
    "ConstraintSystem",
    "NotBlockPositiveError",
    "alternating_minimize",
    "refine_zero",
    "find_zeros",
    "classify_zero",
    "constraint_rows",
    "constraint_rank",
]

# Overlap above which two candidates count as the same zero.
DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class ProductZero:
    """A product zero phi (x) chi of a witness biquadratic form.

    ``value`` is f_A at the zero, ``kind`` is ``"quadratic"`` or
    ``"quartic"``, ``hessian_spectrum`` the ascending tangent-Hessian
    eigenvalues. ``continuum`` is set when the reduced quartic q of the
    zero vanishes, to :data:`CONTINUUM_TOL` * ||A||, along a Hessian null
    direction, as it does at every zero of a continuum; unset, the zero
    is certified isolated (q > 0 along every null direction, or no null
    direction at all).
    """

    phi: np.ndarray = field(repr=False)
    chi: np.ndarray = field(repr=False)
    value: float
    kind: str
    hessian_spectrum: np.ndarray = field(repr=False)
    continuum: bool = False


@dataclass(frozen=True)
class ConstraintSystem:
    """Stacked real constraint rows imposed by zeros on a witness.

    ``rows`` has one row per constraint in the traceless orthonormal
    witness coordinates (N^2 - 1 columns, N = m n); ``rank`` is the
    numerical rank; ``zero_count`` the number of distinct zeros used.
    The rank's margin: ``last_counted`` is the smallest singular value
    counted toward the rank and ``first_dropped`` the largest one left
    out, each relative to the largest; either is 0 where there is none.
    """

    rows: np.ndarray = field(repr=False)
    rank: int
    zero_count: int
    last_counted: float
    first_dropped: float


class NotBlockPositiveError(ValueError):
    """The biquadratic form takes a negative value: A is not a witness.

    ``phi`` and ``chi`` are the unit vectors of the product vector found,
    ``value`` is f_A there.
    """

    def __init__(self, phi: np.ndarray, chi: np.ndarray, value: float):
        self.phi = phi
        self.chi = chi
        self.value = value
        super().__init__(
            f"not block-positive: f = {value:.6e} < 0 at "
            f"phi = {phi.tolist()}, chi = {chi.tolist()}"
        )


# Sweep cap of the alternation.
SWEEP_CAP = 50
# Step cap of the Newton finish, and the floor of the magnitudes of its
# Hessian eigenvalues, relative to the largest.
NEWTON_CAP = 20
NEWTON_FLOOR = 1e-14
# Largest |f_A|, relative to ||A||, of a zero: find_zeros accepts a
# minimum up to it and classify_zero a given pair; a minimum below
# -ZERO_TOL * ||A|| means A is not block-positive.
ZERO_TOL = 1e-9
# Smallest tangent-Hessian eigenvalue, relative to ||A||, of a quadratic zero.
HESS_TOL = 1e-7
# Largest minimum of the reduced quartic over the unit Hessian null
# directions, relative to ||A||, of a zero flagged as continuum.
CONTINUUM_TOL = 1e-6
# Factor by which ||A|| must stay below the largest float: tangent-Hessian
# eigenvalues and reduced-quartic coefficients reach a few times ||A||,
# and an infinite Hessian eigenvalue turns isolated zeros into continuum
# ones.
SCALE_HEADROOM = 2.0 ** 10
# Singular values above this share of the largest count toward a
# constraint rank.
RANK_TOL = 1e-10
# Rows per block of the overlaps of _merge, which bounds its working set.
OVERLAP_BLOCK = 64
# Least share of the spread of a 3 x 3 spectrum that the gap between the
# smallest eigenvalue and the next must keep for the closed form of
# _smallest3, whose error grows as eps * spread^2 / gap; rows with a
# smaller gap go to LAPACK.
GAP_SHARE = 0.1

# The kernels below run one operation over a stack of starts or zeros,
# one row per start. Every stacked step repeats, row by row, the exact
# floating-point operations of a single-vector computation, so a start's
# result does not depend on the other rows of its stack: the closed
# forms of _smallest3 and _tangent_frame are elementwise, a 3-d stacked
# matmul runs one BLAS product of a fixed shape per row, and stacked
# eigh and solve reproduce their per-matrix results. A 2-d row stack
# (K, d) @ (d, e) goes to gemv at K = 1: the map kernels route it
# through bipartite._rows_times, the kernels here stack rows as (K, 1, d).


def _vector(v, k: int, name: str) -> np.ndarray:
    """``v`` as a complex vector of length k, nonzero and finite.

    :raises ValueError: naming ``name`` if v has another shape, an entry
        that is not finite, or no nonzero entry.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (k,):
        raise ValueError(f"expected {name} of shape ({k},), got {v.shape}")
    if not (np.isfinite(v).all() and v.any()):
        raise ValueError(f"{name} must be a nonzero vector with finite "
                         f"entries, got {v.tolist()}")
    return v


def _outer(V: np.ndarray) -> np.ndarray:
    """Stacked outer products v v^dag."""
    return V[..., :, None] * V.conj()[..., None, :]


def _norms(V: np.ndarray) -> np.ndarray:
    """Stacked 2-norms, rounded exactly as ``np.linalg.norm`` of one vector.

    ``np.linalg.norm`` sums the real and imaginary dot products
    separately; a stacked ``norm(..., axis=-1)`` rounds differently.
    """
    re = V.real[..., None, :]
    im = V.imag[..., None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def _normalized(V: np.ndarray) -> np.ndarray:
    return V / _norms(V)[..., None]


# Entries beyond about 1e150 overflow the closed form's squares and
# cubes; those rows come out NaN and go to LAPACK, so the warnings of
# the overflow and of the NaN arithmetic after it are noise.
@np.errstate(over="ignore", invalid="ignore")
def _smallest3(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue and its unit eigenvector of each matrix of a
    stack of 3 x 3 Hermitian matrices, read from the lower triangle as
    ``eigh`` reads it.

    Closed form (Smith 1961): with q = tr H / 3, p = ||H - q I||_F / sqrt 6
    and r = det(H - q I) / (2 p^3) the eigenvalues are
    q + 2 p cos(arccos(r) / 3 + 2 pi k / 3), and the eigenvector is the
    largest of the three bilinear cross products of the rows of
    H - lambda I, each orthogonal to every row. The smallest eigenvalue
    loses accuracy as eps * spread^2 / gap where it meets the middle one
    (r near 1), so rows whose gap is below :data:`GAP_SHARE` of the
    spread go to ``eigh``, as do rows without a spread (p = 0, where the
    comparison is NaN) and rows whose cross products all vanish. Every
    step is elementwise, and LAPACK on a sub-stack matches LAPACK per
    matrix, so a row's result does not depend on the rest of its stack.

    :return: (eigenvalues, eigenvectors), shapes (K,) and (K, 3).
    """
    H = np.asarray(H, dtype=complex)
    count = H.shape[0]
    # G[i, j] is the entry (i, j) of H - q I over the stack, Hermitian
    # from the lower triangle, with rows and columns 0 and 1 repeated
    # after the last, so that C[i] = G[i + 1] x G[i + 2] is column i of
    # the adjugate, whose diagonal C[i, i] holds the principal minors.
    G = np.empty((5, 5, count), dtype=complex)
    G[:3, :3] = H.transpose(1, 2, 0)
    G[0, 1:3] = G[1:3, 0].conj()
    G[1, 2] = G[2, 1].conj()
    diag = G.reshape(25, count)[0:13:6]
    q = (diag[0].real + diag[1].real + diag[2].real) / 3.0
    S = diag.real - q

    def adjugate(shift):
        diag[...] = shift
        G[3:, :3] = G[:2, :3]
        G[:, 3:] = G[:, :2]
        return G[1:4, 1:4] * G[2:, 2:] - G[1:4, 2:] * G[2:, 1:4]

    C = adjugate(S)
    # The principal minors of the traceless H - q I sum to -3 p^2, and
    # det(H - q I) = G[0] . C[0]; r is formed from parts of order one, so
    # nothing overflows or underflows before p^2 does. Without a spread
    # r is NaN, so is every comparison with it, and the row goes to
    # LAPACK.
    minors = C.reshape(9, count)[::4].real
    p2 = -(minors[0] + minors[1] + minors[2]) / 3.0
    p = np.sqrt(np.maximum(p2, 0.0))
    inv = 1.0 / np.where(p2 > 0.0, p, np.nan)
    inv2 = inv * inv
    P = (G[0, :3] * inv) * (C[0] * inv2)
    r = (P[0] + P[1] + P[2]).real / 2.0
    phi = np.arccos(np.minimum(np.maximum(r, -1.0), 1.0)) / 3.0
    # The smallest and largest root of mu^3 - 3 p^2 mu - det(H - q I),
    # the eigenvalues minus q; the middle one is -lo - hi.
    lo = 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    hi = 2.0 * p * np.cos(phi)
    good = -hi - 2.0 * lo >= GAP_SHARE * (hi - lo)
    lam = q + lo
    C = adjugate(S - lo) * inv2
    N = C.real ** 2 + C.imag ** 2
    norms = N[:, 0] + N[:, 1] + N[:, 2]
    best = norms.argmax(axis=0)
    cols = np.arange(count)
    top = norms[best, cols]
    good &= top > 0.0
    V = C[best, :, cols] * (1.0 / np.sqrt(np.where(good, top, np.nan)))[:, None]
    if not good.all():
        bad = ~good
        w, U = np.linalg.eigh(H[bad])
        lam[bad] = w[:, 0]
        V[bad] = U[:, :, 0]
    return lam, V


def _min_eigvec(H: np.ndarray) -> np.ndarray:
    """Minimal unit eigenvectors of a stack: :func:`_smallest3` for 3 x 3,
    ``eigh`` for other sizes."""
    if H.shape[-1] == 3:
        return _smallest3(H)[1]
    return np.linalg.eigh(H)[1][..., 0]


def _canonical_phase(V: np.ndarray) -> np.ndarray:
    """Rotate each row's phase so its largest-magnitude entry is real positive."""
    pivots = V[np.arange(V.shape[0]), np.argmax(np.abs(V), axis=-1)]
    # Scalar division per row: the vectorized quotient rounds differently.
    phases = np.array([p / abs(p) if abs(p) > 0 else 1.0 for p in pivots],
                      dtype=complex)
    return V / phases[:, None]


def _tangent_frame(V: np.ndarray) -> np.ndarray:
    """Orthonormal complex basis of the orthogonal complement of each v.

    Closed form: columns 1, ..., k - 1 of the Householder reflection
    I - 2 w w^dag / (w^dag w) with w = v' + e^{i arg v'_0} e_0, v' = v / |v|,
    which maps v' to a multiple of e_0; w^dag w = 2 (1 + |v'_0|) >= 2. v is
    first divided by its largest entry magnitude, so any nonzero norm works.

    Returns shape (..., k, k - 1): the frame vectors are the columns.
    """
    w = _normalized(V / np.abs(V).max(axis=-1, keepdims=True)).astype(complex)
    lead = np.abs(w[..., 0])
    w[..., 0] += np.exp(1j * np.angle(w[..., 0]))
    return (np.eye(w.shape[-1])[:, 1:]
            - w[..., :, None] * (w[..., None, 1:].conj() / (1.0 + lead)[..., None, None]))


def _chi_step(W: Witness, Phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The optimal chi of each row of Phi, the minimal eigenvector of
    Y = M(phi phi^dag), and f_A = chi^dag Y chi there from the same Y,
    rounded as :func:`biquadratic_form` rounds it."""
    Y = apply_map(W, _outer(Phi))
    Chi = _min_eigvec(Y)
    return Chi, _expectation(Y, Chi)


def _alternate(W: Witness, Phi: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked alternating minimization; each start keeps its own stop rule.

    Every sweep hands each active start its new (phi, chi, f). A start
    stops after the first sweep that does not lower its value, or after
    :data:`SWEEP_CAP` sweeps. A start still lowering its value at the cap
    is creeping: it has not reached a minimum, as in the quartically flat
    valleys around quartic zeros, where the alternation converges
    sublinearly, and :func:`_minimize` finishes it by Newton's method
    (:func:`_newton`).

    :return: (Phi, Chi, values, creeping); vectors unit norm, phases not
        canonical, each value f_A at its row's (phi, chi) as
        :func:`biquadratic_form` rounds it, ``creeping`` a boolean mask
        of the starts that ran :data:`SWEEP_CAP` sweeps without stopping.
    """
    Phi = _normalized(np.asarray(Phi, dtype=complex))
    Chi, values = _chi_step(W, Phi)
    active = np.arange(Phi.shape[0])
    for _ in range(SWEEP_CAP):
        if not active.size:
            break
        phi = _min_eigvec(apply_transposed_map(W, _outer(Chi[active])))
        chi, new = _chi_step(W, phi)
        stop = new >= values[active]
        Phi[active], Chi[active], values[active] = phi, chi, new
        active = active[~stop]
    creeping = np.zeros(Phi.shape[0], dtype=bool)
    creeping[active] = True
    return Phi, Chi, values, creeping


def alternating_minimize(W: Witness,
                         phi0: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimize f_A over product vectors by alternating eigenvector steps.

    Given phi, the optimal chi is the minimal eigenvector of
    M(phi phi^dag); given chi, the optimal phi is the minimal eigenvector
    of M^T(chi chi^dag). A 3 x 3 matrix takes the closed form of
    :func:`_smallest3`, which leaves to ``eigh`` the matrices whose
    smallest eigenvalue lies within :data:`GAP_SHARE` of the spread from
    the next; other sizes take ``eigh``. Each sweep but the last lowers
    the value. Stops after the first sweep that does not lower it at
    working precision, keeping that sweep's point, or after
    :data:`SWEEP_CAP` sweeps.

    :param W: witness.
    :param phi0: starting vector on the m side, any nonzero norm.
    :return: (phi, chi, value) with unit vectors, phases canonicalized,
        and value f_A at the last sweep's point.
    :raises ValueError: if ``phi0`` is not a nonzero finite m-vector.
    """
    Phi, Chi, values, _ = _alternate(W, _vector(phi0, W.m, "phi0")[None])
    return (_canonical_phase(Phi)[0], _canonical_phase(Chi)[0],
            float(values[0]))


def _variations(Phi: np.ndarray, Chi: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangent directions of the product manifold and the variations of psi.

    For each frame vector u of phi the pairs (u, 0) and (i u, 0), then
    for each frame vector v of chi the pairs (0, v) and (0, i v); the
    direction (u_p, v_p) varies psi = phi (x) chi by
    a_p = u_p (x) chi + phi (x) v_p.

    :return: (D_phi, D_chi, a), stacks of shape (Z, dim, m), (Z, dim, n)
        and (Z, dim, m n).
    """
    U = _tangent_frame(Phi).swapaxes(-1, -2)
    V = _tangent_frame(Chi).swapaxes(-1, -2)
    count, m = Phi.shape
    n = Chi.shape[1]
    k = 2 * (m - 1)
    dim = k + 2 * (n - 1)
    D_phi = np.zeros((count, dim, m), dtype=complex)
    D_chi = np.zeros((count, dim, n), dtype=complex)
    D_phi[:, 0:k:2] = U
    D_phi[:, 1:k:2] = 1j * U
    D_chi[:, k::2] = V
    D_chi[:, k + 1::2] = 1j * V
    a = (D_phi[..., :, None] * Chi[:, None, None, :]
         + Phi[:, None, :, None] * D_chi[..., None, :]).reshape(count, dim, m * n)
    return D_phi, D_chi, a


def _hessian(W: Witness, Phi: np.ndarray, Chi: np.ndarray, D_phi: np.ndarray,
             D_chi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Exact tangent Hessians of f_A, one per zero.

    With psi = phi (x) chi and the directions (u_p, v_p) and variations
    a_p of :func:`_variations`,

        H_pq = 2 Re a_p^dag A a_q + 2 Re psi^dag A (u_p (x) v_q + u_q (x) v_p).

    Each term is a chain of 3-d stacked matrix products, one BLAS product
    of a fixed shape per zero: the Gram term a_p^dag (A a_q), the cross
    term's row psi^dag A reshaped to m x n, then u_p^dag times that
    times v_q.
    """
    psi = (Phi[:, :, None] * Chi[:, None, :]).reshape(len(Phi), 1, -1)
    gram = a.conj() @ (a @ W.matrix.T).swapaxes(-1, -2)
    cross = (psi.conj() @ W.matrix).reshape(-1, W.m, W.n)
    S = gram + 2.0 * (D_phi @ cross @ D_chi.swapaxes(-1, -2))
    # Re(S + S^T) is symmetric to the last bit, as eigh assumes.
    return (S + S.swapaxes(-1, -2)).real


def _newton(W: Witness, Phi: np.ndarray, Chi: np.ndarray, values: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked Riemannian Newton descent of f_A on the product of the unit
    spheres; each row steps and stops on its own.

    A row starts at phi, the minimal eigenvector chi of M(phi phi^dag)
    and the value f there. In the tangent coordinates of
    :func:`_variations` the gradient is g_p = 2 Re psi^dag A a_p, and the
    Hessian is that of :func:`_hessian` minus 2 f I: a unit step along a
    tangent direction pulls psi back by psi / 2 at second order, the
    curvature of the two spheres. One ``eigh`` gives x = -H^-1 g, each
    |lambda| floored at :data:`NEWTON_FLOOR` times the largest. A step
    evaluates phi + x and phi + 3x, each normalized and taken with its
    minimal eigenvector chi, and keeps the lower: along f = c d^4, the
    valley of a quartic zero, the Newton step is d / 3, so 3x lands on
    the minimum. A row stops once a step changes f by at most
    4 eps ||A||, or after :data:`NEWTON_CAP` steps; a step that raises f
    by more leaves the row in place and halves x for the next.

    :return: (Phi, Chi, values, steps), vectors unit norm, phases not
        canonical, ``steps`` the steps each row took.
    :raises ValueError: if W is zero.
    """
    count, m = Phi.shape
    Phi, Chi, values = Phi.copy(), Chi.copy(), values.copy()
    tol = 4.0 * np.finfo(float).eps * _scale(W)
    shrink = np.ones(count)
    steps = np.zeros(count, dtype=int)
    active = np.arange(count)
    for _ in range(NEWTON_CAP):
        if not active.size:
            break
        phi, chi, f = Phi[active], Chi[active], values[active]
        D_phi, D_chi, a = _variations(phi, chi)
        # Row vectors, shape (K, 1, .): psi, the gradient and the step.
        psi = (phi[:, :, None] * chi[:, None, :]).reshape(len(active), 1, -1)
        grad = 2.0 * (psi.conj() @ W.matrix @ a.swapaxes(-1, -2)).real
        H = _hessian(W, phi, chi, D_phi, D_chi, a) - 2.0 * f[:, None, None] * np.eye(a.shape[1])
        lam, V = np.linalg.eigh(H)
        size = np.abs(lam)
        size = np.maximum(size, NEWTON_FLOOR * size.max(axis=1, keepdims=True))
        x = -((grad @ V) / size[:, None]) @ V.swapaxes(-1, -2)
        move = ((shrink[active, None, None] * x) @ D_phi)[:, 0]
        # Rows 2k and 2k + 1 are start k moved by x and by 3x.
        cand = _normalized(phi[:, None] + np.array([1.0, 3.0])[:, None] * move[:, None])
        cand = cand.reshape(-1, m)
        chi_c, f_c = _chi_step(W, cand)
        best = 2 * np.arange(len(active)) + (f_c[1::2] < f_c[0::2])
        rise = f_c[best] - f
        lower = rise < 0.0
        moved, best = active[lower], best[lower]
        Phi[moved], Chi[moved], values[moved] = cand[best], chi_c[best], f_c[best]
        shrink[active] = np.where(rise > tol, 0.5 * shrink[active], 1.0)
        steps[active] += 1
        active = active[np.abs(rise) > tol]
    return Phi, Chi, values, steps


def _minimize(W: Witness, Phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked minimization of f_A from the starts Phi: the alternation of
    :func:`_alternate`, then the Newton descent of :func:`_newton` on the
    rows it left creeping, from the alternation's own (phi, chi, f).

    :return: (Phi, Chi, values), unit vectors with canonical phases.
    :raises ValueError: if W is zero.
    """
    Phi, Chi, values, creeping = _alternate(W, Phi)
    Phi[creeping], Chi[creeping], values[creeping], _ = _newton(
        W, Phi[creeping], Chi[creeping], values[creeping])
    return _canonical_phase(Phi), _canonical_phase(Chi), values


def refine_zero(W: Witness,
                phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Finish a near-zero to working precision by Newton's method.

    Takes chi as the minimal eigenvector of M(phi phi^dag) (the closed
    form of :func:`_smallest3` for n = 3, which leaves to LAPACK the
    matrices whose smallest eigenvalue lies within :data:`GAP_SHARE` of
    the spread from the next) and runs the Riemannian Newton descent of
    :func:`_newton` on the product of the unit spheres: exact gradient
    and tangent Hessian in closed form, with the spheres' curvature. The
    Newton step does not degenerate in the quartically flat valleys
    around quartic zeros: along f = c d^4 it is d / 3, and its triple,
    which every step also tries, lands on the minimum. :func:`find_zeros`
    starts the descent from the alternation's own (phi, chi, f), so it
    matches ``refine_zero`` of the alternation's phi to rounding.

    :param W: witness.
    :param phi: approximate zero, m side (any nonzero norm); the chi
        side is recomputed as the minimal eigenvector at each step.
    :return: (phi, chi, value), unit vectors with canonical phases.
    :raises ValueError: if ``phi`` is not a nonzero finite m-vector, or
        if W is zero.
    """
    Phi = _normalized(_vector(phi, W.m, "phi")[None])
    Phi, Chi, values, _ = _newton(W, Phi, *_chi_step(W, Phi))
    return _canonical_phase(Phi)[0], _canonical_phase(Chi)[0], float(values[0])


def _reduced_quartic(W: Witness, D_phi: np.ndarray, D_chi: np.ndarray,
                     a: np.ndarray, root: np.ndarray,
                     d: np.ndarray) -> np.ndarray:
    """The reduced quartic q(d) = f_A(u, v) - 1/2 g^T H^+ g at null directions.

    Along phi + eps u + eps^2 u2, chi + eps v + eps^2 v2 with
    d = (u, v) in the null space of H, f_A has no terms below eps^4 and
    its eps^4 coefficient is f_A(u, v) + g.w + 1/2 w^T H w, w = (u2, v2),
    with b = u (x) v, a_d = sum_p d_p a_p and

        g_p = 2 Re b^dag A a_p + 2 Re a_d^dag A (u (x) v_p + u_p (x) v).

    Minimized over w this is q(d).

    :param root: R with R R^T = H^+, shape (Z, dim, dim).
    :param d: real tangent coordinates of the directions, (Z, s, dim).
    :return: q, shape (Z, s).
    """
    count, s = d.shape[:2]
    m, n = D_phi.shape[-1], D_chi.shape[-1]
    u, v, a_d = d @ D_phi, d @ D_chi, d @ a
    b = (u[..., :, None] * v[..., None, :]).reshape(count, s, m * n)
    # A is Hermitian, so b^dag A = (A b)^dag.
    Ab = b @ W.matrix.T
    Aa = (a_d @ W.matrix.T).reshape(count, s, m, n).conj()
    g = 2.0 * (Ab.conj() @ a.swapaxes(-1, -2)
               + (u[..., None, :] @ Aa)[..., 0, :] @ D_chi.swapaxes(-1, -2)
               + (Aa @ v[..., None])[..., 0] @ D_phi.swapaxes(-1, -2)).real
    return ((b.conj()[..., None, :] @ Ab[..., None])[..., 0, 0].real
            - 0.5 * np.square(g @ root).sum(axis=-1))


# Five directions on a half turn of the null circle fix a binary quartic.
_CIRCLE = np.pi * np.arange(5) / 5.0


def _monomials(theta: np.ndarray) -> np.ndarray:
    """The monomials x^(4-k) y^k, k = 0..4, of (x, y) = (cos theta, sin theta)."""
    k = np.arange(5)
    return np.cos(theta)[..., None] ** (4 - k) * np.sin(theta)[..., None] ** k


def _circle_min(samples: np.ndarray) -> np.ndarray:
    """Exact minimum of a binary quartic over the unit circle, per row.

    ``samples`` holds Q(x, y) = sum_k c_k x^(4-k) y^k at the angles
    :data:`_CIRCLE`, one row per quartic. The critical directions of Q
    on the circle are the real roots of y Q_x - x Q_y: with x = 1, y = t
    they are the roots t of a quartic in t, found for all rows at once
    as eigenvalues of stacked companion matrices, and with x = 0 the
    direction (0, 1). Q is evaluated at the real parts of all roots,
    which only adds points of the circle. A vanishing leading
    coefficient, whose root runs off to (0, 1), is raised to the
    rounding level of the polynomial; where the polynomial vanishes, Q
    is constant on the circle.
    """
    # One right-hand side per solve: LAPACK rounds a column of a
    # many-column right-hand side otherwise than the column alone.
    c = np.linalg.solve(_monomials(_CIRCLE), samples[:, :, None])[:, :, 0]
    c0, c1, c2, c3, c4 = c.T
    # y Q_x - x Q_y at (1, t), highest power first.
    poly = np.stack([c3, 2 * c2 - 4 * c4, 3 * (c1 - c3), 4 * c0 - 2 * c2, -c1], axis=1)
    floor = np.finfo(float).eps * np.abs(poly).max(axis=1)
    lead = np.where(np.abs(c3) > floor, c3, np.where(floor > 0, floor, 1.0))
    companion = np.zeros((len(c), 4, 4))
    companion[:, 0] = -poly[:, 1:] / lead[:, None]
    companion[:, 1:, :3] = np.eye(3)
    roots = np.linalg.eigvals(companion).real
    theta = np.concatenate([np.arctan(roots), np.full((len(c), 1), np.pi / 2)], axis=1)
    return (_monomials(theta) @ c[:, :, None]).min(axis=(1, 2))


def _scale(W: Witness) -> float:
    """||A||, the scale of every zero tolerance; a zero witness has none.

    :raises ValueError: if A = 0, where every product vector is a zero,
        or if ||A|| comes within :data:`SCALE_HEADROOM` of the largest
        float, where the search's Hessians overflow.
    """
    scale = hs_norm(W.matrix)
    if scale == 0.0:
        raise ValueError("the witness is zero: every product vector is a "
                         "zero, so there are none to search or classify")
    if scale * SCALE_HEADROOM == np.inf:
        raise ValueError(f"the witness norm {scale:.3e} leaves the float range "
                         f"of the zero search: it must stay below "
                         f"{np.finfo(float).max / SCALE_HEADROOM:.3e}")
    return scale


def _classify(W: Witness, Phi: np.ndarray, Chi: np.ndarray
              ) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked zero classification and continuum certificate.

    One stacked ``eigh`` gives the Hessian spectra, the k null
    directions (eigenvalues below :data:`HESS_TOL` * ||A||) and H^+.
    With k = 1 the certificate is q at the null vector, with k >= 2 the
    exact minimum of q over the circle spanned by the two lowest
    eigenvectors; a zero is continuum if it is at most
    :data:`CONTINUUM_TOL` * ||A||.

    :return: (kinds, spectra, q_min, continuum) with one ascending
        spectrum row, certificate and flag per zero; q_min is inf at a
        zero without null directions.
    :raises ValueError: if a zero has k >= 3 null directions and q
        stays above the tolerance on that circle: its other null
        directions are not searched, so it is not certified isolated.
    """
    scale = _scale(W)
    hess_tol = HESS_TOL * scale
    # The sample directions in the plane of the two lowest eigenvectors.
    circle = np.stack([np.cos(_CIRCLE), np.sin(_CIRCLE)], axis=1)
    D_phi, D_chi, a = _variations(Phi, Chi)
    spectra, vectors = np.linalg.eigh(_hessian(W, Phi, Chi, D_phi, D_chi, a))
    # R = V diag(lambda^-1/2), zero on the null space: R R^T = H^+.
    scales = np.where(spectra > hess_tol, spectra, np.inf) ** -0.5
    samples = _reduced_quartic(W, D_phi, D_chi, a, vectors * scales[:, None],
                               circle @ vectors[:, :, :2].swapaxes(-1, -2))
    # _CIRCLE[0] = 0: the first sample is q at the lowest eigenvector.
    q_min = np.where(spectra[:, 1] < hess_tol, _circle_min(samples), samples[:, 0])
    nulls = np.count_nonzero(spectra < hess_tol, axis=1)
    q_min[nulls == 0] = np.inf
    continuum = q_min <= CONTINUUM_TOL * scale
    uncertified = np.flatnonzero((nulls >= 3) & ~continuum)
    if uncertified.size:
        i = uncertified[0]
        raise ValueError(
            f"cannot certify the zero phi = {Phi[i].tolist()}, chi = "
            f"{Chi[i].tolist()} isolated: it has {nulls[i]} Hessian null "
            f"directions, and the reduced quartic is {q_min[i]:.3e} > "
            f"{CONTINUUM_TOL:.1e} * ||A|| on the lowest two"
        )
    kinds = np.where(nulls > 0, "quartic", "quadratic").tolist()
    return kinds, spectra, q_min, continuum


def classify_zero(W: Witness, phi: np.ndarray,
                  chi: np.ndarray) -> tuple[str, np.ndarray]:
    """Classify a zero as quadratic or quartic via the tangent Hessian.

    Builds the exact real Hessian of f_A on the 2(m-1) + 2(n-1)
    dimensional tangent space (orthogonal complements of phi and chi,
    real and imaginary directions) in closed form: f_A is biquadratic,
    so its second derivatives are the Gram matrix of the first-order
    variations of phi (x) chi under A plus the cross term of the mixed
    second-order variation. The zero is quartic iff the smallest
    eigenvalue is below :data:`HESS_TOL` * ||A||.

    :param W: witness.
    :param phi: unit vector, m side.
    :param chi: unit vector, n side.
    :return: (kind, ascending Hessian eigenvalues).
    :raises ValueError: if ``phi`` or ``chi`` is not a finite vector of
        its side's length with norm 1 to :data:`ZERO_TOL`, if W is zero,
        if |f_A(phi, chi)| exceeds :data:`ZERO_TOL` * ||A||, or if the
        continuum certificate of :func:`find_zeros` cannot be decided at
        the zero.
    """
    Phi = _vector(phi, W.m, "phi")[None]
    Chi = _vector(chi, W.n, "chi")[None]
    # The tangent Hessian scales with |phi|^2 |chi|^2, so a short vector
    # would read as a flatter zero.
    for name, V in (("phi", Phi), ("chi", Chi)):
        norm = np.linalg.norm(V)
        if abs(norm - 1.0) > ZERO_TOL:
            raise ValueError(f"{name} must be a unit vector, got norm {norm:.17g}")
    value = abs(biquadratic_form(W, Phi, Chi)[0])
    if value > ZERO_TOL * _scale(W):
        raise ValueError(
            f"not a zero: |f| = {value:.3e} exceeds {ZERO_TOL:.1e} (relative)"
        )
    kinds, spectra, _, _ = _classify(W, Phi, Chi)
    return kinds[0], spectra[0]


def _merge(Phi: np.ndarray, Chi: np.ndarray) -> np.ndarray:
    """Representatives of the distinct zeros among candidate rows.

    Above an overlap |<phi_i, phi_j>| |<chi_i, chi_j>| of
    1 - :data:`DEDUP_TOL` two rows are the same zero, and a row is kept
    unless an earlier kept row is the same zero. Each block of
    :data:`OVERLAP_BLOCK` rows is overlapped with the rows kept so far and
    with itself, then passed over greedily, so the working set grows
    linearly in the rows.

    :return: representative rows, ascending.
    """
    keep = np.zeros(0, dtype=int)
    for b in range(0, len(Phi), OVERLAP_BLOCK):
        rows = np.arange(b, min(b + OVERLAP_BLOCK, len(Phi)))
        cols = np.concatenate([keep, rows])
        same = (np.abs(Phi[rows].conj() @ Phi[cols].T)
                * np.abs(Chi[rows].conj() @ Chi[cols].T) > 1.0 - DEDUP_TOL)
        live = ~same[:, :len(keep)].any(axis=1)
        for i in range(len(rows)):
            if live[i]:
                live[i + 1:] &= ~same[i, len(keep) + i + 1:]
        keep = np.concatenate([keep, rows[live]])
    return keep


def find_zeros(W: Witness, starts: int = 500, seed: int = 42) -> list:
    """Search for zeros from random starts, deduplicate, and classify.

    Runs the alternation of :func:`alternating_minimize` (at most
    :data:`SWEEP_CAP` sweeps) from ``starts`` Haar-random phi vectors and
    finishes the starts still lowering their value at the cap by the
    Newton descent of :func:`refine_zero`, started from the alternation's
    own (phi, chi, f); a start that stopped by the alternation's own
    rule, where a sweep no longer lowers its value, keeps the
    alternation's result. Each start ends, bit for bit, at
    :func:`_minimize` of itself alone: a stopped start at
    ``alternating_minimize(W, start)``, a creeping one at
    ``refine_zero(W, alternating_minimize(W, start)[0])`` to rounding.
    The search then keeps results with |value| at most
    :data:`ZERO_TOL` * ||A||, the bound of :func:`classify_zero`, merges
    candidates whose overlap |<phi_i, phi_j>| |<chi_i, chi_j>| exceeds
    1 - :data:`DEDUP_TOL` (keeping the lowest value), and
    classifies each survivor, certifying its continuum flag from its own
    reduced quartic (:class:`ProductZero`), so the flag does not depend
    on the other zeros found. Every phase runs once over the stack of
    its starts.

    Before the search a spectral certificate settles the witnesses
    whose spectra rule out a product zero. For unit phi
    and chi, psi = phi (x) chi is a unit vector, so
    f_A(phi, chi) = psi^dag A psi >= lambda_min(A); and
    f_A(phi, chi) = f_{A^Gamma}(phi, conj(chi)), A^Gamma the partial
    transpose, so also f_A >= lambda_min(A^Gamma). If the larger bound
    exceeds 2 :data:`ZERO_TOL` * ||A||, the search returns ``[]``
    without drawing a start. That is the list the search itself would
    return: every value it computes is at least the bound less a
    rounding error of order mn eps ||A||, far below the margin of
    :data:`ZERO_TOL` * ||A||, so it would accept no start and find none
    below -:data:`ZERO_TOL` * ||A||. Every other witness, at or below
    the margin, runs the search.

    :param W: witness.
    :param starts: number of random starting vectors (0 finds nothing).
    :param seed: RNG seed for the starts.
    :return: list of :class:`ProductZero`, values ascending.
    :raises ValueError: if ``starts`` is negative, if W is zero, or if
        ||A|| comes within :data:`SCALE_HEADROOM` of the largest float.
    :raises NotBlockPositiveError: if a finished start has a value below
        -:data:`ZERO_TOL` * ||A||; it carries the lowest such start.
    :raises ValueError: if a zero has three or more Hessian null
        directions and its reduced quartic does not vanish on the two
        lowest (see :func:`_classify`).
    """
    if starts < 0:
        raise ValueError(f"starts must be >= 0, got {starts}")
    tol = ZERO_TOL * _scale(W)
    # f_A >= lambda_min(A) and f_A = f_{A^Gamma} >= lambda_min(A^Gamma) on
    # unit vectors: above 2 tol no start can reach a zero or go negative.
    bound = max(np.linalg.eigvalsh(A.matrix)[0] for A in (W, partial_transpose(W)))
    if bound > 2.0 * tol:
        return []
    rng = np.random.default_rng(seed)
    # Start k draws m real parts, then m imaginary parts.
    draws = rng.normal(size=(starts, 2, W.m))
    Phi, Chi, values = _minimize(W, draws[:, 0] + 1j * draws[:, 1])
    # A negative minimum is no zero: the input is not a witness.
    if starts and values.min() < -tol:
        low = int(np.argmin(values))
        raise NotBlockPositiveError(Phi[low], Chi[low], float(values[low]))
    values = np.abs(values)
    accepted = np.flatnonzero(values <= tol)
    if not accepted.size:
        return []
    # The lowest value of each overlap class represents it.
    order = accepted[np.argsort(values[accepted], kind="stable")]
    reps = order[_merge(Phi[order], Chi[order])]
    Phi, Chi, values = Phi[reps], Chi[reps], values[reps]
    kinds, spectra, _, continuum = _classify(W, Phi, Chi)
    return [
        ProductZero(phi=Phi[i], chi=Chi[i], value=float(values[i]),
                    kind=kinds[i], hessian_spectrum=spectra[i],
                    continuum=bool(continuum[i]))
        for i in range(len(reps))
    ]


def constraint_rows(W: Witness, phi: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Real constraint rows that zeros impose on the witness.

    Takes one zero or a stack of them: ``phi`` of shape (..., m) and
    ``chi`` of shape (..., n) with the same leading stack axes. With psi = phi (x) chi and the variations
    a_p of the tangent directions of the Hessian, the 2(m + n) - 3 rows
    of a zero are, in the traceless orthonormal witness coordinates E:
    the value row psi^dag E psi = <psi psi^dag, E> and, for each tangent
    direction p, the derivative row Re psi^dag E a_p (for a direction
    i u this is -Im psi^dag E (u (x) chi)).

    :return: array of shape (..., 2(m+n)-3, (mn)^2 - 1).
    :raises ValueError: if the shapes do not fit W or each other, or if a
        phi or chi is zero.
    """
    phi = np.asarray(phi, dtype=complex)
    chi = np.asarray(chi, dtype=complex)
    stack = phi.shape[:-1]
    if phi.shape != stack + (W.m,) or chi.shape != stack + (W.n,):
        raise ValueError(f"expected phi of shape (..., {W.m}) and chi of shape "
                         f"(..., {W.n}) alike, got {phi.shape} and {chi.shape}")
    Phi, Chi = phi.reshape(-1, W.m), chi.reshape(-1, W.n)
    if not (Phi.any(axis=1).all() and Chi.any(axis=1).all()):
        raise ValueError("a zero needs a nonzero phi and chi")
    psi = (Phi[:, :, None] * Chi[:, None, :]).reshape(-1, W.m * W.n)
    partners = np.concatenate([psi[:, None], _variations(Phi, Chi)[2]], axis=1)
    basis = hermitian_basis(W.m * W.n)[1:]
    coeffs = np.einsum("zi,aij->zaj", psi.conj(), basis)
    rows = np.einsum("zaj,zpj->zpa", coeffs, partners).real
    return rows.reshape(stack + rows.shape[1:])


def constraint_rank(W: Witness, zeros) -> ConstraintSystem:
    """Stack the constraint rows of the distinct zeros and report the rank.

    Pairs that are the same zero by the overlap rule of
    :func:`find_zeros` (after normalizing phi and chi) count once, the
    first of them giving the rows, so near-coincident copies of a zero
    cannot add nearly parallel rows. Singular values above
    :data:`RANK_TOL` times the largest count toward the rank; no zeros
    give no rows and rank 0.

    :param W: witness.
    :param zeros: iterable of :class:`ProductZero` or (phi, chi) pairs.
    :return: :class:`ConstraintSystem`.
    :raises ValueError: if a pair's phi is not an m-vector or its chi
        not an n-vector, or either is zero.
    """
    pairs = [(z.phi, z.chi) if isinstance(z, ProductZero) else z for z in zeros]
    for phi, chi in pairs:
        if np.shape(phi) != (W.m,) or np.shape(chi) != (W.n,):
            raise ValueError(f"expected phi of shape ({W.m},) and chi of shape "
                             f"({W.n},) in each pair, got {np.shape(phi)} and "
                             f"{np.shape(chi)}")
    Phi = np.array([phi for phi, _ in pairs] or np.empty((0, W.m)), dtype=complex)
    Chi = np.array([chi for _, chi in pairs] or np.empty((0, W.n)), dtype=complex)
    norms = [np.linalg.norm(V, axis=1, keepdims=True) for V in (Phi, Chi)]
    if not all(norm.all() for norm in norms):
        raise ValueError("a zero needs a nonzero phi and chi")
    kept = _merge(Phi / norms[0], Chi / norms[1])
    rows = constraint_rows(W, Phi[kept], Chi[kept])
    rows = rows.reshape(-1, rows.shape[-1])
    sv = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(sv > RANK_TOL * sv.max(initial=0.0)))
    # Singular values relative to the largest, and a 0 for "none dropped".
    rel = np.append(sv / sv[0], 0.0) if rank else np.zeros(1)
    return ConstraintSystem(rows=rows, rank=rank, zero_count=len(kept),
                            last_counted=float(rel[rank - 1]) if rank else 0.0,
                            first_dropped=float(rel[rank]))
