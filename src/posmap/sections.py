"""Two dimensional sections through the set of density matrices.

A section plane is an affine 2D slice of the trace-one Hermitian
matrices, spanned by traceless axes B, C built from three states: the
origin rho0 and two states rho1, rho2 fixing the axis directions,

    B = a (rho1 - rho0),    C = b (rho2 - rho0) + c (rho1 - rho0).

Every plane is drawn through a map M: the constants (a, b, c)
orthonormalize the image axes Mrho1 - Mrho0 and Mrho2 - Mrho0, and the
same constants apply on both sides, so one coordinate pair (x, y)
labels both X = rho0 + xB + yC and its image MX simultaneously. The
sections of the state set itself are those drawn through the identity
map (:func:`~posmap.builtin.identity_witness`), where the image frame
is the source frame. A plane has two frames, ``plane.source`` =
(rho0, B, C) and ``plane.image`` = (Mrho0, MB, MC), and
:func:`scan_boundary` scans one frame at a time. Boundary curves are
polar ray scans in closed form: along the ray at angle theta,
X = origin + r U with U = cos(theta) B + sin(theta) C stays positive
semidefinite up to r* = -1 / lambda_min(L), where
L = origin^(-1/2) U origin^(-1/2) is taken on the face (support) of the
origin. The axes must lie in that face, which holds for a singular
origin whose plane stays on the boundary (type E).

:data:`SECTION_TYPES` lists the named planes :func:`section_of_type`
builds, and the CLI offers exactly these. ``diag`` is the plane of I/k
and the first two diagonal states, so on k = 3 it is type D; ``tangent``
and F are the same plane through the Choi-Lam continuum, on any map
with a 3 x 3 source.
"""

from dataclasses import dataclass

import numpy as np

from .bipartite import Witness, apply_map
from .builtin import choi_lam_tangent_section
from .hermitian import PSD_TOL, as_hermitian, hs_inner, hs_norm, is_psd

__all__ = [
    "SECTION_TYPES",
    "SectionPlane",
    "BoundaryCurve",
    "plane_from_states",
    "scan_boundary",
    "section_of_type",
    "project_point",
]

GRAM_TOL = 1e-14
TRACE_TOL = 1e-10

SECTION_TYPES = ("A", "B", "C", "D", "E", "F", "diag", "tangent")


# =============================================================================
# Plane and curve containers
# =============================================================================

@dataclass(frozen=True)
class SectionPlane:
    """Affine plane rho0 + x B + y C in trace-one Hermitian matrix space,
    with its image ``image_rho0`` + x ``image_B`` + y ``image_C`` under
    the map whose image axes the constants (a, b, c) orthonormalize."""

    rho0: np.ndarray
    B: np.ndarray
    C: np.ndarray
    abc: tuple
    image_rho0: np.ndarray
    image_B: np.ndarray
    image_C: np.ndarray

    def __post_init__(self):
        for name in ("rho0", "B", "C"):
            object.__setattr__(self, name, as_hermitian(getattr(self, name)))

    @property
    def source(self) -> tuple:
        """The source frame (rho0, B, C), as :func:`scan_boundary` takes it."""
        return self.rho0, self.B, self.C

    @property
    def image(self) -> tuple:
        """The image frame (image_rho0, image_B, image_C)."""
        return self.image_rho0, self.image_B, self.image_C

    def point(self, x: float, y: float) -> np.ndarray:
        """Matrix at plane coordinates (x, y)."""
        return self.rho0 + x * self.B + y * self.C


@dataclass(frozen=True)
class BoundaryCurve:
    """Polar samples (theta_i, r_i) of a positivity boundary in one frame.

    Which curve of a picture it is (the source boundary, which is also
    the mapped boundary, or the boundary in the image plane) is the
    writers' choice: :func:`~posmap.serialize.curves_to_csv` and
    :func:`~posmap.serialize.render_section_svg` take the curves by role.
    """

    theta: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if theta.shape != r.shape or theta.ndim != 1:
            raise ValueError("theta and r must be matching 1D arrays")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "r", r)

    def xy(self) -> np.ndarray:
        """Cartesian sample coordinates, shape (n, 2)."""
        return np.column_stack([self.r * np.cos(self.theta),
                                self.r * np.sin(self.theta)])


# =============================================================================
# Plane construction
# =============================================================================

def plane_from_states(rho0: np.ndarray, rho1: np.ndarray, rho2: np.ndarray,
                      W: Witness) -> SectionPlane:
    """Build a section plane through three trace-one Hermitian matrices.

    The constants are fixed by Gram-Schmidt: a = 1/|d1|,
    c = -b <d1, d2>/|d1|^2 and b normalizing the orthogonal complement,
    where d1, d2 are the image differences M rho_i - M rho0. Always
    a > 0 and b > 0, so rho1 sits at y = 0, x > 0 in the image frame.

    :param rho0: origin state (trace 1).
    :param rho1: state fixing the x axis direction.
    :param rho2: second spanning state; need not be positive
        semidefinite, only Hermitian with trace 1.
    :param W: witness whose map defines the image frame;
        ``identity_witness(k)`` for the sections of the state set itself.
    :return: SectionPlane.
    :raises ValueError: a state without trace 1, image differences
        that are linearly dependent (the map collapses the plane), or a
        map so small that the constants exceed the float range.
    """
    rho0 = as_hermitian(rho0)
    rho1 = as_hermitian(rho1)
    rho2 = as_hermitian(rho2)
    for rho in (rho0, rho1, rho2):
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
            raise ValueError("section states must have trace 1")
    d1 = rho1 - rho0
    d2 = rho2 - rho0
    img0 = apply_map(W, rho0)
    g1 = apply_map(W, rho1) - img0
    g2 = apply_map(W, rho2) - img0

    # Gram products of g1, g2 scaled by 2^-e, e the binary exponent of
    # their largest entry: exact, and inside the float range at any map
    # scale. a and b scale back by 2^-e, which on a map near the subnormal
    # range lies beyond the float range: then the plane has no frame.
    size = max(np.abs(g1).max(), np.abs(g2).max())
    e = np.frexp(size)[1]
    beyond = (f"the frame constants of a map of scale {size:.3e} (largest image "
              f"difference) lie beyond the float range")
    if -e >= np.finfo(float).maxexp:
        raise ValueError(beyond)
    h1, h2 = g1 * np.ldexp(1.0, -e), g2 * np.ldexp(1.0, -e)
    g11 = hs_inner(h1, h1)
    g12 = hs_inner(h1, h2)
    g22 = hs_inner(h2, h2)
    # The Gram determinant relative to g11 g22 is the squared sine of the
    # angle between the image differences, free of the map's scale.
    if g11 * g22 - g12 * g12 <= GRAM_TOL * g11 * g22:
        raise ValueError("map collapses the section plane "
                         "(image differences linearly dependent)")

    with np.errstate(over="ignore", invalid="ignore"):
        a = np.ldexp(1.0 / np.sqrt(g11), -e)
        b = np.ldexp(1.0 / np.sqrt(g22 - g12 * g12 / g11), -e)
        c = -b * g12 / g11
    if not np.isfinite((a, b, c)).all():
        raise ValueError(beyond)
    return SectionPlane(rho0, a * d1, b * d2 + c * d1, (a, b, c),
                        image_rho0=img0, image_B=a * g1,
                        image_C=b * g2 + c * g1)


def _random_state(rng: np.random.Generator, k: int, rank: int) -> np.ndarray:
    """Trace-one PSD matrix V V^dag with V a k x rank complex Gaussian."""
    V = rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank))
    rho = V @ V.conj().T
    return rho / np.trace(rho).real


def _pure(phi: np.ndarray) -> np.ndarray:
    return np.outer(phi, phi.conj()) / (np.linalg.norm(phi) ** 2)


def section_of_type(kind: str, W: Witness, seed: int = 42) -> SectionPlane:
    """Construct one of the named section planes of :data:`SECTION_TYPES`.

    A: rho1, rho2 random rank-2 states, origin I/k.
    B: rho1 a random pure state, rho2 random full rank, origin I/k.
    C: rho1, rho2 both random pure states, origin I/k.
    D: simplex plane of the pure states e1, e2, e3, origin their even
       mix (k >= 3).
    E: as D with the linearly dependent e1, e2, (e1+e2)/sqrt(2); the
       plane cuts a Bloch sphere lying in the boundary, so interior
       points have rank 2.
    diag: origin I/k through e1 e1^dag and e2 e2^dag (k >= 3; type D
       when k = 3).
    F, tangent: the plane of :func:`~posmap.builtin.choi_lam_tangent_section`,
       through the Choi-Lam continuum state at phi = (1,1,1)/sqrt(3)
       along its tangent (k = 3).

    Here k = ``W.m``, the source dimension of the map.

    :param kind: one of :data:`SECTION_TYPES`.
    :param W: witness whose map fixes the image frame (see
        :func:`plane_from_states`).
    :param seed: RNG seed for the random types A-C.
    :return: SectionPlane.
    :raises ValueError: an unknown type, a k the type does not allow, or
        a map that collapses the plane.
    """
    if kind not in SECTION_TYPES:
        raise ValueError(f"unknown section type {kind!r}")
    k = W.m
    if kind in ("F", "tangent") and k != 3:
        raise ValueError(f"section type {kind} needs k = 3, got k = {k}")
    if kind in ("D", "diag") and k < 3:
        raise ValueError(f"section type {kind} needs k >= 3, got k = {k}")
    eye = np.eye(k, dtype=complex)
    if kind in ("A", "B", "C"):
        rng = np.random.default_rng(seed)
        ranks = {"A": (2, 2), "B": (1, k), "C": (1, 1)}[kind]
        rho0 = eye / k
        rho1, rho2 = (_random_state(rng, k, rank) for rank in ranks)
    elif kind in ("D", "E"):
        third = eye[:, 2] if kind == "D" else (eye[:, 0] + eye[:, 1]) / np.sqrt(2.0)
        pures = [_pure(v) for v in (eye[:, 0], eye[:, 1], third)]
        rho0 = (pures[0] + pures[1] + pures[2]) / 3.0
        rho1, rho2 = pures[0], pures[1]
    elif kind == "diag":
        rho0 = eye / k
        rho1, rho2 = (np.outer(eye[:, i], eye[:, i]) for i in (0, 1))
    else:
        rho0, rho1, rho2 = choi_lam_tangent_section()
    return plane_from_states(rho0, rho1, rho2, W)


# =============================================================================
# Boundary scans
# =============================================================================

def _ldexp(X: np.ndarray, k: int) -> np.ndarray:
    """X times 2^k, exact where the result stays normal. ``ldexp`` takes
    no complex input, and the factor 2^k itself overflows for k > 1023."""
    return np.ldexp(X.real, k) + 1j * np.ldexp(X.imag, k)


def scan_boundary(origin: np.ndarray, B: np.ndarray, C: np.ndarray,
                  n_theta: int = 720) -> BoundaryCurve:
    """Scan the positivity boundary of one frame, origin + x B + y C.

    Pass ``*plane.source`` for the boundary of the state set in the
    source plane. Its samples are also those of the mapped boundary:
    since MX = Mrho0 + x MB + y MC with the mapped axes sharing the
    constants (a, b, c), the same coordinates label MX, so no second
    scan is needed. Pass ``*plane.image`` for the boundary of the state
    set in the image plane, the solid curve of the plots.

    One trace rule covers every frame: the plane needs a constant trace
    t = Tr origin > 0, not t = 1, with |Tr U| / |U| * |origin| at most
    :data:`TRACE_TOL` * t for U in (B, C), free of the map's scale. A
    normalized map with m != n scales traces by a constant, which moves
    no boundary point, and positivity along a ray does not depend on the
    overall scale, so such a plane is scanned as it is. Every frame is
    the image frame of a map (the source frame that of the identity), so
    the error names the image plane.

    With origin = V diag(d) V^dag, its face is spanned by the
    eigenvectors with d_i > PSD_TOL * max d, those
    :func:`~posmap.hermitian.is_psd` does not count as zero. An axis is
    inside the face when its part off the face is at most PSD_TOL times
    its norm. For such axes, whitening with P = V_face diag(d_face)^(-1/2)
    turns origin + r U >= 0 into I + r L(theta) >= 0, where
    L(theta) = cos(theta) P^dag B P + sin(theta) P^dag C P, so
    r*(theta) = -1 / lambda_min(L(theta)): one eigh of the origin and one
    stacked eigvalsh over the rays. L is of order |U| / t, which leaves
    the float range when the axes and the origin lie far apart in scale
    (the source axes of a map near the subnormal range reach 1e308);
    then the scan runs on the frame taken to unit exponent and scales
    the radii back by a power of two.

    :param origin: origin of the frame, Hermitian.
    :param B: first axis, Hermitian of the origin's shape.
    :param C: second axis.
    :param n_theta: number of uniformly spaced rays on [0, 2 pi).
    :return: BoundaryCurve with n_theta polar samples.
    :raises ValueError: a frame without a constant positive trace, an
        origin that is not positive semidefinite, an axis off the
        origin's face (every radius would be 0), or a ray that never
        leaves the cone (unbounded section, impossible for nonzero
        traceless axes that are not collinear).
    """
    t = np.trace(origin).real
    # |origin| / t is free of the scale, and so is |Tr U| against |U|.
    if not (t > 0.0 and all(
            abs(np.trace(axis).real) * (hs_norm(origin) / t) <= TRACE_TOL * hs_norm(axis)
            for axis in (B, C))):
        raise ValueError("image plane does not have a constant positive trace; "
                         "the map must preserve trace on the plane up to a scale")
    # L is of order 2^(e - f) and P^dag B of 2^(e - f / 2): past a quarter
    # of the exponent range between the axes' e and the trace's f, the
    # frame goes to unit exponent, which scales each radius by 2^(e - f).
    axes = np.stack([B, C])
    e = np.frexp(np.abs(np.stack([axes.real, axes.imag])).max())[1]
    f = np.frexp(t)[1]
    shift = 0
    if abs(e - f) > np.finfo(float).maxexp // 4:
        origin, B, C, shift = _ldexp(origin, -f), _ldexp(B, -e), _ldexp(C, -e), f - e
    d, V = np.linalg.eigh(origin)
    if not is_psd(d):
        raise ValueError(f"section origin is not positive semidefinite "
                         f"(minimum eigenvalue {d[0]:.3e})")
    face = d > PSD_TOL * d[-1]
    off_face = V[:, ~face].conj().T
    for axis in (B, C):
        if hs_norm(off_face @ axis) > PSD_TOL * hs_norm(axis):
            raise ValueError("section axis leaves the face of the origin: "
                             "the boundary passes through the origin")
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    P = V[:, face] / np.sqrt(d[face])
    L = (np.cos(theta)[:, None, None] * (P.conj().T @ B @ P)
         + np.sin(theta)[:, None, None] * (P.conj().T @ C @ P))
    lam = np.linalg.eigvalsh(L)[:, 0]
    if np.any(lam >= 0.0):
        raise ValueError("unbounded section: a ray never leaves the "
                         "positive semidefinite cone")
    return BoundaryCurve(theta, np.ldexp(-1.0 / lam, shift))


def project_point(plane: SectionPlane, X: np.ndarray) -> tuple[float, float]:
    """Orthogonal projection coordinates of X in the image frame.

    :param plane: section plane.
    :param X: Hermitian matrix of the image side's dimension.
    :return: (x, y) = HS inner products of X - image_rho0 against the
        orthonormal image axes.
    :raises ValueError: if X is not Hermitian or not n x n, n the image
        side's dimension.
    """
    X = as_hermitian(X)
    if X.shape != plane.image_rho0.shape:
        raise ValueError(f"expected a matrix of the image side's shape "
                         f"{plane.image_rho0.shape}, got {X.shape}")
    X = X - plane.image_rho0
    return (hs_inner(X, plane.image_B), hs_inner(X, plane.image_C))
