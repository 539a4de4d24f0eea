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
is the source frame. Boundary curves are polar ray scans in closed
form: along the ray at angle theta, X = rho0 + r U with
U = cos(theta) B + sin(theta) C stays positive semidefinite up to
r* = -1 / lambda_min(L), where L = rho0^(-1/2) U rho0^(-1/2) is taken on
the face (support) of rho0. The axes must lie in that face, which holds
for a singular origin whose plane stays on the boundary (type E).

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
from .hermitian import as_hermitian, hs_inner, hs_norm

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
# Face tolerance of a boundary scan, relative to the origin's largest
# eigenvalue: smaller eigenvalues span the kernel the axes must avoid.
BOUNDARY_TOL = 1e-10

CURVE_LABELS = ("source", "image_of_source", "image_plane")
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
        rho0 = as_hermitian(self.rho0)
        B = as_hermitian(self.B)
        C = as_hermitian(self.C)
        if abs(np.trace(rho0).real - 1.0) > TRACE_TOL:
            raise ValueError("section origin must have trace 1")
        for axis in (B, C):
            # Relative: the axes scale as 1/|M| on a map scaled by |M|.
            if abs(np.trace(axis).real) > TRACE_TOL * hs_norm(axis):
                raise ValueError("section axes must be traceless")
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    def point(self, x: float, y: float) -> np.ndarray:
        """Matrix at plane coordinates (x, y)."""
        return self.rho0 + x * self.B + y * self.C


@dataclass(frozen=True)
class BoundaryCurve:
    """Polar samples (theta_i, r_i) of a positivity boundary in a plane.

    label is one of "source" (boundary of the state set in the source
    plane; the paper-style dashed curve once reinterpreted through the
    map), "image_of_source" (the same samples labeled as the mapped
    boundary, valid because coordinates carry over under the map), or
    "image_plane" (boundary of the state set in the image plane, the
    solid curve).
    """

    theta: np.ndarray
    r: np.ndarray
    label: str

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if theta.shape != r.shape or theta.ndim != 1:
            raise ValueError("theta and r must be matching 1D arrays")
        if self.label not in CURVE_LABELS:
            raise ValueError(f"unknown curve label {self.label!r}")
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
    :raises ValueError: a state without trace 1, or image differences
        that are linearly dependent (the map collapses the plane).
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

    g11 = hs_inner(g1, g1)
    g12 = hs_inner(g1, g2)
    g22 = hs_inner(g2, g2)
    # The Gram determinant relative to g11 g22 is the squared sine of the
    # angle between the image differences, free of the map's scale.
    if g11 * g22 - g12 * g12 <= GRAM_TOL * g11 * g22:
        raise ValueError("map collapses the section plane "
                         "(image differences linearly dependent)")

    a = 1.0 / np.sqrt(g11)
    b = 1.0 / np.sqrt(g22 - g12 * g12 / g11)
    c = -b * g12 / g11
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

def _scan_rays(origin: np.ndarray, B: np.ndarray, C: np.ndarray,
               theta: np.ndarray) -> np.ndarray:
    """Boundary radius r*(theta) = sup{r : origin + r U(theta) >= 0} per ray.

    With origin = V diag(d) V^dag, its face is spanned by the eigenvectors
    with d_i > BOUNDARY_TOL * max d. For axes inside that face, whitening
    with P = V_face diag(d_face)^(-1/2) turns origin + r U >= 0 into
    I + r L(theta) >= 0, where L(theta) = cos(theta) P^dag B P
    + sin(theta) P^dag C P, so r*(theta) = -1 / lambda_min(L(theta)):
    one eigh of the origin and one stacked eigvalsh over the rays.

    :raises ValueError: an origin that is not positive semidefinite, an
        axis with a component off the origin's face (every radius would
        be 0), or a ray that never leaves the cone (unbounded section).
    """
    d, V = np.linalg.eigh(origin)
    if d[0] < -BOUNDARY_TOL * np.abs(d).max():
        raise ValueError(f"section origin is not positive semidefinite "
                         f"(minimum eigenvalue {d[0]:.3e})")
    face = d > BOUNDARY_TOL * d[-1]
    off_face = V[:, ~face].conj().T
    for axis in (B, C):
        if (np.linalg.norm(off_face @ axis)
                > BOUNDARY_TOL * max(1.0, np.linalg.norm(axis))):
            raise ValueError("section axis leaves the face of the origin: "
                             "the boundary passes through the origin")
    P = V[:, face] / np.sqrt(d[face])
    L = (np.cos(theta)[:, None, None] * (P.conj().T @ B @ P)
         + np.sin(theta)[:, None, None] * (P.conj().T @ C @ P))
    lam = np.linalg.eigvalsh(L)[:, 0]
    if np.any(lam >= 0.0):
        raise ValueError("unbounded section: a ray never leaves the "
                         "positive semidefinite cone")
    return -1.0 / lam


def scan_boundary(plane: SectionPlane, transform: str = "none",
                  n_theta: int = 720) -> BoundaryCurve:
    """Scan a positivity boundary curve in a section plane.

    transform="none" scans X = rho0 + xB + yC and labels the curve
    "source". Its samples are also those of the mapped boundary: since
    MX = Mrho0 + x MB + y MC with the mapped axes sharing the constants
    (a, b, c), the same coordinates label MX, so callers relabel the
    source curve "image_of_source" rather than rescan.
    transform="image_plane" scans the boundary of the state set in the
    image plane, X~ = Mrho0 + x MB + y MC, the solid curve of the plots.
    The image plane needs a constant trace t > 0 (|Tr MB| and |Tr MC| of
    the unit image axes at most :data:`TRACE_TOL` * t / |Mrho0|, free of
    the map's scale), not t = 1: a normalized map with m != n scales
    traces by a constant, which moves no boundary point.

    :param plane: section plane.
    :param transform: "none" or "image_plane".
    :param n_theta: number of uniformly spaced rays on [0, 2 pi).
    :return: BoundaryCurve with n_theta polar samples.
    :raises ValueError: unknown transform, an origin that is not positive
        semidefinite, an axis off the origin's face, an image plane
        without a constant positive trace, or an unbounded section
        (impossible for planes of constant positive trace).
    """
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    if transform == "none":
        return BoundaryCurve(theta, _scan_rays(plane.rho0, plane.B, plane.C, theta),
                             "source")
    if transform != "image_plane":
        raise ValueError(f"unknown transform {transform!r}")
    # Positivity along a ray does not depend on the overall scale, so
    # any plane of constant positive trace t is scanned as it is.
    t = np.trace(plane.image_rho0).real
    drift = max(abs(np.trace(plane.image_B).real), abs(np.trace(plane.image_C).real))
    if not (t > 0.0 and drift * hs_norm(plane.image_rho0) <= TRACE_TOL * t):
        raise ValueError("image plane does not have a constant positive trace; "
                         "the map must preserve trace on the plane up to a scale")
    r = _scan_rays(plane.image_rho0, plane.image_B, plane.image_C, theta)
    return BoundaryCurve(theta, r, "image_plane")


def project_point(plane: SectionPlane, X: np.ndarray) -> tuple[float, float]:
    """Orthogonal projection coordinates of X in the image frame.

    :param plane: section plane.
    :param X: Hermitian matrix of the image side's dimension.
    :return: (x, y) = HS inner products of X - image_rho0 against the
        orthonormal image axes.
    """
    X = as_hermitian(X) - plane.image_rho0
    return (hs_inner(X, plane.image_B), hs_inner(X, plane.image_C))
