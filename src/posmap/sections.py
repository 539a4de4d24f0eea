"""Two dimensional sections through the set of density matrices.

A section plane is an affine 2D slice of the trace-one Hermitian
matrices, spanned by traceless axes B, C built from three states: the
origin rho0 and two states rho1, rho2 fixing the axis directions,

    B = a (rho1 - rho0),    C = b (rho2 - rho0) + c (rho1 - rho0).

The constants (a, b, c) orthonormalize either the source axes or, for
visualizing a positive map, the image axes Mrho1 - Mrho0 and
Mrho2 - Mrho0 (the same constants then apply on both sides, so one
coordinate pair (x, y) labels both X = rho0 + xB + yC and its image
MX simultaneously). Boundary curves are polar ray scans in closed
form: along the ray at angle theta, X = rho0 + r U with
U = cos(theta) B + sin(theta) C stays positive semidefinite up to
r* = -1 / lambda_min(L), where L = rho0^(-1/2) U rho0^(-1/2) is taken on
the face (support) of rho0. The axes must lie in that face, which holds
for a singular origin whose plane stays on the boundary (type E).
"""

from dataclasses import dataclass, field

import numpy as np

from .bipartite import Witness, apply_map
from .hermitian import as_hermitian, hs_inner

__all__ = [
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


# =============================================================================
# Plane and curve containers
# =============================================================================

@dataclass(frozen=True)
class SectionPlane:
    """Affine plane rho0 + x B + y C in trace-one Hermitian matrix space.

    ``norm_frame`` records which side the constants (a, b, c) were chosen
    to orthonormalize: "source" for B, C themselves, "image" for the
    mapped axes. For an image-framed plane the mapped origin and axes are
    stored as well, so projections in the declared frame need no map.
    """

    rho0: np.ndarray
    B: np.ndarray
    C: np.ndarray
    abc: tuple
    norm_frame: str
    image_rho0: np.ndarray = field(default=None, repr=False)
    image_B: np.ndarray = field(default=None, repr=False)
    image_C: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.norm_frame not in ("source", "image"):
            raise ValueError(f"unknown norm_frame {self.norm_frame!r}")
        rho0 = as_hermitian(self.rho0)
        B = as_hermitian(self.B)
        C = as_hermitian(self.C)
        if abs(np.trace(rho0).real - 1.0) > TRACE_TOL:
            raise ValueError("section origin must have trace 1")
        for axis in (B, C):
            if abs(np.trace(axis).real) > TRACE_TOL:
                raise ValueError("section axes must be traceless")
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def k(self) -> int:
        return self.rho0.shape[0]

    def point(self, x: float, y: float) -> np.ndarray:
        """Matrix at plane coordinates (x, y)."""
        return self.rho0 + x * self.B + y * self.C

    def frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(origin, axis1, axis2) of the declared orthonormal frame."""
        if self.norm_frame == "image":
            return self.image_rho0, self.image_B, self.image_C
        return self.rho0, self.B, self.C


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
                      norm_frame: str = "source",
                      W: Witness = None) -> SectionPlane:
    """Build a section plane through three trace-one Hermitian matrices.

    The constants are fixed by Gram-Schmidt: a = 1/|d1|,
    c = -b <d1, d2>/|d1|^2 and b normalizing the orthogonal complement,
    where d1, d2 are the axis differences of the declared frame (source:
    rho_i - rho0; image: M rho_i - M rho0). Always a > 0 and b > 0, so
    rho1 sits at y = 0, x > 0 in the declared frame.

    :param rho0: origin state (trace 1).
    :param rho1: state fixing the x axis direction.
    :param rho2: second spanning state; need not be positive
        semidefinite, only Hermitian with trace 1.
    :param norm_frame: which side to orthonormalize, "source" or "image".
    :param W: witness whose map defines the image frame; required for
        norm_frame="image".
    :return: SectionPlane.
    :raises ValueError: linearly dependent differences, or a map that
        collapses the plane.
    """
    rho0 = as_hermitian(rho0)
    rho1 = as_hermitian(rho1)
    rho2 = as_hermitian(rho2)
    for rho in (rho0, rho1, rho2):
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
            raise ValueError("section states must have trace 1")
    d1 = rho1 - rho0
    d2 = rho2 - rho0
    if norm_frame == "image":
        if W is None:
            raise ValueError("norm_frame='image' requires a witness")
        img0 = apply_map(W, rho0)
        g1 = apply_map(W, rho1) - img0
        g2 = apply_map(W, rho2) - img0
    elif norm_frame == "source":
        g1, g2 = d1, d2
    else:
        raise ValueError(f"unknown norm_frame {norm_frame!r}")

    g11 = hs_inner(g1, g1)
    g12 = hs_inner(g1, g2)
    g22 = hs_inner(g2, g2)
    gram = g11 * g22 - g12 * g12
    if gram <= GRAM_TOL:
        if norm_frame == "image":
            raise ValueError("map collapses the section plane "
                             "(image differences linearly dependent)")
        raise ValueError("rho1 - rho0 and rho2 - rho0 are linearly dependent")

    a = 1.0 / np.sqrt(g11)
    b = 1.0 / np.sqrt(g22 - g12 * g12 / g11)
    c = -b * g12 / g11

    B = a * d1
    C = b * d2 + c * d1
    if norm_frame == "image":
        return SectionPlane(rho0, B, C, (a, b, c), "image",
                            image_rho0=img0,
                            image_B=a * g1,
                            image_C=b * g2 + c * g1)
    return SectionPlane(rho0, B, C, (a, b, c), "source")


def _random_state(rng: np.random.Generator, k: int, rank: int) -> np.ndarray:
    """Trace-one PSD matrix V V^dag with V a k x rank complex Gaussian."""
    V = rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank))
    rho = V @ V.conj().T
    return rho / np.trace(rho).real


def _pure(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=complex)
    return np.outer(phi, phi.conj()) / (np.linalg.norm(phi) ** 2)


def section_of_type(kind: str, k: int = 3, vectors=None, seed: int = 42,
                    norm_frame: str = "source",
                    W: Witness = None) -> SectionPlane:
    """Construct one of the six standard section types A-F.

    A: rho1, rho2 random rank-2 states, origin I/k.
    B: rho1 a random pure state, rho2 random full rank, origin I/k.
    C: rho1, rho2 both random pure states, origin I/k.
    D: simplex plane of three pure states from linearly independent
       vectors (default the standard basis), origin the even mix.
    E: as D but with linearly dependent vectors (default e1, e2,
       (e1+e2)/sqrt(2)); the plane cuts a Bloch sphere lying in the
       boundary, so interior points have rank 2.
    F: rho1 = phi1 phi1^dag pure, rho2 = rho1 + phi1 xi^dag + xi phi1^dag
       with xi orthogonal to phi1 (first-order pure direction), origin
       I/k; vectors = (phi1, xi). Default is the tangent plane at the
       Choi-Lam continuum zero phi = (1,1,1)/sqrt(3), xi = i e2/sqrt(3).

    :param kind: one of "A".."F".
    :param k: matrix dimension (types D-F with default vectors need k=3;
        the vectors passed for types D-F have length k).
    :param vectors: type-specific vector inputs, see above.
    :param seed: RNG seed for the random types A-C.
    :param norm_frame: passed to plane_from_states.
    :param W: witness for norm_frame="image".
    :return: SectionPlane.
    :raises ValueError: rank or independence preconditions violated.
    """
    rng = np.random.default_rng(seed)
    eye = np.eye(k, dtype=complex)
    if kind == "A":
        rho0 = eye / k
        rho1 = _random_state(rng, k, 2)
        rho2 = _random_state(rng, k, 2)
    elif kind == "B":
        rho0 = eye / k
        rho1 = _random_state(rng, k, 1)
        rho2 = _random_state(rng, k, k)
    elif kind == "C":
        rho0 = eye / k
        rho1 = _random_state(rng, k, 1)
        rho2 = _random_state(rng, k, 1)
    elif kind in ("D", "E"):
        if vectors is None:
            if kind == "D":
                vectors = (eye[:, 0], eye[:, 1], eye[:, 2]) if k >= 3 else None
            else:
                v3 = (eye[:, 0] + eye[:, 1]) / np.sqrt(2.0)
                vectors = (eye[:, 0], eye[:, 1], v3)
        if vectors is None or len(vectors) != 3:
            raise ValueError(f"type {kind} needs three vectors")
        vectors = [np.asarray(v, dtype=complex) for v in vectors]
        if any(v.shape != (k,) for v in vectors):
            raise ValueError(f"type {kind} vectors must have length k = {k}")
        V = np.column_stack(vectors)
        rank = np.linalg.matrix_rank(V, tol=1e-12)
        if kind == "D" and rank != 3:
            raise ValueError("type D vectors must be linearly independent")
        if kind == "E" and rank != 2:
            raise ValueError("type E vectors must span exactly two dimensions")
        pures = [_pure(V[:, i]) for i in range(3)]
        rho0 = (pures[0] + pures[1] + pures[2]) / 3.0
        rho1, rho2 = pures[0], pures[1]
    elif kind == "F":
        if vectors is None:
            if k != 3:
                raise ValueError(f"type F default vectors need k = 3, got {k}")
            phi1 = np.ones(3, dtype=complex) / np.sqrt(3.0)
            xi = np.array([0.0, 1j, 0.0]) / np.sqrt(3.0)
        else:
            phi1, xi = (np.asarray(v, dtype=complex) for v in vectors)
            if phi1.shape != (k,) or xi.shape != (k,):
                raise ValueError(f"type F vectors must have length k = {k}")
        # Only the real part of the overlap matters: an imaginary-parallel
        # component of xi is a phase rotation of phi1 and cancels in D.
        if abs(np.vdot(phi1, xi).real) > 1e-10 * np.linalg.norm(phi1) * np.linalg.norm(xi):
            raise ValueError("type F needs xi orthogonal to phi1 "
                             "(real part of the overlap)")
        phi1 = phi1 / np.linalg.norm(phi1)
        rho0 = eye / k
        rho1 = np.outer(phi1, phi1.conj())
        rho2 = rho1 + np.outer(phi1, xi.conj()) + np.outer(xi, phi1.conj())
    else:
        raise ValueError(f"unknown section type {kind!r}")
    return plane_from_states(rho0, rho1, rho2, norm_frame=norm_frame, W=W)


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
                  W: Witness = None, n_theta: int = 720) -> BoundaryCurve:
    """Scan a positivity boundary curve in a section plane.

    transform="none" scans X = rho0 + xB + yC and labels the curve
    "source". transform="map" returns the same samples labeled
    "image_of_source": the coordinates of the mapped boundary are
    identical because MX = Mrho0 + x MB + y MC, with the mapped axes
    sharing the constants (a, b, c). transform="image_plane" scans
    boundary of the state set in the image plane,
    X~ = Mrho0 + x MB + y MC, the solid curve of the plots.

    :param plane: section plane.
    :param transform: "none", "map" or "image_plane".
    :param W: witness providing the map; required for "image_plane" when
        the plane does not carry image axes (i.e. norm_frame="source").
    :param n_theta: number of uniformly spaced rays on [0, 2 pi).
    :return: BoundaryCurve with n_theta polar samples.
    :raises ValueError: unknown transform, a missing witness, an origin
        that is not positive semidefinite, an axis off the origin's face,
        or an unbounded section (impossible for trace-one planes).
    """
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    if transform in ("none", "map"):
        r = _scan_rays(plane.rho0, plane.B, plane.C, theta)
        label = "source" if transform == "none" else "image_of_source"
        return BoundaryCurve(theta, r, label)
    if transform != "image_plane":
        raise ValueError(f"unknown transform {transform!r}")
    if plane.image_rho0 is not None:
        origin, Bi, Ci = plane.image_rho0, plane.image_B, plane.image_C
    elif W is not None:
        origin = apply_map(W, plane.rho0)
        Bi = apply_map(W, plane.B)
        Ci = apply_map(W, plane.C)
    else:
        raise ValueError("transform='image_plane' requires a witness "
                         "or an image-framed plane")
    if abs(np.trace(origin).real - 1.0) > TRACE_TOL:
        raise ValueError("image origin is not trace-one; "
                         "the map must preserve trace on the plane")
    r = _scan_rays(origin, Bi, Ci, theta)
    return BoundaryCurve(theta, r, "image_plane")


def project_point(plane: SectionPlane, X: np.ndarray) -> tuple[float, float]:
    """Orthogonal projection coordinates of X in the declared frame.

    :param plane: section plane (source frame uses rho0, B, C; image
        frame uses the stored mapped origin and axes).
    :param X: Hermitian matrix of the plane's dimension.
    :return: (x, y) = HS inner products against the frame axes.
    """
    origin, A1, A2 = plane.frame()
    X = as_hermitian(X)
    return (hs_inner(X - origin, A1), hs_inner(X - origin, A2))
