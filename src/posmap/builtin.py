"""Reference witnesses and maps.

Two elementary maps (identity and transposition), the classic extremal
positive map on 3 x 3 matrices with its witness and zero structure, and
an extremal positive map from 2 x 2 to 4 x 4 matrices defined by
nineteen fixed decimal constants, whose witness has two rings of
quartic zeros on the Bloch sphere.

The 2 x 4 constants are embedded as decimal strings and parsed once at
import; they are never retyped elsewhere. As published, the (4,2) entry
of the coefficient matrix for the y-coordinate breaks Hermiticity
against its (2,4) partner by the sign of its real part; the sign used
here is the one for which the map is positive on the whole Bloch sphere
and vanishes exactly on the two rings (the alternative goes negative at
the 1e-2 level). A checksum test freezes the parsed values.
"""

from dataclasses import dataclass

import numpy as np

from .bipartite import Witness, witness_from_map

__all__ = [
    "identity_witness",
    "transposition_witness",
    "choi_lam_map",
    "choi_lam_witness",
    "choi_lam_continuum_zero",
    "choi_lam_tangent_section",
    "horodecki_2x4_map",
    "horodecki_2x4_witness",
    "RingParams",
    "ring_points",
    "ring_common_zeros",
    "bloch_to_state",
    "state_to_bloch",
]


# =============================================================================
# Elementary maps
# =============================================================================

def identity_witness(k: int) -> Witness:
    """Witness of the identity map on k x k matrices (the swap matrix)."""
    return witness_from_map(k, k, lambda X: X)


def transposition_witness(k: int) -> Witness:
    """Witness of the transposition map X -> X^T."""
    return witness_from_map(k, k, lambda X: X.T)


# =============================================================================
# The extremal 3 x 3 map and its witness
# =============================================================================

def choi_lam_map(X: np.ndarray) -> np.ndarray:
    """The extremal positive (not completely positive) map on 3 x 3 matrices.

    M(X) = (1/2) [[X11+X33, -X12, -X13],
                  [-X21, X11+X22, -X23],
                  [-X31, -X32, X22+X33]]

    Unital and trace preserving; entrywise linear, so it extends to
    arbitrary complex input.
    """
    X = np.asarray(X, dtype=complex)
    Y = -X.copy()
    Y[0, 0] = X[0, 0] + X[2, 2]
    Y[1, 1] = X[0, 0] + X[1, 1]
    Y[2, 2] = X[1, 1] + X[2, 2]
    return Y / 2.0


def choi_lam_witness(scale: str = "map") -> Witness:
    """Witness of :func:`choi_lam_map` on C^3 (x) C^3.

    :param scale: ``"map"`` for the witness of the unital map (with the
        overall 1/2), ``"paper"`` for twice that, which makes the partial
        transpose an integer matrix: diagonal (1,1,0,0,1,1,1,0,1) and
        entries -1 linking the composite diagonal positions (1,1), (2,2),
        (3,3).
    """
    W = witness_from_map(3, 3, choi_lam_map)
    if scale == "map":
        return W
    if scale == "paper":
        return Witness(3, 3, 2.0 * W.matrix)
    raise ValueError(f"unknown scale {scale!r}, expected 'map' or 'paper'")


def choi_lam_continuum_zero(alpha: float, beta: float) -> np.ndarray:
    """Unit product-zero vector phi/sqrt(3) with phi = (e^{ia}, e^{ib}, 1).

    The witness biquadratic form vanishes on (phi, chi) exactly when chi
    is proportional to phi, and the map sends the state
    rho = phi phi^dag / 3 to (1/2)(3 rho_0 - rho) with rho_0 = I/3, a
    rank-2 boundary state with phi in its kernel.
    """
    phi = np.array([np.exp(1j * alpha), np.exp(1j * beta), 1.0])
    return phi / np.sqrt(3.0)


def choi_lam_tangent_section() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinguished section triple (rho0, rho1, rho2) at a continuum zero.

    rho0 = I/3, rho1 = the continuum state phi phi^dag / 3 with
    phi = (1, 1, 1) (alpha = beta = 0), and rho2 = rho1 + D where
    D = (i/3)(e2 (e1+e3)^dag - (e1+e3) e2^dag) spans the tangent
    direction of the continuum at rho1. In the image frame the plane axes
    come out as a = sqrt(6), b = 3.
    """
    rho0 = np.eye(3, dtype=complex) / 3.0
    phi = np.array([1.0, 1.0, 1.0], dtype=complex)
    rho1 = np.outer(phi, phi.conj()) / 3.0
    xi = np.array([0.0, 1j, 0.0])
    D = (np.outer(xi, phi.conj()) + np.outer(phi, xi.conj())) / 3.0
    return rho0, rho1, rho1 + D


# =============================================================================
# The extremal 2 x 4 map
# =============================================================================

# Nineteen decimal constants defining the coefficient matrices. Parsed
# from strings so the printed precision is preserved exactly.
_COEFF_STRINGS = (
    "0.0244482760740412", "0.2152770862261020", "0.0114377547217477",
    "0.0500075452822933", "0.0644909685779951", "0.1957836691218616",
    "0.0774551312933996", "0.0177155824920755", "0.0363521121932822",
    "0.0276760626964089", "0.0094553411157518", "0.0293657267910500",
    "0.0130745578191192", "0.1714859526438769", "0.0675990471881839",
    "0.0121590711417975", "0.0384768416753617", "0.0082070224528484",
    "0.0424325553291989",
)
_A = tuple(float(s) for s in _COEFF_STRINGS)


def _build_coefficients() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    a = (None,) + _A  # 1-based indexing to match the published labels
    b0_plus_b3 = np.array([
        [a[1], -1j * a[3], 1j * a[4], a[1]],
        [1j * a[3], a[2], 0.0, 1j * a[3]],
        [-1j * a[4], 0.0, a[2], -1j * a[4]],
        [a[1], -1j * a[3], 1j * a[4], a[1]],
    ], dtype=complex)
    b0_minus_b3 = np.array([
        [a[5], 1j * a[7], 1j * a[8], -a[5]],
        [-1j * a[7], a[6], 0.0, 1j * a[7]],
        [-1j * a[8], 0.0, a[6], 1j * a[8]],
        [-a[5], -1j * a[7], -1j * a[8], a[5]],
    ], dtype=complex)
    b1 = np.array([
        [0.0, -a[9] - 1j * a[10], a[11] - 1j * a[12], -1j * a[13]],
        [-a[9] + 1j * a[10], 0.0, -a[14] - 1j * a[15], a[11] + 1j * a[16]],
        [a[11] + 1j * a[12], -a[14] + 1j * a[15], 0.0, -a[9] - 1j * a[17]],
        [1j * a[13], a[11] - 1j * a[16], -a[9] + 1j * a[17], 0.0],
    ], dtype=complex)
    # (4,2) is the conjugate of (2,4); see the module docstring for the
    # sign resolution.
    b2 = np.array([
        [0.0, -a[11] - 1j * a[12], -a[9] + 1j * a[10], 1j * a[18]],
        [-a[11] + 1j * a[12], -a[14], 1j * a[19], a[9] - 1j * a[17]],
        [-a[9] - 1j * a[10], -1j * a[19], a[14], a[11] - 1j * a[16]],
        [-1j * a[18], a[9] + 1j * a[17], a[11] + 1j * a[16], 0.0],
    ], dtype=complex)
    b0 = (b0_plus_b3 + b0_minus_b3) / 2.0
    b3 = (b0_plus_b3 - b0_minus_b3) / 2.0
    return b0, b1, b2, b3


# The coefficient matrices (B0, B1, B2, B3) of the 2 -> 4 map.
_B0, _B1, _B2, _B3 = _build_coefficients()


def horodecki_2x4_map(X: np.ndarray) -> np.ndarray:
    """Extremal positive map from 2 x 2 to 4 x 4 matrices.

    On Hermitian input X = (1/2)[[u+z, x-iy], [x+iy, u-z]] the image is
    u B0 + x B1 + y B2 + z B3. The coordinate extraction

        u = X11 + X22,  z = X11 - X22,
        x = X12 + X21,  y = i (X12 - X21)

    is complex linear, so the map extends to arbitrary complex input.
    Neither unital nor trace preserving.
    """
    X = np.asarray(X, dtype=complex)
    u = X[0, 0] + X[1, 1]
    z = X[0, 0] - X[1, 1]
    x = X[0, 1] + X[1, 0]
    y = 1j * (X[0, 1] - X[1, 0])
    return u * _B0 + x * _B1 + y * _B2 + z * _B3


def horodecki_2x4_witness() -> Witness:
    """Witness of :func:`horodecki_2x4_map` on C^2 (x) C^4."""
    return witness_from_map(2, 4, horodecki_2x4_map)


# =============================================================================
# The rings of zeros of the 2 x 4 witness
# =============================================================================

@dataclass(frozen=True)
class RingParams:
    """Parameters of the one-parameter family of ring zeros.

    The defaults are the published values for the witness of
    :func:`horodecki_2x4_map`; other witnesses on the boundary of the
    same face differ only in ``theta0``.

    :raises ValueError: a non-finite parameter, or |b| > 1: then
        1 + s^2 - b^2 < 0 at the angle where s = 0, and the ring leaves
        the sphere.
    """

    a: float = 0.1807362587783353
    b: float = 0.047422228589395
    theta0: float = 1.121090508802759

    def __post_init__(self):
        if not np.all(np.isfinite([self.a, self.b, self.theta0])):
            raise ValueError("ring parameters a, b and theta0 must be finite")
        if abs(self.b) > 1.0:
            raise ValueError(f"ring parameter b must satisfy |b| <= 1, "
                             f"got {self.b}")


# Tolerance below which theta counts as sitting on the denominator zero.
_SINGULAR_TOL = 1e-9


def ring_points(thetas: np.ndarray, params: RingParams = RingParams()) -> np.ndarray:
    """Bloch coordinates (x, y, z) of the ring zeros at an array of angles,
    on both square-root branches.

    With s = a cos(2 theta + theta0) / cos(theta - theta0) and
    t = (-b s +- sqrt(1 + s^2 - b^2)) / (1 + s^2), the point is
    (t cos theta, t sin theta, -b - t s), which lies exactly on the unit
    sphere. At theta = theta0 +- pi/2 (mod pi) the denominator of s
    vanishes; following t -> 0, t s -> -b +- 1 as s -> +inf, angles
    within 1e-9 of these get the analytic limit from the s -> +inf side:
    (0, 0, -1) on branch +1 and (0, 0, +1) on branch -1.

    :param thetas: angles in radians.
    :param params: ring parameters (a, b, theta0).
    :return: array of shape (2, len(thetas), 3), branch +1 first, rows on
        the unit sphere.
    """
    thetas = np.asarray(thetas, dtype=float)
    a, b, theta0 = params.a, params.b, params.theta0
    den = np.cos(thetas - theta0)
    singular = np.abs(den) < _SINGULAR_TOL
    safe_den = np.where(singular, 1.0, den)
    s = a * np.cos(2.0 * thetas + theta0) / safe_den
    branch = np.array([[1.0], [-1.0]])      # the sign of the root, +1 first
    t = (-b * s + branch * np.sqrt(1.0 + s * s - b * b)) / (1.0 + s * s)
    pts = np.stack([t * np.cos(thetas), t * np.sin(thetas), -b - t * s], axis=-1)
    pts[:, singular] = [[[0.0, 0.0, -1.0]], [[0.0, 0.0, 1.0]]]
    return pts


def ring_common_zeros(params: RingParams = RingParams()) -> np.ndarray:
    """The eight zeros shared by every witness of the family.

    Six come from theta in {0, pi/3, -pi/3} on both branches (where s
    equals +-a independently of theta0) and two are the poles
    (0, 0, +-1) reached at the singular angles theta0 +- pi/2.

    :return: array of shape (8, 3), the six ring points first.
    """
    # Rows alternate branch +1 and -1 at each angle.
    ring = ring_points([0.0, np.pi / 3.0, -np.pi / 3.0], params).swapaxes(0, 1)
    return np.concatenate([ring.reshape(6, 3), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])


def bloch_to_state(p: np.ndarray) -> np.ndarray:
    """2 x 2 density matrix (1/2)(I + x sx + y sy + z sz) of a Bloch vector."""
    x, y, z = np.asarray(p, dtype=float)
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def state_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (x, y, z) of a 2 x 2 Hermitian matrix of unit trace."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([
        float((rho[0, 1] + rho[1, 0]).real),
        float((1j * (rho[0, 1] - rho[1, 0])).real),
        float((rho[0, 0] - rho[1, 1]).real),
    ])
