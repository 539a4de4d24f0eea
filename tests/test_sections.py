import numpy as np
import pytest

from posmap.bipartite import Witness
from posmap.builtin import (choi_lam_tangent_section, choi_lam_witness,
                            identity_witness)
from posmap.hermitian import hs_inner, hs_norm
from posmap.sections import (BOUNDARY_TOL, SECTION_TYPES, SectionPlane,
                             plane_from_states, project_point, scan_boundary,
                             section_of_type, _scan_rays)


def _diag_plane(W=identity_witness(3)):
    e = np.eye(3)
    return plane_from_states(np.eye(3) / 3, np.outer(e[0], e[0]), np.outer(e[1], e[1]),
                             W)


def test_plane_axes_orthonormal():
    plane = _diag_plane()
    assert abs(hs_norm(plane.B) - 1.0) < 1e-12
    assert abs(hs_norm(plane.C) - 1.0) < 1e-12
    assert abs(hs_inner(plane.B, plane.C)) < 1e-12
    assert abs(np.trace(plane.B)) < 1e-13
    assert abs(np.trace(plane.C)) < 1e-13
    a, b, c = plane.abc
    assert a > 0 and b > 0


def test_plane_rejects_degenerate():
    """Equal states, or a map (here a small one) that sends both axis
    directions onto one image difference, collapse the plane."""
    e = np.eye(3)
    rho1 = np.outer(e[0], e[0])
    with pytest.raises(ValueError):
        plane_from_states(np.eye(3) / 3, rho1, rho1, identity_witness(3))
    W = Witness(3, 3, 1e-6 * np.kron(np.diag([1.0, 0.0, 0.0]), np.eye(3)))
    with pytest.raises(ValueError, match="collapses"):
        plane_from_states(np.eye(3) / 3, rho1, np.outer(e[1], e[1]), W)


def test_plane_rejects_wrong_trace():
    e = np.eye(3)
    with pytest.raises(ValueError):
        plane_from_states(np.eye(3), np.outer(e[0], e[0]), np.outer(e[1], e[1]),
                          identity_witness(3))


def test_point_recovers_states():
    """rho1 and rho2 sit at (1/a, 0) and (-c/(a b), 1/b)."""
    e = np.eye(3)
    rho0 = np.eye(3) / 3
    rho1 = np.outer(e[0], e[0])
    rho2 = np.outer(e[1], e[1])
    plane = plane_from_states(rho0, rho1, rho2, identity_witness(3))
    a, b, c = plane.abc
    assert np.abs(plane.point(1 / a, 0.0) - rho1).max() < 1e-12
    assert np.abs(plane.point(-c / (a * b), 1 / b) - rho2).max() < 1e-12
    assert project_point(plane, rho1) == pytest.approx((1 / a, 0.0), abs=1e-12)
    assert project_point(plane, rho2) == pytest.approx((-c / (a * b), 1 / b), abs=1e-12)


def test_tangent_section_constants():
    """Image-frame constants (sqrt(6), 3, -3) and image axes -B/2, -C/2."""
    W = choi_lam_witness()
    rho0, rho1, rho2 = choi_lam_tangent_section()
    plane = plane_from_states(rho0, rho1, rho2, W)
    a, b, c = plane.abc
    assert abs(a - np.sqrt(6)) < 1e-12
    assert abs(b - 3.0) < 1e-12
    assert abs(c - (-3.0)) < 1e-12
    assert np.abs(plane.image_B - (-plane.B / 2)).max() < 1e-12
    assert np.abs(plane.image_C - (-plane.C / 2)).max() < 1e-12
    assert abs(hs_norm(plane.B) - 1.0) > 0.5  # source axes not unit here


def test_diag_section_image_constants():
    W = choi_lam_witness()
    plane = _diag_plane(W)
    a, b, c = plane.abc
    assert abs(a - np.sqrt(6)) < 1e-12
    assert abs(b - 2 * np.sqrt(2)) < 1e-12
    assert abs(c - np.sqrt(2)) < 1e-12


def test_scan_source_triangle():
    """Source boundary of the diagonal section passes through rho1."""
    plane = _diag_plane()
    curve = scan_boundary(plane)
    assert curve.label == "source"
    assert curve.theta.shape == (720,)
    a = plane.abc[0]
    assert abs(curve.r[0] - 1 / a) < 1e-9
    # every boundary point is a PSD unit-trace matrix
    for k in range(0, 720, 90):
        X = plane.point(*(curve.r[k] * np.array([np.cos(curve.theta[k]), np.sin(curve.theta[k])])))
        assert np.linalg.eigvalsh(X)[0] > -1e-9
        assert abs(np.trace(X).real - 1.0) < 1e-12


def test_scan_boundary_tightness():
    """On every CLI plane of choi-lam, source and image side, the reported
    point sits on the PSD boundary to 1e-12, and stepping 0.1% beyond the
    reported radius leaves the cone.

    Eigenvalues are taken on the origin's face: the singular origin of
    type E keeps its kernel eigenvalue 0 along the whole plane.
    """
    W = choi_lam_witness()
    for kind in SECTION_TYPES:
        plane = section_of_type(kind, W)
        for transform, (origin, B, C) in (
                ("none", (plane.rho0, plane.B, plane.C)),
                ("image_plane", (plane.image_rho0, plane.image_B, plane.image_C))):
            curve = scan_boundary(plane, transform=transform, n_theta=36)
            d, V = np.linalg.eigh(origin)
            F = V[:, d > BOUNDARY_TOL * d[-1]]
            U = (np.cos(curve.theta)[:, None, None] * B
                 + np.sin(curve.theta)[:, None, None] * C)
            for step, check in ((1.0, lambda low: np.abs(low) < 1e-12),
                                (1.001, lambda low: low < 0)):
                X = origin + step * curve.r[:, None, None] * U
                low = np.linalg.eigvalsh(F.conj().T @ X @ F)[:, 0]
                assert np.all(check(low)), (kind, transform, step, low)


def test_scan_labels_and_carryover():
    W = choi_lam_witness()
    plane = _diag_plane(W)
    src = scan_boundary(plane)
    solid = scan_boundary(plane, transform="image_plane")
    assert src.label == "source"
    assert solid.label == "image_plane"
    with pytest.raises(ValueError):
        scan_boundary(plane, transform="sideways")


def test_diag_image_plane_is_medial_triangle():
    """The mapped source triangle is the image triangle rotated 60 degrees
    and scaled by one half, pointwise over the ray grid."""
    W = choi_lam_witness()
    plane = _diag_plane(W)
    dashed = scan_boundary(plane)
    solid = scan_boundary(plane, transform="image_plane")
    n = dashed.r.size
    shift = n // 6  # 60 degrees
    assert np.abs(np.roll(solid.r, shift) / 2 - dashed.r).max() < 1e-8
    # the 3-fold symmetry makes the opposite rotation work too
    assert np.abs(np.roll(solid.r, -shift) / 2 - dashed.r).max() < 1e-8


def test_section_of_type_random_planes():
    W = identity_witness(3)
    for kind in ("A", "B", "C"):
        plane = section_of_type(kind, W, seed=5)
        assert isinstance(plane, SectionPlane)
        assert abs(np.trace(plane.rho0).real - 1.0) < 1e-12
    # deterministic in the seed
    p1 = section_of_type("A", W, seed=5)
    p2 = section_of_type("A", W, seed=5)
    assert np.abs(p1.rho0 - p2.rho0).max() == 0.0


def test_section_type_d_pure_origin_mix():
    plane = section_of_type("D", identity_witness(3))
    e = np.eye(3)
    assert np.abs(plane.rho0 - np.eye(3) / 3).max() < 1e-12
    assert np.abs(plane.point(*project_point(plane, np.outer(e[0], e[0]))) - np.outer(e[0], e[0])).max() < 1e-12


def test_section_type_e_boundary_circle():
    """Rank-2 sections have a circular pure-state boundary of radius 1/sqrt(2).

    The scan origin (even mix of the three states) is off the circle's
    center, so the raw radii vary; a least-squares circle fit recovers
    the pure-state sphere radius.
    """
    plane = section_of_type("E", identity_witness(3))
    curve = scan_boundary(plane, n_theta=90)
    xy = curve.xy()
    A = np.column_stack([2 * xy[:, 0], 2 * xy[:, 1], np.ones(len(xy))])
    rhs = (xy ** 2).sum(axis=1)
    (cx, cy, d), *_ = np.linalg.lstsq(A, rhs, rcond=None)
    R = np.sqrt(d + cx * cx + cy * cy)
    assert abs(R - 1 / np.sqrt(2)) < 1e-9
    dist = np.hypot(xy[:, 0] - cx, xy[:, 1] - cy)
    assert np.abs(dist - R).max() < 1e-8
    X = plane.point(*xy[13])
    vals = np.linalg.eigvalsh(X)
    assert abs(vals[-1] - 1.0) < 1e-8  # pure state on the boundary


@pytest.mark.parametrize("kind, k", [("D", 2), ("diag", 2),
                                     ("F", 2), ("F", 4), ("tangent", 4)])
def test_section_type_checks_k(kind, k):
    """Each type checks the map's source dimension k up front, with an
    error naming k: D and diag need three basis states, F and tangent
    are the 3 x 3 plane of the Choi-Lam continuum."""
    with pytest.raises(ValueError, match=f"got k = {k}"):
        section_of_type(kind, identity_witness(k))


def test_diag_and_tangent_are_d_and_f_on_choi_lam():
    """On a 3 x 3 map, diag is type D and tangent is type F, on the
    source and the image side, entry for entry."""
    W = choi_lam_witness()
    for alias, kind in (("diag", "D"), ("tangent", "F")):
        p, q = section_of_type(alias, W), section_of_type(kind, W)
        for name in ("rho0", "B", "C", "image_rho0", "image_B", "image_C"):
            assert np.array_equal(getattr(p, name), getattr(q, name)), (alias, name)
        assert p.abc == q.abc


@pytest.mark.parametrize("c", [1e-8, 1e-4, 1.0, 1e8])
def test_image_plane_free_of_the_map_scale(c):
    """Scaling the map by c scales the image axes and so the image-plane
    radii by c, and (a, b, c) by 1/c: the collinearity test compares the
    Gram determinant with g11 g22, not with an absolute floor."""
    W = choi_lam_witness()
    cW = Witness(3, 3, c * W.matrix)
    for kind in ("diag", "tangent", "A"):
        plane, scaled = section_of_type(kind, W), section_of_type(kind, cW)
        assert np.allclose(np.array(scaled.abc) * c, plane.abc, rtol=1e-12, atol=0)
        r, rc = (scan_boundary(p, transform="image_plane", n_theta=36).r
                 for p in (plane, scaled))
        assert np.allclose(rc / c, r, rtol=1e-12, atol=0), kind


def test_tangent_runs_on_a_3xn_map():
    """tangent needs only a 3 x 3 source: choi-lam followed by an
    isometry into C^4 has the same image boundary as choi-lam."""
    W = choi_lam_witness()
    K = np.kron(np.eye(3), np.eye(4, 3))
    W4 = Witness(3, 4, K @ W.matrix @ K.T)
    r3, r4 = (scan_boundary(section_of_type("tangent", w), transform="image_plane",
                            n_theta=36).r for w in (W, W4))
    assert np.abs(r4 / r3 - 1).max() < 1e-12


def test_unknown_section_type():
    with pytest.raises(ValueError):
        section_of_type("Q", identity_witness(3))


def test_scan_rays_unbounded_error():
    # a non-traceless direction keeps X = I + r I positive forever
    theta = np.array([0.0])
    with pytest.raises(ValueError):
        _scan_rays(np.eye(2), np.eye(2), np.zeros((2, 2)), theta)


def test_scan_rejects_indefinite_origin():
    e = np.eye(3)
    plane = plane_from_states(np.diag([1.2, -0.1, -0.1]), np.outer(e[0], e[0]),
                              np.outer(e[1], e[1]), identity_witness(3))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        scan_boundary(plane)


def test_scan_rejects_axes_off_the_origin_face():
    """A pure origin e0 e0^dag with an axis towards I/3: every ray leaves
    the cone at once, so there is no boundary curve to report."""
    e = np.eye(3)
    plane = plane_from_states(np.outer(e[0], e[0]), np.eye(3) / 3,
                              np.outer(e[1], e[1]), identity_witness(3))
    with pytest.raises(ValueError, match="face"):
        scan_boundary(plane)


def test_scan_deterministic():
    plane = _diag_plane()
    c1 = scan_boundary(plane, n_theta=64)
    c2 = scan_boundary(plane, n_theta=64)
    assert np.abs(c1.r - c2.r).max() == 0.0
