import dataclasses
import json
import os
import re
import time

import numpy as np
import pytest

from posmap.bipartite import Witness, diagnostics
from posmap.builtin import (choi_lam_witness, horodecki_2x4_witness,
                            identity_witness, ring_points)
from posmap.normalize import normalize
from posmap.sections import BoundaryCurve, scan_boundary, section_of_type
from posmap.serialize import (SVG_SIZE, FormatError, atomic_write, curves_to_csv,
                              diagnostics_to_json, hermitian_from_obj,
                              hermitian_to_obj, normalization_to_json,
                              render_section_svg, rings_to_csv,
                              section_sidecar_to_json, witness_from_json,
                              witness_to_json, zeros_to_json)
from posmap.zeros import ProductZero, find_zeros


def test_witness_json_roundtrip():
    rng = np.random.default_rng(50)
    X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    W = Witness(2, 3, X + X.conj().T)
    W2 = witness_from_json(witness_to_json(W))
    assert (W2.m, W2.n) == (2, 3)
    assert np.abs(W2.matrix - W.matrix).max() == 0.0


def test_witness_json_exact_decimals():
    """repr round-trips every float bit-exactly through the text form."""
    W = choi_lam_witness()
    text = witness_to_json(W)
    assert np.abs(witness_from_json(text).matrix - W.matrix).max() == 0.0
    # stable key order for byte-identical rewrites
    assert text == witness_to_json(witness_from_json(text))


def test_witness_json_rejects_malformed():
    with pytest.raises(FormatError):
        witness_from_json("not json at all {")
    with pytest.raises(FormatError):
        witness_from_json(json.dumps({"m": 2, "n": 2}))
    obj = json.loads(witness_to_json(choi_lam_witness()))
    obj["matrix"]["entries"] = obj["matrix"]["entries"][:-1]
    with pytest.raises(FormatError):
        witness_from_json(json.dumps(obj))
    obj2 = json.loads(witness_to_json(choi_lam_witness()))
    obj2["matrix"]["entries"][0] = [True, False]
    with pytest.raises(FormatError):
        witness_from_json(json.dumps(obj2))


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_witness_json_rejects_non_finite(value):
    """json parses NaN, Infinity and integers beyond the float range."""
    obj = json.loads(witness_to_json(choi_lam_witness()))
    obj["matrix"]["entries"][4] = ["x", 0.0]
    text = json.dumps(obj).replace('"x"', value)
    with pytest.raises(FormatError, match="entry 4 is not finite"):
        witness_from_json(text)


def test_witness_json_rejects_non_hermitian():
    obj = json.loads(witness_to_json(choi_lam_witness()))
    obj["matrix"]["entries"][1] = [5.0, 5.0]
    with pytest.raises(ValueError):
        witness_from_json(json.dumps(obj))


def test_hermitian_obj_roundtrip():
    rng = np.random.default_rng(51)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    X = X + X.conj().T
    Y = hermitian_from_obj(hermitian_to_obj(X))
    assert np.abs(X - Y).max() == 0.0
    with pytest.raises(FormatError):
        hermitian_from_obj({"dim": 2, "entries": [[1.0, 0.0]]})


def test_atomic_write(tmp_path):
    target = tmp_path / "out.json"
    atomic_write(str(target), "payload\n")
    assert target.read_text() == "payload\n"
    atomic_write(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    # no stray temporaries left behind
    assert os.listdir(tmp_path) == ["out.json"]


def test_zeros_json_structure():
    W = choi_lam_witness()
    zeros = find_zeros(W, starts=25, seed=3)
    obj = json.loads(zeros_to_json(zeros))
    assert len(obj) == len(zeros)
    z0 = obj[0]
    assert set(z0) >= {"phi", "chi", "value", "kind", "hessian_spectrum", "continuum"}
    assert all(len(pair) == 2 for pair in z0["phi"])


def _zeros_oracle(zeros):
    """The zeros document as json writes the list of zero objects."""
    pairs = lambda v: [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]
    return json.dumps([
        {
            "phi": pairs(z.phi),
            "chi": pairs(z.chi),
            "value": float(z.value),
            "kind": z.kind,
            "hessian_spectrum": [float(v) for v in z.hessian_spectrum],
            "continuum": bool(z.continuum),
        }
        for z in zeros
    ], indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("witness, starts, seed", [
    (choi_lam_witness, 500, 42),
    (horodecki_2x4_witness, 200, 11),
    (lambda: identity_witness(3), 50, 42),
    (choi_lam_witness, 0, 42),
])
def test_zeros_json_matches_json_oracle(witness, starts, seed):
    zeros = find_zeros(witness(), starts=starts, seed=seed)
    assert zeros_to_json(zeros) == _zeros_oracle(zeros)


@pytest.mark.parametrize("entry", ["phi", "chi", "value", "hessian_spectrum"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_zeros_json_refuses_non_finite(entry, bad):
    """json would write NaN or Infinity, which witness_from_json refuses."""
    (z,) = find_zeros(choi_lam_witness(), starts=1, seed=3)
    fields = {"phi": z.phi.copy(), "chi": z.chi.copy(), "value": z.value,
              "hessian_spectrum": z.hessian_spectrum.copy()}
    if entry == "value":
        fields["value"] = bad
    else:
        fields[entry][1] = bad
    broken = ProductZero(kind=z.kind, continuum=z.continuum, **fields)
    with pytest.raises(ValueError, match="zero 1 has an entry that is not finite"):
        zeros_to_json([z, broken])


def test_zeros_json_refuses_mixed_shapes():
    """A zeros document holds the zeros of one witness."""
    zeros = (find_zeros(choi_lam_witness(), starts=1, seed=3)
             + find_zeros(horodecki_2x4_witness(), starts=5, seed=3)[:1])
    with pytest.raises(ValueError, match="must share their shapes"):
        zeros_to_json(zeros)


def test_normalization_json_structure():
    res = normalize(choi_lam_witness())
    obj = json.loads(normalization_to_json(res))
    assert obj["iterations"] == 1
    assert obj["converged"] is True
    assert obj["witness"]["m"] == 3
    assert len(obj["history"]) == 1


def test_diagnostics_json_structure():
    obj = json.loads(diagnostics_to_json(diagnostics(choi_lam_witness())))
    assert obj["m"] == 3 and obj["n"] == 3
    assert obj["psd"] is False
    assert isinstance(obj["partial_trace_1"], dict)
    assert abs(obj["min_eig_pt"] - (-0.5)) < 1e-12


def test_curves_csv_format():
    plane = section_of_type("D", identity_witness(3))
    curve = scan_boundary(*plane.source, n_theta=8)
    image = scan_boundary(*plane.image, n_theta=8)
    text = curves_to_csv(curve, image)
    lines = text.strip().split("\n")
    assert lines[0] == "theta,r,label"
    assert len(lines) == 25
    theta, r, label = lines[1].split(",")
    assert label == "source"
    assert float(theta) == curve.theta[0]
    assert float(r) == curve.r[0]


def test_rings_csv_format():
    thetas = np.linspace(0, 2 * np.pi, 5, endpoint=False)
    points = ring_points(thetas)
    plus = points[0]
    text = rings_to_csv(thetas, points)
    lines = text.strip().split("\n")
    assert lines[0] == "theta,branch,x,y,z"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[1] == "1"
    assert float(first[2]) == plus[0, 0]


def test_svg_renderer():
    plane = section_of_type("D", identity_witness(3))
    curve = scan_boundary(*plane.source, n_theta=16)
    image = scan_boundary(*plane.image, n_theta=16)
    svg = render_section_svg(curve, image, markers={"origin": (0.0, 0.0)})
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "polygon" in svg
    assert "origin" in svg
    assert "id=" not in svg  # nothing nondeterministic
    assert svg.count("<polygon") == 2 and svg.count("stroke-dasharray") == 1
    assert render_section_svg(curve, image, markers={"origin": (0.0, 0.0)}) == svg


# Writer references: the same documents formatted one row or point at a
# time, float by float. The stacked writers must give the same bytes.

def _curves_csv_reference(source, image_plane):
    lines = ["theta,r,label"]
    for curve, label in ((source, "source"), (source, "image_of_source"),
                         (image_plane, "image_plane")):
        for theta, r in zip(curve.theta, curve.r):
            lines.append(f"{float(theta)!r},{float(r)!r},{label}")
    return "\n".join(lines) + "\n"


def _rings_csv_reference(theta, points):
    lines = ["theta,branch,x,y,z"]
    for branch, pts in zip((1, -1), points):
        for t, p in zip(theta, pts):
            lines.append(f"{float(t)!r},{branch},"
                         f"{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}")
    return "\n".join(lines) + "\n"


def _polygon_reference(xy, cx, cy, scale):
    def to_px(x, y):
        return (SVG_SIZE / 2 + (x - cx) * scale,
                SVG_SIZE / 2 - (y - cy) * scale)
    return " ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(x, y) for x, y in xy))


# Signed zeros, subnormals, the float range's ends and repr-length digits.
SPECIAL = np.array([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
                    1e300, -1e300, 0.1, 1 / 3, np.pi, 1e16, 123456789.125])


def _scanned(n_theta):
    plane = section_of_type("diag", choi_lam_witness())
    return (scan_boundary(*plane.source, n_theta=n_theta),
            scan_boundary(*plane.image, n_theta=n_theta))


@pytest.mark.parametrize("curves", [
    (BoundaryCurve(SPECIAL, SPECIAL[::-1]), BoundaryCurve(-SPECIAL, SPECIAL)),
    (BoundaryCurve([0.0], [1e300]), BoundaryCurve([-0.0], [5e-324])),
    _scanned(1), _scanned(37)])
def test_curves_csv_matches_the_row_reference(curves):
    assert curves_to_csv(*curves) == _curves_csv_reference(*curves)


@pytest.mark.parametrize("samples", [1, 7, 1000])
def test_rings_csv_matches_the_row_reference(samples):
    theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    points = ring_points(theta)
    assert rings_to_csv(theta, points) == _rings_csv_reference(theta, points)
    special = np.stack([SPECIAL, -SPECIAL, SPECIAL[::-1]], axis=1)
    points = np.stack([special, special[::-1]])
    assert rings_to_csv(SPECIAL, points) == _rings_csv_reference(SPECIAL, points)


class _Points:
    """A curve as the renderer reads it: its Cartesian points."""

    def __init__(self, xy):
        self._xy = np.asarray(xy, dtype=float)

    def xy(self):
        return self._xy


@pytest.mark.parametrize("half, center", [(270.0, 0.0), (135.0, 0.0), (4.0, 0.0),
                                          (4.0, 1.5)])
def test_svg_polygons_match_the_point_reference(half, center):
    """Markers at center + (-half, -half) and center + (half, half) fix
    the frame: its center is exact, and so is the scale
    (SVG_SIZE - 2 SVG_PAD) / (2 half). At scale 1 and 2 about the origin
    the points with fractions .125, .375, .625 and .875 land exactly on
    .xx5 pixels, where %.2f rounds half to even."""
    scale = 270.0 / half
    rng = np.random.default_rng(5)
    steps = np.array([0.125, 0.375, 0.625, 0.875, 0.005, 0.015])
    exact = np.column_stack([rng.integers(-100, 100, 24) + rng.choice(steps, 24),
                             rng.integers(-100, 100, 24) + rng.choice(steps, 24)])
    source, image = _scanned(90)
    cases = [(_Points(center + exact / scale), _Points(center + exact[::-1] / scale)),
             (source, image)]
    markers = {"low": (center - half, center - half),
               "high": (center + half, center + half), "none": None}
    for curves in cases:
        xys = [curve.xy() for curve in curves]
        assert all(np.abs(xy - center).max() <= half for xy in xys)
        svg = render_section_svg(*curves, markers)
        found = re.findall(r'points="([^"]*)"', svg)
        assert found == [_polygon_reference(xy, center, center, scale) for xy in xys]


def test_documents_refuse_non_finite_numbers():
    """What the readers refuse, no writer writes: a NaN or infinite
    number raises ValueError in place of a NaN or Infinity token."""
    plane = section_of_type("diag", choi_lam_witness())
    for marker in ((-np.inf, 1.0), (np.nan, 0.0)):
        with pytest.raises(ValueError, match="not JSON compliant"):
            section_sidecar_to_json("diag", plane, 8, 1, {"rho2_image": marker})
    result = normalize(choi_lam_witness())
    with pytest.raises(ValueError, match="not JSON compliant"):
        normalization_to_json(dataclasses.replace(result, history=[*result.history, np.inf]))


def _diag_svg(c):
    """SVG of the diag section of c * choi-lam, 60 rays, with the rho1
    marker, which scales with the map as the curves do."""
    plane = section_of_type("diag", Witness(3, 3, c * choi_lam_witness().matrix))
    markers = {"rho1_image": (1.0 / plane.abc[0], 0.0)}
    return render_section_svg(scan_boundary(*plane.source, n_theta=60),
                              scan_boundary(*plane.image, n_theta=60), markers)


def _polygon_extent(svg):
    xy = np.array([[float(v) for v in pair.split(",")]
                   for points in re.findall(r'points="([^"]*)"', svg)
                   for pair in points.split()])
    return np.concatenate([xy.min(axis=0), xy.max(axis=0)])


def test_svg_ticks_bounded_at_any_map_scale():
    """The 0.25 tick grid coarsens where it would crowd the picture: at
    c = 1e6 the plane spans ~1e6 units, and a tick every 0.25 units drew
    13.4 M lines in 44 s."""
    t0 = time.perf_counter()
    svg = _diag_svg(1e6)
    assert time.perf_counter() - t0 < 0.5
    assert svg.count("<line") < 100


def test_svg_fills_the_picture_at_any_map_scale():
    """The span floor is relative to the coordinates: at c = 1e-12 the
    curves fill the picture as at c = 1, not 0.76 px of it."""
    extent = _polygon_extent(_diag_svg(1.0))
    assert extent[2] - extent[0] > 400
    assert np.abs(_polygon_extent(_diag_svg(1e-12)) - extent).max() <= 0.01
