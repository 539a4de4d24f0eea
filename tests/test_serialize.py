import json
import os

import numpy as np
import pytest

from posmap.bipartite import Witness, diagnostics
from posmap.builtin import (choi_lam_witness, horodecki_2x4_witness,
                            identity_witness, ring_points)
from posmap.normalize import normalize
from posmap.sections import scan_boundary, section_of_type
from posmap.serialize import (FormatError, atomic_write, curves_to_csv,
                              diagnostics_to_json, hermitian_from_obj,
                              hermitian_to_obj, normalization_to_json,
                              render_section_svg, rings_to_csv,
                              witness_from_json, witness_to_json,
                              zeros_to_json)
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
    curve = scan_boundary(plane, n_theta=8)
    text = curves_to_csv([curve])
    lines = text.strip().split("\n")
    assert lines[0] == "theta,r,label"
    assert len(lines) == 9
    theta, r, label = lines[1].split(",")
    assert label == "source"
    assert float(theta) == curve.theta[0]
    assert float(r) == curve.r[0]


def test_rings_csv_format():
    thetas = np.linspace(0, 2 * np.pi, 5, endpoint=False)
    plus = ring_points(thetas, branch=+1)
    minus = ring_points(thetas, branch=-1)
    text = rings_to_csv(thetas, plus, minus)
    lines = text.strip().split("\n")
    assert lines[0] == "theta,branch,x,y,z"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[1] == "1"
    assert float(first[2]) == plus[0, 0]


def test_svg_renderer():
    plane = section_of_type("D", identity_witness(3))
    curve = scan_boundary(plane, n_theta=16)
    svg = render_section_svg([curve], markers={"origin": (0.0, 0.0)})
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "polygon" in svg
    assert "origin" in svg
    assert "id=" not in svg  # nothing nondeterministic
    assert render_section_svg([curve], markers={"origin": (0.0, 0.0)}) == svg
