import json
import os
import subprocess
import sys

import numpy as np
import pytest

import posmap
from posmap.bipartite import Witness
from posmap.builtin import choi_lam_witness
from posmap.serialize import witness_from_json, witness_to_json

CLI = [sys.executable, "-m", "posmap"]
# Source directory of the imported package: the CLI subprocess runs it too.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(posmap.__file__)))


def run_env(env_extra=None):
    """Environment of a subprocess that imports posmap from SRC."""
    env = dict(os.environ)
    env.pop("POSMAP_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=run_env(env_extra), cwd=cwd)


def test_builtin_stdout_parses():
    proc = run_cli("builtin", "choi-lam")
    assert proc.returncode == 0
    W = witness_from_json(proc.stdout)
    assert (W.m, W.n) == (3, 3)
    assert abs(np.trace(W.matrix).real - 3.0) < 1e-12


def test_builtin_paper_scale(tmp_path):
    out = tmp_path / "w.json"
    proc = run_cli("builtin", "choi-lam", "--scale", "paper", "--output", str(out))
    assert proc.returncode == 0
    W = witness_from_json(out.read_text())
    assert abs(np.trace(W.matrix).real - 6.0) < 1e-12


def test_builtin_dim_flag():
    proc = run_cli("builtin", "identity", "--dim", "4")
    assert proc.returncode == 0
    assert witness_from_json(proc.stdout).m == 4


def test_inspect_builtin():
    proc = run_cli("inspect", "--builtin", "choi-lam")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert abs(report["min_eig"] - (1 - np.sqrt(5)) / 4) < 1e-12
    assert report["unitality_residual"] < 1e-14


def test_inspect_file_input(tmp_path):
    w = tmp_path / "w.json"
    run_cli("builtin", "horodecki-2x4", "--output", str(w))
    proc = run_cli("inspect", "--input", str(w))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["m"] == 2 and report["n"] == 4


def test_normalize_converged(tmp_path):
    out = tmp_path / "norm.json"
    proc = run_cli("normalize", "--builtin", "choi-lam", "--output", str(out))
    assert proc.returncode == 0
    obj = json.loads(out.read_text())
    assert obj["converged"] is True and obj["iterations"] == 1


def test_normalize_non_convergence_exit_3(tmp_path):
    out = tmp_path / "norm.json"
    proc = run_cli("normalize", "--builtin", "horodecki-2x4",
                   "--max-iter", "2", "--output", str(out))
    assert proc.returncode == 3
    assert proc.stderr.strip() != ""
    # the partial result is still written
    obj = json.loads(out.read_text())
    assert obj["converged"] is False


def test_zeros_finds_isolated():
    proc = run_cli("zeros", "--builtin", "choi-lam", "--starts", "40", "--seed", "7")
    assert proc.returncode == 0
    zeros = json.loads(proc.stdout)
    iso = [z for z in zeros if not z["continuum"]]
    assert len(iso) == 3
    assert all(z["kind"] == "quartic" for z in zeros)


@pytest.mark.parametrize("name", ["identity", "transposition"])
def test_zeros_continuum_only_builtins(name):
    """Six Hessian null directions, all on the continuum: every zero is
    flagged and the search succeeds."""
    proc = run_cli("zeros", "--builtin", name, "--starts", "5")
    assert proc.returncode == 0, proc.stderr
    zeros = json.loads(proc.stdout)
    assert zeros and all(z["continuum"] for z in zeros)


def test_zeros_exit_4_on_uncertified_zero(monkeypatch, capsys):
    """A zero whose continuum flag cannot be certified fails loudly."""
    import posmap.zeros as zeros_mod
    from posmap.cli import main
    monkeypatch.setattr(zeros_mod, "HESS_TOL", 1.0)   # six null directions
    code = main(["zeros", "--builtin", "choi-lam", "--starts", "40", "--seed", "7"])
    assert code == 4
    assert "cannot certify" in capsys.readouterr().err


def test_zeros_seed_env_override():
    with_flag = run_cli("zeros", "--builtin", "choi-lam", "--starts", "15", "--seed", "42")
    with_env = run_cli("zeros", "--builtin", "choi-lam", "--starts", "15", "--seed", "1",
                       env_extra={"POSMAP_SEED": "42"})
    assert with_flag.returncode == 0 and with_env.returncode == 0
    assert with_flag.stdout == with_env.stdout
    bad_env = run_cli("zeros", "--builtin", "choi-lam", "--starts", "15",
                      env_extra={"POSMAP_SEED": "not-a-number"})
    assert bad_env.returncode == 2


def test_section_outputs(tmp_path):
    out = tmp_path / "diag.csv"
    svg = tmp_path / "diag.svg"
    proc = run_cli("section", "--builtin", "choi-lam", "--type", "diag",
                   "--samples", "48", "--output", str(out), "--svg", str(svg))
    assert proc.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,r,label"
    labels = {ln.split(",")[2] for ln in lines[1:]}
    assert labels == {"source", "image_of_source", "image_plane"}
    assert len(lines) == 1 + 3 * 48
    meta = json.loads((tmp_path / "diag.json").read_text())
    assert meta["type"] == "diag"
    assert abs(meta["abc"][0] - np.sqrt(6)) < 1e-12
    assert {"rho1_image", "rho2_image", "max_mixed_projection"} <= set(meta["markers"])
    text = svg.read_text()
    assert text.startswith("<svg")


@pytest.mark.parametrize("failure", ["svg", "sidecar"])
def test_section_failure_leaves_no_output(monkeypatch, tmp_path, capsys, failure):
    """Every output is formed before the first is written: an SVG that
    cannot be drawn, or a sidecar with a non-finite marker, which the
    JSON writer refuses, leaves no file behind, at exit 4."""
    import posmap.cli as cli
    if failure == "svg":
        def broken(*args):
            raise ValueError("cannot draw")
        monkeypatch.setattr(cli, "render_section_svg", broken)
    else:
        monkeypatch.setattr(cli, "project_point", lambda plane, X: (np.nan, 0.0))
    code = cli.main(["section", "--builtin", "choi-lam", "--type", "diag",
                     "--samples", "24", "--output", str(tmp_path / "s.csv"),
                     "--svg", str(tmp_path / "s.svg")])
    assert code == 4
    assert list(tmp_path.iterdir()) == []


def _numbers(obj):
    """Every float of a parsed JSON document."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [v for item in obj for v in _numbers(item)]
    return [obj] if isinstance(obj, float) else []


@pytest.mark.filterwarnings("error")
def test_section_markers_scale_with_the_map(tmp_path):
    """On choi-lam scaled by 2^600 or 2^-600 the product a b of the plane
    constants leaves the float range. The markers rho1_image = (1/a, 0)
    and rho2_image = (-c/(a b), 1/b) scale with the map, since a, b and c
    scale as its inverse: they are those of choi-lam times the scale, bit
    for bit, every sidecar number is finite and the SVG is drawn."""
    from posmap.cli import main

    def sidecar(k):
        w = tmp_path / f"w{k}.json"
        w.write_text(witness_to_json(Witness(3, 3, 2.0**k * choi_lam_witness().matrix)))
        svg = tmp_path / f"s{k}.svg"
        assert main(["section", "--input", str(w), "--type", "diag",
                     "--output", str(tmp_path / f"s{k}.csv"), "--svg", str(svg)]) == 0
        assert svg.read_text().rstrip().endswith("</svg>")
        return json.loads((tmp_path / f"s{k}.json").read_text())

    base = sidecar(0)
    for k in (600, -600):
        meta = sidecar(k)
        assert np.isfinite(_numbers(meta)).all()
        for name in ("rho1_image", "rho2_image"):
            assert meta["markers"][name] == [2.0**k * v for v in base["markers"][name]]


@pytest.mark.parametrize("kind, code", [("diag", 0), ("tangent", 4)])
def test_section_at_the_subnormal_end(tmp_path, kind, code):
    """On choi-lam scaled by 2^-1022 the diag plane is scanned without a
    numpy warning, and the tangent plane, whose constants leave the float
    range, is refused by name; no LinAlgError text reaches the user."""
    w = tmp_path / "w.json"
    w.write_text(witness_to_json(Witness(3, 3, 2.0**-1022 * choi_lam_witness().matrix)))
    out = tmp_path / "s.csv"
    proc = run_cli("section", "--input", str(w), "--type", kind, "--output", str(out),
                   env_extra={"PYTHONWARNINGS": "error"})
    assert proc.returncode == code, proc.stderr
    if code:
        assert "beyond the float range" in proc.stderr
        assert not out.exists()
    else:
        assert proc.stderr == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(0.0 < float(r) < 1e-307 for _, r, _ in rows)
    assert "converge" not in proc.stderr and "Warning" not in proc.stderr


def test_section_tangent_requires_3x3():
    proc = run_cli("section", "--builtin", "horodecki-2x4", "--type", "tangent",
                   "--output", "/tmp/never-written.csv")
    assert proc.returncode == 4
    assert not os.path.exists("/tmp/never-written.csv")


@pytest.mark.parametrize("kind", ["A", "B", "C", "E"])
def test_section_on_normalized_2x4_map(tmp_path, kind):
    """A normalized 2 x 4 map scales every trace by one constant
    (Tr M(I/2) = sqrt 2), and its image plane is scanned as it is."""
    norm = tmp_path / "norm.json"
    assert run_cli("normalize", "--builtin", "horodecki-2x4",
                   "--output", str(norm)).returncode == 0
    w = tmp_path / "w.json"
    w.write_text(json.dumps(json.loads(norm.read_text())["witness"]))
    out = tmp_path / "s.csv"
    proc = run_cli("section", "--input", str(w), "--type", kind,
                   "--samples", "24", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert {label for _, _, label in rows} == {"source", "image_of_source", "image_plane"}
    assert all(0.0 < float(r) < np.inf for _, r, _ in rows)


def test_section_exit_4_on_non_trace_preserving_map(tmp_path):
    """The unnormalized horodecki-2x4 map does not keep the trace of the
    plane constant: its image plane is no scaled state section."""
    out = tmp_path / "s.csv"
    proc = run_cli("section", "--builtin", "horodecki-2x4", "--type", "A",
                   "--samples", "24", "--output", str(out))
    assert proc.returncode == 4
    assert "constant positive trace" in proc.stderr
    assert not out.exists()


def test_section_f_default_requires_dim_3(tmp_path):
    out = tmp_path / "f.csv"
    proc = run_cli("section", "--builtin", "identity", "--dim", "2", "--type", "F",
                   "--output", str(out))
    assert proc.returncode == 4
    assert "section type F needs k = 3, got k = 2" in proc.stderr
    assert not out.exists()


def test_rings_csv(tmp_path):
    out = tmp_path / "rings.csv"
    # |b| = 1 is the edge of the valid range: the ring still lies on the sphere
    for flags in ((), ("--b", "1")):
        proc = run_cli("rings", "--samples", "100", "--output", str(out), *flags)
        assert proc.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,branch,x,y,z"
        assert len(lines) == 1 + 200
        xyz = np.array([[float(v) for v in line.split(",")[2:]]
                        for line in lines[1:]])
        assert np.abs((xyz ** 2).sum(axis=1) - 1.0).max() < 1e-12, flags


def test_exit_2_on_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    proc = run_cli("inspect", "--input", str(bad))
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""
    missing = run_cli("inspect", "--input", str(tmp_path / "absent.json"))
    assert missing.returncode == 2


def test_exit_2_on_bad_flags():
    proc = run_cli("builtin", "no-such-witness")
    assert proc.returncode == 2
    proc2 = run_cli("zeros", "--builtin", "choi-lam", "--scale", "sideways")
    assert proc2.returncode == 2
    # counts below 1 and other out-of-range values are usage errors
    for args in (("zeros", "--builtin", "choi-lam", "--starts", "-5"),
                 ("section", "--builtin", "choi-lam", "--type", "A",
                  "--samples", "0", "--output", "unused.csv"),
                 ("section", "--builtin", "choi-lam", "--type", "A",
                  "--samples", "-3", "--output", "unused.csv"),
                 ("rings", "--samples", "-1"),
                 ("rings", "--samples", "3", "--a", "nan"),
                 ("rings", "--samples", "3", "--theta0", "inf"),
                 ("rings", "--samples", "3", "--b", "2"),
                 ("normalize", "--builtin", "choi-lam", "--max-iter", "0"),
                 ("builtin", "identity", "--dim", "1"),
                 ("inspect", "--builtin", "identity", "--dim", "0"),
                 ("builtin", "identity", "--dim", "-2"),
                 ("zeros", "--builtin", "choi-lam", "--seed", "-1"),
                 ("section", "--builtin", "choi-lam", "--type", "A",
                  "--seed", "-1", "--output", "unused.csv")):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == ""
    # a negative seed from the environment is a usage error as well
    proc = run_cli("zeros", "--builtin", "choi-lam", "--starts", "3",
                   env_extra={"POSMAP_SEED": "-4"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "POSMAP_SEED" in proc.stderr


@pytest.mark.parametrize("command", ["inspect", "zeros", "normalize"])
def test_exit_2_on_non_finite_entry(tmp_path, command):
    """json reads NaN; a witness file carrying it is bad input."""
    obj = json.loads(witness_to_json(Witness(3, 3, np.eye(9))))
    obj["matrix"]["entries"][10] = ["x", 0.0]
    w = tmp_path / "w.json"
    w.write_text(json.dumps(obj).replace('"x"', "NaN"))
    proc = run_cli(command, "--input", str(w))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not finite" in proc.stderr


PLUS = np.eye(3).reshape(9) / np.sqrt(3.0)


@pytest.mark.parametrize("matrix", [-np.eye(9),
                                    np.eye(9) / 9.0 - 0.5 * np.outer(PLUS, PLUS)])
def test_zeros_exit_4_on_non_witness(tmp_path, matrix):
    """Input that is not block-positive fails loudly, not as "no zeros"."""
    w = tmp_path / "w.json"
    w.write_text(witness_to_json(Witness(3, 3, matrix)))
    proc = run_cli("zeros", "--input", str(w), "--starts", "5")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "not block-positive" in proc.stderr


def test_normalize_exit_4_on_rank_decreasing_map(tmp_path):
    w = tmp_path / "w.json"
    w.write_text(witness_to_json(Witness(3, 3, np.kron(np.diag([1.0, 0.0, 0.0]),
                                                       np.eye(3)))))
    proc = run_cli("normalize", "--input", str(w))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "no unital, trace-preserving form" in proc.stderr


def test_cli_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        proc = run_cli("section", "--builtin", "choi-lam", "--type", "A",
                       "--samples", "32", "--seed", "9", "--output", str(out))
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    za = run_cli("zeros", "--builtin", "choi-lam", "--starts", "10", "--seed", "5")
    zb = run_cli("zeros", "--builtin", "choi-lam", "--starts", "10", "--seed", "5")
    assert za.stdout == zb.stdout
