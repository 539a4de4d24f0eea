"""Acceptance gate: one test per shipped criterion, tolerances inline.

Each test asserts both the numerical claim and its runtime budget, so a
plain ``pytest -v tests/test_acceptance.py`` prints one pass/fail line
per criterion. Criterion 10 has an optional fixture; see the README for
its format. Criterion 4 is a soft claim: the hard assertion is the
fraction of contractive cases, the median is logged as a warning.
"""

import functools
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import posmap
from posmap.bipartite import (Witness, apply_map, biquadratic_form,
                              diagnostics, partial_transpose, tensor)
from posmap.builtin import (RingParams, bloch_to_state, choi_lam_tangent_section,
                            choi_lam_witness, horodecki_2x4_map,
                            horodecki_2x4_witness, identity_witness,
                            ring_common_zeros, ring_points, state_to_bloch)
from posmap.normalize import contraction_spectrum, normalize
from posmap.sections import plane_from_states, scan_boundary
from posmap.serialize import witness_from_json
from posmap.zeros import constraint_rank, constraint_rows, find_zeros

from test_builtin import W_P

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "extremal_witness.json")


@functools.lru_cache(maxsize=1)
def _interior_fixed_points():
    """100 interior witnesses with their converged normalizations.

    Each witness is lam * I/9 + (1 - lam) * A_cp with A_cp a random
    completely positive witness (PSD with PSD partial transpose by
    construction: a sum of tensor products of PSD factors), normalized
    from 5 random positive-definite starts.
    """
    rng = np.random.default_rng(2026)
    cases = []
    for _ in range(100):
        A = np.zeros((9, 9), dtype=complex)
        for _ in range(4):
            B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            A += tensor(B @ B.conj().T, C @ C.conj().T)
        A /= np.trace(A).real
        assert np.linalg.eigvalsh(A)[0] > -1e-12
        assert np.linalg.eigvalsh(partial_transpose(Witness(3, 3, A)).matrix)[0] > -1e-12
        lam = rng.uniform(0.05, 0.9)
        W = Witness(3, 3, lam * np.eye(9) / 9 + (1 - lam) * A)
        results = []
        for _ in range(5):
            G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            x0 = G @ G.conj().T + 0.05 * np.eye(3)
            results.append(normalize(W, x0=x0))
        cases.append((W, results))
    return cases


def test_criterion_01_printed_witness_matrix():
    """Twice the builtin witness, partially transposed, is the printed
    integer matrix, exactly. Budget 1 s."""
    t0 = time.perf_counter()
    doubled = Witness(3, 3, 2.0 * choi_lam_witness().matrix)
    assert np.abs(partial_transpose(doubled).matrix - W_P).max() == 0.0
    assert np.abs(choi_lam_witness(scale="paper").matrix - doubled.matrix).max() == 0.0
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_unitality_fixed_point():
    """normalize(choi-lam) converges at the first residual check with
    U = V = I to 1e-12. Budget 1 s."""
    t0 = time.perf_counter()
    res = normalize(choi_lam_witness())
    assert res.converged and res.iterations == 1
    assert np.abs(res.U - np.eye(3)).max() < 1e-12
    assert np.abs(res.V - np.eye(3)).max() < 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_normalizer_interior_witnesses():
    """100 interior witnesses: residuals <= 1e-10 within 200 iterations,
    fixed point independent of 5 random PD starts to 1e-8. Budget 60 s."""
    t0 = time.perf_counter()
    for W, results in _interior_fixed_points():
        for res in results:
            assert res.converged and res.iterations <= 200
        d = diagnostics(results[0].witness)
        assert d["unitality_residual"] <= 1e-10
        assert d["trace_preservation_residual"] <= 1e-10
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.abs(results[i].X - results[j].X).max() <= 1e-8
    assert time.perf_counter() - t0 < 60.0


def test_criterion_04_contraction_claim():
    """Contraction spectrum at the criterion-3 fixed points: max
    magnitude < 1 in >= 99% of cases; median logged. Budget 60 s."""
    t0 = time.perf_counter()
    tops = np.array([
        np.abs(contraction_spectrum(W, results[0].X)).max()
        for W, results in _interior_fixed_points()
    ])
    assert np.mean(tops < 1.0) >= 0.99
    warnings.warn(
        f"contraction top-eigenvalue median {np.median(tops):.4f} "
        f"(max {tops.max():.4f}) over 100 interior witnesses",
        stacklevel=1,
    )
    assert time.perf_counter() - t0 < 60.0


def test_criterion_05_choi_lam_geometry():
    """Diagonal-section image curve = source curve rotated 60 degrees and
    scaled 1/2, pointwise to 1e-8 over 720 rays; tangent-section constants
    a = sqrt(6), b = 3 to 1e-12 with image axis B~ = -B/2. Budget 10 s."""
    t0 = time.perf_counter()
    W = choi_lam_witness()
    e = np.eye(3)
    diag = plane_from_states(np.eye(3) / 3, np.outer(e[0], e[0]),
                             np.outer(e[1], e[1]), W)
    dashed = scan_boundary(*diag.source, n_theta=720)
    solid = scan_boundary(*diag.image, n_theta=720)
    assert np.abs(np.roll(solid.r, 120) / 2 - dashed.r).max() < 1e-8
    assert np.abs(np.roll(solid.r, -120) / 2 - dashed.r).max() < 1e-8

    rho0, rho1, rho2 = choi_lam_tangent_section()
    tangent = plane_from_states(rho0, rho1, rho2, W)
    a, b, _ = tangent.abc
    assert abs(a - np.sqrt(6)) < 1e-12
    assert abs(b - 3.0) < 1e-12
    assert np.abs(tangent.image_B - (-tangent.B / 2)).max() < 1e-12
    assert time.perf_counter() - t0 < 10.0


def test_criterion_06_boundary_radii_oracle():
    """Qutrit pure-direction rays r = sqrt(6)/3 and sqrt(6)/6; qubit
    circle r = 1/sqrt(2) uniformly; all to 1e-9. Budget 5 s."""
    t0 = time.perf_counter()
    e3 = np.eye(3)
    d3 = plane_from_states(np.eye(3) / 3, np.outer(e3[0], e3[0]), np.outer(e3[1], e3[1]),
                           identity_witness(3))
    curve3 = scan_boundary(*d3.source, n_theta=360)
    assert abs(curve3.r[0] - np.sqrt(6) / 3) < 1e-9
    assert abs(curve3.r[180] - np.sqrt(6) / 6) < 1e-9

    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    d2 = plane_from_states(np.eye(2) / 2, (np.eye(2) + sx) / 2, (np.eye(2) + sz) / 2,
                           identity_witness(2))
    curve2 = scan_boundary(*d2.source, n_theta=360)
    assert np.abs(curve2.r - 1 / np.sqrt(2)).max() < 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_criterion_07_zero_recovery():
    """find_zeros with 500 starts recovers the three isolated zeros
    (overlap > 1 - 1e-6) and >= 10 continuum representatives with
    |f| <= 1e-9, all quartic. Budget 120 s."""
    t0 = time.perf_counter()
    W = choi_lam_witness()
    zeros = find_zeros(W, starts=500, seed=42)
    e = np.eye(3)
    iso = [z for z in zeros if not z.continuum]
    cont = [z for z in zeros if z.continuum]
    assert len(iso) == 3
    for i, j in ((0, 2), (1, 0), (2, 1)):
        hits = [z for z in iso
                if abs(np.vdot(z.phi, e[i])) > 1 - 1e-6
                and abs(np.vdot(z.chi, e[j])) > 1 - 1e-6]
        assert len(hits) == 1
    assert len(cont) >= 10
    for z in zeros:
        assert abs(z.value) <= 1e-9
        assert z.kind == "quartic"
    assert time.perf_counter() - t0 < 120.0


def _ring_distance(q, branch, grid, ring_cache):
    """Distance from Bloch point q to the ring of one branch (0 for +1,
    1 for -1, ring_points' order), nearest-point search along the
    parametrization (coarse grid argmin, then golden-section)."""
    i = int(np.linalg.norm(ring_cache[branch] - q, axis=1).argmin())
    lo, hi = grid[i] - 2e-4, grid[i] + 2e-4
    dist = lambda t: np.linalg.norm(ring_points([t])[branch, 0] - q)
    for _ in range(60):
        m1 = lo + 0.382 * (hi - lo)
        m2 = hi - 0.382 * (hi - lo)
        if dist(m1) <= dist(m2):
            hi = m2
        else:
            lo = m1
    return dist(0.5 * (lo + hi))


def test_criterion_08_rings_2x4():
    """Ring points on the unit sphere to 1e-12 over 1e5 samples; the 8
    common zeros invariant to 1e-10 under theta0 -> theta0 + 0.3;
    find_zeros phi-Bloch points within 1e-6 of a ring. Budget 180 s."""
    t0 = time.perf_counter()
    grid = np.linspace(0, 2 * np.pi, 100000, endpoint=False)
    rings = ring_points(grid)
    for R in rings:
        assert np.abs(np.einsum("ij,ij->i", R, R) - 1.0).max() < 1e-12

    cz = ring_common_zeros()
    assert cz.shape == (8, 3)
    p = RingParams()
    shifted = ring_common_zeros(RingParams(p.a, p.b, p.theta0 + 0.3))
    pair = np.linalg.norm(cz[:, None, :] - shifted[None, :, :], axis=2)
    assert pair.min(axis=1).max() < 1e-10

    zeros = find_zeros(horodecki_2x4_witness(), starts=200, seed=11)
    assert len(zeros) >= 50
    for z in zeros:
        q = state_to_bloch(np.outer(z.phi, z.phi.conj()))
        d = min(_ring_distance(q, 0, grid, rings),
                _ring_distance(q, 1, grid, rings))
        assert d <= 1e-6
    assert time.perf_counter() - t0 < 180.0


def test_criterion_09_map_positivity():
    """Minimal image eigenvalue >= -1e-10 over 1e4 Bloch inputs; ring-zero
    images have numerical rank 3 with kernel reproducing |f| <= 1e-9.
    Budget 60 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    P = rng.standard_normal((10000, 3))
    P /= np.linalg.norm(P, axis=1)[:, None]
    worst = np.inf
    for p in P:
        worst = min(worst, np.linalg.eigvalsh(horodecki_2x4_map(bloch_to_state(p)))[0])
    assert worst >= -1e-10

    W = horodecki_2x4_witness()
    for theta in np.linspace(0, 2 * np.pi, 16, endpoint=False):
        for point in ring_points([theta])[:, 0]:
            rho = bloch_to_state(point)
            Y = apply_map(W, rho)
            sv = np.linalg.svd(Y, compute_uv=False)
            assert int(np.sum(sv > 1e-8 * sv[0])) == 3
            vals, vecs = np.linalg.eigh(Y)
            phi = np.linalg.eigh(rho)[1][:, -1]
            assert abs(biquadratic_form(W, phi, vecs[:, 0])) <= 1e-9
    assert time.perf_counter() - t0 < 60.0


def test_criterion_10_constraint_counting():
    """2(m+n) - 3 constraint rows per zero (9 for 3x3); synthetic rank
    sanity on the builtin witness; optional extremal fixture gives
    rank 80 from 9 zeros. Budget 30 s."""
    t0 = time.perf_counter()
    W = choi_lam_witness()
    e = np.eye(3)
    assert constraint_rows(W, e[1], e[0]).shape == (9, 80)
    W24 = horodecki_2x4_witness()
    ring = bloch_to_state(ring_points([0.0])[0, 0])
    phi = np.linalg.eigh(ring)[1][:, -1]
    chi = np.linalg.eigh(apply_map(W24, ring))[1][:, 0]
    assert constraint_rows(W24, phi, chi).shape == (9, 63)

    sys3 = constraint_rank(W, [(e[0], e[2]), (e[1], e[0]), (e[2], e[1])])
    assert sys3.rows.shape == (27, 80)
    assert sys3.rank == 27

    def margin(name, system):
        # The rank alone cannot tell a clean certificate from a marginal
        # one: print the last counted and first dropped singular values.
        print(f"criterion 10: {name} rank {system.rank}, last counted "
              f"{system.last_counted:.3e}, first dropped {system.first_dropped:.3e}")
        return system

    # The builtins are extremal: their own zeros fix them up to scale.
    for name, Wb, starts, seed, rank in (("choi-lam", W, 500, 42, 80),
                                         ("horodecki-2x4", W24, 200, 11, 63)):
        system = margin(name, constraint_rank(Wb, find_zeros(Wb, starts, seed)))
        assert system.rank == rank and system.first_dropped == 0.0

    if os.path.exists(FIXTURE):
        with open(FIXTURE) as fh:
            Wx = witness_from_json(fh.read())
        zeros = find_zeros(Wx, starts=300, seed=42)
        quad = [z for z in zeros if z.kind == "quadratic"]
        assert len(quad) == 9
        assert margin("extremal fixture", constraint_rank(Wx, quad)).rank == 80
    else:
        warnings.warn("extremal witness fixture absent; rank-80 check skipped",
                      stacklevel=1)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_11_cli_determinism(tmp_path):
    """Repeated CLI runs with identical flags are byte identical.
    Budget 10 s."""
    t0 = time.perf_counter()
    env = dict(os.environ)
    env.pop("POSMAP_SEED", None)
    # run the CLI from the source tree of the imported package
    src = os.path.dirname(os.path.dirname(os.path.abspath(posmap.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "posmap", *args],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    outs = []
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        run("section", "--builtin", "choi-lam", "--type", "diag",
            "--samples", "64", "--output", str(csv), "--svg", str(svg))
        outs.append((csv.read_bytes(),
                     (tmp_path / f"{tag}.json").read_bytes(),
                     svg.read_bytes(),
                     run("zeros", "--builtin", "choi-lam", "--starts", "20", "--seed", "5"),
                     run("inspect", "--builtin", "horodecki-2x4"),
                     run("rings", "--samples", "200")))
    assert outs[0] == outs[1]
    assert time.perf_counter() - t0 < 10.0
