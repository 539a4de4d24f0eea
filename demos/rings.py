"""The zero rings of the extremal 2x4 map on the Bloch sphere.

The inputs phi phi+ at which the image of the 2x4 map drops rank form
two closed curves on the Bloch sphere, one per branch, crossing at eight
common points. The curves are parametrized by an angle theta; the
parametrization speed is far from uniform and each branch jumps sheets
at two singular angles, so nearest-point queries must search along the
parametrization instead of comparing to a fixed sample grid.

Run: python3 demos/rings.py              (writes demos/out/rings.csv)
"""

import os

import numpy as np

import posmap
from posmap.serialize import rings_to_csv

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(OUT, exist_ok=True)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("Points on the rings")
theta = np.linspace(0, 2 * np.pi, 400, endpoint=False)
points = posmap.ring_points(theta)
plus, minus = points
print("unit-sphere residual, + branch:", np.abs((plus ** 2).sum(1) - 1).max())
print("unit-sphere residual, - branch:", np.abs((minus ** 2).sum(1) - 1).max())
step = np.linalg.norm(np.diff(plus, axis=0), axis=1)
print("adjacent-sample chord, median vs max:",
      float(np.median(step)), float(step.max()),
      "(the parametrization is nonuniform and jumps sheets)")

banner("Images drop rank exactly on the rings")
W = posmap.horodecki_2x4_witness()
for t in (0.0, 1.0, 2.5):
    rho = posmap.bloch_to_state(posmap.ring_points([t])[0, 0])
    sv = np.linalg.svd(posmap.apply_map(W, rho), compute_uv=False)
    print(f"theta={t}: image singular values {np.round(sv, 6)}  rank 3")

banner("Eight common zeros of both branches")
cz = posmap.ring_common_zeros()
for p in cz:
    print(" ", np.round(p, 9))
p0 = posmap.RingParams()
shifted = posmap.ring_common_zeros(posmap.RingParams(p0.a, p0.b, p0.theta0 + 1.0))
pair = np.linalg.norm(cz[:, None, :] - shifted[None, :, :], axis=2)
print("set is invariant under reparametrization:", pair.min(axis=1).max())

banner("Zero search lands on the rings")
zeros = posmap.find_zeros(W, starts=60, seed=1)
grid = np.linspace(0, 2 * np.pi, 20000, endpoint=False)
rings = posmap.ring_points(grid)
worst = 0.0
for z in zeros:
    q = posmap.state_to_bloch(np.outer(z.phi, z.phi.conj()))
    d = np.linalg.norm(rings - q, axis=-1).min()
    worst = max(worst, d)
print(f"{len(zeros)} zeros found; worst coarse-grid ring distance {worst:.2e}")
print("(grid distance overstates by up to half the local chord; the")
print(" acceptance test refines along theta and lands below 1e-6)")

path = os.path.join(OUT, "rings.csv")
with open(path, "w", newline="") as fh:
    fh.write(rings_to_csv(theta, points))
print("wrote", path)
