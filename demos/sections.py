"""Draw two dimensional sections of state space and their map images.

A section plane is fixed by three states and drawn through a map; rays
from the plane origin are cast until positive semidefiniteness fails,
giving the boundary curve of the section. Scanning the same rays through
the map shows how the map deforms the section; the sections of state
space itself are drawn through the identity map. For the 3x3 extremal witness the image of the
diagonal section is the source triangle rotated by 60 degrees and shrunk
by one half.

Run: python3 demos/sections.py          (writes demos/out/*.csv, *.svg)
"""

import os

import numpy as np

import posmap
from posmap.serialize import curves_to_csv, render_section_svg

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(OUT, exist_ok=True)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


W = posmap.choi_lam_witness()
e = np.eye(3)

banner("Diagonal section: triangle, rotated and halved")
plane = posmap.plane_from_states(np.eye(3) / 3, np.outer(e[0], e[0]),
                                 np.outer(e[1], e[1]), W)
print("frame constants (a, b, c):", np.round(plane.abc, 12))
src = posmap.scan_boundary(plane, n_theta=360)
img = posmap.scan_boundary(plane, transform="image_plane", n_theta=360)
# The mapped source boundary has the source's coordinates.
dashed = posmap.BoundaryCurve(src.theta, src.r, "image_of_source")
print("source r at theta=0 (pure-state corner):", src.r[0])
print("rotate the image-plane triangle by 60 deg and halve it, compare",
      "to the mapped source:",
      np.abs(np.roll(img.r, 60) / 2 - dashed.r).max())

a, b, c = plane.abc
markers = {
    "rho1_image": (1.0 / a, 0.0),
    "rho2_image": (-c / (a * b), 1.0 / b),
    "max_mixed": posmap.project_point(plane, np.eye(3) / 3),
}
path = os.path.join(OUT, "diag_section.csv")
with open(path, "w", newline="") as fh:
    fh.write(curves_to_csv([src, dashed, img]))
with open(os.path.join(OUT, "diag_section.svg"), "w") as fh:
    fh.write(render_section_svg([dashed, img], markers))
print("wrote", path, "and the svg next to it")

banner("Tangent section: the plane through the continuum states")
rho0, rho1, rho2 = posmap.choi_lam_tangent_section()
tplane = posmap.plane_from_states(rho0, rho1, rho2, W)
a, b, c = tplane.abc
print("constants: a =", a, " b =", b, " c =", c)
print("image axes are the source axes scaled by -1/2:",
      np.abs(tplane.image_B + tplane.B / 2).max(),
      np.abs(tplane.image_C + tplane.C / 2).max())

banner("Generic section types")
rng_seed = 12
identity = posmap.identity_witness(3)
for t in ("A", "B", "C", "D", "E", "F"):
    p = posmap.section_of_type(t, identity, seed=rng_seed)
    curve = posmap.scan_boundary(p, n_theta=90)
    print(f"type {t}: r in [{curve.r.min():.4f}, {curve.r.max():.4f}]")

banner("Qubit sanity: the Bloch disc")
sx = np.array([[0, 1], [1, 0]], dtype=complex)
sz = np.diag([1.0, -1.0]).astype(complex)
disc = posmap.plane_from_states(np.eye(2) / 2, (np.eye(2) + sx) / 2,
                                (np.eye(2) + sz) / 2, posmap.identity_witness(2))
r = posmap.scan_boundary(disc, n_theta=256).r
print("disc radius min/max:", r.min(), r.max(), " (1/sqrt(2) =", 1 / np.sqrt(2), ")")
