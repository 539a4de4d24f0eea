"""Locate and classify the zeros of a witness biquadratic form.

For the 3x3 extremal witness the zero set of
f(phi, chi) = <chi| M(phi phi+) |chi> has two parts: three isolated
zeros at computational-basis product vectors and a two-parameter
continuum. Every zero is quartic (the Hessian of f on the product
manifold is degenerate along flat directions), which is what makes the
witness extremal and the zeros hard to reach by plain alternation.

Run: python3 demos/zero_hunt.py
"""

import numpy as np

import posmap


def banner(text):
    print()
    print(text)
    print("-" * len(text))


W = posmap.choi_lam_witness()
e = np.eye(3)

banner("Alternation creeps, a Newton finish lands")
rng = np.random.default_rng(5)
phi0 = e[1] + 0.2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
phi0 /= np.linalg.norm(phi0)
phi_a, chi_a, f_a = posmap.alternating_minimize(W, phi0)
print(f"after {posmap.zeros.SWEEP_CAP} alternating sweeps: f =", f_a)
phi_r, chi_r, f_r = posmap.refine_zero(W, phi_a)
print("after the Newton finish: f =", f_r)
print("overlap with (e2, e1):",
      abs(np.vdot(phi_r, e[1])), abs(np.vdot(chi_r, e[0])))

banner("Full sweep")
zeros = posmap.find_zeros(W, starts=200, seed=0)
iso = [w for w in zeros if not w.continuum]
cont = [w for w in zeros if w.continuum]
print(f"{len(zeros)} zeros: {len(iso)} isolated, {len(cont)} continuum reps")
for w in iso:
    i = int(np.argmax(np.abs(w.phi)))
    j = int(np.argmax(np.abs(w.chi)))
    print(f"  isolated at (e{i+1}, e{j+1}):  f = {w.value:.1e}  kind = {w.kind}")

banner("Classification at a known zero")
kind, spec = posmap.classify_zero(W, e[1], e[0])
print("kind:", kind)
print("Hessian spectrum:", np.round(spec, 8))
print("(flat directions in the kernel, the quartic signature)")

banner("Continuum parametrization")
for alpha, beta in ((0.3, 1.1), (1.0, 2.0)):
    phi = posmap.choi_lam_continuum_zero(alpha, beta)
    print(f"alpha={alpha} beta={beta}:  f = {posmap.biquadratic_form(W, phi, phi):.1e}"
          "  (chi = phi)")

banner("Constraint counting")
rows = posmap.constraint_rows(W, e[1], e[0])
print("rows per zero (2(m+n) - 3):", rows.shape[0], " columns:", rows.shape[1])
sys3 = posmap.constraint_rank(W, [(e[0], e[2]), (e[1], e[0]), (e[2], e[1])])
print("three isolated zeros stack to", sys3.rows.shape, "with rank", sys3.rank)
print("(a generic extremal witness needs 9 zeros for rank 80 = dim of the")
print(" traceless witness space; the builtin compensates with its continuum)")
full = posmap.constraint_rank(W, zeros)
print(f"all {full.zero_count} zeros of the sweep: rank {full.rank}, last counted "
      f"singular value {full.last_counted:.1e} of the largest, first dropped "
      f"{full.first_dropped:.1e}")
