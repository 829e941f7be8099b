"""The Jacobi operator on the minimal profile and its generalized kernel.

The stability operator Delta + |A|^2, reduced to radial functions and
multiplied by 1+Q'^2, factorizes as L = -A*A through the positive kernel
element u0.  Its explicit inverse L^{-1} = -A^{-1}(A*)^{-1} builds the
ladder u_j = L^{-1}((1+Q'^2) u_{j-1}), whose members grow like
r^{2j} (1+r)^alpha: two more powers of r per rung, all sharing the tail
weight alpha.  A finite-element discretization of the same operator has
nonpositive top eigenvalue, matching the stability of the surface.

Run:  python3 demos/jacobi_ladder.py
"""

import numpy as np

from mcflab.jacobi import (
    apply_L,
    assemble,
    generalized_kernel,
    indicial_roots,
    top_eigenvalue,
    wronskian,
)
from mcflab.minimal_surface import integrate_profile

n = 4
mp = integrate_profile(n, b=1.0, r_max=10.0**3.5, tol=1e-12)
jd = assemble(mp)
print(f"operator data on {len(jd.grid)} nodes, r in [{jd.grid[0]:g}, {jd.grid[-1]:g}]")
print(f"potential check: V r^2 -> {jd.V[-1] * jd.grid[-1]**2:.4f} (expect 2(n-1) = 6)")
print(f"kernel slope:    W r   -> {jd.W[-1] * jd.grid[-1]:.4f} (expect alpha = -2)")

res = apply_L(jd, jd.u0)
mid = (jd.grid > 10 * jd.grid[0]) & (jd.grid < jd.grid[-1] / 10)
print(f"L u0 = 0 residual (finite differences, mid grid): {np.abs(res[mid]).max():.1e}")

print("\n== generalized kernel ladder ==")
print("  j   inner exponent (expect 2j)   outer exponent (expect 2j + alpha)")
for e in generalized_kernel(jd, 3):
    print(f"  {e.j}   {e.inner_fit.exponent:+10.4f}                {e.outer_fit.exponent:+10.4f}")

roots = indicial_roots(n, jd)
print(f"\nindicial exponents at 0: {roots.at_zero}, at infinity: {roots.at_infinity}")
print(f"singular solution v0 blows up like r^{roots.inner_fit.exponent:.4f} "
      f"(expect -(n-2) = -2)")
w = wronskian(jd, roots)
probe = w[np.linspace(0, len(w) - 1, 8).astype(int)]
print(f"Abel invariant J(u0 v0' - v0 u0') constant to {np.ptp(probe)/abs(probe).max():.1e}")

lam = top_eigenvalue(jd, R_trunc=50.0, nodes=4000)
print(f"\ntop eigenvalue with Dirichlet wall at 50 (4000 nodes): {lam:+.3e} <= 0")
lam25 = top_eigenvalue(jd, R_trunc=25.0, nodes=2000)
print(f"smaller domain gives a smaller top eigenvalue: {lam25:+.3e}")
