"""Shooting the minimal profile that desingularizes the Simons cone.

For n >= 4 the cone Q = r is area-minimizing but singular at the origin;
a smooth minimal graph Q_b with Q_b(0) = b hugs it from above and merges
into it like Q_b = r + C_b r^alpha with alpha = alpha(n) < 0.  This script
constructs the profile, fits the tail, checks the one-parameter scaling
law Q_b(r) = b Q_1(r/b) between independent integrations, and shows the
positive kernel element u0 = (Q - rQ')/sqrt(1+Q'^2) of the Jacobi operator.

Run:  python3 demos/minimal_profile.py
"""

import numpy as np

from mcflab.minimal_surface import fit_tail, integrate_profile, u0_profile, verify_scaling
from mcflab.params import derive_constants

n = 4
alpha = derive_constants(n, 2).alpha
print(f"n = {n}: expected tail exponent alpha = {alpha}")

mp = integrate_profile(n, b=1.0, r_max=400.0, tol=1e-11)
print(f"built profile with {len(mp.grid)} nodes out to r = {mp.r_max:g}")
print(f"re-integration accuracy estimate: {mp.accuracy:.2e}")
print(f"Q(0.1) = {float(mp.jet(0.1)[0][0]):.6f}  (series predicts 1 + 3/8 * 0.01)")
print(f"slope range: Q' in ({mp.q1.min():.3f}, {mp.q1.max():.6f}) -> approaches 1")
print(f"convexity: min Q'' = {mp.q2.min():.3e} > 0")

fit = fit_tail(mp, window=(40.0, 400.0))
print(f"\ntail fit over (40, 400): Q - r ~ {fit.coefficient:.4f} * r^{fit.exponent:.4f}"
      f"   (log-log residual {fit.resid:.1e})")

print("\n== scaling law: independent integrations at b = 1/2, 2 ==")
for b in (0.5, 2.0):
    mpb = integrate_profile(n, b=b, r_max=400.0 * b, tol=1e-11)
    dev = verify_scaling(mp, mpb)
    cb = fit_tail(mpb, window=(40.0 * b, 400.0 * b)).coefficient
    print(f"  b = {b}: sup |Q_b(r) - b Q_1(r/b)| = {dev:.2e},  "
          f"C_b / (b^3 C_1) = {cb / (b**3 * fit.coefficient):.6f}")

u0 = u0_profile(mp)
print(f"\nu0(0) = {u0.u0[0]:g} (the axis height), min u0 = {u0.u0.min():.3e} > 0")
print(f"u0 tail ~ {u0.tail.coefficient:.4f} * r^{u0.tail.exponent:.4f}"
      f"   (theory: coefficient (1 - alpha) C_b / sqrt(2) = "
      f"{(1 - alpha) * fit.coefficient / np.sqrt(2.0):.4f})")
