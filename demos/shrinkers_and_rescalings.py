"""Profile flow against the exact self-similar solutions, plus rescalings.

The shrinking cylinder Q = sqrt(2(n-1)(T-t)) and shrinking sphere
Q = sqrt(2(2n-1)(T-t) - r^2) are closed-form solutions of the profile
flow, the Simons cone Q = r and the minimal profile are steady.  The
implicit solver is run against all four; curvature diagnostics recover the
(T-t)^{-1/2} rate of |A| for the shrinkers, and the parabolic rescaling
q = Q/sqrt(T-t) freezes the sphere into a fixed profile.

Writes the plot demos/out/cylinder_rate.svg.  `mcf evolve` with
"plot_rates" writes the same T - t, Amax table as rate.csv beside rate.svg.

Run:  python3 demos/shrinkers_and_rescalings.py
"""

import math
from pathlib import Path

import numpy as np

from mcflab.flow import (ProfileState, discrete_steady, evolve, fit_rate, shrinking_cylinder,
                         shrinking_sphere, to_parabolic)
from mcflab.minimal_surface import integrate_profile
from mcflab.params import derive_constants
from mcflab.svgplot import plot_loglog

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)
n, T = 4, 1.0

print("== shrinking cylinder ==")
st = shrinking_cylinder(n, T, np.linspace(0.0, 1.0, 801))
traj, diag = evolve(st, n, horizon=0.9, target=1e-8)
exact = math.sqrt(6.0 * (T - diag.times[-1]))
print(f"Qmin at t=0.9: {diag.Qmin[-1]:.10f} vs exact {exact:.10f} "
      f"(rel {abs(diag.Qmin[-1]/exact - 1):.1e}) after {len(diag.times)-1} steps")
fit = fit_rate(diag.times, diag.Amax, T, window=(0.1, 1.0))
print(f"|A|max rate exponent: {fit.exponent:+.6f} (type-I rate -1/2)")
print(f"singular-time estimate: {diag.T_est:.6f}")

plot_loglog(T - diag.times, diag.Amax, out_dir / "cylinder_rate.svg", "T_minus_t", "Amax")
print(f"wrote {out_dir/'cylinder_rate.svg'}")

print("\n== shrinking sphere (exact boundary feed) ==")
sphere = shrinking_sphere(n, T, np.linspace(0.0, 0.03, 200))
straj, sdiag = evolve(sphere, n, horizon=0.9, target=1e-8)
print(f"T_est = {sdiag.T_est:.6f} (true T = 1)")
print(f"sup profile error at the end: "
      f"{np.abs(straj[-1].Q - np.sqrt(14.0*(T-straj[-1].t) - straj[-1].r**2)).max():.1e}")

print("\n== parabolic rescaling freezes the sphere ==")
p = derive_constants(n, 2, T=T)
rho = np.linspace(0.0, 0.04, 25)
qs = np.array([to_parabolic(s, p, rho_grid=rho).y for s in straj if s.t >= 0.55][::8])
print(f"q(rho, s) spread across s: {((qs.max(0)-qs.min(0))/qs.mean(0)).max():.1e} "
      f"(profile ~ sqrt(14 - rho^2))")

print("\n== steady solutions stay put over a unit horizon ==")
rc = np.linspace(0.5, 5.0, 200)
cone_traj, cone_diag = evolve(ProfileState(r=rc, Q=rc.copy(), t=0.0), n, 1.0)
print(f"cone drift:    {np.abs(cone_traj[-1].Q - rc).max():.1e}   "
      f"sup |H| = {cone_diag.Hmax.max():.1e}")

mp = integrate_profile(n, 1.0, 100.0)
rm = np.geomspace(0.01, 20.0, 400)
st0 = discrete_steady(n, ProfileState(r=rm, Q=mp.jet(rm)[0], t=0.0))
mtraj, _ = evolve(st0, n, horizon=1.0, target=1e-9)
print(f"minimal-profile drift after steady projection: "
      f"{np.abs(mtraj[-1].Q - st0.Q).max():.1e}")
