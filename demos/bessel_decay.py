"""Bessel heat kernel on the half line and the decay-rate experiment.

Radial Jacobi fields on the Simons cone become, after v = r^{n-1} u(., 2t),
solutions of dv/dt = v'' + (1/4 - mu^2) r^{-2} v with explicit kernel
W_t(r, rho) = sqrt(r rho)/(2t) I_mu(r rho/2t) exp(-(r^2+rho^2)/4t).
The monomial r^{mu + 1/2} is a fixed point; data lying below it by r^{-delta}
contracts like t^{-delta/2}, and by kernel self-similarity the experiment
reproduces that exponent essentially exactly.

Writes demos/out/decay.csv and demos/out/decay.svg.

Run:  python3 demos/bessel_decay.py
"""

import math
from pathlib import Path

import numpy as np

from mcflab.cone_heat import (
    HalfLineField,
    bessel_I,
    cone_transform,
    decay_experiment,
    propagate,
    stationary_mass,
)
from mcflab.params import derive_constants
from mcflab.svgplot import plot_loglog

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

print("== scaled Bessel evaluation ==")
print(f"I_1/2(1)        = {bessel_I(0.5, 1.0):.12f}  (sqrt(2/pi) sinh 1 = 0.937674888245)")
print(f"e^-z I_1/2(z)   at z = 1e6: {bessel_I(0.5, 1e6, scaled=True):.6e} "
      f"(asymptote 1/sqrt(2 pi z) = {1/math.sqrt(2*math.pi*1e6):.6e})")

print("\n== kernel fixed point ==")
for t in (0.1, 1.0, 10.0):
    m = stationary_mass(0.5, t, 2.0)
    print(f"  int W_t(2, rho) rho d rho = {m:.12f} at t = {t} (expect 2)")

print("\n== pointwise reproduction of the stationary profile ==")
mu = 0.5
grid = np.geomspace(1e-3, 80.0, 300)
v0 = HalfLineField(grid=grid, v=grid ** (mu + 0.5), t=0.0)
out = propagate(mu, 1.0, v0, out_grid=np.array([0.5, 2.0, 8.0]))
for r, v in zip(out.grid, out.v):
    print(f"  v({r:g}, t=1) = {v:.9f}  vs r^1 = {r:g}")

print("\n== cone-to-Bessel transform ==")
n = 4
u = HalfLineField(grid=grid, v=grid**-2.0, t=1.0)  # stationary cone decay r^alpha
v = cone_transform(n, u)
print(f"u = r^-2 maps to v with fitted tail exponent {v.tail.exponent:.4f} "
      f"(mu + 1/2 = {mu + 0.5})")

print("\n== decay experiments: slope should be -delta/2 ==")
rows = None
for nn, delta in ((4, 1.0), (5, 2.0)):
    p = derive_constants(nn, 3)
    exp = decay_experiment(p, delta, np.geomspace(1.0, 100.0, 12))
    print(f"  n = {nn}, delta = {delta}: fitted slope {exp.fit.exponent:+.6f} "
          f"(residual {exp.fit.resid:.1e})")
    if nn == 4:
        rows = exp

csv_path = out_dir / "decay.csv"
with open(csv_path, "w") as fh:
    fh.write("t,sup_ratio\n")
    for t, s in zip(rows.times, rows.sup_ratio):
        fh.write(f"{t:.17g},{s:.17g}\n")
svg = out_dir / "decay.svg"
plot_loglog(rows.times, rows.sup_ratio, svg, "t", "sup_ratio")
print(f"\nwrote {csv_path} and {svg}")
