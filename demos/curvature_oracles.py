"""Curvature calculus on the model surfaces, checked against closed forms.

Every rotationally invariant hypersurface in this family is the graph
y = Q(|x|) of a profile over the first R^n factor, and its curvature is a
pointwise function of the 2-jet (Q, Q', Q'').  Three profiles have fully
explicit curvature and serve as oracles everywhere in the package:

  cone      Q = r        ->  H = 0,            |A|^2 = (n-1)/r^2
  cylinder  Q = c        ->  H = -(n-1)/c,     |A|^2 = (n-1)/c^2
  sphere    Q = sqrt(R^2-r^2) -> H = -(2n-1)/R, |A|^2 = (2n-1)/R^2

Run:  python3 demos/curvature_oracles.py
"""

import math

import numpy as np

from mcflab.geometry import ProfileJet, curvature, fd_jet, unit_normal

n = 4
print(f"== closed-form oracles (n = {n}) ==")

cone = curvature(n, ProfileJet(r=2.0, q=2.0, q1=1.0, q2=0.0))
print(f"cone at r=2:      H = {cone.H:+.2e}   |A|^2 = {cone.A2:.6f}  (expect 0, 3/4)")

cyl = curvature(n, ProfileJet(r=1.0, q=1.0, q1=0.0, q2=0.0))
print(f"cylinder (c=1):   H = {cyl.H:+.6f}  |A|^2 = {cyl.A2:.6f}  (expect -3, 3)")

R, r = 1.0, 0.6
q = math.sqrt(R * R - r * r)
sph = curvature(n, ProfileJet(r=r, q=q, q1=-r / q, q2=-(R * R) / q**3))
print(f"unit sphere r=.6: H = {sph.H:+.6f}  |A|^2 = {sph.A2:.6f}  (expect -7, 7)")

nu = unit_normal(ProfileJet(r=1.0, q=1.0, q1=1.0, q2=0.0))
print(f"cone normal:      ({nu[0]:+.6f}, {nu[1]:+.6f})  (expect -1/sqrt2, 1/sqrt2)")

print("\n== sphere H is r-independent (umbilic) ==")
devs = []
for rr in np.linspace(0.05, 0.95, 10):
    qq = math.sqrt(1.0 - rr * rr)
    d = curvature(n, ProfileJet(r=float(rr), q=qq, q1=-rr / qq, q2=-1.0 / qq**3))
    devs.append(abs(d.H + 7.0))
print(f"max |H + 7| over r in (0, 1): {max(devs):.2e}")

print("\n== finite-difference jets converge at second order ==")
for h in (0.02, 0.01, 0.005, 0.0025):
    rs = np.array([0.7 - h, 0.7, 0.7 + h])
    qs = np.sqrt(1.69 - rs * rs)
    d = curvature(5, fd_jet(rs, qs, 1))
    print(f"  h = {h:<7g} |H - exact| = {abs(d.H + 9.0 / 1.3):.3e}")

print("\n== weighted sup norms see the decay rate ==")
rr = np.geomspace(0.01, 1000.0, 800)
u = (1.0 + rr) ** -2
for a in (0.0, 2.0, 2.5):
    print(f"  sup (1+r)^{a:g} |(1+r)^-2| = {np.max((1.0 + rr) ** a * np.abs(u)):.4g}")
print("(the a = 2.5 norm diverges with the grid extent; a = 2 saturates at 1)")
