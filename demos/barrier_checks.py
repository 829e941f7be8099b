"""Supersolution barriers for the perturbation above the Simons cone.

With v = Q - r >= 0, the explicit barrier v+ = C0 r^{2 lam+1} -
C1 (T-t) r^{2 lam-1}, C1 = [(2 lam+1)(2 lam) + (n-1)(2 lam+1) + (n-1)] C0,
dominates the linearized flow uniformly over the unknown gradient
coefficient 1/(1+Q_r^2) in (0, 1].  This script evaluates the residual on
random space-time samples with a worst-case coefficient sweep, checks the
domination threshold C0 - C_bar >= C1/Gamma^2, and runs the empirical
gradient maximum principle on flow data above the cone.

Run:  python3 demos/barrier_checks.py
"""

import numpy as np

from mcflab.barriers import (
    bracket_constant,
    convexity_reduction_check,
    domination_constant,
    domination_margin,
    gradient_bound_check,
    h_bound_report,
    supersolution,
    supersolution_residual,
)
from mcflab.flow import ProfileState, evolve
from mcflab.params import derive_constants

rng = np.random.default_rng(0)

print("== bracket constant C1/C0 across the parameter matrix ==")
for n in (4, 5, 7):
    row = []
    for k in (2, 3, 4):
        p = derive_constants(n, k, T=1.0)
        row.append(f"k={k}: {bracket_constant(n, p.lambda_k):7.3f}")
    print(f"  n={n}:  " + "   ".join(row))
print("  (n=4: k=2 gives 11, k=4 gives 51)")

print("\n== worst-case residual sweep, 10^4 samples each ==")
for n, k in ((4, 2), (4, 4), (5, 3), (7, 4)):
    p = derive_constants(n, k, T=1.0)
    s = supersolution(p, C0=1.0)
    ts = rng.uniform(0.0, 0.999, 10000)
    rs = s.validity_radius(ts) * (1.0 + rng.uniform(0.01, 50.0, ts.size))
    res = supersolution_residual(s, Qr_bound=2.0, samples=np.column_stack([rs, ts]))
    print(f"  (n={n}, k={k}): min residual {res:+.3e}  (supersolution iff >= 0)")

print("\n== domination beyond r = Gamma sqrt(T-t) ==")
p = derive_constants(4, 4, T=1.0)
s = supersolution(p, C0=1.0)
for gamma in (8.0, 10.0, 20.0):
    c_bar = domination_constant(s, gamma)
    ts = rng.uniform(0.0, 0.999, 4000)
    rs = gamma * np.sqrt(1.0 - ts) * (1.0 + rng.uniform(0.0, 20.0, ts.size))
    margin = domination_margin(s, gamma, rs, ts)
    print(f"  Gamma = {gamma:4g}: C_bar = {c_bar:+.4f}, sampled margin {margin:+.3e}")

print("\n== convexity reduction ==")
ok = convexity_reduction_check(rng.uniform(0.0, 1e3, 100000))
print(f"  1/(1+x) - 1 + x >= 0 on 1e5 samples: {ok}")

print("\n== gradient maximum principle on sphere-over-cone data ==")
r = np.linspace(0.05, 3.0, 600)
st = ProfileState(r=r, Q=np.sqrt(r * r + 0.25), t=0.0)
traj, _ = evolve(st, 4, horizon=0.3, target=1e-8, max_snapshots=60)
rep = gradient_bound_check(traj, Gamma=0.4, Upsilon=2.0, T=1.0)
print(f"  interior max |Q_r| = {rep.interior_max:.8f} <= boundary max "
      f"{rep.boundary_max:.8f}")

print("\n== mean curvature bound chain on the late-time window ==")
p2 = derive_constants(4, 2, T=1.0)
traj_cone = [ProfileState(r=r, Q=r.copy(), t=t) for t in np.linspace(0.95, 0.999, 8)]
hb = h_bound_report(traj_cone, Gamma=1.0, Upsilon=2.5, C0=1.0, p=p2)
print(f"  cone: sup |H| = {hb.sup_H:.1e} <= chain bound {hb.sup_chain:.1e}")
