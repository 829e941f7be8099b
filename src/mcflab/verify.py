"""The acceptance criteria: one table that pytest and `mcf verify-all` both run.

Each measure function constructs what it checks, so the runtime budgets are
honest, and returns (ok, detail).  `run_criterion` times one criterion and
formats its `[criterion N]` line; a criterion passes only if `ok` holds and
it finishes within its budget.  `quick` marks the criteria that run no flow
code, the set behind `mcf verify-all --quick`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import barriers, cone_heat, flow, geometry, jacobi
from .minimal_surface import fit_tail, integrate_profile, u0_profile, verify_scaling
from .params import _alpha_forms, admissible_window_exists, derive_constants


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion.

    Its pytest test is named test_criterion_<number>_<title>, with the
    title's spaces written as underscores.
    """

    number: int
    title: str
    measure: Callable[[], tuple[bool, str]]
    budget: float
    quick: bool


def curvature_oracles():
    worst = 0.0
    for n in (4, 5, 7):
        cone = geometry.curvature(n, geometry.ProfileJet(2.0, 2.0, 1.0, 0.0))
        worst = max(worst, abs(cone.H), abs(cone.A2 - (n - 1) / 4.0))
        for c in (0.5, 2.0):
            cyl = geometry.curvature(n, geometry.ProfileJet(1.0, c, 0.0, 0.0))
            worst = max(worst, abs(cyl.H + (n - 1) / c), abs(cyl.A2 - (n - 1) / c**2))
        R = 1.3
        for r in np.linspace(0.1, 0.9 * R, 9):
            q = math.sqrt(R * R - r * r)
            sph = geometry.curvature(n, geometry.ProfileJet(r, q, -r / q, -R * R / q**3))
            worst = max(
                worst, abs(sph.H + (2 * n - 1) / R), abs(sph.A2 - (2 * n - 1) / R**2)
            )
    # finite-difference jets converge at order >= 1.9 on the sphere oracle
    hs = [0.02 / 2**k for k in range(5)]
    errs = []
    for h in hs:
        r = np.array([0.7 - h, 0.7, 0.7 + h])
        q = np.sqrt(1.3**2 - r * r)
        d = geometry.curvature(5, geometry.fd_jet(r, q, 1))
        errs.append(abs(d.H + 9.0 / 1.3))
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return (
        worst <= 1e-10 and order >= 1.9,
        f"closed-form dev {worst:.2e}, FD order {order:.2f}",
    )


def minimal_surface_matrix():
    worst_tail = 0.0
    worst_scaling = 0.0
    per_profile = 0.0
    convex = positive = True
    for n in (4, 5, 7):
        alpha = derive_constants(n, 2).alpha
        mp1 = integrate_profile(n, 1.0, 200.0, tol=1e-10)
        for b in (0.5, 1.0, 2.0):
            tp = time.time()
            mp = mp1 if b == 1.0 else integrate_profile(n, b, 200.0 * b, tol=1e-10)
            per_profile = max(per_profile, time.time() - tp)
            convex = convex and bool(np.all(mp.q2 > 0.0))
            u0 = u0_profile(mp)
            positive = positive and bool(np.all(u0.u0 > 0.0))
            fit = fit_tail(mp, window=(20.0 * b, 200.0 * b))
            worst_tail = max(worst_tail, abs(fit.exponent / alpha - 1.0))
            if b != 1.0:
                worst_scaling = max(worst_scaling, verify_scaling(mp1, mp))
    return (
        worst_tail <= 0.05 and worst_scaling <= 1e-7
        and convex and positive and per_profile < 10.0,
        f"tail exponent dev {worst_tail:.2%}, scaling sup-dev {worst_scaling:.2e}, "
        f"Q'' > 0 {convex}, u0 > 0 {positive}, slowest profile {per_profile:.2f}s",
    )


def jacobi_operator():
    mp = integrate_profile(4, 1.0, 10.0**3.5, tol=1e-12)
    jd = jacobi.assemble(mp)
    r = jd.grid
    _, _, W, u0v, _, u0p, Wp = jd.coefficients_at(r)
    res0 = float(np.abs(jacobi.apply_L(jd, u0v, jets=(u0p, (Wp + W * W) * u0v))).max())

    elems = jacobi.generalized_kernel(jd, 3)
    mid = (r > 10.0 * r[0]) & (r < r[-1] / 10.0)
    res_chain = 0.0
    worst_exp = 0.0
    for j, e in enumerate(elems):
        if j > 0:
            lhs = jacobi.apply_L(jd, e.u)
            rhs = jd.s * elems[j - 1].u
            res_chain = max(
                res_chain, float((np.abs(lhs[mid] - rhs[mid]) / np.abs(rhs[mid]).max()).max())
            )
        worst_exp = max(
            worst_exp,
            abs(e.inner_fit.exponent - 2.0 * j) / max(1.0, 2.0 * j),
            abs(e.outer_fit.exponent - (2.0 * j - 2.0)) / max(1.0, abs(2.0 * j - 2.0)),
        )

    # adjunction on smooth compact bumps with exact derivatives
    from scipy.integrate import simpson

    fine = jd._fine
    rf, Jf, Wf, sf, xif = fine["r"], fine["J"], fine["W"], fine["s"], fine["xi"]
    x = (np.log(rf) - np.log(3.0)) / 1.0
    ins = np.abs(x) < 1.0
    g = np.where(ins, 1.0 - x * x, 1.0)
    u = np.where(ins, np.exp(-1.0 / g), 0.0)
    du = np.where(ins, u * (-2.0 * x / g**2), 0.0) / rf
    x2 = (np.log(rf) - np.log(8.0)) / 1.3
    ins2 = np.abs(x2) < 1.0
    g2 = np.where(ins2, 1.0 - x2 * x2, 1.0)
    v = np.where(ins2, np.exp(-1.0 / g2), 0.0)
    dv = np.where(ins2, v * (-2.0 * x2 / g2**2) / 1.3, 0.0) / rf
    Au = -du + Wf * u
    Astar_v = dv + (jd.n - 1) * sf / rf * v + Wf * v
    lhs_i = simpson(Au * v * Jf * rf, x=xif)
    rhs_i = simpson(u * Astar_v * Jf * rf, x=xif)
    adj = abs(lhs_i - rhs_i) / max(abs(lhs_i), abs(rhs_i))

    # singular solution: Wronskian with u0 constant on the grid, r^{-(n-2)} at 0
    roots = jacobi.indicial_roots(jd.n, jd)
    w = jacobi.wronskian(jd, roots)
    w_spread = float((w.max() - w.min()) / np.abs(w).max())
    v0_exp = roots.inner_fit.exponent

    lam = jacobi.top_eigenvalue(jd, 50.0, nodes=4000)
    return (
        res0 <= 1e-6 and res_chain <= 1e-5 and worst_exp <= 0.05
        and adj <= 1e-8 and w_spread <= 0.01
        and abs(v0_exp / roots.at_zero[1] - 1.0) <= 0.05 and lam <= 1e-3,
        f"Lu0 {res0:.1e}, chain {res_chain:.1e}, exponents {worst_exp:.2%}, "
        f"adjunction {adj:.1e}, Wronskian spread {w_spread:.1e}, "
        f"v0 exponent {v0_exp:.4f}, top eig {lam:+.2e}",
    )


def bessel_heat_kernel():
    z = np.linspace(1e-8, 700.0, 3001)
    closed = np.sqrt(2.0 / (np.pi * z)) * np.sinh(z)
    bessel_dev = float(np.abs(cone_heat.bessel_I(0.5, z) / closed - 1.0).max())

    mass_dev = abs(cone_heat.stationary_mass(0.5, 1.0, 2.0) - 2.0)

    from scipy.integrate import quad

    semi, _ = quad(
        lambda sg: cone_heat.heat_kernel(0.5, 0.3, 1.0, sg)
        * cone_heat.heat_kernel(0.5, 0.7, sg, 2.0),
        1e-12,
        2.0 + 40.0 * math.sqrt(0.7),
        epsabs=1e-13,
        epsrel=1e-11,
        limit=400,
    )
    semi_dev = abs(semi - cone_heat.heat_kernel(0.5, 1.0, 1.0, 2.0))

    slope_devs = []
    for n, delta in ((4, 1.0), (5, 2.0)):
        p = derive_constants(n, max(2, 3))
        exp = cone_heat.decay_experiment(p, delta, np.geomspace(1.0, 100.0, 10))
        slope_devs.append(abs(exp.fit.exponent - (-delta / 2.0)) / (delta / 2.0))
    return (
        bessel_dev <= 1e-10 and mass_dev <= 1e-6 and semi_dev <= 1e-5
        and max(slope_devs) <= 0.15,
        f"I_1/2 {bessel_dev:.1e}, stationary {mass_dev:.1e}, semigroup {semi_dev:.1e}, "
        f"decay slope dev {max(slope_devs):.2%}",
    )


def _shrinking_sphere():
    return flow.shrinking_sphere(4, 1.0, np.linspace(0.0, 0.03, 200))


def flow_oracles():
    n, T = 4, 1.0

    # shrinking cylinder at 4000 nodes to t = 0.9 T
    st = flow.shrinking_cylinder(n, T, np.linspace(0.0, 1.0, 4000))
    _, diag_cyl = flow.evolve(st, n, horizon=0.9, target=1e-8)
    cyl_rel = abs(diag_cyl.Qmin[-1] / math.sqrt(6.0 * 0.1) - 1.0)
    fit_cyl = flow.fit_rate(diag_cyl.times, diag_cyl.Amax, T, window=(0.1, 1.0))

    # shrinking sphere
    _, diag_sph = flow.evolve(_shrinking_sphere(), n, horizon=0.9, target=1e-8)
    t_est_dev = abs(diag_sph.T_est - T)
    fit_sph = flow.fit_rate(diag_sph.times, diag_sph.Amax, T, window=(0.1, 1.0))

    # stationary cone and minimal profile over a unit horizon
    rc = np.linspace(0.5, 5.0, 200)
    cone = flow.ProfileState(r=rc, Q=rc.copy(), t=0.0)
    traj_cone, _ = flow.evolve(cone, n, horizon=1.0, target=1e-8)
    cone_drift = float(np.abs(traj_cone[-1].Q - rc).max())

    mp = integrate_profile(4, 1.0, 100.0, tol=1e-10)
    rm = np.geomspace(0.01, 20.0, 400)
    minimal = flow.discrete_steady(n, flow.ProfileState(r=rm, Q=mp.jet(rm)[0], t=0.0))
    traj_min, _ = flow.evolve(minimal, n, horizon=1.0, target=1e-9)
    min_drift = float(np.abs(traj_min[-1].Q - minimal.Q).max())

    # comparison principle on 5 ordered random pairs
    rng = np.random.default_rng(17)
    ordered = True
    rr = np.linspace(0.2, 2.0, 120)
    for _ in range(5):
        base = 1.0 + 0.3 * rng.uniform(0.2, 1.0) * np.sin(rng.uniform(1, 3) * rr)
        hi = base + 0.05 + 0.1 * rng.uniform(0.0, 1.0, rr.size)
        tlo, _ = flow.evolve(flow.ProfileState(r=rr, Q=base, t=0.0), n, 0.05, target=1e-8)
        thi, _ = flow.evolve(flow.ProfileState(r=rr, Q=hi, t=0.0), n, 0.05, target=1e-8)
        ordered = ordered and bool(np.all(thi[-1].Q > tlo[-1].Q))

    return (
        cyl_rel <= 1e-4 and t_est_dev <= 1e-3
        and cone_drift <= 1e-8 and min_drift <= 1e-8
        and abs(fit_cyl.exponent + 0.5) <= 0.005 and abs(fit_sph.exponent + 0.5) <= 0.005
        and ordered,
        f"cylinder {cyl_rel:.1e}, T_est dev {t_est_dev:.1e}, drifts "
        f"{cone_drift:.1e}/{min_drift:.1e}, rates {fit_cyl.exponent:+.4f}/"
        f"{fit_sph.exponent:+.4f}, ordering {ordered}",
    )


def rescalings():
    # inner zoom sends Lambda-scaled minimal data back to the minimal profile
    p = derive_constants(4, 4, T=1.0)
    mp = integrate_profile(4, 1.0, 200.0, tol=1e-10)
    t = 0.9
    lam = (p.T - t) ** (-(p.sigma_k + 0.5))
    r_nodes = mp.grid[(mp.grid > 0.0) & (mp.grid < mp.r_max / (2.0 * lam))]
    state = flow.ProfileState(r=r_nodes, Q=mp.jet(lam * r_nodes)[0] / lam, t=t)
    p_grid = np.geomspace(lam * r_nodes[2], lam * r_nodes[-3], 99)
    res = flow.to_inner(state, p, p_grid=p_grid)
    inner_dev = float(np.abs(res.y - mp.jet(p_grid)[0]).max())

    # parabolic zoom of the evolving sphere is a fixed profile to 0.1%
    traj, _ = flow.evolve(_shrinking_sphere(), 4, horizon=0.9, target=1e-8)
    p2 = derive_constants(4, 2, T=1.0)
    rho = np.linspace(0.0, 0.04, 40)
    qs = np.array(
        [flow.to_parabolic(s, p2, rho_grid=rho).y for s in traj if s.t >= 0.55][::5]
    )
    spread = float(((qs.max(0) - qs.min(0)) / qs.mean(0)).max())
    return (
        inner_dev <= 1e-6 and spread <= 1e-3,
        f"inner-map dev {inner_dev:.1e}, parabolic profile spread {spread:.1e}",
    )


def barrier_inequalities():
    rng = np.random.default_rng(4)
    bracket_exact = True
    res_min = np.inf
    for n in (4, 5, 7):
        for k in (2, 3, 4):
            p = derive_constants(n, k, T=1.0)
            s = barriers.supersolution(p, 1.0)
            bracket_exact &= s.C1 / s.C0 == barriers.bracket_constant(n, p.lambda_k)
            ts = rng.uniform(0.0, 0.999, 10000)
            rs = s.validity_radius(ts) * (1.0 + rng.uniform(0.01, 50.0, ts.size))
            res_min = min(
                res_min, barriers.supersolution_residual(s, 2.0, np.column_stack([rs, ts]))
            )
    # threshold inequality for the domination constant
    p = derive_constants(4, 4, T=1.0)
    s = barriers.supersolution(p, 1.0)
    gamma = 10.0
    ts = rng.uniform(0.0, 0.999, 10000)
    rs = gamma * np.sqrt(1.0 - ts) * (1.0 + rng.uniform(0.0, 20.0, ts.size))
    margin = barriers.domination_margin(s, gamma, rs, ts)
    convex = barriers.convexity_reduction_check(rng.uniform(0.0, 1e3, 100000))
    return (
        bracket_exact and res_min >= -1e-12 and margin >= -1e-12 and convex,
        f"bracket exact {bracket_exact}, residual min {res_min:.1e}, "
        f"domination margin {margin:.1e}, convexity {convex}",
    )


def constants():
    form_dev = max(abs(a - b) for a, b in (_alpha_forms(n) for n in range(4, 65)))
    cross_dev = 0.0
    for n in range(4, 65):
        p = derive_constants(n, 2)
        cross_dev = max(cross_dev, abs((p.mu + 0.5) - (n - 1 + p.alpha)))
    # |alpha| decreases strictly in n towards its limit 1
    alphas = [abs(derive_constants(n, 2).alpha) for n in range(4, 65)]
    decreasing = all(a > b for a, b in zip(alphas, alphas[1:]))
    k2_blocked = not any(
        admissible_window_exists(derive_constants(n, 2)) for n in (4, 5, 6, 7)
    )
    n4k4 = admissible_window_exists(derive_constants(4, 4))
    n5k3 = all(admissible_window_exists(derive_constants(n, 3)) for n in (5, 6, 7))
    return (
        form_dev <= 1e-12 and cross_dev <= 1e-12
        and decreasing and alphas[-1] < 1.02
        and k2_blocked and n4k4 and n5k3,
        f"alpha-form dev {form_dev:.1e}, cross identity {cross_dev:.1e}, "
        f"|alpha| decreasing {decreasing} to |alpha(64)| {alphas[-1]:.4f}, "
        f"admissibility table reproduced {k2_blocked and n4k4 and n5k3}",
    )


CRITERIA = (
    Criterion(1, "curvature oracles", curvature_oracles, 1.0, True),
    Criterion(2, "minimal surface matrix", minimal_surface_matrix, 10.0 * 9, True),
    Criterion(3, "jacobi", jacobi_operator, 60.0, True),
    Criterion(4, "bessel heat kernel", bessel_heat_kernel, 120.0, True),
    Criterion(5, "flow", flow_oracles, 300.0, False),
    Criterion(6, "rescalings", rescalings, 60.0, False),
    Criterion(7, "barriers", barrier_inequalities, 10.0, True),
    Criterion(8, "constants", constants, 1.0, True),
)


def run_criterion(c: Criterion) -> tuple[bool, str]:
    """Time one criterion; return whether it passed and its report line."""
    t0 = time.time()
    ok, detail = c.measure()
    elapsed = time.time() - t0
    passed = bool(ok) and elapsed < c.budget
    status = "PASS" if passed else "FAIL" if not ok else "FAIL, over budget"
    return passed, (
        f"[criterion {c.number}] [{status}] {c.title}: {detail} "
        f"({elapsed:.2f}s / budget {c.budget:.0f}s)"
    )
