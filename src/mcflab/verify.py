"""The acceptance criteria: one table that pytest and `mcf verify-all` both run.

Each measure function constructs what it checks, so the runtime budgets are
honest, and returns its checks: a label, the measured values and one bound
each.  `run_criterion` is the one pass rule.  It times a criterion, reduces
each check's values to the worst one and compares that with the bound, and
formats the `[criterion N]` line.  A criterion passes only if every check
holds and it finishes within its budget; a measure that raises fails its
criterion, and its line names the exception.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import barriers, cone_heat, flow, geometry, jacobi
from .fitting import fit_power_law
from .minimal_surface import fit_tail, integrate_profile, u0_profile, verify_scaling
from .params import _alpha_forms, admissible_window_exists, derive_constants


@dataclass(frozen=True)
class Check:
    """One check: a label, its measured values and the bound they must keep.

    `values` is a number, an array or a list of per-case values.  With an op,
    the worst value is np.max of them for "<=" and "<" and np.min for ">=";
    both reductions propagate NaN, so a NaN fails the comparison.  With no
    op, the check is a boolean one and every value must be True.
    """

    label: str
    values: object
    op: str | None = None
    bound: float | None = None


_OPS = {"<=": (np.max, operator.le), "<": (np.max, operator.lt), ">=": (np.min, operator.ge)}


def _judge(check: Check) -> tuple[bool, str]:
    """Whether a check holds, and the text `label worst op bound` for it."""
    if check.op is None:
        held = bool(np.all(np.equal(check.values, True)))  # a NaN is not True
        return held, f"{check.label} {held}"
    reduce, compare = _OPS[check.op]
    worst = float(reduce(check.values))
    return compare(worst, check.bound), f"{check.label} {worst:.4g} {check.op} {check.bound:.4g}"


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion.

    Its pytest test is named test_criterion_<number>_<title>, with the
    title's spaces written as underscores.
    """

    number: int
    title: str
    measure: Callable[[], list[Check]]
    budget: float


def curvature_oracles():
    devs = []
    for n in (4, 5, 7):
        cone = geometry.curvature(n, geometry.ProfileJet(2.0, 2.0, 1.0, 0.0))
        devs += [abs(cone.H), abs(cone.A2 - (n - 1) / 4.0)]
        for c in (0.5, 2.0):
            cyl = geometry.curvature(n, geometry.ProfileJet(1.0, c, 0.0, 0.0))
            devs += [abs(cyl.H + (n - 1) / c), abs(cyl.A2 - (n - 1) / c**2)]
        R = 1.3
        for r in np.linspace(0.1, 0.9 * R, 9):
            q = math.sqrt(R * R - r * r)
            sph = geometry.curvature(n, geometry.ProfileJet(r, q, -r / q, -R * R / q**3))
            devs += [abs(sph.H + (2 * n - 1) / R), abs(sph.A2 - (2 * n - 1) / R**2)]
    # finite-difference jets converge at order >= 1.9 on the sphere oracle
    hs = [0.02 / 2**k for k in range(5)]
    errs = []
    for h in hs:
        r = np.array([0.7 - h, 0.7, 0.7 + h])
        q = np.sqrt(1.3**2 - r * r)
        d = geometry.curvature(5, geometry.fd_jet(r, q, 1))
        errs.append(abs(d.H + 9.0 / 1.3))
    order = fit_power_law(hs, errs).exponent
    return [Check("closed-form dev", devs, "<=", 1e-10), Check("FD order", order, ">=", 1.9)]


def minimal_surface_matrix():
    tail_devs, scaling_devs, seconds, convex, positive = [], [], [], [], []
    for n in (4, 5, 7):
        alpha = derive_constants(n, 2).alpha
        mp1 = integrate_profile(n, 1.0, 200.0, tol=1e-10)
        for b in (0.5, 1.0, 2.0):
            tp = time.time()
            mp = mp1 if b == 1.0 else integrate_profile(n, b, 200.0 * b, tol=1e-10)
            seconds.append(time.time() - tp)
            convex.append(bool(np.all(mp.q2 > 0.0)))
            positive.append(bool(np.all(u0_profile(mp).u0 > 0.0)))
            fit = fit_tail(mp, window=(20.0 * b, 200.0 * b))
            tail_devs.append(abs(fit.exponent / alpha - 1.0))
            if b != 1.0:
                scaling_devs.append(verify_scaling(mp1, mp))
    return [Check("tail exponent dev", tail_devs, "<=", 0.05),
            Check("scaling sup-dev", scaling_devs, "<=", 1e-7),
            Check("Q'' > 0", convex), Check("u0 > 0", positive),
            Check("slowest profile (s)", seconds, "<", 10.0)]


def _bump(r, center, width):
    """The bump exp(-1/(1 - x^2)) in x = log(r/center)/width, zero for |x| >= 1,
    and its derivative in r."""
    x = (np.log(r) - np.log(center)) / width
    ins = np.abs(x) < 1.0
    g = np.where(ins, 1.0 - x * x, 1.0)
    u = np.where(ins, np.exp(-1.0 / g), 0.0)
    return u, np.where(ins, u * (-2.0 * x / g**2) / width, 0.0) / r


def jacobi_operator():
    mp = integrate_profile(4, 1.0, 10.0**3.5, tol=1e-12)
    jd = jacobi.assemble(mp)
    r = jd.grid
    _, _, W, u0v, _, u0p, Wp = jd.coefficients_at(r)
    res0 = float(np.abs(jacobi.apply_L(jd, u0v, jets=(u0p, (Wp + W * W) * u0v))).max())

    elems = jacobi.generalized_kernel(jd, 3)
    mid = (r > 10.0 * r[0]) & (r < r[-1] / 10.0)
    chain, exp_devs = [], []
    for j, e in enumerate(elems):
        if j > 0:
            lhs = jacobi.apply_L(jd, e.u)
            rhs = jd.s * elems[j - 1].u
            chain.append(float((np.abs(lhs[mid] - rhs[mid]) / np.abs(rhs[mid]).max()).max()))
        exp_devs += [
            abs(e.inner_fit.exponent - 2.0 * j) / max(1.0, 2.0 * j),
            abs(e.outer_fit.exponent - (2.0 * j - 2.0)) / max(1.0, abs(2.0 * j - 2.0)),
        ]

    # adjunction on smooth compact bumps with exact derivatives
    from scipy.integrate import simpson

    fine = jd._fine
    rf, Jf, Wf, sf, xif = fine["r"], fine["J"], fine["W"], fine["s"], fine["xi"]
    u, du = _bump(rf, 3.0, 1.0)
    v, dv = _bump(rf, 8.0, 1.3)
    Au = -du + Wf * u
    Astar_v = dv + (jd.n - 1) * sf / rf * v + Wf * v
    lhs_i = simpson(Au * v * Jf * rf, x=xif)
    rhs_i = simpson(u * Astar_v * Jf * rf, x=xif)
    adj = abs(lhs_i - rhs_i) / max(abs(lhs_i), abs(rhs_i))

    # singular solution: Wronskian with u0 constant on the grid, r^{-(n-2)} at 0
    roots = jacobi.indicial_roots(jd.n, jd)
    w = jacobi.wronskian(jd, roots)
    w_spread = float((w.max() - w.min()) / np.abs(w).max())
    v0_dev = abs(roots.inner_fit.exponent / roots.at_zero[1] - 1.0)

    lam = jacobi.top_eigenvalue(jd, 50.0, nodes=4000)
    return [Check("Lu0", res0, "<=", 1e-6), Check("chain", chain, "<=", 1e-5),
            Check("exponent dev", exp_devs, "<=", 0.05), Check("adjunction", adj, "<=", 1e-8),
            Check("Wronskian spread", w_spread, "<=", 0.01),
            Check("v0 exponent dev", v0_dev, "<=", 0.05), Check("top eig", lam, "<=", 1e-3)]


def _weber_dev(mu: float, t: float, nodes: int) -> float:
    """Max relative error of propagate on Weber's first exponential integral.

    The kernel carries rho^{mu+1/2} e^{-rho^2} to r^{mu+1/2} (1+4t)^{-(mu+1)}
    e^{-r^2/(1+4t)} for every mu (Watson, A Treatise on the Theory of Bessel
    Functions, 13.3).  The data is sampled on `nodes` log nodes over
    [1e-3, 12] and read on 40 log nodes over [0.05, 6].
    """
    rho = np.geomspace(1e-3, 12.0, nodes)
    v0 = cone_heat.HalfLineField(grid=rho, v=rho ** (mu + 0.5) * np.exp(-rho * rho), t=0.0)
    r = np.geomspace(0.05, 6.0, 40)
    s = 1.0 + 4.0 * t
    exact = r ** (mu + 0.5) * s ** (-(mu + 1.0)) * np.exp(-r * r / s)
    return float(np.abs(cone_heat.propagate(mu, t, v0, out_grid=r).v / exact - 1.0).max())


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
        p = derive_constants(n, 3)
        exp = cone_heat.decay_experiment(p, delta, np.geomspace(1.0, 100.0, 10))
        slope_devs.append(abs(exp.fit.exponent - (-delta / 2.0)) / (delta / 2.0))

    # the decay slope is -delta/2 whatever the kernel (its sup ratios are
    # images of one another under r = x sqrt(t)); Weber's integral is exact
    # at every mu, and its error falls like nodes^-4, the log spline's order
    weber_devs, weber_orders = [], []
    nodes = (200, 400, 800)
    for n in (4, 5, 7):
        mu = derive_constants(n, 3).mu
        devs = np.array([_weber_dev(mu, 0.01, m) for m in nodes])
        weber_devs += [devs[1], _weber_dev(mu, 0.1, 400)]
        weber_orders.append(-fit_power_law(np.array(nodes, float), devs, min_points=3).exponent)
    return [Check("I_1/2", bessel_dev, "<=", 1e-10), Check("stationary", mass_dev, "<=", 1e-6),
            Check("semigroup", semi_dev, "<=", 1e-5),
            Check("decay slope dev", slope_devs, "<=", 0.15),
            Check("Weber dev", weber_devs, "<=", 1e-6),
            Check("Weber order", weber_orders, ">=", 3.5)]


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
    ordered = []
    rr = np.linspace(0.2, 2.0, 120)
    for _ in range(5):
        base = 1.0 + 0.3 * rng.uniform(0.2, 1.0) * np.sin(rng.uniform(1, 3) * rr)
        hi = base + 0.05 + 0.1 * rng.uniform(0.0, 1.0, rr.size)
        tlo, _ = flow.evolve(flow.ProfileState(r=rr, Q=base, t=0.0), n, 0.05, target=1e-8)
        thi, _ = flow.evolve(flow.ProfileState(r=rr, Q=hi, t=0.0), n, 0.05, target=1e-8)
        ordered.append(bool(np.all(thi[-1].Q > tlo[-1].Q)))

    return [Check("cylinder", cyl_rel, "<=", 1e-4), Check("T_est dev", t_est_dev, "<=", 1e-3),
            Check("cone drift", cone_drift, "<=", 1e-8),
            Check("minimal drift", min_drift, "<=", 1e-8),
            Check("rate dev", [abs(fit_cyl.exponent + 0.5), abs(fit_sph.exponent + 0.5)],
                  "<=", 0.005),
            Check("ordering", ordered)]


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
    return [Check("inner-map dev", inner_dev, "<=", 1e-6),
            Check("parabolic profile spread", spread, "<=", 1e-3)]


def _bracket_cancellation(s: barriers.Supersolution) -> float:
    """Relative gap between d_t v+ and v_rr + (n-1) v_r / r + (n-1) v / r^2 at t = T.

    At beta = 1 and t = T the r^{2 lam - 1} terms of the residual cancel.
    Both sides come from s.value alone: d_t v+ is exact as a difference
    quotient, since v+ is linear in t, and the operator is taken by centred
    differences of relative step 1e-4 (order 2, about 3e-8 here).
    """
    n, T = s.p.n, s.p.T
    r = np.geomspace(0.5, 5.0, 20)
    dt = (s.value(r, T) - s.value(r, 0.0)) / T
    h = 1e-4 * r
    v_lo, v, v_hi = (s.value(x, T) for x in (r - h, r, r + h))
    v_r, v_rr = (v_hi - v_lo) / (2.0 * h), (v_hi - 2.0 * v + v_lo) / h**2
    lv = v_rr + (n - 1) * v_r / r + (n - 1) * v / r**2
    return float(np.max(np.abs(dt - lv) / np.abs(dt)))


def barrier_inequalities():
    rng = np.random.default_rng(4)
    bracket_exact, cancels, residuals = [], [], []
    for n in (4, 5, 7):
        for k in (2, 3, 4):
            p = derive_constants(n, k, T=1.0)
            s = barriers.supersolution(p, 1.0)
            bracket_exact.append(s.C1 / s.C0 == barriers.bracket_constant(n, p.lambda_k))
            cancels.append(_bracket_cancellation(s))
            samples = barriers.residual_samples(s, rng, 10000)
            residuals.append(barriers.supersolution_residual(s, 2.0, samples))
    # threshold inequality for the domination constant
    p = derive_constants(4, 4, T=1.0)
    s = barriers.supersolution(p, 1.0)
    gamma = 10.0
    ts = rng.uniform(0.0, 0.999, 10000)
    rs = gamma * np.sqrt(1.0 - ts) * (1.0 + rng.uniform(0.0, 20.0, ts.size))
    margin = barriers.domination_margin(s, gamma, rs, ts)
    return [Check("bracket exact", bracket_exact),
            Check("bracket cancels", cancels, "<=", 1e-6),
            Check("residual min", residuals, ">=", -1e-12),
            Check("domination margin", margin, ">=", -1e-12),
            Check("convexity", barriers.convexity_reduction_check(rng.uniform(0.0, 1e3, 100000)))]


def constants():
    ps = [derive_constants(n, 2) for n in range(4, 65)]
    form_devs = [abs(a - b) for a, b in (_alpha_forms(p.n) for p in ps)]
    cross_devs = [abs((p.mu + 0.5) - (p.n - 1 + p.alpha)) for p in ps]
    # |alpha| decreases strictly in n towards its limit 1
    alphas = [abs(p.alpha) for p in ps]
    # the mode k = 2 admits no weight for n = 4..7; (4, 4) and (5..7, 3) do
    table = [not admissible_window_exists(p) for p in ps[:4]]
    table += [admissible_window_exists(derive_constants(n, k))
              for n, k in ((4, 4), (5, 3), (6, 3), (7, 3))]
    return [Check("alpha-form dev", form_devs, "<=", 1e-12),
            Check("cross identity", cross_devs, "<=", 1e-12),
            Check("|alpha| decreasing", [a > b for a, b in zip(alphas, alphas[1:])]),
            Check("|alpha(64)|", alphas[-1], "<", 1.02),
            Check("admissibility table reproduced", table)]


CRITERIA = (
    Criterion(1, "curvature oracles", curvature_oracles, 1.0),
    Criterion(2, "minimal surface matrix", minimal_surface_matrix, 10.0 * 9),
    Criterion(3, "jacobi", jacobi_operator, 60.0),
    Criterion(4, "bessel heat kernel", bessel_heat_kernel, 120.0),
    Criterion(5, "flow", flow_oracles, 300.0),
    Criterion(6, "rescalings", rescalings, 60.0),
    Criterion(7, "barriers", barrier_inequalities, 10.0),
    Criterion(8, "constants", constants, 1.0),
)


def run_criterion(c: Criterion) -> tuple[bool, str]:
    """Time one criterion; return whether it passed and its report line.

    An exception from the measure is a failed oracle, not bad input: it
    becomes the criterion's one verdict, so the criteria after it still run.
    """
    t0 = time.time()
    try:
        verdicts = [_judge(check) for check in c.measure()]
    except Exception as exc:  # noqa: BLE001
        verdicts = [(False, f"raised {type(exc).__name__}: {exc}")]
    elapsed = time.time() - t0
    ok = all(held for held, _ in verdicts)
    passed = ok and elapsed < c.budget
    status = "PASS" if passed else "FAIL" if not ok else "FAIL, over budget"
    detail = ", ".join(text for _, text in verdicts)
    return passed, (
        f"[criterion {c.number}] [{status}] {c.title}: {detail} "
        f"({elapsed:.2f}s / budget {c.budget:.0f}s)"
    )
