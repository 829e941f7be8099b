import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from mcflab import jacobi
from mcflab.errors import GridMismatch
from mcflab.fitting import log_spline
from mcflab.geometry import jet_curvature
from mcflab.jacobi import (
    _REFINE,
    _fem_matrices,
    _gauss_step_matrices,
    _gauss_tableau,
    _invert_fine,
    apply_L,
    assemble,
    generalized_kernel,
    indicial_roots,
    potential,
    top_eigenvalue,
    wronskian,
)
from mcflab.minimal_surface import _gap_rhs
from mcflab.verify import _bump


def invert_L(jd, f):
    """L^{-1} f for f sampled on jd.grid, densified onto the fine grid in log r."""
    return _invert_fine(jd, log_spline(jd.xi, f)(jd._fine["xi"]))[::_REFINE]


def u0_jets(jd):
    _, _, W, u0, _, u0p, Wp = jd.coefficients_at(jd.grid)
    return u0, u0p, (Wp + W * W) * u0


def test_envelope_and_asymptotics(jd4):
    n = jd4.n
    # area density ~ b^{n-1} r^{n-1} near the axis
    i = int(np.argmin(np.abs(jd4.grid - jd4.mp.b / 50.0)))
    ratio = jd4.J[i] / jd4.grid[i] ** (n - 1)
    assert ratio == pytest.approx(jd4.mp.b ** (n - 1), rel=0.01)
    # potential ~ 2(n-1)/r^2 far out
    assert jd4.V[-1] * jd4.grid[-1] ** 2 == pytest.approx(2.0 * (n - 1), rel=0.05)
    assert np.all(jd4.V > 0.0)
    # log-derivative of u0 ~ alpha/r far out, negative there
    assert jd4.W[-1] * jd4.grid[-1] == pytest.approx(-2.0, rel=0.05)
    assert np.all(jd4.W[jd4.grid > 10.0] < 0.0)


def test_axis_potential_value(jd4):
    # V(0) = n Q''(0)^2 + (n-1)/b^2, with Q''(0) = (n-1)/(n b) on the axis
    mp = jd4.mp
    b, n = mp.b, jd4.n
    q2_axis = (n - 1) / (n * b)
    expected = n * q2_axis**2 + (n - 1) / b**2
    assert n * mp.jet(0.0)[2][0] ** 2 + (n - 1) / b**2 == pytest.approx(expected, rel=1e-12)
    # the sampled V at the first node, r = b/1000, agrees
    assert jd4.V[0] == pytest.approx(expected, rel=1e-4)


def test_L_u0_annihilated(jd4):
    u0, u0p, u0pp = u0_jets(jd4)
    res = apply_L(jd4, u0, jets=(u0p, u0pp))
    assert float(np.abs(res).max()) <= 1e-6


def test_L_u0_finite_difference(jd4):
    res = apply_L(jd4, jd4.u0)
    mid = (jd4.grid > 10.0 * jd4.grid[0]) & (jd4.grid < jd4.grid[-1] / 10.0)
    assert float(np.abs(res[mid]).max()) <= 1e-4


def test_apply_L_finite_differences_are_nan_at_the_edges(jd4):
    # the 7-point stencils fit only from the 4th node to the 4th-last one
    finite = np.isfinite(apply_L(jd4, jd4.u0))
    assert not finite[:3].any() and not finite[-3:].any()
    assert finite[3:-3].all()


def test_apply_L_grid_mismatch(jd4):
    with pytest.raises(GridMismatch):
        apply_L(jd4, np.ones(7))


def test_invert_zero(jd4):
    out = invert_L(jd4, np.zeros_like(jd4.grid))
    assert np.all(out == 0.0)


def test_invert_roundtrip_bump(jd4):
    r = jd4.grid
    f = np.exp(-((np.log(r / 3.0)) ** 2) * 4.0)
    u = invert_L(jd4, f)
    back = apply_L(jd4, u)
    span = r[-1] / r[0]
    mid = (r >= r[0] * span**0.25) & (r <= r[0] * span**0.75)
    rel = np.abs(back[mid] - f[mid]) / np.abs(f).max()
    assert float(rel.max()) <= 1e-5


@pytest.mark.parametrize("data", ["growing", "bump"])
def test_invert_L_is_odd(jd4, data):
    # L is linear, so L^{-1}(-f) = -L^{-1}(f), bit for bit: negation is exact
    r = jd4.grid
    if data == "growing":
        f = jd4.s * jd4.u0  # the data of the kernel ladder's first rung
    else:
        f = np.exp(-((np.log(r / 3.0)) ** 2) * 4.0)
    assert np.array_equal(invert_L(jd4, -f), -invert_L(jd4, f))


def test_potential_is_s_times_A2(mp4):
    # V = (1+Q'^2)|A|^2 ties the Jacobi potential to the curvature calculus
    rs = mp4.grid[mp4.grid > 0.0]
    q, q1, q2 = mp4.jet(rs)
    V, s = potential(mp4.n, rs, q, q1, q2)
    _, A2 = jet_curvature(mp4.n, rs, q, q1, q2)
    assert np.array_equal(s, 1.0 + q1 * q1)
    assert float(np.max(np.abs(V - s * A2) / (s * A2))) <= 1e-14


def test_generalized_kernel_exponents(jd4):
    elems = generalized_kernel(jd4, 3)
    alpha = -2.0
    for e in elems:
        inner_t = 2.0 * e.j
        outer_t = 2.0 * e.j + alpha
        assert abs(e.inner_fit.exponent - inner_t) <= 0.05 * max(1.0, abs(inner_t))
        assert abs(e.outer_fit.exponent - outer_t) <= 0.05 * max(1.0, abs(outer_t))
        if e.j > 0:
            assert np.all(e.u[1:] > 0.0)
    # ladder climbs by 2 per rung
    outers = [e.outer_fit.exponent for e in elems]
    steps = np.diff(outers)
    assert np.all(np.abs(steps - 2.0) <= 0.05 * 2.0)


def test_generalized_kernel_residuals(jd4):
    elems = generalized_kernel(jd4, 3)
    mid = (jd4.grid > 10.0 * jd4.grid[0]) & (jd4.grid < jd4.grid[-1] / 10.0)
    for j in range(1, 4):
        lhs = apply_L(jd4, elems[j].u)
        rhs = jd4.s * elems[j - 1].u
        rel = np.abs(lhs[mid] - rhs[mid]) / np.abs(rhs[mid]).max()
        assert float(rel.max()) <= 1e-5, f"u_{j} residual {rel.max():.2e}"


def test_generalized_kernel_domain_guard(profile_cache):
    mp = profile_cache(4, 1.0, 200.0)
    jd = assemble(mp)
    with pytest.raises(ValueError, match="r_max"):
        generalized_kernel(jd, 3)


def test_assemble_refuses_an_area_density_that_overflows(profile_cache):
    # J ~ r^(2n-2) passes the largest double below r_max = 3320 at n = 50; the
    # positivity check let the +inf through, after a bare numpy overflow warning
    with pytest.raises(ValueError, match="^the area density J leaves the floating-point "
                       "range below r_max = 3320 at n = 50; a smaller r_max keeps it finite$"):
        assemble(profile_cache(50, 1.0, 3320.0))


@pytest.mark.parametrize(("slot", "name"), [(1, "the potential V"), (3, "the kernel element u0")])
def test_assemble_refuses_a_nonfinite_potential_or_kernel_element(mp4, monkeypatch, slot, name):
    # NaN passes the positivity check as +inf does; one node of V or u0 is spoilt
    exact = jacobi._coefficients

    def spoilt(mp, r):
        out = list(exact(mp, r))
        out[slot] = out[slot].copy()
        out[slot][-1] = math.nan
        return tuple(out)

    monkeypatch.setattr(jacobi, "_coefficients", spoilt)
    with pytest.raises(ValueError, match=f"^{name} leaves the floating-point range below "
                       f"r_max = {mp4.grid[-1]:g} at n = 4"):
        assemble(mp4)


def test_indicial_roots_closed_form():
    roots4 = indicial_roots(4)
    assert roots4.at_infinity == pytest.approx((-2.0, -3.0), abs=1e-14)
    assert roots4.at_zero == (0.0, -2.0)
    roots5 = indicial_roots(5)
    assert roots5.at_infinity[1] == pytest.approx(0.5 * (-7.0 - math.sqrt(17.0)), abs=1e-12)


def test_indicial_roots_rejects_data_of_another_n(jd4):
    # v0 of n = 5 on n = 4 data had inner exponent -3 and Wronskian spread 1
    with pytest.raises(ValueError, match="n = 5"):
        indicial_roots(5, jd4)


def test_singular_solution_and_wronskian(jd4):
    roots = indicial_roots(4, jd4)
    assert roots.inner_fit.exponent == pytest.approx(-2.0, rel=0.05)
    # apply_L on v0 samples vanishes away from the endpoints
    res = apply_L(jd4, roots.v0)
    mid = (jd4.grid > 10.0 * jd4.grid[0]) & (jd4.grid < jd4.grid[-1] / 10.0)
    scale = np.abs(jd4.V[mid] * roots.v0[mid])
    assert float((np.abs(res[mid]) / scale).max()) <= 1e-4
    w = wronskian(jd4, roots)
    probes = w[np.linspace(0, len(w) - 1, 10).astype(int)]
    assert (probes.max() - probes.min()) <= 0.01 * np.abs(probes).max()


def gap_reader(mp):
    """mp.gap at one radius, in plain floats, for a reference that calls it
    once per right-hand side.

    It repeats the operations of minimal_surface._DenseGap in their order:
    Horner's scheme below r_seed, and above it the continuous extension of
    the DOP853 step that searchsorted picks (on an edge, the step ending
    there), summed over reversed(F) times x and 1 - x in turn, with y_old
    added last.  So it is bit-equal to mp.gap.
    """
    d = mp._dense
    coef, dcoef, v2_axis, r_seed = d.coef.tolist(), d.dcoef.tolist(), d.v2_axis, d.r_seed
    edges, t_old, h, y_old = d.edges.tolist(), d.t_old.tolist(), d.h.tolist(), d.y_old.tolist()
    F = [f[::-1] for f in d.F.tolist()]
    last = len(h) - 1

    def gap(r):
        r = float(r)
        if r <= r_seed:
            v = v1 = 0.0
            for c in coef:
                v = v * r + c
            for c in dcoef:
                v1 = v1 * r + c
            v, v1 = v - r, v1 - 1.0
        else:
            k = min(max(bisect.bisect_left(edges, r) - 1, 0), last)
            x = (r - t_old[k]) / h[k]
            v = v1 = 0.0
            for i, (f, f1) in enumerate(F[k]):
                m = x if i % 2 == 0 else 1 - x
                v, v1 = (v + f) * m, (v1 + f1) * m
            v, v1 = v + y_old[k][0], v1 + y_old[k][1]
        return v, v1, _gap_rhs(mp.n, r, v, v1) if r > 0.0 else v2_axis

    return gap


@pytest.mark.parametrize("n", [4, 5, 7])
def test_singular_solution_matches_dop853(profile_cache, n):
    # an independent solve of L v = 0 in r, one radius at a time, at scipy's
    # floor rtol; coefficients straight from the profile gap and potential()
    mp = profile_cache(n, 1.0, 10.0**3.5, tol=1e-12)
    jd = assemble(mp)
    roots = indicial_roots(n, jd)
    a_minus = roots.at_infinity[1]
    r_hi = jd.grid[-1]
    gap = gap_reader(mp)
    probes = np.concatenate(
        [[0.0, mp.r_seed], jd.grid, np.sqrt(jd.grid[1:] * jd.grid[:-1]), mp._dense.edges]
    )
    assert np.array_equal(np.array([gap(r) for r in probes]), np.stack(mp.gap(probes), axis=1))

    def rhs(r, y):
        v, v1, v2 = gap(r)
        V, s = potential(n, r, r + v, 1.0 + v1, v2)
        return [y[1], -(n - 1) * s / r * y[1] - V * y[0]]

    sol = solve_ivp(
        rhs,
        (r_hi, jd.grid[0]),
        [r_hi**a_minus, a_minus * r_hi ** (a_minus - 1.0)],
        method="DOP853",
        rtol=2.3e-14,
        atol=1e-300,
        t_eval=jd.grid[::-1],
    )
    assert sol.success
    assert np.max(np.abs(roots.v0 / sol.y[0][::-1] - 1.0)) <= 1e-10
    assert np.max(np.abs(roots.v0_prime / sol.y[1][::-1] - 1.0)) <= 1e-10


def test_gauss_tableau_order_conditions():
    c, b, a = _gauss_tableau()
    for k in range(1, 9):  # B(8): the quadrature is exact to degree 7
        assert np.sum(b * c ** (k - 1)) == pytest.approx(1.0 / k, abs=1e-15)
    for k in range(1, 5):  # C(4): each stage is exact to degree 3
        np.testing.assert_allclose(a @ c ** (k - 1), c**k / k, rtol=0.0, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    entries=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda e: max(map(abs, e)) > 1e-3
    ),
    norm=st.floats(0.0, 0.5),
    backward=st.booleans(),
)
def test_gauss_step_is_exponential_for_constant_A(entries, norm, backward):
    # the step's stability function is the (4, 4) Pade approximant of e^z,
    # whose error starts at (4!)^2 / (8! 9!) z^9 = 3.9e-8 z^9: 1.3e-10 at
    # |z| = 0.5, below 1e-13 for |z| <= 0.2
    A = np.array(entries).reshape(2, 2)
    h = (-1.0 if backward else 1.0) * norm / np.linalg.norm(A, 2)
    stage_A = np.broadcast_to(A, (1, len(_gauss_tableau()[0]), 2, 2))
    M = _gauss_step_matrices(np.array([h]), stage_A)[0]
    np.testing.assert_allclose(M, expm(h * A), rtol=0.0, atol=1e-7 * norm**9 + 1e-14)


def test_adjunction_identity(jd4):
    # int (Au) v J dr = int u (A*v) J dr for compactly supported smooth u, v
    fine = jd4._fine
    r, J, W, s = fine["r"], fine["J"], fine["W"], fine["s"]
    xi = fine["xi"]
    rng = np.random.default_rng(11)
    from scipy.integrate import simpson

    for _ in range(5):
        c1, c2 = np.exp(rng.uniform(np.log(0.5), np.log(50.0), 2))
        u, du = _bump(r, c1, 1.0)
        v, dv = _bump(r, c2, 1.2)
        Au = -du + W * u
        Astar_v = dv + (jd4.n - 1) * s / r * v + W * v
        lhs = simpson(Au * v * J * r, x=xi)
        rhs = simpson(u * Astar_v * J * r, x=xi)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-8 * scale


def test_coefficients_require_positive_radii(jd4):
    # Q''' and u0'' divide by r: the axis has no Jacobi coefficients
    with pytest.raises(ValueError, match="r > 0"):
        jd4.coefficients_at(0.0)


def test_stored_u0_and_u0_prime_are_the_coefficients_at_the_grid(jd4):
    _, _, _, u0, _, u0p, _ = jd4.coefficients_at(jd4.grid)
    assert np.array_equal(jd4.u0, u0)
    assert np.array_equal(jd4.u0p, u0p)


def test_wronskian_evaluates_no_coefficients(jd4, monkeypatch):
    roots = indicial_roots(4, jd4)
    expected = wronskian(jd4, roots)
    calls = []
    monkeypatch.setattr(jacobi, "_coefficients", lambda *a: calls.append(a))
    assert np.array_equal(wronskian(jd4, roots), expected)
    assert calls == []


def test_factorization_identity(jd4):
    # L u = -A*(A u) pointwise, using exact derivative bookkeeping
    r = jd4.grid
    J, V, W, u0, s, u0p, Wp = jd4.coefficients_at(r)
    jlog = (jd4.n - 1) * s / r
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        a, b, c = rng.uniform(0.3, 3.0, 3)
        u = np.sin(a * r) * np.exp(-b * r) + c * np.exp(-r)
        u1 = a * np.cos(a * r) * np.exp(-b * r) - b * np.sin(a * r) * np.exp(-b * r) - c * np.exp(-r)
        u2 = (
            -a * a * np.sin(a * r) * np.exp(-b * r)
            - 2 * a * b * np.cos(a * r) * np.exp(-b * r)
            + b * b * np.sin(a * r) * np.exp(-b * r)
            + c * np.exp(-r)
        )
        Lu = u2 + jlog * u1 + V * u
        Au = -u1 + W * u
        dAu = -u2 + Wp * u + W * u1
        AstarAu = dAu + jlog * Au + W * Au
        resid = np.abs(Lu + AstarAu).max()
        worst = max(worst, resid / (1.0 + np.abs(u2).max()))
    assert worst <= 1e-8


def test_top_eigenvalue_bound(jd4):
    lam = top_eigenvalue(jd4, 50.0, nodes=4000)
    assert lam <= 1e-3
    lam25 = top_eigenvalue(jd4, 25.0, nodes=2000)
    assert lam25 <= lam + 1e-6


def _count_above(A_d, A_o, M, mu):
    """Eigenvalues of the pencil (A, M) above mu, by a Sturm count in plain floats.

    mu M - A = M^{1/2} (mu I - T) M^{1/2} with T = M^{-1/2} A M^{-1/2}, so by
    Sylvester's law of inertia its negative LDL^T pivots count the eigenvalues
    of T above mu, with no LAPACK call and without forming T.
    """
    count, pivot = 0, 1.0
    for i in range(len(A_d)):
        pivot = mu * M[i] - A_d[i] - (A_o[i - 1] ** 2 / pivot if i else 0.0)
        count += pivot < 0.0
    return count


@pytest.mark.parametrize("n", [4, 5, 7])
@pytest.mark.parametrize("nodes", [1000, 4000])
def test_top_eigenvalue_sturm_count(profile_cache, n, nodes):
    jd = assemble(profile_cache(n, 1.0, 10.0**3.5, tol=1e-12))
    lam = top_eigenvalue(jd, 50.0, nodes=nodes)
    _, (A_d, A_o), M = _fem_matrices(jd, 50.0, nodes)
    assert _count_above(A_d, A_o, M, lam * (1.0 + 1e-9)) == 1
    assert _count_above(A_d, A_o, M, lam * (1.0 - 1e-9)) == 0


def test_top_eigenvalue_guard(jd4):
    with pytest.raises(ValueError, match="factor 2"):
        top_eigenvalue(jd4, jd4.grid[-1], nodes=100)


def test_rayleigh_quotient_of_cutoff_u0(jd4):
    # u0 is an exact null vector; a wide smooth cutoff at R/2 costs O(R^-2)
    mp = jd4.mp
    R = 400.0

    def trial(r):
        q, q1, _ = mp.jet(r)
        u0 = (q - r * q1) / np.sqrt(1.0 + q1 * q1)
        x = np.clip(r / (R / 2.0), 0.0, 1.0)
        return u0 * np.cos(0.5 * np.pi * x) ** 2

    # the quotient (x, A x)/(x, M x) of the P1 matrices on the nodal values
    r, (A_d, A_o), M = _fem_matrices(jd4, R, 4000)
    x = trial(r[:-1])
    Ax = A_d * x
    Ax[:-1] += A_o * x[1:]
    Ax[1:] += A_o * x[:-1]
    assert abs((x @ Ax) / (x @ (M * x))) <= 1e-3
