import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflab.geometry import (
    ProfileJet,
    curvature,
    distance_equivalence,
    fd_jet,
    laplace_beltrami_radial,
    minimal_laplace_beltrami_radial,
    normal_position,
    profile_curvature,
    profile_jets,
    stencil_weights,
    unit_normal,
    weighted_sup_norm,
)

EPS = float(np.finfo(float).eps)


def sphere_jet(R, r):
    q = math.sqrt(R * R - r * r)
    return ProfileJet(r=r, q=q, q1=-r / q, q2=-R * R / q**3)


def random_jet(rng):
    return ProfileJet(
        r=float(rng.uniform(0.1, 5.0)),
        q=float(rng.uniform(0.1, 5.0)),
        q1=float(rng.uniform(-3.0, 3.0)),
        q2=float(rng.uniform(-5.0, 5.0)),
    )


def test_cone_oracle():
    data = curvature(4, ProfileJet(2.0, 2.0, 1.0, 0.0))
    assert data.H == pytest.approx(0.0, abs=1e-14)
    assert data.A2 == pytest.approx(3.0 / 4.0, rel=1e-14)


def test_cylinder_oracle():
    for r in (0.5, 1.0, 3.0):
        data = curvature(4, ProfileJet(r, 1.0, 0.0, 0.0))
        assert data.H == pytest.approx(-3.0, abs=1e-14)
        assert data.A2 == pytest.approx(3.0, rel=1e-14)


def test_sphere_oracle_frozen():
    # unit sphere at r = 0.6: Q = 0.8, Q' = -0.75, Q'' = -1/0.512
    data = curvature(4, ProfileJet(0.6, 0.8, -0.75, -1.0 / 0.512))
    assert data.H == pytest.approx(-7.0, abs=1e-12)
    assert data.A2 == pytest.approx(7.0, rel=1e-12)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_sphere_r_independence(n):
    R = 1.7
    for r in np.linspace(0.05, 0.95 * R, 40):
        data = curvature(n, sphere_jet(R, float(r)))
        assert abs(data.H + (2 * n - 1) / R) < 1e-10
        assert abs(data.A2 - (2 * n - 1) / R**2) < 1e-10


def test_trace_identity_random_jets(rng):
    for _ in range(300):
        jet = random_jet(rng)
        n = int(rng.integers(4, 8))
        d = curvature(n, jet)
        trace = (
            d.a_rr / d.g_rr
            + (n - 1) * d.a_omega / jet.r**2
            + (n - 1) * d.a_theta / jet.q**2
        )
        assert abs(d.H - trace) <= 1e-12 * max(1.0, abs(d.H))


def test_cauchy_schwarz_and_umbilic_equality(rng):
    for _ in range(300):
        jet = random_jet(rng)
        n = int(rng.integers(4, 8))
        d = curvature(n, jet)
        assert d.A2 >= d.H**2 / (2 * n - 1) - 1e-12 * max(1.0, d.A2)
    d = curvature(4, sphere_jet(1.3, 0.4))
    assert d.A2 == pytest.approx(d.H**2 / 7.0, rel=1e-12)


def test_axis_branch():
    # axis limit: H = n Q''(0) - (n-1)/Q(0)
    d = curvature(4, ProfileJet(0.0, 1.0, 0.0, 0.75))
    assert d.H == pytest.approx(4 * 0.75 - 3.0, abs=1e-14)
    assert d.A2 == pytest.approx(4 * 0.75**2 + 3.0, rel=1e-14)


def test_validation_errors():
    with pytest.raises(ValueError, match="positive"):
        curvature(4, ProfileJet(1.0, -1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="axis"):
        curvature(4, ProfileJet(0.0, 1.0, 0.5, 0.0))


def test_unit_normal():
    nr, ns = unit_normal(ProfileJet(1.0, 1.0, 1.0, 0.0))
    assert nr == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-14)
    assert ns == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    assert unit_normal(ProfileJet(1.0, 1.0, 0.0, 0.0)) == (0.0, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        jet = random_jet(rng)
        a, b = unit_normal(jet)
        assert abs(a * a + b * b - 1.0) <= 1e-14


def test_normal_position():
    assert normal_position(ProfileJet(0.0, 2.5, 0.0, 0.1)) == pytest.approx(2.5)
    for r in (0.5, 1.0, 4.0):
        assert normal_position(ProfileJet(r, r, 1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)


def test_normal_position_decreasing_on_minimal_profile(mp4):
    u0 = (mp4.v - mp4.grid * mp4.v1) / np.sqrt(1.0 + mp4.q1**2)
    assert np.all(u0 > 0.0)
    assert np.all(np.diff(u0) < 0.0)


def test_laplace_beltrami_constant_and_cone():
    n = 4
    jet = ProfileJet(1.3, 1.3, 1.0, 0.0)
    assert laplace_beltrami_radial(n, jet, (2.7, 0.0, 0.0)) == pytest.approx(0.0)
    # u = r^2 on the cone: both forms equal 1 + 2(n-1)
    r = 1.3
    u_jet = (r * r, 2 * r, 2.0)
    full = laplace_beltrami_radial(n, jet, u_jet)
    mini = minimal_laplace_beltrami_radial(n, jet, u_jet)
    assert full == pytest.approx(1.0 + 2.0 * (n - 1), rel=1e-14)
    assert mini == pytest.approx(full, rel=1e-14)


def test_laplace_beltrami_jacobi_identity_on_minimal_profile(mp4):
    # Delta u0 + |A|^2 u0 = 0 on the minimal profile, via analytic jets
    n = mp4.n
    mask = (mp4.grid > 0.0) & (mp4.grid <= 20.0)
    rs = mp4.grid[mask]
    q, q1, q2 = mp4.jet(rs)
    q3 = mp4.q3(rs)
    s = 1.0 + q1 * q1
    u0, u0p = mp4.u0(rs)
    u0pp = (
        -(q3 / s**1.5) * (rs + q * q1)
        + 3.0 * q1 * q2 * q2 * (rs + q * q1) / s**2.5
        - (q2 / s**1.5) * (1.0 + q1 * q1 + q * q2)
    )
    worst = 0.0
    for i in range(len(rs)):
        jet = ProfileJet(float(rs[i]), float(q[i]), float(q1[i]), float(q2[i]))
        lap = laplace_beltrami_radial(n, jet, (float(u0[i]), float(u0p[i]), float(u0pp[i])))
        A2 = curvature(n, jet).A2
        worst = max(worst, abs(lap + A2 * float(u0[i])))
    assert worst < 1e-6


def test_laplace_beltrami_two_term_agreement_on_minimal(mp4):
    # when the profile satisfies the minimal equation, full == two-term form
    mask = (mp4.grid > 0.0) & (mp4.grid <= 50.0)
    rs = mp4.grid[mask]
    q, q1, q2 = mp4.jet(rs)
    rng = np.random.default_rng(5)
    u1, u2 = rng.standard_normal(2)
    for i in range(0, len(rs), 7):
        jet = ProfileJet(float(rs[i]), float(q[i]), float(q1[i]), float(q2[i]))
        full = laplace_beltrami_radial(mp4.n, jet, (0.3, u1, u2))
        mini = minimal_laplace_beltrami_radial(mp4.n, jet, (0.3, u1, u2))
        assert abs(full - mini) <= 1e-8 * max(1.0, abs(full))


def test_distance_equivalence_cylinder_and_cone():
    r = np.linspace(0.0, 5.0, 200)
    rep = distance_equivalence(r, np.full_like(r, 2.0), np.zeros_like(r))
    assert rep.C == pytest.approx(1.0)
    assert abs(rep.max_ratio_violation) <= 1e-12

    rep = distance_equivalence(r, r + 1e-300, np.ones_like(r))
    assert rep.C == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert abs(rep.max_ratio_violation) <= 1e-12


def test_distance_equivalence_minimal_profile(mp4):
    rep = distance_equivalence(mp4.grid, mp4.q, mp4.q1)
    assert rep.max_ratio_violation <= 1e-12


def test_weighted_sup_norm():
    r = np.geomspace(1e-2, 100.0, 500)
    assert weighted_sup_norm(r, np.ones_like(r), 0.0).value == pytest.approx(1.0)
    assert weighted_sup_norm(r, (1.0 + r) ** -2, 2.0).value == pytest.approx(1.0)
    # refining the sample set can only raise the discrete supremum
    u = np.sin(3.0 * r) * (1.0 + r) ** -1
    coarse = weighted_sup_norm(r[::7], u[::7], 1.3).value
    full = weighted_sup_norm(r, u, 1.3).value
    assert full >= coarse
    with pytest.raises(ValueError):
        weighted_sup_norm(np.array([]), np.array([]), 1.0)


def test_weighted_norm_detects_supercritical_weight(mp4):
    # u0 ~ r^alpha with alpha = -2: weight a=2 saturates, a=2.5 grows with extent
    u0 = (mp4.v - mp4.grid * mp4.v1) / np.sqrt(1.0 + mp4.q1**2)
    r, u = mp4.grid[1:], u0[1:]
    near = r <= mp4.r_max / 100.0
    v_crit_near = weighted_sup_norm(r[near], u[near], 2.0).value
    v_crit_full = weighted_sup_norm(r, u, 2.0).value
    assert v_crit_full <= v_crit_near * 1.5
    v_super_near = weighted_sup_norm(r[near], u[near], 2.5).value
    v_super_full = weighted_sup_norm(r, u, 2.5).value
    assert v_super_full > 5.0 * v_super_near


def test_fd_jets_second_order():
    # dyadic h sweep against analytic sphere jets; observed order >= 1.9
    R, r0, n = 1.5, 0.7, 5
    errs = []
    hs = [0.02 / 2**k for k in range(5)]
    for h in hs:
        r = np.array([r0 - h, r0, r0 + h])
        q = np.sqrt(R * R - r * r)
        jet = fd_jet(r, q, 1)
        d = curvature(n, jet)
        errs.append(abs(d.H + (2 * n - 1) / R) + abs(d.A2 - (2 * n - 1) / R**2))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.9


@settings(max_examples=60, deadline=None)
@given(
    axis=st.booleans(),
    r0=st.floats(0.1, 3.0),
    gaps=st.lists(st.floats(0.1, 1.0), min_size=2, max_size=10),
    coef=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
def test_stencil_exact_on_quadratics(axis, r0, gaps, coef):
    # every node, interior and one-sided ends alike; the axis node is exact
    # on even quadratics, the only profiles smooth across r = 0
    r = np.concatenate([[0.0 if axis else r0], np.cumsum(gaps) + (0.0 if axis else r0)])
    a, b, c = coef
    if axis:
        b = 0.0
    Q = a + b * r + c * r * r
    q1, q2 = profile_jets(r, Q)
    tol = 50.0 * EPS * (1.0 + np.abs(Q).max()) / min(gaps) ** 2
    np.testing.assert_allclose(q1, b + 2.0 * c * r, rtol=0.0, atol=tol)
    np.testing.assert_allclose(q2, np.full(r.size, 2.0 * c), rtol=0.0, atol=tol)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 8),
    at_axis=st.booleans(),
    r=st.floats(0.2, 5.0),
    q=st.floats(0.5, 5.0),
    q1=st.floats(-3.0, 3.0),
    q2=st.floats(-3.0, 3.0),
    h=st.tuples(st.floats(0.01, 0.1), st.floats(0.01, 0.1)),
)
def test_profile_curvature_matches_scalar_curvature(n, at_axis, r, q, q1, q2, h):
    # sample the quadratic with the given 2-jet at r; the stencil is exact on it
    if at_axis:
        r, q1 = 0.0, 0.0
        grid = np.array([0.0, h[0], h[0] + h[1]])
        node = 0
    else:
        grid = np.array([r - h[0], r, r + h[1]])
        node = 1
    Q = q + q1 * (grid - r) + 0.5 * q2 * (grid - r) ** 2
    H, A2 = profile_curvature(n, grid, Q)
    d = curvature(n, ProfileJet(r=r, q=q, q1=q1, q2=q2))
    tol = 1e-8 * (1.0 + abs(d.H))
    assert H[node] == pytest.approx(d.H, abs=tol)
    assert A2[node] == pytest.approx(d.A2, abs=1e-8 * (1.0 + d.A2))


@settings(max_examples=60, deadline=None)
@given(
    axis=st.booleans(),
    n=st.integers(4, 7),
    gaps=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=40),
    data=st.data(),
)
def test_profile_curvature_with_given_weights_is_bitwise_the_same(axis, n, gaps, data):
    r = (0.0 if axis else 0.25) + np.concatenate([[0.0], np.cumsum(gaps)])
    Q = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=r.size, max_size=r.size)))
    H, A2 = profile_curvature(n, r, Q)
    Hw, A2w = profile_curvature(n, r, Q, w=stencil_weights(r))
    assert np.array_equal(H, Hw) and np.array_equal(A2, A2w)
