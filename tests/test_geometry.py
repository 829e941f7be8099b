import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflab.fitting import fit_power_law
from mcflab.geometry import (
    ProfileJet,
    check_radii,
    curvature,
    fd_jet,
    jet_curvature,
    normal_position,
    profile_curvature,
    profile_jets,
    stencil_weights,
    unit_normal,
)
from mcflab.minimal_surface import kernel_element, third_derivative

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["r", "q", "q1", "q2"])
def test_validation_refuses_nonfinite_jets(field, bad):
    # every other check is a comparison, which a NaN fails without a word
    jet = dict(r=1.0, q=1.0, q1=0.5, q2=0.25)
    jet[field] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        curvature(4, ProfileJet(**jet))


@pytest.mark.parametrize("r", [[1.0, math.nan, 3.0, 4.0], [1.0, 2.0, 3.0, math.inf],
                               [-math.inf, 0.0, 1.0], [0.0, 1.0, 1.0, 2.0]])
def test_check_radii_refuses_nonfinite_or_nonincreasing_radii(r):
    with pytest.raises(ValueError, match="^grid must be finite and strictly increasing$"):
        check_radii(np.array(r), "grid")
    check_radii(np.array([-1.0, 0.0, 1e-300, 1e300]), "grid")


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


def laplace_beltrami_radial(n, r, q, q1, q2, u1, u2):
    """Surface Laplacian of a radial function u on any profile, from 2-jets:
    (u'' + (n-1) u'/r - Q'Q'' u'/(1+Q'^2) + (n-1) (Q'/Q) u') / (1+Q'^2)."""
    s = 1.0 + q1 * q1
    return (u2 + (n - 1) * u1 / r - q1 * q2 * u1 / s + (n - 1) * (q1 / q) * u1) / s


def test_laplace_beltrami_constant_and_cone():
    n, r = 4, 1.3
    assert laplace_beltrami_radial(n, r, r, 1.0, 0.0, 0.0, 0.0) == 0.0
    # u = r^2 on the cone: 1 + 2(n-1)
    assert laplace_beltrami_radial(n, r, r, 1.0, 0.0, 2 * r, 2.0) == pytest.approx(
        1.0 + 2.0 * (n - 1), rel=1e-14)


def test_laplace_beltrami_jacobi_identity_on_minimal_profile(mp4):
    # Delta u0 + |A|^2 u0 = 0 on the minimal profile, via analytic jets
    n = mp4.n
    mask = (mp4.grid > 0.0) & (mp4.grid <= 20.0)
    rs = mp4.grid[mask]
    q, q1, q2 = mp4.jet(rs)
    q3 = third_derivative(n, rs, *mp4.gap(rs))
    s = 1.0 + q1 * q1
    u0, u0p = kernel_element(rs, *mp4.gap(rs))
    u0pp = (
        -(q3 / s**1.5) * (rs + q * q1)
        + 3.0 * q1 * q2 * q2 * (rs + q * q1) / s**2.5
        - (q2 / s**1.5) * (1.0 + q1 * q1 + q * q2)
    )
    lap = laplace_beltrami_radial(n, rs, q, q1, q2, u0p, u0pp)
    _, A2 = jet_curvature(n, rs, q, q1, q2)
    assert float(np.abs(lap + A2 * u0).max()) < 1e-6


def test_laplace_beltrami_two_term_agreement_on_minimal(mp4):
    # when the profile satisfies the minimal equation, the full form equals
    # the two-term form u''/(1+Q'^2) + (n-1)u'/r
    mask = (mp4.grid > 0.0) & (mp4.grid <= 50.0)
    rs = mp4.grid[mask][::7]
    q, q1, q2 = mp4.jet(rs)
    rng = np.random.default_rng(5)
    u1, u2 = rng.standard_normal(2)
    full = laplace_beltrami_radial(mp4.n, rs, q, q1, q2, u1, u2)
    mini = u2 / (1.0 + q1 * q1) + (mp4.n - 1) * u1 / rs
    assert np.all(np.abs(full - mini) <= 1e-8 * np.maximum(1.0, np.abs(full)))


def test_weighted_norm_detects_supercritical_weight(mp4):
    # u0 ~ r^alpha with alpha = -2: weight a=2 saturates, a=2.5 grows with extent
    u0 = (mp4.v - mp4.grid * mp4.v1) / np.sqrt(1.0 + mp4.q1**2)
    r, u = mp4.grid[1:], u0[1:]
    near = r <= mp4.r_max / 100.0

    def sup(a, where=slice(None)):
        return float(np.max((1.0 + r[where]) ** a * np.abs(u[where])))

    assert sup(2.0) <= sup(2.0, near) * 1.5
    assert sup(2.5) > 5.0 * sup(2.5, near)


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
    order = fit_power_law(hs, errs).exponent
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


@settings(max_examples=60, deadline=None)
@given(
    axis=st.booleans(),
    n=st.integers(4, 7),
    rows=st.integers(1, 5),
    gaps=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=40),
    weights=st.booleans(),
    data=st.data(),
)
def test_jets_and_curvature_of_a_stack_are_bitwise_its_rows(axis, n, rows, gaps, weights, data):
    """A (K, N) stack of profiles takes one call, and each row of it is bit
    for bit that profile's own one-profile call."""
    r = (0.0 if axis else 0.25) + np.concatenate([[0.0], np.cumsum(gaps)])
    values = st.lists(st.floats(0.1, 10.0), min_size=r.size, max_size=r.size)
    Q = np.array([data.draw(values) for _ in range(rows)])
    w = stencil_weights(r) if weights else None
    q1, q2 = profile_jets(r, Q, w)
    H, A2 = profile_curvature(n, r, Q, w)
    assert q1.shape == q2.shape == H.shape == A2.shape == Q.shape
    for k, row in enumerate(Q):
        for got, want in zip((q1, q2, H, A2), (*profile_jets(r, row, w),
                                               *profile_curvature(n, r, row, w))):
            assert np.array_equal(got[k], want)
