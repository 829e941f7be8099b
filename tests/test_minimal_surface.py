import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.integrate import solve_ivp

from mcflab import minimal_surface
from mcflab.errors import BlowupDetected, NonPositiveTail
from mcflab.geometry import ProfileJet, curvature, normal_position
from mcflab.minimal_surface import (
    _B,
    _C,
    _dop853,
    _DenseGap,
    _gap_rhs,
    fit_tail,
    integrate_profile,
    kernel_element,
    u0_profile,
    verify_scaling,
)
from mcflab.params import derive_constants


def test_axis_expansion_value(profile_cache):
    # Q(0.1) = 1 + (n-1)/(2nb) * 0.01 + O(1e-4) = 1.00375 for n=4, b=1
    mp = profile_cache(4, 1.0, 100.0)
    assert float(mp.jet(0.1)[0][0]) == pytest.approx(1.00375, abs=1e-4)


def test_slope_convex_below_cone_slope(profile_cache):
    mp = profile_cache(4, 1.0, 100.0)
    inner = mp.grid > 0.0
    assert np.all(mp.q2 > 0.0)
    assert np.all(mp.q1[inner] > 0.0)
    assert np.all(mp.q1 < 1.0)
    # slope increases monotonically toward 1
    assert np.all(np.diff(mp.q1) >= 0.0)
    assert mp.q1[-1] > 0.999


def test_far_field_gap(profile_cache):
    mp = profile_cache(4, 1.0, 100.0)
    gap = float(mp.jet(40.0)[0][0]) - 40.0
    assert 0.0 < gap < 0.01


def test_tail_fit_window_20_80(profile_cache):
    mp = profile_cache(4, 1.0, 100.0)
    fit = fit_tail(mp, window=(20.0, 80.0))
    assert fit.exponent == pytest.approx(-2.0, abs=0.1)
    assert fit.coefficient > 0.0


def test_tail_fit_n5(profile_cache):
    mp = profile_cache(5, 1.0, 100.0)
    alpha5 = derive_constants(5, 2).alpha
    fit = fit_tail(mp, window=(20.0, 100.0))
    assert fit.exponent == pytest.approx(alpha5, abs=0.07)


def test_scaling_of_tail_constant(profile_cache):
    # C_b = b^{1+|alpha|} C_1 when the fit windows scale with b
    mp1 = profile_cache(4, 1.0, 200.0)
    mp2 = profile_cache(4, 2.0, 400.0)
    c1 = fit_tail(mp1, window=(25.0, 200.0)).coefficient
    c2 = fit_tail(mp2, window=(50.0, 400.0)).coefficient
    assert c2 / c1 == pytest.approx(8.0, rel=0.02)


@pytest.mark.parametrize("b", [0.5, 2.0])
def test_scaling_law_sup_deviation(profile_cache, b):
    mp1 = profile_cache(4, 1.0, 200.0)
    mpb = profile_cache(4, b, 200.0)
    assert verify_scaling(mp1, mpb) <= 1e-7
    assert verify_scaling(mp1, mp1) == 0.0


@pytest.mark.parametrize("n", [4, 5, 7, 10])
def test_small_axis_height_scales_from_b1(profile_cache, n):
    # the axis series is solved at b = 1 and scaled, so a small b neither
    # divides by zero nor loses the unit slope of its affine solve to rounding
    b = 1e-3
    mpb = profile_cache(n, b, 0.2)
    mp1 = profile_cache(n, 1.0, 200.0)
    assert verify_scaling(mp1, mpb) <= 1e-7 * b


@pytest.mark.parametrize("b", [1e-3, 1e-4])
@pytest.mark.parametrize("n", [4, 5, 7, 10])
def test_seed_bound_scales_with_axis_height(profile_cache, n, b):
    # the seed residual grows like Q'' ~ 1/b and so does its bound, so the
    # tol/10 re-shoot behind `accuracy` works at a small b
    tol = 1e-12
    mpb = profile_cache(n, b, 100.0 * b, tol=tol)
    assert mpb.accuracy <= 10.0 * tol
    assert verify_scaling(profile_cache(n, 1.0, 100.0, tol=tol), mpb) <= 1e-14


@pytest.mark.parametrize(
    "n, r_max, tol", [(4, 100.0, 1e-9), (4, 10**3.5, 1e-12), (5, 10**3.5, 1e-12),
                      (7, 10**3.5, 1e-12)]
)
def test_accuracy_is_at_the_tolerance(profile_cache, n, r_max, tol):
    # both shots share the axis series below r_seed, so the comparison runs
    # over the whole grid and measures the integration, not an extrapolation
    assert profile_cache(n, 1.0, r_max, tol=tol).accuracy <= 100.0 * tol


def test_accuracy_improves_with_tolerance():
    # deviation from a common tight reference shrinks >= 4x per 10x in tol
    ref = integrate_profile(4, 1.0, 100.0, tol=1e-11)
    devs = []
    for tol in (1e-7, 1e-8):
        mp = integrate_profile(4, 1.0, 100.0, tol=tol)
        rs = ref.grid[1:]
        devs.append(float(np.max(np.abs(mp.gap(rs)[0] - ref.gap(rs)[0]))))
    assert devs[1] <= devs[0] / 4.0


def test_one_solve_per_profile_and_one_more_for_accuracy(monkeypatch):
    calls = []

    def counting_dop853(*args, **kwargs):
        calls.append(kwargs["rtol"])
        return _dop853(*args, **kwargs)

    monkeypatch.setattr(minimal_surface, "_dop853", counting_dop853)
    mp = integrate_profile(4, 1.0, 100.0, tol=1e-9)
    assert calls == [1e-9]
    first = mp.accuracy
    assert calls == [1e-9, 1e-10]
    assert mp.accuracy == first  # cached: no further solve
    assert calls == [1e-9, 1e-10]
    assert 0.0 < first < np.inf


@pytest.mark.parametrize("tol", [1e-12, 1e-9])
@pytest.mark.parametrize("n", [4, 5, 7])
def test_dop853_agrees_with_scipy(profile_cache, n, tol):
    # scipy's DOP853 from the same seed, tolerances and first step accepts
    # the same steps after the same number of right-hand sides; the dense
    # gaps differ by summation order only, measured at most 2.9e-12 (v) and
    # 8.6e-12 (v') relative over these six cases
    mp = profile_cache(n, 1.0, 10.0**3.5, tol=tol)
    seed = mp._dense.y_old[0]
    calls = 0

    def g(r, v, v1):
        nonlocal calls
        calls += 1
        return _gap_rhs(n, r, v, v1)

    edges, _, _ = _dop853(g, mp.r_seed, *seed, mp.r_max, rtol=tol, atol=tol * 1e-4)
    sol = solve_ivp(
        lambda r, y: [y[1], _gap_rhs(n, r, y[0], y[1])], (mp.r_seed, mp.r_max), seed,
        method="DOP853", rtol=tol, atol=tol * 1e-4, first_step=mp.r_seed, dense_output=True,
    )
    assert sol.success
    assert (len(edges), calls) == (len(sol.t), sol.nfev)
    out = mp.grid > mp.r_seed
    v, v1 = sol.sol(mp.grid[out])
    assert np.max(np.abs(mp.v[out] / v - 1.0)) <= 5e-11
    assert np.max(np.abs(mp.v1[out] / v1 - 1.0)) <= 5e-11


def test_dop853_step_growth_is_capped_as_in_scipy():
    # v = -r^3 leaves an error estimate far below tol, so from the first
    # step, the start radius, each step grows by the cap of 10 until the
    # last one is clipped at r_max
    edges, _, _ = _dop853(lambda r, v, v1: -6.0 * r, 1e-3, -1e-9, -3e-6, 100.0, rtol=1e-6,
                          atol=1e-6)
    sol = solve_ivp(lambda r, y: [y[1], -6.0 * r], (1e-3, 100.0), [-1e-9, -3e-6],
                    method="DOP853", rtol=1e-6, atol=1e-6, first_step=1e-3)
    assert edges == sol.t.tolist()
    assert np.diff(edges) == pytest.approx([1e-3, 1e-2, 0.1, 1.0, 10.0, 88.888], rel=1e-12)


def _polynomial_shot(a, r0, length, rtol):
    """Dense (v, v') of v'' = p(r) with v = sum a_k x^k, x = (r - r0)/length,
    next to the exact pair as functions of x."""
    da = P.polyder(a) / length
    dda = P.polyder(a, 2) / length**2
    steps = _dop853(lambda r, v, v1: P.polyval((r - r0) / length, dda), r0, a[0], da[0],
                    r0 + length, rtol=rtol, atol=rtol * 1e-4)
    # n and the zero axis series only serve radii at or below r0, never read here
    return _DenseGap(4, np.zeros(9), r0, *steps), steps[0], da


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(0, 5).flatmap(
        lambda deg: st.lists(st.integers(-64, 64), min_size=deg + 3, max_size=deg + 3)),
    r0=st.floats(0.01, 2.0),
    length=st.floats(1.0, 20.0),
    rtol_exp=st.floats(-12.0, -6.0),
    fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=20),
)
def test_dense_output_exact_for_forcing_up_to_degree_5(a, r0, length, rtol_exp, fractions):
    # v'' = p(r) with deg p <= 5 has a solution of degree <= 7, which the
    # degree-7 continuous extension reproduces to roundoff whatever the steps,
    # which r0/length (the first step) and rtol vary (measured <= 7.2e-15
    # relative to sum |a_k|); slopes stay below the cap
    a = np.array(a) / 64.0
    a *= min(1.0, 8.0 * length / max(np.sum(np.abs(P.polyder(a))), 1e-300))
    dense, edges, da = _polynomial_shot(a, r0, length, 10.0**rtol_exp)
    rs = np.concatenate([r0 + length * np.array(fractions), edges[1:]])
    rs = rs[rs > r0]  # r0 itself is the series' radius
    with np.errstate(divide="ignore", invalid="ignore"):  # v'' of the cone gap, unread
        v, v1, _ = dense(rs)
    x = (rs - r0) / length
    assert np.max(np.abs(v - P.polyval(x, a))) <= 1e-13 * np.sum(np.abs(a))
    assert np.max(np.abs(v1 - P.polyval(x, da))) <= 1e-13 * np.sum(np.abs(da))


def test_dense_output_misses_degree_6_forcing():
    # the bound above is sharp: v = x^8/8 is one degree past the extension
    a = np.zeros(9)
    a[8] = 0.125
    dense, _, _ = _polynomial_shot(a, 1.0, 1.0, 1e-6)
    rs = np.linspace(1.0, 2.0, 101)[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        v = dense(rs)[0]
    assert np.max(np.abs(v - P.polyval(rs - 1.0, a))) > 1e-9


def test_dop853_tableau_order_conditions():
    # sum_i b_i c_i^(k-1) = 1/k for k <= 8 pins the imported private table
    for k in range(1, 9):
        assert math.fsum(b * c ** (k - 1) for b, c in zip(_B, _C)) == pytest.approx(
            1.0 / k, abs=1e-15)


def test_slope_guard_names_the_radius():
    # v'' = 9.5 from v'(1) = 0: the first step, 1 -> 2, ends at Q' = 1 + v'
    # = 10.5, past the cap of 10
    with pytest.raises(BlowupDetected, match="Q' exceeded 10.0 at r=2;"):
        _dop853(lambda r, v, v1: 9.5, 1.0, 0.0, 0.0, 100.0, rtol=1e-10, atol=1e-14)


def test_step_below_min_step_fails():
    # a right-hand side that is never finite rejects every step until the
    # step falls below 10 ulp(r)
    with pytest.raises(RuntimeError, match="profile integration failed") as exc:
        _dop853(lambda r, v, v1: math.nan, 1.0, 0.0, 0.0, 2.0, rtol=1e-10, atol=1e-14)
    assert f"below {10.0 * math.ulp(1.0):.3e} at r=1" in str(exc.value)


def test_gap_positive_decreasing(profile_cache):
    mp = profile_cache(4, 1.0, 100.0)
    mask = mp.grid >= 2.0 * mp.b
    gap = mp.q[mask] - mp.grid[mask]
    assert np.all(gap > 0.0)
    assert np.all(np.diff(gap) < 0.0)


@pytest.mark.parametrize("n,b", [(4, 1.0), (5, 0.5), (7, 2.0)])
def test_minimality_through_curvature(profile_cache, n, b):
    mp = profile_cache(n, b, max(100.0, 60.0 * b))
    for i in range(1, len(mp.grid), 17):
        jet = ProfileJet(
            float(mp.grid[i]), float(mp.q[i]), float(mp.q1[i]), float(mp.q2[i])
        )
        d = curvature(n, jet)
        assert abs(d.H) < 1e-8 * (1.0 + d.A2)


def test_u0_profile(profile_cache):
    mp = profile_cache(4, 1.0, 200.0)
    u0 = u0_profile(mp)
    assert u0.u0[0] == pytest.approx(mp.b, abs=1e-14)
    assert np.all(u0.u0 > 0.0)
    assert np.all(np.diff(u0.u0) < 0.0)
    assert u0.tail.exponent == pytest.approx(mp.alpha_fit, abs=0.05 * abs(mp.alpha_fit))
    # tail coefficient (1 - alpha) C_b / sqrt(2) = 3 C_b / sqrt(2) for n=4
    expected = 3.0 / np.sqrt(2.0) * mp.C_b
    assert u0.tail.coefficient == pytest.approx(expected, rel=0.10)


def test_kernel_element_is_normal_position(mp4):
    # the gap-form u0 equals (Q - r Q')/sqrt(1+Q'^2) where Q itself keeps its digits
    rs = mp4.grid[mp4.grid <= 20.0]
    v, v1, v2 = mp4.gap(rs)
    u0, _ = kernel_element(rs, v, v1, v2)
    q, q1, q2 = mp4.jet(rs)
    ref = np.array(
        [normal_position(ProfileJet(*map(float, jet))) for jet in zip(rs, q, q1, q2)]
    )
    assert float(np.max(np.abs(u0 - ref) / ref)) <= 1e-11


def test_validation_errors():
    with pytest.raises(ValueError, match="positive"):
        integrate_profile(4, -1.0, 100.0)
    with pytest.raises(ValueError, match="50"):
        integrate_profile(4, 1.0, 10.0)
    with pytest.raises(ValueError, match="tol"):
        integrate_profile(4, 1.0, 100.0, tol=1e-3)


@pytest.mark.parametrize("b, r_max, name", [
    (math.nan, 100.0, "b"), (math.inf, 100.0, "b"),
    (1.0, math.nan, "r_max"), (1.0, math.inf, "r_max"), (1.0, -math.inf, "r_max"),
])
def test_nonfinite_axis_height_or_radius_refused(b, r_max, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        integrate_profile(4, b, r_max)


def test_fit_tail_guards(profile_cache):
    mp = profile_cache(4, 1.0, 100.0)
    with pytest.raises(ValueError, match="10\\*b"):
        fit_tail(mp, window=(5.0, 80.0))
    with pytest.raises(ValueError, match="r_max"):
        fit_tail(mp, window=(20.0, 500.0))


def test_nonpositive_tail_detected():
    doctored = integrate_profile(4, 1.0, 100.0)
    doctored.v = np.zeros_like(doctored.v)  # collapse the gap onto the cone
    with pytest.raises(NonPositiveTail):
        fit_tail(doctored, window=(20.0, 80.0))


def test_jet_outside_range(profile_cache):
    mp = profile_cache(4, 1.0, 100.0)
    with pytest.raises(ValueError):
        mp.jet(200.0)


def test_gap_range_is_zero_to_r_max(mp4):
    exact = np.array([0.0, mp4.r_seed, *mp4._dense.edges, mp4.r_max])
    assert np.all(np.isfinite(mp4.gap(exact)))
    for r in (np.nextafter(0.0, -1.0), np.nextafter(mp4.r_max * (1 + 1e-12), np.inf)):
        with pytest.raises(ValueError):
            mp4.gap(np.array([r]))
