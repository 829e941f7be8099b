import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mcflab import minimal_surface
from mcflab.errors import NonPositiveTail
from mcflab.geometry import ProfileJet, curvature, normal_position
from mcflab.minimal_surface import (
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

    def counting_solve_ivp(*args, **kwargs):
        calls.append(kwargs["rtol"])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(minimal_surface, "solve_ivp", counting_solve_ivp)
    mp = integrate_profile(4, 1.0, 100.0, tol=1e-9)
    assert calls == [1e-9]
    first = mp.accuracy
    assert calls == [1e-9, 1e-10]
    assert mp.accuracy == first  # cached: no further solve
    assert calls == [1e-9, 1e-10]
    assert 0.0 < first < np.inf


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
    with pytest.raises(ValueError):
        mp.q3(0.0)


def test_gap_range_is_zero_to_r_max(mp4):
    exact = np.array([0.0, mp4.r_seed, *mp4._dense.edges, mp4.r_max])
    assert np.all(np.isfinite(mp4.gap(exact)))
    for r in (np.nextafter(0.0, -1.0), np.nextafter(mp4.r_max * (1 + 1e-12), np.inf)):
        with pytest.raises(ValueError):
            mp4.gap(np.array([r]))
