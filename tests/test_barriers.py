import math

import numpy as np
import pytest

from mcflab.barriers import (
    _bound_chain,
    bracket_constant,
    convexity_reduction_check,
    domination_constant,
    gradient_bound_check,
    h_bound_report,
    supersolution,
    supersolution_residual,
)
from mcflab.errors import (
    ConePrerequisiteFailed,
    HypothesisFailed,
    SampleOutsideValidity,
)
from mcflab.flow import ProfileState, evolve
from mcflab.params import derive_constants


def residual_samples(s, rng, count=10000):
    ts = rng.uniform(0.0, s.p.T * 0.999, count)
    rs = s.validity_radius(ts) * (1.0 + rng.uniform(0.01, 50.0, count))
    return np.column_stack([rs, ts])


def test_bracket_values_frozen():
    # n=4: k=2 (lam=1/2) -> 2*1 + 3*2 + 3 = 11;  k=4 (lam=5/2) -> 30+18+3 = 51
    p2 = derive_constants(4, 2, T=1.0)
    p4 = derive_constants(4, 4, T=1.0)
    assert supersolution(p2, 1.0).C1 == pytest.approx(11.0, abs=0.0)
    assert supersolution(p4, 1.0).C1 == pytest.approx(51.0, abs=0.0)
    assert supersolution(p4, 2.5).C1 == pytest.approx(2.5 * 51.0, abs=0.0)


def test_positivity_boundary():
    p2 = derive_constants(4, 2, T=1.0)
    s = supersolution(p2, 1.0)
    # C0 r^2 = C1 (T-t) at T-t = 0.01: r* = sqrt(0.11)
    assert float(s.validity_radius(0.99)) == pytest.approx(math.sqrt(0.11), rel=1e-12)
    r_star = float(s.validity_radius(0.99))
    assert s.value(r_star * 1.0001, 0.99) > 0.0
    assert s.value(r_star * 0.9999, 0.99) < 0.0


@pytest.mark.parametrize("n", [4, 5, 7])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_bracket_matrix_and_residual(n, k, rng):
    p = derive_constants(n, k, T=1.0)
    s = supersolution(p, 1.0)
    assert s.C1 / s.C0 == bracket_constant(n, p.lambda_k)
    res = supersolution_residual(s, 2.0, residual_samples(s, rng))
    assert res >= -1e-12


def test_residual_scales_linearly_in_C0(rng):
    p = derive_constants(4, 3, T=1.0)
    s1 = supersolution(p, 1.0)
    s2 = supersolution(p, 2.0)
    samples = residual_samples(s1, rng, 2000)
    r1 = supersolution_residual(s1, 2.0, samples)
    r2 = supersolution_residual(s2, 2.0, samples)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


def test_residual_boundary_structure_k2():
    # at lam = 1/2 the (2lam-1)(2lam-2) term vanishes and the residual
    # reduces to 3 C1 (T-t) r^{-2} >= 0, approaching equality for large r
    p = derive_constants(4, 2, T=1.0)
    s = supersolution(p, 1.0)
    far = supersolution_residual(s, 2.0, np.array([[1e6, 0.5]]))
    assert 0.0 <= far <= 1e-10
    near = supersolution_residual(s, 2.0, np.array([[5.0, 0.5]]))
    assert near == pytest.approx(3.0 * s.C1 * 0.5 / 25.0, rel=1e-12)


def test_residual_rejects_invalid_samples():
    p = derive_constants(4, 2, T=1.0)
    s = supersolution(p, 1.0)
    inside = 0.5 * float(s.validity_radius(0.0))
    with pytest.raises(SampleOutsideValidity):
        supersolution_residual(s, 2.0, np.array([[inside, 0.0]]))


@pytest.mark.parametrize("C0", [0.0, math.nan, math.inf])
def test_supersolution_refuses_a_nonpositive_or_nonfinite_C0(C0):
    with pytest.raises(ValueError, match="C0 must be positive and finite"):
        supersolution(derive_constants(4, 4), C0)


@pytest.mark.parametrize("bound", [0.5, math.nan, math.inf])
def test_residual_refuses_a_Qr_bound_below_one_or_nonfinite(bound):
    s = supersolution(derive_constants(4, 4), 1.0)
    with pytest.raises(ValueError, match="Qr_bound must be finite and at least 1"):
        supersolution_residual(s, bound, np.array([[5.0, 0.5]]))


def test_residual_keeps_a_nan_sample_nan():
    s = supersolution(derive_constants(4, 4), 1.0)
    assert math.isnan(supersolution_residual(s, 2.0, np.array([[50.0, 0.5], [math.nan, 0.5]])))


def test_residual_takes_beta_zero_for_a_huge_Qr_bound():
    s = supersolution(derive_constants(4, 4), 1.0)
    samples = np.array([[50.0, 0.5], [500.0, 0.1]])
    limit = supersolution_residual(s, 1e200, samples)  # M^2 overflows, so beta = 0
    assert limit == pytest.approx(supersolution_residual(s, 1e8, samples), rel=1e-12)


def test_supersolution_refuses_a_C0_whose_C1_overflows():
    with pytest.raises(ValueError, match="^C0 = 1e\\+308 is too large: C1 = 51 C0 overflows"):
        supersolution(derive_constants(4, 4), 1e308)


def test_domination_constant():
    s = supersolution(derive_constants(4, 4), 1.0)
    assert domination_constant(s, 10.0) == pytest.approx(0.49, rel=1e-15)
    assert domination_constant(s, 1e200) == 1.0  # C1/gamma/gamma underflows to 0
    with pytest.raises(ValueError, match="^gamma = 1e-160 is too small"):
        domination_constant(s, 1e-160)


def test_domination_threshold(rng):
    # v+ >= C_bar r^{2 lam + 1} on r >= Gamma sqrt(T-t) once C0 - C_bar >= C1/Gamma^2
    p = derive_constants(4, 4, T=1.0)
    s = supersolution(p, 1.0)
    gamma = 10.0
    c_bar = s.C0 - s.C1 / gamma**2
    assert c_bar > 0.0
    ts = rng.uniform(0.0, 0.999, 5000)
    rs = gamma * np.sqrt(1.0 - ts) * (1.0 + rng.uniform(0.0, 20.0, ts.size))
    margin = s.value(rs, ts) - c_bar * rs ** (2.0 * p.lambda_k + 1.0)
    assert float(margin.min()) >= -1e-12


def test_convexity_reduction():
    assert convexity_reduction_check(np.array([0.0])) is True
    # x = 1: 1/2 - 1 + 1 = 1/2 >= 0
    assert (1.0 / 2.0 - 1.0 + 1.0) == pytest.approx(0.5)
    rng = np.random.default_rng(99)
    assert convexity_reduction_check(rng.uniform(0.0, 1e3, 100000)) is True
    with pytest.raises(ValueError):
        convexity_reduction_check(np.array([-0.1]))


def test_gradient_bound_cone():
    r = np.linspace(0.05, 3.0, 300)
    traj = [ProfileState(r=r, Q=r.copy(), t=t) for t in np.linspace(0.0, 0.5, 6)]
    rep = gradient_bound_check(traj, Gamma=0.5, Upsilon=2.0, T=1.0)
    assert rep.interior_max == pytest.approx(1.0, abs=1e-10)
    assert rep.boundary_max == pytest.approx(1.0, abs=1e-10)


def test_gradient_bound_maximum_principle():
    # sphere-over-cone data Q = sqrt(r^2 + c^2) satisfies Q >= r
    r = np.linspace(0.05, 3.0, 600)
    st = ProfileState(r=r, Q=np.sqrt(r * r + 0.25), t=0.0)
    traj, _ = evolve(st, 4, horizon=0.3, target=1e-8, max_snapshots=60)
    rep = gradient_bound_check(traj, Gamma=0.4, Upsilon=2.0, T=1.0)
    assert rep.interior_max <= rep.boundary_max + 1e-6


def test_gradient_bound_cylinder_prerequisite():
    r = np.linspace(0.05, 3.0, 100)
    st = ProfileState(r=r, Q=np.full_like(r, 1.0), t=0.0)
    with pytest.raises(ConePrerequisiteFailed):
        gradient_bound_check([st], 0.5, 2.0, 1.0)


def test_h_bound_cone():
    p = derive_constants(4, 2, T=1.0)
    r = np.linspace(0.05, 3.0, 400)
    traj = [ProfileState(r=r, Q=r.copy(), t=t) for t in np.linspace(0.95, 0.999, 10)]
    rep = h_bound_report(traj, Gamma=1.0, Upsilon=2.5, C0=1.0, p=p)
    assert rep.sup_H <= 1e-10
    assert rep.sup_H <= rep.sup_chain + 1e-10


def test_h_bound_synthetic_monomial():
    p = derive_constants(4, 4, T=1.0)
    lam = p.lambda_k
    eps = 1e-3
    r = np.linspace(0.05, 3.0, 2000)
    traj = [
        ProfileState(r=r, Q=r + eps * r ** (2 * lam + 1), t=t)
        for t in np.linspace(0.95, 0.999, 8)
    ]
    gamma = 1.0
    rep = h_bound_report(traj, Gamma=gamma, Upsilon=2.5, C0=2.0 * eps, p=p)
    # the bound chain on the monomial v = eps r^{2 lam + 1} at r = Gamma:
    # <= C(n,k) eps (Gamma sqrt(T))^{2 lam - 1} + slack
    v = eps * gamma ** (2 * lam + 1)
    v_r = eps * (2 * lam + 1) * gamma ** (2 * lam)
    v_rr = eps * (2 * lam + 1) * (2 * lam) * gamma ** (2 * lam - 1)
    cap = float(_bound_chain(4, gamma, v, v_r, v_rr))
    assert rep.sup_H <= rep.sup_chain * (1.0 + 1e-6)
    assert rep.sup_chain <= cap * 1.05
    # t-uniformity across the window
    assert rep.window_t[0] > 15.0 / 16.0


def test_h_bound_hypothesis_failure():
    p = derive_constants(4, 4, T=1.0)
    r = np.linspace(0.05, 3.0, 200)
    traj = [ProfileState(r=r, Q=r + 0.5, t=0.97)]
    with pytest.raises(HypothesisFailed):
        # C0 too small for the offset data
        h_bound_report(traj, Gamma=1.0, Upsilon=2.5, C0=1e-6, p=p)


def test_h_bound_minimal_capped_cone(profile_cache):
    # evolve minimal-profile data; |H| stays bounded and t-uniform in the window
    p = derive_constants(4, 4, T=1.0)
    mp = profile_cache(4, 0.05, 100.0)
    r = np.linspace(0.02, 3.5, 700)
    st = ProfileState(r=r, Q=mp.jet(r)[0], t=0.0)
    traj, _ = evolve(st, 4, horizon=0.999, target=1e-8, max_snapshots=100)
    window = [s for s in traj if s.t > 15.0 / 16.0]
    v = window[0].Q - window[0].r
    c0 = 2.0 * float(np.max(v / window[0].r ** (2 * p.lambda_k + 1)))
    rep = h_bound_report(traj, Gamma=1.0, Upsilon=3.0, C0=c0, p=p)
    assert np.isfinite(rep.sup_H)
    assert rep.sup_H <= rep.sup_chain * (1.0 + 1e-6)
