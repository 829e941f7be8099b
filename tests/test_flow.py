import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcflab.errors import NewtonDiverged, QNonPositive, WindowTooNarrow
from mcflab.fitting import fit_power_law
from mcflab.flow import (
    _DIAG_BUDGET,
    _STAGE_FLOOR,
    _STEADY_TOL,
    BC,
    ProfileState,
    _Discretization,
    _StepWork,
    _collocation_predictor,
    _radau_step,
    _safe_band,
    discrete_steady,
    evolve,
    fit_rate,
    profile_curvature,
    shrinking_cylinder,
    shrinking_sphere,
    solve_banded,
    to_inner,
    to_parabolic,
)
from mcflab.geometry import stencil_weights
from mcflab.params import derive_constants


def cylinder_state(n, T, nodes=101, rmax=1.0):
    return shrinking_cylinder(n, T, np.linspace(0.0, rmax, nodes))


def sphere_state(n, T, rmax=0.03, nodes=200):
    return shrinking_sphere(n, T, np.linspace(0.0, rmax, nodes))


def rough_state(rng):
    """The rough profile on [0.2, 2] with pinned ends, a sine plus uniform noise."""
    r = np.linspace(0.2, 2.0, 120)
    Q = 1.0 + 0.3 * np.sin(2.0 * r) + 0.1 * rng.uniform(0.0, 1.0, r.size)
    return ProfileState(r=r, Q=Q, t=0.0)


# each end reflects, is held at its initial value, or is held at fn(t)
END_RULES = st.sampled_from([BC("neumann0"), BC("dirichlet"), BC("dirichlet", fn=lambda t: 1.0)])

# collocation points of the 3-stage Radau IIA step
RADAU_C = np.array([(4.0 - math.sqrt(6.0)) / 10.0, (4.0 + math.sqrt(6.0)) / 10.0, 1.0])


def step(st, dt, n):
    """One Radau IIA step of size dt with no error control, its stages solved
    to the roundoff floor: the fixed-step form of evolve's step."""
    disc = _Discretization(n, st.r, st.inner_bc, st.outer_bc)
    tol = _STAGE_FLOOR * max(1.0, float(np.abs(st.Q).max()))
    Q = _radau_step(disc, _StepWork(disc.N, disc.rhs(st.Q)), st.Q, st.t, dt, tol)[0]
    return replace(st, Q=Q, t=st.t + dt)


def test_cylinder_single_step():
    st = cylinder_state(4, 1.0)
    out = step(st, 1e-3, 4)
    exact = math.sqrt(6.0 * 0.999)
    assert float(np.abs(out.Q - exact).max()) <= 1e-7


def test_cone_stationary_over_unit_horizon():
    r = np.linspace(0.5, 5.0, 200)
    st = ProfileState(r=r, Q=r.copy(), t=0.0)
    traj, diag = evolve(st, 4, horizon=1.0, target=1e-8)
    assert float(np.abs(traj[-1].Q - r).max()) <= 1e-8
    assert float(diag.Hmax.max()) <= 1e-8
    assert float(diag.Amax.max() - diag.Amax.min()) <= 1e-8


def test_minimal_profile_stationary(profile_cache):
    # project the sampled profile onto the discrete steady state first: the
    # continuum samples are only an O(h^2) steady state of the discretization
    mp = profile_cache(4, 1.0, 100.0)
    r = np.geomspace(0.01, 20.0, 400)
    st = ProfileState(r=r, Q=mp.jet(r)[0], t=0.0)
    st0 = discrete_steady(4, st)
    projection_shift = float(np.abs(st0.Q - st.Q).max())
    assert projection_shift < 0.01  # the O(h^2) spatial consistency gap
    traj, diag = evolve(st0, 4, horizon=1.0, target=1e-9)
    assert float(np.abs(traj[-1].Q - st0.Q).max()) <= 1e-8


def test_discrete_steady_on_a_fine_graded_grid(mp4):
    # h_min = 2.1e-5 puts the residual's roundoff floor eps max|Q| / h_min^2
    # (2.4e-5) above the tolerance 1e-8 max|Q| (5e-7): Newton stops where the
    # residual stops shrinking, near 8e-7, instead of stalling
    r = np.concatenate([[0.0], np.geomspace(1e-2, 50.0, 3999)])
    st = ProfileState(r=r, Q=mp4.jet(r)[0], t=0.0)
    out = discrete_steady(4, st)
    disc = _Discretization(4, r, st.inner_bc, st.outer_bc)
    floor = np.finfo(float).eps * float(st.Q.max()) / float(np.diff(r).min()) ** 2
    assert float(np.abs(disc.rhs(out.Q)).max()) <= floor
    assert float(np.abs(out.Q - st.Q).max()) < 0.01  # the O(h^2) consistency gap
    # a Newton cut short names the cause: below the floor the tolerance is
    # out of reach; above it, the grid
    with pytest.raises(NewtonDiverged, match="below the grid's roundoff floor"):
        disc.newton(st.Q, _STEADY_TOL, max_iter=2)
    coarse = _Discretization(4, r[::20], st.inner_bc, st.outer_bc)
    with pytest.raises(NewtonDiverged, match="forming pinch"):
        coarse.newton(st.Q[::20], _STEADY_TOL, max_iter=1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 10),
    T=st.floats(1e-6, 1e6),
    t_frac=st.floats(-1.0, 1.0, exclude_max=True),
    r_frac=st.floats(1e-3, 0.99),
    nodes=st.integers(3, 50),
)
def test_shrinkers_are_the_closed_forms(n, T, t_frac, r_frac, nodes):
    """Both builders give the exact shrinkers with singular time T; the sphere's
    edge at time t is bit for bit the edge of the sphere built with T - t."""
    t = t_frac * T
    rmax = r_frac * math.sqrt((4 * n - 2) * min(T, T - t))
    r = np.linspace(0.0, rmax, nodes)
    cyl = shrinking_cylinder(n, T, r)
    np.testing.assert_allclose(cyl.Q, math.sqrt((2 * n - 2) * T), rtol=1e-15)
    assert (cyl.t, cyl.inner_bc.kind, cyl.outer_bc.kind) == (0.0, "neumann0", "neumann0")
    sph = shrinking_sphere(n, T, r)
    np.testing.assert_allclose(sph.Q, np.sqrt((4 * n - 2) * T - r**2), rtol=1e-15)
    assert (sph.t, sph.inner_bc.kind, sph.outer_bc.kind) == (0.0, "neumann0", "dirichlet")
    assert sph.outer_bc.fn(t) == pytest.approx(
        math.sqrt((4 * n - 2) * (T - t) - rmax**2), rel=1e-15)
    assert sph.outer_bc.fn(t) == shrinking_sphere(n, T - t, r).Q[-1]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), T=st.floats(1e-6, 1e6), r_frac=st.floats(1.001, 10.0))
def test_sphere_without_a_graph_raises(n, T, r_frac):
    """2(2n-1)T <= rmax^2: no sphere of singular time T is a graph over [0, rmax]."""
    r = np.linspace(0.0, r_frac * math.sqrt((4 * n - 2) * T), 11)
    with pytest.raises(ValueError, match="T = .* rmax = "):
        shrinking_sphere(n, T, r)


def test_cylinder_tracks_exact_law():
    st = cylinder_state(4, 1.0, nodes=501)
    traj, diag = evolve(st, 4, horizon=0.9, target=1e-8)
    exact = np.sqrt(6.0 * (1.0 - diag.times))
    rel = np.abs(diag.Qmin / exact - 1.0)
    assert float(rel.max()) <= 1e-4
    assert diag.T_est == pytest.approx(1.0, abs=1e-3)


def test_cylinder_curvature_rate():
    st = cylinder_state(4, 1.0, nodes=201)
    traj, diag = evolve(st, 4, horizon=0.99, target=1e-8)
    # |A| = (2(T-t))^{-1/2} exactly on the shrinking cylinder
    scaled = diag.Amax * np.sqrt(2.0 * (1.0 - diag.times))
    assert float(np.abs(scaled - 1.0).max()) <= 5e-3
    fit = fit_rate(diag.times, diag.Amax, T=1.0, window=(0.01, 1.0))
    assert fit.exponent == pytest.approx(-0.5, abs=0.005)


def test_sphere_shrinks_on_schedule():
    st = sphere_state(4, 1.0)
    traj, diag = evolve(st, 4, horizon=0.9, target=1e-8)
    # Qmin^2 = 2(2n-1)(T-t) - rmax^2, within 0.1% of 14(T-t)
    model = 14.0 * (1.0 - diag.times)
    rel = np.abs(diag.Qmin**2 / model - 1.0)
    assert float(rel.max()) <= 1e-3
    assert diag.T_est == pytest.approx(1.0, abs=1e-3)
    fit = fit_rate(diag.times, diag.Amax, T=1.0, window=(0.1, 1.0))
    assert fit.exponent == pytest.approx(-0.5, abs=0.005)
    # interior profile stays on the exact sphere
    errs = [
        np.abs(s.Q - np.sqrt(14.0 * (1.0 - s.t) - s.r**2)).max() for s in traj
    ]
    assert max(errs) <= 1e-6


def test_comparison_principle(rng):
    r = np.linspace(0.2, 2.0, 120)
    for _ in range(5):
        base = 1.0 + 0.3 * rng.uniform(0.2, 1.0) * np.sin(rng.uniform(1, 3) * r)
        gap = 0.05 + 0.1 * rng.uniform(0.0, 1.0, r.size)
        lo = ProfileState(r=r, Q=base, t=0.0)
        hi = ProfileState(r=r, Q=base + gap, t=0.0)
        tlo, _ = evolve(lo, 4, horizon=0.05, target=1e-8)
        thi, _ = evolve(hi, 4, horizon=0.05, target=1e-8)
        assert np.all(thi[-1].Q > tlo[-1].Q)


def test_refinement_convergence_order():
    # cylinder under simultaneous h, dt refinement; error is pure time error.
    # Order 5 in time: the sweep starts at one step to t = 0.5, so that its
    # finest error (2.7e-10) stays well above the roundoff floor (~3e-11)
    n, T = 4, 1.0
    errs, dts = [], []
    for k in range(4):
        nodes = 51 * 2**k
        dt = 0.5 / 2**k
        st = cylinder_state(n, T, nodes=nodes)
        t = 0.0
        while t < 0.5 - 1e-12:
            st = step(st, min(dt, 0.5 - t), n)
            t = st.t
        errs.append(float(np.abs(st.Q - math.sqrt(6.0 * 0.5)).max()))
        dts.append(dt)
    order = fit_power_law(dts, errs, min_points=4).exponent
    assert order >= 4.5


def test_sphere_fixed_step_order():
    # time order off the uniform cylinder: the sphere of criteria 5 and 6,
    # whose Dirichlet edge moves with g(t).  The moving edge costs the method
    # orders (about 3 here); m = 6..16 keeps every error (3e-11 to 1.6e-12)
    # above the roundoff floor, about 1e-13 where m >= 24
    def run(m):
        st = sphere_state(4, 1.0)
        for _ in range(m):
            st = step(st, 0.1 / m, 4)
        return st.Q

    ref = run(512)
    ms = np.array([6, 8, 12, 16])
    errs = [float(np.abs(run(m) - ref).max()) for m in ms]
    order = -fit_power_law(ms, errs, min_points=4).exponent
    assert order >= 2.5


def test_evolve_lands_on_snapshot_times():
    st = replace(cylinder_state(4, 1.0, nodes=21), t=0.125)
    traj, diag = evolve(st, 4, horizon=0.5, max_snapshots=7)
    expect = np.linspace(0.125, 0.625, 8)
    assert [s.t for s in traj] == list(expect)
    assert diag.times[-1] == 0.125 + 0.5
    assert set(expect) <= set(diag.times)


def test_evolve_past_singularity_raises():
    # the cylinder's lifetime is 0.01: evolve must not accept steps above target
    st = cylinder_state(4, 0.01, nodes=21)
    with pytest.raises((NewtonDiverged, QNonPositive)):
        evolve(st, 4, horizon=0.02)


def test_axis_slope_vanishes():
    st = sphere_state(4, 1.0)
    out = step(st, 1e-3, 4)
    h = out.r[1] - out.r[0]
    one_sided = (out.Q[1] - out.Q[0]) / h
    assert abs(one_sided) <= 2.0 * h  # O(h) one-sided slope of an even profile


def test_inner_rescaling_maps_scaled_profile_back(mp4):
    p = derive_constants(4, 4, T=1.0)
    t = 0.9
    lam = (p.T - t) ** (-(p.sigma_k + 0.5))
    r_nodes = mp4.grid[(mp4.grid > 0.0) & (mp4.grid < mp4.r_max / (2.0 * lam))]
    state = ProfileState(r=r_nodes, Q=mp4.jet(lam * r_nodes)[0] / lam, t=t)
    res = to_inner(state, p)
    expect = mp4.jet(res.x)[0]
    assert float(np.abs(res.y - expect).max()) <= 1e-10
    # explicit p-grid goes through cubic interpolation
    p_grid = np.geomspace(res.x[2], res.x[-3], 77)
    res2 = to_inner(state, p, p_grid=p_grid)
    assert float(np.abs(res2.y - mp4.jet(p_grid)[0]).max()) <= 1e-6


def test_cone_is_parabolic_fixed_point():
    p = derive_constants(4, 2, T=1.0)
    r = np.linspace(0.3, 4.0, 60)
    st = ProfileState(r=r, Q=r.copy(), t=0.77)
    res = to_parabolic(st, p)
    assert float(np.abs(res.y - res.x).max()) == 0.0


def test_inner_time_variable():
    # s(t) = (T-t)^(-2 sigma)/(2 sigma): n=4, k=4, t=0.99 -> 1292.6608...
    p = derive_constants(4, 4, T=1.0)
    st = ProfileState(r=np.array([1.0, 2.0]), Q=np.array([1.5, 2.5]), t=0.99)
    s = to_inner(st, p).s
    assert s == pytest.approx(0.6 * 100.0 ** (5.0 / 3.0), rel=1e-12)


def test_fit_rate_synthetic_and_guard():
    T = 2.0
    times = np.linspace(0.0, 1.9, 60)
    M = (T - times) ** (-4.0 / 3.0)
    fit = fit_rate(times, M, T)
    assert fit.exponent == pytest.approx(-4.0 / 3.0, abs=1e-12)
    assert fit.resid <= 1e-12
    with pytest.raises(WindowTooNarrow):
        fit_rate(times[:5], M[:5], T)
    with pytest.raises(ValueError, match="T must exceed every sample time, got T = nan"):
        fit_rate(times, M, math.nan)


def test_step_past_singularity_raises():
    st = cylinder_state(4, 0.01, nodes=21)
    with pytest.raises((NewtonDiverged, QNonPositive)):
        step(st, 0.02, 4)  # dt beyond the cylinder's whole lifetime


def test_state_validation():
    with pytest.raises(QNonPositive):
        ProfileState(r=np.array([0.0, 1.0]), Q=np.array([1.0, -1.0]), t=0.0)
    with pytest.raises(ValueError):
        ProfileState(r=np.array([1.0, 0.5]), Q=np.array([1.0, 1.0]), t=0.0)
    # the axis is the reflecting end at r = 0, and a held end needs no fn
    for kind in ("axis", "pinned"):
        with pytest.raises(ValueError, match="unknown boundary kind"):
            BC(kind)
    assert BC("dirichlet").fn is None


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("at", [0, 2, -1])
def test_state_refuses_nonfinite_values(bad, at):
    # a comparison fails on a NaN without a word, so the checks are written
    # to fail on it: a NaN or inf never reaches the flow as a state
    r, Q = np.linspace(0.0, 1.0, 5), np.ones(5)
    Q[at] = bad
    with pytest.raises(ValueError, match="profile Q must be finite"):
        ProfileState(r=r, Q=Q, t=0.0)
    r[at] = bad
    with pytest.raises(ValueError, match="grid r must be finite"):
        ProfileState(r=r, Q=np.ones(5), t=0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_state_refuses_a_nonfinite_time(t):
    with pytest.raises(ValueError, match="time t must be finite"):
        ProfileState(r=np.linspace(0.0, 1.0, 5), Q=np.ones(5), t=t)


@pytest.fixture
def radau_budget(monkeypatch):
    """Fail a run that takes more than 300 step attempts, rather than let it spin."""
    import mcflab.flow as flow

    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        if len(calls) > 300:
            raise RuntimeError("evolve made more than 300 step attempts")
        return _radau_step(*args, **kwargs)

    monkeypatch.setattr(flow, "_radau_step", counted)


def test_evolve_refuses_a_time_set_nonfinite_after_construction(radau_budget):
    # a state is mutable: a NaN t made every snapshot unreachable and the step grow to inf
    st = cylinder_state(4, 1.0, nodes=41)
    st.t = math.nan
    with pytest.raises(ValueError, match="initial time t must be finite"):
        evolve(st, 4, horizon=0.1, max_snapshots=3)


def _reverse_grid(st):
    st.r = st.r[::-1]


def _shift_grid_below_zero(st):
    st.r = st.r - 1.0


def _drop_a_node(st):
    st.Q = st.Q[:-1]


def _set_node(value):
    def mutate(st):
        st.Q[7] = value
    return mutate


@pytest.mark.parametrize("mutate, error, message", [
    (_reverse_grid, ValueError, "grid r must be finite and strictly increasing"),
    (_shift_grid_below_zero, ValueError, "radii must be nonnegative"),
    (_drop_a_node, ValueError, "matching 1-d arrays"),
    (_set_node(-1.0), QNonPositive, "positive everywhere"),
    (_set_node(math.nan), ValueError, "profile Q must be finite"),
], ids=["reversed-grid", "negative-radii", "shape-mismatch", "negative-Q", "nan-Q"])
def test_evolve_refuses_a_state_made_invalid_after_construction(
        monkeypatch, rng, mutate, error, message):
    """A state is mutable, so evolve runs its checks again before any step:
    unchecked, this reversed grid ran 278 steps to the horizon without a
    word, and a negative or NaN Q took 13 step attempts to end in
    QNonPositive at the initial time."""
    import mcflab.flow as flow

    def no_step(*args, **kwargs):
        raise AssertionError("evolve stepped from a state it should have refused")

    monkeypatch.setattr(flow, "_radau_step", no_step)
    st = rough_state(rng)
    mutate(st)
    with pytest.raises(error, match=message):
        evolve(st, 4, horizon=0.05)


def test_evolve_refuses_snapshot_times_that_do_not_advance(radau_budget):
    # at t0 = 1e16 a horizon of 1e-3 is below the spacing of floats, so every
    # snapshot time rounds to t0; it used to end in a RuntimeWarning and NewtonDiverged
    st = replace(cylinder_state(4, 1.0, nodes=41), t=1e16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="horizon = 0.001 over max_snapshots = 200"):
            evolve(st, 4, horizon=1e-3)


def test_state_defaults_reflect_at_the_axis_and_hold_elsewhere():
    on_axis = ProfileState(r=np.linspace(0.0, 1.0, 5), Q=np.ones(5), t=0.0)
    off_axis = ProfileState(r=np.linspace(0.5, 1.0, 5), Q=np.ones(5), t=0.0)
    assert (on_axis.inner_bc, on_axis.outer_bc) == (BC("neumann0"), BC("dirichlet"))
    assert (off_axis.inner_bc, off_axis.outer_bc) == (BC("dirichlet"), BC("dirichlet"))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10), gaps=st.lists(st.floats(0.01, 0.5), min_size=2, max_size=20),
       data=st.data())
def test_reflecting_end_at_the_axis_takes_the_axis_limit(n, gaps, data):
    """A neumann0 end at r = 0 evolves n Q'' - (n-1)/Q, with Q'' = 2(Q1 - Q0)/h^2,
    since (n-1) Q'/r -> (n-1) Q'' there; away from the axis it evolves
    Q'' - (n-1)/Q."""
    r = np.concatenate([[0.0], np.cumsum(gaps)])
    Q = np.array(data.draw(st.lists(st.floats(0.1, 5.0), min_size=r.size, max_size=r.size)))
    F = _Discretization(n, r, BC("neumann0"), BC("neumann0")).rhs(Q)
    h = r[1]
    assert F[0] == n * (2.0 * (Q[1] - Q[0]) / h**2) - (n - 1) / Q[0]
    hb = r[-1] - r[-2]
    assert F[-1] == 2.0 * (Q[-2] - Q[-1]) / hb**2 - (n - 1) / Q[-1]


def test_held_ends_keep_their_initial_values_through_evolve():
    r = np.linspace(0.3, 2.0, 60)
    Q = 1.0 + 0.3 * np.sin(2.0 * r)
    traj, _ = evolve(ProfileState(r=r, Q=Q, t=0.0), 4, horizon=0.05, max_snapshots=5)
    for snap in traj:
        assert (snap.Q[0], snap.Q[-1]) == (Q[0], Q[-1])
    # a held end at the axis too
    r0 = np.linspace(0.0, 2.0, 60)
    initial = ProfileState(r=r0, Q=Q, t=0.0, inner_bc=BC("dirichlet"))
    traj, _ = evolve(initial, 4, horizon=0.05, max_snapshots=5)
    assert all(snap.Q[0] == Q[0] for snap in traj)


def test_discrete_steady_holds_every_end_off_the_axis(mp4):
    # the reflecting outer end is held at the seed's value; the axis keeps its rule
    r = np.concatenate([[0.0], np.geomspace(1e-2, 20.0, 399)])
    seed = ProfileState(r=r, Q=mp4.jet(r)[0], t=0.0, outer_bc=BC("neumann0"))
    out = discrete_steady(4, seed)
    assert out.Q[-1] == seed.Q[-1] and out.Q[0] != seed.Q[0]
    assert out.inner_bc is seed.inner_bc and out.outer_bc is seed.outer_bc


@pytest.mark.parametrize(
    "horizon, target",
    [(0.01, 0.0), (0.01, -1e-8), (0.01, math.nan), (0.01, 1e-12), (0.0, 1e-8),
     (-0.01, 1e-8), (math.inf, 1e-8), (math.nan, 1e-8)],
)
def test_evolve_rejects_meaningless_horizon_or_target(horizon, target):
    # a zero target accepted every step at the step-size floor and never
    # returned; a NaN target reached the banded solver; a target below the
    # Newton tolerance took ~100x the steps for no gain in accuracy
    rc = np.linspace(0.5, 5.0, 21)
    with pytest.raises(ValueError):
        evolve(ProfileState(r=rc, Q=rc.copy(), t=0.0), 4, horizon, target=target)


def test_evolve_rejects_no_snapshots():
    rc = np.linspace(0.5, 5.0, 21)
    with pytest.raises(ValueError):
        evolve(ProfileState(r=rc, Q=rc.copy(), t=0.0), 4, 0.01, max_snapshots=0)


def test_evolve_rejects_a_misspelt_stop():
    # the stops are keyword-only parameters, so a misspelt one cannot be
    # dropped without a word, as a key of a dict of stops was
    rc = np.linspace(0.5, 5.0, 21)
    with pytest.raises(TypeError, match="Qmin_flor"):
        evolve(ProfileState(r=rc, Q=rc.copy(), t=0.0), 4, 0.01, Qmin_flor=1.0)


def test_diagnostics_consistency():
    st = sphere_state(4, 1.0)
    _, diag = evolve(st, 4, horizon=0.5, target=1e-8)
    assert np.all(diag.Amax >= diag.Hmax / math.sqrt(7.0) - 1e-12)


def test_profile_curvature_matches_geometry():
    from mcflab.geometry import ProfileJet, curvature

    r = np.linspace(0.0, 1.0, 50)
    Q = np.sqrt(14.0 - r * r)
    H, A2 = profile_curvature(4, r, Q)
    d = curvature(4, ProfileJet(0.5, math.sqrt(14.0 - 0.25), -0.5 / math.sqrt(13.75), -14.0 / 13.75**1.5))
    i = np.argmin(np.abs(r - 0.5))
    assert H[i] == pytest.approx(d.H, rel=1e-3)
    assert A2[i] == pytest.approx(d.A2, rel=1e-3)


@settings(max_examples=40, deadline=None)
@given(
    inner=END_RULES,
    outer=END_RULES,
    r0=st.sampled_from([0.0, 0.3]),
    n=st.integers(4, 7),
    gaps=st.lists(st.floats(0.05, 0.5), min_size=3, max_size=11),
    data=st.data(),
)
def test_jacobian_matches_central_differences(inner, outer, r0, n, gaps, data):
    r = r0 + np.concatenate([[0.0], np.cumsum(gaps)])
    Q = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=r.size, max_size=r.size)))
    disc = _Discretization(n, r, inner, outer)
    F, (dl, d, du) = disc.rhs_jac(Q)
    J = np.diag(d) + np.diag(du, 1) + np.diag(dl, -1)
    J_fd = np.empty_like(J)
    for j in range(r.size):
        e = np.zeros(r.size)
        e[j] = 1e-6 * Q[j]
        J_fd[:, j] = (disc.rhs_jac(Q + e)[0] - disc.rhs_jac(Q - e)[0]) / (2.0 * e[j])
    np.testing.assert_allclose(J, J_fd, rtol=1e-6, atol=1e-6 * np.abs(J).max())


@settings(max_examples=40, deadline=None)
@given(
    inner=END_RULES,
    outer=END_RULES,
    r0=st.sampled_from([0.0, 0.3]),
    n=st.integers(4, 7),
    gaps=st.lists(st.floats(0.01, 0.5), min_size=2, max_size=30),
    data=st.data(),
)
def test_rhs_is_bitwise_the_velocity_of_rhs_jac(inner, outer, r0, n, gaps, data):
    r = r0 + np.concatenate([[0.0], np.cumsum(gaps)])
    Q = np.array(data.draw(st.lists(st.floats(0.1, 5.0), min_size=r.size, max_size=r.size)))
    disc = _Discretization(n, r, inner, outer)
    assert np.array_equal(disc.rhs(Q), disc.rhs_jac(Q)[0])


@settings(max_examples=40, deadline=None)
@given(size=st.integers(2, 30), cplx=st.booleans(), data=st.data())
def test_solve_banded_is_bitwise_scipys_tridiagonal_solve(size, cplx, data):
    import scipy.linalg

    def draw(m):
        return np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=m, max_size=m)))

    dl, du, b = draw(size - 1), draw(size - 1), draw(size)
    d = draw(size) + 10.0  # diagonally dominant, so never singular
    if cplx:
        d, b = d + 1j * draw(size), b - 1j * draw(size)
    ab = np.zeros((3, size), dtype=d.dtype)
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    x = solve_banded(dl, d, du, b)
    assert x.dtype == d.dtype
    assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))


def test_solve_banded_raises_newton_diverged_on_singular_or_nonfinite():
    with pytest.raises(NewtonDiverged, match="zero pivot"):
        solve_banded(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))
    with pytest.raises(NewtonDiverged, match="non-finite"):
        solve_banded(np.ones(2), np.array([4.0, np.nan, 4.0]), np.ones(2), np.ones(3))


def test_radau_step_with_nonfinite_jacobian_raises_newton_diverged(monkeypatch):
    st = cylinder_state(4, 1.0, nodes=21)
    disc = _Discretization(4, st.r, st.inner_bc, st.outer_bc)

    def poisoned(Q):
        F, (dl, d, du) = _Discretization.rhs_jac(disc, Q)
        d[7] = np.nan
        return F, (dl, d, du)

    monkeypatch.setattr(disc, "rhs_jac", poisoned)
    with pytest.raises(NewtonDiverged):
        _radau_step(disc, _StepWork(disc.N, disc.rhs(st.Q)), st.Q, 0.0, 1e-3, 1e-10)


@settings(max_examples=40, deadline=None)
@given(
    inner=END_RULES,
    outer=END_RULES,
    r0=st.sampled_from([0.0, 0.3]),
    n=st.integers(4, 7),
    gaps=st.lists(st.floats(0.01, 0.5), min_size=2, max_size=30),
    data=st.data(),
)
def test_stacked_stages_are_bitwise_the_one_row_evaluations(inner, outer, r0, n, gaps, data):
    """The Radau step evaluates its three stages as one (3, N) array, or as
    (4, N) with the step's start Q as row 0: for a stack of any height, F is
    row by row each row's own velocity and the Jacobian is the last row's."""
    r = r0 + np.concatenate([[0.0], np.cumsum(gaps)])
    rows = st.lists(st.floats(0.1, 5.0), min_size=r.size, max_size=r.size)
    Y = np.array([data.draw(rows) for _ in range(data.draw(st.integers(1, 5), label="K"))])
    disc = _Discretization(n, r, inner, outer)
    F, diagonals = disc.rhs_jac(Y)
    assert F.shape == Y.shape
    for row, F_row in zip(Y, F):
        assert np.array_equal(F_row, disc.rhs(row))
    assert np.array_equal(disc.rhs(Y), F)
    for got, want in zip(diagonals, disc.rhs_jac(Y[-1])[1], strict=True):
        assert np.array_equal(got, want)


def test_evolve_snapshots_are_states_on_the_initial_grid(monkeypatch):
    """Snapshots share the initial grid and BCs, and the step loop's own
    checks stand in for a state's: none is validated again."""
    validated = []
    post_init = ProfileState.__post_init__

    def recording(self):
        post_init(self)
        validated.append(self)

    monkeypatch.setattr(ProfileState, "__post_init__", recording)
    initial = sphere_state(4, 1.0, nodes=60)
    # the stop trips on a step between snapshots, which becomes the final state
    traj, diag = evolve(initial, 4, horizon=0.5, max_snapshots=4, Qmin_floor=3.7)
    assert diag.stopped_by == "Qmin_floor"
    assert traj[0] is initial
    assert traj[-1].t == diag.times[-1] and traj[-1].t not in np.linspace(0.0, 0.5, 5)
    times = list(diag.times)
    for snap in traj[1:]:
        assert isinstance(snap, ProfileState)
        assert snap.r is initial.r
        assert snap.inner_bc is initial.inner_bc and snap.outer_bc is initial.outer_bc
        assert snap.Q.min() == diag.Qmin[times.index(snap.t)]
    assert len(validated) == 1 and validated[0] is initial


@pytest.mark.parametrize("lands", [True, False])
def test_a_finite_amax_cap_stops_on_the_step_that_reaches_it(lands):
    """A cap between two steps' Amax ends the run on the later step, and the
    run up to there is the uncapped run's, bit for bit."""
    st = cylinder_state(4, 1.0, nodes=41)
    _, free = evolve(st, 4, horizon=0.9, target=1e-8, max_snapshots=20)
    assert free.stopped_by == "horizon" and np.all(np.diff(free.Amax) > 0.0)
    marks = np.linspace(0.0, 0.9, 21)
    # the first step past the middle that lands on a snapshot time, or does not
    stop = next(i for i in range(len(free.times) // 2, len(free.times))
                if (free.times[i] in marks) == lands)
    cap = 0.5 * (free.Amax[stop - 1] + free.Amax[stop])
    traj, diag = evolve(st, 4, horizon=0.9, target=1e-8, max_snapshots=20, Amax_cap=cap)
    assert diag.stopped_by == "Amax_cap"
    assert diag.Amax[-1] >= cap > diag.Amax[:-1].max()
    assert traj[-1].t == diag.times[-1] == free.times[stop]
    assert diag.accepted == stop
    for name in ("times", "Hmax", "Amax", "Qmin"):
        assert np.array_equal(getattr(diag, name), getattr(free, name)[: stop + 1]), name


def rough_profiles(seed, r):
    """One ordered (lower, upper) pair, drawn as in test_comparison_principle."""
    rng = np.random.default_rng(seed)
    base = 1.0 + 0.3 * rng.uniform(0.2, 1.0) * np.sin(rng.uniform(1, 3) * r)
    return base, base + 0.05 + 0.1 * rng.uniform(0.0, 1.0, r.size)


@pytest.mark.parametrize("case", ["rough pair, N = 120", "cylinder, N = 4000"])
def test_each_snapshot_curvature_is_its_diagnostics_entry(case):
    """A fresh profile_curvature of each snapshot gives the Hmax and Amax
    entry at its time, bit for bit: at N = 120 evolve evaluates stacks of
    accepted profiles, at N = 4000 one profile per stack."""
    if case.startswith("rough"):
        r = np.linspace(0.2, 2.0, 120)
        runs = [evolve(ProfileState(r=r, Q=q, t=0.0), 4, horizon=0.05, target=1e-8)
                for q in rough_profiles(17, r)]
    else:
        runs = [evolve(cylinder_state(4, 1.0, nodes=4000), 4, horizon=0.9, target=1e-8,
                       Qmin_floor=0.2)]
    for traj, diag in runs:
        times = list(diag.times)
        assert len(traj) == 201
        for snap in traj:
            i = times.index(snap.t)
            H, A2 = profile_curvature(4, snap.r, snap.Q)
            assert float(np.abs(H).max()) == diag.Hmax[i]
            assert math.sqrt(float(A2.max())) == diag.Amax[i]


def test_profiles_outside_the_safe_band_are_evaluated_as_they_are_accepted(monkeypatch):
    """Under the infinite cap a profile outside _safe_band, whose |A|^2 might
    overflow, is evaluated at once, in a stack of its own; every entry
    stays bit for bit the same."""
    import mcflab.flow as flow_module

    real = flow_module.profile_curvature
    stacks = []
    monkeypatch.setattr(flow_module, "profile_curvature",
                        lambda n, r, Q, w=None: (stacks.append(len(Q)), real(n, r, Q, w=w))[1])
    r = np.linspace(0.2, 2.0, 120)
    initial = ProfileState(r=r, Q=rough_profiles(17, r)[1], t=0.0)
    traj, free = evolve(initial, 4, horizon=0.05, target=1e-8)
    assert max(stacks) == _DIAG_BUDGET // r.size and len(stacks) < free.accepted / 20
    # a band whose top hi is the median snapshot's max Q: the earlier steps
    # of this flattening profile are above it
    hi = float(np.median([s.Q.max() for s in traj]))
    w2 = float(np.abs(stencil_weights(r)[:, 1]).sum(axis=0).max())
    monkeypatch.setattr(flow_module, "_K_SAFE", hi * w2 * math.sqrt(7.0))
    assert _safe_band(4, r, stencil_weights(r))[1] == pytest.approx(hi, rel=1e-14)
    stacks.clear()
    _, banded = evolve(initial, 4, horizon=0.05, target=1e-8)
    assert stacks.count(1) > free.accepted / 4 and max(stacks) > 1
    for name in ("times", "Hmax", "Amax", "Qmin"):
        assert np.array_equal(getattr(banded, name), getattr(free, name)), name


@settings(max_examples=300, deadline=None)
@given(
    axis=st.booleans(),
    n=st.integers(2, 12),
    scale_exp=st.floats(-150.0, 2.0),
    offset_exp=st.floats(-150.0, 3.0),
    depth=st.floats(0.0, 3.0),
    data=st.data(),
)
def test_a_profile_inside_the_safe_band_cannot_overflow_its_curvature(axis, n, scale_exp,
                                                                      offset_exp, depth, data):
    """Inside _safe_band, max |A|^2 is finite: the infinite cap, which only an
    overflow reaches, cannot trip there.  Profiles are drawn within 3
    decades of the band's top, on grids from 1e-150 to 100 wide."""
    gaps = data.draw(st.lists(st.floats(1.0, 4.0), min_size=2, max_size=12))
    offset = 0.0 if axis else 10.0**offset_exp
    r = 10.0**scale_exp * (offset + np.concatenate([[0.0], np.cumsum(gaps)]))
    lo, hi = _safe_band(n, r, stencil_weights(r))
    values = st.lists(st.floats(0.01, 1.0), min_size=r.size, max_size=r.size)
    Q = hi * 10.0**-depth * np.array(data.draw(values))
    if not lo <= Q.min():  # an empty band, where every profile is evaluated at once
        return
    with np.errstate(all="ignore"):  # only the end result is in question
        _, A2 = profile_curvature(n, r, Q)
    assert not np.isposinf(A2).any()


def test_the_safe_band_ends_within_a_few_decades_of_an_overflow():
    """A zigzag profile at the band's top has a finite |A|^2, and 1e5 times it
    one that overflows: the band is not vacuous."""
    r = np.arange(41) * 2.0**-10  # uniform in floating point, so Q' = 0 inside
    lo, hi = _safe_band(4, r, stencil_weights(r))
    zigzag = hi * (0.75 + 0.25 * (-1.0) ** np.arange(r.size))
    with np.errstate(all="ignore"):
        assert np.isfinite(profile_curvature(4, r, zigzag)[1]).all()
        assert np.isposinf(profile_curvature(4, r, 1e5 * zigzag)[1]).any()


def test_evolve_counters_account_for_every_solve(monkeypatch, rng):
    """Each converged stage solve costs two solves per iteration (one real,
    one complex) plus one error solve."""
    import mcflab.flow as flow_module

    solves = []
    monkeypatch.setattr(flow_module, "solve_banded",
                        lambda *a: (solves.append(1), solve_banded(*a))[1])
    initial = rough_state(rng)
    _, diag = evolve(initial, 4, horizon=0.05, target=1e-8)
    assert diag.accepted == len(diag.times) - 1
    assert diag.rejected["error"] > 0
    assert diag.rejected["NewtonDiverged"] == diag.rejected["QNonPositive"] == 0
    assert len(solves) == 2 * diag.stage_iterations + diag.accepted + diag.rejected["error"]
    assert 0.0 < diag.dt_min <= diag.dt_max <= 0.05 / 200 * 1.1
    # the counters repeat exactly for one input
    _, again = evolve(initial, 4, horizon=0.05, target=1e-8)
    assert (again.rejected, again.stage_iterations, again.dt_min, again.dt_max) == (
        diag.rejected, diag.stage_iterations, diag.dt_min, diag.dt_max)


@pytest.mark.parametrize("case", ["rough", "sphere"])
def test_evolve_makes_one_stencil_pass_per_stage_iteration(monkeypatch, rng, case):
    """Each stage iteration is one stencil pass.  F(Q) of a step's start is
    row 0 of its first pass, so only the first step's predictor takes a pass
    of its own, and a step retried for its error does not evaluate F(Q) again."""
    passes = []
    rhs = _Discretization._rhs
    monkeypatch.setattr(_Discretization, "_rhs",
                        lambda self, Q: (passes.append(Q.shape), rhs(self, Q))[1])
    if case == "rough":
        _, diag = evolve(rough_state(rng), 4, horizon=0.05, target=1e-8)
        assert diag.rejected["error"] > 0
    else:  # criterion 5's sphere
        _, diag = evolve(sphere_state(4, 1.0), 4, horizon=0.9, target=1e-8)
    assert diag.rejected["NewtonDiverged"] == diag.rejected["QNonPositive"] == 0
    assert len(passes) == diag.stage_iterations + 1
    # three stage rows a pass, and F(Q) once for each profile a step starts
    # from: the initial one and every accepted one but the last
    rows = sum(shape[0] if len(shape) == 2 else 1 for shape in passes)
    assert rows == 3 * diag.stage_iterations + diag.accepted


def test_evolve_counts_failed_stage_solves_by_cause(monkeypatch):
    """A stage solve that fails is retried smaller and counted by its cause."""
    import mcflab.flow as flow_module

    stage_solves = []

    def fails_once(dl, d, du, b):
        if b.dtype.kind == "c":
            stage_solves.append(1)
            if len(stage_solves) == 40:
                raise NewtonDiverged("injected stage solve failure")
        return solve_banded(dl, d, du, b)

    monkeypatch.setattr(flow_module, "solve_banded", fails_once)
    _, diag = evolve(sphere_state(4, 1.0), 4, horizon=0.9, target=1e-8)
    assert diag.rejected["NewtonDiverged"] == 1
    assert diag.stopped_by == "horizon" and diag.times[-1] == 0.9
    assert diag.stage_iterations > diag.accepted == len(diag.times) - 1


def test_sphere_stages_converge_without_retries():
    # criterion 5's sphere: stages predicted from the last step's collocation
    # polynomial follow the moving Dirichlet edge, so no stage solve fails,
    # and the contraction stop ends most steps after one iteration
    _, diag = evolve(sphere_state(4, 1.0), 4, horizon=0.9, target=1e-8)
    assert diag.rejected["NewtonDiverged"] == 0
    assert diag.stage_iterations < 1.5 * diag.accepted


@pytest.mark.parametrize("target", [1e-7, 1e-8, 1e-9])
def test_sphere_final_error_within_the_per_step_promise(target):
    """Each accepted step keeps its local error below target * max(1, max|Q0|),
    so the sphere ends at most accepted steps times that from the exact one."""
    st = sphere_state(4, 1.0)
    traj, diag = evolve(st, 4, horizon=0.9, target=target)
    final = traj[-1]
    err = float(np.abs(final.Q - np.sqrt(14.0 * (1.0 - final.t) - final.r**2)).max())
    assert err <= diag.accepted * target * max(1.0, float(np.abs(st.Q).max()))


@pytest.mark.parametrize("target", [1e-7, 1e-8, 1e-9])
def test_sphere_steps_take_no_error_rejections(target):
    """Criterion 5's sphere: the order-5 estimate shrinks with the step, so
    the controller never retries a step for its error at any target (the
    order-3 step rejected 73 at 1e-9, as its estimate grew near t = 0.8)."""
    _, diag = evolve(sphere_state(4, 1.0), 4, horizon=0.9, target=target)
    assert diag.rejected == {"error": 0, "NewtonDiverged": 0, "QNonPositive": 0}


def test_growing_steps_keep_their_stages_converged():
    """Steps that grow fourfold, one stage iteration each, scale the carried
    contraction with them: a rate carried unscaled from the first 5e-4 step
    stopped the 0.125 steps after one iteration, whose stage error (1.1e-5
    at t = 0.25) the filtered estimate did not see, and the next steps were
    rejected 60 times."""
    st = sphere_state(4, 1.0, nodes=60)
    traj, diag = evolve(st, 4, horizon=0.5, max_snapshots=4, target=1e-8)
    assert diag.rejected["error"] == 0
    promise = diag.accepted * 1e-8 * float(np.abs(st.Q).max())
    for snap in traj:
        assert float(np.abs(snap.Q - np.sqrt(14.0 * (1.0 - snap.t) - snap.r**2)).max()) <= promise


@settings(max_examples=60, deadline=None)
@given(
    ratio=st.floats(0.2, 4.4),
    a=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    b=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    c=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
)
@example(ratio=1.0, a=[0.0, 0.0, 0.0], b=[0.0, 0.0, 0.0], c=[0.0, 0.0, 5e-324])
@example(ratio=3.0, a=[0.0, 0.0, 2.225073858507e-311], b=[0.0, 0.0, 0.0], c=[0.0, 0.0, 0.0])
def test_collocation_predictor_continues_a_cubic_stage_path(ratio, a, b, c):
    """A stage path Z(tau) = a tau + b tau^2 + c tau^3 is its own collocation
    polynomial: the prediction is the path at 1 + c_i ratio, less Z(1), to
    roundoff.

    Roundoff is relative, plus the subnormal steps of gradual underflow in
    the stages, which no relative bound covers at subnormal a, b and c: the
    cubic's Lagrange weights, whose sum is below 28 tau^3, carry them into
    the prediction (worst measured over 2e5 subnormal draws: 21.9 tau_max^3
    subnormals)."""
    a, b, c = np.array(a), np.array(b), np.array(c)
    nodes = RADAU_C
    Z_old = np.outer(nodes, a) + np.outer(nodes**2, b) + np.outer(nodes**3, c)
    tau = 1.0 + nodes * ratio
    expect = np.outer(tau, a) + np.outer(tau**2, b) + np.outer(tau**3, c) - (a + b + c)
    got = _collocation_predictor(Z_old, ratio)
    underflow = 32.0 * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - expect)
                  <= tau.max() ** 3 * (1e-13 * (np.abs(a) + np.abs(b) + np.abs(c)) + underflow))


def test_predicted_stages_keep_the_dirichlet_values(monkeypatch):
    st = sphere_state(4, 1.0, nodes=40)
    disc = _Discretization(4, st.r, st.inner_bc, st.outer_bc)
    X, _, _, last = _radau_step(disc, _StepWork(disc.N, disc.rhs(st.Q)), st.Q, 0.0, 1e-3, 1e-10)
    stages = []
    monkeypatch.setattr(disc, "rhs_jac", lambda Y: (
        stages.append(Y.copy()), _Discretization.rhs_jac(disc, Y))[1])
    _radau_step(disc, _StepWork(disc.N, disc.rhs(X)), X, 1e-3, 3e-3, 1e-10, last)
    edge = [st.outer_bc.fn(1e-3 + c * 3e-3) for c in RADAU_C]
    assert stages[0][:, -1] == pytest.approx(edge, rel=1e-15)


@pytest.mark.parametrize("seed", [17, 20260809])
def test_rough_data_take_one_stage_iteration_per_step(seed):
    """Profiles drawn as perfbench's rough pairs: the extrapolated stages and
    the contraction stop leave at most 1.1 stage iterations per attempted step."""
    rng = np.random.default_rng(seed)
    r = np.linspace(0.2, 2.0, 120)
    for _ in range(3):
        base = 1.0 + 0.3 * rng.uniform(0.2, 1.0) * np.sin(rng.uniform(1, 3) * r)
        gap = 0.05 + 0.1 * rng.uniform(0.0, 1.0, r.size)
        for Q in (base, base + gap):
            _, diag = evolve(ProfileState(r=r, Q=Q, t=0.0), 4, horizon=0.05, target=1e-8)
            assert diag.stage_iterations <= 1.1 * (diag.accepted + diag.rejected["error"])
