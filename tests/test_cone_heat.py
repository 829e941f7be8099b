import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ive

from mcflab import cone_heat
from mcflab.cone_heat import (
    _ASYMP_TERMS,
    _SERIES_SWITCH,
    HalfLineField,
    _bessel_asymptotic_scaled,
    _bessel_series_scaled,
    bessel_I,
    cone_transform,
    decay_experiment,
    heat_kernel,
    propagate,
    stationary_mass,
)
from mcflab.errors import TailTooFat
from mcflab.params import derive_constants


def series_oracle(mu, z, terms=30):
    """Ascending series of I_mu, summed independently of the implementation."""
    total = 0.0
    for m in range(terms):
        total += (z / 2.0) ** (2 * m + mu) / (
            math.gamma(m + 1) * math.gamma(m + mu + 1)
        )
    return total


def test_zero_argument():
    assert bessel_I(0.5, 0.0) == 0.0
    assert bessel_I(3.2, 0.0) == 0.0


def test_half_order_at_one_frozen():
    # sqrt(2/pi) sinh(1) = 0.9376748882454876, series oracle agrees
    val = bessel_I(0.5, 1.0)
    assert val == pytest.approx(0.9376748882454876, rel=1e-14)
    assert val == pytest.approx(series_oracle(0.5, 1.0), rel=1e-13)


def test_half_order_closed_form_to_700():
    z = np.linspace(1e-8, 700.0, 2001)
    rel = np.abs(bessel_I(0.5, z) / (np.sqrt(2.0 / (np.pi * z)) * np.sinh(z)) - 1.0)
    assert float(rel.max()) <= 1e-10


def test_scaled_large_argument_asymptote():
    val = bessel_I(0.5, 1e4, scaled=True)
    assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 1e4), rel=0.01)


def test_unscaled_overflow_guard():
    with pytest.raises(OverflowError):
        bessel_I(0.5, 800.0)
    assert np.isfinite(bessel_I(0.5, 800.0, scaled=True))


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0615528128088303, 4.272001872658765])
def test_regime_crossover_and_scipy_oracle(mu):
    # the series and the asymptotic expansion agree where bessel_I switches
    z_switch = np.array([max(_SERIES_SWITCH, 1.5 * mu * mu)])
    series = _bessel_series_scaled(mu, z_switch)[0]
    asymptotic = _bessel_asymptotic_scaled(mu, z_switch)[0]
    assert abs(series - asymptotic) / abs(asymptotic) <= 1e-10
    z = np.geomspace(1e-3, 3000.0, 200)
    mine = bessel_I(mu, z, scaled=True)
    assert float(np.abs(mine / ive(mu, z) - 1.0).max()) <= 1e-12


def test_large_order_renormalized_series():
    # the n = 64 order keeps the series in play out to z ~ 1.5 mu^2 ~ 5700,
    # where the raw sum reaches e^z and needs running renormalization
    mu = derive_constants(64, 2).mu
    z = np.geomspace(1.0, 9000.0, 80)
    rel = np.abs(bessel_I(mu, z, scaled=True) / ive(mu, z) - 1.0)
    assert float(rel.max()) <= 1e-11


def test_mixed_array_matches_single_values():
    # one array whose series part needs renormalization (z up to 1.5 mu^2 ~
    # 5700) and whose other elements need none (z < 600): the rescaling test
    # covers every element, not only the largest z
    mu = derive_constants(64, 2).mu
    z = np.concatenate([np.geomspace(1.0, 599.0, 40), np.geomspace(600.0, 9000.0, 40)])
    batch = bessel_I(mu, z, scaled=True)
    single = np.array([bessel_I(mu, zi, scaled=True) for zi in z])
    assert float(np.abs(batch / single - 1.0).max()) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(mu=st.floats(0.0, 60.0))
def test_asymptotic_terms_never_grow_past_the_switch(mu):
    # the expansion's k-th term is the last one times f_k / z; every |f_k| is
    # below the switch, so on z > switch no term grows and optimal
    # truncation would cut nothing
    switch = max(_SERIES_SWITCH, 1.5 * mu * mu)
    k = np.arange(1, _ASYMP_TERMS)
    factor = (4.0 * mu * mu - (2 * k - 1) ** 2) / (8.0 * k)
    assert float(np.abs(factor).max()) < switch


@pytest.mark.parametrize(
    "call",
    [
        lambda: bessel_I(0.5, math.nan),
        lambda: bessel_I(0.5, np.array([1.0, math.nan, 3.0])),
        lambda: bessel_I(math.nan, 3.0),
        lambda: bessel_I(math.inf, 3.0),
        lambda: heat_kernel(0.5, math.nan, 1.0, 2.0),
        lambda: heat_kernel(0.5, math.inf, 1.0, 2.0),
    ],
    ids=["nan-z", "nan-in-array", "nan-order", "infinite-order", "nan-t", "infinite-t"],
)
def test_inputs_without_an_answer_are_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_kernel_symmetry(rng):
    r = rng.uniform(0.05, 8.0, 1000)
    rho = rng.uniform(0.05, 8.0, 1000)
    for t in (0.3, 1.7):
        a = heat_kernel(0.5, t, r, rho)
        b = heat_kernel(0.5, t, rho, r)
        assert float(np.abs(a - b).max()) <= 1e-13 * float(np.abs(a).max())
        assert np.all(a > 0.0)


def test_stationary_monomial_mass():
    # r^{mu+1/2} is a fixed point of the kernel: mass at (mu, t, r)=(1/2, 1, 2) is 2
    assert stationary_mass(0.5, 1.0, 2.0) == pytest.approx(2.0, abs=1e-6)
    for t in (0.1, 1.0, 10.0):
        val = stationary_mass(0.5, t, 2.0)
        assert val == pytest.approx(2.0, abs=1e-6)
    mu5 = derive_constants(5, 2).mu
    val = stationary_mass(mu5, 1.0, 2.0)
    assert val == pytest.approx(2.0 ** (mu5 + 0.5), rel=1e-6)


def test_semigroup_identity():
    r0, rho0, s, t = 1.0, 2.0, 0.3, 0.7
    val, _ = quad(
        lambda sg: heat_kernel(0.5, s, r0, sg) * heat_kernel(0.5, t, sg, rho0),
        1e-12,
        rho0 + 40.0 * math.sqrt(max(s, t)),
        epsabs=1e-13,
        epsrel=1e-11,
        limit=400,
    )
    direct = heat_kernel(0.5, s + t, r0, rho0)
    assert abs(val - direct) <= 1e-5 * direct


def test_propagate_stationary_pointwise():
    mu = 0.5
    grid = np.geomspace(1e-3, 60.0, 300)
    v0 = HalfLineField(grid=grid, v=grid ** (mu + 0.5), t=0.0)
    out_r = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
    out = propagate(mu, 1.0, v0, out_grid=out_r)
    assert float(np.abs(out.v / out_r ** (mu + 0.5) - 1.0).max()) <= 1e-6
    assert out.t == pytest.approx(1.0)


def test_propagate_zero():
    grid = np.geomspace(1e-2, 30.0, 100)
    v0 = HalfLineField(grid=grid, v=np.zeros_like(grid), t=0.5)
    out = propagate(0.5, 1.0, v0)
    assert np.all(out.v == 0.0)


def test_propagate_subcritical_ratio_decreases():
    mu = 0.5
    grid = np.geomspace(1e-3, 50.0, 300)
    v0 = HalfLineField(grid=grid, v=grid ** (mu + 0.5 - 1.0) * np.exp(-grid**2), t=0.0)
    sups = []
    for t in (0.5, 1.0, 2.0, 4.0):
        out_grid = np.geomspace(0.1, 10.0, 60) * math.sqrt(t)
        out = propagate(mu, t, v0, out_grid=out_grid)
        sups.append(float(np.max(out.v / out_grid ** (mu + 0.5))))
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_propagate_is_odd():
    # one-signed negative data densify like positive data: propagate(-v) = -propagate(v)
    mu = derive_constants(4, 2).mu
    grid = np.geomspace(0.01, 30.0, 200)
    v = grid**1.2 * np.exp(-grid / 10.0)
    pos = propagate(mu, 0.5, HalfLineField(grid=grid, v=v, t=0.0))
    neg = propagate(mu, 0.5, HalfLineField(grid=grid, v=-v, t=0.0))
    np.testing.assert_array_equal(neg.v, -pos.v)


@pytest.mark.parametrize("wave", [0.0, 1.0], ids=["one-signed", "sign-changing"])
def test_propagate_node_independent_of_block(wave):
    # at t = 0.01 the windows of nodes below 40 sqrt(t) = 4 reach the origin and
    # the others do not; 13 nodes also leave a short last block
    mu = derive_constants(4, 2).mu
    grid = np.geomspace(0.01, 30.0, 200)
    v = grid**1.2 * np.exp(-grid / 10.0) * np.cos(wave * grid)
    field = HalfLineField(grid=grid, v=v, t=0.0)
    out_grid = np.geomspace(0.05, 30.0, 13)
    batch = propagate(mu, 0.01, field, out_grid=out_grid).v
    single = [propagate(mu, 0.01, field, out_grid=[r]).v[0] for r in out_grid]
    np.testing.assert_array_equal(batch, single)


def test_tail_too_fat_rejected():
    mu = 0.5
    grid = np.geomspace(1e-2, 100.0, 200)
    fat = HalfLineField(grid=grid, v=grid ** (mu + 1.0), t=0.0)
    with pytest.raises(TailTooFat):
        propagate(mu, 1.0, fat)


def test_decay_slopes():
    p4 = derive_constants(4, 4)
    exp4 = decay_experiment(p4, 1.0, np.geomspace(1.0, 100.0, 10))
    assert exp4.fit.exponent == pytest.approx(-0.5, abs=0.075)

    p5 = derive_constants(5, 3)
    exp5 = decay_experiment(p5, 2.0, np.geomspace(1.0, 100.0, 10))
    assert exp5.fit.exponent == pytest.approx(-1.0, abs=0.15)


def test_decay_slope_small_delta():
    p = derive_constants(4, 2)
    exp = decay_experiment(p, 0.1, np.geomspace(1.0, 50.0, 8))
    assert exp.fit.exponent == pytest.approx(-0.05, abs=0.02)


def test_decay_experiment_guards():
    p = derive_constants(4, 2)
    with pytest.raises(ValueError, match="delta"):
        decay_experiment(p, 5.0, [1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        decay_experiment(p, 1.0, [0.0, 1.0])


def test_decay_experiment_builds_one_spline_and_fits_one_field_tail(monkeypatch):
    calls = []
    for name in ("log_spline", "fit_power_law"):
        def counted(*args, _name=name, _real=getattr(cone_heat, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cone_heat, name, counted)
    decay_experiment(derive_constants(4, 3), 1.0, [1.0, 10.0, 100.0])
    # the input field's spline and tail, which every propagate reads, then the slope fit
    assert calls == ["fit_power_law", "log_spline", "fit_power_law"]


def test_cone_transform_monomial():
    # u = r^alpha on the n=4 cone maps to the stationary v = r^{mu+1/2} = r
    n = 4
    grid = np.geomspace(0.1, 10.0, 50)
    u = HalfLineField(grid=grid, v=grid**-2.0, t=1.0)
    v = cone_transform(n, u)
    assert np.allclose(v.v, grid ** (n - 1) * grid**-2.0, rtol=1e-14)
    assert np.allclose(v.v, grid**1.0, rtol=1e-12)
    assert v.t == pytest.approx(0.5)


def test_decay_correspondence():
    # |u| <= C r^alpha iff |v| <= C r^{mu+1/2}: the weighted sups coincide
    n = 4
    p = derive_constants(n, 2)
    grid = np.geomspace(0.5, 50.0, 120)
    u_vals = 0.7 * grid**p.alpha * (1.0 + 0.2 * np.sin(np.log(grid)))
    u = HalfLineField(grid=grid, v=u_vals, t=0.0)
    v = cone_transform(n, u)
    sup_u = float(np.max(np.abs(u.v) / grid**p.alpha))
    sup_v = float(np.max(np.abs(v.v) / grid ** (p.mu + 0.5)))
    assert sup_u == pytest.approx(sup_v, rel=1e-12)


def test_liouville_linkage_weighted_sup_decreases():
    # subcritical cone data loses weighted mass under transform-propagate-invert
    n = 4
    p = derive_constants(n, 2)
    delta = 1.0
    a = abs(p.alpha) + delta / 2.0
    grid = np.geomspace(1e-3, 300.0, 400)
    u = HalfLineField(grid=grid, v=grid ** (p.alpha - delta), t=0.0)
    v = cone_transform(n, u)
    sups = []
    for t_v in (1.0, 4.0):
        out_grid = np.geomspace(0.05, 10.0, 80) * math.sqrt(t_v)
        v_t = propagate(p.mu, t_v, v, out_grid=out_grid)
        u_t = v_t.grid ** (-(n - 1)) * v_t.v  # back to the cone field u = r^{-(n-1)} v
        sups.append(float(np.max((1.0 + v_t.grid) ** a * np.abs(u_t))))
    start = float(np.max((1.0 + grid) ** a * np.abs(u.v)))
    assert sups[0] < start
    assert sups[1] < sups[0]


def test_field_validation():
    with pytest.raises(ValueError):
        HalfLineField(grid=np.array([1.0, 0.5]), v=np.array([1.0, 1.0]), t=0.0)
    with pytest.raises(ValueError):
        HalfLineField(grid=np.array([1.0, 2.0]), v=np.array([np.inf, 1.0]), t=0.0)
