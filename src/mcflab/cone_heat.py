"""Bessel parabolic machinery for the Jacobi flow on the Simons cone.

Radial solutions of the Jacobi heat equation on the cone,
du/dt = u''/2 + (n-1)/r u' + (n-1)/r^2 u, transform under
v(r, t) = r^{n-1} u(r, 2t) into the Bessel parabolic equation

    dv/dt = v'' + (1/4 - mu^2) r^{-2} v,    mu = sqrt(1/4 + (n-1)(n-4)),

whose heat kernel is W_t(r, rho) = sqrt(r rho)/(2t) I_mu(r rho / 2t)
exp(-(r^2+rho^2)/(4t)).  The monomial r^{mu+1/2} (the image of the cone
decay rate r^alpha) is stationary under this kernel, and data below that
rate by r^{-delta} contracts like t^{-delta/2}; the decay experiment here
measures that exponent directly.

The kernel is always evaluated through the scaled Bessel function
e^{-z} I_mu(z), combining the exponentials into exp(-(r-rho)^2/4t), since
z = r rho/2t routinely exceeds 1e6.  The Bessel evaluation itself keeps
two independent regimes, a power series and the large-argument expansion,
whose agreement at the crossover is a built-in oracle.  propagate()
integrates against the kernel with one of two Gauss-Legendre rules, built
once on a unit interval and mapped onto each output node's window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import TailTooFat
from .fitting import RateFit, fit_power_law, last_decade_window, log_spline, two_node_exponent
from .params import Params

_SERIES_SWITCH = 15.0  # below this (or when mu is large) use the power series
_ASYMP_TERMS = 26
_RENORM_Z = 600.0  # e^z < 1e280 below this, so the series sum needs no rescaling
_TAIL_FIT_SLACK = 0.05  # fit noise allowance on the critical tail exponent
_BLOCK = 4  # output nodes per kernel evaluation in propagate(); bigger blocks cost memory, not time
_MASS_RTOL = 1e-10  # relative quadrature tolerance of stationary_mass


def _bessel_series_scaled(mu: float, z: np.ndarray) -> np.ndarray:
    """e^{-z} I_mu(z) by the ascending series; all terms positive, so stable.

    Summed until term <= 1e-18 total at the largest z: term / total grows
    with z, so that element converges last.  The sum is at most I_0(z) <= e^z,
    so only past _RENORM_Z can it pass 1e280; then each element that has is
    rescaled by 1e-280 (scale kept in log_off), tested over the whole array,
    as a rescaled top element falls behind a slightly smaller z.
    """
    out = np.zeros_like(z)
    pos = z > 0.0
    zz = z[pos]
    if mu == 0.0:
        out[~pos] = 1.0
    if zz.size == 0:
        return out
    top = int(np.argmax(zz))
    renorm = zz[top] > _RENORM_Z
    term = np.ones_like(zz)
    total = np.ones_like(zz)
    log_off = np.zeros_like(zz)
    q = zz * zz / 4.0
    # the largest term sits near m ~ z/2; allow for it plus a safety margin
    m_cap = max(400, int(zz[top]) + 60)
    for m in range(1, m_cap + 1):
        term *= q
        term /= m * (mu + m)
        total += term
        if renorm and total.max() > 1e280:
            big = total > 1e280
            total[big] *= 1e-280
            term[big] *= 1e-280
            log_off[big] += 280.0 * np.log(10.0)
        if term[top] <= 1e-18 * total[top]:
            break
    else:
        raise ArithmeticError(
            f"Bessel series failed to converge within {m_cap} terms (mu={mu:g})"
        )
    log_pref = -zz + mu * np.log(zz / 2.0) - gammaln(mu + 1.0) + log_off
    out[pos] = np.exp(log_pref) * total
    return out


def _bessel_asymptotic_scaled(mu: float, z: np.ndarray) -> np.ndarray:
    """e^{-z} I_mu(z) by the large-argument expansion with its reflected series.

    I_mu(z) ~ e^z/sqrt(2 pi z) * sum_k (-1)^k a_k/z^k
            - sin(mu pi) e^{-z}/sqrt(2 pi z) * sum_k a_k/z^k,
    a_k = prod_{j<=k} f_j,  f_j = (4 mu^2 - (2j-1)^2) / (8j),  k < _ASYMP_TERMS.
    On z >= bessel_I's switch max(15, 1.5 mu^2) no term grows, so optimal
    truncation cuts nothing: |f_k| <= mu^2/2 <= z/3 if 4 mu^2 >= (2k-1)^2,
    else |f_k| < k/2 <= 12.5 < z.  A zero f_k (half-integer mu) ends the sum.
    """
    four_mu2 = 4.0 * mu * mu
    main = np.ones_like(z)
    refl = np.ones_like(z)
    term = np.ones_like(z)
    for k in range(1, _ASYMP_TERMS):
        factor = (four_mu2 - (2 * k - 1) ** 2) / (8.0 * k)
        if factor == 0.0:
            break
        term *= factor
        term /= z
        if k % 2:
            main -= term
        else:
            main += term
        refl += term
    return (main - math.sin(mu * math.pi) * np.exp(-2.0 * z) * refl) / np.sqrt(
        2.0 * math.pi * z
    )


def bessel_I(mu: float, z, scaled: bool = False):
    """Modified Bessel function of the first kind, order mu >= 0.

    With scaled=True returns e^{-z} I_mu(z), finite for every z >= 0; the
    unscaled value overflows beyond z ~ 700 and is rejected there.
    """
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"bessel_I handles finite nonnegative orders only, not mu={mu}")
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    # a NaN fails z >= 0 too; the series must not pick one as its largest z
    if not np.all(z_arr >= 0.0):
        raise ValueError("bessel_I requires z >= 0 (and not NaN)")
    switch = max(_SERIES_SWITCH, 1.5 * mu * mu)
    out = np.empty_like(z_arr)
    small = z_arr <= switch
    if np.any(small):
        out[small] = _bessel_series_scaled(mu, z_arr[small])
    if np.any(~small):
        out[~small] = _bessel_asymptotic_scaled(mu, z_arr[~small])
    if not scaled:
        if np.any(z_arr > 700.0):
            raise OverflowError(
                "unscaled I_mu overflows for z > 700; use scaled=True"
            )
        out = out * np.exp(z_arr)
    return out if np.ndim(z) else float(out[0])


def heat_kernel(mu: float, t: float, r, rho):
    """Bessel heat kernel W_t(r, rho), evaluated in overflow-free form."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"heat_kernel requires finite t > 0, not t={t}")
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(r <= 0.0) or np.any(rho <= 0.0):
        raise ValueError("heat_kernel requires r, rho > 0")
    z = r * rho / (2.0 * t)
    scaled = bessel_I(mu, z, scaled=True)
    return np.sqrt(r * rho) / (2.0 * t) * scaled * np.exp(-((r - rho) ** 2) / (4.0 * t))


@dataclass
class HalfLineField:
    """Radial samples v(rho_i) at one time, with a tail fit and an interpolator."""

    grid: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.grid.shape != self.v.shape:
            raise ValueError("grid and values must have matching shapes")
        if np.any(np.diff(self.grid) <= 0.0) or self.grid[0] <= 0.0:
            raise ValueError("grid must be strictly increasing and positive")
        if not np.all(np.isfinite(self.v)):
            raise ValueError("field values must be finite")

    @functools.cached_property
    def tail(self) -> RateFit | None:
        """Power-law fit over the top decade of the grid, if the field is nontrivial there.

        Computed on first read, like the interpolator; it powers both the
        fat-tail rejection in propagate() and the extension beyond the grid.
        """
        window = last_decade_window(self.grid)
        mask = self.grid >= window[0]
        vals = np.abs(self.v[mask])
        if mask.sum() >= 3 and np.all(vals > 0.0) and vals.max() > 1e-280:
            return fit_power_law(self.grid[mask], vals, window=window, min_points=3)
        return None

    @functools.cached_property
    def interpolator(self):
        """Dense evaluator with power-law extension beyond the grid.

        Inside the grid the field is densified in log rho by
        fitting.log_spline (exact on monomials, and odd in v).  Outside the grid
        the fitted tail (resp. an inner two-point power law) extends the data;
        fields that are numerically zero at the edge extend by zero.
        """
        g, v = self.grid, self.v
        lg = np.log(g)
        inside = log_spline(lg, v)
        p_out = self.tail.exponent if self.tail is not None else None
        p_in = two_node_exponent(lg[1] - lg[0], v[0], v[1])

        def evaluate(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            lo = x < g[0]
            hi = x > g[-1]
            mid = ~(lo | hi)
            if np.any(mid):
                out[mid] = inside(np.log(x[mid]))
            if np.any(lo) and p_in is not None:
                out[lo] = v[0] * (x[lo] / g[0]) ** p_in
            if np.any(hi) and p_out is not None and abs(v[-1]) > 0.0:
                out[hi] = v[-1] * (x[hi] / g[-1]) ** p_out
            return out

        return evaluate


@functools.cache
def _unit_rules() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The two unit quadrature rules of propagate(), as (nodes, weights).

    Every output node's rule is an affine image of one of them: r + w x over
    the first, on [-1, 1] in 96 uniform panels, when the window [r - w, r + w]
    stays off the origin; else (r + w) x over the second, on [0, 1], whose
    first uniform panel is replaced by a log-graded stack down to 1e-10.
    Each panel carries 12 Gauss-Legendre points.  Built on first call, not at
    import: the eigenvalue solve in leggauss adds about 1 MB to the resident
    memory of every process that imports mcflab.
    """
    gx, gw = np.polynomial.legendre.leggauss(12)

    def rule(edges):
        mids = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * np.diff(edges)
        return (mids[:, None] + half[:, None] * gx).ravel(), (half[:, None] * gw).ravel()

    graded = np.concatenate([np.geomspace(1e-10, 1.0 / 96.0, 24), np.arange(2, 97) / 96.0])
    return rule(np.linspace(-1.0, 1.0, 97)), rule(graded)


def propagate(mu: float, t: float, v0: HalfLineField, out_grid=None) -> HalfLineField:
    """Convolve a field with the Bessel heat kernel over a time lapse t.

    v(r, t0 + t) = int_0^inf W_t(r, rho) v0(rho) drho, computed per output
    node with composite Gauss-Legendre panels over the kernel's Gaussian
    window [r - w, r + w], w = 40 sqrt(t); the discarded tail carries weight
    below e^{-400}.  Each node's rule is a fixed unit rule mapped onto its
    window.  The kernel and the interpolated data are evaluated once per
    block of _BLOCK nodes sharing a unit rule, as one (nodes x rule) array
    whose rows are summed, so a value does not depend on the block it falls
    in.  Input tails at or above the stationary rate mu + 1/2 (beyond fit
    slack) are refused since the contraction estimate is meaningless there.
    """
    if t <= 0.0:
        raise ValueError("propagation time must be positive")
    if v0.tail is not None and v0.tail.exponent > mu + 0.5 + _TAIL_FIT_SLACK:
        raise TailTooFat(
            f"input tail exponent {v0.tail.exponent:.3f} is at or above the "
            f"stationary rate mu + 1/2 = {mu + 0.5:.3f}"
        )
    if out_grid is None:
        out_grid = v0.grid
    out_grid = np.asarray(out_grid, dtype=float)
    evaluate = v0.interpolator

    w = 40.0 * math.sqrt(t)
    near = out_grid <= w
    shift = np.where(near, 0.0, out_grid)
    scale = np.where(near, out_grid + w, w)
    window_rule, origin_rule = _unit_rules()
    out = np.empty_like(out_grid)
    for (x, wx), idx in ((origin_rule, np.flatnonzero(near)),
                         (window_rule, np.flatnonzero(~near))):
        for start in range(0, len(idx), _BLOCK):
            i = idx[start : start + _BLOCK]
            nodes = shift[i, None] + scale[i, None] * x
            kern = heat_kernel(mu, t, out_grid[i, None], nodes)
            out[i] = np.sum(scale[i, None] * wx * kern * evaluate(nodes), axis=1)
    return HalfLineField(grid=out_grid, v=out, t=v0.t + t)


def stationary_mass(mu: float, t: float, r: float) -> float:
    """int_0^inf W_t(r, rho) rho^{mu+1/2} drho, equal to r^{mu+1/2} exactly."""
    from scipy.integrate import quad

    w = 40.0 * math.sqrt(t)
    val, _ = quad(
        lambda rho: heat_kernel(mu, t, r, rho) * rho ** (mu + 0.5),
        max(r - w, 0.0) + 1e-300,
        r + w,
        epsabs=1e-14,
        epsrel=_MASS_RTOL,
        limit=400,
    )
    return val


@dataclass(frozen=True)
class DecayExperiment:
    """Measured contraction rate of subcritical data under the kernel."""

    delta: float
    times: np.ndarray
    sup_ratio: np.ndarray
    fit: RateFit


def decay_experiment(p: Params, delta: float, t_grid) -> DecayExperiment:
    """Propagate v0 = rho^{mu+1/2-delta} and fit the decay of sup_r v/r^{mu+1/2}.

    The data saturates the contraction bound: by kernel self-similarity the
    sup ratio equals const * t^{-delta/2} exactly, so the fitted slope is a
    sharp check of the propagation machinery, not just an upper bound.
    """
    mu = p.mu
    if not (0.0 < delta < 2.0 * mu + 2.0):
        raise ValueError(f"delta={delta:g} outside (0, {2 * mu + 2:g})")
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid[0] <= 0.0:
        raise ValueError("propagation times must be positive")

    x_grid = np.geomspace(0.05, 30.0, 40)  # output radii in units of sqrt(t)
    t_max = t_grid[-1]
    span = 75.0 * math.sqrt(t_max)
    base_grid = np.geomspace(1e-3, span, 400)
    s_exp = mu + 0.5 - delta
    v0 = HalfLineField(grid=base_grid, v=base_grid**s_exp, t=0.0)

    sups = np.empty_like(t_grid)
    for i, t in enumerate(t_grid):
        out_grid = x_grid * math.sqrt(t)
        v_t = propagate(mu, t, v0, out_grid=out_grid)
        sups[i] = float(np.max(v_t.v / out_grid ** (mu + 0.5)))
    fit = fit_power_law(t_grid, sups, min_points=3)
    return DecayExperiment(delta=float(delta), times=t_grid, sup_ratio=sups, fit=fit)


def cone_transform(n: int, field_u: HalfLineField) -> HalfLineField:
    """Map a cone Jacobi field u to its Bessel form v = r^{n-1} u, t -> t/2."""
    return HalfLineField(
        grid=field_u.grid,
        v=field_u.grid ** (n - 1) * field_u.v,
        t=field_u.t / 2.0,
    )
