"""Construction of the minimal profile asymptotic to the Simons cone.

For each n >= 4 and axis height b > 0 there is a smooth rotationally
invariant minimal hypersurface whose profile solves

    Q'' = (1 + Q'^2) ( (n-1)/Q - (n-1) Q'/r ),   Q(0) = b, Q'(0) = 0,

stays above the cone Q = r, and approaches it like Q = r + C_b r^alpha with
the negative exponent alpha shared by the whole family.  The one-parameter
family is a single shape: Q_b(r) = b Q_1(r/b).

Internally the integration tracks the cone gap v = Q - r, which obeys

    v'' = -(1 + (1+v')^2) (n-1) (v + v'(r+v)) / (r (r+v)).

Working in v is not cosmetic: far out, quantities like the kernel element
u0 = (Q - r Q')/sqrt(1+Q'^2) = (v - r v')/sqrt(1+Q'^2) are differences of
O(r) numbers when formed from Q but differences of same-scale small numbers
when formed from v, and only the latter keeps relative accuracy once
v ~ r^alpha has decayed below roundoff of r.

The r = 0 coordinate singularity is removable only analytically, so the
integration starts from a power-series seed on [0, r_seed] whose
coefficients are generated order by order from the equation itself; an
adaptive Runge-Kutta integrator carries the gap out to r_max with dense
output, so profile jets are available at arbitrary radii downstream.  It is
DOP853 with its continuous extension (Hairer, Norsett and Wanner, Solving
Ordinary Differential Equations I, Sec. II.10), run on plain floats with
scipy's tableau and scipy's step-size control.  integrate_profile shoots
once; the profile's `accuracy`, which compares against a second shot at
tol/10, is computed only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import mul

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop

from .errors import BlowupDetected, NonPositiveTail, PositivityViolated, SeedTooCoarse
from .fitting import RateFit, fit_power_law

_SERIES_ORDERS = 4  # even orders r^2 .. r^8
_QPRIME_CAP = 10.0  # Q' approaches 1 from below; exceeding this means a bug
_NODES_PER_DECADE = 60  # profile grid density in log r


def _gap_rhs(n: int, r, v, v1):
    """v'' for the cone gap: (1+Q'^2)((n-1)/Q - (n-1)Q'/r) at Q = r + v."""
    q1 = 1.0 + v1
    return -(1.0 + q1 * q1) * (n - 1) * (v + v1 * (r + v)) / (r * (r + v))


def kernel_element(r, v, v1, v2):
    """(u0, u0') of the Jacobi kernel element from the cone-gap jet (v, v', v'').

    u0 = (v - r v')/sqrt(s) and u0' = -Q''(r + Q Q')/s^{3/2}, with Q = r + v
    and s = 1 + Q'^2; in gap form neither loses digits far out.
    """
    q1 = 1.0 + v1
    s = 1.0 + q1 * q1
    return (v - r * v1) / np.sqrt(s), -v2 * (r + (r + v) * q1) / s**1.5


def third_derivative(n: int, r, v, v1, v2):
    """Q''' at r > 0 from the cone-gap jet (v, v', v'').

    It differentiates the minimal-surface equation, assembled from gap
    quantities so the small factors (1/Q - Q'/r) and (Q'/r^2 - Q'/Q^2)
    carry no large-number cancellations.
    """
    q, q1, q2 = r + v, 1.0 + v1, v2
    s = 1.0 + q1 * q1
    # 1/Q - Q'/r = -(v + v'(r+v)) / (r (r+v))
    D = -(v + v1 * (r + v)) / (r * q)
    # Q'/r^2 - Q'/Q^2 = Q' v (2r + v) / (r^2 Q^2)
    E = q1 * v * (2.0 * r + v) / (r * r * q * q)
    return 2.0 * q1 * q2 * (n - 1) * D + s * (n - 1) * (E - q2 / r)


def _series_residual_coeff(n: int, coeffs: np.ndarray, order: int) -> float:
    """Coefficient of r^order in Q'' - (1+Q'^2)((n-1)/Q - (n-1)Q'/r) for polynomial Q."""
    L = len(coeffs) + 4
    c = np.zeros(L)
    c[: len(coeffs)] = coeffs

    def mul(a, b):
        return np.convolve(a, b)[:L]

    d1 = np.zeros(L)
    d1[:-1] = c[1:] * np.arange(1, L)
    d2 = np.zeros(L)
    d2[:-1] = d1[1:] * np.arange(1, L)
    # Q'/r: Q' has no constant term for an even series
    d1_over_r = np.zeros(L)
    d1_over_r[:-1] = d1[1:]
    # 1/Q by series inversion (Q(0) = b > 0)
    inv = np.zeros(L)
    inv[0] = 1.0 / c[0]
    for m in range(1, L):
        inv[m] = -np.dot(c[1 : m + 1], inv[:m][::-1]) / c[0]
    one_plus_dq2 = mul(d1, d1)
    one_plus_dq2[0] += 1.0
    rhs = mul(one_plus_dq2, (n - 1) * (inv - d1_over_r))
    res = d2 - rhs
    return float(res[order])


def _axis_series(n: int, b: float) -> np.ndarray:
    """Polynomial coefficients [b, 0, c2, 0, c4, ...] of the axis expansion.

    Each even coefficient is fixed by requiring the corresponding order of
    the equation residual to vanish; the residual coefficient is affine in
    the unknown, so two evaluations determine it.  The series is solved at
    b = 1, where every coefficient is O(1), and scaled by Q_b(r) = b Q_1(r/b),
    which multiplies the r^k coefficient by b^(1-k).
    """
    L = 2 * _SERIES_ORDERS + 1
    coeffs = np.zeros(L)
    coeffs[0] = 1.0
    for m in range(1, _SERIES_ORDERS + 1):
        order = 2 * m - 2
        idx = 2 * m
        coeffs[idx] = 0.0
        rho0 = _series_residual_coeff(n, coeffs, order)
        coeffs[idx] = 1.0
        rho1 = _series_residual_coeff(n, coeffs, order)
        coeffs[idx] = -rho0 / (rho1 - rho0)
    return coeffs * b ** (1.0 - np.arange(L))


class _DenseGap:
    """The cone gap jet (v, v', v'') on [0, r_max], stored once as plain numbers.

    Below r_seed (v, v') is the axis series, above it the continuous
    extension of the DOP853 steps between consecutive edges, each step
    stored as its start state y_old and its 7 rows F; v'' follows from the
    equation for r > 0 and is 2 c2 on the axis.  A radius on an edge takes
    the step that ends there, and one beyond the ends takes the end step.
    """

    def __init__(self, n: int, series: np.ndarray, r_seed: float, edges, y_old, F):
        self.n = n
        self.r_seed = r_seed
        poly = np.poly1d(series[::-1])
        self.coef = poly.coeffs
        self.dcoef = np.polyder(poly).coeffs
        self.v2_axis = 2.0 * float(series[2])
        self.edges = np.asarray(edges, dtype=float)
        self.t_old = self.edges[:-1]
        self.h = np.diff(self.edges)
        self.y_old = np.asarray(y_old, dtype=float)  # (steps, 2)
        self.F = np.asarray(F, dtype=float)  # (steps, 7, 2)

    def __call__(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        v = np.empty_like(r)
        v1 = np.empty_like(r)
        inner = r <= self.r_seed
        if np.any(inner):
            ri = r[inner]
            v[inner] = np.polyval(self.coef, ri) - ri
            v1[inner] = np.polyval(self.dcoef, ri) - 1.0
        if np.any(~inner):
            ro = r[~inner]
            seg = np.searchsorted(self.edges, ro, side="left") - 1
            seg = np.clip(seg, 0, len(self.h) - 1)
            x = ((ro - self.t_old[seg]) / self.h[seg])[:, None]
            y = np.zeros((len(ro), 2))
            for i in range(self.F.shape[1]):
                y += self.F[seg, -1 - i]
                y *= x if i % 2 == 0 else 1 - x
            y += self.y_old[seg]
            v[~inner] = y[:, 0]
            v1[~inner] = y[:, 1]
        v2 = np.empty_like(r)
        pos = r > 0.0
        v2[pos] = _gap_rhs(self.n, r[pos], v[pos], v1[pos])
        v2[~pos] = self.v2_axis
        return v, v1, v2


def _tail_window(b: float, r_max: float) -> tuple[float, float]:
    return (max(10.0 * b, r_max / 10.0), r_max)


@dataclass
class MinimalProfile:
    """Sampled minimal profile with jets, dense evaluation and tail fit.

    q/q1/q2 are the profile jets on the grid; v/v1 hold the cone gap
    Q - r and its slope, which stay relatively accurate in the far field
    where q - grid would lose all digits to rounding.
    """

    n: int
    b: float
    grid: np.ndarray
    q: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    v: np.ndarray
    v1: np.ndarray
    tail: RateFit
    tol: float
    _dense: _DenseGap = field(repr=False)

    @property
    def C_b(self) -> float:
        return self.tail.coefficient

    @property
    def alpha_fit(self) -> float:
        return self.tail.exponent

    @property
    def r_seed(self) -> float:
        return self._dense.r_seed

    @property
    def r_max(self) -> float:
        return float(self.grid[-1])

    @property
    def tail_window(self) -> tuple[float, float]:
        """Default far-field fit window (max(10 b, r_max/10), r_max)."""
        return _tail_window(self.b, self.r_max)

    @cached_property
    def accuracy(self) -> float:
        """Sup deviation of (v, v') on the grid from a re-integration at tol/10.

        Both sides take the same axis series below r_seed.  Computed on first
        read, since it costs a second, tighter solve.
        """
        check = _DenseGap(self.n, *_shoot(self.n, self.b, self.r_max, self.tol / 10.0))
        v, v1, _ = check(self.grid)
        return float(max(np.max(np.abs(v - self.v)), np.max(np.abs(v1 - self.v1))))

    def gap(self, r):
        """(v, v', v'') of the cone gap at arbitrary radii in [0, r_max]."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < 0.0) or np.any(r > self.grid[-1] * (1 + 1e-12)):
            raise ValueError("gap evaluation outside [0, r_max]")
        return self._dense(r)

    def jet(self, r):
        """(Q, Q', Q'') at arbitrary radii in [0, r_max], vectorized."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        v, v1, v2 = self.gap(r)
        return r + v, 1.0 + v1, v2


# DOP853 as scipy tabulates it: rows 0-11 of A and C are the 12 stages, row
# 12 is the end slope f(r + h, y_new), and rows 13-15 are the extra stages
# of the dense output; E5, E3 weigh rows 0-12 and D all 16.
_STAGES = _dop.N_STAGES
_A = [row[:s].tolist() for s, row in enumerate(_dop.A)]
_C = _dop.C.tolist()
_MAIN = list(zip(_A[1:_STAGES], _C[1:_STAGES]))
_EXTRA = list(zip(_A[_STAGES + 1:], _C[_STAGES + 1:]))
_B = _dop.B.tolist()
_E3 = _dop.E3.tolist()
_E5 = _dop.E5.tolist()
_D = _dop.D.tolist()
# step-size control of scipy's RungeKutta: the error estimator has order 7
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0


def _dop853(g, r: float, v: float, v1: float, r_max: float, *, rtol: float, atol: float):
    """Integrate v'' = g(r, v, v') from (v, v') at r > 0 out to r_max by DOP853.

    The pair (v, v') is a 2-component system whose first component's
    derivative is the second component, so each stage costs one call of g
    on plain floats.  The first step is r itself: DOP853's usual automatic
    first step, about 100 r_seed, overflows _gap_rhs at small b.  Steps are
    accepted and resized as scipy's DOP853 does: error norm from the 5th
    and 3rd order estimates, scale atol + max(|y|, |y_new|) rtol, step
    factor 0.9 err^(-1/8) within [0.2, 10] (at most 1 after a rejection),
    min step 10 ulp(r), the last step clipped at r_max.  Its sums run in
    Python floats, not in scipy's np.dot, so its results may differ from
    scipy's in the last bits.  Returns the step edges and, per step, its
    start state and the 7 rows F of its continuous extension.
    """
    f = g(r, v, v1)
    h_abs = r
    edges, y_old, F = [r], [], []
    while r < r_max:
        min_step = 10.0 * (math.nextafter(r, math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(
                    f"profile integration failed: step size below {min_step:.3e} at r={r:g}"
                )
            r_new = min(r + h_abs, r_max)
            h = h_abs = r_new - r
            KV, KW = [v1], [f]  # stage slopes of v and of v'
            for a, c in _MAIN:
                ws = v1 + sum(map(mul, KW, a)) * h
                KW.append(g(r + c * h, v + sum(map(mul, KV, a)) * h, ws))
                KV.append(ws)
            v_new = v + h * sum(map(mul, KV, _B))
            v1_new = v1 + h * sum(map(mul, KW, _B))
            f_new = g(r_new, v_new, v1_new)
            KV.append(v1_new)
            KW.append(f_new)
            scale_v = atol + max(abs(v), abs(v_new)) * rtol
            scale_v1 = atol + max(abs(v1), abs(v1_new)) * rtol
            e5v, e5w = sum(map(mul, KV, _E5)) / scale_v, sum(map(mul, KW, _E5)) / scale_v1
            e3v, e3w = sum(map(mul, KV, _E3)) / scale_v, sum(map(mul, KW, _E3)) / scale_v1
            err5 = e5v * e5v + e5w * e5w
            err3 = e3v * e3v + e3w * e3w
            if err5 == 0.0 and err3 == 0.0:
                err = 0.0
            else:
                err = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_EXPONENT)
            rejected = True
        for a, c in _EXTRA:
            ws = v1 + sum(map(mul, KW, a)) * h
            KW.append(g(r + c * h, v + sum(map(mul, KV, a)) * h, ws))
            KV.append(ws)
        dv, dv1 = v_new - v, v1_new - v1
        F.append([
            (dv, dv1),
            (h * v1 - dv, h * f - dv1),
            (2.0 * dv - h * (v1_new + v1), 2.0 * dv1 - h * (f_new + f)),
            *[(h * sum(map(mul, KV, d)), h * sum(map(mul, KW, d))) for d in _D],
        ])
        y_old.append((v, v1))
        r, v, v1, f = r_new, v_new, v1_new, f_new
        edges.append(r)
        if v1 > _QPRIME_CAP - 1.0:
            raise BlowupDetected(
                f"Q' exceeded {_QPRIME_CAP} at r={r:g}; the slope "
                "of a minimal profile stays below 1"
            )
    return edges, y_old, F


def _shoot(n: int, b: float, r_max: float, tol: float):
    """Seed the gap from the axis series at r_seed = b/100, carry it to r_max.

    Returns the series coefficients, r_seed and the DOP853 steps of (v, v')
    at relative tolerance tol, as _DenseGap takes them.
    """
    series = _axis_series(n, b)
    r_seed = b / 100.0
    poly = np.poly1d(series[::-1])
    dpoly = np.polyder(poly)
    q_seed = float(poly(r_seed))
    q1_seed = float(dpoly(r_seed))
    q2_seed = float(np.polyder(dpoly)(r_seed))
    seed_resid = abs(q2_seed - _gap_rhs(n, r_seed, q_seed - r_seed, q1_seed - 1.0))
    # relative to Q'' ~ 1/b, so that the bound does not depend on the scale b
    bound = 10.0 * tol * max(1.0, abs(q2_seed))
    if seed_resid > bound:
        raise SeedTooCoarse(
            f"axis series residual {seed_resid:.3e} at r_seed={r_seed:g} "
            f"exceeds 10*tol*max(1, |Q''|)={bound:.3e}"
        )
    steps = _dop853(partial(_gap_rhs, n), r_seed, q_seed - r_seed, q1_seed - 1.0, r_max,
                    rtol=tol, atol=tol * b * 1e-4)
    return series, r_seed, *steps


def integrate_profile(n: int, b: float, r_max: float, tol: float = 1e-10) -> MinimalProfile:
    """Shoot the minimal profile from the axis out to r_max.

    tol is the relative error target per integrator step, applied to the
    cone gap.  The profile's `accuracy`, the sup deviation of the gap
    against a re-integration at tol/10, is computed when first read.
    """
    for name, value in (("b", b), ("r_max", r_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if b <= 0.0:
        raise ValueError(f"axis value b must be positive, got {b}")
    if r_max < 50.0 * b:
        raise ValueError(f"r_max={r_max:g} must be at least 50*b for a usable tail")
    if not (1e-12 <= tol <= 1e-6):
        raise ValueError(f"tol={tol:g} outside the supported range [1e-12, 1e-6]")

    dense = _DenseGap(n, *_shoot(n, b, r_max, tol))
    decades = np.log10(r_max / (b * 1e-3))
    npts = max(int(np.ceil(_NODES_PER_DECADE * decades)) + 1, 200)
    grid = np.concatenate([[0.0], np.geomspace(b * 1e-3, r_max, npts)])
    v, v1, q2 = dense(grid)
    if np.any(q2 <= 0.0):
        raise PositivityViolated("Q'' must stay positive on a minimal profile")
    if np.any(v <= 0.0):
        raise PositivityViolated("minimal profile crossed the cone Q = r")
    tail = _fit_gap_tail(b, grid, v, _tail_window(b, float(grid[-1])))
    return MinimalProfile(
        n=n, b=b, grid=grid, q=grid + v, q1=1.0 + v1, q2=q2, v=v, v1=v1,
        tail=tail, tol=tol, _dense=dense,
    )


def fit_tail(mp: MinimalProfile, window=None) -> RateFit:
    """Log-log fit of the gap Q - r ~ C_b r^alpha over a far-field window.

    The default window starts at max(10 b, r_max/10), far enough out that
    the r^(alpha-2) correction is below the fit tolerance.
    """
    return _fit_gap_tail(mp.b, mp.grid, mp.v, mp.tail_window if window is None else window)


def _fit_gap_tail(b: float, grid: np.ndarray, v: np.ndarray, window) -> RateFit:
    r_lo, r_hi = window
    if r_lo < 10.0 * b:
        raise ValueError(f"tail window must start at or beyond 10*b={10 * b:g}")
    if r_hi > grid[-1] * (1 + 1e-12):
        raise ValueError("tail window extends past r_max")
    mask = (grid >= r_lo) & (grid <= r_hi)
    if mask.sum() < 20:
        raise ValueError("tail window must contain at least 20 nodes")
    excess = v[mask]
    if np.any(excess <= 0.0):
        raise NonPositiveTail("Q - r is not positive throughout the tail window")
    return fit_power_law(grid[mask], excess, window=window, min_points=20)


def verify_scaling(mp1: MinimalProfile, mpb: MinimalProfile) -> float:
    """sup |Q_b(r) - b Q_1(r/b)| over the common range of two constructions.

    mp1 must have b = 1; both sides were integrated independently, so this
    is a genuine two-route consistency check of the integrators.  The
    comparison runs on the gaps (identical to comparing Q).
    """
    if abs(mp1.b - 1.0) > 0.0:
        raise ValueError("mp1 must be the b = 1 profile")
    if mp1.n != mpb.n:
        raise ValueError("profiles must share the dimension parameter n")
    b = mpb.b
    r_hi = min(mpb.r_max, b * mp1.r_max)
    rs = mpb.grid[(mpb.grid > 0.0) & (mpb.grid <= r_hi)]
    vb = mpb.gap(rs)[0]
    v1_scaled = b * mp1.gap(rs / b)[0]
    return float(np.max(np.abs(vb - v1_scaled)))


@dataclass(frozen=True)
class U0Profile:
    """Samples of the positive Jacobi kernel element u0 = (Q - r Q')/sqrt(1+Q'^2)."""

    r: np.ndarray
    u0: np.ndarray
    tail: RateFit


def u0_profile(mp: MinimalProfile) -> U0Profile:
    """The dilation kernel element u0 on the profile grid; u0(0) = b.

    Its tail behaves like (1 - alpha) C_b / sqrt(2) * r^alpha, which the
    attached fit exposes for cross-checks against the profile tail fit.
    """
    u0, _ = kernel_element(mp.grid, mp.v, mp.v1, mp.q2)
    if np.any(u0 <= 0.0):
        raise PositivityViolated("u0 must be positive on the minimal profile")
    tail = fit_power_law(mp.grid, u0, window=mp.tail_window, min_points=20)
    return U0Profile(r=mp.grid, u0=u0, tail=tail)
