"""Profile-function mean curvature flow with rescalings and rate diagnostics.

The evolving unknown is the radial profile Q(r, t) of an O(n)xO(n)-invariant
hypersurface, obeying

    dQ/dt = Q''/(1+Q'^2) + (n-1) Q'/r - (n-1)/Q,

which is strictly parabolic while Q' stays bounded.  Space is discretized
with the second-order 3-point stencil of mcflab.geometry on an arbitrary
strictly increasing grid.  At an axis node (r = 0) or a zero-flux end the
profile is even across the node, so Q' = 0 and Q'' = 2 (Q_nbr - Q_end)/h^2;
at the axis the term (n-1)Q'/r takes its symmetric limit (n-1)Q''(0).
Pinned and Dirichlet ends are fixed nodes whose value the boundary sets.

One Newton loop with the analytically assembled tridiagonal Jacobian solves
both backward Euler steps and, without the mass term, the discrete steady
state (discrete_steady).  step() and evolve() both take a full and two half
backward Euler steps and Richardson-combine them, so the local error is
third order while every stage remains L-stable.

Rescalings: the parabolic zoom (T-t)^{-1/2} exposes the Simons cone, the
inner zoom (T-t)^{-sigma_k-1/2} (the curvature blow-up rate) exposes the
minimal profile; both are pure changes of variables applied to snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .errors import NewtonDiverged, QNonPositive, WindowTooNarrow
from .fitting import RateFit, fit_power_law
from .geometry import profile_curvature, stencil_weights
from .params import Params, blowup_scale

# Newton stops at residual _NEWTON_TOL * max(1, max|Q|); evolve's relative
# step error cannot be resolved below it
_NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class BC:
    """Boundary descriptor: axis symmetry, pinned value, g(t) Dirichlet, or zero flux."""

    kind: str  # "axis" | "pinned" | "dirichlet" | "neumann0"
    fn: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind not in ("axis", "pinned", "dirichlet", "neumann0"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "dirichlet" and self.fn is None:
            raise ValueError("dirichlet boundary needs a value function of t")


@dataclass
class ProfileState:
    """One snapshot of the evolving profile."""

    r: np.ndarray
    Q: np.ndarray
    t: float
    inner_bc: BC = field(default=None)
    outer_bc: BC = field(default=None)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        if self.r.shape != self.Q.shape or self.r.ndim != 1:
            raise ValueError("grid and profile must be matching 1-d arrays")
        if np.any(np.diff(self.r) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.r[0] < 0.0:
            raise ValueError("radii must be nonnegative")
        if np.any(self.Q <= 0.0):
            raise QNonPositive("profile must be positive everywhere")
        if self.inner_bc is None:
            self.inner_bc = BC("axis") if self.r[0] == 0.0 else BC("pinned")
        if self.outer_bc is None:
            self.outer_bc = BC("pinned")
        if self.inner_bc.kind == "axis" and self.r[0] != 0.0:
            raise ValueError("axis boundary requires the grid to start at r = 0")


class _Discretization:
    """Right-hand side and Jacobian of the semi-discrete flow on one grid and BC pair."""

    def __init__(self, n: int, r: np.ndarray, inner_bc: BC, outer_bc: BC):
        self.n = n
        self.r = r
        self.inner = inner_bc
        self.outer = outer_bc
        self.N = len(r)
        w1, w2 = stencil_weights(r)
        self.w1 = w1[:, 1:-1].copy()
        self.w2 = w2[:, 1:-1].copy()
        self.w1_r = (n - 1) * self.w1 / r[1:-1]  # Jacobian of (n-1) Q'/r

    def rhs_jac(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flow velocity F(Q) and its tridiagonal Jacobian in banded storage.

        Rows of pinned and Dirichlet nodes are left zero for the solver.
        """
        n, r, N = self.n, self.r, self.N
        w1, w2 = self.w1, self.w2
        q1 = w1[0] * Q[:-2] + w1[1] * Q[1:-1] + w1[2] * Q[2:]
        q2 = w2[0] * Q[:-2] + w2[1] * Q[1:-1] + w2[2] * Q[2:]
        s = 1.0 + q1 * q1
        F = np.zeros(N)
        F[1:-1] = q2 / s + (n - 1) * q1 / r[1:-1] - (n - 1) / Q[1:-1]
        rows = w2 / s - 2.0 * q2 * q1 * w1 / s**2 + self.w1_r  # d F_i / d Q_{i-1, i, i+1}
        ab = np.zeros((3, N))  # banded (upper, diag, lower)
        ab[0, 2:] = rows[2]
        ab[1, 1:-1] = rows[1] + (n - 1) / Q[1:-1] ** 2
        ab[2, :-2] = rows[0]
        for end, nbr, bc in ((0, 1, self.inner), (N - 1, N - 2, self.outer)):
            if bc.kind in ("axis", "neumann0"):
                # even reflection across the end node: Q' = 0 and
                # Q'' = 2 (Q_nbr - Q_end)/h^2; at the axis (n-1) Q'/r -> (n-1) Q''
                m = n if bc.kind == "axis" else 1
                h2 = (r[nbr] - r[end]) ** 2
                F[end] = m * (2.0 * (Q[nbr] - Q[end]) / h2) - (n - 1) / Q[end]
                ab[1, end] = -2.0 * m / h2 + (n - 1) / Q[end] ** 2
                ab[1 + end - nbr, nbr] = 2.0 * m / h2
        return F, ab

    def newton(
        self,
        Q_old: np.ndarray,
        t_new: float,
        dt: float | None,
        tol_rel: float = _NEWTON_TOL,
        max_iter: int = 30,
    ) -> np.ndarray:
        """Solve X = Q_old + dt F(X) (backward Euler), or F(X) = 0 if dt is None.

        Nodes fixed by a boundary condition get the row X_i = value.
        """
        X = Q_old.copy()
        scale = max(1.0, float(np.max(np.abs(Q_old))))
        fixed = [
            (idx, Q_old[idx] if bc.kind == "pinned" else bc.fn(t_new))
            for idx, bc in ((0, self.inner), (self.N - 1, self.outer))
            if bc.kind in ("pinned", "dirichlet")
        ]
        for _ in range(max_iter):
            if np.any(X <= 0.0) or not np.all(np.isfinite(X)):
                raise QNonPositive(
                    "profile lost positivity inside a Newton solve; a time step "
                    "likely crossed the singular time, or no steady state is near"
                )
            F, ab = self.rhs_jac(X)
            if dt is None:
                G = F
            else:
                G = X - Q_old - dt * F
                ab *= -dt
                ab[1] += 1.0
            for idx, value in fixed:
                G[idx] = X[idx] - value
                ab[1, idx] = 1.0
            res = float(np.max(np.abs(G)))
            if res <= tol_rel * scale:
                return X
            try:
                delta = solve_banded((1, 1), ab, G)
            except np.linalg.LinAlgError as exc:
                raise NewtonDiverged(f"Jacobian solve failed: {exc}") from exc
            X = X - delta
        raise NewtonDiverged(
            f"Newton stalled at residual {res:.3e} (tolerance {tol_rel * scale:.3e}); "
            "the grid is likely under-resolving a forming pinch"
        )


def _richardson(
    disc: _Discretization, Q: np.ndarray, t: float, dt: float
) -> tuple[np.ndarray, float]:
    """Extrapolated step 2 X_half - X_full from (Q, t), and max |X_half - X_full|.

    X_full is one backward Euler step of size dt, X_half two of size dt/2.
    """
    Xf = disc.newton(Q, t + dt, dt)
    Xh = disc.newton(Q, t + dt / 2.0, dt / 2.0)
    Xh = disc.newton(Xh, t + dt, dt / 2.0)
    return 2.0 * Xh - Xf, float(np.max(np.abs(Xh - Xf)))


def step(state: ProfileState, dt: float, n: int) -> ProfileState:
    """Advance one implicit step of size dt.

    Internally a full backward Euler step and two half steps are combined as
    2 X_half - X_full (local extrapolation), giving second-order accuracy
    while keeping each stage unconditionally stable.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    disc = _Discretization(n, state.r, state.inner_bc, state.outer_bc)
    X, _ = _richardson(disc, state.Q, state.t, dt)
    if np.any(X <= 0.0):
        raise QNonPositive("extrapolated step lost positivity")
    return replace(state, Q=X, t=state.t + dt)


@dataclass
class FlowDiagnostics:
    """Per-time curvature and pinch diagnostics plus a singular-time estimate."""

    times: np.ndarray
    Hmax: np.ndarray
    Amax: np.ndarray
    Qmin: np.ndarray
    T_est: float | None
    stopped_by: str


def _estimate_T(times: np.ndarray, qmin: np.ndarray, tail: int = 12) -> float | None:
    """Extrapolate the zero of Qmin^2, which is linear in t for the shrinkers."""
    if len(times) < tail or qmin[-1] >= 0.95 * qmin[0]:
        return None
    ts, ys = times[-tail:], qmin[-tail:] ** 2
    slope, intercept = np.polyfit(ts, ys, 1)
    if slope >= 0.0:
        return None
    return float(-intercept / slope)


def evolve(
    initial: ProfileState,
    n: int,
    horizon: float,
    stop: dict | None = None,
    target: float = 1e-8,
    max_snapshots: int = 200,
) -> tuple[list[ProfileState], FlowDiagnostics]:
    """Run the flow to t0 + horizon with adaptive implicit stepping.

    stop may carry `Amax_cap` and `Qmin_floor`; tripping either ends the run
    early (recorded in diagnostics.stopped_by).  The step controller keeps
    the Richardson error estimate of each step below `target`, relative to
    max(1, max|Q|).  A horizon that is not finite and positive, or a target
    below the Newton tolerance 1e-10, raises ValueError: each Newton solve
    stops at that relative residual, so a smaller target only buys more
    steps (and a zero target would accept every step at the step-size floor).
    """
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if not target >= _NEWTON_TOL:
        raise ValueError(
            f"target must be >= the Newton tolerance {_NEWTON_TOL:g}, got {target!r}"
        )
    stop = stop or {}
    amax_cap = stop.get("Amax_cap", np.inf)
    qmin_floor = stop.get("Qmin_floor", 0.0)
    disc = _Discretization(n, initial.r, initial.inner_bc, initial.outer_bc)

    t_end = initial.t + horizon
    dt = horizon / 1000.0
    dt_min = horizon * 1e-13

    state = initial
    traj = [initial]
    times, hmax, amax, qmin = [], [], [], []

    def record_diag(st):
        H, A2 = profile_curvature(n, st.r, st.Q)
        times.append(st.t)
        hmax.append(float(np.max(np.abs(H))))
        amax.append(float(np.max(np.sqrt(A2))))
        qmin.append(float(np.min(st.Q)))

    record_diag(state)
    next_snap = initial.t + horizon / max_snapshots
    stopped_by = "horizon"
    scale = max(1.0, float(np.max(np.abs(initial.Q))))

    while state.t < t_end - 1e-14 * horizon:
        dt = min(dt, t_end - state.t)
        try:
            X, diff = _richardson(disc, state.Q, state.t, dt)
        except (NewtonDiverged, QNonPositive):
            if dt <= dt_min:
                raise
            dt = max(dt / 4.0, dt_min)
            continue
        err = diff / scale
        if err > target and dt > dt_min:
            dt = max(dt * max(0.85 * np.sqrt(target / err), 0.2), dt_min)
            continue
        if np.any(X <= 0.0):
            if dt <= dt_min:
                raise QNonPositive("profile hit zero within step-size floor")
            dt = max(dt / 4.0, dt_min)
            continue
        state = replace(state, Q=X, t=state.t + dt)
        record_diag(state)
        if state.t >= next_snap or state.t >= t_end - 1e-14 * horizon:
            traj.append(state)
            next_snap += horizon / max_snapshots
        if amax[-1] >= amax_cap:
            stopped_by = "Amax_cap"
            break
        if qmin[-1] <= qmin_floor:
            stopped_by = "Qmin_floor"
            break
        dt = dt * min(max(0.85 * np.sqrt(target / max(err, 1e-18)), 0.2), 4.0)

    if traj[-1] is not state:
        traj.append(state)
    times = np.asarray(times)
    qmin_arr = np.asarray(qmin)
    diags = FlowDiagnostics(
        times=times,
        Hmax=np.asarray(hmax),
        Amax=np.asarray(amax),
        Qmin=qmin_arr,
        T_est=_estimate_T(times, qmin_arr),
        stopped_by=stopped_by,
    )
    return traj, diags


def discrete_steady(
    n: int, state: ProfileState, tol_rel: float = 1e-8
) -> ProfileState:
    """Newton-project a profile onto the discrete steady state with its BCs.

    The continuum minimal profile is only an O(h^2) approximation to the
    steady state of the discretized operator; projecting first lets tests
    separate spatial discretization error from time-integration drift.
    The default tolerance sits above the roundoff floor of the residual
    evaluation itself, which is eps * |Q| / h_min^2 from the Q'' stencil.
    """
    # every boundary that is not the axis holds the seed profile's value
    held = [bc if bc.kind == "axis" else BC("pinned") for bc in (state.inner_bc, state.outer_bc)]
    disc = _Discretization(n, state.r, *held)
    X = disc.newton(state.Q, state.t, None, tol_rel=tol_rel, max_iter=50)
    return replace(state, Q=X)


@dataclass(frozen=True)
class RescaledState:
    """Profile in self-similar variables: L(p, s) or q(rho, s)."""

    x: np.ndarray  # rescaled radius (p or rho)
    y: np.ndarray  # rescaled profile (L or q)
    s: float
    kind: str  # "inner" | "parabolic"


def _interp_profile(r: np.ndarray, Q: np.ndarray, r_new: np.ndarray) -> np.ndarray:
    from scipy.interpolate import CubicSpline

    if np.any(r_new < r[0] - 1e-12) or np.any(r_new > r[-1] + 1e-12):
        raise ValueError("rescaled grid asks for radii outside the snapshot")
    return CubicSpline(r, Q)(np.clip(r_new, r[0], r[-1]))


def to_inner(state: ProfileState, p: Params, p_grid=None) -> RescaledState:
    """Zoom at the curvature blow-up rate: L(p, s) = Lam Q(p/Lam, t).

    Lam = (T-t)^(-sigma_k-1/2); the fast time is s = (T-t)^(-2 sigma_k) /
    (2 sigma_k).  With the default grid p = Lam r the map is exact; an
    explicit p_grid interpolates cubically.
    """
    if state.t >= p.T:
        raise ValueError("snapshot time must precede the singular time")
    lam = blowup_scale(p, state.t)
    s = (p.T - state.t) ** (-2.0 * p.sigma_k) / (2.0 * p.sigma_k)
    if p_grid is None:
        return RescaledState(x=lam * state.r, y=lam * state.Q, s=s, kind="inner")
    p_grid = np.asarray(p_grid, dtype=float)
    Q_vals = _interp_profile(state.r, state.Q, p_grid / lam)
    return RescaledState(x=p_grid, y=lam * Q_vals, s=s, kind="inner")


def from_inner(res: RescaledState, p: Params, t: float, r_grid=None) -> ProfileState:
    """Invert to_inner at time t; exact on the native grid."""
    if res.kind != "inner":
        raise ValueError("from_inner expects an inner-rescaled state")
    lam = blowup_scale(p, t)
    if r_grid is None:
        return ProfileState(r=res.x / lam, Q=res.y / lam, t=t)
    r_grid = np.asarray(r_grid, dtype=float)
    y = _interp_profile(res.x, res.y, lam * r_grid)
    return ProfileState(r=r_grid, Q=y / lam, t=t)


def to_parabolic(state: ProfileState, p: Params, rho_grid=None) -> RescaledState:
    """Parabolic zoom q(rho, s) = Q(rho sqrt(T-t), t)/sqrt(T-t), s = -log(T-t)."""
    if state.t >= p.T:
        raise ValueError("snapshot time must precede the singular time")
    root = np.sqrt(p.T - state.t)
    s = -np.log(p.T - state.t)
    if rho_grid is None:
        return RescaledState(x=state.r / root, y=state.Q / root, s=s, kind="parabolic")
    rho_grid = np.asarray(rho_grid, dtype=float)
    Q_vals = _interp_profile(state.r, state.Q, rho_grid * root)
    return RescaledState(x=rho_grid, y=Q_vals / root, s=s, kind="parabolic")


def from_parabolic(res: RescaledState, p: Params, t: float, r_grid=None) -> ProfileState:
    if res.kind != "parabolic":
        raise ValueError("from_parabolic expects a parabolically rescaled state")
    root = np.sqrt(p.T - t)
    if r_grid is None:
        return ProfileState(r=res.x * root, Q=res.y * root, t=t)
    r_grid = np.asarray(r_grid, dtype=float)
    y = _interp_profile(res.x, res.y, r_grid / root)
    return ProfileState(r=r_grid, Q=y * root, t=t)


def fit_rate(times, values, T: float, window=None) -> RateFit:
    """Least-squares exponent of values ~ (T-t)^p over a window in T-t.

    Requires at least one decade of T-t inside the window; the residual of
    the log-log fit is reported alongside the exponent.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if T <= times.max():
        raise ValueError("T must exceed every sample time")
    tau = T - times
    if window is None:
        window = (float(tau.min()), float(tau.max()))
    if window[1] / window[0] < 10.0:
        raise WindowTooNarrow(
            f"rate window spans {window[1] / window[0]:.2f}x in T-t; need a decade"
        )
    return fit_power_law(tau, values, window=window)
