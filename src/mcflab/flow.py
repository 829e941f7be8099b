"""Profile-function mean curvature flow with rescalings and rate diagnostics.

The evolving unknown is the radial profile Q(r, t) of an O(n)xO(n)-invariant
hypersurface, obeying

    dQ/dt = Q''/(1+Q'^2) + (n-1) Q'/r - (n-1)/Q,

which is strictly parabolic while Q' stays bounded.  Space is discretized
with the second-order 3-point stencil of mcflab.geometry on an arbitrary
strictly increasing grid.  Each end either reflects or is held.  At a
reflecting (zero-flux) end the profile is even across the node, so Q' = 0
and Q'' = 2 (Q_nbr - Q_end)/h^2; where that end is the axis r = 0, the term
(n-1)Q'/r takes its symmetric limit (n-1)Q''(0).  A held (Dirichlet) end is
a fixed node whose value the boundary sets.
shrinking_cylinder and shrinking_sphere build the two exact shrinkers, the
oracles of the flow, with the singular time T as their only parameter.

Time stepping is one hand-written 3-stage Radau IIA step, the method of
radau5 (order 5, L-stable, stiffly accurate), on the analytically assembled
tridiagonal Jacobian: each stage iteration makes one stencil pass over the
three stages, held as one stacked (3, N) array, for F at all three and the
Jacobian at the last, then one real and one complex tridiagonal solve;
radau5's embedded estimate, whose local error shrinks like h^4, is one more
real solve with the same matrix and drives evolve()'s step size.  The
estimate reads F(Q) at the step's start: the step's first pass evaluates it
as row 0 of a (4, N) stack [Q; Y], and the step keeps it across its
retries, so only the first step's predictor evaluates F(Q) alone.  The step
builds its stage system in arrays allocated once per run.  As in radau5,
evolve() starts each step's stages from the last accepted step's
collocation polynomial, extrapolated, and stops the stage iteration once its
contraction rate bounds the error left in the stages (the rate of the first
iteration is the last step's, scaled by the step ratio), so most steps take
one stage iteration.
evolve() carries the accepted profile as a plain array and builds a
ProfileState only for a snapshot or the final state.
A Newton loop on the same Jacobian solves for the discrete steady state
(discrete_steady).  Every tridiagonal solve goes through solve_banded, a
direct call of LAPACK's ?gtsv (the routine scipy.linalg.solve_banded uses
for one band on each side) that turns a singular matrix or a non-finite
solution into NewtonDiverged.  The curvature diagnostics reuse the
discretization's stencil weights, so nothing grid-dependent is recomputed
per step, and evolve() computes them for stacks of accepted profiles, one
profile_curvature call per stack of at most _DIAG_BUDGET values; a profile
whose curvature a stop could read is evaluated as it is accepted.

Rescalings: the parabolic zoom (T-t)^{-1/2} exposes the Simons cone, the
inner zoom (T-t)^{-sigma_k-1/2} (the curvature blow-up rate) exposes the
minimal profile; both are pure changes of variables applied to snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv, zgtsv

from .errors import NewtonDiverged, QNonPositive, WindowTooNarrow
from .fitting import RateFit, fit_power_law
from .geometry import check_radii, profile_curvature, stencil_weights
from .params import Params, blowup_scale

# 3-stage Radau IIA, the method of radau5 (Hairer & Wanner, Solving ODEs II,
# IV.8): collocation at c = ((4 - sqrt 6)/10, (4 + sqrt 6)/10, 1), order 5 and
# stage order 3, L-stable and stiffly accurate (the new profile is the last stage)
_SQ6 = math.sqrt(6.0)
_C1, _C2 = (4.0 - _SQ6) / 10.0, (4.0 + _SQ6) / 10.0
_C = np.array([_C1, _C2, 1.0])
# inverse of the Butcher matrix A
_A_INV = np.array([
    [2.0 + _SQ6 / 2.0, -1.2 + 29.0 * _SQ6 / 30.0, 0.4 - 4.0 * _SQ6 / 15.0],
    [-1.2 - 29.0 * _SQ6 / 30.0, 2.0 - _SQ6 / 2.0, 0.4 + 4.0 * _SQ6 / 15.0],
    [-1.0 + 8.0 * _SQ6 / 3.0, -1.0 - 8.0 * _SQ6 / 3.0, 5.0],
])
# A^-1 = V diag(gamma, mu, conj mu) V^-1 (radau5's u1, alph + i beta), with
# V's columns v_1 and v_c, conj v_c scaled to end in 1: the coupled stage
# system splits into one real tridiagonal solve with gamma/h - J for
# w_1 = (V^-1 Z)_1 and one complex one with mu/h - J for w_c = (V^-1 Z)_2,
# and Z = v_1 w_1 + 2 Re(v_c w_c).  In real arithmetic, _W_RI maps Z to
# (w_1, Re w_c, Im w_c) and _V_RI maps those back to Z
_GAMMA = 3.637834252744495732
_MU = 2.681082873627752134 + 3.050430199247410569j
_W_RI = np.array([
    [4.178718591551904727, 0.3276828207610623871, 0.5233764454994495480],
    [-2.089359295775952364, -0.1638414103805311935, 0.2383117772502752260],
    [-0.2514363174728934380, 1.285963474927802715, -0.2980196024141124625],
])
_V_RI = np.array([
    [0.09443876248897524149, -0.2825105900419084168, -0.06005838821029484898],
    [0.2502131229653333114, 0.4082587045875998640, 0.7658842255145238756],
    [1.0, 2.0, 0.0],
])
# radau5's embedded estimate: (gamma/h - J)^-1 (F(Q) + _E . Z / h), whose
# local error shrinks like h^4
_E = np.array([-(13.0 + 7.0 * _SQ6) / 3.0, (-13.0 + 7.0 * _SQ6) / 3.0, -1.0 / 3.0])
# evolve stops the stage iteration at _STAGE_KAPPA * target * max(1, max|Q0|),
# or once the increment stops shrinking below 1e3 * _STAGE_FLOOR * max(1, max|Q|)
# (the roundoff floor of the stage solve)
_STAGE_KAPPA = 1e-2
_STAGE_FLOOR = 1e-14
# ... or once its contraction theta = d_k / d_(k-1) bounds the error left in
# the stages, theta / (1 - theta) * d <= tol (radau5's stop)
_STAGE_MAX_ITER = 20
# evolve's smallest target: there the stage tolerance _STAGE_KAPPA * target is
# already below the roundoff floor, so a smaller target buys only steps
_TARGET_FLOOR = 1e-10
# a step that still fails or misses target at h < _H_FLOOR * horizon raises
_H_FLOOR = 1e-12
# discrete_steady's Newton tolerance relative to max(1, max|Q|); the Q''
# stencil's roundoff floor eps max|Q| / h_min^2 passes it once h_min < 1.5e-4
_STEADY_TOL = 1e-8
# _estimate_T fits a line to Qmin^2 over the last _T_FIT_STEPS accepted steps
_T_FIT_STEPS = 12
# evolve computes the curvature of its accepted profiles in stacks of at most
# _DIAG_BUDGET values, one profile_curvature call per stack
_DIAG_BUDGET = 4096
# _safe_band keeps |A|^2 <= (1 + 2|n - 1|) (_K_SAFE / sqrt(1 + 2|n - 1|))^2 = 1e300
_K_SAFE = 1e150


@dataclass(frozen=True)
class BC:
    """Boundary rule of one end: "neumann0" reflects, "dirichlet" holds.

    A neumann0 end is even across its node (zero flux); at r = 0 it is the
    axis.  A dirichlet end is held at fn(t), or at its initial value when
    fn is None.
    """

    kind: str  # "neumann0" | "dirichlet"
    fn: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind not in ("neumann0", "dirichlet"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")


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
        self._check_profile()
        if not math.isfinite(self.t):
            raise ValueError(f"time t must be finite, got {self.t!r}")
        if self.inner_bc is None:
            self.inner_bc = BC("neumann0") if self.r[0] == 0.0 else BC("dirichlet")
        if self.outer_bc is None:
            self.outer_bc = BC("dirichlet")

    def _check_profile(self):
        """Refuse a grid or profile that no flow runs on; evolve repeats this,
        since a state is mutable."""
        r, Q = self.r, self.Q
        if r.shape != Q.shape or r.ndim != 1:
            raise ValueError("grid and profile must be matching 1-d arrays")
        check_radii(r, "grid r")
        if r[0] < 0.0:
            raise ValueError("radii must be nonnegative")
        # max propagates a NaN; -inf is left to the positivity check
        if not Q.max() < np.inf:
            raise ValueError("profile Q must be finite")
        if Q.min() <= 0.0:
            raise QNonPositive("profile must be positive everywhere")

    @classmethod
    def _on_grid_of(cls, state: ProfileState, Q: np.ndarray, t: float) -> ProfileState:
        """A state on the grid and BCs of `state`, built without the checks above.

        For evolve's snapshots: their grid is the validated initial one, and
        the step loop has already refused a non-positive profile and a
        non-finite solve.
        """
        new = object.__new__(cls)
        new.r, new.Q, new.t = state.r, Q, t
        new.inner_bc, new.outer_bc = state.inner_bc, state.outer_bc
        return new


def shrinking_cylinder(n: int, T: float, r) -> ProfileState:
    """The cylinder Q = sqrt(2(n-1)(T-t)) at t = 0, which reaches its axis at T.

    On the grid r, which starts at the axis r = 0; the outer end has zero flux.
    """
    r = np.asarray(r, dtype=float)
    return ProfileState(
        r=r, Q=np.full(r.size, math.sqrt(2.0 * (n - 1) * T)), t=0.0,
        inner_bc=BC("neumann0"), outer_bc=BC("neumann0"),
    )


def shrinking_sphere(n: int, T: float, r) -> ProfileState:
    """The sphere Q = sqrt(2(2n-1)(T-t) - r^2) at t = 0, which shrinks to a point at T.

    On the grid r, which starts at the axis r = 0; the outer end rmax = r[-1]
    carries the exact value sqrt(2(2n-1)(T-t) - rmax^2).  Raises ValueError
    unless 2(2n-1)T > rmax^2, the condition for a graph over [0, rmax].
    """
    r = np.asarray(r, dtype=float)
    c, rmax = 2.0 * (2 * n - 1), float(r[-1])
    if not c * T > rmax * rmax:
        raise ValueError(
            f"a sphere with T = {T:g} has no graph over [0, rmax = {rmax:g}]: "
            f"2(2n-1)T = {c * T:g} must exceed rmax^2 = {rmax * rmax:g}"
        )

    def edge(t):
        return math.sqrt(c * (T - t) - rmax * rmax)

    return ProfileState(
        r=r, Q=np.sqrt(c * T - r * r), t=0.0,
        inner_bc=BC("neumann0"), outer_bc=BC("dirichlet", fn=edge),
    )


def solve_banded(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonals dl, d, du.

    A direct call of LAPACK ?gtsv (Gaussian elimination with partial
    pivoting), the routine scipy.linalg.solve_banded runs for one band on
    each side, so the result is bit for bit the same, without scipy's
    per-call validation; zgtsv when the array d or b is complex.  A singular
    matrix or a non-finite solution raises NewtonDiverged.
    """
    gtsv = zgtsv if d.dtype.kind == "c" or b.dtype.kind == "c" else dgtsv
    x, info = gtsv(dl, d, du, b)[3:]
    if info > 0:
        raise NewtonDiverged(f"tridiagonal solve failed: zero pivot at row {info}")
    if not np.isfinite(x).all():
        raise NewtonDiverged("tridiagonal solve returned a non-finite solution")
    return x


class _Discretization:
    """Right-hand side and Jacobian of the semi-discrete flow on one grid and BC pair."""

    def __init__(self, n: int, r: np.ndarray, inner_bc: BC, outer_bc: BC):
        self.n = n
        self.r = r
        self.N = len(r)
        self.r_in = r[1:-1]
        self.w = stencil_weights(r)  # every node's, for profile_curvature
        # interior weights indexed (stencil point, derivative, node): one
        # pass over the three stencil points gives Q' and Q'' together
        w_in = self.w[:, :, 1:-1]
        self.w_pts = tuple(w_in)  # each stencil point's (derivative, node) weights
        # each derivative's (stencil point, node) weights, for the Jacobian
        self.w_q1, self.w_q2 = w_in[:, 0], w_in[:, 1]
        self.w1_r = (n - 1) * self.w_q1 / self.r_in  # Jacobian of (n-1) Q'/r
        ends = ((0, 1, inner_bc), (self.N - 1, self.N - 2, outer_bc))
        # held ends: (node, fn), values the boundary sets, not unknowns
        self.held = [(end, bc.fn) for end, _, bc in ends if bc.kind == "dirichlet"]
        self.fixed = [end for end, _ in self.held]
        # reflected ends: even across the end node, so Q' = 0 and
        # Q'' = 2 (Q_nbr - Q_end)/h^2; at the axis r = 0, (n-1) Q'/r -> (n-1) Q''
        self.reflected = [
            (end, nbr, n if r[end] == 0.0 else 1, (r[nbr] - r[end]) ** 2)
            for end, nbr, bc in ends if bc.kind == "neumann0"
        ]

    def _rhs(self, Q: np.ndarray):
        """F(Q) with the interior Q', Q'' and 1 + Q'^2 it is built from.

        The stencil acts along the last axis, so a stack of profiles (the
        stages of a Radau step, in its first pass below its start Q) takes
        one pass, and each row is bit for bit that profile's own evaluation.
        The sums accumulate in place, in the order of q2 / s + (n-1) q1 / r
        - (n-1) / Q, so that at most one temporary of the stack's size is
        alive beside the result.
        """
        n, (w0, w1, w2) = self.n, self.w_pts
        Qn = Q[..., None, :]  # broadcast against the derivative axis of w
        q = w0 * Qn[..., :-2]
        q += w1 * Qn[..., 1:-1]
        q += w2 * Qn[..., 2:]
        q1, q2 = q[..., 0, :], q[..., 1, :]
        s = q1 * q1
        s += 1.0
        F = np.zeros(Q.shape)
        F_in = F[..., 1:-1]
        np.divide(q2, s, out=F_in)
        F_in += (n - 1) * q1 / self.r_in
        F_in -= (n - 1) / Q[..., 1:-1]
        for end, nbr, m, h2 in self.reflected:
            F[..., end] = m * (2.0 * (Q[..., nbr] - Q[..., end]) / h2) - (n - 1) / Q[..., end]
        return F, q1, q2, s

    def rhs(self, Q: np.ndarray) -> np.ndarray:
        """Flow velocity F(Q), zero at held nodes."""
        return self._rhs(Q)[0]

    def rhs_jac(self, Q: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Flow velocity F(Q) and its tridiagonal Jacobian as (dl, d, du).

        dl, d and du are the sub-, main and super-diagonals that solve_banded
        takes.  Q may be a stack of profiles: F is every row's velocity, the
        Jacobian that of the last row, from copies of its Q', Q'' and
        1 + Q'^2, so that the stack's own are freed.  Rows of held nodes are
        left zero for the solver.
        """
        n, N = self.n, self.N
        F, q1, q2, s = self._rhs(Q)
        if Q.ndim > 1:
            Q, q1, q2, s = Q[-1], q1[-1].copy(), q2[-1].copy(), s[-1].copy()
        w1, w2 = self.w_q1, self.w_q2
        rows = w2 / s  # d F_i / d Q_{i-1, i, i+1}, summed in place
        rows -= 2.0 * q2 * q1 * w1 / s**2
        rows += self.w1_r
        dl, d, du = np.zeros(N - 1), np.zeros(N), np.zeros(N - 1)
        dl[:-1], du[1:] = rows[0], rows[2]
        d[1:-1] = rows[1] + (n - 1) / Q[1:-1] ** 2
        for end, nbr, m, h2 in self.reflected:
            d[end] = -2.0 * m / h2 + (n - 1) / Q[end] ** 2
            # the entry (end, nbr): du[0] at the inner end, dl[N - 2] at the outer
            (du if end < nbr else dl)[min(end, nbr)] = 2.0 * m / h2
        return F, (dl, d, du)

    def newton(self, Q0: np.ndarray, tol_rel: float, max_iter: int) -> np.ndarray:
        """Solve F(X) = 0 by Newton, holding the held nodes at Q0.

        Stops at max|F| <= tol_rel * max(1, max|Q0|), or once max|F| stops
        shrinking below the roundoff floor eps max(1, max|Q0|) / h_min^2.
        """
        X = Q0.copy()
        scale = max(1.0, float(np.max(np.abs(Q0))))
        tol = tol_rel * scale
        floor = np.finfo(float).eps * scale / float(np.diff(self.r).min()) ** 2
        res_prev = np.inf
        for _ in range(max_iter):
            if np.any(X <= 0.0) or not np.all(np.isfinite(X)):
                raise QNonPositive(
                    "profile lost positivity inside a Newton solve; no steady state is near"
                )
            G, (dl, d, du) = self.rhs_jac(X)
            G[self.fixed] = X[self.fixed] - Q0[self.fixed]
            d[self.fixed] = 1.0
            res = float(np.max(np.abs(G)))
            if res <= tol or res_prev <= res <= floor:
                return X
            res_prev = res
            X = X - solve_banded(dl, d, du, G)
        why = ("the tolerance sits below the grid's roundoff floor" if res <= floor
               else "the grid is likely under-resolving a forming pinch")
        raise NewtonDiverged(f"Newton stalled at residual {res:.3e} (tolerance {tol:.3e}, "
                             f"roundoff floor {floor:.3e}); {why}")


def _collocation_predictor(Z: np.ndarray, ratio: float) -> np.ndarray:
    """The last step's stage increments Z carried to a step ratio times as long.

    The collocation polynomial of the last step is the cubic through (0, 0)
    and (c_i, Z_i) in tau = (t - t_old)/h_old; evaluated at
    tau_i = 1 + c_i ratio, minus Z_3 (the new step starts at Q_old + Z_3).
    """
    c1, c2 = _C1, _C2
    # row i: the Lagrange basis polynomials of the nodes c_1, c_2 and 1 (of
    # the nodes 0, c_1, c_2, 1) at tau_i; the last, less 1, subtracts Z_3
    P = []
    for c in (c1, c2, 1.0):
        tau = 1.0 + c * ratio
        P.append([tau * (tau - c2) * (tau - 1.0) / (c1 * (c1 - c2) * (c1 - 1.0)),
                  tau * (tau - c1) * (tau - 1.0) / (c2 * (c2 - c1) * (c2 - 1.0)),
                  tau * (tau - c1) * (tau - c2) / ((1.0 - c1) * (1.0 - c2)) - 1.0])
    return np.array(P) @ Z


class _StepWork:
    """The arrays a run's Radau steps build their stage systems in, and F0.

    F0 is F(Q) of the profile the current step starts from, or None until a
    stage pass has evaluated it; it is kept across retries of the step.
    """

    def __init__(self, N: int, F0: np.ndarray):
        self.stack = np.empty((4, N))  # [Q; Q + Z_1; Q + Z_2; Q + Z_3]
        self.stages = self.stack[1:]
        self.w_c = np.empty(N, dtype=complex)  # the complex solve's right-hand side
        self.dW = np.empty((3, N))  # (w_1, Re w_c, Im w_c) of the stage solves
        self.F0 = F0


def _radau_step(
    disc: _Discretization, work: _StepWork, Q: np.ndarray, t: float, h: float, tol: float,
    last: tuple[np.ndarray, float, float] | None = None,
) -> tuple[np.ndarray, float, int, tuple[np.ndarray, float, float]]:
    """One 3-stage Radau IIA step of size h from (Q, t), in the arrays of work.

    Returns the new profile, the max-norm of the embedded error estimate,
    the number of stage iterations and this step's (Z, h, theta), which the
    next step takes as `last`.  The stage increments Z_i = Y_i - Q are
    predicted by extrapolating the collocation polynomial of `last`, or as
    c_i h F(Q) without one (work.F0 must then hold F(Q)); held nodes take
    their exact values.  They are iterated with the Jacobian of the last
    stage, rebuilt every iteration, until an increment d is at most tol, or
    the contraction theta of this step's last two increments (at the first
    iteration, the theta of `last` times h / h_last, as the contraction
    grows with the step) gives theta / (1 - theta) d <= tol, or d stops
    shrinking at the roundoff floor; an increment that stops shrinking
    above it, or a failed solve, raises NewtonDiverged.  The theta returned
    is this step's first contraction d_2 / d_1, or the scaled one of `last`
    after a single iteration: the iteration is Newton's, so its later
    contractions shrink with d and would promise the next step's first
    iteration too much.  Each iteration makes one stencil pass over the
    stages Y = Q + Z, stacked as (3, N), then one real and one complex
    tridiagonal solve.  While work.F0 is None the pass stacks Q on top,
    [Q; Y] as (4, N), and its row 0 becomes work.F0: each row is bit for
    bit the one-row evaluation, so F(Q) costs no pass of its own.  The
    error estimate, which reads F(Q), is one more real solve with the same
    matrix.
    """
    if last is None:
        Z, theta = np.outer(_C * h, work.F0), np.inf
    else:
        ratio = h / last[1]
        Z, theta = _collocation_predictor(last[0], ratio), last[2] * ratio
    carried = theta
    for i, fn in disc.held:
        Z[:, i] = 0.0 if fn is None else [fn(t + c * h) - Q[i] for c in _C]
    floor = 1e3 * _STAGE_FLOOR * max(1.0, float(np.abs(Q).max()))
    Y, w_c, dW = work.stages, work.w_c, work.dW
    d_prev = np.inf
    for it in range(1, _STAGE_MAX_ITER + 1):
        np.add(Q, Z, out=Y)
        # min > 0 fails on a NaN too, since the reduction propagates it
        if not (Y.min() > 0.0 and Y.max() < np.inf):
            raise QNonPositive(
                "profile lost positivity inside a stage solve; the step likely "
                "crossed the singular time"
            )
        if work.F0 is None:
            work.stack[0] = Q
            F, (sub, diag, sup) = disc.rhs_jac(work.stack)
            work.F0, R = F[0], F[1:]
        else:
            R, (sub, diag, sup) = disc.rhs_jac(Y)
        R -= _A_INV @ Z / h  # F(Y) - A^-1 Z / h
        for i in disc.fixed:
            R[:, i] = 0.0
        dl, d_real, du = -sub, _GAMMA / h - diag, -sup
        w = _W_RI @ R
        w_c.real, w_c.imag = w[1], w[2]
        dW[0] = solve_banded(dl, d_real, du, w[0])
        dwc = solve_banded(dl, _MU / h - diag, du, w_c)
        dW[1], dW[2] = dwc.real, dwc.imag
        dZ = _V_RI @ dW
        Z += dZ
        d = float(np.abs(dZ).max())
        if it > 1:
            theta = d / d_prev
            if it == 2:
                carried = theta
        if (d <= tol or d_prev <= d <= floor
                or theta < 1.0 and theta / (1.0 - theta) * d <= tol):
            break
        if d >= d_prev:
            raise NewtonDiverged(
                f"stage iteration stopped contracting at increment {d:.3e} "
                f"(tolerance {tol:.3e}); the step is too large for the grid"
            )
        d_prev = d
    else:
        raise NewtonDiverged(
            f"stage iteration stalled at increment {d:.3e} (tolerance {tol:.3e}); "
            "the grid is likely under-resolving a forming pinch"
        )
    est = work.F0 + _E @ Z / h
    for i in disc.fixed:
        est[i] = 0.0
    err = solve_banded(dl, d_real, du, est)
    return Q + Z[-1], float(np.abs(err).max()), it, (Z, h, carried)


@dataclass
class FlowDiagnostics:
    """Per-time curvature and pinch diagnostics plus a singular-time estimate.

    times, Hmax, Amax and Qmin hold the initial profile's max|H|, max|A| and
    min Q, then each accepted step's.  evolve computes max|H| and max|A| for
    stacks of accepted profiles; each entry is bit for bit the one profile's
    own.  The counters describe the work of the run; for one input they repeat
    exactly.  rejected counts the retried steps by cause: "error" (estimate
    above target), "NewtonDiverged" and "QNonPositive".  stage_iterations
    counts the iterations of every step whose stage solve converged,
    accepted or rejected for its error.  dt_min and dt_max span the
    accepted steps.
    """

    times: np.ndarray
    Hmax: np.ndarray
    Amax: np.ndarray
    Qmin: np.ndarray
    T_est: float | None
    stopped_by: str
    accepted: int
    rejected: dict[str, int]
    stage_iterations: int
    dt_min: float
    dt_max: float


def _estimate_T(times: np.ndarray, qmin: np.ndarray) -> float | None:
    """Extrapolate the zero of Qmin^2, which is linear in t for the shrinkers."""
    if len(times) < _T_FIT_STEPS or qmin[-1] >= 0.95 * qmin[0]:
        return None
    ts, ys = times[-_T_FIT_STEPS:], qmin[-_T_FIT_STEPS:] ** 2
    slope, intercept = np.polyfit(ts, ys, 1)
    if slope >= 0.0:
        return None
    return float(-intercept / slope)


def _safe_band(n: int, r: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """(lo, hi): a profile on r with lo <= Q <= hi has an |A|^2 that cannot overflow.

    w is stencil_weights(r).  |A|^2 <= (1 + 2|n - 1|) K^2 for K the largest
    of |Q''|, 1/r and 1/Q over the nodes (on the axis, k_omega is
    Q''/sqrt(1 + Q'^2)), and |Q''| <= max Q * max sum|w''|; in the band
    K <= _K_SAFE / sqrt(1 + 2|n - 1|), so |A|^2 <= 1e300.  The band is
    empty (lo > hi) when 1/r alone exceeds that bound.
    """
    k = _K_SAFE / math.sqrt(1 + 2 * abs(n - 1))
    r_pos = r[1] if r[0] == 0.0 else r[0]
    w2 = float(np.abs(w[:, 1]).sum(axis=0).max())
    return 1.0 / k, k / w2 if r_pos * k >= 1.0 else 0.0


def evolve(
    initial: ProfileState,
    n: int,
    horizon: float,
    target: float = 1e-8,
    max_snapshots: int = 200,
    *,
    Amax_cap: float = math.inf,
    Qmin_floor: float = 0.0,
) -> tuple[list[ProfileState], FlowDiagnostics]:
    """Run the flow to t0 + horizon with adaptive 3-stage Radau IIA steps.

    Every accepted step keeps its embedded error estimate at most `target`,
    in max-norm relative to max(1, max|Q0|); a step that misses it is
    retried smaller, and one that still misses it, or fails, below
    1e-12 * horizon raises (NewtonDiverged or QNonPositive).  Steps land
    exactly on the snapshot times np.linspace(t0, t0 + horizon,
    max_snapshots + 1)[1:], so each snapshot is a true step; each is a
    ProfileState that shares the initial state's grid and BCs and is not
    validated again.  Diagnostics hold one entry per accepted step, and
    count the steps and stage iterations.  An accepted step with
    max|A| >= Amax_cap or min Q <= Qmin_floor ends the run early, and
    diagnostics.stopped_by names the stop.  max|H| and max|A| are computed
    for a stack of accepted profiles once it holds _DIAG_BUDGET values, and
    at the end of the run; under a finite Amax_cap, and for a profile whose
    |A|^2 might overflow (only that reaches the infinite cap), as the
    profile is accepted, so the stop trips on the step that reaches the cap.
    A horizon that is not finite and positive, a target below 1e-10 (the
    stage iteration would stop at its roundoff floor) or max_snapshots < 1
    raises ValueError, as do a non-finite initial time and snapshot times
    that do not strictly increase from it in floating point.  A state is
    mutable, so the checks of its construction run again on its grid and
    profile before any step, and raise what they raise there.
    """
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if not target >= _TARGET_FLOOR:
        raise ValueError(f"target must be >= {_TARGET_FLOOR:g}, got {target!r}")
    if max_snapshots < 1:
        raise ValueError(f"max_snapshots must be >= 1, got {max_snapshots!r}")
    # a state is mutable, so it is checked again here
    if not math.isfinite(initial.t):
        raise ValueError(f"initial time t must be finite, got {initial.t!r}")
    initial._check_profile()
    marks = np.linspace(initial.t, initial.t + horizon, max_snapshots + 1)
    # no step can land on a snapshot time that roundoff merged with the one before
    if not (marks[1:] > marks[:-1]).all():
        raise ValueError(
            f"snapshot times do not increase from t0 = {initial.t:.17g}: horizon = "
            f"{horizon:g} over max_snapshots = {max_snapshots} is below the time "
            "resolution there"
        )
    snap_times = marks[1:]
    disc = _Discretization(n, initial.r, initial.inner_bc, initial.outer_bc)
    scale = max(1.0, float(np.max(np.abs(initial.Q))))
    tol = _STAGE_KAPPA * target * scale

    # the accepted profile and time travel as a plain array and number
    Q, t = initial.Q, initial.t
    traj = [initial]
    times, hmax, amax, qmin = [t], [], [], [float(Q.min())]
    pending = [Q]  # accepted profiles whose curvature is not computed yet
    rejected = {"error": 0, "NewtonDiverged": 0, "QNonPositive": 0}
    iterations, dts = 0, []

    # only an |A|^2 that overflows reaches the infinite cap: under it a
    # profile inside the safe band waits for a full stack of `rows` profiles,
    # and under any other cap each is evaluated as it is accepted
    q_lo, q_hi = _safe_band(n, disc.r, disc.w)
    rows = max(1, _DIAG_BUDGET // disc.N) if Amax_cap == math.inf and q_lo <= q_hi else 1

    def record_curvature():
        # a lone profile is viewed as a stack of one, not copied
        stack = pending[0][None] if len(pending) == 1 else np.stack(pending)
        H, A2 = profile_curvature(n, disc.r, stack, w=disc.w)
        hmax.extend(np.abs(H).max(axis=1).tolist())
        # sqrt is monotone and correctly rounded: the max of the square roots
        amax.extend(np.sqrt(A2.max(axis=1)).tolist())
        pending.clear()

    stopped_by = "horizon"
    h = horizon / 1000.0
    # the first step's predictor c_i h F(Q) needs F(Q) before any stage pass;
    # every later step takes it from its first stage pass
    work = _StepWork(disc.N, disc.rhs(Q))
    last = None  # the last accepted step's (Z, h, theta), for the next predictor
    k = 0
    while k < max_snapshots:
        # land on the next snapshot, stretching the step by up to 10 %
        # rather than leaving a sliver before it
        lands = t + 1.1 * h >= snap_times[k]
        h_try = snap_times[k] - t if lands else h
        failure = None
        try:
            X, err, its, stages = _radau_step(disc, work, Q, t, h_try, tol, last)
            iterations += its
            err /= scale
            X_min = float(X.min())
            if X_min <= 0.0:
                raise QNonPositive("step lost positivity")
        except (NewtonDiverged, QNonPositive) as exc:
            failure, err = exc, np.inf
        # the estimate's local error shrinks like h^4
        fac = 0.9 * (target / max(err, 1e-18)) ** 0.25
        if not err <= target:
            rejected[type(failure).__name__ if failure else "error"] += 1
            h = h_try * max(fac, 0.2)
            if h < _H_FLOOR * horizon:
                raise failure or NewtonDiverged(
                    f"step error {err:.2e} still above target {target:g} at "
                    f"dt = {h_try:.2e}, t = {t:.17g}"
                )
            continue
        Q, t, last = X, snap_times[k] if lands else t + h_try, stages
        work.F0 = None
        dts.append(h_try)
        times.append(t)
        qmin.append(X_min)
        pending.append(Q)
        if len(pending) >= rows or not (q_lo <= X_min and Q.max() <= q_hi):
            record_curvature()
        if lands:
            traj.append(ProfileState._on_grid_of(initial, Q, t))
            k += 1
        # only a profile whose curvature was just computed can reach the cap
        if not pending and amax[-1] >= Amax_cap:
            stopped_by = "Amax_cap"
            break
        if qmin[-1] <= Qmin_floor:
            stopped_by = "Qmin_floor"
            break
        # a step clipped onto a snapshot does not shrink the next one
        h = max(h if lands else 0.0, h_try * min(fac, 4.0))

    if pending:
        record_curvature()
    # the loop ends on an accepted step: a snapshot unless a stop tripped
    if not lands:
        traj.append(ProfileState._on_grid_of(initial, Q, t))
    times = np.asarray(times)
    qmin_arr = np.asarray(qmin)
    diags = FlowDiagnostics(
        times=times,
        Hmax=np.asarray(hmax),
        Amax=np.asarray(amax),
        Qmin=qmin_arr,
        T_est=_estimate_T(times, qmin_arr),
        stopped_by=stopped_by,
        accepted=len(dts),
        rejected=rejected,
        stage_iterations=iterations,
        dt_min=min(dts),
        dt_max=max(dts),
    )
    return traj, diags


def discrete_steady(n: int, state: ProfileState) -> ProfileState:
    """Newton-project a profile onto the discrete steady state with its BCs.

    The continuum minimal profile is only an O(h^2) approximation to the
    steady state of the discretized operator; projecting first lets tests
    separate spatial discretization error from time-integration drift.
    """
    # an end at the axis keeps its rule; every other end holds the seed's value
    inner = state.inner_bc if state.r[0] == 0.0 else BC("dirichlet")
    disc = _Discretization(n, state.r, inner, BC("dirichlet"))
    X = disc.newton(state.Q, _STEADY_TOL, max_iter=50)
    return replace(state, Q=X)


@dataclass(frozen=True)
class RescaledState:
    """Profile in self-similar variables: L(p, s) or q(rho, s)."""

    x: np.ndarray  # rescaled radius (p or rho)
    y: np.ndarray  # rescaled profile (L or q)
    s: float


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
        return RescaledState(x=lam * state.r, y=lam * state.Q, s=s)
    p_grid = np.asarray(p_grid, dtype=float)
    Q_vals = _interp_profile(state.r, state.Q, p_grid / lam)
    return RescaledState(x=p_grid, y=lam * Q_vals, s=s)


def to_parabolic(state: ProfileState, p: Params, rho_grid=None) -> RescaledState:
    """Parabolic zoom q(rho, s) = Q(rho sqrt(T-t), t)/sqrt(T-t), s = -log(T-t)."""
    if state.t >= p.T:
        raise ValueError("snapshot time must precede the singular time")
    root = np.sqrt(p.T - state.t)
    s = -np.log(p.T - state.t)
    if rho_grid is None:
        return RescaledState(x=state.r / root, y=state.Q / root, s=s)
    rho_grid = np.asarray(rho_grid, dtype=float)
    Q_vals = _interp_profile(state.r, state.Q, rho_grid * root)
    return RescaledState(x=rho_grid, y=Q_vals / root, s=s)


def fit_rate(times, values, T: float, window=None) -> RateFit:
    """Least-squares exponent of values ~ (T-t)^p over a window in T-t.

    Requires at least one decade of T-t inside the window; the residual of
    the log-log fit is reported alongside the exponent.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if not T > times.max():  # a NaN T fails too
        raise ValueError(f"T must exceed every sample time, got T = {T!r}")
    tau = T - times
    if window is None:
        window = (float(tau.min()), float(tau.max()))
    if window[1] / window[0] < 10.0:
        raise WindowTooNarrow(
            f"rate window spans {window[1] / window[0]:.2f}x in T-t; need a decade"
        )
    return fit_power_law(tau, values, window=window)
