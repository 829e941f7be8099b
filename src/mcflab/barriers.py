"""Supersolution barriers for the perturbation from the Simons cone.

Writing v = Q - r for a profile staying above the cone, v solves

    dv/dt = v_rr/(1+Q_r^2) + (n-1) v_r / r + (n-1) v / r^2
            - (n-1)/r [ 1/(1+v/r) - 1 + v/r ],

and the final bracket is nonnegative for v >= 0 (convexity of x -> 1/(1+x)),
so supersolutions of the linear part dominate.  The operator
beta d_rr + (n-1) d_r / r + (n-1) / r^2 sends r^p to sigma_beta(p) r^{p-2},
with the symbol sigma_beta(p) = beta p (p-1) + (n-1) p + (n-1)
(`power_symbol`).  The explicit barrier

    v+(r, t) = C0 r^{2 lam + 1} - C1 (T-t) r^{2 lam - 1},
    C1 = sigma_1(2 lam + 1) C0,

is a supersolution wherever it is positive, uniformly over the unknown
coefficient 1/(1+Q_r^2) in (0, 1].  The residual evaluator here sweeps that
coefficient over its worst cases rather than assuming knowledge of Q_r,
mirroring how the barrier is actually used.

The remaining checks are empirical: the maximum principle for Q_r on the
parabolic-outer overlap (valid once Q >= r, which makes the zeroth-order
coefficient 1/Q^2 - 1/r^2 nonpositive), and the resulting mean curvature
bound through |H| <= |v_rr| + (n-1)|v_r|/r + (n-1)/r |1/(1+v/r) - 1|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConePrerequisiteFailed, HypothesisFailed, SampleOutsideValidity
from .flow import ProfileState
from .geometry import jet_curvature, profile_jets
from .params import Params


@dataclass(frozen=True)
class Supersolution:
    """Explicit barrier v+ = C0 r^{2 lam+1} - C1 (T-t) r^{2 lam-1}."""

    p: Params
    C0: float
    C1: float

    @property
    def lam(self) -> float:
        return self.p.lambda_k

    def value(self, r, t):
        r = np.asarray(r, dtype=float)
        lam = self.lam
        return self.C0 * r ** (2 * lam + 1) - self.C1 * (self.p.T - t) * r ** (
            2 * lam - 1
        )

    def validity_radius(self, t) -> np.ndarray:
        """v+ > 0 exactly for r beyond sqrt(C1 (T-t) / C0)."""
        t = np.asarray(t, dtype=float)
        return np.sqrt(self.C1 * (self.p.T - t) / self.C0)


def power_symbol(n: int, p, beta):
    """beta p (p-1) + (n-1) p + (n-1): the operator's symbol on a power of r.

    beta d_rr + (n-1) d_r / r + (n-1) / r^2 sends r^p to power_symbol * r^{p-2}.
    """
    return beta * p * (p - 1) + (n - 1) * p + (n - 1)


def bracket_constant(n: int, lam: float) -> float:
    """The C1/C0 ratio: the symbol at beta = 1 on r^{2 lam + 1}."""
    return power_symbol(n, 2 * lam + 1, 1.0)


def residual_samples(s: Supersolution, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 2) rows of (r, t) inside the positivity region of v+.

    t is uniform on [0, (1 - 1e-3) T), drawn first; r is the validity radius
    at t times 1 + U(0.01, 50).
    """
    ts = rng.uniform(0.0, s.p.T * (1.0 - 1e-3), count)
    rs = s.validity_radius(ts) * (1.0 + rng.uniform(1e-2, 50.0, count))
    return np.column_stack([rs, ts])


def supersolution(p: Params, C0: float) -> Supersolution:
    if not (math.isfinite(C0) and C0 > 0.0):
        raise ValueError(f"C0 must be positive and finite, got {C0}")
    bracket = bracket_constant(p.n, p.lambda_k)
    C1 = float(bracket * C0)
    if not math.isfinite(C1):
        raise ValueError(f"C0 = {C0:g} is too large: C1 = {bracket:g} C0 overflows")
    return Supersolution(p=p, C0=float(C0), C1=C1)


def domination_constant(s: Supersolution, gamma: float) -> float:
    """C_bar = C0 - C1/gamma^2, which v+ dominates on r >= gamma sqrt(T-t).

    C1/gamma/gamma tends to 0 for a huge gamma; a gamma so small that it
    overflows is refused.
    """
    c_bar = s.C0 - s.C1 / gamma / gamma
    if not math.isfinite(c_bar):
        raise ValueError(f"gamma = {gamma:g} is too small: C_bar = C0 - C1/gamma^2 overflows")
    return c_bar


def domination_margin(s: Supersolution, gamma: float, r, t) -> float:
    """min of v+ - C_bar r^{2 lam + 1} over the samples (r, t).

    On r >= gamma sqrt(T-t) the barrier dominates C_bar r^{2 lam + 1} with
    C_bar = domination_constant(s, gamma), so the margin is nonnegative up to
    roundoff there.
    """
    r = np.asarray(r, dtype=float)
    c_bar = domination_constant(s, gamma)
    return float(np.min(s.value(r, t) - c_bar * r ** (2 * s.lam + 1)))


def supersolution_residual(s: Supersolution, Qr_bound: float, samples) -> float:
    """Minimum of the linear-operator residual over samples and coefficient sweep.

    residual(beta) = d_t v+ - (beta v+_rr + (n-1) v+_r / r + (n-1) v+ / r^2)
    with beta = 1/(1+Q_r^2) swept over the worst cases {1/(1+M^2), 1}, the
    first 0 (its limit) for a huge M;
    the barrier construction guarantees the result is >= 0 on its validity
    region for every beta in (0, 1].  One minimum over both beta keeps a NaN
    residual NaN.
    """
    if not (math.isfinite(Qr_bound) and Qr_bound >= 1.0):
        raise ValueError(
            f"Qr_bound must be finite and at least 1 (the cone slope), got {Qr_bound}"
        )
    samples = np.asarray(samples, dtype=float)
    r, t = samples[:, 0], samples[:, 1]
    if np.any(s.value(r, t) <= 0.0):
        raise SampleOutsideValidity(
            "residual samples must lie inside the positivity region of v+"
        )
    n, lam = s.p.n, s.lam
    T = s.p.T
    beta = np.array([[1.0 / (1.0 + Qr_bound * Qr_bound)], [1.0]])  # one row per beta
    res = (
        s.C1 * r ** (2 * lam - 1)
        + s.C1 * (T - t) * r ** (2 * lam - 3) * power_symbol(n, 2 * lam - 1, beta)
        - s.C0 * r ** (2 * lam - 1) * power_symbol(n, 2 * lam + 1, beta)
    )
    return float(np.min(res))


def convexity_reduction_check(ratios) -> bool:
    """Pointwise check of 1/(1+x) - 1 + x >= 0 for x = v/r >= 0."""
    x = np.asarray(ratios, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("the convexity reduction applies to nonnegative v/r only")
    bracket = 1.0 / (1.0 + x) - 1.0 + x
    return bool(np.all(bracket >= 0.0))


@dataclass(frozen=True)
class GradientBoundReport:
    """max |Q_r| over the interior of the overlap region and its parabolic boundary."""

    interior_max: float
    boundary_max: float
    region: tuple[float, float]  # (Gamma, Upsilon)


def _omega_mask(r: np.ndarray, t: float, Gamma: float, Upsilon: float, T: float):
    return (r > Gamma * np.sqrt(T - t)) & (r < Upsilon * np.sqrt(T))


def gradient_bound_check(
    traj: list[ProfileState], Gamma: float, Upsilon: float, T: float
) -> GradientBoundReport:
    """Empirical maximum principle for Q_r on {Gamma sqrt(T-t) < r < Upsilon sqrt(T)}.

    The sign argument needs Q >= r throughout the region, so that is checked
    first; the report then compares the interior sup of |Q_r| against the
    sup over the parabolic boundary (initial time, moving inner edge, fixed
    outer edge).
    """
    if not traj:
        raise ValueError("empty trajectory")
    t0 = traj[0].t
    interior = 0.0
    boundary = 0.0
    seen = False
    for state in traj:
        mask = _omega_mask(state.r, state.t, Gamma, Upsilon, T)
        if not np.any(mask):
            continue
        if np.min(state.Q[mask] - state.r[mask]) < 0.0:
            raise ConePrerequisiteFailed(
                f"Q >= r fails inside the region at t={state.t:g}; the "
                "coefficient sign argument needs the profile above the cone"
            )
        seen = True
        q1, _ = profile_jets(state.r, state.Q)
        aq = np.abs(q1)
        if state.t == t0:
            boundary = max(boundary, float(aq[mask].max()))
            continue
        # moving inner edge and fixed outer edge, located by interpolation
        r_in = Gamma * np.sqrt(T - state.t)
        r_out = Upsilon * np.sqrt(T)
        for r_edge in (r_in, r_out):
            if state.r[0] <= r_edge <= state.r[-1]:
                boundary = max(boundary, float(np.interp(r_edge, state.r, aq)))
        # interior: the open region, strictly between the two edges
        interior = max(interior, float(aq[mask].max()))
    if not seen:
        raise ValueError("trajectory never intersects the overlap region")
    return GradientBoundReport(
        interior_max=interior, boundary_max=boundary, region=(Gamma, Upsilon)
    )


@dataclass(frozen=True)
class HBoundReport:
    """Empirical mean curvature bound over the late-time overlap window."""

    sup_H: float
    sup_chain: float
    window_t: tuple[float, float]
    samples: int


def h_bound_report(
    traj: list[ProfileState],
    Gamma: float,
    Upsilon: float,
    C0: float,
    p: Params,
) -> HBoundReport:
    """sup |H| and the term-by-term bound chain on the corollary window.

    Window: 15/16 T < t < T and 2 sqrt(2) Gamma sqrt(T-t) < r < Gamma sqrt(T).
    Hypotheses checked first on the larger region r >= Gamma sqrt(T-t),
    r <= Upsilon sqrt(T): 0 <= v <= C0 r^{2 lam + 1}.  The chain evaluates
    |v_rr| + (n-1)|v_r|/r + (n-1)/r |1/(1+v/r) - 1| pointwise, which bounds
    |H| whenever the hypotheses hold.
    """
    T, n, lam = p.T, p.n, p.lambda_k
    sup_H = 0.0
    sup_chain = 0.0
    count = 0
    t_lo, t_hi = np.inf, -np.inf
    for state in traj:
        t = state.t
        hyp_mask = (state.r >= Gamma * np.sqrt(T - t)) & (
            state.r <= Upsilon * np.sqrt(T)
        )
        if np.any(hyp_mask):
            v = state.Q[hyp_mask] - state.r[hyp_mask]
            if np.min(v) < 0.0:
                raise HypothesisFailed(
                    f"v >= 0 fails at t={t:g} inside r >= Gamma sqrt(T-t)"
                )
            cap = C0 * state.r[hyp_mask] ** (2 * lam + 1)
            if np.any(v > cap):
                raise HypothesisFailed(
                    f"v <= C0 r^(2 lam + 1) fails at t={t:g}; raise C0 or shrink the region"
                )
        if not (t > 15.0 / 16.0 * T):
            continue
        mask = _omega_mask(state.r, t, 2.0 * np.sqrt(2.0) * Gamma, Gamma, T)
        if not np.any(mask):
            continue
        q1, q2 = profile_jets(state.r, state.Q)
        H, _ = jet_curvature(n, state.r, state.Q, q1, q2)
        chain = _bound_chain(n, state.r, state.Q - state.r, q1 - 1.0, q2)
        sup_H = max(sup_H, float(np.abs(H[mask]).max()))
        sup_chain = max(sup_chain, float(chain[mask].max()))
        count += int(mask.sum())
        t_lo, t_hi = min(t_lo, t), max(t_hi, t)
    if count == 0:
        raise ValueError("no trajectory samples in the corollary window")
    return HBoundReport(
        sup_H=sup_H, sup_chain=sup_chain, window_t=(t_lo, t_hi), samples=count
    )


def _bound_chain(n: int, r, v, v_r, v_rr):
    """|v_rr| + (n-1)|v_r|/r + (n-1)/r |1/(1+v/r) - 1|, which bounds |H| under the hypotheses."""
    return (
        np.abs(v_rr)
        + (n - 1) * np.abs(v_r) / r
        + (n - 1) / r * np.abs(1.0 / (1.0 + v / r) - 1.0)
    )
