"""Radial curvature calculus for O(n)xO(n)-invariant hypersurfaces.

A hypersurface of this symmetry class in R^{2n} is the graph y = Q(|x|) of a
positive profile over the first factor.  In the orthonormal radial frame the
shape operator is diagonal with principal curvatures

    k_r     = Q'' / (1+Q'^2)^{3/2}          (radial direction, once)
    k_omega = Q' / (r sqrt(1+Q'^2))         ((n-1)-fold, first sphere)
    k_theta = -1 / (Q sqrt(1+Q'^2))         ((n-1)-fold, second sphere)

so H = k_r + (n-1)(k_omega + k_theta) and |A|^2 is the sum of squares with
the same multiplicities.  The curvature kernel is a pure function of 2-jets
of Q, pointwise or elementwise over arrays; callers decide whether jets come
from formulas or from finite differences.

This module also owns the finite-difference jets of a sampled profile: the
second-order 3-point stencil on a strictly increasing grid (one-sided at
the ends, symmetric at an axis node r = 0) and the array jets and
curvatures built on it.  The flow's discretization and the barrier checks
use these, so the stencil is written once.

Sign convention: the unit normal is (-Q' x/|x|, theta)/sqrt(1+Q'^2), so the
round sphere of radius R has H = -(2n-1)/R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def check_radii(r: np.ndarray, name: str) -> None:
    """Refuse sampled radii that are not finite and strictly increasing.

    Every comparison fails on a NaN, and once r increases its ends bound
    every node, so the ends alone decide finiteness.
    """
    if not ((r[1:] - r[:-1] > 0.0).all() and -np.inf < r[0] and r[-1] < np.inf):
        raise ValueError(f"{name} must be finite and strictly increasing")


@dataclass(frozen=True)
class ProfileJet:
    """Pointwise 2-jet (Q, Q', Q'') of a profile function at radius r."""

    r: float
    q: float
    q1: float
    q2: float

    def validate(self) -> None:
        for name, value in (("r", self.r), ("q", self.q), ("q1", self.q1), ("q2", self.q2)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {name}={value:g}")
        if self.q <= 0.0:
            raise ValueError(f"profile value must be positive, got Q={self.q:g}")
        if self.r < 0.0:
            raise ValueError(f"radius must be nonnegative, got r={self.r:g}")
        if self.r == 0.0 and self.q1 != 0.0:
            raise ValueError(
                "smoothness at the axis requires Q'(0) = 0, got "
                f"Q'(0)={self.q1:g}"
            )


@dataclass(frozen=True)
class CurvatureData:
    """Metric entry, second-fundamental-form entries, H and |A|^2 at a point.

    a_rr, a_omega, a_theta are the covariant entries of A in the block frame
    (radial, one omega-sphere direction with metric r^2, one theta-sphere
    direction with metric Q^2); g_rr = 1+Q'^2 is the radial metric entry.
    """

    g_rr: float
    a_rr: float
    a_omega: float
    a_theta: float
    H: float
    A2: float


def jet_curvature(n: int, r, q, q1, q2):
    """(H, |A|^2) from 2-jets, elementwise over scalars or arrays.

    At r = 0 the removable singularity Q'/r -> Q''(0) is taken, which is the
    only value consistent with smoothness (odd derivatives vanish there).
    """
    s = 1.0 + q1 * q1
    sq = np.sqrt(s)
    k_r = q2 / (s * sq)
    axis = r == 0.0
    if np.any(axis):
        k_omega = np.where(axis, q2 / sq, q1 / (np.where(axis, 1.0, r) * sq))
    else:
        k_omega = q1 / (r * sq)
    k_theta = -1.0 / (q * sq)
    H = k_r + (n - 1) * (k_omega + k_theta)
    A2 = k_r * k_r + (n - 1) * (k_omega * k_omega + k_theta * k_theta)
    return H, A2


def curvature(n: int, jet: ProfileJet) -> CurvatureData:
    """Mean curvature and |A|^2 from a validated profile 2-jet."""
    jet.validate()
    r, q, q1, q2 = jet.r, jet.q, jet.q1, jet.q2
    H, A2 = jet_curvature(n, r, q, q1, q2)
    s = 1.0 + q1 * q1
    sq = np.sqrt(s)
    return CurvatureData(
        g_rr=s,
        a_rr=q2 / sq,
        a_omega=q1 * r / sq,
        a_theta=-q / sq,
        H=float(H),
        A2=float(A2),
    )


def unit_normal(jet: ProfileJet) -> tuple[float, float]:
    """Components (radial, spherical) of the unit normal; unit length by construction."""
    sq = np.sqrt(1.0 + jet.q1 * jet.q1)
    return (-jet.q1 / sq, 1.0 / sq)


def normal_position(jet: ProfileJet) -> float:
    """Normal component of the position vector, (Q - r Q')/sqrt(1+Q'^2).

    On a minimal profile this is the positive kernel element of the Jacobi
    operator (the dilation field paired with the normal).
    """
    return (jet.q - jet.r * jet.q1) / np.sqrt(1.0 + jet.q1 * jet.q1)


def stencil_weights(r) -> np.ndarray:
    """Second-order 3-point weights for (Q', Q'') at every grid node.

    Returns w of shape (2, 3, N): Q'_i = sum_k w[0, k, i] Q_{s(i)+k} and
    likewise Q''_i with w[1], where the stencil of node i starts at
    s(i) = i-1 inside, at node 0 for the first node and at node N-3 for the
    last, where the formulas are one-sided.  At an axis node r[0] = 0 the
    profile is even, so Q'(0) = 0 and Q''(0) = 2 (Q1 - Q0)/h^2 instead.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or len(r) < 3:
        raise ValueError("stencils need a 1-d grid of at least 3 nodes")
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    a, b, c = hm * (hm + hp), hm * hp, hp * (hm + hp)
    w = np.empty((2, 3, len(r)))
    w[0, :, 1:-1] = -hp / a, (hp - hm) / b, hm / c
    w[1, :, 1:-1] = 2.0 / a, -2.0 / b, 2.0 / c
    # the end stencils differentiate the quadratic through the end nodes, so
    # Q'' there equals Q'' at the neighbouring interior node
    h0, h1 = hm[0], hp[0]
    w[0, :, 0] = -(2 * h0 + h1) / (h0 * (h0 + h1)), (h0 + h1) / (h0 * h1), -h0 / (h1 * (h0 + h1))
    w[1, :, 0] = w[1, :, 1]
    ha, hb = hm[-1], hp[-1]
    w[0, :, -1] = hb / (ha * (ha + hb)), -(ha + hb) / (ha * hb), (2 * hb + ha) / (hb * (ha + hb))
    w[1, :, -1] = w[1, :, -2]
    if r[0] == 0.0:
        w[:, :, 0] = (0.0, 0.0, 0.0), (-2.0 / h0**2, 2.0 / h0**2, 0.0)
    return w


def profile_jets(r, Q, w=None) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference (Q', Q'') at every node of a sampled profile.

    w, if given, must be stencil_weights(r); a caller that samples many
    profiles on one grid passes it to skip recomputing the weights.
    """
    Q = np.asarray(Q, dtype=float)
    values = np.empty((3, len(Q)))  # each node's stencil values, as in stencil_weights
    values[:, 1:-1] = Q[:-2], Q[1:-1], Q[2:]
    values[:, 0] = Q[:3]
    values[:, -1] = Q[-3:]
    if w is None:
        w = stencil_weights(r)
    q1, q2 = (w * values).sum(axis=1)
    return q1, q2


def profile_curvature(n: int, r, Q, w=None) -> tuple[np.ndarray, np.ndarray]:
    """(H, |A|^2) arrays of a sampled profile from its finite-difference jets.

    w is passed on to profile_jets: stencil_weights(r), or None to compute it.
    """
    r = np.asarray(r, dtype=float)
    Q = np.asarray(Q, dtype=float)
    return jet_curvature(n, r, Q, *profile_jets(r, Q, w))


def fd_jet(r, q, i: int) -> ProfileJet:
    """Second-order finite-difference 2-jet at interior node i of a sampled profile."""
    r = np.asarray(r, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (0 < i < len(r) - 1):
        raise ValueError("fd_jet needs an interior node")
    q1, q2 = stencil_weights(r[i - 1 : i + 2])[:, :, 1] @ q[i - 1 : i + 2]
    return ProfileJet(r=float(r[i]), q=float(q[i]), q1=float(q1), q2=float(q2))
