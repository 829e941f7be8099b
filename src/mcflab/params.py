"""Closed-form constants for the O(n)xO(n) singularity model.

For dimension parameter n (hypersurface of dimension 2n-1 in R^{2n}) and
eigenmode k, everything downstream is controlled by a handful of constants:

    alpha      decay exponent of the minimal-surface tail, the negative root
               closest to zero of  s^2 + (2n-3) s + 2(n-1) = 0
    alpha_-    the other (more negative) root
    lambda_k   (alpha - 1)/2 + k, the eigenvalue selecting the mode
    sigma_k    lambda_k / (1 + |alpha|), exponent of the curvature blow-up
               rate (T-t)^(-sigma_k - 1/2)
    mu         sqrt(1/4 + (n-1)(n-4)), order of the Bessel operator that the
               cone Jacobi flow transforms into

All are cheap closed forms, recomputed on every call rather than cached.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass


@dataclass(frozen=True)
class Params:
    """Derived constants for one (n, k) pair plus the singular time T."""

    n: int
    k: int
    alpha: float
    alpha_plus: float
    alpha_minus: float
    lambda_k: float
    sigma_k: float
    mu: float
    T: float = 1.0

    @property
    def abs_alpha(self) -> float:
        return -self.alpha


def tail_roots(n: int) -> tuple[float, float]:
    """(alpha_+, alpha_-), the roots of s^2 + (2n-3) s + 2(n-1) = 0.

    The indicial equation of the cone's Jacobi operator at infinity; alpha_+
    is the tail exponent alpha.  alpha_- = (-(2n-3) - sqrt(disc))/2 adds two
    negatives; alpha_+ is 2(n-1)/alpha_- (Vieta), because the quadratic
    formula's -(2n-3) + sqrt(disc) cancels (3.4e-15 relative at n = 63).
    """
    alpha_minus = 0.5 * (-(2 * n - 3) - math.sqrt((2 * n - 3) ** 2 - 8 * (n - 1)))
    return 2.0 * (n - 1) / alpha_minus, alpha_minus


def _alpha_forms(n: int) -> tuple[float, float]:
    # alpha_+ by Vieta (tail_roots) and by the textbook quadratic formula:
    # two different computations, so a transcription slip in either shows.
    b, c = 2 * n - 3, 2 * (n - 1)
    return tail_roots(n)[0], 0.5 * (-b + math.sqrt(b * b - 4 * c))


def derive_constants(n: int, k: int, T: float = 1.0) -> Params:
    """Compute all derived constants for integers n >= 4, k >= 2."""
    if n < 4:
        raise ValueError(f"dimension parameter n must be >= 4, got {n}")
    if k < 2:
        raise ValueError(f"eigenmode k must be >= 2, got {k}")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"singular time T must be positive and finite, got {T}")

    a1, a2 = _alpha_forms(n)
    if abs(a1 - a2) > 1e-12:
        raise ArithmeticError(
            f"the two closed forms of alpha disagree at n={n}: {a1!r} vs {a2!r}"
        )
    alpha = a1
    alpha_minus = tail_roots(n)[1]
    lambda_k = (alpha - 1.0) / 2.0 + k
    sigma_k = lambda_k / (1.0 + abs(alpha))
    mu = math.sqrt(0.25 + (n - 1) * (n - 4))
    if abs((mu + 0.5) - (n - 1 + alpha)) > 1e-12:
        raise ArithmeticError(
            f"cross identity mu + 1/2 = n - 1 + alpha fails at n={n}"
        )
    return Params(
        n=n,
        k=k,
        alpha=alpha,
        alpha_plus=alpha,
        alpha_minus=alpha_minus,
        lambda_k=lambda_k,
        sigma_k=sigma_k,
        mu=mu,
        T=float(T),
    )


@dataclass(frozen=True)
class ExponentCondition:
    """Result of the mode-admissibility inequality for a weight exponent a."""

    a: float
    value: float
    admissible: bool


def exponent_condition(p: Params, a: float) -> ExponentCondition:
    """Evaluate lambda_k (1 - a/(1+|alpha|)) - 1/2 and its sign.

    The inequality gates the weighted mean-curvature bound; a is meant to
    lie in (|alpha|, |alpha|+1).  Values outside that window are allowed but
    draw a warning since the verdict then has no meaning; a non-finite a
    is refused.
    """
    if not math.isfinite(a):
        raise ValueError(f"weight exponent a must be finite, got {a}")
    abs_alpha = p.abs_alpha
    if not (abs_alpha < a < abs_alpha + 1.0):
        warnings.warn(
            f"weight exponent a={a:g} outside the admissible window "
            f"({abs_alpha:g}, {abs_alpha + 1.0:g})",
            stacklevel=2,
        )
    value = p.lambda_k * (1.0 - a / (1.0 + abs_alpha)) - 0.5
    return ExponentCondition(a=float(a), value=float(value), admissible=bool(value >= 0.0))


def admissible_window_exists(p: Params) -> bool:
    """Whether some a in (|alpha|, |alpha|+1) satisfies the exponent condition.

    The condition value lambda_k (1 - a/(1+|alpha|)) - 1/2 is affine and
    decreasing in a (lambda_k > 0 for k >= 2), so its supremum over the open
    window is the left-edge limit lambda_k/(1+|alpha|) - 1/2 = sigma_k - 1/2,
    which is not attained: a window exists exactly when sigma_k > 1/2.
    """
    return p.sigma_k > 0.5


def blowup_scale(p: Params, t: float) -> float:
    """Second-fundamental-form blow-up rate (T-t)^(-sigma_k - 1/2)."""
    if t >= p.T:
        raise ValueError(f"t={t:g} must be strictly below the singular time T={p.T:g}")
    return (p.T - t) ** (-(p.sigma_k + 0.5))
