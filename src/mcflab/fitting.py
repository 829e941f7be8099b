"""Power-law exponent estimation by log-log least squares.

Every asymptotic claim in this package (profile tails, generalized-kernel
growth, heat-kernel decay, blow-up rates) is checked the same way: fit
log|y| against log x over a stated window and report slope, intercept and
residual.  The residual is always carried along so a bad fit cannot pass
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowTooNarrow


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit y ~ exp(intercept) * x**exponent."""

    exponent: float
    intercept: float
    window: tuple[float, float]
    resid: float
    npoints: int

    @property
    def coefficient(self) -> float:
        return float(np.exp(self.intercept))


def fit_power_law(x, y, window=None, min_points: int = 5) -> RateFit:
    """Fit log y = exponent * log x + intercept over x in ``window``.

    ``y`` must be strictly positive on the window (take abs upstream if a
    signed quantity is being fitted).  ``resid`` is the RMS residual of the
    log-log fit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if window is None:
        window = (float(x.min()), float(x.max()))
    lo, hi = float(window[0]), float(window[1])
    mask = (x >= lo) & (x <= hi)
    if mask.sum() < min_points:
        raise WindowTooNarrow(
            f"power-law window [{lo:g}, {hi:g}] holds {int(mask.sum())} samples, "
            f"need at least {min_points}"
        )
    xs, ys = x[mask], y[mask]
    if np.any(ys <= 0.0):
        raise ValueError("fit_power_law needs strictly positive y on the window")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return RateFit(float(slope), float(intercept), (lo, hi), resid, int(mask.sum()))


def last_decade_window(x) -> tuple[float, float]:
    """Window spanning the top decade of a positive, increasing sample set."""
    x = np.asarray(x, dtype=float)
    hi = float(x.max())
    return (hi / 10.0, hi)


def two_node_exponent(dlog_x: float, y0: float, y1: float) -> float | None:
    """Exponent p of the power law through two samples, log|y1/y0| / dlog_x.

    dlog_x is log(x1/x0).  Returns None when y0 and y1 differ in sign or
    either is zero, where no power law passes through both.
    """
    if not (y0 > 0.0 and y1 > 0.0 or y0 < 0.0 and y1 < 0.0):
        return None
    ratio = y1 / y0
    if not 0.0 < ratio < math.inf:  # the quotient under- or overflowed
        return (math.log(abs(y1)) - math.log(abs(y0))) / dlog_x
    return float(np.log(ratio) / dlog_x)


def log_spline(log_x, y):
    """Interpolant of samples y taken at log_x = log x, evaluated at log x.

    One-signed data is interpolated as sign * exp of a cubic spline of log|y|
    (exact on powers of x, and odd in y); data that changes sign falls back to
    a cubic spline of y itself.
    """
    from scipy.interpolate import CubicSpline

    if np.all(y > 0.0) or np.all(y < 0.0):
        sign = 1.0 if y[0] > 0.0 else -1.0
        core = CubicSpline(log_x, np.log(np.abs(y)))
        return lambda lx: sign * np.exp(core(lx))
    return CubicSpline(log_x, y)
