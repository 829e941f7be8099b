"""Hand-rolled deterministic SVG line plots on log-log axes.

Plots are CI artifacts here: identical data must produce byte-identical
files, so no plotting library (with its hashed ids and metadata) is used.
Fixed canvas, decade ticks, floats formatted with a fixed precision, and
the power-law slope of the data annotated in the corner.
"""

from __future__ import annotations

import math
from pathlib import Path

from .fitting import fit_power_law

_W, _H = 640.0, 480.0
_ML, _MR, _MT, _MB = 72.0, 24.0, 32.0, 56.0


def _decade_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1) if lo <= 10.0**e <= hi]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _label(v: float) -> str:
    return f"{v:.6g}"


def plot_loglog(x, y, path, xlabel: str, ylabel: str) -> None:
    """Draw y against x as an SVG line plot on log-log axes.

    With three points or more, the slope of fitting.fit_power_law over all
    of them is annotated in the top right corner.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or not xs:
        raise ValueError("x and y must be equal-length nonempty sequences")
    if min(xs) <= 0.0 or min(ys) <= 0.0:
        raise ValueError("loglog axes need positive data")
    tx = [math.log10(v) for v in xs]
    ty = [math.log10(v) for v in ys]
    xticks = _decade_ticks(min(xs), max(xs))
    yticks = _decade_ticks(min(ys), max(ys))
    txticks = [math.log10(v) for v in xticks]
    tyticks = [math.log10(v) for v in yticks]

    x0, x1 = min(tx), max(tx)
    y0, y1 = min(ty), max(ty)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">',
        f'<rect x="0" y="0" width="{int(_W)}" height="{int(_H)}" fill="white"/>',
        f'<rect x="{_fmt(_ML)}" y="{_fmt(_MT)}" width="{_fmt(_W - _ML - _MR)}" '
        f'height="{_fmt(_H - _MT - _MB)}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tvi, lab in zip(txticks, xticks):
        if not (x0 <= tvi <= x1):
            continue
        X = px(tvi)
        lines.append(
            f'<line x1="{_fmt(X)}" y1="{_fmt(_H - _MB)}" x2="{_fmt(X)}" '
            f'y2="{_fmt(_H - _MB + 5)}" stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_fmt(X)}" y="{_fmt(_H - _MB + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{_label(lab)}</text>'
        )
    for tvi, lab in zip(tyticks, yticks):
        if not (y0 <= tvi <= y1):
            continue
        Y = py(tvi)
        lines.append(
            f'<line x1="{_fmt(_ML - 5)}" y1="{_fmt(Y)}" x2="{_fmt(_ML)}" '
            f'y2="{_fmt(Y)}" stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_fmt(_ML - 8)}" y="{_fmt(Y + 4)}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{_label(lab)}</text>'
        )
    pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(tx, ty))
    lines.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    lines.append(
        f'<text x="{_fmt(_W / 2)}" y="{_fmt(_H - 12)}" font-size="13" '
        f'text-anchor="middle" font-family="monospace">{xlabel}</text>'
    )
    lines.append(
        f'<text x="16" y="{_fmt(_H / 2)}" font-size="13" text-anchor="middle" '
        f'font-family="monospace" transform="rotate(-90 16 {_fmt(_H / 2)})">{ylabel}</text>'
    )
    if len(xs) >= 3:
        slope = fit_power_law(xs, ys, min_points=3).exponent
        lines.append(
            f'<text x="{_fmt(_W - _MR - 8)}" y="{_fmt(_MT + 18)}" font-size="12" '
            f'text-anchor="end" font-family="monospace">slope {slope:+.4f}</text>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
