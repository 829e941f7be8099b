"""Hand-rolled deterministic SVG line plots.

Plots are CI artifacts here: identical data must produce byte-identical
files, so no plotting library (with its hashed ids and metadata) is used.
Fixed canvas, fixed 1-2-5 tick algorithm on linear axes, decade ticks on
log axes, floats formatted with a fixed precision.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

_W, _H = 640.0, 480.0
_ML, _MR, _MT, _MB = 72.0, 24.0, 32.0, 56.0


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / 7  # about 7 ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12 * span:
        ticks.append(round(v / step) * step)
        v += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1) if lo <= 10.0**e <= hi]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _label(v: float) -> str:
    return f"{v:.6g}"


def render_line_plot(
    x,
    y,
    path,
    xlabel: str = "x",
    ylabel: str = "y",
    loglog: bool = False,
    annotation: str = "",
) -> None:
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or not xs:
        raise ValueError("x and y must be equal-length nonempty sequences")
    if loglog:
        if min(xs) <= 0.0 or min(ys) <= 0.0:
            raise ValueError("loglog axes need positive data")
        tx = [math.log10(v) for v in xs]
        ty = [math.log10(v) for v in ys]
        xticks = _decade_ticks(min(xs), max(xs))
        yticks = _decade_ticks(min(ys), max(ys))
        txticks = [math.log10(v) for v in xticks]
        tyticks = [math.log10(v) for v in yticks]
    else:
        tx, ty = xs, ys
        xticks = _nice_ticks(min(xs), max(xs))
        yticks = _nice_ticks(min(ys), max(ys))
        txticks, tyticks = xticks, yticks

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
    if annotation:
        lines.append(
            f'<text x="{_fmt(_W - _MR - 8)}" y="{_fmt(_MT + 18)}" font-size="12" '
            f'text-anchor="end" font-family="monospace">{annotation}</text>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def plot_series(csv_in, svg_out, axes: str = "linear") -> str:
    """Render column 2 against column 1 of a headered CSV as an SVG line plot.

    With axes="loglog" a power-law slope is fitted and annotated on the plot.
    Returns the path written.
    """
    if axes not in ("linear", "loglog"):
        raise ValueError(f"axes must be 'linear' or 'loglog', got {axes!r}")
    with open(csv_in, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ValueError(f"{csv_in}: need a header row and at least one data row")
    header = rows[0]
    try:
        data = [(float(r[0]), float(r[1])) for r in rows[1:] if r]
    except ValueError as exc:
        raise ValueError(f"{csv_in}: non-numeric data: {exc}") from exc
    xs = [d[0] for d in data]
    ys = [d[1] for d in data]
    annotation = ""
    if axes == "loglog" and len(data) >= 3 and min(xs) > 0 and min(ys) > 0:
        import numpy as np

        slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
        annotation = f"slope {slope:+.4f}"
    render_line_plot(
        xs,
        ys,
        svg_out,
        xlabel=header[0],
        ylabel=header[1],
        loglog=(axes == "loglog"),
        annotation=annotation,
    )
    return str(svg_out)
