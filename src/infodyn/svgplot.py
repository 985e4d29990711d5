"""Minimal self-contained SVG line plots.

One fixed-size canvas, linear axes with a handful of ticks, one
polyline per series, and a text legend. Points with a non-finite x or y
split the polyline rather than being clamped, and the axes span only
the points that are drawn. Labels are escaped as XML
text by `html.escape(..., quote=False)`, whose output is that of
`xml.sax.saxutils.escape`; the latter imports `urllib.request`, about
27 ms against 2 ms (Python 3.11, x86-64). Output is deterministic for
identical input.
"""

from __future__ import annotations

import itertools
import math
from html import escape

WIDTH, HEIGHT = 640, 400
MARGIN_LEFT, MARGIN_RIGHT = 64, 16
MARGIN_TOP, MARGIN_BOTTOM = 20, 44
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
TICKS = 5


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _span(values) -> tuple[float, float]:
    if not values:
        return 0.0, 1.0
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        pad = 0.5 if hi == 0 else abs(hi) * 0.5
        return lo - pad, hi + pad
    return lo, hi


def line_plot(xs, series, xlabel: str = "", ylabel: str = "") -> str:
    """SVG text for one or more named series over a shared x axis.

    `series` is a sequence of (label, values) pairs; each values entry
    aligns with `xs`.
    """
    xs = [float(v) for v in xs]
    series = [(label, [float(v) for v in ys]) for label, ys in series]
    if not xs or not series:
        raise ValueError("line_plot needs at least one point and one series")
    if any(len(ys) != len(xs) for _, ys in series):
        raise ValueError("every series must match the length of xs")

    # The axes span only the points that are drawn: finite in x and in y.
    drawn = [(x, y) for _, ys in series for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
    x_lo, x_hi = _span([x for x, _ in drawn])
    y_lo, y_hi = _span([y for _, y in drawn])

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    axis_y = MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{MARGIN_LEFT + plot_w}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{axis_y}" stroke="black"/>'
    )

    for t in range(TICKS):
        frac = t / (TICKS - 1)
        xv = x_lo + frac * (x_hi - x_lo)
        xp = _fmt(px(xv))
        parts.append(f'<line x1="{xp}" y1="{axis_y}" x2="{xp}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{xp}" y="{axis_y + 18}" font-size="11" text-anchor="middle">{_fmt(xv)}</text>'
        )
        yv = y_lo + frac * (y_hi - y_lo)
        yp = _fmt(py(yv))
        parts.append(f'<line x1="{MARGIN_LEFT - 5}" y1="{yp}" x2="{MARGIN_LEFT}" y2="{yp}" stroke="black"/>')
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{yp}" font-size="11" text-anchor="end" '
            f'dominant-baseline="middle">{_fmt(yv)}</text>'
        )

    if xlabel:
        parts.append(
            f'<text x="{MARGIN_LEFT + plot_w / 2:.6g}" y="{HEIGHT - 8}" font-size="12" '
            f'text-anchor="middle">{escape(xlabel, quote=False)}</text>'
        )
    if ylabel:
        cx, cy = 14, MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.6g}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 {cx} {cy:.6g})">{escape(ylabel, quote=False)}</text>'
        )

    for idx, (label, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        # Each run of finite points is one polyline, or a dot when it has one point.
        runs = itertools.groupby(zip(xs, ys), lambda p: math.isfinite(p[0]) and math.isfinite(p[1]))
        for chunk in ([f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in run] for finite, run in runs if finite):
            if len(chunk) == 1:
                cx, cy = chunk[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                    f'points="{" ".join(chunk)}"/>'
                )
        ly = MARGIN_TOP + 14 + 16 * idx
        lx = MARGIN_LEFT + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}" font-size="12">{escape(str(label), quote=False)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
