"""Minimal self-contained SVG line plots.

No plotting dependency: the emitted files are plain text with one
``<polyline>`` per series (plus optional translucent band polygons), which
keeps them diffable and easy to assert on in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896",
)


@dataclass
class Series:
    label: str
    x: list[float]
    y: list[float]
    band_low: list[float] | None = None
    band_high: list[float] | None = None


def _finite_points(xs, ys):
    return [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_plot(
    series: list[Series],
    title: str,
    xlabel: str,
    ylabel: str,
    width: int = 880,
    height: int = 520,
) -> str:
    """Render series as an SVG document string."""
    margin_l, margin_r, margin_t, margin_b = 70, 160, 44, 54
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    # each series' finite points and band edges (low, high), for the axis
    # bounds and the drawing
    lines = [_finite_points(s.x, s.y) for s in series]
    bands = [None if s.band_low is None
             else (_finite_points(s.x, s.band_low), _finite_points(s.x, s.band_high))
             for s in series]
    points = []
    for line, band in zip(lines, bands):
        points += line
        if band is not None:
            points += band[0] + band[1]
    if not points:
        raise ValueError("nothing to plot")
    xs, ys = zip(*points)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(v: float) -> float:
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return margin_t + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle">{title}</text>',
    ]

    # axes and ticks
    out.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(f'<line x1="{px:.1f}" y1="{margin_t + plot_h}" x2="{px:.1f}" '
                   f'y2="{margin_t + plot_h + 5}" stroke="#333"/>')
        out.append(f'<text x="{px:.1f}" y="{margin_t + plot_h + 20}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="middle">{tx:.4g}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(f'<line x1="{margin_l - 5}" y1="{py:.1f}" x2="{margin_l}" '
                   f'y2="{py:.1f}" stroke="#333"/>')
        out.append(f'<text x="{margin_l - 9}" y="{py + 4:.1f}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end">{ty:.4g}</text>')
    out.append(f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 14}" '
               f'font-family="sans-serif" font-size="13" text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="20" y="{margin_t + plot_h / 2:.1f}" font-family="sans-serif" '
               f'font-size="13" text-anchor="middle" '
               f'transform="rotate(-90 20 {margin_t + plot_h / 2:.1f})">{ylabel}</text>')

    # bands first so lines draw on top
    for i, band in enumerate(bands):
        if band is None or not all(band):
            continue
        lower, upper = band
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in upper + lower[::-1])
        out.append(f'<polygon points="{pts}" fill="{PALETTE[i % len(PALETTE)]}" '
                   f'fill-opacity="0.15" stroke="none"/>')

    for i, (s, line) in enumerate(zip(series, lines)):
        if not line:
            continue
        color = PALETTE[i % len(PALETTE)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in line)
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = margin_t + 16 + 16 * i
        lx = margin_l + plot_w + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{s.label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
