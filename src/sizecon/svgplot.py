"""Minimal SVG plotter: axes, scatter crosses, and lines.

A figure is drawn from its own table, the rows of the CSV written beside
it. ``Figure.x`` names the column every series reads its x from, and each
``Series`` names its y column and, optionally, a (column, value) filter on
the rows it takes; each point is ``float`` of its CSV cell, so a plotted
value cannot differ from the CSV. A series that takes no row is left out
and takes no palette colour.

Each axis has ``TICKS`` evenly spaced labelled ticks; a scatter series draws
an ``x``-shaped cross at each point, a line series one path. A series'
crosses are computed from arrays by ``px`` and ``py``, whose element-wise
arithmetic rounds as it does on one value, and each cross's four
coordinate texts are formatted once.

CSV files remain the authoritative outputs; these plots are lightweight
visual companions with no third-party plotting dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

WIDTH, HEIGHT = 640, 440
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 20, 40, 55
PALETTE = ("#e06c00", "#1f77b4", "#2ca02c", "#9467bd", "#d62728", "#555555")
TICKS = 5   # labelled ticks per axis, ends included


@dataclass(frozen=True)
class Series:
    """The ``y`` column of the table rows that are not blank there and,
    when ``only`` is a (column, value) pair, hold that value in that
    column."""

    label: str
    y: str
    kind: str = "scatter"          # "scatter" or "line"
    color: str | None = None
    dashed: bool = False
    only: tuple[str, str] | None = None


@dataclass(frozen=True)
class Figure:
    title: str
    xlabel: str
    ylabel: str
    x: str                         # the table column of every series' x
    series: tuple[Series, ...] = ()


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """An empty range widened by 0.5 each way, or by 4 ulps where rounding
    would lose 0.5, so that a scale over it never divides by zero."""
    pad = max(0.5, 4 * math.ulp(lo)) if hi == lo else 0.0
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / (TICKS - 1)
    return [lo + i * step for i in range(TICKS)]


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.2e}"
    return f"{value:.4g}"


def render(figure: Figure, rows: Sequence[Mapping]) -> str:
    """Render a figure of the table ``rows`` to an SVG document string."""
    plotted = []   # each series that takes a row, with its rows' x and y values
    for s in figure.series:
        taken = [r for r in rows if r[s.y] != "" and (s.only is None or r[s.only[0]] == s.only[1])]
        if taken:
            plotted.append((s, [float(r[figure.x]) for r in taken], [float(r[s.y]) for r in taken]))
    xs = [x for _, sx, _ in plotted for x in sx]
    ys = [y for _, _, sy in plotted for y in sy]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = _widened(min(xs), max(xs))
    y_lo, y_hi = _widened(min(ys), max(ys))
    y_pad = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    x_pad = 0.04 * (x_hi - x_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    # px and py map a value, or an array of values element by element
    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" font-size="15">{figure.title}</text>',
    ]
    axis = f'{MARGIN_LEFT} {MARGIN_TOP} v {plot_h} h {plot_w}'
    parts.append(f'<path d="M {axis}" fill="none" stroke="black"/>')
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.1f}" y1="{py(y_lo):.1f}" x2="{x:.1f}" y2="{py(y_lo) + 5:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{py(y_lo) + 20:.1f}" text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.1f}" x2="{MARGIN_LEFT}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{y + 4:.1f}" text-anchor="end">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2}" y="{HEIGHT - 12}" text-anchor="middle">{figure.xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2})">{figure.ylabel}</text>'
    )

    legend_y = MARGIN_TOP + 8
    for i, (s, sx, sy) in enumerate(plotted):
        color = s.color or PALETTE[i % len(PALETTE)]
        if s.kind == "line":
            path = " ".join(
                f"{'M' if j == 0 else 'L'} {px(x):.1f} {py(y):.1f}"
                for j, (x, y) in enumerate(zip(sx, sy))
            )
            dash = ' stroke-dasharray="6 4"' if s.dashed else ""
            parts.append(f'<path d="{path}" fill="none" stroke="{color}"{dash}/>')
        else:
            # a cross 4 px each way: its left, right, top and bottom
            # coordinate texts, each formatted once, fill its two strokes
            x, y = px(np.asarray(sx, dtype=float)), py(np.asarray(sy, dtype=float))
            texts = (map("%.1f".__mod__, v.tolist()) for v in (x - 4, x + 4, y - 4, y + 4))
            parts.extend(f'<path d="M {x0} {y0} L {x1} {y1} M {x0} {y1} L {x1} {y0}" stroke="{color}"/>'
                         for x0, x1, y0, y1 in zip(*texts))
        if s.label:
            lx = MARGIN_LEFT + plot_w - 150
            parts.append(
                f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 18}" y2="{legend_y}" stroke="{color}"/>'
            )
            parts.append(f'<text x="{lx + 24}" y="{legend_y + 4}">{s.label}</text>')
            legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write(figure: Figure, rows: Sequence[Mapping], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(figure, rows))
