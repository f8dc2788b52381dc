"""Minimal deterministic SVG line/scatter plots (fixed 800x600 viewBox).

Pure string assembly, no timestamps or generated ids, so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Series", "Panel", "render_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

WIDTH = 800
HEIGHT = 600


@dataclass
class Series:
    label: str
    xs: list[float]
    ys: list[float]


@dataclass
class Panel:
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)


def _ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    raw = span / 5  # about five ticks an axis
    mag = 10.0 ** math.floor(math.log10(abs(raw)))
    norm = raw / mag
    if norm < 1.5:
        step = mag
    elif norm < 3.5:
        step = 2.0 * mag
    elif norm < 7.5:
        step = 5.0 * mag
    else:
        step = 10.0 * mag
    first = math.ceil(lo / step - 1e-12) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _bounds(vals: list[float]) -> tuple[float, float]:
    """The data's range padded by 6%.  A range no wider than 2**-40 of its
    magnitude is first widened by that much on each side, and by at least 1,
    so that ticks and scale factors stay many ulps apart."""
    lo, hi = min(vals), max(vals)
    widen = 2.0**-40 * max(abs(lo), abs(hi))
    if hi - lo <= widen:
        widen = max(widen, 1.0)
        lo, hi = lo - widen, hi + widen
    pad = 0.06 * (hi - lo)
    return lo - pad, hi + pad


def _tick_labels(ticks: list[float]) -> list[str]:
    """The ticks' .6g texts, or where two of those coincide, the texts with
    the fewest significant digits that tell every tick apart."""
    digits = 6
    while len({f"{t:.{digits}g}" for t in ticks}) < len(ticks) and digits < 17:
        digits += 1
    return [f"{t:.{digits}g}" for t in ticks]


def _panel_svg(panel: Panel, x0: int, y0: int, w: int, h: int) -> list[str]:
    """The panel's elements; every point's X and Y text is formatted once
    and serves both its polyline vertex and its circle, and an xs list
    that several series share is formatted once for all of them."""
    ml, mr, mt, mb = 62, 14, 34, 46  # margins inside the panel cell
    px, py = x0 + ml, y0 + mt
    pw, ph = w - ml - mr, h - mt - mb
    xs_all = [x for s in panel.series for x in s.xs]
    ys_all = [y for s in panel.series for y in s.ys]
    if not xs_all:
        return [f'<text x="{x0 + w // 2}" y="{y0 + h // 2}">no data</text>']
    xlo, xhi = _bounds(xs_all)
    ylo, yhi = _bounds(ys_all)
    xspan, yspan = xhi - xlo, yhi - ylo
    out = [
        f'<rect x="{px}" y="{py}" width="{pw}" height="{ph}" fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{x0 + w // 2}" y="{y0 + 20}" text-anchor="middle" font-size="15">{panel.title}</text>',
        f'<text x="{px + pw // 2}" y="{y0 + h - 10}" text-anchor="middle" font-size="13">{panel.xlabel}</text>',
        f'<text x="{x0 + 16}" y="{py + ph // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 {x0 + 16} {py + ph // 2})">{panel.ylabel}</text>',
    ]
    xticks, yticks = _ticks(xlo, xhi), _ticks(ylo, yhi)
    for t, label in zip(xticks, _tick_labels(xticks)):
        X = px + (t - xlo) / xspan * pw
        out.append(f'<line x1="{X:.2f}" y1="{py + ph}" x2="{X:.2f}" y2="{py + ph + 5}" stroke="#333"/>')
        out.append(f'<text x="{X:.2f}" y="{py + ph + 18}" text-anchor="middle" font-size="11">{label}</text>')
    for t, label in zip(yticks, _tick_labels(yticks)):
        Y = py + ph - (t - ylo) / yspan * ph
        out.append(f'<line x1="{px - 5}" y1="{Y:.2f}" x2="{px}" y2="{Y:.2f}" stroke="#333"/>')
        out.append(f'<text x="{px - 8}" y="{Y + 4:.2f}" text-anchor="end" font-size="11">{label}</text>')
    x_texts = {}  # id(xs) -> its X texts: series that share one xs list format it once
    for idx, s in enumerate(panel.series):
        color = _PALETTE[idx % len(_PALETTE)]
        if id(s.xs) not in x_texts:
            x_texts[id(s.xs)] = [f"{px + (x - xlo) / xspan * pw:.2f}" for x in s.xs]
        pts = [(X, f"{py + ph - (y - ylo) / yspan * ph:.2f}") for X, y in zip(x_texts[id(s.xs)], s.ys)]
        if len(pts) > 1:
            path = " ".join([f"{X},{Y}" for X, Y in pts])
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out += [f'<circle cx="{X}" cy="{Y}" r="2.6" fill="{color}"/>' for X, Y in pts]
        if s.label:
            ly = py + 16 + 15 * idx
            out.append(f'<line x1="{px + pw - 120}" y1="{ly - 4}" x2="{px + pw - 100}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{px + pw - 94}" y="{ly}" font-size="11">{s.label}</text>')
    return out


def render_svg(panels: list[Panel]) -> str:
    """Render one or more side-by-side panels into a 800x600 SVG string."""
    if not panels:
        raise ValueError("need at least one panel")
    cell = WIDTH // len(panels)
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for i, panel in enumerate(panels):
        body += _panel_svg(panel, i * cell, 0, cell, HEIGHT)
    body.append("</svg>\n")
    return "\n".join(body)
