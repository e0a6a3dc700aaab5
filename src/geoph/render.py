"""SVG rendering of barcodes and feature maps.  No drawing dependencies;
the documents are assembled as strings.

Feature maps shade each precinct by its winner's color, darker for a
stronger majority and white for a strictly equal vote, then overlay the
dimension-1 generator cycles of the barcode as closed polylines in the
analyzed candidate's color; long-persistence cycles come out darker and
thicker.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from .barcode import Barcode, PersistencePair
from .precincts import Precinct, PrecinctMap, check_candidate, vote_margin

SHORT_BAR_FILL = {0: "#9ecae1", 1: "#fc9272", 2: "#a1d99b"}
LONG_BAR_FILL = {0: "#08519c", 1: "#99000d", 2: "#006d2c"}
FULL_SHADE = {"blue": (8, 48, 107), "red": (103, 0, 13)}
CYCLE_STROKE = {"blue": ("#4292c6", "#08306b"), "red": ("#fb6a4a", "#67000d")}


def _write(svg: str, path: str | Path | None) -> str:
    if path is not None:
        Path(path).write_text(svg)
    return svg


def render_barcode_svg(barcode: Barcode, path: str | Path | None = None) -> str:
    """Barcode plot: one rect per bar, grouped by dimension.

    Zero-length bars are omitted.  Bars that never die run to the plot
    horizon (the barcode's, or the largest value drawn if that is larger)
    and get an arrowhead.  Long-persistence bars use a darker fill.
    Positions are computed on the barcode's columns, and each bar is one
    ``%`` template.
    """
    shown = barcode.shown()
    # The plot spans every value it draws; a build has none past its horizon.
    drawn = barcode.birth[shown].tolist() + barcode.death[shown[~barcode.immortal[shown]]].tolist()
    lo = min([0.0] + drawn)
    hi = max([barcode.horizon] + drawn)
    if hi <= lo:  # below -2**53, lo + 1.0 rounds back to lo
        hi = lo + 1.0 if lo + 1.0 > lo else math.nextafter(lo, math.inf)

    left, right, top, bottom = 56.0, 36.0, 16.0, 30.0
    bar_h, bar_gap, group_gap = 7.0, 3.0, 16.0
    plot_w = 560.0

    # Halved, the span of two finite floats never overflows; a span that
    # fits is left whole, so its coordinates do not move.
    s = 1.0 if math.isfinite(float(hi) - lo) else 0.5

    def x(t):
        return left + (t * s - lo * s) / (hi * s - lo * s) * plot_w

    dimension = barcode.dimension[shown]
    dims = sorted(set(dimension.tolist()))
    groups = [shown[dimension == d] for d in dims]
    at = np.concatenate([shown[:0], *groups])
    sizes = [len(g) for g in groups]
    group = np.repeat(np.arange(len(dims)), sizes)
    y = top + (bar_h + bar_gap) * np.arange(len(at)) + group_gap * group
    x0 = x(barcode.birth[at])
    width = x(np.where(barcode.immortal[at], hi, barcode.death[at])) - x0
    fills = [
        (LONG_BAR_FILL if long else SHORT_BAR_FILL)[d]
        for long, d in zip(barcode.long_persistence[at].tolist(), barcode.dimension[at].tolist())
    ]
    rect = f'<rect x="%.2f" y="%.2f" width="%.2f" height="{bar_h:.2f}" fill="%s"/>'
    xe = x(hi)
    arrow = (
        f'{rect}\n<polygon points="{xe:.2f},%.2f {xe + 9:.2f},%.2f {xe:.2f},%.2f" fill="%s"/>'
    )
    bars = [
        arrow % (xb, yb, w, fill, ym - 5, ym, ym + 5, fill)
        if immortal
        else rect % (xb, yb, w, fill)
        for xb, yb, w, fill, immortal, ym in zip(
            x0.tolist(),
            y.tolist(),
            width.tolist(),
            fills,
            barcode.immortal[at].tolist(),
            (y + bar_h / 2.0).tolist(),
        )
    ]
    body: list[str] = []
    ends = np.cumsum(sizes, dtype=np.int64).tolist()
    for d, a, b in zip(dims, [0] + ends[:-1], ends):
        body.append(
            f'<text x="{left - 12:.2f}" y="{y[a] + 10:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">H{d}</text>'
        )
        body += bars[a:b]
    height = max(top + (bar_h + bar_gap) * len(at) + group_gap * (len(dims) - 1), top) + bottom
    axis_y = height - bottom + 8.0
    axis = [
        f'<line x1="{left:.2f}" y1="{axis_y:.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{axis_y:.2f}" stroke="#333" stroke-width="1"/>',
        f'<line x1="{left:.2f}" y1="{top - 4:.2f}" x2="{left:.2f}" '
        f'y2="{axis_y:.2f}" stroke="#333" stroke-width="1"/>',
        f'<text x="{left:.2f}" y="{axis_y + 14:.2f}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">{lo:g}</text>',
        f'<text x="{left + plot_w:.2f}" y="{axis_y + 14:.2f}" '
        f'text-anchor="middle" font-size="11" font-family="sans-serif">{hi:g}</text>',
    ]
    svg = "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="660" '
            f'height="{height:.2f}" viewBox="0 0 660 {height:.2f}">',
            *axis,
            *body,
            "</svg>\n",
        ]
    )
    return _write(svg, path)


def margin_color(winner: str | None, delta: float) -> str:
    """Linear white-to-dark ramp in the winner's hue; white for no winner."""
    if winner is None:
        return "#ffffff"
    r, g, b = FULL_SHADE[winner]
    t = min(1.0, max(0.0, delta))
    mix = tuple(round(255 + (c - 255) * t) for c in (r, g, b))
    return "#{:02x}{:02x}{:02x}".format(*mix)


def _closed_walks(edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Split an even-degree edge set into closed walks (one per component)."""
    adj: dict[int, list[int]] = {}
    for a, b in sorted(edges):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for v in adj:
        adj[v].sort(reverse=True)  # pops yield the smallest remaining neighbor
    used: set[tuple[int, int]] = set()
    walks = []
    for start in sorted(adj):
        if all((min(start, w), max(start, w)) in used for w in adj[start]):
            continue
        stack, walk = [start], []
        while stack:
            v = stack[-1]
            advanced = False
            while adj[v]:
                w = adj[v].pop()
                key = (min(v, w), max(v, w))
                if key in used:
                    continue
                used.add(key)
                stack.append(w)
                advanced = True
                break
            if not advanced:
                walk.append(stack.pop())
        walks.append(walk)
    return walks


def _cycle_polyline(
    pair: PersistencePair,
    coords: Mapping[int, tuple[float, float]],
    to_svg,
    stroke: str,
    width: float,
) -> list[str]:
    edges = []
    for s in pair.generator:
        if len(s) != 2:
            raise InputError("generator is not an edge cycle")
        edges.append((s[0], s[1]))
    out = []
    for walk in _closed_walks(edges):
        pts = []
        for v in walk:
            if v not in coords:
                raise InputError(f"generator vertex {v} has no coordinate")
            pts.append(to_svg(*coords[v]))
        points = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width:.2f}" stroke-linejoin="round"/>'
        )
    return out


def render_feature_map(
    m: PrecinctMap,
    barcode: Barcode,
    candidate: str,
    vertex_coords: Mapping[int, tuple[float, float]],
    path: str | Path | None = None,
) -> str:
    """Margin-shaded precinct map with the dimension-1 cycles drawn on top."""
    check_candidate(candidate)
    x0, y0, x1, y1 = m.bbox()
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = 12.0
    scale = 640.0 / span
    width = (x1 - x0) * scale + 2 * pad
    height = (y1 - y0) * scale + 2 * pad

    def to_svg(px: float, py: float) -> tuple[float, float]:
        return (pad + (px - x0) * scale, pad + (y1 - py) * scale)

    body = []
    for p in m:
        d = " ".join(_ring_path(p, ring, to_svg) for ring in p.rings)
        winner = p.winner()
        delta = vote_margin(p) if p.total_votes() > 0 else 0.0
        body.append(
            f'<path d="{d}" fill="{margin_color(winner, delta)}" '
            f'fill-rule="evenodd" stroke="#444" stroke-width="0.6"/>'
        )
    light, dark = CYCLE_STROKE[candidate]
    for pair in barcode.rendered(dimension=1):
        stroke, w = (dark, 3.0) if pair.long_persistence else (light, 1.5)
        body.extend(_cycle_polyline(pair, vertex_coords, to_svg, stroke, w))
    svg = "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
            f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
            *body,
            "</svg>\n",
        ]
    )
    return _write(svg, path)


def _ring_path(p: Precinct, ring, to_svg) -> str:
    pts = [to_svg(x, y) for x, y in ring[:-1]]
    head = f"M {pts[0][0]:.2f},{pts[0][1]:.2f}"
    rest = " ".join(f"L {x:.2f},{y:.2f}" for x, y in pts[1:])
    return f"{head} {rest} Z"
