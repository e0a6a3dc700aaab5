"""SVG rendering of barcodes and feature maps.  No drawing dependencies;
the documents are assembled as strings.

Feature maps shade each precinct by its winner's color, darker for a
stronger majority and white for a strictly equal vote, then overlay the
dimension-1 generator cycles of the barcode as closed polylines in the
analyzed candidate's color; long-persistence cycles come out darker and
thicker.  The cycles come from the barcode's cycle columns, already in
drawing order (each H1 generator of a build is a forest cycle, and H0 comes
from a union-find; see ``homology``), and are formatted a block at a time.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError
from .barcode import Barcode
from .complexes import _unique
from .precincts import SIDES, PrecinctMap, check_candidate

SHORT_BAR_FILL = {0: "#9ecae1", 1: "#fc9272", 2: "#a1d99b"}
LONG_BAR_FILL = {0: "#08519c", 1: "#99000d", 2: "#006d2c"}
FULL_SHADE = {"blue": (8, 48, 107), "red": (103, 0, 13)}
CYCLE_STROKE = {"blue": ("#4292c6", "#08306b"), "red": ("#fb6a4a", "#67000d")}
_CYCLE_BLOCK = 1024  # cycle vertices per block of feature-map polylines


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
    return margin_colors(np.array([SIDES.index(winner)]), np.array([delta]))[0]


def margin_colors(sides: np.ndarray, deltas: np.ndarray) -> list[str]:
    """``margin_color`` of each winner (as a ``SIDES`` code) and margin; each
    distinct color is formatted once."""
    shade = np.array([(255, 255, 255), *(FULL_SHADE[c] for c in SIDES[1:])])[sides]
    t = np.fmin(np.fmax(deltas, 0.0), 1.0)[:, None]  # nan as 0, as min(1.0, max(0.0, nan))
    mix = np.rint(255 + (shade - 255) * t).astype(np.int64)
    colors, at = _unique((mix[:, 0] << 16) | (mix[:, 1] << 8) | mix[:, 2])
    texts = ["#%06x" % c for c in colors.tolist()]
    return [texts[i] for i in at.tolist()]


def _cycle_polylines(
    barcode: Barcode,
    at: np.ndarray,
    coords: np.ndarray,
    to_svg,
    strokes: Sequence[str],
) -> list[str]:
    """The polylines of cycles ``at`` (consecutive), in turn; a cycle of a
    long-persistence bar takes the second of ``strokes``."""
    ptr = barcode.cycle_ptr[at[0] : at[-1] + 2]
    vertex, code = _unique(barcode.cycle_at[ptr[0] : ptr[-1]])
    missing = vertex[(vertex < 0) | (vertex >= len(coords))]
    if len(missing):
        raise InputError(f"generator vertex {missing[0]} has no coordinate")
    px, py = to_svg(*coords[vertex].T)
    texts = np.array(["%.2f,%.2f" % xy for xy in zip(px.tolist(), py.tolist())], dtype=object)
    points = texts[code].tolist()
    ends = (ptr - ptr[0]).tolist()
    long = barcode.long_persistence[barcode.cycle_bar[at]]
    return [
        f'<polyline points="{" ".join(points[a:b])}" ' + strokes[flag]
        for a, b, flag in zip(ends[:-1], ends[1:], long.tolist())
    ]


def render_feature_map(
    m: PrecinctMap,
    barcode: Barcode,
    candidate: str,
    vertex_coords: np.ndarray,
    path: str | Path | None = None,
) -> str:
    """Margin-shaded precinct map with the dimension-1 cycles drawn on top;
    row v of the ``(n, 2)`` float array ``vertex_coords`` holds vertex v."""
    check_candidate(candidate)
    x0, y0, x1, y1 = m.bbox()
    # Halved, the span of two finite floats never overflows; a span that
    # fits is left whole, so its coordinates do not move.
    s = 1.0 if math.isfinite(max(x1 - x0, y1 - y0)) else 0.5
    span = max(x1 * s - x0 * s, y1 * s - y0 * s, 1e-9)
    pad = 12.0
    scale = 640.0 / span
    width = (x1 * s - x0 * s) * scale + 2 * pad
    height = (y1 * s - y0 * s) * scale + 2 * pad

    def to_svg(px, py):
        return (pad + (px * s - x0 * s) * scale, pad + (y1 * s - py * s) * scale)

    stroke = 'fill="none" stroke="%s" stroke-width="%.2f" stroke-linejoin="round"/>'
    strokes = [stroke % sw for sw in zip(CYCLE_STROKE[candidate], (1.5, 3.0))]
    cycles = np.arange(len(barcode.cycle_bar))
    block = barcode.cycle_ptr[:-1] // _CYCLE_BLOCK  # of each cycle's first vertex
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
        body = _outline_paths(m, to_svg)
        if barcode.cycle_at is None:
            raise InputError("generator is not an edge cycle")
        for at in np.split(cycles, np.flatnonzero(np.diff(block)) + 1):
            if len(at):
                body += _cycle_polylines(barcode, at, vertex_coords, to_svg, strokes)
    svg = "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
            f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
            *body,
            "</svg>\n",
        ]
    )
    return _write(svg, path)


def _outline_paths(m: PrecinctMap, to_svg) -> list[str]:
    """One shaded ``<path>`` per precinct, its rings as ``M … L … Z``
    subpaths; each distinct point (by bit pattern) is formatted once."""
    table = m.ring_table
    px, py = to_svg(*table.points.T)
    xs, ix = _unique(px.view(np.int64))
    ys, iy = _unique(py.view(np.int64))
    codes, at = _unique(ix * len(ys) + iy)
    x, y = xs.view(np.float64)[codes // len(ys)], ys.view(np.float64)[codes % len(ys)]
    texts = np.array(["%.2f,%.2f" % xy for xy in zip(x.tolist(), y.tolist())], dtype=object)
    lead = np.full(len(px), "L ", dtype=object)
    lead[table.ring_ptr[:-1]] = "M "
    tail = np.full(len(px), "", dtype=object)
    tail[table.ring_ptr[1:] - 1] = " Z"
    tokens = (lead + texts[at] + tail).tolist()
    ptr = table.polygon_ptr().tolist()
    return [
        f'<path d="{" ".join(tokens[a:b])}" fill="{fill}" '
        f'fill-rule="evenodd" stroke="#444" stroke-width="0.6"/>'
        for fill, a, b in zip(margin_colors(m.sides, m.margins), ptr[:-1], ptr[1:])
    ]
