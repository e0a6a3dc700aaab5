"""SVG rendering of barcodes and feature maps.  No drawing dependencies;
the documents are assembled as strings.

Feature maps shade each precinct by its winner's color, darker for a
stronger majority and white for a strictly equal vote, then overlay the
dimension-1 generator cycles of the barcode as closed polylines in the
analyzed candidate's color; long-persistence cycles come out darker and
thicker.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from .errors import InputError
from .homology import Barcode, PersistencePair
from .precincts import Precinct, PrecinctMap, check_candidate, vote_margin

SHORT_BAR_FILL = {0: "#9ecae1", 1: "#fc9272", 2: "#a1d99b"}
LONG_BAR_FILL = {0: "#08519c", 1: "#99000d", 2: "#006d2c"}
FULL_SHADE = {"blue": (8, 48, 107), "red": (103, 0, 13)}
CYCLE_STROKE = {"blue": ("#4292c6", "#08306b"), "red": ("#fb6a4a", "#67000d")}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _write(svg: str, path: str | Path | None) -> str:
    if path is not None:
        Path(path).write_text(svg)
    return svg


def render_barcode_svg(barcode: Barcode, path: str | Path | None = None) -> str:
    """Barcode plot: one rect per bar, grouped by dimension.

    Zero-length bars are omitted.  Bars that never die run to the plot
    horizon and get an arrowhead.  Long-persistence bars use a darker fill.
    """
    bars = barcode.rendered()
    lo = min([0.0] + [p.birth for p in bars])
    hi = barcode.horizon
    if hi <= lo:
        hi = lo + 1.0

    left, right, top, bottom = 56.0, 36.0, 16.0, 30.0
    bar_h, bar_gap, group_gap = 7.0, 3.0, 16.0
    plot_w = 560.0

    def x(t: float) -> float:
        return left + (t - lo) / (hi - lo) * plot_w

    dims = sorted({p.dimension for p in bars})
    body: list[str] = []
    y = top
    for d in dims:
        group = [p for p in bars if p.dimension == d]
        body.append(
            f'<text x="{_fmt(left - 12)}" y="{_fmt(y + 10)}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">H{d}</text>'
        )
        for p in group:
            end = hi if p.death is None else p.death
            fill = (LONG_BAR_FILL if p.long_persistence else SHORT_BAR_FILL)[p.dimension]
            body.append(
                f'<rect x="{_fmt(x(p.birth))}" y="{_fmt(y)}" '
                f'width="{_fmt(x(end) - x(p.birth))}" height="{_fmt(bar_h)}" '
                f'fill="{fill}"/>'
            )
            if p.death is None:
                xe, ym = x(hi), y + bar_h / 2.0
                body.append(
                    f'<polygon points="{_fmt(xe)},{_fmt(ym - 5)} '
                    f'{_fmt(xe + 9)},{_fmt(ym)} {_fmt(xe)},{_fmt(ym + 5)}" '
                    f'fill="{fill}"/>'
                )
            y += bar_h + bar_gap
        y += group_gap
    height = max(y - group_gap, top) + bottom
    axis_y = height - bottom + 8.0
    axis = [
        f'<line x1="{_fmt(left)}" y1="{_fmt(axis_y)}" x2="{_fmt(left + plot_w)}" '
        f'y2="{_fmt(axis_y)}" stroke="#333" stroke-width="1"/>',
        f'<line x1="{_fmt(left)}" y1="{_fmt(top - 4)}" x2="{_fmt(left)}" '
        f'y2="{_fmt(axis_y)}" stroke="#333" stroke-width="1"/>',
        f'<text x="{_fmt(left)}" y="{_fmt(axis_y + 14)}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">{lo:g}</text>',
        f'<text x="{_fmt(left + plot_w)}" y="{_fmt(axis_y + 14)}" '
        f'text-anchor="middle" font-size="11" font-family="sans-serif">{hi:g}</text>',
    ]
    svg = "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="660" '
            f'height="{_fmt(height)}" viewBox="0 0 660 {_fmt(height)}">',
            *axis,
            *body,
            "</svg>",
        ]
    )
    return _write(svg + "\n", path)


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
        points = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" stroke-linejoin="round"/>'
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
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
            *body,
            "</svg>",
        ]
    )
    return _write(svg + "\n", path)


def _ring_path(p: Precinct, ring, to_svg) -> str:
    pts = [to_svg(x, y) for x, y in ring[:-1]]
    head = f"M {_fmt(pts[0][0])},{_fmt(pts[0][1])}"
    rest = " ".join(f"L {_fmt(x)},{_fmt(y)}" for x, y in pts[1:])
    return f"{head} {rest} Z"
