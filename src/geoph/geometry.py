"""Planar geometry primitives shared by the complex builders.

Everything works on plain (x, y) float pairs.  Polygons are lists of rings,
each ring a closed list of points (first == last).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Point = tuple[float, float]
Ring = list[Point]

# Relative bound on the float in-circle determinant below which the sign is
# recomputed exactly.
IN_CIRCLE_TOL = 1e-12


@dataclass(frozen=True)
class PointCloud:
    """Finite list of 2D points.

    Duplicate coordinates are permitted but flagged with a warning, since
    downstream builders may treat them as degenerate.
    """

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if len(set(pts)) < len(pts):
            warnings.warn("point cloud contains duplicate coordinates", stacklevel=2)

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


def distance_matrix(pc: PointCloud) -> np.ndarray:
    """Pairwise Euclidean distances.

    Coordinates whose largest magnitude is below 0.5 are first scaled up by
    a power of two that brings it into [0.5, 1), so the squares do not
    underflow; the scaling is exact, so the result is the unscaled
    formula's wherever that one does not underflow.  Larger coordinates
    are never scaled down.
    """
    a = pc.as_array()
    _, e = math.frexp(float(np.abs(a).max(initial=0.0)))
    e = min(e, 0)
    a = np.ldexp(a, -e)
    d2 = ((a[:, None, :] - a[None, :, :]) ** 2).sum(axis=2)
    return np.ldexp(np.sqrt(d2), e)


def circumcircle(a: Point, b: Point, c: Point) -> tuple[Point, float]:
    """Circumcenter and circumradius of triangle abc.

    Raises ZeroDivisionError-adjacent ValueError for collinear input.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        raise ValueError("collinear points have no circumcircle")
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r = math.hypot(ax - ux, ay - uy)
    return (ux, uy), r


def in_circle_determinant(a, b, c, p):
    """The in-circle determinant of p against a, b, c, with the squared
    distances ``(|a - p|^2, |b - p|^2, |c - p|^2)``.

    Positive when p is inside the circle through a counterclockwise abc.
    Plain arithmetic, so the coordinates may be floats, integers or numpy
    arrays, with results of the same kind.
    """
    adx, ady = a[0] - p[0], a[1] - p[1]
    bdx, bdy = b[0] - p[0], b[1] - p[1]
    cdx, cdy = c[0] - p[0], c[1] - p[1]
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    det = (
        adx * (bdy * cd2 - cdy * bd2)
        - ady * (bdx * cd2 - cdx * bd2)
        + ad2 * (bdx * cdy - cdx * bdy)
    )
    return det, (ad2, bd2, cd2)


def in_circumcircle(
    a: Point, b: Point, c: Point, p: Point, tol: float = IN_CIRCLE_TOL
) -> int:
    """Sign of the in-circle determinant for p against circle(a, b, c).

    Returns +1 if p lies strictly inside, -1 if strictly outside, 0 if
    cocircular.  Triangle abc must be counterclockwise; for clockwise input
    the sign flips.  When the floating determinant is within ``tol`` of zero
    (scaled by entry magnitudes) the determinant is re-evaluated exactly in
    integers: every coordinate is scaled by one common power of two, which
    leaves the sign unchanged.
    """
    det, sq = in_circle_determinant(a, b, c, p)
    scale = max(*sq, 1.0)
    if abs(det) > tol * scale * scale:
        return 1 if det > 0 else -1
    # Each coordinate is num / 2**k (as_integer_ratio); multiplying all of
    # them by the largest 2**k makes them integers.
    ratios = [x.as_integer_ratio() for x in (*a, *b, *c, *p)]
    top = max(den.bit_length() for _, den in ratios)
    ax, ay, bx, by, cx, cy, px, py = (num << (top - den.bit_length()) for num, den in ratios)
    det, _ = in_circle_determinant((ax, ay), (bx, by), (cx, cy), (px, py))
    return (det > 0) - (det < 0)


def orient2d(a: Point, b: Point, c: Point) -> float:
    """Twice the signed area of triangle abc (positive if counterclockwise)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    d1 = orient2d(c, d, a)
    d2 = orient2d(c, d, b)
    d3 = orient2d(a, b, c)
    d4 = orient2d(a, b, d)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    def on(p: Point, q: Point, r: Point) -> bool:
        return (
            min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
        )

    if d1 == 0 and on(c, d, a):
        return True
    if d2 == 0 and on(c, d, b):
        return True
    if d3 == 0 and on(a, b, c):
        return True
    if d4 == 0 and on(a, b, d):
        return True
    return False


def segment_segment_distance(a: Point, b: Point, c: Point, d: Point) -> float:
    if _segments_intersect(a, b, c, d):
        return 0.0
    return min(
        point_segment_distance(a, c, d),
        point_segment_distance(b, c, d),
        point_segment_distance(c, a, b),
        point_segment_distance(d, a, b),
    )


def normalize_ring(ring: Sequence[Sequence[float]]) -> Ring:
    """Coerce to finite float pairs and close the ring (first point == last)."""
    pts = [(float(p[0]), float(p[1])) for p in ring]
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
        raise ValueError("ring has a non-finite coordinate")
    if len(pts) < 3:
        raise ValueError("ring needs at least 3 points")
    if pts[0] != pts[-1]:
        pts.append(pts[0])
    if len(pts) < 4:
        raise ValueError("ring needs at least 3 distinct points")
    return pts


def ring_area(ring: Ring) -> float:
    """Signed shoelace area (positive for counterclockwise rings)."""
    s = 0.0
    for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def polygon_centroid(rings: Iterable[Ring]) -> tuple[Point, float]:
    """Area-weighted centroid of a multi-ring polygon, with total signed area.

    Rings combine through their signed areas, so conventionally oriented
    holes (clockwise inside a counterclockwise exterior) subtract correctly.
    The sums run on coordinates scaled by a power of two that brings the
    largest into [0.5, 1), so their third-order terms neither underflow nor
    overflow; the scaling is exact, and the result is the unscaled formula's
    wherever that one neither underflows nor overflows.  An area beyond the
    float range comes back as 0.0 or inf.  When the total area vanishes the
    centroid is nan and the caller is expected to fall back to a vertex
    average.
    """
    rings = list(rings)
    _, e = math.frexp(max((abs(c) for ring in rings for p in ring for c in p), default=0.0))
    ax = ay = area = 0.0
    for ring in rings:
        scaled = [(math.ldexp(x, -e), math.ldexp(y, -e)) for x, y in ring]
        for (x0, y0), (x1, y1) in zip(scaled[:-1], scaled[1:]):
            cross = x0 * y1 - x1 * y0
            area += cross
            ax += (x0 + x1) * cross
            ay += (y0 + y1) * cross
    area *= 0.5
    if area == 0.0:
        return (math.nan, math.nan), 0.0
    return (
        (_ldexp(ax / (6.0 * area), e), _ldexp(ay / (6.0 * area), e)),
        _ldexp(area, 2 * e),
    )


def _ldexp(x: float, e: int) -> float:
    """``x * 2**e``, with an overflow as a signed inf."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def point_in_rings(x: float, y: float, rings: Iterable[Ring]) -> bool:
    """Even-odd membership test against the union of ring boundaries."""
    inside = False
    for ring in rings:
        for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
            if (y0 <= y) != (y1 <= y):
                xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
                if x < xc:
                    inside = not inside
    return inside


def rings_bbox(rings: Iterable[Ring]) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for ring in rings:
        xs.extend(p[0] for p in ring)
        ys.extend(p[1] for p in ring)
    if not xs:
        raise ValueError("no points")
    return min(xs), min(ys), max(xs), max(ys)
