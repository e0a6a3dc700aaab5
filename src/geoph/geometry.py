"""Planar geometry primitives shared by the complex builders.

Everything works on plain (x, y) float pairs.  Polygons are lists of rings,
each ring a closed list of points (first == last).

There is one in-circle test, ``in_circle_at``: a float determinant with an
exact fallback on one table of ``integer_coordinates`` that its caller
makes once for the whole point list.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .complexes import _ranges

Point = tuple[float, float]
Ring = list[Point]

# Relative bound on the float in-circle determinant below which the sign is
# recomputed exactly.
IN_CIRCLE_TOL = 1e-12
# Polygons left when RingTable.centroids stops stepping by segment index
_TAIL = 8


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
            # level 2 is the dataclass's generated __init__; 3 is its caller
            warnings.warn("point cloud contains duplicate coordinates", stacklevel=3)

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

    Where the float ``d`` cancels to 0 (a thin triangle), both come from the
    exact ``integer_coordinates``, and OverflowError is raised for a circle
    beyond the float range.  Raises ValueError for collinear input.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return _exact_circumcircle(a, b, c)
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r = math.hypot(ax - ux, ay - uy)
    return (ux, uy), r


def _exact_circumcircle(a: Point, b: Point, c: Point) -> tuple[Point, float]:
    # the unit point's integer x is the power of two the other three are scaled by
    (ax, ay), (bx, by), (cx, cy), (scale, _) = integer_coordinates((a, b, c, (1.0, 0.0)))
    bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
    d = 2 * (bx * cy - by * cx)
    if d == 0:
        raise ValueError("collinear points have no circumcircle")
    b2, c2 = bx * bx + by * by, cx * cx + cy * cy
    ux, uy = Fraction(cy * b2 - by * c2, d), Fraction(bx * c2 - cx * b2, d)  # center less a
    r = math.ldexp(math.sqrt(ux * ux + uy * uy), 1 - scale.bit_length())
    return (float((ax + ux) / scale), float((ay + uy) / scale)), r


def in_circle_determinant(a, b, c, p):
    """The in-circle determinant of p against a, b, c, with the squared
    distances ``(|a - p|^2, |b - p|^2, |c - p|^2)``.

    Positive when p is inside the circle through a counterclockwise abc.
    Plain arithmetic, so the coordinates may be floats or integers, with
    results of the same kind.
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


def in_circle_at(
    points: Sequence[Point], exact: Sequence[tuple[int, int]], a: int, b: int, c: int, p: int
) -> int:
    """+1, -1 or 0 as point p lies strictly inside, strictly outside or on
    the circle through points a, b, c (by index), which must be
    counterclockwise; for clockwise input the sign flips.  The float
    determinant decides unless it is within ``IN_CIRCLE_TOL`` of zero
    (relative to the squared distances) or overflowed; then it is recomputed
    on ``exact``, the ``integer_coordinates`` of all of ``points``.
    """
    det, sq = in_circle_determinant(points[a], points[b], points[c], points[p])
    scale = max(*sq, 1.0)
    if math.inf > abs(det) > IN_CIRCLE_TOL * scale * scale:
        return 1 if det > 0 else -1
    det, _ = in_circle_determinant(exact[a], exact[b], exact[c], exact[p])
    return (det > 0) - (det < 0)


def integer_coordinates(points: Sequence[Point]) -> list[tuple[int, int]]:
    """The points with every coordinate scaled by one common power of two,
    as exact integers.

    Each coordinate is num / 2**k (``as_integer_ratio``); multiplying all of
    them by the largest 2**k makes them integers.  A common positive factor
    leaves the sign of the orientation and in-circle determinants unchanged.
    """
    ratios = [x.as_integer_ratio() for pt in points for x in pt]
    top = max(den.bit_length() for _, den in ratios)
    ints = [num << (top - den.bit_length()) for num, den in ratios]
    return list(zip(ints[0::2], ints[1::2]))


def orient2d(a: Point, b: Point, c: Point) -> float:
    """Twice the signed area of triangle abc (positive if counterclockwise);
    exact on integer coordinates."""
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


@dataclass(frozen=True, eq=False)
class RingTable:
    """The ring points of a list of polygons, as one table.

    Row k of the ``(N, 2)`` float64 ``points`` is one ring point; each
    ring's closing point (a repeat of its first) is left out.  Ring r holds
    rows ``ring_ptr[r]:ring_ptr[r + 1]``, and ``owner[k]`` is the position
    of the polygon row k belongs to, so ``owner`` never decreases.  Every
    polygon has at least one ring.
    """

    points: np.ndarray
    ring_ptr: np.ndarray
    owner: np.ndarray

    def polygon_ptr(self) -> np.ndarray:
        """Polygon i holds rows ``polygon_ptr()[i]:polygon_ptr()[i + 1]``."""
        first = np.flatnonzero(np.diff(self.owner, prepend=-1))
        return np.append(first, len(self.owner))

    def next_rows(self) -> np.ndarray:
        """The row of each row's next point in its ring, the last wrapping to the first."""
        after = np.arange(1, len(self.owner) + 1)
        after[self.ring_ptr[1:] - 1] = self.ring_ptr[:-1]
        return after

    def boxes(self) -> np.ndarray:
        """Each polygon's bounding box as a ``(P, 4)`` row x0, y0, x1, y1."""
        first = self.polygon_ptr()[:-1]
        return np.hstack(
            [np.minimum.reduceat(self.points, first), np.maximum.reduceat(self.points, first)]
        )

    def centroids(self, polygons: np.ndarray) -> np.ndarray:
        """The area-weighted centroid of each polygon in ``polygons``
        (positions), as a ``(k, 2)`` float64 array: nan where the total
        signed area vanishes, inf where the centroid leaves the float range.

        Rings combine through their signed areas, so conventionally oriented
        holes (clockwise inside a counterclockwise exterior) subtract.  Each
        polygon's shoelace sums run on its coordinates scaled by the power
        of two that brings the largest into [0.5, 1), so their third-order
        terms neither underflow nor overflow; the scaling is exact.  The
        terms are added in ring and segment order, one after another, as a
        scalar loop adds them: one numpy step per segment index across every
        polygon that has that segment, longest polygons first, and once no
        more than ``_TAIL`` polygons are left, one sequential
        ``np.add.accumulate`` each.
        """
        ptr = self.polygon_ptr()
        polygons = np.asarray(polygons, dtype=np.int64)
        count = ptr[polygons + 1] - ptr[polygons]
        if not len(polygons):
            return np.empty((0, 2))
        rows = _ranges(ptr[polygons], count)
        head = np.cumsum(count) - count  # each polygon's first position in rows
        _, e = np.frexp(np.maximum.reduceat(np.abs(self.points[rows]).max(axis=1), head))
        x0, y0 = np.ldexp(self.points[rows], np.repeat(-e, count)[:, None]).T
        nxt = np.arange(len(rows)) + self.next_rows()[rows] - rows
        x1, y1 = x0[nxt], y0[nxt]
        cross = x0 * y1 - x1 * y0
        terms = np.stack([cross, (x0 + x1) * cross, (y0 + y1) * cross])
        # order[:n] are the n polygons with more than j segments, for each j
        order = np.argsort(-count, kind="stable")
        head, count = head[order], count[order]
        active = np.searchsorted(-count, -np.arange(count[0]), side="left")
        steps = int(np.count_nonzero(active > _TAIL))
        sums = np.zeros((3, len(count)))
        for j, n in enumerate(active[:steps].tolist()):
            sums[:, :n] += terms[:, head[:n] + j]
        for p in range(int(active[steps]) if steps < len(active) else 0):
            rest = terms[:, head[p] + steps : head[p] + count[p]]
            sums[:, p] = np.add.accumulate(np.hstack([sums[:, p : p + 1], rest]), axis=1)[:, -1]
        area, ax, ay = sums[:, np.argsort(order)]
        area *= 0.5
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.ldexp(np.stack([ax, ay], axis=1) / (6.0 * area)[:, None], e[:, None])
        out[area == 0.0] = np.nan
        return out

