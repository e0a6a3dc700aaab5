"""Delaunay triangulation and the alpha filtration built on top of it.

The triangulation is Bowyer-Watson incremental insertion inside a large
enclosing triangle, over a map from each edge to the triangles that own it.
A point's cavity is found by walking that map from the last triangle created
towards the point until a triangle's circumcircle strictly holds it, then
growing through neighbours.  The in-circle test is exact (a float
determinant with an exact integer fallback near zero), and under an exact
test the cavity is edge-connected and holds the triangle containing the
point, so the walk finds the same cavity as a scan of every triangle.

Cocircular point groups admit several Delaunay triangulations; a post-pass
flips interior edges between exactly cocircular quadrilaterals, always the
one whose new diagonal is lexicographically smallest first, until every
such diagonal is the smallest available, which makes the output canonical.
A heap keyed by the candidate diagonal holds the pending flips.

Alpha filtration values are radii: a triangle enters at its circumradius,
an edge at half its length if its diametral disk contains no other point
(Gabriel), otherwise at the smallest circumradius among its incident
triangles.  Vertices enter at zero.  Whether an edge is Gabriel is decided
from the apexes of its one or two incident triangles alone (the "attached"
test of Edelsbrunner & Muecke): in a Delaunay triangulation a point in the
edge's closed diametral disk on one side lies strictly inside the
circumcircle of that side's triangle unless that triangle's apex is itself
in the disk.

The output is checked edge by edge on the insertion's own edge map, the
enclosing triangle included: its three sides are the only edges with one
triangle, every other edge has two with apexes strictly on opposite sides,
V - E + T = 1 with every point a vertex, and no apex lies strictly inside
the circumcircle of the triangle across its edge (the exact in-circle
test).  The first three make the map a triangulation of the enclosing
triangle; the last makes every edge locally Delaunay, and by the Delaunay
lemma (de Berg et al., *Computational Geometry*, ch. 9) the triangulation
is then Delaunay, so no circumcircle strictly holds any point.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .complexes import FilteredComplex
from .errors import DegenerateTriangulationError, NumericalError
from .geometry import Point, PointCloud, circumcircle, in_circumcircle, orient2d

Edge = tuple[int, int]
Tri = tuple[int, int, int]


@dataclass(frozen=True)
class Triangulation:
    """Triangles as sorted vertex-index triples over a fixed point list.

    ``extra_edges`` carries the single edge of a two-point input, which has
    no triangle to hang it on.
    """

    points: tuple[Point, ...]
    triangles: tuple[tuple[int, int, int], ...]
    extra_edges: tuple[tuple[int, int], ...] = field(default=())

    def edges(self) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set(self.extra_edges)
        for a, b, c in self.triangles:
            out.update(((a, b), (a, c), (b, c)))
        return out


def _in_circle(pa: Point, pb: Point, pc: Point, p: Point) -> int:
    """+1 if p is strictly inside circle(pa, pb, pc), -1 outside, 0 on it."""
    if orient2d(pa, pb, pc) < 0:
        pb, pc = pc, pb
    return in_circumcircle(pa, pb, pc, p)


def _sides(t: Tri) -> tuple[tuple[Edge, int], ...]:
    """The edges of a sorted triangle, each with its opposite vertex."""
    a, b, c = t
    return (((a, b), c), ((a, c), b), ((b, c), a))


def _link(owners: dict[Edge, list[Tri]], t: Tri) -> None:
    for e, _ in _sides(t):
        owners.setdefault(e, []).append(t)


def _unlink(owners: dict[Edge, list[Tri]], t: Tri) -> None:
    for e, _ in _sides(t):
        ts = owners[e]
        ts.remove(t)
        if not ts:
            del owners[e]


def _triangles(owners: dict[Edge, list[Tri]]) -> set[Tri]:
    return {t for ts in owners.values() for t in ts}


def _across(owners: dict[Edge, list[Tri]], t: Tri, e: Edge) -> Tri | None:
    """The triangle sharing edge ``e`` with ``t``, if any."""
    for other in owners[e]:
        if other != t:
            return other
    return None


def _cavity(
    verts: list[Point],
    owners: dict[Edge, list[Tri]],
    start: Tri,
    p: Point,
) -> list[Tri]:
    """Every triangle whose circumcircle strictly holds ``p``.

    A depth-first search from ``start`` that steps first across edges with
    ``p`` on their far side (a visibility walk) stops at the first such
    triangle; the search covers every triangle, so it finds one if any
    exists.  The cavity then grows from it through neighbours, which under
    an exact in-circle test reaches every such triangle.
    """
    sign: dict[Tri, int] = {}

    def holds(t: Tri) -> bool:
        if t not in sign:
            sign[t] = _in_circle(verts[t[0]], verts[t[1]], verts[t[2]], p)
        return sign[t] > 0

    seed = None
    stack = [start]
    seen = {start}
    while stack:
        t = stack.pop()
        if holds(t):
            seed = t
            break
        toward = []
        for (u, v), w in _sides(t):
            nb = _across(owners, t, (u, v))
            if nb is None or nb in seen:
                continue
            seen.add(nb)
            side_p = orient2d(verts[u], verts[v], p)
            side_w = orient2d(verts[u], verts[v], verts[w])
            if (side_p > 0 and side_w < 0) or (side_p < 0 and side_w > 0):
                toward.append(nb)
            else:
                stack.append(nb)
        stack.extend(toward)
    if seed is None:
        return []

    bad = [seed]
    inside = {seed}
    for t in bad:  # grows while it is iterated
        for e, _ in _sides(t):
            nb = _across(owners, t, e)
            if nb is not None and nb not in inside and holds(nb):
                inside.add(nb)
                bad.append(nb)
    return bad


def _finite_normal(x: float) -> bool:
    return math.isfinite(x) and abs(x) >= sys.float_info.min


def delaunay_triangulation(pc: PointCloud) -> Triangulation:
    """Delaunay triangulation of the cloud, canonical under cocircularity.

    Fewer than three points give a triangle-free result (a single edge for
    two points).  Exactly duplicated points and fully collinear input are
    rejected, and so are coordinates whose float orientation tests would
    overflow (the enclosing triangle's doubled area is not a finite normal
    float) or underflow (nor is the squared span of the points).  The output
    is verified before the enclosing triangle's vertices are dropped: the
    edge map must be a triangulation of the enclosing triangle with every
    point a vertex and every edge locally Delaunay, so every triangle's
    circumcircle is empty of all other points.
    """
    points = pc.points
    n = len(points)
    if len(set(points)) < n:
        raise NumericalError("duplicate points cannot be triangulated")
    if n < 3:
        extra = ((0, 1),) if n == 2 else ()
        return Triangulation(points=points, triangles=(), extra_edges=extra)

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    cx = (min(xs) + max(xs)) / 2.0
    cy = (min(ys) + max(ys)) / 2.0
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    big = 1e6 * max(span, 1.0)
    # Enclosing triangle; its vertices use indices n, n+1, n+2.
    enclosing = [
        (cx - 2.0 * big, cy - big),
        (cx + 2.0 * big, cy - big),
        (cx, cy + 2.0 * big),
    ]
    if not (_finite_normal(orient2d(*enclosing)) and _finite_normal(span * span)):
        lo, hi = min(min(xs), min(ys)), max(max(xs), max(ys))
        raise NumericalError(
            f"coordinates in [{lo:.3g}, {hi:.3g}] (span {span:.3g}) are out of "
            "range for floating-point orientation tests"
        )
    verts = list(points) + enclosing
    last: Tri = (n, n + 1, n + 2)
    owners: dict[Edge, list[Tri]] = {}
    _link(owners, last)

    for p_idx in range(n):
        p = verts[p_idx]
        bad = _cavity(verts, owners, last, p)
        inside = set(bad)
        rim = [
            e
            for t in bad
            for e, _ in _sides(t)
            if _across(owners, t, e) not in inside
        ]
        for t in bad:
            _unlink(owners, t)
        for a, b in rim:
            if orient2d(verts[a], verts[b], p) == 0.0:
                raise NumericalError(
                    f"degenerate cavity while inserting point {p_idx}"
                )
            last = tuple(sorted((a, b, p_idx)))  # type: ignore[assignment]
            _link(owners, last)

    _canonical_cocircular_flips(verts, owners, n)
    _verify_delaunay(verts, owners, n)
    real = tuple(sorted(t for t in _triangles(owners) if t[2] < n))
    if not real:
        raise DegenerateTriangulationError("all points are collinear")
    return Triangulation(points=points, triangles=real)


def _canonical_cocircular_flips(
    verts: list[Point], owners: dict[Edge, list[Tri]], n: int
) -> None:
    """Flip exactly-cocircular interior edges to the lex-smallest diagonal.

    Edits the edge map in place.  Only quadrilaterals of the ``n`` points
    count: an edge with an enclosing vertex (index >= n) as an end or an
    apex is never flipped.  Each step flips the interior edge, among all
    whose quadrilateral is exactly cocircular and whose other diagonal is
    lex-smaller, with the smallest other diagonal.  A heap keyed
    ``(diagonal, edge)`` holds the candidates; an entry is stale once its
    edge is gone or has other apexes.  A flip changes the apexes of the
    quadrilateral's four outer edges only, so those are the edges tested
    again.  Each flip strictly lowers the sorted diagonal pair, so this
    terminates; among cocircular configurations every flip preserves
    Delaunayness.
    """

    def apexes(e: Edge) -> Edge | None:
        ts = owners.get(e)
        if ts is None or len(ts) != 2:
            return None
        c = next(v for v in ts[0] if v not in e)
        d = next(v for v in ts[1] if v not in e)
        return (min(c, d), max(c, d))

    def candidate(e: Edge) -> Edge | None:
        alt = apexes(e)
        if alt is None or alt >= e or max(e[1], alt[1]) >= n:
            return None
        a, b = e
        c, d = alt
        if _in_circle(verts[a], verts[b], verts[c], verts[d]) != 0:
            return None
        return alt

    heap = [(alt, e) for e in owners if (alt := candidate(e)) is not None]
    heapq.heapify(heap)
    while heap:
        alt, e = heapq.heappop(heap)
        if apexes(e) != alt:
            continue
        (a, b), (c, d) = e, alt
        for t in list(owners[e]):
            _unlink(owners, t)
        _link(owners, tuple(sorted((a, c, d))))  # type: ignore[arg-type]
        _link(owners, tuple(sorted((b, c, d))))  # type: ignore[arg-type]
        for u, v in ((a, c), (a, d), (b, c), (b, d)):
            outer = (min(u, v), max(u, v))
            nxt = candidate(outer)
            if nxt is not None:
                heapq.heappush(heap, (nxt, outer))


def _verify_delaunay(verts: list[Point], owners: dict[Edge, list[Tri]], n: int) -> None:
    """Raise unless the edge map is a Delaunay triangulation of all ``verts``.

    The checks are the module docstring's, with the enclosing triangle on
    vertices n, n+1, n+2.  The signs of the two orientations are compared
    rather than multiplied, since the product of two tiny areas can
    underflow to zero.
    """
    hull = {(n, n + 1), (n, n + 2), (n + 1, n + 2)}
    for e, ts in owners.items():
        if len(ts) == 1 and e in hull:
            continue
        if len(ts) != 2:
            raise NumericalError(f"triangulation failed verification at edge {e}")
        a, b = e
        c, d = (next(v for v in t if v not in e) for t in ts)
        side_c = orient2d(verts[a], verts[b], verts[c])
        side_d = orient2d(verts[a], verts[b], verts[d])
        if not ((side_c > 0 and side_d < 0) or (side_c < 0 and side_d > 0)) or (
            _in_circle(verts[a], verts[b], verts[c], verts[d]) > 0
        ):
            raise NumericalError(f"triangulation failed verification at edge {e}")
    if (n + 3) - len(owners) + len(_triangles(owners)) != 1:
        raise NumericalError("triangulation failed verification: V - E + T != 1")


def _dist_sq(a: Point, b: Point) -> float:
    """Squared distance from a to b, or inf when it overflows."""
    (ux, uy), (vx, vy) = a, b
    try:
        return (ux - vx) ** 2 + (uy - vy) ** 2
    except OverflowError:
        return math.inf


def alpha_filtration(tri: Triangulation, pc: PointCloud) -> FilteredComplex:
    """Alpha complex of the cloud as a filtration of the triangulation.

    Raises NumericalError when a radius is not finite (coordinates too
    large for their squares to be floats) or cannot be computed at all.
    """
    points = pc.points
    if tri.points != points:
        raise ValueError("triangulation does not belong to this point cloud")

    radii: list[float] = []
    incident: dict[Edge, list[tuple[float, int]]] = {}  # (radius, apex) per side
    for t in tri.triangles:
        try:
            _, r = circumcircle(points[t[0]], points[t[1]], points[t[2]])
        except ValueError:  # a sliver whose float circumcircle formula gives 0
            raise NumericalError(f"no float circumradius for thin triangle {t}") from None
        radii.append(r)
        for e, apex in _sides(t):
            incident.setdefault(e, []).append((r, apex))

    edges = sorted([*incident, *tri.extra_edges])
    r2s = [_dist_sq(points[u], points[v]) / 4.0 for u, v in edges]
    if not all(map(math.isfinite, [*radii, *r2s])):
        raise NumericalError("alpha radius is not finite; coordinates are too large")
    edge_values = []
    for (u, v), r2 in zip(edges, r2s):
        sides = incident.get((u, v), ())
        (ux, uy), (vx, vy) = points[u], points[v]
        mid = ((ux + vx) / 2.0, (uy + vy) / 2.0)
        bound = r2 + 1e-12 * max(r2, 1.0)  # closed disk, 1e-12 relative slack
        gabriel = all(_dist_sq(points[w], mid) > bound for _, w in sides)
        # A Gabriel edge enters at its half length, which can exceed the
        # circumradius of a near-right triangle on it by an ulp; the edge
        # then enters with that triangle, so that no face enters after a
        # coface.
        edge_values.append(
            min((math.sqrt(r2) if gabriel else math.inf, *(r for r, _ in sides)))
        )
    return FilteredComplex._from_arrays(
        [np.arange(len(points)), edges, tri.triangles],
        [np.zeros(len(points)), edge_values, radii],
    )


def build_alpha_complex(pc: PointCloud) -> FilteredComplex:
    """Triangulate and filter in one step, handling tiny inputs."""
    n = len(pc)
    if n == 0:
        raise ValueError("empty point cloud")
    if n == 1:
        return FilteredComplex([((0,), 0.0)])
    return alpha_filtration(delaunay_triangulation(pc), pc)
