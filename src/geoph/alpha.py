"""Delaunay triangulation and the alpha filtration built on top of it.

The triangulation is Bowyer-Watson incremental insertion inside a large
enclosing triangle, on plain lists: each triangle keeps its vertices in
counterclockwise order and the three triangles across its edges.  A point's
cavity is found by walking those links from the last triangle made towards
the point until a triangle's circumcircle strictly holds it, then growing
through neighbours.  The in-circle test is exact: a float determinant with
an exact fallback, near zero or on overflow, on integer coordinates made
once per vertex, and a vertex order fixed when the triangle is made by an
exact orientation on those coordinates.  Under an exact test the cavity is edge-connected and
holds the triangle containing the point, so the walk finds the same cavity
as a scan of every triangle.  Only after the last insertion is the map
from each edge to its triangles built; the flips and the verification
below work on that map, not on the links.

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

The output is checked edge by edge on that edge map, the enclosing
triangle included: its three sides are the only edges with one triangle,
every other edge has two with apexes strictly on opposite sides (an exact
orientation test), V - E + T = 1 with every point a vertex, and no apex
lies strictly inside the circumcircle of the triangle across its edge
(the exact in-circle test).  The first three make the map a
triangulation of the enclosing triangle; the last makes every edge
locally Delaunay, and by the Delaunay lemma (de Berg et al.,
*Computational Geometry*, ch. 9) the triangulation is then Delaunay, so no
circumcircle strictly holds any point.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .complexes import FilteredComplex
from .errors import DegenerateTriangulationError, NumericalError
from .geometry import (
    IN_CIRCLE_TOL,
    Point,
    PointCloud,
    circumcircle,
    in_circle_determinant,
    in_circumcircle,
    integer_coordinates,
    orient2d,
)

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


def _in_circle_order(exact: list[tuple[int, int]], t: Tri) -> Tri:
    """The vertices of ``t`` in the in-circle test's order: sorted, then the
    last two swapped if the sorted order is clockwise, by the exact
    orientation on the integer coordinates ``exact``."""
    a, b, c = sorted(t)
    return (a, c, b) if orient2d(exact[a], exact[b], exact[c]) < 0 else (a, b, c)


def _in_circle_at(
    verts: list[Point], exact: list[tuple[int, int]], a: int, b: int, c: int, p: int
) -> int:
    """``in_circumcircle`` of vertex p against counterclockwise a, b, c, by
    index: the same float determinant and filter, and an exact fallback on
    the vertices' ``integer_coordinates``, made once per triangulation."""
    det, sq = in_circle_determinant(verts[a], verts[b], verts[c], verts[p])
    scale = max(*sq, 1.0)
    if math.inf > abs(det) > IN_CIRCLE_TOL * scale * scale:
        return 1 if det > 0 else -1
    det, _ = in_circle_determinant(exact[a], exact[b], exact[c], exact[p])
    return (det > 0) - (det < 0)


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
    exact = integer_coordinates(verts)
    # Triangle t has counterclockwise vertices tv[t], nb[t][i] is the
    # triangle across the edge opposite tv[t][i] (-1 for none), and ic[t]
    # is its vertices in _in_circle_order.
    tv: list[Tri] = [(n, n + 1, n + 2)]
    nb = [[-1, -1, -1]]
    ic = [_in_circle_order(exact, tv[0])]
    last = 0

    for p in range(n):
        pt = verts[p]
        # The seed: a depth-first search from the last triangle made that
        # steps first across edges with p on their far side (a visibility
        # walk) stops at the first triangle whose circumcircle strictly
        # holds p; the search covers every triangle, so it finds one.
        stack, seen, outside = [last], {last}, set()
        while stack:
            t = stack.pop()
            if _in_circle_at(verts, exact, *ic[t], p) > 0:
                break
            outside.add(t)
            toward = []
            a, b, c = tv[t]
            for u, (v, w) in zip(nb[t], ((b, c), (c, a), (a, b))):
                if u >= 0 and u not in seen:
                    seen.add(u)
                    (toward if orient2d(verts[v], verts[w], pt) < 0 else stack).append(u)
            stack.extend(toward)
        else:  # no seed: p is left out, and the verification fails
            continue
        # The cavity grows from the seed through neighbours; under an exact
        # in-circle test it reaches every triangle whose circumcircle
        # strictly holds p.  Its rim edges keep the cavity's orientation,
        # each with the triangle outside it and that one's slot facing in.
        bad, inside, rim = [t], {t}, []
        for t in bad:  # grows while it is iterated
            a, b, c = tv[t]
            for u, (v, w) in zip(nb[t], ((b, c), (c, a), (a, b))):
                if u in inside:
                    continue
                if u >= 0 and u not in outside:
                    if _in_circle_at(verts, exact, *ic[u], p) > 0:
                        inside.add(u)
                        bad.append(u)
                        continue
                    outside.add(u)
                if orient2d(exact[v], exact[w], exact[p]) == 0:
                    raise NumericalError(f"degenerate cavity while inserting point {p}")
                rim.append((v, w, u, nb[u].index(t) if u >= 0 else -1))
        # The cavity's slots are reused first.  New triangle (v, w, p) faces
        # the one outside across v-w, and its neighbours across w-p and p-v
        # are the new triangles on the rim edges starting at w and ending at v.
        extra = len(rim) - len(bad)  # two, as the cavity is a disk
        slots = bad + list(range(len(tv), len(tv) + extra))
        tv += [(-1, -1, -1)] * extra
        ic += [(-1, -1, -1)] * extra
        nb += [[-1, -1, -1] for _ in range(extra)]
        starts = {}
        for t, (v, w, u, back) in zip(slots, rim):
            tv[t], nb[t][2], ic[t] = (v, w, p), u, _in_circle_order(exact, (v, w, p))
            if u >= 0:
                nb[u][back] = t
            starts[v] = t
        for t in slots:
            s = starts[tv[t][1]]
            nb[t][0], nb[s][1] = s, t
        last = slots[-1]

    del nb, ic  # freed before the edge map is built, so the two do not coexist
    owners: dict[Edge, list[Tri]] = {}
    for t in tv:
        _link(owners, tuple(sorted(t)))  # type: ignore[arg-type]
    del tv
    _canonical_cocircular_flips(verts, owners, n)
    _verify_delaunay(verts, exact, owners, n)
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
        # whether d is on the circle does not depend on the orientation of a, b, c
        if in_circumcircle(verts[a], verts[b], verts[c], verts[d]) != 0:
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


def _verify_delaunay(
    verts: list[Point], exact: list[tuple[int, int]], owners: dict[Edge, list[Tri]], n: int
) -> None:
    """Raise unless the edge map is a Delaunay triangulation of all ``verts``.

    The checks are the module docstring's, with the enclosing triangle on
    vertices n, n+1, n+2.  The orientations are exact, on the vertices'
    integer coordinates ``exact``: they decide the apexes' sides and the
    counterclockwise order of the in-circle test, so a valid triangle too
    thin for a float orientation to see passes.
    """
    hull = {(n, n + 1), (n, n + 2), (n + 1, n + 2)}
    for e, ts in owners.items():
        if len(ts) == 1 and e in hull:
            continue
        if len(ts) != 2:
            raise NumericalError(f"triangulation failed verification at edge {e}")
        a, b = e
        c, d = (next(v for v in t if v not in e) for t in ts)
        side_c = orient2d(exact[a], exact[b], exact[c])
        side_d = orient2d(exact[a], exact[b], exact[d])
        u, w = (b, c) if side_c > 0 else (c, b)  # a, u, w counterclockwise
        if side_c * side_d >= 0 or in_circumcircle(verts[a], verts[u], verts[w], verts[d]) > 0:
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
