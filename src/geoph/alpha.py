"""Delaunay triangulation and the alpha filtration built on top of it.

The triangulation is Bowyer-Watson incremental insertion inside a large
enclosing triangle, on plain lists: each triangle keeps its vertices in
counterclockwise order and the three triangles across its edges.  A point's
cavity is found by walking those links from the last triangle made towards
the point until a triangle's circumcircle strictly holds it, then growing
through neighbours.  The insertion, the flips and the verification below
decide every in-circle test with one exact predicate,
``geometry.in_circle_at``: a float determinant with an exact fallback, near
zero or on overflow, on one table of integer coordinates made once per
triangulation.  The test takes a triangle's counterclockwise row as it is:
the float filter decides only a sign it is sure of, so every rotation of
the row gets the same answer.  Under an exact test the
cavity is edge-connected and holds the triangle containing the point, so the
walk finds the same cavity as a scan of every triangle.  These rows are the
one triangulation kept to the output: the flips rewrite them in place, and
every later step lists their edges with ``_edges``.

The points are inserted along a Hilbert curve over their bounding square
(the spatial sort of Amenta, Choi and Rote's BRIO), so each lands next to
the last triangle made: the walk stays short, and the cavity stays a few
triangles instead of the fan along the hull that row-major input gives.
A Delaunay triangulation depends on the order only in how it splits
cocircular groups, which the flip pass below makes canonical; vertices
keep their input indices, so the output does not depend on the order,
except in a cocircular group that holds an enclosing vertex: the flip
pass never flips an edge with an enclosing vertex as an end or an apex,
so such a group keeps the split the insertion order gave it.

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

The output is checked edge by edge on the vertex rows alone, the enclosing
triangle included: its three sides are the only edges with one triangle,
every other edge has two with apexes strictly on opposite sides (an exact
orientation test), V - E + T = 1 with every point a vertex, and no apex
lies strictly inside the circumcircle of the triangle across its edge
(the insertion's in-circle test).  The first three make the rows a
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
    Point,
    PointCloud,
    circumcircle,
    in_circle_at,
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
        ends, _, _ = _edges(np.array(self.triangles, dtype=np.int64).reshape(-1, 3))
        return set(self.extra_edges).union(map(tuple, ends.tolist()))


def _edges(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of the triangles ``tri``, a (T, 3) vertex array, from one
    sort of their sides.

    Side ``s`` is the edge of triangle ``s // 3`` opposite its apex
    ``tri.ravel()[s]``.  Returns the edges' (E, 2) sorted ends in
    lexicographic order, the number of sides on each edge, and each edge's
    first two sides as an (E, 2) array, -1 where it has one.
    """
    u, v = np.roll(tri, -1, axis=1).ravel(), np.roll(tri, -2, axis=1).ravel()
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    code = lo * (int(tri.max(initial=0)) + 1) + hi
    order = np.argsort(code, kind="stable")
    start = np.flatnonzero(np.diff(code[order], prepend=-1))
    count = np.diff(start, append=len(order))
    first = order[start]
    second = np.where(count > 1, order[np.minimum(start + 1, len(order) - 1)], -1)
    return np.stack([lo[first], hi[first]], axis=1), count, np.stack([first, second], axis=1)


def _finite_normal(x: float) -> bool:
    return math.isfinite(x) and abs(x) >= sys.float_info.min


def _hilbert_order(points: tuple[Point, ...], lo: Point, span: float) -> list[int]:
    """Point indices along a Hilbert curve over the bounding square with
    corner ``lo`` and side ``span``, quantized to a 2**16 x 2**16 grid;
    points in one cell keep input order."""
    xy = np.array(points, dtype=float)
    x, y = ((xy - lo) / span * (2**16 - 1)).astype(np.int64).T
    d = np.zeros(len(xy), dtype=np.int64)
    for s in (1 << np.arange(15, -1, -1)).tolist():  # one bit per round, high first
        rx, ry = (x & s) > 0, (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        # rotate the quadrant's lower bits into the curve's frame: reflect, then transpose
        flip = (rx & ~ry) * (s - 1)
        x, y = x ^ flip, y ^ flip
        x, y = np.where(ry, x, y), np.where(ry, y, x)
    return np.argsort(d, kind="stable").tolist()


def delaunay_triangulation(pc: PointCloud) -> Triangulation:
    """Delaunay triangulation of the cloud, canonical under cocircularity.

    Fewer than three points give a triangle-free result (a single edge for
    two points).  Exactly duplicated points and fully collinear input are
    rejected, and so are clouds whose hull is too thin for the enclosing
    triangle (no triangle avoids its vertices), and coordinates whose float
    orientation tests would overflow (the enclosing triangle's doubled area
    is not a finite normal float) or underflow (nor is the squared span of
    the points).  The output is verified before the enclosing triangle's
    vertices are dropped: the triangles must be a triangulation of the
    enclosing triangle with every point a vertex and every edge locally
    Delaunay, so every triangle's circumcircle is empty of all other points.
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
    # Triangle t has counterclockwise vertices tv[t], and nb[t][i] is the
    # triangle across the edge opposite tv[t][i] (-1 for none).
    tv: list[Tri] = [(n, n + 1, n + 2)]
    nb = [[-1, -1, -1]]
    last = 0

    for p in _hilbert_order(points, (min(xs), min(ys)), span):
        pt = verts[p]
        # The seed: a depth-first search from the last triangle made that
        # steps first across edges with p on their far side (a visibility
        # walk) stops at the first triangle whose circumcircle strictly
        # holds p; the search covers every triangle, so it finds one.
        stack, seen, outside = [last], {last}, set()
        while stack:
            t = stack.pop()
            if in_circle_at(verts, exact, *tv[t], p) > 0:
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
                    if in_circle_at(verts, exact, *tv[u], p) > 0:
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
        nb += [[-1, -1, -1] for _ in range(extra)]
        starts = {}
        for t, (v, w, u, back) in zip(slots, rim):
            tv[t], nb[t][2] = (v, w, p), u
            if u >= 0:
                nb[u][back] = t
            starts[v] = t
        for t in slots:
            s = starts[tv[t][1]]
            nb[t][0], nb[s][1] = s, t
        last = slots[-1]

    _canonical_cocircular_flips(verts, exact, tv, nb, n)
    rows = np.sort(np.array(tv, dtype=np.int64), axis=1)
    _verify_delaunay(verts, exact, rows, n)
    rows = rows[rows[:, 2] < n]
    real = tuple(map(tuple, rows[np.lexsort(rows.T[::-1])].tolist()))
    if not real:
        a, b = exact[0], exact[1]
        if any(orient2d(a, b, c) for c in exact[2:n]):
            raise DegenerateTriangulationError(
                "no triangle avoids the enclosing vertices: the points' convex hull is "
                "too thin for the enclosing triangle to resolve"
            )
        raise DegenerateTriangulationError("all points are collinear")
    return Triangulation(points=points, triangles=real)


def _canonical_cocircular_flips(
    verts: list[Point], exact: list[tuple[int, int]], tv: list[Tri], nb: list[list[int]], n: int
) -> None:
    """Flip exactly-cocircular interior edges to the lex-smallest diagonal.

    Edits the insertion's rows ``tv`` and ``nb`` in place.  Only
    quadrilaterals of the ``n`` points count: an edge with an enclosing
    vertex (index >= n) as an end or an apex is never flipped.  Each step
    flips the interior edge, among all whose quadrilateral is exactly
    cocircular and whose other diagonal is lex-smaller, with the smallest
    other diagonal.  A heap keyed ``(diagonal, edge, triangle)`` holds the
    candidates; an entry is stale once its triangle no longer holds its
    edge with those apexes.  A flip rewrites the quadrilateral's two rows
    and changes the apexes of its four outer edges only, so those are the
    edges tested again.  Each flip strictly lowers the sorted diagonal
    pair, so this terminates; among cocircular configurations every flip
    preserves Delaunayness.  Cocircularity is the insertion's
    ``in_circle_at`` on the integer coordinates ``exact``, so it is exact.
    """

    def apexes(e: Edge, t: int) -> Edge | None:
        """The sorted apexes of edge e in row t and the row across it, or
        None when row t does not hold e."""
        row = tv[t]
        if e[0] not in row or e[1] not in row:
            return None
        i = 3 - row.index(e[0]) - row.index(e[1])
        u = nb[t][i]
        return tuple(sorted((row[i], tv[u][nb[u].index(t)])))  # type: ignore[return-value]

    def flippable(e: Edge, alt: Edge) -> bool:
        # whether d is on the circle does not depend on the orientation of a, b, c
        return alt < e and max(e[1], alt[1]) < n and in_circle_at(verts, exact, *e, *alt) == 0

    tri = np.array(tv, dtype=np.int64)
    ends, count, sides = _edges(tri)
    two = count == 2
    alts = np.sort(tri.ravel()[sides[two]], axis=1).tolist()
    quads = zip(map(tuple, alts), map(tuple, ends[two].tolist()), (sides[two, 0] // 3).tolist())
    heap = [(alt, e, t) for alt, e, t in quads if flippable(e, alt)]
    heapq.heapify(heap)
    while heap:
        alt, e, t = heapq.heappop(heap)
        if apexes(e, t) != alt:
            continue
        # t = (c, p, q) and the row u = (d, q, p) across p-q become
        # (c, p, d) and (d, q, c); the rows across q-c and p-d change sides.
        i = 3 - tv[t].index(e[0]) - tv[t].index(e[1])
        c, p, q = tv[t][i:] + tv[t][:i]
        u = nb[t][i]
        j = nb[u].index(t)
        d = tv[u][j]
        qc, cp = nb[t][(i + 1) % 3], nb[t][(i + 2) % 3]
        pd, dq = nb[u][(j + 1) % 3], nb[u][(j + 2) % 3]
        tv[t], nb[t] = (c, p, d), [pd, u, cp]
        tv[u], nb[u] = (d, q, c), [qc, t, dq]
        nb[pd][nb[pd].index(u)] = t
        nb[qc][nb[qc].index(t)] = u
        for x, y, row in ((c, p, t), (p, d, t), (d, q, u), (q, c, u)):
            outer = (x, y) if x < y else (y, x)
            nxt = apexes(outer, row)
            if nxt is not None and flippable(outer, nxt):
                heapq.heappush(heap, (nxt, outer, row))


def _verify_delaunay(
    verts: list[Point], exact: list[tuple[int, int]], tri: np.ndarray, n: int
) -> None:
    """Raise unless the triangles ``tri``, a (T, 3) vertex array, are a
    Delaunay triangulation of all ``verts``.

    The checks are the module docstring's, with the enclosing triangle on
    vertices n, n+1, n+2.  The orientations are exact, on the vertices'
    integer coordinates ``exact``: they decide the apexes' sides and the
    counterclockwise order of the in-circle test, so a valid triangle too
    thin for a float orientation to see passes.  The in-circle test is the
    insertion's ``in_circle_at`` on the same ``exact``.
    """
    ends, count, sides = _edges(tri)
    # only the enclosing triangle's sides (both ends >= n) have one triangle
    bad = (count > 2) | ((count == 1) & (ends[:, 0] < n))
    if bad.any():
        e = tuple(ends[bad.argmax()].tolist())
        raise NumericalError(f"triangulation failed verification at edge {e}")
    two = count == 2
    for (a, b), (c, d) in zip(ends[two].tolist(), tri.ravel()[sides[two]].tolist()):
        side_c = orient2d(exact[a], exact[b], exact[c])
        side_d = orient2d(exact[a], exact[b], exact[d])
        u, w = (b, c) if side_c > 0 else (c, b)  # a, u, w counterclockwise
        if side_c * side_d >= 0 or in_circle_at(verts, exact, a, u, w, d) > 0:
            raise NumericalError(f"triangulation failed verification at edge {(a, b)}")
    if (n + 3) - len(ends) + len(tri) != 1:
        raise NumericalError("triangulation failed verification: V - E + T != 1")


def alpha_filtration(tri: Triangulation, pc: PointCloud) -> FilteredComplex:
    """Alpha complex of the cloud as a filtration of the triangulation.

    Raises NumericalError when a radius is not finite (coordinates too
    large for their squares to be floats) or cannot be computed at all.
    """
    points = pc.points
    if tri.points != points:
        raise ValueError("triangulation does not belong to this point cloud")

    radii: list[float] = []
    for t in tri.triangles:
        try:
            _, r = circumcircle(points[t[0]], points[t[1]], points[t[2]])
        except (ValueError, OverflowError):  # a sliver whose circle leaves the float range
            raise NumericalError(f"no float circumradius for thin triangle {t}") from None
        radii.append(r)

    rows = np.array(tri.triangles, dtype=np.int64).reshape(-1, 3)
    ends, _, sides = _edges(rows)
    if tri.extra_edges:  # two points: one edge, no triangle
        ends, sides = np.array(tri.extra_edges), np.full((1, 2), -1)
    xy, r = pc.as_array(), np.array(radii)

    def dist_sq(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        # the C library's pow, as Python's ** calls it: x * x and np.power
        # round a few squares differently in the last bit
        return np.float_power(p[:, 0] - q[:, 0], 2) + np.float_power(p[:, 1] - q[:, 1], 2)

    with np.errstate(all="ignore"):  # an overflow gives inf, which is rejected
        u, v = xy[ends[:, 0]], xy[ends[:, 1]]
        r2 = dist_sq(u, v) / 4.0
        if not (np.isfinite(r).all() and np.isfinite(r2).all()):
            raise NumericalError("alpha radius is not finite; coordinates are too large")
        mid = (u + v) / 2.0
        bound = r2 + 1e-12 * r2  # closed disk, 1e-12 relative slack
        gabriel = np.ones(len(ends), dtype=bool)
        lowest = np.full(len(ends), np.inf)
        for s in sides.T:  # each edge's first side, then its second
            on = s >= 0
            apex = xy[rows.ravel()[s[on]]]
            gabriel[on] &= dist_sq(apex, mid[on]) > bound[on]
            lowest[on] = np.minimum(lowest[on], r[s[on] // 3])
    # A Gabriel edge enters at its half length, which can exceed the
    # circumradius of a near-right triangle on it by an ulp; the edge then
    # enters with that triangle, so that no face enters after a coface.
    edge_values = np.minimum(np.where(gabriel, np.sqrt(r2), np.inf), lowest)
    return FilteredComplex._from_arrays(
        [np.arange(len(points)), ends, rows],
        [np.zeros(len(points)), edge_values, radii],
    )


def build_alpha_complex(pc: PointCloud) -> FilteredComplex:
    """Triangulate and filter in one step, handling tiny inputs."""
    if len(pc) == 0:
        raise ValueError("empty point cloud")
    return alpha_filtration(delaunay_triangulation(pc), pc)
