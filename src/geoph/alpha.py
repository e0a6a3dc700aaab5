"""Delaunay triangulation and the alpha filtration built on top of it.

The triangulation is Bowyer-Watson incremental insertion inside a large
enclosing triangle, with an exact-arithmetic fallback for near-degenerate
in-circle tests.  Cocircular point groups admit several Delaunay
triangulations; a post-pass flips interior edges between exactly cocircular
quadrilaterals until every such diagonal is the lexicographically smallest
available, which makes the output canonical.

Alpha filtration values are radii: a triangle enters at its circumradius,
an edge at half its length if its diametral disk contains no other point
(Gabriel), otherwise at the smallest circumradius among its incident
triangles.  Vertices enter at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .complexes import Entry, FilteredComplex, close_under_faces
from .errors import DegenerateTriangulationError, NumericalError
from .geometry import Point, PointCloud, circumcircle, in_circumcircle, orient2d


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


def _in_circle(pa: Point, pb: Point, pc: Point, p: Point, tol: float) -> int:
    """+1 if p is strictly inside circle(pa, pb, pc), -1 outside, 0 on it."""
    if orient2d(pa, pb, pc) < 0:
        pb, pc = pc, pb
    return in_circumcircle(pa, pb, pc, p, tol=tol)


def delaunay_triangulation(pc: PointCloud, tol: float = 1e-12) -> Triangulation:
    """Delaunay triangulation of the cloud, canonical under cocircularity.

    Fewer than three points give a triangle-free result (a single edge for
    two points).  Exactly duplicated points and fully collinear input are
    rejected.  The output is verified: every triangle's circumcircle must
    be empty of all other points.
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
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    big = 1e6 * span
    # Enclosing triangle; its vertices use indices n, n+1, n+2.
    verts = list(points) + [
        (cx - 2.0 * big, cy - big),
        (cx + 2.0 * big, cy - big),
        (cx, cy + 2.0 * big),
    ]
    triangles: set[tuple[int, int, int]] = {(n, n + 1, n + 2)}

    for p_idx in range(n):
        p = verts[p_idx]
        bad = [
            t
            for t in triangles
            if _in_circle(verts[t[0]], verts[t[1]], verts[t[2]], p, tol) > 0
        ]
        edge_count: dict[tuple[int, int], int] = {}
        for a, b, c in bad:
            for e in ((a, b), (a, c), (b, c)):
                edge_count[e] = edge_count.get(e, 0) + 1
        triangles.difference_update(bad)
        for (a, b), k in edge_count.items():
            if k != 1:
                continue
            if orient2d(verts[a], verts[b], p) == 0.0:
                raise NumericalError(
                    f"degenerate cavity while inserting point {p_idx}"
                )
            triangles.add(tuple(sorted((a, b, p_idx))))  # type: ignore[arg-type]

    real = tuple(
        sorted(t for t in triangles if all(v < n for v in t))
    )
    if not real:
        raise DegenerateTriangulationError("all points are collinear")
    real = _canonical_cocircular_flips(points, real, tol)

    for t in real:
        pa, pb, pc_ = (points[v] for v in t)
        for q in range(n):
            if q in t:
                continue
            if _in_circle(pa, pb, pc_, points[q], tol) > 0:
                raise NumericalError(
                    f"triangulation failed verification at triangle {t}"
                )
    return Triangulation(points=points, triangles=real)


def _canonical_cocircular_flips(
    points: tuple[Point, ...],
    triangles: tuple[tuple[int, int, int], ...],
    tol: float,
) -> tuple[tuple[int, int, int], ...]:
    """Flip exactly-cocircular interior edges to the lex-smallest diagonal.

    Each flip strictly lowers the sorted diagonal pair, so this terminates;
    among cocircular configurations every flip preserves Delaunayness.
    """
    tris = set(triangles)
    while True:
        by_edge: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for t in tris:
            a, b, c = t
            for e in ((a, b), (a, c), (b, c)):
                by_edge.setdefault(e, []).append(t)
        best: tuple[tuple[int, int], tuple[int, int]] | None = None
        for (a, b), owners in by_edge.items():
            if len(owners) != 2:
                continue
            c = next(v for v in owners[0] if v not in (a, b))
            d = next(v for v in owners[1] if v not in (a, b))
            alt = (min(c, d), max(c, d))
            if alt >= (a, b):
                continue
            if _in_circle(points[a], points[b], points[c], points[d], tol) != 0:
                continue
            if best is None or alt < best[0]:
                best = (alt, (a, b))
        if best is None:
            return tuple(sorted(tris))
        (c, d), (a, b) = best
        tris.discard(tuple(sorted((a, b, c))))  # type: ignore[arg-type]
        tris.discard(tuple(sorted((a, b, d))))  # type: ignore[arg-type]
        tris.add(tuple(sorted((a, c, d))))  # type: ignore[arg-type]
        tris.add(tuple(sorted((b, c, d))))  # type: ignore[arg-type]


def alpha_filtration(tri: Triangulation, pc: PointCloud) -> FilteredComplex:
    """Alpha complex of the cloud as a filtration of the triangulation."""
    points = pc.points
    if tri.points != points:
        raise ValueError("triangulation does not belong to this point cloud")
    entries: list[Entry] = [((v,), 0.0) for v in range(len(points))]

    radius: dict[tuple[int, int, int], float] = {}
    for t in tri.triangles:
        _, r = circumcircle(points[t[0]], points[t[1]], points[t[2]])
        radius[t] = r
        entries.append((t, r))

    incident: dict[tuple[int, int], list[float]] = {}
    for t in tri.triangles:
        a, b, c = t
        for e in ((a, b), (a, c), (b, c)):
            incident.setdefault(e, []).append(radius[t])

    for e in sorted(tri.edges()):
        u, v = e
        (ux, uy), (vx, vy) = points[u], points[v]
        mx, my = (ux + vx) / 2.0, (uy + vy) / 2.0
        r2 = ((ux - vx) ** 2 + (uy - vy) ** 2) / 4.0
        gabriel = True
        slack = 1e-12 * max(r2, 1.0)
        for w, (wx, wy) in enumerate(points):
            if w == u or w == v:
                continue
            if (wx - mx) ** 2 + (wy - my) ** 2 <= r2 + slack:
                gabriel = False
                break
        if gabriel:
            entries.append((e, math.sqrt(r2)))
        else:
            entries.append((e, min(incident[e])))
    return close_under_faces(entries)


def build_alpha_complex(pc: PointCloud, tol: float = 1e-12) -> FilteredComplex:
    """Triangulate and filter in one step, handling tiny inputs."""
    n = len(pc)
    if n == 0:
        raise ValueError("empty point cloud")
    if n == 1:
        return FilteredComplex([((0,), 0.0)])
    return alpha_filtration(delaunay_triangulation(pc, tol=tol), pc)
