"""Independent reference implementations used to cross-check the library.

Nothing here imports geoph's builders; these are deliberately naive
re-derivations (brute force or textbook formulas) so that agreement with
the package is evidence, not tautology.  The queen-adjacency references
share only the exact contact predicate (``precincts_touch``) and the
package's map and complex types, and enumerate every pair; the raster
reference shares only the grid shape and the winner selection, and scans
every row.  The Delaunay reference scans every triangle for each cavity and
every edge for each flip, with a ``Fraction`` in-circle test.  The
``barcode.json`` reference is the standard library's JSON encoder, and the
``barcode.svg`` and ``feature_map.svg`` references draw one
``PersistencePair`` at a time.  All three read ``Barcode.rendered()``,
never the barcode's columns.  The
boundary-matrix reference looks every face up in a dict of simplices.
The loader reference reads a FeatureCollection feature by feature and each
ring point by point through ``normalize_ring``, into plain columns; the
centroid reference runs the shoelace sums one segment at a time.  A few
small helpers that only tests use live here too: ``by_id``,
``point_in_rings`` and ``feature_collection``, which is how tests build a
map from polygons and votes.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations

import numpy as np


def by_id(m, pid):
    """The precinct of map ``m`` with id ``pid``."""
    for p in m:
        if p.id == pid:
            return p
    raise KeyError(pid)


def point_in_rings(x, y, rings):
    """Even-odd membership test against the union of ring boundaries."""
    inside = False
    for ring in rings:
        for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
            if (y0 <= y) != (y1 <= y):
                xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
                if x < xc:
                    inside = not inside
    return inside


def naive_vr(points, eps):
    """All-pairs/all-triples Vietoris-Rips reference: {simplex: value}."""
    n = len(points)

    def d(i, j):
        return math.dist(points[i], points[j])

    entries = {(i,): 0.0 for i in range(n)}
    for i, j in combinations(range(n), 2):
        dij = d(i, j)
        if dij <= eps:
            entries[(i, j)] = dij
    for i, j, k in combinations(range(n), 3):
        ds = (d(i, j), d(i, k), d(j, k))
        if max(ds) <= eps:
            entries[(i, j, k)] = max(ds)
    return entries


def hull_point_count(points):
    """Number of input points on the convex hull boundary (collinear included)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return len(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) < 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) < 0:
            upper.pop()
        upper.append(p)
    return len(set(lower[:-1] + upper[:-1]))


def in_circle_det(a, b, c, p):
    """Raw in-circle determinant with abc forced counterclockwise."""
    if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < 0:
        b, c = c, b
    m = np.array(
        [
            [a[0] - p[0], a[1] - p[1], (a[0] - p[0]) ** 2 + (a[1] - p[1]) ** 2],
            [b[0] - p[0], b[1] - p[1], (b[0] - p[0]) ** 2 + (b[1] - p[1]) ** 2],
            [c[0] - p[0], c[1] - p[1], (c[0] - p[0]) ** 2 + (c[1] - p[1]) ** 2],
        ]
    )
    return float(np.linalg.det(m))


def circumcircle_has_point_strictly(points, tri, q, rel_tol=1e-9):
    """True when point q sits strictly inside the circumcircle of tri."""
    a, b, c = (points[v] for v in tri)
    det = in_circle_det(a, b, c, points[q])
    scale = max(
        (a[0] - points[q][0]) ** 2 + (a[1] - points[q][1]) ** 2,
        (b[0] - points[q][0]) ** 2 + (b[1] - points[q][1]) ** 2,
        (c[0] - points[q][0]) ** 2 + (c[1] - points[q][1]) ** 2,
        1.0,
    )
    return det > rel_tol * scale * scale


def in_circle_reference(a, b, c, p, tol=1e-12):
    """In-circle sign with a ``Fraction`` fallback near zero or on overflow:
    +1 inside, -1 outside, 0 on circle(a, b, c) for counterclockwise abc."""
    from fractions import Fraction

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
    scale = max(ad2, bd2, cd2, 1.0)
    if math.inf > abs(det) > tol * scale * scale:
        return 1 if det > 0 else -1
    fadx, fady = Fraction(a[0]) - Fraction(p[0]), Fraction(a[1]) - Fraction(p[1])
    fbdx, fbdy = Fraction(b[0]) - Fraction(p[0]), Fraction(b[1]) - Fraction(p[1])
    fcdx, fcdy = Fraction(c[0]) - Fraction(p[0]), Fraction(c[1]) - Fraction(p[1])
    fad2 = fadx * fadx + fady * fady
    fbd2 = fbdx * fbdx + fbdy * fbdy
    fcd2 = fcdx * fcdx + fcdy * fcdy
    fdet = (
        fadx * (fbdy * fcd2 - fcdy * fbd2)
        - fady * (fbdx * fcd2 - fcdx * fbd2)
        + fad2 * (fbdx * fcdy - fcdx * fbdy)
    )
    if fdet > 0:
        return 1
    if fdet < 0:
        return -1
    return 0


def _orient_reference(a, b, c):
    """Twice the signed area of triangle abc, exactly (``Fraction``)."""
    from fractions import Fraction

    (ax, ay), (bx, by), (cx, cy) = ((Fraction(x), Fraction(y)) for x, y in (a, b, c))
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _in_circle_any_orientation(pa, pb, pc, p, tol):
    if _orient_reference(pa, pb, pc) < 0:
        pb, pc = pc, pb
    return in_circle_reference(pa, pb, pc, p, tol)


def delaunay_reference(pc, tol=1e-12):
    """Delaunay triangulation by Bowyer-Watson that scans every triangle
    for each cavity, then flips cocircular edges by rescanning every edge
    per flip, then checks every circumcircle against every point.

    Same enclosing triangle, insertion order, canonical flip rule and
    errors as ``geoph.alpha.delaunay_triangulation``.
    """
    from geoph.alpha import Triangulation
    from geoph.errors import DegenerateTriangulationError, NumericalError

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
    verts = list(points) + [
        (cx - 2.0 * big, cy - big),
        (cx + 2.0 * big, cy - big),
        (cx, cy + 2.0 * big),
    ]
    triangles = {(n, n + 1, n + 2)}

    for p_idx in range(n):
        p = verts[p_idx]
        bad = [
            t
            for t in triangles
            if _in_circle_any_orientation(verts[t[0]], verts[t[1]], verts[t[2]], p, tol) > 0
        ]
        edge_count = {}
        for a, b, c in bad:
            for e in ((a, b), (a, c), (b, c)):
                edge_count[e] = edge_count.get(e, 0) + 1
        triangles.difference_update(bad)
        for (a, b), k in edge_count.items():
            if k != 1:
                continue
            if _orient_reference(verts[a], verts[b], p) == 0:
                raise NumericalError(f"degenerate cavity while inserting point {p_idx}")
            triangles.add(tuple(sorted((a, b, p_idx))))

    tris = {t for t in triangles if all(v < n for v in t)}
    if not tris:
        raise DegenerateTriangulationError("all points are collinear")

    while True:
        by_edge = {}
        for t in tris:
            a, b, c = t
            for e in ((a, b), (a, c), (b, c)):
                by_edge.setdefault(e, []).append(t)
        best = None
        for (a, b), owners in by_edge.items():
            if len(owners) != 2:
                continue
            c = next(v for v in owners[0] if v not in (a, b))
            d = next(v for v in owners[1] if v not in (a, b))
            alt = (min(c, d), max(c, d))
            if alt >= (a, b):
                continue
            if _in_circle_any_orientation(points[a], points[b], points[c], points[d], tol) != 0:
                continue
            if best is None or alt < best[0]:
                best = (alt, (a, b))
        if best is None:
            break
        (c, d), (a, b) = best
        tris.discard(tuple(sorted((a, b, c))))
        tris.discard(tuple(sorted((a, b, d))))
        tris.add(tuple(sorted((a, c, d))))
        tris.add(tuple(sorted((b, c, d))))

    real = tuple(sorted(tris))
    for t in real:
        pa, pb, pc_ = (points[v] for v in t)
        for q in range(n):
            if q not in t and _in_circle_any_orientation(pa, pb, pc_, points[q], tol) > 0:
                raise NumericalError(f"triangulation failed verification at triangle {t}")
    return Triangulation(points=points, triangles=real)


def alpha_values_reference(tri):
    """Alpha value of every simplex of a triangulation: circumradii, and for
    each edge a scan of every other point against its diametral disk."""
    from geoph.geometry import circumcircle

    points = tri.points
    values = {(v,): 0.0 for v in range(len(points))}
    incident = {}
    for t in tri.triangles:
        r = circumcircle(*(points[v] for v in t))[1]
        values[t] = r
        a, b, c = t
        for e in ((a, b), (a, c), (b, c)):
            incident.setdefault(e, []).append(r)
    for u, v in sorted(tri.edges()):
        if gabriel_reference(points, u, v):
            (ux, uy), (vx, vy) = points[u], points[v]
            values[(u, v)] = math.sqrt(((ux - vx) ** 2 + (uy - vy) ** 2) / 4.0)
        else:
            values[(u, v)] = min(incident[(u, v)])
    return values


def gabriel_reference(points, u, v):
    """True when no other point lies in edge uv's closed diametral disk,
    widened by a 1e-12 relative slack."""
    (ux, uy), (vx, vy) = points[u], points[v]
    mx, my = (ux + vx) / 2.0, (uy + vy) / 2.0
    r2 = ((ux - vx) ** 2 + (uy - vy) ** 2) / 4.0
    slack = 1e-12 * max(r2, 1.0)
    return all(
        (wx - mx) ** 2 + (wy - my) ** 2 > r2 + slack
        for w, (wx, wy) in enumerate(points)
        if w not in (u, v)
    )


def grid_queen_edges(cells):
    """Queen adjacency between unit grid cells given as (row, col) pairs."""
    cells = set(cells)
    edges = set()
    for r, c in cells:
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if (dr, dc) == (0, 0):
                    continue
                other = (r + dr, c + dc)
                if other in cells:
                    edges.add(tuple(sorted([(r, c), other])))
    return edges


def clique_triangles(nodes, edges):
    """Triangles of the clique complex of an undirected graph."""
    edges = {tuple(sorted(e)) for e in edges}
    out = set()
    for a, b, c in combinations(sorted(nodes), 3):
        if (
            tuple(sorted((a, b))) in edges
            and tuple(sorted((a, c))) in edges
            and tuple(sorted((b, c))) in edges
        ):
            out.add((a, b, c))
    return out


def nearest_opposite_distance(cells):
    """For every cell, distance to the nearest cell of the other value.

    Brute-force scan, suitable for small grids only.
    """
    h, w = cells.shape
    rr, cc = np.mgrid[0:h, 0:w]
    true_pts = np.argwhere(cells)
    false_pts = np.argwhere(~cells)
    out = np.full((h, w), np.inf)
    for r in range(h):
        for c in range(w):
            targets = false_pts if cells[r, c] else true_pts
            if len(targets):
                d2 = (targets[:, 0] - r) ** 2 + (targets[:, 1] - c) ** 2
                out[r, c] = math.sqrt(float(d2.min()))
    return out


def dilate_by_disk(cells, radius):
    """Cells within center-to-center distance ``radius`` of a true cell."""
    h, w = cells.shape
    out = np.zeros_like(cells)
    true_pts = np.argwhere(cells)
    if not len(true_pts):
        return out
    for r in range(h):
        for c in range(w):
            d2 = (true_pts[:, 0] - r) ** 2 + (true_pts[:, 1] - c) ** 2
            if float(d2.min()) <= radius * radius + 1e-9:
                out[r, c] = True
    return out


def _envelope_sq_reference(f):
    """1D lower envelope: out[q] = min_p (q - p)^2 + f[p]^2, inf-aware.

    Felzenszwalb and Huttenlocher, *Distance transforms of sampled
    functions* (2012).
    """
    n = f.shape[0]
    out = np.full(n, np.inf)
    centers = [q for q in range(n) if f[q] != np.inf]
    if not centers:
        return out
    fsq = f * f
    v = [centers[0]]
    z = [-np.inf, np.inf]
    for q in centers[1:]:
        while True:
            p = v[-1]
            s = (fsq[q] + q * q - fsq[p] - p * p) / (2.0 * (q - p))
            if s <= z[-2]:
                v.pop()
                z.pop()
            else:
                z[-1] = s
                z.append(np.inf)
                v.append(q)
                break
    k = 0
    for q in range(n):
        while z[k + 1] < q:
            k += 1
        out[q] = (q - v[k]) ** 2 + fsq[v[k]]
    return out


def distance_sq_reference(feature):
    """Squared distance to the nearest True cell: column sweeps, then the
    row lower envelope."""
    h, w = feature.shape
    g = np.where(feature, 0.0, np.inf)
    for r in range(1, h):
        g[r] = np.minimum(g[r], g[r - 1] + 1.0)
    for r in range(h - 2, -1, -1):
        g[r] = np.minimum(g[r], g[r + 1] + 1.0)
    out = np.empty((h, w))
    for r in range(h):
        out[r] = _envelope_sq_reference(g[r])
    return out


def levelset_complex_reference(schedule):
    """Level-set lattice complex from a dict keyed by (row, col) lattice index."""
    from geoph.complexes import FilteredComplex

    nrows, ncols = schedule.steps.shape
    step_of = {}
    for ri in range(nrows):
        for ci in range(ncols):
            k = float(schedule.steps[ri, ci])
            if k != math.inf:
                step_of[(ri, ci)] = k

    def vid(ri, ci):
        return ri * ncols + ci

    entries = []
    for (ri, ci), k in step_of.items():
        entries.append(((vid(ri, ci),), float(k)))
        for dr, dc in ((0, 1), (1, 0), (1, 1)):
            other = (ri + dr, ci + dc)
            if other in step_of:
                pair = tuple(sorted((vid(ri, ci), vid(*other))))
                entries.append((pair, float(max(k, step_of[other]))))
    for ri in range(nrows - 1):
        for ci in range(ncols - 1):
            a, b = (ri, ci), (ri, ci + 1)
            c, d = (ri + 1, ci), (ri + 1, ci + 1)
            if a in step_of and d in step_of:
                for third in (b, c):
                    if third in step_of:
                        tri = tuple(sorted((vid(*a), vid(*third), vid(*d))))
                        value = float(max(step_of[a], step_of[third], step_of[d]))
                        entries.append((tri, value))
    return FilteredComplex(entries)


def rasterize_mask_reference(m, candidate, max_side):
    """Even-odd scanline fill that scans every grid row for every winning
    precinct (``rasterize_mask`` scans only the rows in its y-range)."""
    from geoph.levelset import BitMask, GridTransform, _grid_shape
    from geoph.precincts import winning_precincts

    x0, y0, x1, y1 = m.bbox()
    w, h, cell = _grid_shape(x1 - x0, y1 - y0, max_side)
    cells = np.zeros((h, w), dtype=bool)
    for p in winning_precincts(m, candidate):
        segments = [
            seg
            for ring in p.rings
            for seg in zip(ring[:-1], ring[1:])
            if seg[0][1] != seg[1][1]
        ]
        for row in range(h):
            y = y0 + (row + 0.5) * cell
            xs = []
            for (ax, ay), (bx, by) in segments:
                if (ay <= y) != (by <= y):
                    xs.append(ax + (y - ay) * (bx - ax) / (by - ay))
            xs.sort()
            for lo, hi in zip(xs[::2], xs[1::2]):
                c_lo = math.ceil((lo - x0) / cell - 0.5 - 1e-9)
                c_hi = math.ceil((hi - x0) / cell - 0.5 - 1e-9)
                if c_hi > c_lo:
                    cells[row, max(0, c_lo) : min(w, c_hi)] = True
    return BitMask(cells=cells, transform=GridTransform(x0=x0, y0=y0, cell=cell))


def superlevel_mask_at(field, velocity, t):
    """Front position after time t: cells with phi + velocity*t >= 0."""
    from geoph.levelset import BitMask

    if velocity < 0:
        raise ValueError("velocity must be non-negative")
    return BitMask(cells=field.values + velocity * t >= 0.0, transform=field.transform)


def boundary_edges(tri):
    """Edges incident to exactly one triangle (the hull for valid input)."""
    count = {}
    for a, b, c in tri.triangles:
        for e in ((a, b), (a, c), (b, c)):
            count[e] = count.get(e, 0) + 1
    return {e for e, k in count.items() if k == 1}


def all_faces_closure(simplices):
    """All faces of all dimensions of the given simplices (including them)."""
    from geoph.complexes import simplex

    out = set()
    for s in simplices:
        s = simplex(s)
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return out


def random_filtered_entries(rng, max_vertices=10):
    """Random raw simplex/value list; close_under_faces makes it a complex."""
    n = rng.randrange(1, max_vertices + 1)
    entries = [((v,), float(rng.randrange(0, 4))) for v in range(n)]
    for i, j in combinations(range(n), 2):
        if rng.random() < 0.35:
            entries.append(((i, j), float(rng.randrange(0, 6))))
    for i, j, k in combinations(range(n), 3):
        if rng.random() < 0.12:
            entries.append(((i, j, k), float(rng.randrange(0, 8))))
    return entries


def order_key(entry):
    """Canonical sort key of a ``(simplex, value)`` entry: (value, dim, lex)."""
    s, value = entry
    return (value, len(s), s)


def position_of(fc, s):
    """Filtration position of simplex ``s`` in ``fc``; KeyError when absent."""
    position = {t: j for j, (t, _) in enumerate(fc.entries)}
    return position[tuple(s)]


def value_of(fc, s):
    """Filtration value of simplex ``s`` in ``fc``; KeyError when absent."""
    return fc.entries[position_of(fc, s)][1]


def distinct_values(fc):
    """The distinct filtration values of ``fc``, ascending."""
    return sorted({v for _, v in fc.entries})


def complex_at(fc, t):
    """Sublevel complex: all simplices of ``fc`` with value <= t."""
    return {s for s, v in fc.entries if v <= t}


def bars_alive_at(barcode, t):
    """(b0, b1, b2) counted from the bars alive at t: born <= t < death."""
    alive = [0, 0, 0]
    for p in barcode.pairs:
        if p.birth <= t and (p.death is None or p.death > t):
            alive[p.dimension] += 1
    return alive[0], alive[1], alive[2]


def boundary_matrix_reference(fc):
    """Boundary columns of a filtered complex by looking each face up in a
    dict from simplex to filtration position."""
    from geoph.complexes import faces

    position = {s: j for j, (s, _) in enumerate(fc.entries)}
    return tuple(frozenset(position[f] for f in faces(s)) for s, _ in fc.entries)


def dense_reduce_reference(columns, additions=None):
    """Left-to-right F2 column reduction with big-int bitmask columns.

    ``columns`` is a sequence of row-index sets, one per column.  Returns
    (pairs, reduced_columns, chains): pairs maps a lowest row to the column
    that kept it, and chains[j] holds the columns added into column j (j
    included).  The format is independent of the package's set columns.
    When ``additions`` is a list, each addition of column k into column j
    is appended to it as ``(j, k)``.
    """
    n = len(columns)
    r = [sum(1 << row for row in col) for col in columns]
    v = [1 << j for j in range(n)]
    owner_of_low = {}
    pairs = {}
    for j in range(n):
        while r[j]:
            low = r[j].bit_length() - 1
            k = owner_of_low.get(low)
            if k is None:
                owner_of_low[low] = j
                pairs[low] = j
                break
            r[j] ^= r[k]
            v[j] ^= v[k]
            if additions is not None:
                additions.append((j, k))

    def bit_indices(x):
        out = set()
        while x:
            low = x & -x
            out.add(low.bit_length() - 1)
            x ^= low
        return frozenset(out)

    return pairs, tuple(map(bit_indices, r)), tuple(map(bit_indices, v))


def skipped_columns(fc, pairs):
    """Columns no artifact needs reduced: vertices, and edges a triangle kills
    at the edge's own value (zero-length births), read off reference pairs."""
    entries = fc.entries
    vertices = {j for j, (s, _) in enumerate(entries) if len(s) == 1}
    return vertices | {
        low
        for low, k in pairs.items()
        if len(entries[low][0]) == 2 and entries[k][1] == entries[low][1]
    }


def persistence_pairs_reference(reduced, fc):
    """Every bar read off a reduced matrix column by column, as a barcode of
    eagerly built pairs: a zero column is a birth, and the column that owns
    its row is its death.

    Reads only ``reduced.matrix.columns``, ``.pairs`` and ``.chains``; a
    zero-length dimension-1 bar has the empty chain the reduction leaves a
    skipped column, so its generator is ``()``.
    """
    from geoph.homology import Barcode, PersistencePair

    entries = fc.entries
    cols = reduced.matrix.columns
    pairs = []
    for j, (s, birth) in enumerate(entries):
        if cols[j]:
            continue  # j kills an earlier class; handled at its birth column
        death_col = reduced.pairs.get(j)
        death = None if death_col is None else entries[death_col][1]
        d = len(s) - 1
        generator = (s,) if d == 0 else tuple(sorted(entries[k][0] for k in reduced.chains[j]))
        pairs.append(
            PersistencePair(
                dimension=d, birth=birth, death=death, generator=generator, birth_position=j
            )
        )
    return Barcode(pairs=tuple(pairs), horizon=fc.max_value())


def long_persistence_reference(pairs, horizon, threshold=0.75):
    """Every pair with dimension-1 bars flagged long when their persistence is
    at least ``threshold`` of the largest nonzero-length one, or infinite."""
    from dataclasses import replace

    pmax = max(
        (p.persistence(horizon) for p in pairs if p.dimension == 1 and not p.zero_length),
        default=0.0,
    )
    flagged = []
    for p in pairs:
        if p.dimension == 1 and not p.zero_length:
            ratio = p.persistence(horizon) / pmax if pmax > 0 else 0.0
            p = replace(p, long_persistence=p.infinite or ratio >= threshold)
        flagged.append(p)
    return tuple(flagged)


def boundary_of_boundary_vanishes(columns):
    """True when every column's boundary columns sum to zero over F2."""
    for col in columns:
        acc = set()
        for r in col:
            acc ^= columns[r]
        if acc:
            return False
    return True


def margin_level_reference(delta, step=0.05):
    """Linear scan for the first threshold a margin clears (k = 0, 1, ...)."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"margin {delta} outside [0, 1]")
    if step <= 0.0:
        raise ValueError("step must be positive")
    k = 0
    while delta < 1.0 - k * step - 1e-12:
        k += 1
    return round(k * step, 12)


def queen_edges_reference(m, tol):
    """Queen edges by testing every precinct pair, earlier one first."""
    from geoph import adjacency

    return {
        (min(a.id, b.id), max(a.id, b.id))
        for a, b in combinations(m.precincts, 2)
        if adjacency.precincts_touch(a, b, tol)
    }


def adjacency_complex_reference(m, g, candidate, step=0.05):
    """Margin-filtered clique complex by testing every pair and triple of
    winners against the graph's edge set."""
    from geoph.complexes import FilteredComplex
    from geoph.precincts import vote_margin, winning_precincts

    winners = winning_precincts(m, candidate)
    level = [margin_level_reference(vote_margin(p), step) for p in winners]

    def adjacent(i, j):
        a, b = winners[i].id, winners[j].id
        return (min(a, b), max(a, b)) in g.edges

    entries = [((i,), value) for i, value in enumerate(level)]
    for i, j in combinations(range(len(winners)), 2):
        if adjacent(i, j):
            entries.append(((i, j), max(level[i], level[j])))
    for i, j, k in combinations(range(len(winners)), 3):
        if adjacent(i, j) and adjacent(i, k) and adjacent(j, k):
            entries.append(((i, j, k), max(level[i], level[j], level[k])))
    return FilteredComplex(entries)


def jittered_lattice_map(n, jitter, seed):
    """GeoJSON of an n x n lattice of quadrilaterals over unit cells.

    Interior corners move by a seeded offset in [-jitter, jitter] on each
    axis (jitter below 0.5 keeps every quadrilateral simple); votes are
    seeded with no ties, and the features come in a seeded order.
    """
    rng = random.Random(seed)
    corners = [
        [
            (
                c + (rng.uniform(-jitter, jitter) if 0 < r < n and 0 < c < n else 0.0),
                r + (rng.uniform(-jitter, jitter) if 0 < r < n and 0 < c < n else 0.0),
            )
            for c in range(n + 1)
        ]
        for r in range(n + 1)
    ]
    features = []
    for r in range(n):
        for c in range(n):
            ring = [corners[r][c], corners[r][c + 1], corners[r + 1][c + 1], corners[r + 1][c]]
            blue = rng.randrange(0, 100)
            red = 100 - blue if blue != 50 else 49
            features.append(
                {
                    "type": "Feature",
                    "properties": {"id": f"p{r * n + c:05d}", "votes_blue": blue, "votes_red": red},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[list(pt) for pt in ring + ring[:1]]],
                    },
                }
            )
    rng.shuffle(features)
    return {"type": "FeatureCollection", "features": features}


def barcode_json_reference(barcode):
    """``barcode.json`` text through the standard library's JSON encoder."""
    records = [
        {
            "dimension": p.dimension,
            "birth": p.birth,
            "death": p.death,
            "long_persistence": p.long_persistence,
            "generator": [list(s) for s in p.generator],
        }
        for p in barcode.rendered()
    ]
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def complex_text_reference(fc):
    """``complex.txt`` text written line by line off ``fc.entries``."""
    return "".join(f"{','.join(map(str, s))}\t{value!r}\n" for s, value in fc.entries)


def barcode_svg_reference(barcode):
    """``barcode.svg`` text drawn bar by bar off ``barcode.rendered()``: the
    writer as it was before it read the barcode's columns."""
    from geoph.render import LONG_BAR_FILL, SHORT_BAR_FILL

    def _fmt(x):
        return f"{x:.2f}"

    bars = barcode.rendered()
    drawn = [p.birth for p in bars] + [p.death for p in bars if p.death is not None]
    lo = min([0.0] + drawn)
    hi = max([barcode.horizon] + drawn)
    if hi <= lo:
        hi = lo + 1.0 if lo + 1.0 > lo else math.nextafter(lo, math.inf)

    left, right, top, bottom = 56.0, 36.0, 16.0, 30.0
    bar_h, bar_gap, group_gap = 7.0, 3.0, 16.0
    plot_w = 560.0

    def x(t: float) -> float:
        if math.isfinite(hi - lo):
            return left + (t - lo) / (hi - lo) * plot_w
        return left + (t / 2 - lo / 2) / (hi / 2 - lo / 2) * plot_w

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
    return svg + "\n"


def _closed_walks_reference(edges):
    """Split an even-degree edge set into closed walks (one per component)."""
    adj = {}
    for a, b in sorted(edges):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for v in adj:
        adj[v].sort(reverse=True)  # pops yield the smallest remaining neighbor
    used = set()
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


def feature_map_svg_reference(m, barcode, candidate, vertex_coords):
    """``feature_map.svg`` text drawn cycle by cycle off
    ``barcode.rendered(dimension=1)``, each generator's walks found with a
    dict of neighbour lists and a set of used edges, and each precinct's
    outline formatted point by point off its rings: the renderer as it was
    before it read the barcode's columns and the map's ring table."""
    from geoph.errors import InputError
    from geoph.precincts import check_candidate, vote_margin
    from geoph.render import CYCLE_STROKE

    check_candidate(candidate)
    xs = [x for p in m for ring in p.rings for x, _ in ring]
    ys = [y for p in m for ring in p.rings for _, y in ring]
    x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
    # Every coordinate is halved when the map's extent overflows.
    h = 1.0 if math.isfinite(max(x1 - x0, y1 - y0)) else 0.5
    span = max(x1 * h - x0 * h, y1 * h - y0 * h, 1e-9)
    pad = 12.0
    scale = 640.0 / span
    width = (x1 * h - x0 * h) * scale + 2 * pad
    height = (y1 * h - y0 * h) * scale + 2 * pad

    def to_svg(px, py):
        return (pad + (px * h - x0 * h) * scale, pad + (y1 * h - py * h) * scale)

    def ring_path(ring):
        pts = [to_svg(x, y) for x, y in ring[:-1]]
        head = f"M {pts[0][0]:.2f},{pts[0][1]:.2f}"
        rest = " ".join(f"L {x:.2f},{y:.2f}" for x, y in pts[1:])
        return f"{head} {rest} Z"

    body = []
    for p in m:
        d = " ".join(ring_path(ring) for ring in p.rings)
        winner = p.winner()
        delta = vote_margin(p) if p.total_votes() > 0 else 0.0
        body.append(
            f'<path d="{d}" fill="{margin_color_reference(winner, delta)}" '
            f'fill-rule="evenodd" stroke="#444" stroke-width="0.6"/>'
        )
    light, dark = CYCLE_STROKE[candidate]
    for pair in barcode.rendered(dimension=1):
        stroke, w = (dark, 3.0) if pair.long_persistence else (light, 1.5)
        edges = []
        for s in pair.generator:
            if len(s) != 2:
                raise InputError("generator is not an edge cycle")
            edges.append((s[0], s[1]))
        for walk in _closed_walks_reference(edges):
            pts = []
            for v in walk:
                if v not in vertex_coords:
                    raise InputError(f"generator vertex {v} has no coordinate")
                pts.append(to_svg(*vertex_coords[v]))
            points = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
            body.append(
                f'<polyline points="{points}" fill="none" stroke="{stroke}" '
                f'stroke-width="{w:.2f}" stroke-linejoin="round"/>'
            )
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
            f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
            *body,
            "</svg>\n",
        ]
    )


def margin_color_reference(winner, delta):
    """A precinct's fill, one channel at a time."""
    from geoph.render import FULL_SHADE

    if winner is None:
        return "#ffffff"
    t = min(1.0, max(0.0, delta))
    mix = tuple(round(255 + (c - 255) * t) for c in FULL_SHADE[winner])
    return "#{:02x}{:02x}{:02x}".format(*mix)


def polygon_centroid_reference(rings):
    """Area-weighted centroid of a multi-ring polygon, with total signed
    area, summed one segment at a time.

    The sums run on coordinates scaled by the power of two that brings the
    largest into [0.5, 1).  When the total area vanishes the centroid is
    nan; a centroid or area beyond the float range comes back as inf.
    """

    def ldexp(x, e):
        try:
            return math.ldexp(x, e)
        except OverflowError:
            return math.copysign(math.inf, x)

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
    return (ldexp(ax / (6.0 * area), e), ldexp(ay / (6.0 * area), e)), ldexp(area, 2 * e)


def parse_feature_collection_reference(obj, source="<input>"):
    """The loader, feature by feature, each ring through ``normalize_ring``
    point by point: the columns ``(ids, votes_blue, votes_red, rings)``, where
    ``rings[k]`` is a tuple of precinct k's closed rings.  A coordinate that
    ``float`` cannot convert, an int past the float range included, is a bad
    ring coordinate, and properties that are not an object are an input
    error."""
    from geoph.errors import InputError
    from geoph.geometry import normalize_ring

    def require(condition, message):
        if not condition:
            raise InputError(message)

    def votes(props, key, where):
        require(key in props, f"{where}: missing property {key!r}")
        v = props[key]
        is_int = isinstance(v, int) and not isinstance(v, bool)
        require(is_int, f"{where}: {key} must be an integer")
        require(v >= 0, f"{where}: {key} must be non-negative")
        return v

    def parse_rings(geometry, where):
        gtype = geometry.get("type")
        coords = geometry.get("coordinates")
        if gtype == "Polygon":
            polys = [coords]
        elif gtype == "MultiPolygon":
            polys = coords
        else:
            raise InputError(f"{where}: geometry must be Polygon or MultiPolygon, got {gtype!r}")
        rings = []
        try:
            for poly in polys:
                for ring in poly:
                    rings.append(normalize_ring(ring))
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise InputError(f"{where}: bad ring coordinates ({exc})") from exc
        require(bool(rings), f"{where}: geometry has no rings")
        return tuple(rings)

    require(isinstance(obj, dict), f"{source}: not a JSON object")
    require(obj.get("type") == "FeatureCollection", f"{source}: not a FeatureCollection")
    features = obj.get("features")
    require(isinstance(features, list), f"{source}: features must be a list")
    require(bool(features), f"{source}: no features")
    ids, blue, red, rings = [], [], [], []
    for i, feat in enumerate(features):
        where = f"{source}: feature {i}"
        require(isinstance(feat, dict), f"{where}: not an object")
        props = feat.get("properties") or {}
        require(isinstance(props, dict), f"{where}: properties must be an object")
        pid = props.get("id")
        if isinstance(pid, (int, float)) and not isinstance(pid, bool):
            pid = str(pid)
        require(isinstance(pid, str) and pid != "", f"{where}: missing or empty id")
        where = f"{source}: feature {i} ({pid})"
        geometry = feat.get("geometry")
        require(isinstance(geometry, dict), f"{where}: missing geometry")
        rings.append(parse_rings(geometry, where))
        blue.append(votes(props, "votes_blue", where))
        red.append(votes(props, "votes_red", where))
        ids.append(pid)
    for k, pid in enumerate(ids):
        require(pid not in ids[:k], f"duplicate precinct id {pid!r}")
    return tuple(ids), tuple(blue), tuple(red), rings


def feature_collection(polygons, votes, ids=None, gtype="Polygon"):
    """A GeoJSON FeatureCollection dict with one feature per polygon.

    ``polygons[k]`` is precinct k's list of rings, each a list of points;
    ``votes[k]`` its (votes_blue, votes_red) pair, and ``ids[k]`` its id
    (default ``p{k}``).  A ``MultiPolygon`` feature holds each ring as a
    polygon of its own.
    """
    features = []
    for k, (rings, (blue, red)) in enumerate(zip(polygons, votes, strict=True)):
        coords = [[list(p) for p in ring] for ring in rings]
        if gtype == "MultiPolygon":
            coords = [[ring] for ring in coords]
        features.append(
            {
                "type": "Feature",
                "properties": {
                    "id": f"p{k}" if ids is None else ids[k],
                    "votes_blue": blue,
                    "votes_red": red,
                },
                "geometry": {"type": gtype, "coordinates": coords},
            }
        )
    return {"type": "FeatureCollection", "features": features}
