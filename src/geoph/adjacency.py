"""Queen contiguity between precincts and the vote-margin filtration on it.

Two precincts are queen-adjacent when their boundaries come within a
tolerance of touching; a single shared corner point suffices.  Candidate
pairs come from a sort-and-sweep over the precincts' bounding boxes, so only
pairs whose boxes come within the tolerance are looked at and the cost is
near-linear in map size for map-like inputs.  A candidate pair that shares a
ring vertex is adjacent at once (its boundary distance is 0); only the pairs
with no shared vertex (T-junctions, gaps within the tolerance, islands in
holes) reach the exact segment test.  The filtered
complex descends the margin scale: a winning precinct enters at the first
threshold its margin clears, an edge when both endpoints are in, and every
pairwise-adjacent triple spans a triangle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .complexes import FilteredComplex
from .geometry import segment_segment_distance
from .precincts import Precinct, PrecinctMap, check_candidate, vote_margin, winning_precincts

DEFAULT_TOL = 1e-9
DEFAULT_STEP = 0.05


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected graph on precinct ids."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # each pair stored sorted

    def to_edge_list(self) -> str:
        lines = [f"{u}\t{v}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + ("\n" if lines else "")


def _boundary_segments(p: Precinct) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    segs = []
    for ring in p.rings:
        segs.extend(zip(ring[:-1], ring[1:]))
    return segs


def _bbox_gap(a: Precinct, b: Precinct) -> float:
    ax0, ay0, ax1, ay1 = a.bbox()
    bx0, by0, bx1, by1 = b.bbox()
    dx = max(bx0 - ax1, ax0 - bx1, 0.0)
    dy = max(by0 - ay1, ay0 - by1, 0.0)
    return max(dx, dy)


def precincts_touch(a: Precinct, b: Precinct, tol: float = DEFAULT_TOL) -> bool:
    """True when the boundaries come within ``tol`` of each other."""
    if _bbox_gap(a, b) > tol:
        return False
    for s1 in _boundary_segments(a):
        for s2 in _boundary_segments(b):
            if segment_segment_distance(s1[0], s1[1], s2[0], s2[1]) <= tol:
                return True
    return False


def queen_adjacency(m: PrecinctMap, tol: float = DEFAULT_TOL) -> AdjacencyGraph:
    """Adjacency graph over every precinct in the map (sides ignored).

    Sweeps the precincts in order of bounding-box ``x0``: the scan from one
    precinct stops at the first box that starts more than ``tol`` past its
    ``x1``, and pairs whose boxes are more than ``tol`` apart in y are
    skipped.  Those are exactly the pairs ``precincts_touch`` rejects on its
    bounding boxes.  Of the rest, a pair that shares a ring vertex is an
    edge with no further test, since its boundary distance is 0 <= ``tol``;
    only pairs with disjoint vertex sets reach ``precincts_touch``.
    """
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    boxes = sorted((p.bbox(), i, p) for i, p in enumerate(m.precincts))
    vertices = [{v for ring in p.rings for v in ring} for p in m.precincts]
    edges = set()
    for pos, ((_, ay0, ax1, ay1), i, a) in enumerate(boxes):
        for later in range(pos + 1, len(boxes)):
            (bx0, by0, _, by1), j, b = boxes[later]
            if bx0 - ax1 > tol:
                break
            if by0 - ay1 > tol or ay0 - by1 > tol:
                continue
            if vertices[i].isdisjoint(vertices[j]):
                first, second = (a, b) if i < j else (b, a)
                if not precincts_touch(first, second, tol):
                    continue
            edges.add((min(a.id, b.id), max(a.id, b.id)))
    return AdjacencyGraph(nodes=tuple(p.id for p in m), edges=frozenset(edges))


def margin_level(delta: float, step: float = DEFAULT_STEP) -> float:
    """First threshold the margin clears, descending from 1 in ``step``s.

    Returns the smallest k*step with delta >= 1 - k*step (>= comparison, so
    a margin exactly on a threshold enters there).  A unanimous precinct
    enters at 0.  ``delta < 1 - k*step - 1e-12`` only turns false as k
    grows, so k is found by doubling and then bisection.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"margin {delta} outside [0, 1]")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if step < sys.float_info.min:  # k * step would overflow before reaching 1
        raise ValueError(f"step {step} is below the smallest normal float")

    def above(k: int) -> bool:
        return delta < 1.0 - k * step - 1e-12

    lo, hi = 0, 1  # above(k) holds for every k < lo
    while above(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid + 1
        else:
            hi = mid
    return round(hi * step, 12)


def build_adjacency_complex(
    m: PrecinctMap,
    g: AdjacencyGraph,
    candidate: str,
    step: float = DEFAULT_STEP,
) -> FilteredComplex:
    """Margin-filtered clique complex of the candidate's winning precincts.

    Vertex i is the i-th winning precinct in id order; use
    :func:`winning_precincts` to recover the correspondence.
    """
    check_candidate(candidate)
    winners = winning_precincts(m, candidate)
    level = [margin_level(vote_margin(p), step) for p in winners]
    index = {p.id: i for i, p in enumerate(winners)}

    edges: list[tuple[int, int]] = []
    triangles: list[tuple[int, int, int]] = []
    later: list[set[int]] = [set() for _ in winners]  # neighbours with a larger index
    for u, v in g.edges:
        if u in index and v in index:
            i, j = sorted((index[u], index[v]))
            edges.append((i, j))
            later[i].add(j)
    for i, nbrs in enumerate(later):
        for j, k in combinations(sorted(nbrs), 2):
            if k in later[j]:
                triangles.append((i, j, k))
    levels = np.array(level, dtype=np.float64)
    edge_rows = np.array(edges, dtype=np.int64).reshape(-1, 2)
    triangle_rows = np.array(triangles, dtype=np.int64).reshape(-1, 3)
    return FilteredComplex._from_arrays(
        [np.arange(len(winners)), edge_rows, triangle_rows],
        [levels, levels[edge_rows].max(axis=1), levels[triangle_rows].max(axis=1)],
    )
