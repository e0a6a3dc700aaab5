"""Queen contiguity between precincts and the vote-margin filtration on it.

Two precincts are queen-adjacent when their boundaries come within a
tolerance of touching; a single shared corner point suffices.  Both steps
read the map's ring table (one array of every ring point, see
``PrecinctMap.ring_table``).  Pairs that share a ring vertex come from one
sort of the (x, y, precinct) rows: they are adjacent at once, their
boundary distance being 0.  The other candidate pairs come from a sweep
over the precincts' bounding boxes in order of ``x0``, a block of a few
thousand pairs at a time so that memory stays bounded: only pairs whose
boxes come within the tolerance are looked at, so the cost is near-linear
in map size for map-like inputs.  Only candidates with no shared vertex
(T-junctions, gaps within the tolerance, islands in holes) reach the exact
segment test.  The graph keeps its edges as rows of precinct positions.
The filtered complex descends the margin scale: a winning precinct enters
at the first threshold its margin clears, an edge when both endpoints are
in, and every pairwise-adjacent triple spans a triangle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .complexes import FilteredComplex, _lookup, _ranges, _unique
from .errors import InputError
from .geometry import RingTable, segment_segment_distance
from .precincts import Precinct, PrecinctMap, check_candidate, winner_rows

DEFAULT_TOL = 1e-9
DEFAULT_STEP = 0.05
_SWEEP_BLOCK = 1 << 13  # candidate pairs per block of the box sweep


def check_tol(tol: float) -> None:
    """The contiguity tolerance is finite and non-negative."""
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be finite and non-negative, got {tol}")


def check_step(step: float) -> None:
    """The margin step is finite and positive, and normal: with a subnormal
    one, k would overflow before ``k * step`` reaches 1."""
    if not (math.isfinite(step) and step > 0):
        raise InputError(f"step must be finite and positive, got {step}")
    if step < sys.float_info.min:
        raise InputError(f"step {step} is below the smallest normal float {sys.float_info.min}")


@dataclass(frozen=True, eq=False)
class AdjacencyGraph:
    """Undirected graph on precinct ids.

    Row e of the ``(E, 2)`` int64 ``edge_positions`` holds edge e once, as
    two positions into ``nodes``.  Graphs are equal when their nodes and
    edge sets are.
    """

    nodes: tuple[str, ...]
    edge_positions: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.edge_positions, dtype=np.int64).reshape(-1, 2)
        rows.flags.writeable = False
        object.__setattr__(self, "edge_positions", rows)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """Each edge as its two ids, sorted."""
        ids = self.nodes
        return frozenset(
            (ids[a], ids[b]) if ids[a] < ids[b] else (ids[b], ids[a])
            for a, b in self.edge_positions.tolist()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdjacencyGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def to_edge_list(self) -> str:
        """One ``u<TAB>v`` line per edge, ``u < v``, the lines sorted."""
        by_rank = sorted(range(len(self.nodes)), key=self.nodes.__getitem__)
        rank = np.empty(len(self.nodes), dtype=np.int64)
        rank[by_rank] = np.arange(len(self.nodes))
        pairs = np.sort(rank[self.edge_positions], axis=1)
        pairs = pairs[np.lexsort(pairs.T[::-1])].tolist()
        ids = [self.nodes[k] for k in by_rank]
        lines = [f"{ids[u]}\t{ids[v]}" for u, v in pairs]
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


def _later_pairs(rows: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (t, u) with t in ``rows`` and t < u < ``end`` of t, by t then u."""
    count = np.maximum(end - rows - 1, 0)
    return np.repeat(rows, count), _ranges(rows + 1, count)


def _shared_vertex_pairs(table: RingTable, n: int) -> np.ndarray:
    """Codes ``i * n + j``, i < j, of the precinct pairs with a ring point in
    common, ascending and distinct.  The sort and the comparisons take -0.0
    for 0.0, as Python's float equality does."""
    points, owner = table.points, table.owner
    at = np.lexsort((owner, points[:, 1], points[:, 0]))
    x, y, owner = points[at, 0], points[at, 1], owner[at]
    new_point = np.ones(len(at), dtype=bool)
    new_point[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    keep = new_point.copy()  # one row per (point, precinct)
    keep[1:] |= owner[1:] != owner[:-1]
    new_point, owner = new_point[keep], owner[keep]
    end = np.append(np.flatnonzero(new_point)[1:], len(owner))[np.cumsum(new_point) - 1]
    first, second = _later_pairs(np.arange(len(owner)), end)
    return _unique(owner[first] * n + owner[second])[0]


def _near_box_pairs(boxes: np.ndarray, tol: float) -> np.ndarray:
    """Codes ``i * n + j``, i < j, of the precinct pairs whose boxes come
    within ``tol`` on both axes, in blocks of the sweep, not sorted.

    With the boxes in order of ``x0``, a box's candidates are the later ones
    whose ``x0 - x1`` (the earlier box's x1), rounded, is at most ``tol``: a
    run that ``searchsorted`` finds, given an upper bound on their ``x0``.
    """
    n = len(boxes)
    x0, y0, x1, y1 = boxes.T
    order = np.argsort(x0, kind="stable")
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
        # A rounded x0 - x1 <= tol means x0 <= x1 + tol + ulp(tol) / 2
        # exactly, and the rounded x1 + tol is off by at most half an ulp of
        # itself: adding two ulps of the larger bounds every such x0.
        reach = x1[order] + tol
        reach = reach + 2 * np.spacing(np.maximum(np.abs(reach), tol))
        end = np.searchsorted(x0[order], reach, side="right")  # a nan reach ends at n
        total = np.cumsum(np.maximum(end - np.arange(n) - 1, 0))
        out = []
        lo = done = 0
        while lo < n:
            hi = max(int(np.searchsorted(total, done + _SWEEP_BLOCK, side="right")), lo + 1)
            done = int(total[hi - 1])
            first, second = _later_pairs(np.arange(lo, hi), end[lo:hi])
            a, b = order[first], order[second]  # x0[a] <= x0[b]
            near = ~(
                (x0[b] - x1[a] > tol) | (y0[b] - y1[a] > tol) | (y0[a] - y1[b] > tol)
            )
            a, b = a[near], b[near]
            out.append(np.minimum(a, b) * n + np.maximum(a, b))
            lo = hi
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def queen_adjacency(m: PrecinctMap, tol: float = DEFAULT_TOL) -> AdjacencyGraph:
    """Adjacency graph over every precinct in the map (sides ignored).

    A pair that shares a ring vertex is an edge with no further test, since
    its boundary distance is 0 <= ``tol``.  Of the other pairs, only those
    whose bounding boxes come within ``tol`` on both axes (the pairs
    ``precincts_touch`` does not reject on its boxes) reach
    ``precincts_touch``, the earlier precinct first.
    """
    check_tol(tol)
    n = len(m)
    table = m.ring_table
    shared = _shared_vertex_pairs(table, n)
    near = _near_box_pairs(table.boxes(), tol)
    touching = [
        code
        for code in near[~_lookup(shared, near)[1]].tolist()
        if precincts_touch(m.precincts[code // n], m.precincts[code % n], tol)
    ]
    codes = np.sort(np.concatenate([shared, np.array(touching, dtype=np.int64)]))
    return AdjacencyGraph(nodes=m.ids, edge_positions=np.stack([codes // n, codes % n], axis=1))


def margin_level(delta: float, step: float = DEFAULT_STEP) -> float:
    """First threshold the margin clears, descending from 1 in ``step``s.

    Returns the smallest k*step with delta >= 1 - k*step (>= comparison, so
    a margin exactly on a threshold enters there).  A unanimous precinct
    enters at 0.  ``delta < 1 - k*step - 1e-12`` only turns false as k
    grows, so k is found by doubling and then bisection.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"margin {delta} outside [0, 1]")
    check_step(step)

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


def _margin_levels(deltas: np.ndarray, step: float) -> np.ndarray:
    """``margin_level`` of each margin in ``deltas`` (each in [0, 1]).

    When the scale has few thresholds against the number of margins, each
    threshold ``1 - k*step - 1e-12`` and level is computed once, as
    ``margin_level`` computes it, and every margin finds the first
    threshold at or below it by one ``searchsorted``.
    """
    check_step(step)
    if 1.0 / step > 16 * (len(deltas) + 16):
        return np.array([margin_level(d, step) for d in deltas.tolist()], dtype=np.float64)
    k = np.arange(int(1.0 / step) + 2)  # the last threshold is below 0
    threshold = 1.0 - k * step - 1e-12
    level = np.array([round(j * step, 12) for j in k.tolist()], dtype=np.float64)
    return level[np.searchsorted(-threshold, -deltas, side="left")]


def build_adjacency_complex(
    m: PrecinctMap,
    g: AdjacencyGraph,
    candidate: str,
    step: float = DEFAULT_STEP,
) -> FilteredComplex:
    """Margin-filtered clique complex of the candidate's winning precincts.

    Vertex i is the i-th winning precinct in id order; use
    :func:`winning_precincts` to recover the correspondence.  A precinct's
    level is ``margin_level`` of its entry in ``m.margins``.  A triangle
    i < j < k is a pair of edges (i, j), (i, k) whose third side (j, k) is
    an edge too.
    """
    check_candidate(candidate)
    rows = winner_rows(m, candidate)
    levels = _margin_levels(m.margins[rows], step)
    index = {m.ids[k]: i for i, k in enumerate(rows.tolist())}
    w = len(rows)

    vertex = np.array([index.get(pid, -1) for pid in g.nodes], dtype=np.int64)
    ends = vertex[g.edge_positions]
    ends = np.sort(ends[(ends >= 0).all(axis=1)], axis=1)
    codes = np.sort(ends[:, 0] * w + ends[:, 1])  # by lower end, then upper end
    lower, upper = codes // w, codes % w
    row_end = np.searchsorted(lower, lower, side="right")
    first, second = _later_pairs(np.arange(len(codes)), row_end)
    third = upper[first] * w + upper[second]
    closed = _lookup(codes, third)[1]
    edge_rows = np.stack([lower, upper], axis=1)
    triangle_rows = np.stack([lower[first], upper[first], upper[second]], axis=1)[closed]
    return FilteredComplex._from_arrays(
        [np.arange(w), edge_rows, triangle_rows],
        [levels, levels[edge_rows].max(axis=1), levels[triangle_rows].max(axis=1)],
    )
