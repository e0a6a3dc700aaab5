"""Persistent homology over F2 for filtered complexes of dimension <= 2.

The boundary matrix is indexed by the canonical filtration order of the
complex (rows and columns alike) and holds, per dimension, one array with a
row of face positions per simplex.  Each dimension's columns reduce left to
right: while a column shares its lowest row with an earlier reduced column,
add that column into it (symmetric difference over F2).  Surviving lowest
rows pair births with deaths; columns that reduce to zero create classes,
and the chain of same-dimension simplices accumulated while zeroing a column
is a representative cycle for the class it creates.

Apparent pairs come first (Bauer 2021, *Ripser*): a column whose lowest
face has it as its oldest coface keeps its boundary and pairs at once,
since no earlier column can hold that face.  They are found with numpy, as
are the edges a triangle kills at their own value (zero-length births,
never reduced).  The other triangle columns take one of two paths that
make the same additions: a column loop, each column and its chain a set
(an addition is two symmetric differences), or, when the columns to
reduce outnumber the edge rows (Vietoris-Rips triangles), a sweep over
numpy ``uint64`` bit rows, last row first, where the columns whose
lowest row a row is add its owner at once.  Each returns its chains as
keys (column, lexicographic row of a chain simplex).

No edge column is reduced.  H0 comes from a union-find over the edges in
filtration order with the elder rule (Edelsbrunner, Letscher and
Zomorodian 2002), and the negative edges form a forest.  The chain of a
positive edge is the edge plus the forest path between its ends, a simple
cycle; it is built in numpy, as keys like the triangles' and as an ordered
list of vertex ids, the cycle ``feature_map.svg`` draws.  One sort makes
the keys one CSR array (``ReducedMatrix.chain_ptr``, ``.chain_at``), each
chain in lexicographic order, so ``persistence_pairs`` gathers every bar's
dimension, birth, death, generator and cycle into a columnar ``Barcode``
(module ``barcode``) with no sort and no per-bar object.  The per-column
views (``BoundaryMatrix.columns``, ``ReducedMatrix.matrix``, ``.chains``
and ``.pairs``) are built on first read, from a reduction of every
triangle and edge column; the reduced matrix is computed as R = DV, the
boundary of each chain (Cohen-Steiner, Edelsbrunner and Morozov 2006,
*Vines and Vineyards*).

Triangles pair on the dual graph whenever the complex allows it.  A matrix
and its anti-transpose pair alike (de Silva, Morozov and Vejdemo-Johansson
2011, *Dualities in persistent (co)homology*); when no edge has more than
two triangles, the anti-transpose of the triangles' boundary is a graph,
and a union-find pairs them.  If every triangle dies, none needs a chain.
Every subcomplex of a triangulation of the plane (alpha, level set) has
no H2 (Alexander duality; Garin et al. 2020, *Duality in persistent
homology of images*).  A complex with an edge in three triangles or an H2
class goes through a column path instead.

``betti_oracle`` is a deliberately separate brute-force computation
(Gaussian elimination on the raw boundary maps) used to cross-check the
reduction; it shares no code with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .barcode import (  # noqa: F401 -- the barcode's names stay importable from here
    LONG_PERSISTENCE_THRESHOLD,
    Barcode,
    PersistencePair,
    classify_long_persistence,
)
from .complexes import FilteredComplex, Simplex, _ranges, faces

_EMPTY: frozenset[int] = frozenset()
_READ_BLOCK = 1 << 20  # words of the row sweep's bit rows read out at a time
_COPY_BLOCK = 1 << 18  # generator entries ``persistence_pairs`` copies at a time


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Boundary matrix of a filtered complex, one column per simplex.

    ``face_positions[d - 1]``, for d = 1 and 2, holds the filtration
    positions of the d-simplices and row by row the positions of each one's
    faces (:meth:`FilteredComplex.face_positions`).  ``columns[j]`` is the
    set of rows of column j; vertex columns are empty.
    """

    complex: FilteredComplex
    face_positions: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.complex)

    @cached_property
    def columns(self) -> tuple[frozenset[int], ...]:
        cols = [_EMPTY] * len(self)
        for at, face_at in self.face_positions:
            for j, col in zip(at.tolist(), face_at.tolist()):
                cols[j] = frozenset(col)
        return tuple(cols)


def build_boundary_matrix(fc: FilteredComplex) -> BoundaryMatrix:
    return BoundaryMatrix(fc, (fc.face_positions(1), fc.face_positions(2)))


@dataclass(frozen=True)
class ReducedColumns:
    """Reduced columns of a boundary matrix, one row set per column."""

    columns: tuple[frozenset[int], ...]


@dataclass(frozen=True, eq=False)
class ReducedMatrix:
    """Result of column reduction: the pairing and the chains.

    ``owner[i]`` is the column whose reduced lowest row is i, or -1.  An
    ``apparent`` column keeps its boundary as its reduced column, and its
    chain is itself.  The chain of each reduced triangle column and of each
    positive edge not cleared is ``chain_at[chain_ptr[j]:chain_ptr[j + 1]]``,
    positions in lexicographic order of their simplices; the other columns
    (apparent ones, vertices, negative edges, zero-length edge births, and
    triangles paired on the dual graph) have an empty row there.  The cycle
    of the positive edge at ``cycle_of[c]`` is
    ``cycle_at[cycle_ptr[c]:cycle_ptr[c + 1]]``, vertex ids, closed.
    ``matrix`` holds the reduced columns, each the F2 boundary of its chain
    (R = DV), and ``chains`` and ``pairs`` the per-column sets of the rest;
    all three are built on first read, and the first read of ``matrix`` or
    ``chains`` reduces every triangle and edge column.
    """

    boundary: BoundaryMatrix
    owner: np.ndarray
    apparent: np.ndarray
    chain_ptr: np.ndarray
    chain_at: np.ndarray
    cycle_of: np.ndarray
    cycle_ptr: np.ndarray
    cycle_at: np.ndarray

    @cached_property
    def pairs(self) -> dict[int, int]:
        """Birth column -> death column."""
        low = np.flatnonzero(self.owner >= 0)
        return dict(zip(low.tolist(), self.owner[low].tolist()))

    @cached_property
    def _chains(self) -> tuple[np.ndarray, np.ndarray]:
        """``chain_ptr`` and ``chain_at`` of a reduction that reduces every
        triangle and edge column."""
        full = _reduce(self.boundary, full=True)
        return full.chain_ptr, full.chain_at

    @cached_property
    def matrix(self) -> ReducedColumns:
        """Column j of R = DV: the F2 sum of the boundaries of j's chain,
        read as keys ``j * n + face``."""
        n = len(self.owner)
        chain_ptr, chain_at = self._chains
        column = np.repeat(np.arange(n), np.diff(chain_ptr))
        keys = []
        for at, face_at in self.boundary.face_positions:
            row = np.full(n, -1, dtype=np.int64)
            row[at] = np.arange(len(at))
            row = row[chain_at]
            hit = row >= 0
            keys.append((column[hit, None] * n + face_at[row[hit]]).ravel())
        cols = _sets(*_csr(_odd(np.concatenate(keys)), n, n))
        boundary = self.boundary.columns
        for j in np.flatnonzero(self.apparent).tolist():
            cols[j] = boundary[j]
        return ReducedColumns(tuple(cols))

    @cached_property
    def chains(self) -> tuple[frozenset[int], ...]:
        """Column j of the accumulated additions."""
        chains = _sets(*self._chains)
        for j in np.flatnonzero(self.apparent).tolist():
            chains[j] = frozenset((j,))
        return tuple(chains)


def _csr(keys: np.ndarray, n: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending keys ``j * n + k`` (0 <= k < n) as a CSR array of ``rows``
    rows: row j holds the k of its keys, written over ``keys``."""
    ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=rows), out=ptr[1:])
    keys %= n
    return ptr, keys


def _sets(ptr: np.ndarray, flat: np.ndarray) -> list[frozenset[int]]:
    """The rows of a CSR array as sets."""
    flat = flat.tolist()
    return [
        frozenset(flat[a:b]) if b > a else _EMPTY
        for a, b in zip(ptr[:-1].tolist(), ptr[1:].tolist())
    ]


def _filtration_ranks(fc: FilteredComplex) -> tuple[np.ndarray, list[np.ndarray]]:
    """``rank[p]``, the rank of position p among the simplices of its
    dimension in filtration order, and per dimension the position of each
    rank."""
    rank = np.empty(len(fc), dtype=np.int64)
    by_rank = []
    for d in range(3):
        at = np.flatnonzero(fc.dimensions == d)
        rank[at] = np.arange(len(at))
        by_rank.append(at)
    return rank, by_rank


def _odd(keys: np.ndarray) -> np.ndarray:
    """The values that occur an odd number of times in ``keys``, ascending."""
    keys = np.sort(keys)
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[first[np.diff(np.r_[first, len(keys)]) % 2 == 1]]


def reduce_matrix(bm: BoundaryMatrix) -> ReducedMatrix:
    """Pair the triangles, then pair the edges by a union-find.

    A pivot is one dimension below its column, so a column only ever adds
    columns of its own dimension, and every chain is the one the plain
    left-to-right order gives.  Apparent columns are paired first.  Then
    the triangles pair on the dual graph (:func:`_pair_dual`), with no
    chain, unless an edge has more than two triangles or a triangle is left
    unpaired (an H2 class).  Otherwise the triangle columns go through the
    column loop (:func:`_reduce_columns`) or, when they outnumber the edge
    rows, the row sweep (:func:`_reduce_rows`), as :func:`_reduction_path`
    picks.  Both make the same additions and return the same chains as keys
    ``j * n + row``, position j and ``FilteredComplex.order`` row, so one
    sort lists each chain in lexicographic order.

    No edge column is reduced: :func:`_pair_edges` pairs them and builds
    the chains and cycles of the positive edges a build shows.  An edge a
    triangle kills at the edge's own value is a zero-length birth, and no
    artifact shows its generator (clearing).
    """
    return _reduce(bm, full=False)


def _reduce(bm: BoundaryMatrix, full: bool) -> ReducedMatrix:
    """:func:`reduce_matrix`, or with ``full`` the reduction of every
    triangle and edge column the views read."""
    fc = bm.complex
    n = len(bm)
    values = fc.values
    owner = np.full(n, -1, dtype=np.int64)
    apparent = np.zeros(n, dtype=bool)
    for at, face_at in bm.face_positions:  # edges, then triangles
        low = face_at.max(axis=1)
        oldest = np.full(n, n, dtype=np.int64)  # each face's oldest coface, n for none
        np.minimum.at(oldest, face_at, at[:, None])
        hit = oldest[low] == at
        owner[low[hit]] = at[hit]
        apparent[at[hit]] = True
    # ``oldest`` is now each edge's oldest triangle
    dual = not full and _pair_dual(*bm.face_positions[1], oldest, owner, apparent)
    rank, by_rank = _filtration_ranks(fc)
    keys = []
    cycles = [np.zeros(k, dtype=np.int64) for k in (0, 1, 0)]  # none for the views
    for d in (1,) if dual else (2, 1):
        at, face_at = bm.face_positions[d - 1]
        column_at, face_by = by_rank[d], by_rank[d - 1]
        face_rank = np.empty_like(face_at)
        face_rank[rank[at]] = np.sort(rank[face_at], axis=1)
        killer = owner[column_at]
        cleared = (killer >= 0) & (values[np.maximum(killer, 0)] == values[column_at])
        if d == 1 and not full:
            *cycles, edge_keys = _pair_edges(fc, face_rank, cleared, owner, apparent, by_rank)
            keys.append(edge_keys)
            continue
        todo = np.flatnonzero(~apparent[column_at] & ~cleared)
        own = owner[face_by]  # the column owning each face rank, as a column rank
        own[own >= 0] = rank[own[own >= 0]]
        path = _reduction_path(len(todo), len(face_by))
        keys.append(path(face_rank, todo, own, column_at * n, fc.order[column_at]))
        owner[face_by[own >= 0]] = column_at[own[own >= 0]]
    keys = np.concatenate(keys)
    keys.sort()
    chain_ptr, chain_row = _csr(keys, n, n)
    at_row = np.concatenate([fc.rows(d)[1] for d in range(3)])  # the position of each row
    return ReducedMatrix(bm, owner, apparent, chain_ptr, at_row[chain_row], *cycles)


def _pair_edges(
    fc: FilteredComplex,
    ends: np.ndarray,
    cleared: np.ndarray,
    owner: np.ndarray,
    apparent: np.ndarray,
    by_rank: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pair the edges by a union-find, and build the positive edges' cycles.

    ``ends[k]`` holds the vertex ranks of the edge of rank k, older first;
    ``cleared[k]`` marks a zero-length birth.  Sets the ``owner`` of each
    vertex an edge kills.  The union-find runs in filtration order with the
    elder rule: an edge joining two components kills the one whose oldest
    vertex, its root, is younger (Edelsbrunner, Letscher and Zomorodian
    2002).  An apparent edge is the oldest coface of its younger vertex, so
    no edge before it meets that vertex, and it is linked up front.  An edge
    a triangle kills is positive and is skipped.

    The negative edges form a forest, rooted per vertex by ``parent`` and
    ``up_edge``, the edge to it: an apparent edge hangs its younger vertex
    under its older one, and a joining edge re-roots the dying tree at its
    end there and hangs it under the other end.  Returns
    :func:`_forest_cycles` of the positive edges not cleared.
    """
    vertex_at, edge_at = by_rank[0], by_rank[1]
    old, young = ends.T
    linked = apparent[edge_at]
    root = np.arange(len(vertex_at))
    root[young[linked]] = old[linked]
    loop = np.flatnonzero(~linked & (owner[edge_at] < 0))
    joined = _union_find(root.tolist(), loop, old[loop], young[loop])
    negative = linked.copy()
    parent = np.full(len(vertex_at), -1, dtype=np.int64)
    parent[young[linked]] = old[linked]
    up_edge = np.full(len(vertex_at), -1, dtype=np.int64)
    up_edge[young[linked]] = np.flatnonzero(linked)
    if len(joined):
        k, dying, near, far = joined.T
        owner[vertex_at[dying]] = edge_at[k]
        negative[k] = True
        parent, up_edge = parent.tolist(), up_edge.tolist()
        for e, x, y in zip(k.tolist(), near.tolist(), far.tolist()):
            while x >= 0:  # reverse the path from x to its root, hanging x under y
                parent[x], up_edge[x], x, y, e = y, e, parent[x], x, up_edge[x]
        parent, up_edge = np.array(parent), np.array(up_edge)
    return _forest_cycles(fc, np.flatnonzero(~negative & ~cleared), ends, parent, up_edge, by_rank)


def _union_find(
    root: list[int], links: np.ndarray, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """Join nodes ``first[k]`` and ``second[k]`` for each link k in turn,
    with the elder rule: the component whose root, its smallest node, is
    larger dies.  ``root`` holds each node's parent and is path-halved in
    place.  Returns a row (link, dying root, the link's node in its tree,
    the other node) for each link that joins two components.
    """
    joined = []
    for k, u, v in zip(links.tolist(), first.tolist(), second.tolist()):
        a, b = u, v
        while (p := root[a]) != a:  # path halving
            root[a] = a = root[p]
        while (p := root[b]) != b:
            root[b] = b = root[p]
        if a < b:
            root[b] = a
            joined += k, b, v, u
        elif b < a:
            root[a] = b
            joined += k, a, u, v
    return np.array(joined, dtype=np.int64).reshape(-1, 4)


def _forest_cycles(
    fc: FilteredComplex,
    shown: np.ndarray,
    ends: np.ndarray,
    parent: np.ndarray,
    up_edge: np.ndarray,
    by_rank: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cycles and chains of the positive edges of ranks ``shown``.

    The chain the reduction gives a positive edge (u, v) is the edge plus
    the u-v path in the forest of negative edges: it adds only negative
    columns, whose chains hold only negative edges, and a chain in a forest
    with boundary {u, v} is that path.  So each generator is a simple cycle.
    It is listed from its smallest vertex id, first to that vertex's larger
    neighbour and around back to it: the closed walk the feature map draws.

    All cycles are made at once in numpy.  ``up[j]`` holds each vertex's
    2**j-th ancestor (a root's is itself), found by pointer jumping with the
    depths.  Binary lifting finds each edge's lowest common ancestor w, and
    the cycle is first listed u, ..., w, ..., v: the path from u up to w and
    the one from v up to below w, written backwards from the cycle's end.
    Each path is filled by doubling: entries t to 2t - 1 are the 2**j-th
    ancestors of entries 0 to t - 1, for t = 2**j.  The chain's edges are
    the edge and the ``up_edge`` of every listed vertex but w.

    Returns the positions of the edges ``shown``, their cycles as a CSR
    array of vertex ids (``ptr``, ``at``), and their chains as keys
    ``j * n + row``, as the column paths give them.
    """
    edge_at = by_rank[1]
    u, v = ends[shown].T
    if not len(shown):
        return edge_at[shown], np.zeros(1, dtype=np.int64), u, u
    roots = parent < 0
    up = [np.where(roots, np.arange(len(parent)), parent)]
    depth = (~roots).astype(np.int64)  # the steps from each vertex to ``up[-1]`` of it
    while not roots[up[-1]].all():
        depth += depth[up[-1]]
        up.append(up[-1][up[-1]])
    a, b = np.where(depth[u] >= depth[v], u, v), np.where(depth[u] >= depth[v], v, u)
    rise = depth[a] - depth[b]
    for j, hop in enumerate(up):  # lift the deeper end to the other's depth
        lift = rise >> j & 1 == 1
        a[lift] = hop[a[lift]]
    for hop in reversed(up):
        apart = hop[a] != hop[b]
        a[apart], b[apart] = hop[a[apart]], hop[b[apart]]
    w = np.where(a == b, a, up[0][a])
    left, right = depth[u] - depth[w] + 1, depth[v] - depth[w]
    sizes = left + right
    start = np.cumsum(sizes) - sizes
    first, base, way = np.r_[u, v], np.r_[start, start + sizes - 1], np.repeat([1, -1], len(u))
    length = np.r_[left, right]
    raw = np.empty(start[-1] + sizes[-1], dtype=np.int64)
    raw[base[length > 0]] = first[length > 0]
    for j, hop in enumerate(up):
        h = 1 << j
        more = np.flatnonzero(length > h)
        count = np.minimum(length[more] - h, h)
        path = np.repeat(more, count)
        at = base[path] + way[path] * (h + _ranges(np.zeros_like(count), count))
        raw[at] = hop[raw[at - way[path] * h]]
    below = np.ones(len(raw), dtype=bool)
    below[start + left - 1] = False  # w
    chain_edge = np.r_[shown, up_edge[raw[below]]]
    owner_edge = np.r_[shown, np.repeat(shown, sizes - 1)]
    keys = edge_at[owner_edge] * len(fc) + fc.order[edge_at[chain_edge]]
    # Rotate each cycle to its smallest id, and turn it toward the larger neighbour.
    cycle = fc.rows(0)[0][fc.order[by_rank[0][raw]], 0]
    low = np.flatnonzero(cycle == np.repeat(np.minimum.reduceat(cycle, start), sizes)) - start
    turn = np.where(cycle[start + (low + 1) % sizes] > cycle[start + (low - 1) % sizes], 1, -1)
    ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes + 1, out=ptr[1:])
    step = _ranges(np.zeros_like(sizes), sizes + 1)
    walk = np.repeat(start, sizes + 1) + (
        np.repeat(low, sizes + 1) + np.repeat(turn, sizes + 1) * step
    ) % np.repeat(sizes, sizes + 1)
    return edge_at[shown], ptr, cycle[walk], keys


def _pair_dual(
    at: np.ndarray, face_at: np.ndarray, oldest: np.ndarray, owner: np.ndarray, apparent: np.ndarray
) -> bool:
    """Pair the triangles on the dual graph, if every edge has at most two
    triangles and every triangle dies.

    ``face_at`` holds the edges of the triangles at ``at``, and ``oldest``
    each edge's oldest triangle.  The nodes are the triangles and an outside
    node n; each edge links its two triangles, or its one and n.  A matrix
    and its anti-transpose pair alike, so the triangles pair as H0 of this
    graph with the edges walked in decreasing position: an edge joining two
    components kills the one whose largest node is smaller, and pairs with
    that node.  n is largest, so it never dies, and merging the regions
    outside the complex into it changes no death.  Numbered down from n
    (node n - x for position x), this is :func:`_union_find`'s elder rule.
    An apparent triangle is linked up front under the far side of its
    youngest edge; an apparent edge kills a vertex, so it closes a dual
    cycle and is skipped.  Sets the ``owner`` of each edge a triangle kills
    and returns True; returns False, with ``owner`` untouched, if an edge
    has three triangles or more, or a triangle kills no edge (H2).
    """
    n = len(owner)
    edge_at = face_at.ravel()
    triangle_at = np.repeat(at, 3)
    count = np.bincount(edge_at, minlength=n)
    if (count > 2).any():
        return False
    young = triangle_at != oldest[edge_at]
    other = np.full(n, n, dtype=np.int64)  # each edge's younger coface, n for one coface
    other[edge_at[young]] = triangle_at[young]
    root = np.arange(n + 1)
    low = face_at[apparent[at]].max(axis=1)  # the apparent triangles' youngest edges
    root[n - at[apparent[at]]] = n - other[low]
    root = root.tolist()
    edges = np.flatnonzero((count > 0) & ~apparent & (owner < 0))[::-1]
    joined = _union_find(root, edges, n - oldest[edges], n - other[edges])
    if len(joined) + len(low) < len(at):
        return False
    owner[joined[:, 0]] = n - joined[:, 1]
    return True


def _reduction_path(columns: int, rows: int) -> Callable[..., np.ndarray]:
    """The row sweep when the columns to reduce outnumber the face rows (a
    dense dimension: Vietoris-Rips triangles), else the column loop."""
    return _reduce_rows if columns > rows else _reduce_columns


def _reduce_columns(
    face_rank: np.ndarray, todo: np.ndarray, own: np.ndarray, head: np.ndarray, lex: np.ndarray
) -> np.ndarray:
    """Reduce the columns ``todo`` (column ranks, ascending) one by one.

    ``face_rank[k]`` holds column k's face ranks, ascending, and ``own[r]``
    the column owning face rank r or -1; it is updated in place.  Returns
    the todo columns' chains as keys ``head[j] + lex[k]`` for k in the chain
    of j, each key once: ``head[k]`` is column k's position times n and
    ``lex[k]`` its lexicographic row.  A working column is the set of its
    face ranks, its low the largest, and its chain the set of columns added
    into it, itself included (Zomorodian and Carlsson 2005).  Adding pivot
    k is a symmetric difference with k's column and one with k's chain.  A
    pivot reduced here keeps both sets; an apparent one is its own boundary
    row, read when it is added, and its own chain.  Only the rows of the
    todo columns and of the apparent columns they add are read.
    """
    owner = own.tolist()
    stored: list[tuple[set[int], set[int]] | None] = [None] * len(face_rank)
    chains = []
    for j, row in zip(todo.tolist(), face_rank[todo].tolist()):
        col, chain, low = set(row), {j}, row[-1]
        while (k := owner[low]) >= 0:
            if stored[k] is None:  # an apparent column
                col.symmetric_difference_update(face_rank[k].tolist())
                chain ^= {k}
            else:
                col ^= stored[k][0]
                chain ^= stored[k][1]
            if not col:
                break
            low = max(col)
        else:  # the column keeps its low
            owner[low] = j
            stored[j] = col, chain
        chains.append(chain)
    own[:] = owner
    sizes = [len(chain) for chain in chains]
    k = np.fromiter(itertools.chain.from_iterable(chains), np.int64)
    return head[np.repeat(todo, sizes)] + lex[k]


def _reduce_rows(
    face_rank: np.ndarray, todo: np.ndarray, own: np.ndarray, head: np.ndarray, lex: np.ndarray
) -> np.ndarray:
    """:func:`_reduce_columns` as a sweep over the rows, last to first.

    ``bits[r]`` is row r over the todo columns, bit t of it the t-th one.
    When row r is reached, every column that owns no row has its low at r
    or below, so the candidates (the bits of row r owning no row) are the
    columns whose low is r.  If an apparent column owns r, each candidate
    adds it; otherwise the oldest candidate takes r and each other one adds
    it, final since a column that owns a row never changes again.  So each
    column adds the same columns as in the loop, and ``own`` ends the same.
    A row is not read after its turn, so it keeps the columns that added
    its owner.  Each pivot the sweep found, lowest row first, is folded into
    the rows above it that hold its bit, so its adders take on its chain (a
    column whose chain holds a pivot ends below the pivot's row, so that row
    is final by then).  Then ``bits[r]`` holds the columns whose chain holds
    ``own[r]``: read out in blocks of rows, with each todo column itself,
    they are the chains, keyed as in the loop.
    """
    m = len(todo)
    words = (m + 63) >> 6
    bits = np.zeros((len(own), words), dtype=np.uint64)
    t = np.arange(m)
    one = np.left_shift(np.uint64(1), (t & 63).astype(np.uint64))
    at = face_rank[todo] * words + (t >> 6)[:, None]
    np.bitwise_or.at(bits.reshape(-1), at.ravel(), np.repeat(one, face_rank.shape[1]))
    free = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)  # the columns owning no row
    found = []  # the row, word and bit of each pivot the sweep found, highest row first
    for r in range(len(own) - 1, -1, -1):
        row = bits[r]
        row &= free
        hit = np.flatnonzero(row)
        if not len(hit):
            continue
        k = own[r]
        if k < 0:  # the oldest candidate takes the row
            w = hit[0]
            v = int(row[w])
            b = v & -v
            own[r] = todo[(w << 6) + b.bit_length() - 1]
            free[w] ^= b
            row[w] = v ^ b
            found.append((r, w, np.uint64(b)))
            if v == b and len(hit) == 1:
                continue
            below = np.flatnonzero(bits[:r, w] & np.uint64(b))
        else:  # an apparent column owns the row
            below = face_rank[k, :-1]
        bits[below] ^= row
    for r, w, b in reversed(found):
        if bits[r].any():
            bits[r + 1 + np.flatnonzero(bits[r + 1:, w] & b)] ^= bits[r]
    column = head[todo]
    keys = [column + lex[todo]]
    step = max(1, _READ_BLOCK // max(words, 1))
    for r in range(0, len(own), step):
        rs, ws = np.nonzero(bits[r:r + step])
        v = bits[r + rs, ws]
        row_key = lex[own[r + rs]]
        t = (ws << 6) - 1023  # 2**b as a float64 has b + 1023 in its exponent bits
        while len(v):  # take each word's lowest bit until none is left
            low = v & (np.uint64(0) - v)
            keys.append(column[t + (low.astype(np.float64).view(np.int64) >> 52)] + row_key)
            v ^= low
            left = v != 0
            v, t, row_key = v[left], t[left], row_key[left]
    del bits
    return np.concatenate(keys)


def persistence_pairs(reduced: ReducedMatrix, fc: FilteredComplex) -> Barcode:
    """Read every bar off a reduced matrix, as arrays.

    A column that ends zero is a birth, and the column that owns its row,
    if any, is its death.  A vertex is its own generator; an edge or
    triangle's is its chain, gathered, as ``chain_at`` lists it in
    lexicographic order, into one array a block of bars at a time.  A
    zero-length dimension-1 bar was never reduced, so its generator is
    empty: ``()``.  No ``PersistencePair`` is built.
    """
    if reduced.boundary.complex is not fc and reduced.boundary.complex != fc:
        raise ValueError("reduced matrix does not belong to this complex")
    values = fc.values
    simplices = tuple(fc.rows(d)[0] for d in range(3))
    row, dimension = fc.order, fc.dimensions
    owner = reduced.owner
    dies = np.zeros(len(fc), dtype=bool)
    dies[owner[owner >= 0]] = True
    born = np.flatnonzero(~dies)
    killer = owner[born]
    sizes = np.diff(reduced.chain_ptr)[born]
    # A vertex column's chain is empty; its bar's generator is its own row.
    vertex = dimension[born] == 0
    sizes[vertex] = 1
    ptr = np.zeros(len(born) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    generator = np.empty(ptr[-1], dtype=row.dtype)
    chain_ptr, chain_at = reduced.chain_ptr, reduced.chain_at
    # No other chain-sized array is made.
    cuts = np.searchsorted(ptr, np.arange(0, ptr[-1], _COPY_BLOCK))
    for a, b in zip(cuts.tolist(), [*cuts[1:].tolist(), len(born)]):
        if a == b:
            continue
        first, last = born[a], born[b - 1] + 1
        keep = np.repeat(~dies[first:last], np.diff(chain_ptr[first : last + 1]))
        at = chain_at[chain_ptr[first] : chain_ptr[last]][keep]  # the births' chains, in order
        (v,) = np.nonzero(vertex[a:b])
        at = np.insert(at, ptr[a + v] - ptr[a] - np.arange(len(v)), born[a + v])
        generator[ptr[a] : ptr[b]] = row[at]
    return Barcode._of_columns(
        fc.max_value(),
        dimension[born],
        values[born],
        np.where(killer < 0, np.nan, values[killer]),
        killer < 0,
        np.zeros(len(born), dtype=bool),
        born,
        ptr,
        generator,
        simplices,
        np.searchsorted(born, reduced.cycle_of),
        reduced.cycle_ptr,
        reduced.cycle_at,
    )


def barcode_of(fc: FilteredComplex) -> Barcode:
    """Convenience: boundary matrix, reduction, and pairing in one call."""
    return persistence_pairs(reduce_matrix(build_boundary_matrix(fc)), fc)


def _f2_rank(vectors: Iterable[set[int]]) -> int:
    """Rank of F2 vectors given as sets of nonzero coordinates (Gaussian elimination)."""
    pivots: dict[int, set[int]] = {}
    for v in vectors:
        while v:
            lead = max(v)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = v
                break
            v ^= p
    return len(pivots)


def betti_oracle(simplices: Iterable[Simplex]) -> tuple[int, int, int]:
    """Betti numbers (b0, b1, b2) of a plain simplicial complex over F2.

    Brute force: rank the two boundary maps directly and use
    b_k = dim ker d_k - rank d_{k+1}.  Independent of the reduction code on
    purpose; tests lean on that.
    """
    by_dim: dict[int, list[Simplex]] = {0: [], 1: [], 2: []}
    seen = set()
    for s in simplices:
        s = tuple(s)
        if s in seen:
            continue
        seen.add(s)
        by_dim[len(s) - 1].append(s)
    for d in (1, 2):
        for s in by_dim[d]:
            for f in faces(s):
                if f not in seen:
                    raise ValueError(f"not a complex: {s} lacks face {f}")
    vertex_row = {s: i for i, s in enumerate(by_dim[0])}
    edge_row = {s: i for i, s in enumerate(by_dim[1])}
    d1 = [{vertex_row[(a,)], vertex_row[(b,)]} for (a, b) in by_dim[1]]
    d2 = [{edge_row[f] for f in faces(t)} for t in by_dim[2]]
    rank1 = _f2_rank(d1)
    rank2 = _f2_rank(d2)
    n0, n1, n2 = len(by_dim[0]), len(by_dim[1]), len(by_dim[2])
    return n0 - rank1, n1 - rank1 - rank2, n2 - rank2
