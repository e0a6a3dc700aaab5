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
never reduced); the Python loop runs over the other columns only.  In the
loop a column is one Python int whose bit b is the face b ranks below its
lowest row, so an addition is an xor and a shift.  The loop only logs which
columns each column adds; numpy then sums the chains from that log into one
CSR array (``ReducedMatrix.chain_ptr``, ``.chain_at``).
``persistence_pairs`` reads every bar's dimension, birth, death and
generator off those arrays into a columnar ``Barcode`` (module
``barcode``), with no per-bar object.  The full per-column views
(``BoundaryMatrix.columns``, ``ReducedMatrix.matrix``, ``.chains``,
``.pairs``, ``.r`` and ``.v``) are built on first read.

``betti_oracle`` is a deliberately separate brute-force computation
(Gaussian elimination on the raw boundary maps) used to cross-check the
reduction; it shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .barcode import (  # noqa: F401 -- the barcode's names stay importable from here
    LONG_PERSISTENCE_THRESHOLD,
    Barcode,
    PersistencePair,
    _gather,
    classify_long_persistence,
)
from .complexes import FilteredComplex, Simplex, faces

_EMPTY: frozenset[int] = frozenset()


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
    """Result of column reduction: pairing, reduced columns, chain history.

    ``owner[i]`` is the column whose reduced lowest row is i, or -1.  An
    ``apparent`` column keeps its boundary as its reduced column, and its
    chain is itself.  ``aligned[d - 1][c]`` is the reduced column of the
    d-simplex of filtration rank c (its rank among the d-simplices) as a
    low-aligned int: bit b is the face b ranks below the column's lowest
    row, 0 is a zero column.  It is set for each column the reduction loop
    reduced or added and None elsewhere.  The chain of each column the loop
    reduced is ``chain_at[chain_ptr[j]:chain_ptr[j + 1]]``, positions in
    ascending order.  The other columns (vertices and zero-length edge
    births) have an empty reduced column and chain.  ``r`` and ``v`` (row
    and chain sets of the columns the loop reduced or added, None
    elsewhere), ``matrix``, ``chains`` and ``pairs`` are built on first
    read.
    """

    boundary: BoundaryMatrix
    owner: np.ndarray
    apparent: np.ndarray
    aligned: tuple[list[int | None], ...]
    chain_ptr: np.ndarray
    chain_at: np.ndarray

    @cached_property
    def pairs(self) -> dict[int, int]:
        """Birth column -> death column."""
        low = np.flatnonzero(self.owner >= 0)
        return dict(zip(low.tolist(), self.owner[low].tolist()))

    @cached_property
    def r(self) -> list[frozenset[int] | None]:
        rank, by_rank = _filtration_ranks(self.boundary.complex)
        low_of = np.full(len(rank), -1, dtype=np.int64)
        low_of[self.owner[self.owner >= 0]] = np.flatnonzero(self.owner >= 0)
        r: list[frozenset[int] | None] = [None] * len(rank)
        for d, aligned in enumerate(self.aligned, start=1):
            for j, col in zip(by_rank[d].tolist(), aligned):
                if col == 0:
                    r[j] = _EMPTY
                elif col is not None:
                    rows = by_rank[d - 1][rank[low_of[j]] - _bits(col)]
                    r[j] = frozenset(rows.tolist())
        return r

    @cached_property
    def v(self) -> list[frozenset[int] | None]:
        _, by_rank = _filtration_ranks(self.boundary.complex)
        ptr = self.chain_ptr.tolist()
        v: list[frozenset[int] | None] = [None] * (len(ptr) - 1)
        for d, aligned in enumerate(self.aligned, start=1):
            for j, col in zip(by_rank[d].tolist(), aligned):
                if col is not None:  # an added apparent column has no chain row: it is its chain
                    v[j] = frozenset(self.chain_at[ptr[j] : ptr[j + 1]].tolist() or (j,))
        return v

    @cached_property
    def matrix(self) -> ReducedColumns:
        cols = list(self.boundary.columns)
        for j in np.flatnonzero(~self.apparent).tolist():
            cols[j] = self.r[j] or _EMPTY
        return ReducedColumns(tuple(cols))

    @cached_property
    def chains(self) -> tuple[frozenset[int], ...]:
        """Column j of the accumulated additions."""
        chains = [_EMPTY if v is None else v for v in self.v]
        for j in np.flatnonzero(self.apparent).tolist():
            chains[j] = frozenset((j,))
        return tuple(chains)


def _bits(col: int) -> np.ndarray:
    """The set bits of a nonnegative int, ascending."""
    raw = col.to_bytes((col.bit_length() + 7) // 8, "little")
    return np.flatnonzero(np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little"))


def _filtration_ranks(fc: FilteredComplex) -> tuple[np.ndarray, list[np.ndarray]]:
    """``rank[p]``, the rank of position p among the simplices of its
    dimension in filtration order, and per dimension the position of each
    rank."""
    rank = np.empty(len(fc), dtype=np.int64)
    by_rank = []
    for d in range(3):
        at = np.sort(fc.rows(d)[1])
        rank[at] = np.arange(len(at))
        by_rank.append(at)
    return rank, by_rank


def _odd(keys: np.ndarray) -> np.ndarray:
    """The values that occur an odd number of times in ``keys``, ascending."""
    keys = np.sort(keys)
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[first[np.diff(np.r_[first, len(keys)]) % 2 == 1]]


def reduce_matrix(bm: BoundaryMatrix) -> ReducedMatrix:
    """Reduce the triangle columns, then the edge columns, each left to right.

    A pivot is one dimension below its column, so a column only ever adds
    columns of its own dimension, and every reduced column and chain is the
    one the plain left-to-right order gives.  Apparent columns are paired
    before the loop; one's aligned column is built the first time a later
    column adds it.  An edge whose row a triangle owns at the edge's own
    value is a zero-length birth: its column reduces to zero and no artifact
    shows its generator, so it is skipped (clearing).

    The loop works in filtration ranks.  A working column is one int aligned
    at its lowest row, and so is each pivot's stored column, so an addition
    is one xor that clears bit 0, and a shift past the trailing zeros moves
    the low down.  The loop only logs which columns each column adds; the
    chains are summed from that log afterwards (:func:`_chain_keys`).
    """
    fc = bm.complex
    n = len(bm)
    values = fc.values
    owner = np.full(n, -1, dtype=np.int64)
    apparent = np.zeros(n, dtype=bool)
    for at, face_at in bm.face_positions:
        low = face_at.max(axis=1)
        oldest = np.full(n, n, dtype=np.int64)
        np.minimum.at(oldest, face_at, at[:, None])
        hit = oldest[low] == at
        owner[low[hit]] = at[hit]
        apparent[at[hit]] = True
    rank, by_rank = _filtration_ranks(fc)
    aligned: list[list[int | None]] = [[], []]
    keys = []
    for d in (2, 1):
        at, face_at = bm.face_positions[d - 1]
        column_at, face_by = by_rank[d], by_rank[d - 1]
        face_rank = np.empty_like(face_at)
        face_rank[rank[at]] = np.sort(rank[face_at], axis=1)
        offsets = face_rank[:, -1:] - face_rank[:, :-1]
        todo = ~apparent[column_at]
        if d == 1:  # clear zero-length births
            killer = owner[column_at]
            todo &= (killer < 0) | (values[np.maximum(killer, 0)] != values[column_at])
        todo = np.flatnonzero(todo)
        cols = [1] * len(todo)
        for off in offsets[todo].T.tolist():
            cols = [col | 1 << b for col, b in zip(cols, off)]
        offsets = offsets.T.tolist()
        own = owner[face_by]  # the column owning each face rank, as a column rank
        own[own >= 0] = rank[own[own >= 0]]
        own = own.tolist()
        r: list[int | None] = [None] * len(column_at)
        log: list[int] = []
        added = []
        for j, low, col in zip(todo.tolist(), face_rank[todo, -1].tolist(), cols):
            before = len(log)
            while True:
                k = own[low]
                if k < 0:
                    own[low] = j
                    break
                rk = r[k]
                if rk is None:  # an apparent column, added for the first time
                    rk = 1
                    for off in offsets:
                        rk |= 1 << off[k]
                    r[k] = rk
                log.append(k)
                col ^= rk
                if not col:
                    break
                shift = (col & -col).bit_length() - 1
                col >>= shift
                low -= shift
            r[j] = col
            added.append(len(log) - before)
        own = np.array(own, dtype=np.int64)
        owner[face_by[own >= 0]] = column_at[own[own >= 0]]
        aligned[d - 1] = r
        keys.append(
            _chain_keys(
                n, column_at, apparent[column_at], todo,
                np.array(added, dtype=np.int64), np.array(log, dtype=np.int64),
            )
        )
    keys = _odd(np.concatenate(keys))
    chain_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=chain_ptr[1:])
    return ReducedMatrix(bm, owner, apparent, tuple(aligned), chain_ptr, keys % n)


def _chain_keys(
    n: int,
    at: np.ndarray,
    apparent: np.ndarray,
    done: np.ndarray,
    added: np.ndarray,
    log: np.ndarray,
) -> np.ndarray:
    """The chains of one dimension's reduced columns as keys ``j * n + k``
    (positions j and k, for k in the chain of j), each key present an odd
    number of times.

    Columns are indexed by filtration rank: ``at`` holds their positions
    and ``apparent`` their flags; the loop reduced the columns ``done``,
    ascending, and column ``done[s]`` added the ``added[s]`` columns that
    follow in ``log``.  A chain is the column itself plus the chain of each
    column it added: an apparent column's chain is itself, and a pivot the
    loop reduced is expanded into its own log, one round per level of
    nesting, with pending pivots that meet twice in one chain cancelled
    before they are expanded.
    """
    ptr = np.zeros(len(done) + 1, dtype=np.int64)
    np.cumsum(added, out=ptr[1:])
    m = len(at)
    j, k = np.repeat(done, added), log
    keys = [at[done] * (n + 1)]
    while len(k):
        kept = apparent[k]
        keys.append(at[j[kept]] * n + at[k[kept]])
        j, k = np.divmod(_odd(j[~kept] * m + k[~kept]), m)
        keys.append(at[j] * n + at[k])
        k, sizes = _gather(ptr, log, np.searchsorted(done, k))
        j = np.repeat(j, sizes)
    return np.concatenate(keys)


def persistence_pairs(reduced: ReducedMatrix, fc: FilteredComplex) -> Barcode:
    """Read every bar off a reduced matrix, as arrays.

    A column that ends zero is a birth, and the column that owns its row,
    if any, is its death.  A vertex is its own generator; an edge or
    triangle's is its chain, with its simplices in lexicographic order.  A
    zero-length dimension-1 bar was never reduced, so its generator is
    empty: ``()``.  No ``PersistencePair`` is built here.
    """
    if reduced.boundary.complex is not fc and reduced.boundary.complex != fc:
        raise ValueError("reduced matrix does not belong to this complex")
    n = len(fc)
    values = fc.values
    simplices = tuple(fc.rows(d)[0] for d in range(3))
    row = np.empty(n, dtype=np.int64)  # row of each position, numbered on across dimensions
    dimension = np.empty(n, dtype=np.int64)
    start = 0
    for d in range(3):
        _, at = fc.rows(d)
        row[at] = start + np.arange(len(at))
        dimension[at] = d
        start += len(at)
    owner = reduced.owner
    dies = np.zeros(n, dtype=bool)
    dies[owner[owner >= 0]] = True
    born = np.flatnonzero(~dies)
    killer = owner[born]
    # Vertex columns have empty chains; a vertex bar's generator is itself.
    chain, sizes = _gather(reduced.chain_ptr, reduced.chain_at, born)
    (vertex,) = np.nonzero(dimension[born] == 0)
    key = np.concatenate(
        [np.repeat(np.arange(len(born)), sizes) * n + row[chain], vertex * n + row[born[vertex]]]
    )
    key.sort()  # bar by bar, each generator's rows ascending: lexicographic order
    return Barcode._of_columns(
        fc.max_value(),
        dimension[born],
        values[born],
        values[np.maximum(killer, 0)],
        killer < 0,
        np.zeros(len(born), dtype=bool),
        born,
        np.concatenate([[0], np.cumsum(np.bincount(key // n, minlength=len(born)))]),
        key % n,
        simplices,
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
