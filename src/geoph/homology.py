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
never reduced).  The other columns of a dimension take one of two paths
that make the same additions.  The column loop reduces one column at a
time, as one Python int whose bit b is the face b ranks below its lowest
row, so an addition is an xor and a shift.  When the columns to reduce
outnumber the face rows (Vietoris-Rips triangles), the rows are swept
instead, last to first, as numpy ``uint64`` bit rows over the columns: at
each row, every column whose lowest row it is adds the row's owner at once.
Either path only logs which columns each column adds; numpy then sums the
chains from that log into one CSR array (``ReducedMatrix.chain_ptr``,
``.chain_at``), the one record of the reduction.  ``persistence_pairs``
reads every bar's dimension, birth, death and generator off those arrays
into a columnar ``Barcode`` (module ``barcode``), with no per-bar object.
The per-column views (``BoundaryMatrix.columns``, ``ReducedMatrix.matrix``,
``.chains`` and ``.pairs``) are built on first read; the reduced matrix is
computed as R = DV, the boundary of each chain (Cohen-Steiner, Edelsbrunner
and Morozov 2006, *Vines and Vineyards*).

``betti_oracle`` is a deliberately separate brute-force computation
(Gaussian elimination on the raw boundary maps) used to cross-check the
reduction; it shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

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
_UNPACK_BLOCK = 1 << 16  # words of the row sweep's bit rows unpacked at a time


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
    chain is itself.  The chain of each column the loop reduced is
    ``chain_at[chain_ptr[j]:chain_ptr[j + 1]]``, positions in ascending
    order; the other columns (apparent ones, vertices and zero-length edge
    births) have an empty row there.  ``matrix`` holds the reduced columns,
    each the F2 boundary of its chain (R = DV), and ``chains`` and ``pairs``
    the per-column views of the rest; all three are built on first read.
    """

    boundary: BoundaryMatrix
    owner: np.ndarray
    apparent: np.ndarray
    chain_ptr: np.ndarray
    chain_at: np.ndarray

    @cached_property
    def pairs(self) -> dict[int, int]:
        """Birth column -> death column."""
        low = np.flatnonzero(self.owner >= 0)
        return dict(zip(low.tolist(), self.owner[low].tolist()))

    @cached_property
    def matrix(self) -> ReducedColumns:
        """Column j of R = DV: the F2 sum of the boundaries of j's chain,
        read as keys ``j * n + face``."""
        n = len(self.owner)
        column = np.repeat(np.arange(n), np.diff(self.chain_ptr))
        keys = []
        for at, face_at in self.boundary.face_positions:
            row = np.full(n, -1, dtype=np.int64)
            row[at] = np.arange(len(at))
            row = row[self.chain_at]
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
        chains = _sets(self.chain_ptr, self.chain_at)
        for j in np.flatnonzero(self.apparent).tolist():
            chains[j] = frozenset((j,))
        return tuple(chains)


def _csr(keys: np.ndarray, n: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending keys ``j * n + k`` (0 <= k < n) as a CSR array of ``rows``
    rows: row j holds the k of its keys."""
    ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=rows), out=ptr[1:])
    return ptr, keys % n


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
    first.  An edge whose row a triangle owns at the edge's own value is a
    zero-length birth: its column reduces to zero and no artifact shows its
    generator, so it is skipped (clearing).

    The other columns of each dimension go through the column loop
    (:func:`_reduce_columns`) or, when they outnumber the face rows, the
    row sweep (:func:`_reduce_rows`), as :func:`_reduction_path` picks.
    Both make the same additions and log them, the chains are summed from
    that log (:func:`_chain_keys`), and the reduced columns are the chains'
    boundaries (``ReducedMatrix.matrix``).
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
    keys = []
    for d in (2, 1):
        at, face_at = bm.face_positions[d - 1]
        column_at, face_by = by_rank[d], by_rank[d - 1]
        face_rank = np.empty_like(face_at)
        face_rank[rank[at]] = np.sort(rank[face_at], axis=1)
        todo = ~apparent[column_at]
        if d == 1:  # clear zero-length births
            killer = owner[column_at]
            todo &= (killer < 0) | (values[np.maximum(killer, 0)] != values[column_at])
        todo = np.flatnonzero(todo)
        own = owner[face_by]  # the column owning each face rank, as a column rank
        own[own >= 0] = rank[own[own >= 0]]
        added, log = _reduction_path(len(todo), len(face_by))(face_rank, todo, own)
        owner[face_by[own >= 0]] = column_at[own[own >= 0]]
        keys.append(_chain_keys(n, column_at, apparent[column_at], todo, added, log))
    keys = _odd(np.concatenate(keys))
    return ReducedMatrix(bm, owner, apparent, *_csr(keys, n, n))


def _reduction_path(columns: int, rows: int) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """The row sweep when the columns to reduce outnumber the face rows (a
    dense dimension: Vietoris-Rips triangles), else the column loop."""
    return _reduce_rows if columns > rows else _reduce_columns


def _reduce_columns(
    face_rank: np.ndarray, todo: np.ndarray, own: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the columns ``todo`` (column ranks, ascending) one by one.

    ``face_rank[k]`` holds column k's face ranks, ascending, and ``own[r]``
    the column owning face rank r or -1; it is updated in place.  Returns
    how many columns each todo column added, and those columns in order.
    A working column is one int whose bit b is the face b ranks below its
    lowest row, and so is each pivot's stored column (an apparent one's is
    built the first time a later column adds it), so an addition is one xor
    that clears bit 0, and a shift past the trailing zeros moves the low.
    """
    offsets = face_rank[:, -1:] - face_rank[:, :-1]
    cols = [1] * len(todo)
    for off in offsets[todo].T.tolist():
        cols = [col | 1 << b for col, b in zip(cols, off)]
    offsets = offsets.T.tolist()
    owner = own.tolist()
    r: list[int | None] = [None] * len(face_rank)
    log: list[int] = []
    added = []
    for j, low, col in zip(todo.tolist(), face_rank[todo, -1].tolist(), cols):
        before = len(log)
        while True:
            k = owner[low]
            if k < 0:
                owner[low] = j
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
    own[:] = owner
    return np.array(added, dtype=np.int64), np.array(log, dtype=np.int64)


def _reduce_rows(
    face_rank: np.ndarray, todo: np.ndarray, own: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_reduce_columns` as a sweep over the rows, last to first.

    ``bits[r]`` is row r over the todo columns, bit t of it the t-th one.
    When row r is reached, every column that owns no row has its low at r
    or below, so the candidates (the bits of row r owning no row) are the
    columns whose low is r.  If an apparent column owns r, each candidate
    adds it; otherwise the oldest candidate takes r and each other one adds
    it, final since a column that owns a row never changes again.  So each
    column adds the same columns as in the loop, and ``own`` ends the same.
    A row is not read after its turn, so it keeps its candidates less its
    owner: the columns that added the owner, read out at the end as the log.
    """
    m = len(todo)
    words = (m + 63) >> 6
    bits = np.zeros((len(own), words), dtype=np.uint64)
    t = np.arange(m)
    one = np.left_shift(np.uint64(1), (t & 63).astype(np.uint64))
    at = face_rank[todo] * words + (t >> 6)[:, None]
    np.bitwise_or.at(bits.reshape(-1), at.ravel(), np.repeat(one, face_rank.shape[1]))
    free = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)  # the columns owning no row
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
            if v == b and len(hit) == 1:
                continue
            below = np.flatnonzero(bits[:r, w] & np.uint64(b))
        else:  # an apparent column owns the row
            below = face_rank[k, :-1]
        bits[below] ^= row
    rows, word = np.nonzero(bits)
    cols = len(face_rank)
    keys = [np.zeros(0, dtype=np.int64)]  # t * cols + k: todo column t added column k
    for s in range(0, len(rows), _UNPACK_BLOCK):
        rs, ws = rows[s:s + _UNPACK_BLOCK], word[s:s + _UNPACK_BLOCK]
        on = bits[rs, ws].astype("<u8", copy=False).view(np.uint8)
        on = np.flatnonzero(np.unpackbits(on, bitorder="little"))
        at = on >> 6
        keys.append(((ws[at] << 6) + (on & 63)) * cols + own[rs][at])
    del bits, rows, word
    keys = np.concatenate(keys)
    keys.sort()
    added = np.bincount(keys // cols, minlength=m)
    keys %= cols  # in place, so the log is never held twice
    return added, keys


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
        np.where(killer < 0, np.nan, values[killer]),
        killer < 0,
        np.zeros(len(born), dtype=bool),
        born,
        *_csr(key, n, len(born)),
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
