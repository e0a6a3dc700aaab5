"""Filtered simplicial complexes of dimension at most 2.

A simplex is a strictly increasing tuple of non-negative vertex ids:
``(v,)`` for a vertex, ``(u, v)`` for an edge, ``(u, v, w)`` for a triangle.
A filtered complex assigns each simplex a finite real value, is closed under
faces, and is monotone (no face appears later than a coface).  Simplices are
totally ordered by ``(value, dimension, lexicographic)``; every consumer in
the package relies on that order.

A complex is stored as arrays: for each dimension, its simplices as rows of
vertex ids in lexicographic order with the filtration position of each row,
and the values in filtration order.  Faces are found by binary search over
packed vertex ranks.  The ``(simplex, value)`` tuples of ``entries`` are
built only when read; ``to_text`` formats straight from the arrays.  The
constructor validates its entries; the builders
in this package emit valid complexes by construction and hand their arrays
to ``FilteredComplex._from_arrays``, which does not.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

Simplex = tuple[int, ...]
Entry = tuple[Simplex, float]

MAX_DIM = 2
_TEXT_BLOCK = 4096  # simplices per block of `to_text` lines


def simplex(vertices: Iterable[int]) -> Simplex:
    """Canonical form of a simplex: sorted, validated vertex tuple."""
    vs = tuple(sorted(int(v) for v in vertices))
    if not vs:
        raise ValueError("empty simplex")
    if len(vs) > MAX_DIM + 1:
        raise ValueError(f"simplex {vs} exceeds dimension {MAX_DIM}")
    if vs[0] < 0:
        raise ValueError(f"negative vertex id in {vs}")
    if len(set(vs)) < len(vs):
        raise ValueError(f"repeated vertex in simplex {vs}")
    return vs


def dim(s: Simplex) -> int:
    return len(s) - 1


def faces(s: Simplex) -> list[Simplex]:
    """Codimension-1 faces (empty for a vertex)."""
    if len(s) == 1:
        return []
    return [s[:i] + s[i + 1 :] for i in range(len(s))]


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each key in ``sorted_keys``, and whether it is there."""
    at = np.searchsorted(sorted_keys, keys)
    found = np.zeros(keys.shape, dtype=bool)
    inside = at < len(sorted_keys)
    found[inside] = sorted_keys[at[inside]] == keys[inside]
    return at, found


class FilteredComplex:
    """Immutable filtered complex with a canonical simplex order.

    The constructor validates strictly; use :func:`close_under_faces` to
    build from a partial simplex list.
    """

    __slots__ = ("_rows", "_positions", "_values", "_order", "_entries")

    def __init__(self, entries: Iterable[Entry]):
        rows: list[list[Simplex]] = [[] for _ in range(MAX_DIM + 1)]
        values: list[list[float]] = [[] for _ in range(MAX_DIM + 1)]
        for s, v in entries:
            s, v = simplex(s), float(v)
            if not math.isfinite(v):
                raise ValueError(f"non-finite filtration value for {s}")
            rows[len(s) - 1].append(s)
            values[len(s) - 1].append(v)
        self._set(rows, values)
        for d, r in enumerate(self._rows):
            repeated = np.flatnonzero((r[1:] == r[:-1]).all(axis=1))
            if len(repeated):
                raise ValueError(f"duplicate simplex {self._simplex(d, repeated[0])}")
        for d in range(1, MAX_DIM + 1):
            at, found = self._face_rows(d)
            if not found.all():
                k, i = np.argwhere(~found)[0]
                s = self._simplex(d, k)
                raise ValueError(f"complex not closed: {s} lacks face {faces(s)[i]}")
            value = self._values[self._positions[d]]
            later = self._values[self._positions[d - 1][at]] > value[:, None]
            if later.any():
                k, i = np.argwhere(later)[0]
                s = self._simplex(d, k)
                raise ValueError(f"filtration not monotone: face {faces(s)[i]} enters after {s}")

    @classmethod
    def _from_arrays(
        cls, rows: Sequence[np.ndarray], values: Sequence[np.ndarray]
    ) -> FilteredComplex:
        """A complex from valid arrays, unchecked: for builders only.

        ``rows[d]`` holds the d-simplices, one strictly increasing row of
        vertex ids each, in any order and without repeats; ``values[d]``
        their finite values.  The simplices must be closed under faces and
        monotone.
        """
        fc = cls.__new__(cls)
        fc._set(rows, values)
        return fc

    def _set(self, rows: Sequence, values: Sequence) -> None:
        by_dim, value_by_dim = [], []
        for d, (r, v) in enumerate(zip(rows, values)):
            r = np.asarray(r, dtype=np.int64).reshape(-1, d + 1)
            lex = np.lexsort(r.T[::-1])
            by_dim.append(r[lex])
            value_by_dim.append(np.asarray(v, dtype=np.float64)[lex])
        value = np.concatenate(value_by_dim)
        # The rows run by dimension, then lexicographically, so a stable sort
        # by value gives the (value, dimension, lex) order.
        order = np.argsort(value, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        self._rows = tuple(by_dim)
        self._positions = tuple(np.split(position, np.cumsum([len(r) for r in by_dim[:-1]])))
        self._values = value[order]
        self._values.flags.writeable = False
        self._order = order  # row (all dimensions, in turn) at each position
        self._entries: tuple[Entry, ...] | None = None

    def _simplex(self, d: int, k: int) -> Simplex:
        return tuple(self._rows[d][k].tolist())

    def _face_rows(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Row of each face of each d-simplex among the (d-1)-simplices, in
        ``faces`` order, and whether that face is there."""
        vertex_ids = self._rows[0][:, 0]
        weights = len(vertex_ids) ** np.arange(d - 1, -1, -1)  # packs ranks into one key
        rank, known = _lookup(vertex_ids, self._rows[d])
        keep = [[j for j in range(d + 1) if j != i] for i in range(d + 1)]
        below = np.searchsorted(vertex_ids, self._rows[d - 1]) @ weights
        at, found = _lookup(below, rank[:, keep] @ weights)
        return at, found & known[:, keep].all(axis=2)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        # The arrays are a function of the (simplex, value) pairs.
        return all(
            np.array_equal(a, b)
            for a, b in zip(
                (*self._rows, *self._positions, self._values),
                (*other._rows, *other._positions, other._values),
            )
        )

    def __repr__(self) -> str:
        return f"FilteredComplex({len(self)} simplices)"

    @property
    def entries(self) -> tuple[Entry, ...]:
        """Simplices with values, in canonical (value, dim, lex) order;
        built on first read."""
        if self._entries is None:
            listed = [s for r in self._rows for s in zip(*r.T.tolist())]
            self._entries = tuple(
                zip(map(listed.__getitem__, self._order.tolist()), self._values.tolist())
            )
        return self._entries

    @property
    def values(self) -> np.ndarray:
        """Filtration values in canonical order (read only)."""
        return self._values

    def rows(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The d-simplices as rows of vertex ids in lexicographic order, and
        the filtration position of each row."""
        return self._rows[d], self._positions[d]

    def face_positions(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Filtration positions of the d-simplices (d = 1 or 2), and row by
        row the positions of each one's faces, in ``faces`` order."""
        at, _ = self._face_rows(d)
        return self._positions[d], self._positions[d - 1][at]

    def simplices(self) -> list[Simplex]:
        return [s for s, _ in self.entries]

    def max_value(self) -> float:
        return float(self._values[-1]) if len(self) else 0.0

    def counts(self) -> tuple[int, int, int]:
        c0, c1, c2 = map(len, self._rows)
        return c0, c1, c2

    def to_text(self) -> str:
        """One ``v0,v1,...<TAB>repr(value)`` line per simplex, in canonical order."""
        listed: list[str] = []
        for r in self._rows:
            listed += map(",".join, zip(*[map(str, column) for column in r.T.tolist()]))
        parts = []  # joined a block at a time, so the lines of a whole complex never coexist
        for i in range(0, len(self), _TEXT_BLOCK):
            in_order = map(listed.__getitem__, self._order[i : i + _TEXT_BLOCK].tolist())
            values = self._values[i : i + _TEXT_BLOCK].tolist()
            parts.append("".join([f"{text}\t{value!r}\n" for text, value in zip(in_order, values)]))
        return "".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "FilteredComplex":
        entries: list[Entry] = []
        for ln, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                verts, value = line.split("\t")
                entries.append((tuple(int(v) for v in verts.split(",")), float(value)))
            except ValueError as exc:
                raise ValueError(f"bad complex line {ln}: {line!r}") from exc
        return cls(entries)


def close_under_faces(entries: Iterable[Entry]) -> FilteredComplex:
    """Build a valid filtered complex from a partial list of simplices.

    Missing faces are inserted with the minimum value over their cofaces;
    a face listed with a larger value than one of its cofaces is lowered to
    keep the filtration monotone.  Duplicate simplices keep the smallest
    value.  Idempotent on already-valid complexes.
    """
    values: dict[Simplex, float] = {}
    for s, v in entries:
        s = simplex(s)
        v = float(v)
        if not math.isfinite(v):
            raise ValueError(f"non-finite filtration value for {s}")
        values[s] = min(v, values.get(s, v))
    # Propagate downward dimension by dimension so every face exists and
    # carries at most the minimum over its cofaces.
    for d in (2, 1):
        for s in [s for s in values if len(s) == d + 1]:
            for f in faces(s):
                values[f] = min(values.get(f, values[s]), values[s])
    return FilteredComplex(values.items())


def euler_characteristic(simplices: Iterable[Simplex]) -> int:
    """Alternating count of simplices: #vertices - #edges + #triangles."""
    chi = 0
    for s in simplices:
        chi += (-1) ** (len(s) - 1)
    return chi
