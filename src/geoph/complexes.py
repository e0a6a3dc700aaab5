"""Filtered simplicial complexes of dimension at most 2.

A simplex is a strictly increasing tuple of non-negative vertex ids:
``(v,)`` for a vertex, ``(u, v)`` for an edge, ``(u, v, w)`` for a triangle.
A filtered complex assigns each simplex a finite real value, is closed under
faces, and is monotone (no face appears later than a coface).  Simplices are
totally ordered by ``(value, dimension, lexicographic)``; every consumer in
the package relies on that order.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Iterator, Sequence

Simplex = tuple[int, ...]
Entry = tuple[Simplex, float]

MAX_DIM = 2


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


def order_key(entry: Entry) -> tuple[float, int, Simplex]:
    s, value = entry
    return (value, len(s), s)


class FilteredComplex:
    """Immutable filtered complex with a canonical simplex order.

    The constructor validates strictly; use :func:`close_under_faces` to
    build from a partial simplex list.
    """

    __slots__ = ("_entries", "_index")

    def __init__(self, entries: Iterable[Entry]):
        ordered = sorted(((simplex(s), float(v)) for s, v in entries), key=order_key)
        index: dict[Simplex, int] = {}
        for pos, (s, value) in enumerate(ordered):
            if not math.isfinite(value):
                raise ValueError(f"non-finite filtration value for {s}")
            if s in index:
                raise ValueError(f"duplicate simplex {s}")
            index[s] = pos
        for s, value in ordered:
            for f in faces(s):
                if f not in index:
                    raise ValueError(f"complex not closed: {s} lacks face {f}")
                if ordered[index[f]][1] > value:
                    raise ValueError(
                        f"filtration not monotone: face {f} enters after {s}"
                    )
        self._entries: tuple[Entry, ...] = tuple(ordered)
        self._index = index

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    def __contains__(self, s: Simplex) -> bool:
        return tuple(s) in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"FilteredComplex({len(self._entries)} simplices)"

    @property
    def entries(self) -> tuple[Entry, ...]:
        """Simplices with values, in canonical (value, dim, lex) order."""
        return self._entries

    def simplices(self) -> list[Simplex]:
        return [s for s, _ in self._entries]

    def value_of(self, s: Simplex) -> float:
        return self._entries[self._index[tuple(s)]][1]

    def position_of(self, s: Simplex) -> int:
        return self._index[tuple(s)]

    def max_value(self) -> float:
        return self._entries[-1][1] if self._entries else 0.0

    def distinct_values(self) -> list[float]:
        return sorted({v for _, v in self._entries})

    def complex_at(self, t: float) -> set[Simplex]:
        """Sublevel complex: all simplices with value <= t."""
        return {s for s, v in self._entries if v <= t}

    def counts(self) -> tuple[int, int, int]:
        c = [0, 0, 0]
        for s, _ in self._entries:
            c[len(s) - 1] += 1
        return c[0], c[1], c[2]

    def to_text(self) -> str:
        lines = [f"{','.join(map(str, s))}\t{value!r}" for s, value in self._entries]
        return "\n".join(lines) + ("\n" if lines else "")

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


def all_faces_closure(simplices: Iterable[Simplex]) -> set[Simplex]:
    """All faces of all dimensions of the given simplices (including them)."""
    out: set[Simplex] = set()
    for s in simplices:
        s = simplex(s)
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return out
