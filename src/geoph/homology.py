"""Persistent homology over F2 for filtered complexes of dimension <= 2.

The boundary matrix is indexed by the canonical filtration order of the
complex (rows and columns alike).  Each dimension's columns reduce left to
right: while a column shares its lowest row with an earlier reduced column,
add that column into it (symmetric difference over F2).  Surviving lowest
rows pair births with deaths; columns that reduce to zero create classes,
and the chain of same-dimension simplices accumulated while zeroing a column
is a representative cycle for the class it creates.

``betti_oracle`` is a deliberately separate brute-force computation
(Gaussian elimination on the raw boundary maps) used to cross-check the
reduction; it shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .complexes import Entry, FilteredComplex, Simplex, faces

LONG_PERSISTENCE_THRESHOLD = 0.75


@dataclass(frozen=True)
class BoundaryMatrix:
    """Full boundary matrix of a filtered complex, one column per simplex.

    ``columns[j]`` holds the row indices (filtration positions) of the
    codimension-1 faces of simplex j; vertex columns are empty.
    """

    columns: tuple[frozenset[int], ...]
    entries: tuple[Entry, ...]

    def __len__(self) -> int:
        return len(self.columns)


def build_boundary_matrix(fc: FilteredComplex) -> BoundaryMatrix:
    cols: list[frozenset[int]] = [frozenset()] * len(fc)
    for d in (1, 2):
        at, face_at = fc.face_positions(d)
        for j, col in zip(at.tolist(), face_at.tolist()):
            cols[j] = frozenset(col)
    return BoundaryMatrix(columns=tuple(cols), entries=fc.entries)


@dataclass(frozen=True)
class ReducedMatrix:
    """Result of column reduction: reduced matrix, pairing, chain history.

    Columns the reduction skips (vertices, zero-length edge births) have an
    empty reduced column and an empty chain.
    """

    matrix: BoundaryMatrix
    pairs: Mapping[int, int]  # birth column -> death column
    chains: tuple[frozenset[int], ...]  # column j of the accumulated additions


def reduce_matrix(bm: BoundaryMatrix) -> ReducedMatrix:
    """Reduce the triangle columns, then the edge columns, each left to right.

    A pivot is one dimension below its column, so a column only ever adds
    columns of its own dimension, and every reduced column and chain is the
    one the plain left-to-right order gives.  An edge whose row a triangle
    owns at the edge's own value is a zero-length birth: its column reduces
    to zero and no artifact shows its generator, so it is skipped (clearing).
    """
    entries = bm.entries
    empty: frozenset[int] = frozenset()
    r = [empty] * len(entries)
    v = [empty] * len(entries)
    pairs: dict[int, int] = {}  # also the owner of each lowest row
    for size in (3, 2):
        for j, (s, value) in enumerate(entries):
            if len(s) != size:
                continue
            k = pairs.get(j)
            if k is not None and entries[k][1] == value:
                continue
            col, chain = set(bm.columns[j]), {j}
            while col:
                low = max(col)
                k = pairs.get(low)
                if k is None:
                    pairs[low] = j
                    break
                col ^= r[k]
                chain ^= v[k]
            r[j], v[j] = frozenset(col), frozenset(chain)
    return ReducedMatrix(
        matrix=BoundaryMatrix(columns=tuple(r), entries=entries),
        pairs=pairs,
        chains=tuple(v),
    )


@dataclass(frozen=True)
class PersistencePair:
    """One bar: a homology class born at ``birth``, dead at ``death``.

    ``death`` is None for classes that survive the whole filtration.  The
    generator is a representative cycle at the birth value: the birth vertex
    for dimension 0, a cycle of edges (or triangles) otherwise, and ``()``
    for a zero-length dimension-1 bar, which no artifact shows.
    """

    dimension: int
    birth: float
    death: float | None
    generator: tuple[Simplex, ...]
    birth_position: int
    long_persistence: bool = False

    @property
    def zero_length(self) -> bool:
        return self.death is not None and self.death == self.birth

    @property
    def infinite(self) -> bool:
        return self.death is None

    def persistence(self, horizon: float) -> float:
        death = horizon if self.death is None else self.death
        return death - self.birth


@dataclass(frozen=True)
class Barcode:
    """All persistence pairs of one filtration, in column order.

    ``horizon`` is the maximum filtration value present; it stands in for
    infinite deaths when persistence ratios are needed.
    """

    pairs: tuple[PersistencePair, ...]
    horizon: float

    def max_persistence(self, dimension: int) -> float:
        ps = [
            p.persistence(self.horizon)
            for p in self.pairs
            if p.dimension == dimension and not p.zero_length
        ]
        return max(ps, default=0.0)

    def bars_alive_at(self, t: float) -> tuple[int, int, int]:
        alive = [0, 0, 0]
        for p in self.pairs:
            if p.birth <= t and (p.death is None or p.death > t):
                alive[p.dimension] += 1
        return alive[0], alive[1], alive[2]

    def rendered(self, dimension: int | None = None) -> list[PersistencePair]:
        """Pairs that appear in output artifacts: zero-length bars drop out."""
        return [
            p
            for p in self.pairs
            if not p.zero_length and (dimension is None or p.dimension == dimension)
        ]

    def to_json(self) -> str:
        """The rendered bars as ``barcode.json`` text.

        The bytes are those of ``json.dumps(records, indent=2,
        sort_keys=True)`` plus a newline, over one record per rendered bar,
        written directly: CPython's json runs a pure-Python encoder whenever
        ``indent`` is set, which is slow and holds much memory on large
        generators.  Each distinct generator simplex is formatted once.
        """
        simplex_text = _SimplexText()
        records = [
            "  {\n"
            f'    "birth": {_json_number(p.birth)},\n'
            f'    "death": {_json_number(p.death)},\n'
            f'    "dimension": {int.__repr__(p.dimension)},\n'
            f'    "generator": {_json_generator(p.generator, simplex_text)},\n'
            f'    "long_persistence": {"true" if p.long_persistence else "false"}\n'
            "  }"
            for p in self.rendered()
        ]
        if not records:
            return "[]\n"
        return "[\n" + ",\n".join(records) + "\n]\n"


class _SimplexText(dict):
    """Simplex -> its text as a generator element, built on first lookup."""

    def __missing__(self, s: Simplex) -> str:
        text = self[s] = (
            "      [\n        " + ",\n        ".join(map(int.__repr__, s)) + "\n      ]"
        )
        return text


def _json_generator(generator: tuple[Simplex, ...], simplex_text: _SimplexText) -> str:
    if not generator:
        return "[]"
    return "[\n" + ",\n".join(map(simplex_text.__getitem__, generator)) + "\n    ]"


def _json_number(x: float | None) -> str:
    """A birth or death as json writes it (values are finite, see FilteredComplex)."""
    if x is None:
        return "null"
    if isinstance(x, int):
        return int.__repr__(x)
    return float.__repr__(x)


def persistence_pairs(reduced: ReducedMatrix, fc: FilteredComplex) -> Barcode:
    """Read bars off a reduced matrix.

    Zero-length pairs (birth == death) are kept and flagged; rendering and
    export skip them, oracle checks want them present.  A zero-length
    dimension-1 bar has no generator: ``()``.
    """
    entries = reduced.matrix.entries
    if entries != fc.entries:
        raise ValueError("reduced matrix does not belong to this complex")
    cols = reduced.matrix.columns
    pairs: list[PersistencePair] = []
    for j, (s, birth) in enumerate(entries):
        if cols[j]:
            continue  # j kills an earlier class; handled at its birth column
        death_col = reduced.pairs.get(j)
        death = None if death_col is None else entries[death_col][1]
        d = len(s) - 1
        generator = (s,) if d == 0 else tuple(sorted(entries[k][0] for k in reduced.chains[j]))
        pairs.append(
            PersistencePair(
                dimension=d,
                birth=birth,
                death=death,
                generator=generator,
                birth_position=j,
            )
        )
    return Barcode(pairs=tuple(pairs), horizon=fc.max_value())


def barcode_of(fc: FilteredComplex) -> Barcode:
    """Convenience: boundary matrix, reduction, and pairing in one call."""
    return persistence_pairs(reduce_matrix(build_boundary_matrix(fc)), fc)


def classify_long_persistence(
    barcode: Barcode, threshold: float = LONG_PERSISTENCE_THRESHOLD
) -> Barcode:
    """Flag dimension-1 bars whose persistence ratio reaches ``threshold``.

    The ratio divides each bar's persistence by the largest dimension-1
    persistence, with infinite deaths standing at the horizon; bars that
    never die are always flagged.  Comparison is >=, so a ratio exactly at
    the threshold counts as long.
    """
    pmax = barcode.max_persistence(1)
    flagged = []
    for p in barcode.pairs:
        if p.dimension != 1 or p.zero_length:
            flagged.append(p)
            continue
        if p.infinite:
            flagged.append(replace(p, long_persistence=True))
            continue
        ratio = p.persistence(barcode.horizon) / pmax if pmax > 0 else 0.0
        flagged.append(replace(p, long_persistence=ratio >= threshold))
    return Barcode(pairs=tuple(flagged), horizon=barcode.horizon)


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
