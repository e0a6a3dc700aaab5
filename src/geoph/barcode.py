"""Barcodes as columns, and their ``barcode.json`` text.

A ``Barcode`` holds every bar of one filtration as arrays, in column order:
dimension, birth, death, the immortal and zero-length masks, the
long-persistence flags and birth positions, and the generators as one CSR
array of simplex rows.  ``homology.persistence_pairs`` fills the columns
off a reduction; ``Barcode(pairs, horizon)`` fills them from hand-built
``PersistencePair`` objects.  The long-persistence flags, ``barcode.json``
(``Barcode.to_json``) and ``barcode.svg`` (``render.render_barcode_svg``)
are computed on the columns; ``PersistencePair`` objects are built only
when ``Barcode.pairs`` or ``Barcode.rendered()`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .complexes import Simplex

LONG_PERSISTENCE_THRESHOLD = 0.75


def _gather(ptr: np.ndarray, flat: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of the CSR array (``ptr``, ``flat``), concatenated, and
    their sizes."""
    starts = ptr[rows]
    sizes = ptr[rows + 1] - starts
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    return flat[np.arange(total) + np.repeat(starts - ends + sizes, sizes)], sizes


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


class Barcode:
    """Every bar of one filtration, as columns, in column order.

    Bar k has ``dimension[k]``, ``birth[k]``, ``birth_position[k]`` and
    ``long_persistence[k]``; it never dies if ``immortal[k]``, and dies at
    ``death[k]`` otherwise.  ``zero_length[k]`` marks a bar that dies at its
    birth value: no artifact shows it.  Its generator is the rows
    ``generator_at[generator_ptr[k]:generator_ptr[k + 1]]`` of ``simplices``,
    the vertex, edge and triangle tables (one row of vertex ids per simplex)
    numbered on from one table to the next.

    ``horizon`` is the maximum filtration value present; it stands in for
    infinite deaths when persistence ratios are needed.  ``pairs`` and
    ``rendered()`` give the bars as ``PersistencePair`` objects, built when
    read.  ``Barcode(pairs, horizon)`` takes hand-built pairs; their births
    and deaths are kept as they are (object columns), so a pair reads back
    equal and is written exactly as given.
    """

    def __init__(self, pairs: Iterable[PersistencePair], horizon: float):
        pairs = tuple(pairs)
        tables: list[dict[Simplex, int]] = [{}, {}, {}]  # simplex -> row, by size
        found = []
        for p in pairs:
            for s in p.generator:
                if not 1 <= len(s) <= 3:
                    raise ValueError(f"generator simplex {s} does not have 1 to 3 vertices")
                table = tables[len(s) - 1]
                found.append((len(s) - 1, table.setdefault(s, len(table))))
        simplices = tuple(
            np.array(list(table), dtype=np.int64).reshape(-1, d + 1)
            for d, table in enumerate(tables)
        )
        offset = np.cumsum([0] + [len(t) for t in simplices]).tolist()

        def column(name: str, dtype) -> np.ndarray:
            return np.array([getattr(p, name) for p in pairs], dtype=dtype)

        self._set(
            horizon,
            column("dimension", np.int64),
            column("birth", object),
            column("death", object),
            column("infinite", bool),
            column("long_persistence", bool),
            column("birth_position", np.int64),
            np.cumsum([0] + [len(p.generator) for p in pairs], dtype=np.int64),
            np.array([offset[d] + row for d, row in found], dtype=np.int64),
            simplices,
        )
        self._pairs = pairs

    def _set(
        self,
        horizon: float,
        dimension: np.ndarray,
        birth: np.ndarray,
        death: np.ndarray,
        immortal: np.ndarray,
        long_persistence: np.ndarray,
        birth_position: np.ndarray,
        generator_ptr: np.ndarray,
        generator_at: np.ndarray,
        simplices: tuple[np.ndarray, ...],
    ) -> None:
        self.horizon = horizon
        self.dimension = dimension
        self.birth = birth
        self.death = death  # read only where not immortal
        self.immortal = immortal
        self.zero_length = ~immortal & (death == birth)
        self.long_persistence = long_persistence
        self.birth_position = birth_position
        self.generator_ptr = generator_ptr
        self.generator_at = generator_at
        self.simplices = simplices
        self._pairs: tuple[PersistencePair, ...] | None = None

    @classmethod
    def _of_columns(cls, horizon: float, *columns) -> Barcode:
        """A barcode of columns in ``_set``'s order."""
        bc = cls.__new__(cls)
        bc._set(horizon, *columns)
        return bc

    @property
    def pairs(self) -> tuple[PersistencePair, ...]:
        if self._pairs is None:
            self._pairs = tuple(self._bars(np.arange(len(self.dimension))))
        return self._pairs

    def shown(self, dimension: int | None = None) -> np.ndarray:
        """Indices of the bars that appear in output artifacts, ascending."""
        keep = ~self.zero_length
        if dimension is not None:
            keep &= self.dimension == dimension
        return np.flatnonzero(keep)

    def rendered(self, dimension: int | None = None) -> list[PersistencePair]:
        """Pairs that appear in output artifacts: zero-length bars drop out."""
        at = self.shown(dimension)
        if self._pairs is not None:
            return [self._pairs[k] for k in at.tolist()]
        return self._bars(at)

    def _bars(self, at: np.ndarray) -> list[PersistencePair]:
        """Bars ``at`` as pairs; each generator simplex is built once."""
        rows, sizes = _gather(self.generator_ptr, self.generator_at, at)
        tables, code = _distinct(self.simplices, rows)
        simplices = []
        for table in tables:
            simplices += zip(*table.T.tolist())
        listed = list(map(simplices.__getitem__, code.tolist()))
        ends = np.cumsum(sizes).tolist()
        return [
            PersistencePair(d, birth, death, tuple(listed[a:b]), j, flag)
            for d, birth, death, a, b, j, flag in zip(
                self.dimension[at].tolist(),
                self.birth[at].tolist(),
                np.where(self.immortal[at], None, self.death[at]).tolist(),
                [0] + ends[:-1],
                ends,
                self.birth_position[at].tolist(),
                self.long_persistence[at].tolist(),
            )
        ]

    def persistence(self) -> np.ndarray:
        """Death minus birth of every bar, infinite deaths standing at the
        horizon."""
        return np.where(self.immortal, self.horizon, self.death) - self.birth

    def max_persistence(self, dimension: int) -> float:
        return max(self.persistence()[self.shown(dimension)].tolist(), default=0.0)

    def to_json(self) -> str:
        """The rendered bars as ``barcode.json`` text.

        The bytes are those of ``json.dumps(records, indent=2,
        sort_keys=True)`` plus a newline, over one record per rendered bar,
        written directly: CPython's json runs a pure-Python encoder whenever
        ``indent`` is set, which is slow and holds much memory on large
        generators.  Each distinct generator simplex is formatted once, and
        the text is one join over a flat list: per bar, its head, its
        simplices and its tail.
        """
        at = self.shown()
        if not len(at):
            return "[]\n"
        rows, sizes = _gather(self.generator_ptr, self.generator_at, at)
        tables, code = _distinct(self.simplices, rows)
        texts = []
        for table in tables:
            vertices = ",\n        ".join(["%d"] * table.shape[1])
            element = "      [\n        " + vertices + "\n      ]"
            texts += map(element.__mod__, zip(*table.T.tolist()))
        starts = np.cumsum(sizes) - sizes
        later = np.ones(len(rows), dtype=bool)  # every simplex but a generator's first
        later[starts[sizes > 0]] = False
        code[later] += len(texts)
        texts = np.array(texts + [",\n" + t for t in texts], dtype=object)
        heads = [
            '  {\n    "birth": %s,\n    "death": %s,\n    "dimension": %d,\n    "generator": %s'
            % (birth, death, d, "[\n" if size else "[]")
            for birth, death, d, size in zip(
                _json_numbers(self.birth[at]).tolist(),
                np.where(self.immortal[at], "null", _json_numbers(self.death[at])).tolist(),
                self.dimension[at].tolist(),
                sizes.tolist(),
            )
        ]
        tails = np.array(  # at 4 * (generator not empty) + 2 * (last bar) + flag
            [
                '%s,\n    "long_persistence": %s\n  }%s' % (close, flag, more)
                for close in ("", "\n    ]")
                for more in (",\n", "\n]\n")
                for flag in ("false", "true")
            ],
            dtype=object,
        )
        last = np.zeros(len(at), dtype=np.int64)
        last[-1] = 1
        head_at = 1 + 2 * np.arange(len(at)) + starts
        tail_at = head_at + sizes + 1
        pieces = np.empty(1 + 2 * len(at) + len(rows), dtype=object)
        pieces[0] = "[\n"
        pieces[head_at] = heads
        pieces[tail_at] = tails[self.long_persistence[at] + 2 * last + 4 * (sizes > 0)]
        between = np.ones(len(pieces), dtype=bool)
        between[0] = between[head_at] = between[tail_at] = False
        pieces[between] = texts[code]
        return "".join(pieces.tolist())


def _distinct(
    simplices: tuple[np.ndarray, ...], rows: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct simplices among ``rows`` (rows of the ``simplices``
    tables, numbered on from one table to the next), table by table in
    ascending order, and the index of each row's simplex among them."""
    offset = np.cumsum([0] + [len(t) for t in simplices])
    used = np.zeros(offset[-1], dtype=bool)
    used[rows] = True
    (at,) = np.nonzero(used)
    cut = np.searchsorted(at, offset)
    tables = [t[at[a:b] - o] for t, a, b, o in zip(simplices, cut[:-1], cut[1:], offset)]
    return tables, (np.cumsum(used) - 1)[rows]


def _json_numbers(column: np.ndarray) -> np.ndarray:
    """``_json_number`` of each value of a column, as an object array.  A
    float column formats each distinct value (bit pattern) once."""
    if column.dtype != np.float64:
        return np.array(list(map(_json_number, column.tolist())), dtype=object)
    bits = np.sort(column.view(np.int64))
    bits = bits[np.r_[True, bits[1:] != bits[:-1]]]
    texts = list(map(_json_number, bits.view(np.float64).tolist()))
    return np.array(texts, dtype=object)[np.searchsorted(bits, column.view(np.int64))]


def _json_number(x: float | None) -> str:
    """A birth or death as json writes it (values are finite, see FilteredComplex)."""
    if x is None:
        return "null"
    if isinstance(x, int):
        return int.__repr__(x)
    return float.__repr__(x)


def classify_long_persistence(
    barcode: Barcode, threshold: float = LONG_PERSISTENCE_THRESHOLD
) -> Barcode:
    """Flag dimension-1 bars whose persistence ratio reaches ``threshold``.

    The ratio divides each bar's persistence by the largest dimension-1
    persistence, with infinite deaths standing at the horizon; bars that
    never die are always flagged.  Comparison is >=, so a ratio exactly at
    the threshold counts as long.  Zero-length bars and the bars of other
    dimensions keep their flags.
    """
    pmax = barcode.max_persistence(1)
    persistence = barcode.persistence()
    ratio = persistence / pmax if pmax > 0 else np.zeros(len(persistence))
    flags = np.where(
        (barcode.dimension == 1) & ~barcode.zero_length,
        barcode.immortal | (ratio >= threshold),
        barcode.long_persistence,
    )
    return Barcode._of_columns(
        barcode.horizon,
        barcode.dimension,
        barcode.birth,
        barcode.death,
        barcode.immortal,
        flags,
        barcode.birth_position,
        barcode.generator_ptr,
        barcode.generator_at,
        barcode.simplices,
    )
