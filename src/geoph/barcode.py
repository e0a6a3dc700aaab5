"""Barcodes as columns, and their ``barcode.json`` text.

A ``Barcode`` holds every bar of one filtration as arrays, in column order:
dimension, birth, death, the immortal and zero-length masks, the
long-persistence flags and birth positions, the generators as one CSR
array of simplex rows, and the cycles the feature map draws as one CSR
array of vertex ids.  Births and deaths are float64, with NaN for the
death of a bar that never dies.  ``homology.persistence_pairs`` fills the
columns off a reduction, where H0 comes from a union-find and each shown
H1 generator is a forest cycle, listed in the order the feature map draws
it.  ``Barcode(pairs, horizon)`` fills the same columns from hand-built
``PersistencePair`` objects, whose generators may be any edge sets: it
splits each into closed walks (``_closed_walks``).  The long-persistence flags,
``barcode.json`` (``Barcode.json_blocks``) and ``barcode.svg``
(``render.render_barcode_svg``) are computed on the columns;
``PersistencePair`` objects are built from them whenever ``Barcode.pairs``
or ``Barcode.rendered()`` is read.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .complexes import Simplex, _float_reprs, _ranges, _unique

LONG_PERSISTENCE_THRESHOLD = 0.75
_JSON_BLOCK = 2048  # rendered bars per block of `json_blocks` text


def _gather(ptr: np.ndarray, flat: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of the CSR array (``ptr``, ``flat``), concatenated, and
    their sizes."""
    starts = ptr[rows]
    sizes = ptr[rows + 1] - starts
    return flat[_ranges(starts, sizes)], sizes


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
    ``long_persistence[k]``; it never dies if ``immortal[k]`` (``death[k]``
    is NaN), and dies at ``death[k]`` otherwise.  ``zero_length[k]`` marks
    a bar that dies at its birth value: no artifact shows it.  Its
    generator is the rows
    ``generator_at[generator_ptr[k]:generator_ptr[k + 1]]`` of ``simplices``,
    the vertex, edge and triangle tables (one row of vertex ids per simplex)
    numbered on from one table to the next.  Cycle c, drawn for bar
    ``cycle_bar[c]``, is the polyline of vertex ids
    ``cycle_at[cycle_ptr[c]:cycle_ptr[c + 1]]``; the shown dimension-1 bars
    have theirs, in bar order.  ``cycle_at`` is None when one of those bars'
    generators holds a simplex that is not an edge.

    ``horizon`` is the maximum filtration value present; it stands in for
    infinite deaths when persistence ratios are needed.  ``pairs`` and
    ``rendered()`` give the bars as ``PersistencePair`` objects, built on
    each read.  ``Barcode(pairs, horizon)`` takes hand-built pairs into the
    same float64 columns a build fills, so an int birth or death reads back
    and is written as a float (``1.0``).
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

        dimension, birth = column("dimension", np.int64), column("birth", np.float64)
        death = np.array([np.nan if p.death is None else p.death for p in pairs], dtype=np.float64)
        drawn = np.flatnonzero((dimension == 1) & (death != birth)).tolist()  # ``shown(1)``
        self._set(
            horizon,
            dimension,
            birth,
            death,
            column("infinite", bool),
            column("long_persistence", bool),
            column("birth_position", np.int64),
            np.cumsum([0] + [len(p.generator) for p in pairs], dtype=np.int64),
            np.array([offset[d] + row for d, row in found], dtype=np.int64),
            simplices,
            *_cycle_columns(drawn, [pairs[k].generator for k in drawn]),
        )

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
        cycle_bar: np.ndarray,
        cycle_ptr: np.ndarray,
        cycle_at: np.ndarray | None,
    ) -> None:
        self.horizon = horizon
        self.dimension = dimension
        self.birth = birth
        self.death = death
        self.immortal = immortal
        self.zero_length = ~immortal & (death == birth)
        self.long_persistence = long_persistence
        self.birth_position = birth_position
        self.generator_ptr = generator_ptr
        self.generator_at = generator_at
        self.simplices = simplices
        self.cycle_bar = cycle_bar
        self.cycle_ptr = cycle_ptr
        self.cycle_at = cycle_at

    @classmethod
    def _of_columns(cls, horizon: float, *columns) -> Barcode:
        """A barcode of columns in ``_set``'s order."""
        bc = cls.__new__(cls)
        bc._set(horizon, *columns)
        return bc

    @property
    def pairs(self) -> tuple[PersistencePair, ...]:
        return tuple(self._bars(np.arange(len(self.dimension))))

    def shown(self, dimension: int | None = None) -> np.ndarray:
        """Indices of the bars that appear in output artifacts, ascending."""
        keep = ~self.zero_length
        if dimension is not None:
            keep &= self.dimension == dimension
        return np.flatnonzero(keep)

    def rendered(self, dimension: int | None = None) -> list[PersistencePair]:
        """Pairs that appear in output artifacts: zero-length bars drop out."""
        return self._bars(self.shown(dimension))

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
        """The rendered bars as ``barcode.json`` text: ``json_blocks`` joined."""
        return "".join(self.json_blocks())

    def json_blocks(self) -> Iterator[str]:
        """``barcode.json`` text in blocks of ``_JSON_BLOCK`` rendered bars,
        so a writer never holds the whole text.

        The bytes are those of ``json.dumps(records, indent=2,
        sort_keys=True)`` plus a newline, over one record per rendered bar,
        written directly: CPython's json runs a pure-Python encoder whenever
        ``indent`` is set, which is slow and holds much memory on large
        generators.  Within a block, each distinct generator simplex is
        formatted once, and the block is one join over a flat list: per bar,
        its head, its simplices and its tail.
        """
        at = self.shown()
        if not len(at):
            yield "[]\n"
            return
        yield "[\n"
        for i in range(0, len(at), _JSON_BLOCK):
            yield self._json_block(at[i : i + _JSON_BLOCK], i + _JSON_BLOCK >= len(at))

    def _json_block(self, at: np.ndarray, last: bool) -> str:
        """The records of bars ``at``; the list closes after them if ``last``."""
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
                _float_reprs(self.birth[at]).tolist(),
                np.where(self.immortal[at], "null", _float_reprs(self.death[at])).tolist(),
                self.dimension[at].tolist(),
                sizes.tolist(),
            )
        ]
        tails = np.array(  # at 4 * (generator not empty) + 2 * (list closes) + flag
            [
                '%s,\n    "long_persistence": %s\n  }%s' % (close, flag, more)
                for close in ("", "\n    ]")
                for more in (",\n", "\n]\n")
                for flag in ("false", "true")
            ],
            dtype=object,
        )
        closes = np.zeros(len(at), dtype=np.int64)
        closes[-1] = last
        head_at = 2 * np.arange(len(at)) + starts
        tail_at = head_at + sizes + 1
        pieces = np.empty(2 * len(at) + len(rows), dtype=object)
        pieces[head_at] = heads
        pieces[tail_at] = tails[self.long_persistence[at] + 2 * closes + 4 * (sizes > 0)]
        between = np.ones(len(pieces), dtype=bool)
        between[head_at] = between[tail_at] = False
        pieces[between] = texts[code]
        return "".join(pieces.tolist())


def _cycle_columns(
    bars: list[int], generators: list[tuple[Simplex, ...]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The cycle columns of hand-built ``bars``: the closed walks of each
    one's generator, or no walks (``None``) if a generator holds a simplex
    that is not an edge."""
    if any(len(s) != 2 for g in generators for s in g):
        return np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64), None
    walks = [
        (k, walk)
        for k, g in zip(bars, generators)
        if g
        for walk in _closed_walks(np.array(g, dtype=np.int64))
    ]
    return (
        np.array([k for k, _ in walks], dtype=np.int64),
        np.cumsum([0] + [len(w) for _, w in walks], dtype=np.int64),
        np.array([v for _, w in walks for v in w], dtype=np.int64),
    )


def _closed_walks(ends: np.ndarray) -> list[list[int]]:
    """Split an edge set into closed walks (one per component when every degree is even)
    by Hierholzer's algorithm over a CSR table.  Edge k joins the nodes ``ends[k]``, any
    two ints, and counts once however often it repeats.  Walks start at each node in
    ascending order and leave a node by its smallest unused neighbour.  Returns the walks
    as lists of nodes."""
    nodes, node = _unique(ends)
    n = len(nodes)
    node = np.sort(node, axis=1)
    edges, _ = _unique(node[:, 0] * n + node[:, 1])  # lower node * n + upper node
    # each edge in both directions, in (node, neighbour) order
    half = np.sort(np.concatenate([edges, edges % n * n + edges // n]))
    src, dst = half // n, half % n
    edge = np.searchsorted(edges, np.minimum(src, dst) * n + np.maximum(src, dst)).tolist()
    ptr = np.searchsorted(src, np.arange(n + 1)).tolist()
    target, nxt, end = dst.tolist(), ptr[:-1], ptr[1:]
    used = [False] * len(edges)
    walks = []
    for start in range(n):
        stack, walk = [start], []
        while stack:
            v = stack[-1]
            i = nxt[v]
            while i < end[v] and used[edge[i]]:
                i += 1
            if i < end[v]:
                used[edge[i]] = True
                stack.append(target[i])
                i += 1
            else:
                walk.append(stack.pop())
            nxt[v] = i
        if len(walk) > 1:  # else every edge at ``start`` was walked already
            walks.append(nodes[walk].tolist())
    return walks


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


def classify_long_persistence(barcode: Barcode) -> Barcode:
    """A copy of ``barcode`` that flags the dimension-1 bars whose
    persistence ratio reaches ``LONG_PERSISTENCE_THRESHOLD``.

    The ratio divides each bar's persistence by the largest dimension-1
    persistence, with infinite deaths standing at the horizon; bars that
    never die are always flagged.  Comparison is >=, so a ratio exactly at
    the threshold counts as long.  Zero-length bars and the bars of other
    dimensions keep their flags.  The copy shares every other column.
    """
    # Spans past the float range give inf, and inf / inf gives nan (never
    # flagged), as Python float arithmetic does.
    with np.errstate(over="ignore", invalid="ignore"):
        pmax = barcode.max_persistence(1)
        persistence = barcode.persistence()
        ratio = persistence / pmax if pmax > 0 else np.zeros(len(persistence))
    flagged = copy.copy(barcode)
    flagged.long_persistence = np.where(
        (barcode.dimension == 1) & ~barcode.zero_length,
        barcode.immortal | (ratio >= LONG_PERSISTENCE_THRESHOLD),
        barcode.long_persistence,
    )
    return flagged
