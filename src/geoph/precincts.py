"""Precinct maps as columns, and the GeoJSON loader that fills them.

A precinct is one or more closed rings (exterior boundaries and holes,
interpreted even-odd) plus two non-negative integer vote counts.  A precinct
belongs to the blue side when votes_blue > votes_red, to the red side when
votes_red > votes_blue, and to neither on a tie.

A map is columns with one row per precinct, in input order: the ids, the
two vote counts as exact Python ints, and one ``RingTable`` of every ring
point (an ``(N, 2)`` float64 array of points, the ring offsets into it and
the precinct that owns each point).  ``PrecinctMap(ids, votes_blue,
votes_red, ring_table)`` is its one constructor, and the loader fills the
columns in one pass, with one ``np.array`` call for all the rings when
every coordinate is a plain number.  Winners come from comparing the vote
columns and margins from dividing them, as object arrays, so a count past
2**63 stays exact; the bounding boxes, centroids, queen adjacency, the
raster and the feature map read the table.  A ``Precinct`` is only a view
of a map's row, made the first time ``m.precincts``, an iteration or
``winning_precincts`` reads it: its winner, margin and box are read from
the map's columns, and its rings are rebuilt from the table when read.
"""

from __future__ import annotations

import json
import warnings
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .geometry import Point, Ring, RingTable, normalize_ring

CANDIDATES = ("blue", "red")
# m.sides codes: 0 for a tie, else 1 + the winner's position in CANDIDATES
SIDES = (None, *CANDIDATES)
# what normalize_ring raises on bad coordinates
_RING_ERRORS = (TypeError, ValueError, IndexError, OverflowError)


class Precinct:
    """A view of one row of a ``PrecinctMap``: its id, vote counts and rings.

    ``m.precincts``, iteration and ``winning_precincts`` make the views;
    the rings are rebuilt from the map's ring table when first read.
    Compare maps, not views: a view is equal only to itself.
    """

    __slots__ = ("id", "votes_blue", "votes_red", "_rings", "_map", "_row")

    def __init__(self, m: PrecinctMap, row: int) -> None:
        self.id, self.votes_blue, self.votes_red = m.ids[row], m.votes_blue[row], m.votes_red[row]
        self._rings, self._map, self._row = None, m, row

    @property
    def rings(self) -> tuple[Ring, ...]:
        if self._rings is None:
            self._rings = self._map._rings(self._row)
        return self._rings

    def __repr__(self) -> str:
        names = ("id", "rings", "votes_blue", "votes_red")
        return f"Precinct({', '.join(f'{k}={getattr(self, k)!r}' for k in names)})"

    def total_votes(self) -> int:
        return self.votes_blue + self.votes_red

    def winner(self) -> str | None:
        """'blue', 'red', or None for ties (including zero-vote precincts)."""
        return SIDES[self._map.sides[self._row]]

    def bbox(self) -> tuple[float, float, float, float]:
        return self._map._boxes[self._row]


class PrecinctMap:
    """The columns of a precinct map (see the module docstring): row k is
    ``ids[k]``, with ``votes_blue[k]`` and ``votes_red[k]`` votes and
    ``ring_table``'s polygon k.  Maps are equal when their columns are.
    Raises ValueError when the columns' lengths and the table's polygon
    count differ.
    """

    def __init__(
        self,
        ids: Sequence[str],
        votes_blue: Sequence[int],
        votes_red: Sequence[int],
        ring_table: RingTable,
    ) -> None:
        polygons = len(ring_table.polygon_ptr()) - 1
        if not len(ids) == len(votes_blue) == len(votes_red) == polygons:
            raise ValueError(
                f"map columns disagree: {len(ids)} ids, {len(votes_blue)} votes_blue, "
                f"{len(votes_red)} votes_red, {polygons} polygons in the ring table"
            )
        if len(set(ids)) < len(ids):
            seen: set[str] = set()
            for pid in ids:
                if pid in seen:
                    raise InputError(f"duplicate precinct id {pid!r}")
                seen.add(pid)
        self.ids = tuple(ids)
        self.votes_blue, self.votes_red = tuple(votes_blue), tuple(votes_red)
        self.ring_table = ring_table
        # candidate -> row positions of its winners sorted by id, filled by winner_rows
        self._winners: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Precinct]:
        return iter(self.precincts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrecinctMap):
            return NotImplemented
        t, u = self.ring_table, other.ring_table
        return (self.ids, self.votes_blue, self.votes_red) == (
            other.ids, other.votes_blue, other.votes_red
        ) and all(
            np.array_equal(a, b)
            for a, b in ((t.points, u.points), (t.ring_ptr, u.ring_ptr), (t.owner, u.owner))
        )

    @cached_property
    def precincts(self) -> tuple[Precinct, ...]:
        """One view per row, built on first read."""
        return tuple(self._views(range(len(self))))

    def _views(self, rows: Iterable[int]) -> list[Precinct]:
        """A new view of each row in ``rows``."""
        return [Precinct(self, k) for k in rows]

    @cached_property
    def _vote_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The vote columns as object arrays: numpy steps on Python ints."""
        return np.array(self.votes_blue, dtype=object), np.array(self.votes_red, dtype=object)

    @cached_property
    def sides(self) -> np.ndarray:
        """Each precinct's ``SIDES`` code: 1 where blue wins, 2 where red does, 0 on a tie."""
        blue, red = self._vote_arrays
        return (blue > red).astype(np.int8) + 2 * (red > blue).astype(np.int8)

    @cached_property
    def margins(self) -> np.ndarray:
        """Each precinct's ``vote_margin``, as float64; 0.0 where it has no votes."""
        blue, red = self._vote_arrays
        return (abs(blue - red) / np.maximum(blue + red, 1)).astype(np.float64)

    @cached_property
    def _ring_rows(self) -> tuple[list[int], list[int]]:
        """Row k's rings are ``first[k]:first[k + 1]``; ring r holds points
        ``ptr[r]:ptr[r + 1]``."""
        t = self.ring_table
        first = np.searchsorted(t.owner[t.ring_ptr[:-1]], np.arange(len(self) + 1))
        return first.tolist(), t.ring_ptr.tolist()

    def _rings(self, row: int) -> tuple[Ring, ...]:
        """Row ``row``'s rings from the table, each closed by its first point."""
        first, ptr = self._ring_rows
        rings = []
        for r in range(first[row], first[row + 1]):
            ring = list(map(tuple, self.ring_table.points[ptr[r] : ptr[r + 1]].tolist()))
            ring.append(ring[0])
            rings.append(ring)
        return tuple(rings)

    @cached_property
    def _boxes(self) -> list[tuple[float, float, float, float]]:
        """Each row's bounding box x0, y0, x1, y1 (``RingTable.boxes``)."""
        return list(map(tuple, self.ring_table.boxes().tolist()))

    def bbox(self) -> tuple[float, float, float, float]:
        points = self.ring_table.points
        if not len(points):
            raise InputError("empty precinct map")
        return (*points.min(axis=0).tolist(), *points.max(axis=0).tolist())


def vote_margin(p: Precinct) -> float:
    """Normalized margin |blue - red| / (blue + red); undefined at zero votes."""
    if p.total_votes() == 0:
        raise ValueError(f"precinct {p.id!r} recorded no votes")
    return float(p._map.margins[p._row])


def check_candidate(candidate: str) -> str:
    if candidate not in CANDIDATES:
        raise InputError(f"candidate must be one of {CANDIDATES}, got {candidate!r}")
    return candidate


def winner_rows(m: PrecinctMap, candidate: str) -> np.ndarray:
    """Row positions of the candidate's strict-majority precincts, sorted by id.

    Zero-vote precincts are skipped with a warning; tied precincts belong
    to neither side and drop out silently.  The first call on a map selects
    the winners of both candidates and the map keeps them, so each
    zero-vote precinct warns once per map.
    """
    check_candidate(candidate)
    if not m._winners:
        blue, red = m._vote_arrays
        for k in np.flatnonzero((blue == 0) & (red == 0)).tolist():
            warnings.warn(f"precinct {m.ids[k]!r} has no votes; excluded", stacklevel=3)
        for code, c in enumerate(CANDIDATES, 1):
            rows = np.flatnonzero(m.sides == code).tolist()
            m._winners[c] = np.array(sorted(rows, key=m.ids.__getitem__), dtype=np.int64)
            m._winners[c].flags.writeable = False
    return m._winners[candidate]


def winning_precincts(m: PrecinctMap, candidate: str) -> list[Precinct]:
    """Views of the precincts of ``winner_rows``, in its order."""
    return m._views(winner_rows(m, candidate).tolist())


def centroids(precincts: Sequence[Precinct]) -> list[Point]:
    """Area-weighted centroids of views of one map, from its ring table
    (``RingTable.centroids``); a precinct whose centroid is not finite, as
    when its area vanishes, falls back to the mean of its ring points with
    a warning."""
    if not precincts:
        return []
    m = precincts[0]._map
    if any(p._map is not m for p in precincts):
        raise ValueError("centroids of precincts from more than one map")
    table, rows = m.ring_table, np.array([p._row for p in precincts])
    out = table.centroids(rows)
    ptr = table.polygon_ptr()
    for i in np.flatnonzero(~np.isfinite(out).all(axis=1)).tolist():
        warnings.warn(
            f"precinct {precincts[i].id!r} has zero area; using vertex average", stacklevel=2
        )
        xs, ys = table.points[ptr[rows[i]] : ptr[rows[i] + 1]].T.tolist()
        out[i] = sum(xs) / len(xs), sum(ys) / len(ys)
    return list(map(tuple, out.tolist()))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def _votes(props: dict, key: str, where: str) -> int:
    _require(key in props, f"{where}: missing property {key!r}")
    v = props[key]
    _require(isinstance(v, int) and not isinstance(v, bool), f"{where}: {key} must be an integer")
    _require(v >= 0, f"{where}: {key} must be non-negative")
    return v


def _ring_table(rings: list, counts: list[int], where) -> RingTable:
    """The table of the parsed rings, ``counts[k]`` of them for precinct k.

    When every coordinate is a plain number, all the rings go through one
    ``np.array`` call and vector checks; otherwise every ring goes through
    ``normalize_ring`` in turn.  The first ring that ``normalize_ring``
    rejects raises its error, at ``where(k)`` of its precinct k.
    """
    owner = np.repeat(np.arange(len(counts)), counts)

    def normalized(j: int) -> list[Point]:
        try:
            return normalize_ring(rings[j])
        except _RING_ERRORS as exc:
            raise InputError(f"{where(owner[j])}: bad ring coordinates ({exc})") from exc

    try:
        sizes = [len(ring) for ring in rings]
        x = np.array(list(chain.from_iterable(rings)))
    except _RING_ERRORS:
        x = np.empty(0, dtype=object)
    if x.dtype.kind in "biuf" and x.ndim == 2 and x.shape[1] >= 2:
        x = x[:, :2].astype(np.float64)  # a point's further coordinates are ignored
    else:
        parts = [np.array(normalized(j)) for j in range(len(rings))]
        sizes = [len(part) for part in parts]
        x = np.concatenate(parts) if parts else np.empty((0, 2))
    size = np.array(sizes, dtype=np.int64)
    ptr = np.concatenate([[0], np.cumsum(size)])
    ring_of = np.repeat(np.arange(len(size)), size)
    nonfinite = np.bincount(ring_of[~np.isfinite(x).all(axis=1)], minlength=len(size)) > 0
    closed = np.zeros(len(size), dtype=bool)
    some = size > 0
    closed[some] = (x[ptr[:-1][some]] == x[ptr[1:][some] - 1]).all(axis=1)
    bad = np.flatnonzero(nonfinite | (size - closed < 3))
    if len(bad):
        normalized(int(bad[0]))  # raises
    keep = np.ones(len(x), dtype=bool)
    keep[ptr[1:][closed] - 1] = False  # the closing repeat of the first point
    size -= closed
    return RingTable(
        points=x[keep],
        ring_ptr=np.concatenate([[0], np.cumsum(size)]),
        owner=np.repeat(owner, size),
    )


def parse_feature_collection(obj: dict, source: str = "<input>") -> PrecinctMap:
    """The map of a GeoJSON FeatureCollection, read in one pass.

    Each feature is checked in the order id, geometry, rings, votes, and
    the first feature that fails raises; duplicate ids are checked last.
    """
    _require(isinstance(obj, dict), f"{source}: not a JSON object")
    _require(obj.get("type") == "FeatureCollection", f"{source}: not a FeatureCollection")
    features = obj.get("features")
    _require(isinstance(features, list), f"{source}: features must be a list")
    _require(len(features) > 0, f"{source}: no features")
    ids: list[str] = []
    blue: list[int] = []
    red: list[int] = []
    rings: list = []
    counts: list[int] = []  # rings per feature

    def where(k: int) -> str:
        return f"{source}: feature {k} ({ids[k]})"

    # Messages are formatted only once a check fails.
    try:
        for i, feat in enumerate(features):
            if not isinstance(feat, dict):
                raise InputError(f"{source}: feature {i}: not an object")
            props = feat.get("properties") or {}
            if not isinstance(props, dict):
                raise InputError(f"{source}: feature {i}: properties must be an object")
            pid = props.get("id")
            if isinstance(pid, (int, float)) and not isinstance(pid, bool):
                pid = str(pid)
            if not (isinstance(pid, str) and pid != ""):
                raise InputError(f"{source}: feature {i}: missing or empty id")
            ids.append(pid)
            geometry = feat.get("geometry")
            if not isinstance(geometry, dict):
                raise InputError(f"{where(i)}: missing geometry")
            gtype, coords = geometry.get("type"), geometry.get("coordinates")
            if gtype != "Polygon" and gtype != "MultiPolygon":
                raise InputError(
                    f"{where(i)}: geometry must be Polygon or MultiPolygon, got {gtype!r}"
                )
            n = len(rings)
            try:
                for poly in [coords] if gtype == "Polygon" else coords:
                    rings.extend(poly)
            except (TypeError, ValueError, IndexError) as exc:
                raise InputError(f"{where(i)}: bad ring coordinates ({exc})") from exc
            counts.append(len(rings) - n)
            if not counts[-1]:
                raise InputError(f"{where(i)}: geometry has no rings")
            b, r = props.get("votes_blue"), props.get("votes_red")
            if type(b) is not int or b < 0 or type(r) is not int or r < 0:
                b, r = _votes(props, "votes_blue", where(i)), _votes(props, "votes_red", where(i))
            blue.append(b)
            red.append(r)
    except InputError:
        counts.append(len(rings) - sum(counts))  # rings of the failing feature
        _ring_table(rings, counts, where)  # a bad ring read before the error fails first
        raise
    return PrecinctMap(ids, blue, red, _ring_table(rings, counts, where))


def load_precincts(path: str | Path) -> PrecinctMap:
    """Read a UTF-8 GeoJSON FeatureCollection of precincts."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too deep, too many digits
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    return parse_feature_collection(obj, source=str(path))
