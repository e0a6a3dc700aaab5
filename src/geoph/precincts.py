"""Precinct maps as columns, and the GeoJSON loader that fills them.

A precinct is one or more closed rings (exterior boundaries and holes,
interpreted even-odd) plus two non-negative integer vote counts.  A precinct
belongs to the blue side when votes_blue > votes_red, to the red side when
votes_red > votes_blue, and to neither on a tie.

A map is columns with one row per precinct, in input order: the ids, the
two vote counts as exact Python ints, and one ``RingTable`` of every ring
point (an ``(N, 2)`` float64 array of points, the ring offsets into it and
the precinct that owns each point).  The loader fills them in one pass,
with one ``np.array`` call for all the rings when every coordinate is a
plain number.  Winners come from comparing the vote columns and margins
from dividing them, as object arrays, so a count past 2**63 stays exact;
the bounding box, centroids, queen adjacency, the raster and the feature
map read the table.  A ``Precinct`` of a map is a view of its row, built
the first time ``m.precincts``, an iteration or ``winning_precincts``
reads it; its rings are rebuilt from the table when read.
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
from .geometry import Point, Ring, RingTable, normalize_ring, rings_bbox

CANDIDATES = ("blue", "red")
# m.sides codes: 0 for a tie, else 1 + the winner's position in CANDIDATES
SIDES = (None, *CANDIDATES)
# what normalize_ring raises on bad coordinates
_RING_ERRORS = (TypeError, ValueError, IndexError, OverflowError)


class Precinct:
    """A precinct's id, rings (closed lists of points) and vote counts.

    ``Precinct(id, rings, votes_blue, votes_red)`` stands alone; the
    precincts of a map are views of its rows.  Precincts are equal when
    all four fields are.
    """

    __slots__ = ("id", "votes_blue", "votes_red", "_rings", "_map", "_row")

    def __init__(self, id: str, rings: Sequence[Ring], votes_blue: int, votes_red: int) -> None:
        self.id, self.votes_blue, self.votes_red = id, votes_blue, votes_red
        self._rings, self._map, self._row = tuple(rings), None, -1

    @property
    def rings(self) -> tuple[Ring, ...]:
        if self._rings is None:
            self._rings = self._map._rings(self._row)
        return self._rings

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Precinct):
            return NotImplemented
        return (self.id, self.votes_blue, self.votes_red, self.rings) == (
            other.id, other.votes_blue, other.votes_red, other.rings
        )

    def __repr__(self) -> str:
        names = ("id", "rings", "votes_blue", "votes_red")
        return f"Precinct({', '.join(f'{k}={getattr(self, k)!r}' for k in names)})"

    def total_votes(self) -> int:
        return self.votes_blue + self.votes_red

    def winner(self) -> str | None:
        """'blue', 'red', or None for ties (including zero-vote precincts)."""
        if self.votes_blue > self.votes_red:
            return "blue"
        if self.votes_red > self.votes_blue:
            return "red"
        return None

    def bbox(self) -> tuple[float, float, float, float]:
        return rings_bbox(self.rings)


class PrecinctMap:
    """The columns of a precinct map (see the module docstring).

    ``PrecinctMap(precincts)`` fills them from standalone precincts and
    keeps those as ``precincts``; ``from_columns`` takes them as they are.
    Maps are equal when their precincts are.
    """

    def __init__(self, precincts: Sequence[Precinct] = ()) -> None:
        precincts = tuple(precincts)
        self._fill(
            tuple(p.id for p in precincts),
            [p.votes_blue for p in precincts],
            [p.votes_red for p in precincts],
            RingTable.of([p.rings for p in precincts]),
        )
        self.precincts = precincts

    @classmethod
    def from_columns(
        cls, ids: Sequence[str], blue: Sequence[int], red: Sequence[int], table: RingTable
    ) -> PrecinctMap:
        """The map whose row k is ``ids[k]``, with ``blue[k]`` and ``red[k]``
        votes and ``table``'s polygon k."""
        m = cls.__new__(cls)
        m._fill(ids, blue, red, table)
        return m

    def _fill(
        self, ids: Sequence[str], blue: Sequence[int], red: Sequence[int], table: RingTable
    ) -> None:
        if len(set(ids)) < len(ids):
            seen: set[str] = set()
            for pid in ids:
                if pid in seen:
                    raise InputError(f"duplicate precinct id {pid!r}")
                seen.add(pid)
        self.ids = tuple(ids)
        self.votes_blue, self.votes_red = tuple(blue), tuple(red)
        self.ring_table = table
        # candidate -> row positions of its winners sorted by id, filled by winner_rows
        self._winners: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Precinct]:
        return iter(self.precincts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrecinctMap):
            return NotImplemented
        return self.precincts == other.precincts

    @cached_property
    def precincts(self) -> tuple[Precinct, ...]:
        """One view per row, built on first read."""
        return tuple(self._views(range(len(self))))

    def _views(self, rows: Iterable[int]) -> list[Precinct]:
        """A new view of each row in ``rows``; its rings are read from the
        table when first asked for."""
        ids, blue, red = self.ids, self.votes_blue, self.votes_red
        views = []
        for k in rows:
            p = Precinct.__new__(Precinct)
            p.id, p.votes_blue, p.votes_red, p._rings, p._map, p._row = (
                ids[k], blue[k], red[k], None, self, k
            )
            views.append(p)
        return views

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

    def bbox(self) -> tuple[float, float, float, float]:
        points = self.ring_table.points
        if not len(points):
            raise InputError("empty precinct map")
        return (*points.min(axis=0).tolist(), *points.max(axis=0).tolist())


def vote_margin(p: Precinct) -> float:
    """Normalized margin |blue - red| / (blue + red); undefined at zero votes."""
    total = p.total_votes()
    if total == 0:
        raise ValueError(f"precinct {p.id!r} recorded no votes")
    return abs(p.votes_blue - p.votes_red) / total


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
    """Area-weighted centroids (``RingTable.centroids``); a precinct whose
    centroid is not finite, as when its area vanishes, falls back to the
    mean of its ring points with a warning.  Views of one map are read
    from its ring table."""
    maps = {id(p._map) for p in precincts}
    if len(maps) == 1 and precincts[0]._map is not None:
        table, rows = precincts[0]._map.ring_table, np.array([p._row for p in precincts])
    else:
        table, rows = RingTable.of([p.rings for p in precincts]), np.arange(len(precincts))
    out = table.centroids(rows)
    ptr = table.polygon_ptr()
    for i in np.flatnonzero(~np.isfinite(out).all(axis=1)).tolist():
        warnings.warn(
            f"precinct {precincts[i].id!r} has zero area; using vertex average", stacklevel=2
        )
        xs, ys = table.points[ptr[rows[i]] : ptr[rows[i] + 1]].T.tolist()
        out[i] = sum(xs) / len(xs), sum(ys) / len(ys)
    return list(map(tuple, out.tolist()))


def centroid_of(p: Precinct) -> Point:
    """The centroid ``centroids`` gives ``p``."""
    return centroids([p])[0]


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
    return PrecinctMap.from_columns(tuple(ids), blue, red, _ring_table(rings, counts, where))


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
