"""Precinct polygons with vote counts, and the GeoJSON loader for them.

A precinct is one or more closed rings (exterior boundaries and holes,
interpreted even-odd) plus two non-negative integer vote counts.  A precinct
belongs to the blue side when votes_blue > votes_red, to the red side when
votes_red > votes_blue, and to neither on a tie.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

from .errors import InputError
from .geometry import Point, Ring, normalize_ring, polygon_centroid, rings_bbox

CANDIDATES = ("blue", "red")


@dataclass(frozen=True)
class Precinct:
    id: str
    rings: tuple[Ring, ...]
    votes_blue: int
    votes_red: int

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
        return self._bbox

    @cached_property
    def _bbox(self) -> tuple[float, float, float, float]:
        # Computed once: queen adjacency reads it for every candidate pair.
        return rings_bbox(self.rings)


@dataclass(frozen=True)
class PrecinctMap:
    precincts: tuple[Precinct, ...]
    # candidate -> its winners sorted by id, filled by winning_precincts
    _winners: dict[str, tuple[Precinct, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for p in self.precincts:
            if p.id in seen:
                raise InputError(f"duplicate precinct id {p.id!r}")
            seen.add(p.id)

    def __len__(self) -> int:
        return len(self.precincts)

    def __iter__(self) -> Iterator[Precinct]:
        return iter(self.precincts)

    def by_id(self, pid: str) -> Precinct:
        for p in self.precincts:
            if p.id == pid:
                return p
        raise KeyError(pid)

    def bbox(self) -> tuple[float, float, float, float]:
        boxes = [p.bbox() for p in self.precincts]
        if not boxes:
            raise InputError("empty precinct map")
        return (
            min(b[0] for b in boxes),
            min(b[1] for b in boxes),
            max(b[2] for b in boxes),
            max(b[3] for b in boxes),
        )


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


def winning_precincts(m: PrecinctMap, candidate: str) -> list[Precinct]:
    """Strict-majority precincts for the candidate, sorted by id.

    Zero-vote precincts are skipped with a warning; tied precincts belong
    to neither side and drop out silently.  The first call on a map selects
    the winners of both candidates and the map keeps them, so each
    zero-vote precinct warns once per map.
    """
    check_candidate(candidate)
    if not m._winners:
        sides: dict[str, list[Precinct]] = {c: [] for c in CANDIDATES}
        for p in m:
            if p.total_votes() == 0:
                warnings.warn(f"precinct {p.id!r} has no votes; excluded", stacklevel=2)
                continue
            side = p.winner()
            if side is not None:
                sides[side].append(p)
        for c in CANDIDATES:
            m._winners[c] = tuple(sorted(sides[c], key=lambda p: p.id))
    return list(m._winners[candidate])


def centroid_of(p: Precinct) -> Point:
    """Area-weighted centroid; zero-area polygons fall back to a vertex mean."""
    (cx, cy), _ = polygon_centroid(p.rings)
    if not (math.isfinite(cx) and math.isfinite(cy)):
        warnings.warn(
            f"precinct {p.id!r} has zero area; using vertex average", stacklevel=2
        )
        pts = [pt for ring in p.rings for pt in ring[:-1]]
        cx = sum(x for x, _ in pts) / len(pts)
        cy = sum(y for _, y in pts) / len(pts)
    return (cx, cy)


def centroids(precincts: Sequence[Precinct]) -> list[Point]:
    return [centroid_of(p) for p in precincts]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def _parse_votes(props: dict, key: str, where: str) -> int:
    _require(key in props, f"{where}: missing property {key!r}")
    v = props[key]
    _require(isinstance(v, int) and not isinstance(v, bool), f"{where}: {key} must be an integer")
    _require(v >= 0, f"{where}: {key} must be non-negative")
    return v


def _parse_rings(geometry: dict, where: str) -> tuple[Ring, ...]:
    gtype = geometry.get("type")
    coords = geometry.get("coordinates")
    if gtype == "Polygon":
        polys = [coords]
    elif gtype == "MultiPolygon":
        polys = coords
    else:
        raise InputError(f"{where}: geometry must be Polygon or MultiPolygon, got {gtype!r}")
    rings: list[Ring] = []
    try:
        for poly in polys:
            for ring in poly:
                rings.append(normalize_ring(ring))
    except (TypeError, ValueError, IndexError) as exc:
        raise InputError(f"{where}: bad ring coordinates ({exc})") from exc
    _require(bool(rings), f"{where}: geometry has no rings")
    return tuple(rings)


def parse_feature_collection(obj: dict, source: str = "<input>") -> PrecinctMap:
    _require(isinstance(obj, dict), f"{source}: not a JSON object")
    _require(obj.get("type") == "FeatureCollection", f"{source}: not a FeatureCollection")
    features = obj.get("features")
    _require(isinstance(features, list), f"{source}: features must be a list")
    precincts = []
    for i, feat in enumerate(features):
        where = f"{source}: feature {i}"
        _require(isinstance(feat, dict), f"{where}: not an object")
        props = feat.get("properties") or {}
        pid = props.get("id")
        if isinstance(pid, (int, float)) and not isinstance(pid, bool):
            pid = str(pid)
        _require(isinstance(pid, str) and pid != "", f"{where}: missing or empty id")
        where = f"{source}: feature {i} ({pid})"
        geometry = feat.get("geometry")
        _require(isinstance(geometry, dict), f"{where}: missing geometry")
        precincts.append(
            Precinct(
                id=pid,
                rings=_parse_rings(geometry, where),
                votes_blue=_parse_votes(props, "votes_blue", where),
                votes_red=_parse_votes(props, "votes_red", where),
            )
        )
    return PrecinctMap(precincts=tuple(precincts))


def load_precincts(path: str | Path) -> PrecinctMap:
    """Read a GeoJSON FeatureCollection of precincts."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    return parse_feature_collection(obj, source=str(path))
