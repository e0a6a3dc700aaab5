"""Synthetic precinct fixtures with known topology, as GeoJSON objects.

grid      n x n unit-square precincts, all red, margins cycling a fixed
          pattern (handy for scaling studies).
dissent   3 x 3 grid, blue center, red ring: the ring's inner four-cycle
          never fills, leaving one immortal loop.
annulus   one square precinct covering the map with a circular hole.
blobs     two separated square precincts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

FIXTURES = ("grid", "annulus", "blobs", "dissent")

# (votes_blue, votes_red) cycling margins 0.1, 0.3, 0.5, 0.7, 0.9; red wins all.
_GRID_VOTES = [(90, 110), (70, 130), (50, 150), (30, 170), (10, 190)]


def _feature(pid: str, rings, votes_blue: int, votes_red: int) -> dict:
    return {
        "type": "Feature",
        "properties": {"id": pid, "votes_blue": votes_blue, "votes_red": votes_red},
        "geometry": {
            "type": "Polygon",
            "coordinates": [[[float(x), float(y)] for x, y in ring] for ring in rings],
        },
    }


def _square(x: float, y: float, side: float) -> list[tuple[float, float]]:
    return [(x, y), (x + side, y), (x + side, y + side), (x, y + side), (x, y)]


def grid_fixture(n: int = 5) -> dict:
    if n < 1:
        raise ValueError("n must be positive")
    features = []
    for r in range(n):
        for c in range(n):
            blue, red = _GRID_VOTES[(r * n + c) % len(_GRID_VOTES)]
            features.append(_feature(f"r{r}c{c}", [_square(c, r, 1.0)], blue, red))
    return {"type": "FeatureCollection", "features": features}


def dissent_fixture() -> dict:
    features = []
    for r in range(3):
        for c in range(3):
            if (r, c) == (1, 1):
                blue, red = 190, 10  # blue center, margin 0.9
            elif r in (0, 2) and c in (0, 2):
                blue, red = 10, 190  # red corners, margin 0.9
            else:
                blue, red = 50, 150  # red edge cells, margin 0.5
            features.append(_feature(f"r{r}c{c}", [_square(c, r, 1.0)], blue, red))
    return {"type": "FeatureCollection", "features": features}


def annulus_fixture(hole_radius: float = 20.0, size: float = 250.0, segments: int = 96) -> dict:
    if not 0 < hole_radius < size / 2:
        raise ValueError("hole_radius must be positive and fit inside the square")
    outer = _square(0.0, 0.0, size)
    cx = cy = size / 2.0
    hole = []
    for i in range(segments + 1):
        a = -2.0 * math.pi * i / segments  # clockwise, so the ring subtracts
        hole.append((cx + hole_radius * math.cos(a), cy + hole_radius * math.sin(a)))
    return {
        "type": "FeatureCollection",
        "features": [_feature("ring", [outer, hole], 10, 190)],
    }


def blobs_fixture(side: float = 80.0, gap: float = 60.0) -> dict:
    if not (0 < side < math.inf and 0 < gap < math.inf):
        raise ValueError("side and gap must be finite and positive")
    return {
        "type": "FeatureCollection",
        "features": [
            _feature("west", [_square(0.0, 0.0, side)], 20, 180),
            _feature("east", [_square(side + gap, 0.0, side)], 20, 180),
        ],
    }


def make_fixture(name: str, **params) -> dict:
    if name == "grid":
        return grid_fixture(**params)
    if name == "annulus":
        return annulus_fixture(**params)
    if name == "blobs":
        return blobs_fixture(**params)
    if name == "dissent":
        return dissent_fixture(**params)
    raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURES}")


def write_fixture(obj: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
