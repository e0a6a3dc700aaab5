"""Seeded precinct maps and the benchmark's workload table.

A map is an n x n lattice of quadrilateral precincts over unit cells.
Every interior lattice corner moves by a seeded offset drawn uniformly from
[-jitter, jitter] on each axis; boundary corners stay put, so the map's
bounding box is always [0, n] x [0, n].  With jitter below 0.5 every
precinct stays a simple counter-clockwise quadrilateral, and jitter 0
gives the axis-aligned grid whose centroids are exactly cocircular.

Votes are seeded too: exactly ``k`` precincts have a strict red majority
and all others a strict blue one, with seeded totals and margins, so no
precinct ties and none is empty.

This module imports nothing from geoph: the program under test only ever
sees the GeoJSON text written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    jitter: float
    k: int
    method: str
    stride: int | None  # level-set grid stride; None keeps the CLI default
    why: str

    def build_args(self) -> list[str]:
        """geoph build options besides --input and --out."""
        args = ["--method", self.method, "--candidate", CANDIDATE]
        if self.stride is not None:
            args += ["--stride", str(self.stride)]
        return args


CANDIDATE = "red"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "vr_flag48", 9, 0.3, 48, "vr", None,
            "full flag 2-skeleton on 48 points: dense reduction and ~16k H2 "
            "generators written to barcode.json dominate; no alpha, adjacency or level-set work",
        ),
        Workload(
            "alpha_grid24", 24, 0.0, 346, "alpha", None,
            "cocircular grid centroids: Bowyer-Watson, exact in-circle "
            "fallback and flip pass dominate; homology is under 1%",
        ),
        Workload(
            "adjacency_map900", 30, 0.3, 540, "adjacency", None,
            "all-pairs queen adjacency over 900 precincts dominates; "
            "the complex is only ~2.6k simplices",
        ),
        Workload(
            "levelset_map900", 30, 0.3, 540, "levelset", 3,
            "41,667-simplex sparse grid complex: raster, SDF, schedule and "
            "a sparse reduction with long V chains; sets the peak RSS",
        ),
    )
}


def lattice_corners(n: int, jitter: float, rng: random.Random) -> list[list[tuple[float, float]]]:
    """(n + 1) x (n + 1) corner grid, indexed [row][col], interior ones jittered."""
    if not 0.0 <= jitter < 0.5:
        raise ValueError("jitter must be in [0, 0.5)")
    corners = []
    for r in range(n + 1):
        row = []
        for c in range(n + 1):
            x, y = float(c), float(r)
            if jitter and 0 < r < n and 0 < c < n:
                x += rng.uniform(-jitter, jitter)
                y += rng.uniform(-jitter, jitter)
            row.append((x, y))
        corners.append(row)
    return corners


def seeded_votes(count: int, k: int, rng: random.Random) -> list[tuple[int, int]]:
    """(votes_blue, votes_red) per precinct; exactly k have a red majority."""
    if not 0 <= k <= count:
        raise ValueError("k must be between 0 and the precinct count")
    red = set(rng.sample(range(count), k))
    votes = []
    for i in range(count):
        total = rng.randrange(200, 2001)
        lead = rng.randrange(1, total + 1)  # about winner minus loser
        loser = (total - lead) // 2
        winner = total - loser
        votes.append((loser, winner) if i in red else (winner, loser))
    return votes


def precinct_map(n: int, jitter: float, k: int, seed: int) -> dict:
    """GeoJSON FeatureCollection of the seeded n x n lattice map."""
    rng = random.Random(seed)
    corners = lattice_corners(n, jitter, rng)
    votes = seeded_votes(n * n, k, rng)
    features = []
    for r in range(n):
        for c in range(n):
            ring = [corners[r][c], corners[r][c + 1], corners[r + 1][c + 1], corners[r + 1][c]]
            blue, red = votes[r * n + c]
            features.append(
                {
                    "type": "Feature",
                    "properties": {"id": f"r{r:02d}c{c:02d}", "votes_blue": blue, "votes_red": red},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[x, y] for x, y in ring + ring[:1]]],
                    },
                }
            )
    return {"type": "FeatureCollection", "features": features}


def workload_geojson(w: Workload, seed: int) -> str:
    return json.dumps(precinct_map(w.n, w.jitter, w.k, seed), sort_keys=True) + "\n"
