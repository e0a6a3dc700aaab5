"""Vietoris-Rips filtration of a planar point cloud, up to triangles.

A simplex enters at the largest pairwise distance among its vertices.  The
construction is incremental: vertices are added one at a time, and the
cofaces of each new vertex are enumerated among its already-present
neighbors, so nothing beyond the distance cutoff is ever touched.
"""

from __future__ import annotations

import warnings
from itertools import combinations

import numpy as np

from .complexes import Entry, FilteredComplex
from .errors import NumericalError
from .geometry import PointCloud, distance_matrix


def build_vr_complex(pc: PointCloud, eps_max: float | None = None) -> FilteredComplex:
    """All simplices of dimension <= 2 whose pairwise distances are <= eps_max.

    With the default cutoff (the point-cloud diameter) the result is the
    full flag complex on the points.  Coincident points yield zero-length
    edges, which are allowed but warned about.  Raises NumericalError when
    a distance is not finite (coordinates too large for their squares to be
    floats).
    """
    n = len(pc)
    if n == 0:
        raise ValueError("empty point cloud")
    with np.errstate(over="ignore", invalid="ignore"):
        dist = distance_matrix(pc)
    if not np.isfinite(dist).all():
        raise NumericalError("pairwise distance is not finite; coordinates are too large")
    if eps_max is None:
        eps_max = float(dist.max())
        if eps_max == 0.0:
            eps_max = 1.0  # degenerate cloud; any positive cutoff works
    eps_max = float(eps_max)
    if eps_max <= 0.0:
        raise ValueError("eps_max must be positive")

    rows = dist.tolist()
    entries: list[Entry] = [((v,), 0.0) for v in range(n)]
    saw_zero_edge = False
    for v in range(n):
        row_v = rows[v]
        lower = [u for u in range(v) if row_v[u] <= eps_max]
        for u in lower:
            d = row_v[u]
            if d == 0.0:
                saw_zero_edge = True
            entries.append(((u, v), d))
        for u, w in combinations(lower, 2):
            duw = rows[u][w]
            if duw <= eps_max:
                entries.append(((u, w, v), max(duw, row_v[u], row_v[w])))
    if saw_zero_edge:
        warnings.warn("coincident points produce zero-length edges", stacklevel=2)
    return FilteredComplex(entries)
