"""Vietoris-Rips filtration of a planar point cloud, up to triangles.

A simplex enters at the largest pairwise distance among its vertices.  The
construction is incremental: vertices are added one at a time, and the
cofaces of each new vertex are enumerated among its already-present
neighbors, so nothing beyond the distance cutoff is ever touched.
"""

from __future__ import annotations

import warnings

import numpy as np

from .complexes import FilteredComplex
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

    near = dist <= eps_max
    v, u = np.nonzero(np.tril(near, -1))  # edges (u, v) with u < v
    edge_values = dist[v, u]
    triangles, triangle_values = [], []
    for w in range(n):
        lower = np.flatnonzero(near[w, :w])
        a, b = np.nonzero(np.triu(near[np.ix_(lower, lower)], 1))
        a, b = lower[a], lower[b]
        triangles.append(np.stack([a, b, np.full_like(a, w)], axis=1))
        triangle_values.append(np.maximum(np.maximum(dist[a, b], dist[w, a]), dist[w, b]))
    if (edge_values == 0.0).any():
        warnings.warn("coincident points produce zero-length edges", stacklevel=2)
    return FilteredComplex._from_arrays(
        [np.arange(n), np.stack([u, v], axis=1), np.concatenate(triangles)],
        [np.zeros(n), edge_values, np.concatenate(triangle_values)],
    )
