"""Per-layer spans of one build, timed from outside the program.

``traced_build`` runs one real ``geoph build`` (``geoph.cli.main``) while
the layer functions it reaches are wrapped.  Each ``SPANS`` entry names a
function where its caller looks it up (module, attribute); every call
through that name adds its wall time to one span, and the value it
returns is kept.  Counts are read off those values and off the
``RunResult`` of ``run_pipeline`` after the build.  ``COUNTED`` functions
are only counted, not timed: ``adjacency.pairs_tested`` is the number of
``precincts_touch`` calls, and that wrapper's cost lands in
``adjacency.queen_s``.  Layers a workload does not use keep span 0 and
count 0.  A name that no longer exists is skipped and reported, so a
renamed function shows up as a missing span rather than a crash.

The artifacts are the build's own, so their digests can be compared with
the timed builds'.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Callable

# name -> unit, in the order the report prints them
PER_LAYER = {
    "precincts.load_s": "s",
    "precincts.winners_s": "s",
    "precincts.centroids_s": "s",
    "precincts.n": "count",
    "precincts.winners": "count",
    "precincts.ring_points": "count",
    "rips.build_s": "s",
    "alpha.delaunay_s": "s",
    "alpha.filtration_s": "s",
    "alpha.triangles": "count",
    "adjacency.queen_s": "s",
    "adjacency.complex_s": "s",
    "adjacency.pairs_tested": "count",
    "adjacency.edges": "count",
    "adjacency.edge_yield": "ratio",
    "levelset.rasterize_s": "s",
    "levelset.sdf_s": "s",
    "levelset.schedule_s": "s",
    "levelset.complex_s": "s",
    "levelset.mask_cells": "count",
    "levelset.lattice_vertices": "count",
    "complexes.init_s": "s",
    "complexes.to_text_s": "s",
    "complexes.simplices.d0": "count",
    "complexes.simplices.d1": "count",
    "complexes.simplices.d2": "count",
    "homology.boundary_s": "s",
    "homology.reduce_s": "s",
    "homology.pairs_s": "s",
    "homology.classify_s": "s",
    "homology.boundary_nnz": "count",
    "homology.reduced_nnz": "count",
    "homology.chain_nnz": "count",
    "homology.finite_pairs": "count",
    "homology.rendered_ratio": "ratio",
    "homology.reduce_rss_mb": "MB",
    "render.barcode_json_s": "s",
    "render.barcode_svg_s": "s",
    "render.feature_map_s": "s",
    "render.artifact_bytes": "bytes",
    "pipeline.run_s": "s",
    "pipeline.write_outputs_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}


# (module, attribute, span): the names cli.main's build reaches, in call order
SPANS = (
    ("geoph.cli", "load_precincts", "precincts.load_s"),
    ("geoph.cli", "run_pipeline", "pipeline.run_s"),
    ("geoph.pipeline", "winning_precincts", "precincts.winners_s"),
    ("geoph.pipeline", "centroids", "precincts.centroids_s"),
    ("geoph.pipeline", "build_vr_complex", "rips.build_s"),
    ("geoph.alpha", "delaunay_triangulation", "alpha.delaunay_s"),
    ("geoph.alpha", "alpha_filtration", "alpha.filtration_s"),
    ("geoph.pipeline", "queen_adjacency", "adjacency.queen_s"),
    ("geoph.pipeline", "build_adjacency_complex", "adjacency.complex_s"),
    ("geoph.pipeline", "rasterize_mask", "levelset.rasterize_s"),
    ("geoph.pipeline", "signed_distance_field", "levelset.sdf_s"),
    ("geoph.pipeline", "vertex_schedule", "levelset.schedule_s"),
    ("geoph.pipeline", "complex_from_schedule", "levelset.complex_s"),
    ("geoph.homology", "build_boundary_matrix", "homology.boundary_s"),
    ("geoph.homology", "reduce_matrix", "homology.reduce_s"),
    ("geoph.homology", "persistence_pairs", "homology.pairs_s"),
    ("geoph.pipeline", "classify_long_persistence", "homology.classify_s"),
    ("geoph.cli", "write_outputs", "pipeline.write_outputs_s"),
    ("geoph.homology", "Barcode.to_json", "render.barcode_json_s"),
    ("geoph.pipeline", "render_barcode_svg", "render.barcode_svg_s"),
    ("geoph.pipeline", "render_feature_map", "render.feature_map_s"),
    ("geoph.complexes", "FilteredComplex.to_text", "complexes.to_text_s"),
)

# (module, attribute, count): called too often to time each call
COUNTED = (
    ("geoph.adjacency", "precincts_touch", "adjacency.pairs_tested"),
)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Trace:
    """Spans (seconds, summed per name), returned values, ``ru_maxrss``
    growth and counts of one traced build."""

    def __init__(self) -> None:
        self.spans: dict[str, float] = {}
        self.results: dict[str, object] = {}
        self.rss_growth: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []

    def timed(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss0, t0 = maxrss_mb(), time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[name] = self.spans.get(name, 0.0) + time.perf_counter() - t0
            self.rss_growth[name] = self.rss_growth.get(name, 0.0) + maxrss_mb() - rss0
            self.results[name] = out
            return out

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        self.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every SPANS and COUNTED name for the length of the block."""
        patched = []
        try:
            for table, make in ((SPANS, self.timed), (COUNTED, self.counted)):
                for module, attr, name in table:
                    owner = importlib.import_module(module)
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = vars(owner).get(leaf)
                    if original is None:
                        self.missing.append(f"{module}.{attr}")
                        continue
                    setattr(owner, leaf, make(original, name))
                    patched.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(patched):
                setattr(owner, leaf, original)


def traced_build(build: Callable[[], tuple[float, int]]) -> Trace:
    """Run ``build`` (one ``geoph build``, returning seconds and exit code)
    with the layer functions wrapped, then derive the per-layer counts."""
    from geoph.complexes import FilteredComplex

    tr = Trace()
    with tr.installed():
        seconds, code = build()
    if code != 0:
        raise RuntimeError(f"traced geoph build exited {code}")
    tr.spans["trace.total_s"] = seconds

    got, counts = tr.results.get, tr.counts
    m, result = got("precincts.load_s"), got("pipeline.run_s")
    if m is None or result is None:
        raise RuntimeError(f"the traced build did not reach {', '.join(tr.missing)}")
    fc, barcode = result.complex, result.barcode

    # Outside the traced total: the validating constructor's share.
    t0 = time.perf_counter()
    FilteredComplex(fc.entries)
    tr.spans["complexes.init_s"] = time.perf_counter() - t0

    counts["precincts.n"] = len(m)
    counts["precincts.winners"] = result.row.winners
    counts["precincts.ring_points"] = sum(len(ring) for p in m for ring in p.rings)
    tri = got("alpha.delaunay_s")
    counts["alpha.triangles"] = len(tri.triangles) if tri is not None else 0
    if result.graph is not None:
        pairs = counts.get("adjacency.pairs_tested", 0)
        counts["adjacency.edges"] = len(result.graph.edges)
        counts["adjacency.edge_yield"] = len(result.graph.edges) / pairs if pairs else 0.0
    if result.schedule is not None:
        counts["levelset.mask_cells"] = int(result.mask.cells.sum())
        counts["levelset.lattice_vertices"] = len(result.schedule.rows) * len(result.schedule.cols)
    d0, d1, d2 = fc.counts()
    counts["complexes.simplices.d0"] = d0
    counts["complexes.simplices.d1"] = d1
    counts["complexes.simplices.d2"] = d2
    bm, reduced = got("homology.boundary_s"), got("homology.reduce_s")
    if bm is not None:
        counts["homology.boundary_nnz"] = sum(len(c) for c in bm.columns)
    if reduced is not None:
        counts["homology.reduced_nnz"] = sum(len(c) for c in reduced.matrix.columns)
        counts["homology.chain_nnz"] = sum(len(c) for c in reduced.chains)
        counts["homology.finite_pairs"] = len(reduced.pairs)
        counts["homology.reduce_rss_mb"] = tr.rss_growth["homology.reduce_s"]
    counts["homology.rendered_ratio"] = len(barcode.rendered()) / len(barcode.pairs)
    written = got("pipeline.write_outputs_s") or []
    counts["render.artifact_bytes"] = sum(p.stat().st_size for p in written)
    return tr


def summarize(traces: list[Trace], build_s: list[float]) -> dict[str, float]:
    """Per-layer metrics: median span over traced builds, counts of the first.

    The first traced build runs before any other build in its process, so
    its ``ru_maxrss`` growth across the reduction is the reduction's own.
    """
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(traces[0].counts)
    for name in traces[0].spans:
        metrics[name] = statistics.median(t.spans.get(name, 0.0) for t in traces)
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - statistics.median(build_s)
    return metrics
