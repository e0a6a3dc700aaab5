"""Filtered simplicial complexes and persistent homology for 2D vote maps."""

from .adjacency import AdjacencyGraph, build_adjacency_complex, queen_adjacency
from .alpha import Triangulation, alpha_filtration, build_alpha_complex, delaunay_triangulation
from .barcode import Barcode, PersistencePair, classify_long_persistence
from .complexes import FilteredComplex, close_under_faces, euler_characteristic
from .geometry import PointCloud
from .homology import (
    barcode_of,
    betti_oracle,
    build_boundary_matrix,
    persistence_pairs,
    reduce_matrix,
)
from .levelset import (
    BitMask,
    ScalarField,
    build_levelset_complex,
    rasterize_mask,
    signed_distance_field,
)
from .pipeline import BenchmarkRow, RunConfig, RunResult, benchmark_report, run_pipeline
from .precincts import Precinct, PrecinctMap, load_precincts, vote_margin, winning_precincts
from .render import render_barcode_svg, render_feature_map
from .rips import build_vr_complex

__version__ = "0.1.0"

__all__ = [
    "AdjacencyGraph",
    "Barcode",
    "BenchmarkRow",
    "BitMask",
    "FilteredComplex",
    "PersistencePair",
    "PointCloud",
    "Precinct",
    "PrecinctMap",
    "RunConfig",
    "RunResult",
    "ScalarField",
    "Triangulation",
    "alpha_filtration",
    "barcode_of",
    "benchmark_report",
    "betti_oracle",
    "build_adjacency_complex",
    "build_alpha_complex",
    "build_boundary_matrix",
    "build_levelset_complex",
    "build_vr_complex",
    "classify_long_persistence",
    "close_under_faces",
    "delaunay_triangulation",
    "euler_characteristic",
    "load_precincts",
    "persistence_pairs",
    "queen_adjacency",
    "rasterize_mask",
    "reduce_matrix",
    "render_barcode_svg",
    "render_feature_map",
    "run_pipeline",
    "signed_distance_field",
    "vote_margin",
    "winning_precincts",
]
