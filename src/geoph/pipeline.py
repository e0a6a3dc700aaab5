"""End-to-end runs: load precincts, build the requested complex, compute
persistence, and write artifacts.  Also the batch benchmark driver.
"""

from __future__ import annotations

import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .adjacency import AdjacencyGraph, build_adjacency_complex, queen_adjacency
from .alpha import build_alpha_complex
from .barcode import Barcode, classify_long_persistence
from .complexes import FilteredComplex
from .errors import GeophError, InputError
from .geometry import Point, PointCloud
from .homology import barcode_of
from .levelset import (
    MAX_SIDE,
    BitMask,
    GridVertexSchedule,
    ScalarField,
    complex_from_schedule,
    rasterize_mask,
    signed_distance_field,
    vertex_coordinates,
    vertex_schedule,
    write_pgm,
)
from .precincts import PrecinctMap, centroids, check_candidate, load_precincts, winning_precincts
from .render import render_barcode_svg, render_feature_map
from .rips import build_vr_complex

METHODS = ("vr", "alpha", "adjacency", "levelset")
VR_SWITCH_THRESHOLD = 150


@dataclass
class RunConfig:
    method: str
    candidate: str
    eps_max: float | None = None
    step: float = 0.05
    stride: int = 5
    velocity: float = 1.0
    dt: float = 1.0
    n_steps: int | None = None
    tol: float = 1e-9
    max_side: int = MAX_SIDE
    vr_warning_threshold: int = VR_SWITCH_THRESHOLD
    auto_alpha: bool = True

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InputError(f"method must be one of {METHODS}, got {self.method!r}")
        check_candidate(self.candidate)
        if self.stride < 1:
            raise InputError(f"stride must be at least 1, got {self.stride}")
        for name in ("step", "velocity", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{name} must be finite and positive, got {value}")
        if self.velocity * self.dt == 0 or not math.isfinite(
            MAX_SIDE / (self.velocity * self.dt)
        ):
            raise InputError(
                f"velocity * dt = {self.velocity * self.dt!r} is too small to count "
                f"steps across {MAX_SIDE} cells"
            )
        if self.step < sys.float_info.min:
            raise InputError(f"step must be at least {sys.float_info.min}, got {self.step}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise InputError(f"tol must be finite and non-negative, got {self.tol}")
        if self.eps_max is not None and not (
            math.isfinite(self.eps_max) and self.eps_max > 0
        ):
            raise InputError(f"eps_max must be finite and positive, got {self.eps_max}")
        if self.n_steps is not None and self.n_steps < 0:
            raise InputError(f"n_steps must be non-negative, got {self.n_steps}")


@dataclass
class BenchmarkRow:
    input_name: str
    candidate: str
    method: str
    precincts: int
    winners: int
    simplices: int
    build_seconds: float
    ph_seconds: float


@dataclass
class RunResult:
    config: RunConfig
    method_used: str
    barcode: Barcode
    complex: FilteredComplex
    row: BenchmarkRow
    vertex_coords: dict[int, Point]
    graph: AdjacencyGraph | None = None
    schedule: GridVertexSchedule | None = None
    mask: BitMask | None = None
    field_: ScalarField | None = field(default=None)


def run_pipeline(cfg: RunConfig, m: PrecinctMap, input_name: str = "map") -> RunResult:
    """Build the configured complex for one map and compute its barcode."""
    winners = winning_precincts(m, cfg.candidate)
    method = cfg.method
    graph = schedule = mask = field_v = None
    coords: dict[int, Point] = {}

    t0 = time.perf_counter()
    if not winners:
        warnings.warn(
            f"no {cfg.candidate}-winning precincts in {input_name}; empty complex",
            stacklevel=2,
        )
        fc = FilteredComplex([])
    elif method in ("vr", "alpha"):
        if method == "vr" and len(winners) > cfg.vr_warning_threshold:
            if cfg.auto_alpha:
                warnings.warn(
                    f"{len(winners)} precincts exceed the Vietoris-Rips budget; "
                    "switching to the alpha complex",
                    stacklevel=2,
                )
                method = "alpha"
            else:
                warnings.warn(
                    f"{len(winners)} precincts make the Vietoris-Rips complex large",
                    stacklevel=2,
                )
        pts = centroids(winners)
        coords = dict(enumerate(pts))
        cloud = PointCloud(points=tuple(pts))
        if method == "vr":
            fc = build_vr_complex(cloud, eps_max=cfg.eps_max)
        else:
            fc = build_alpha_complex(cloud)
    elif method == "adjacency":
        graph = queen_adjacency(m, tol=cfg.tol)
        fc = build_adjacency_complex(m, graph, cfg.candidate, step=cfg.step)
        coords = dict(enumerate(centroids(winners)))
    else:  # levelset
        mask = rasterize_mask(m, cfg.candidate, max_side=cfg.max_side)
        field_v = signed_distance_field(mask)
        schedule = vertex_schedule(
            field_v, cfg.velocity, cfg.dt, cfg.n_steps, cfg.stride
        )
        fc = complex_from_schedule(schedule)
        coords = vertex_coordinates(schedule, mask.transform)
    build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    barcode = classify_long_persistence(barcode_of(fc))
    ph_seconds = time.perf_counter() - t0

    row = BenchmarkRow(
        input_name=input_name,
        candidate=cfg.candidate,
        method=method,
        precincts=len(m),
        winners=len(winners),
        simplices=len(fc),
        build_seconds=build_seconds,
        ph_seconds=ph_seconds,
    )
    return RunResult(
        config=cfg,
        method_used=method,
        barcode=barcode,
        complex=fc,
        row=row,
        vertex_coords=coords,
        graph=graph,
        schedule=schedule,
        mask=mask,
        field_=field_v,
    )


def write_outputs(result: RunResult, m: PrecinctMap, out_dir: str | Path) -> list[Path]:
    """Write every artifact of a run into ``out_dir``; returns the paths.

    Timings appear only in run.json; all other files are byte-deterministic
    for a given input and configuration.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str) -> None:
        p = out / name
        p.write_text(text)
        written.append(p)

    emit("barcode.json", result.barcode.to_json())
    emit("barcode.svg", render_barcode_svg(result.barcode))
    emit(
        "feature_map.svg",
        render_feature_map(
            m,
            result.barcode,
            result.config.candidate,
            result.vertex_coords,
        ),
    )
    emit("complex.txt", result.complex.to_text())
    if result.graph is not None:
        emit("adjacency.txt", result.graph.to_edge_list())
    if result.schedule is not None:
        emit("schedule.txt", result.schedule.to_text())
    if result.mask is not None:
        write_pgm(result.mask, out / "mask.pgm")
        written.append(out / "mask.pgm")
    if result.field_ is not None:
        write_pgm(result.field_, out / "field.pgm")
        written.append(out / "field.pgm")
    v, e, t = result.complex.counts()
    run_info = {
        "input": result.row.input_name,
        "candidate": result.config.candidate,
        "method_requested": result.config.method,
        "method_used": result.method_used,
        "vertices": v,
        "edges": e,
        "triangles": t,
        "bars": len(result.barcode.shown()),
        "build_seconds": result.row.build_seconds,
        "ph_seconds": result.row.ph_seconds,
        "config": {
            k: v for k, v in asdict(result.config).items() if k not in ("method", "candidate")
        },
    }
    emit("run.json", json.dumps(run_info, indent=2, sort_keys=True) + "\n")
    return written


def _bench_one(path: Path, method: str, candidate: str) -> BenchmarkRow | None:
    try:
        m = load_precincts(path)
        cfg = RunConfig(method=method, candidate=candidate)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return run_pipeline(cfg, m, input_name=path.stem).row
    except GeophError as exc:
        reason = str(exc)
    except MemoryError:
        # e.g. VR on a map too large for this machine: drop the cell, not the table
        reason = "out of memory"
    warnings.warn(f"{path.name} {method}/{candidate}: {reason}", stacklevel=2)
    return None


def bench_directory(input_dir: str | Path, out_path: str | Path) -> list[BenchmarkRow]:
    """Run every method and candidate over every GeoJSON file in a directory.

    Failed combinations are dropped and show up as missing table cells.
    """
    input_dir = Path(input_dir)
    if not input_dir.is_dir():
        raise InputError(f"input directory {input_dir} not found")
    if not Path(out_path).parent.is_dir():  # checked before the first build, not after the last
        raise InputError(f"output directory {Path(out_path).parent} not found")
    files = sorted(
        p for p in input_dir.iterdir() if p.suffix.lower() in (".geojson", ".json")
    )
    if not files:
        raise InputError(f"no .geojson inputs under {input_dir}")
    tasks = [
        (f, method, cand)
        for f in files
        for method in METHODS
        for cand in ("blue", "red")
    ]
    results = [_bench_one(*t) for t in tasks]
    rows = [r for r in results if r is not None]
    rows.sort(key=lambda r: (r.input_name, r.method, r.candidate))
    benchmark_report(rows, out_path)
    return rows


def benchmark_report(rows: list[BenchmarkRow], path: str | Path) -> tuple[Path, Path]:
    """Write rows as CSV plus an aligned text table with per-method B/R columns.

    The CSV goes to ``path`` and the table alongside it with a .txt suffix.
    Cells with no corresponding run show "--".
    """
    path = Path(path)
    txt_path = path.with_suffix(".txt")

    header = "input,candidate,method,precincts,winners,simplices,build_seconds,ph_seconds"
    lines = [header]
    for r in sorted(rows, key=lambda r: (r.input_name, r.method, r.candidate)):
        lines.append(
            f"{r.input_name},{r.candidate},{r.method},{r.precincts},{r.winners},"
            f"{r.simplices},{r.build_seconds:.4f},{r.ph_seconds:.4f}"
        )
    path.write_text("\n".join(lines) + "\n")

    by_cell = {(r.input_name, r.method, r.candidate): r for r in rows}
    inputs = sorted({r.input_name for r in rows})
    nprec = {r.input_name: r.precincts for r in rows}

    def table(title: str, cell) -> list[str]:
        cols = ["input", "#prec"] + [f"{m} {c}" for m in METHODS for c in ("B", "R")]
        grid = [cols]
        for name in inputs:
            row = [name, str(nprec[name])]
            for m in METHODS:
                for cand in ("blue", "red"):
                    r = by_cell.get((name, m, cand))
                    row.append("--" if r is None else cell(r))
            grid.append(row)
        widths = [max(len(row[i]) for row in grid) for i in range(len(cols))]
        out = [title, ""]
        for j, row in enumerate(grid):
            out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
            if j == 0:
                out.append("  ".join("-" * w for w in widths))
        out.append("")
        return out

    text = []
    text += table("Simplex counts", lambda r: str(r.simplices))
    text += table(
        "Seconds (build/homology)",
        lambda r: f"{r.build_seconds:.2f}/{r.ph_seconds:.2f}",
    )
    txt_path.write_text("\n".join(text))
    return path, txt_path
